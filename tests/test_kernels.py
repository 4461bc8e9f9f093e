import numpy as np
import pytest

from charfactor import _kernels


def _random_arrays(rng, n):
    a = rng.integers(-50, 50, size=n).astype(np.int64)
    b = rng.integers(-50, 50, size=n).astype(np.int64)
    a[0] = rng.choice([1, -1])
    return a, b


LANES = [("numpy", _kernels.NUMPY_LANE)]
if _kernels.HAVE_NUMBA:
    LANES.append(("numba", _kernels.NUMBA_LANE))


@pytest.mark.parametrize("name,lane", LANES)
def test_convolve_matches_reference(name, lane):
    rng = np.random.default_rng(7)
    for n in (1, 2, 17, 64):
        a, b = _random_arrays(rng, n)
        got = lane["convolve"](a, b, n)
        want = np.convolve(a, b)[:n]
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name,lane", LANES)
def test_invert_unit_round_trip(name, lane):
    # sparse +-1 inputs (the production shape) invert to full length
    rng = np.random.default_rng(11)
    for n in (1, 2, 25, 80):
        a = np.zeros(n, np.int64)
        idx = rng.choice(n, size=max(1, n // 4), replace=False)
        a[idx] = rng.choice(np.array([1, -1], np.int64), size=len(idx))
        a[0] = rng.choice([1, -1])
        out, valid = lane["invert_unit"](a, n)
        assert valid == n
        check = np.convolve(a, out)[:n]
        assert check[0] == 1 and not check[1:].any()


@pytest.mark.parametrize("name,lane", LANES)
def test_invert_unit_partial_prefix_is_exact(name, lane):
    rng = np.random.default_rng(5)
    a, _ = _random_arrays(rng, 25)
    out, valid = lane["invert_unit"](a, 25)
    assert 0 < valid <= 25
    check = np.convolve(a, out[:valid])[:valid]
    assert check[0] == 1 and not check[1:].any()


@pytest.mark.parametrize("name,lane", LANES)
def test_invert_unit_bails_before_overflow(name, lane):
    # 1/(1 - 50q) has coefficients 50^k, which leave int64 near k = 11
    n = 100
    a = np.zeros(n, np.int64)
    a[0], a[1] = 1, -50
    out, valid = lane["invert_unit"](a, n)
    assert 0 < valid < n
    # the prefix it did produce must be exact
    check = np.convolve(a, out[:valid])[:valid]
    assert check[0] == 1 and not check[1:].any()


@pytest.mark.parametrize("name,lane", LANES)
def test_binomial_product_matches_reference(name, lane):
    rng = np.random.default_rng(13)
    n = 60
    shifts = rng.integers(1, 12, size=20).astype(np.int64)
    signs = rng.choice(np.array([1, -1], np.int64), size=20)
    out, ok = lane["binomial_product"](shifts, signs, n)
    assert ok
    want = np.zeros(n, np.int64)
    want[0] = 1
    for m, s in zip(shifts.tolist(), signs.tolist()):
        nxt = want.copy()
        nxt[m:] -= s * want[:-m]
        want = nxt
    assert np.array_equal(out, want)


@pytest.mark.parametrize("name,lane", LANES)
@pytest.mark.parametrize("copies", [62, 64, 65, 66, 80])
def test_binomial_product_bails_where_the_true_maximum_reaches_the_limit(name, lane, copies):
    # (1 + q)^k: bail before the first factor that meets max|c| >= LIMIT/2
    n = 81
    want = [1] + [0] * (n - 1)
    ok = True
    for _ in range(copies):
        if max(map(abs, want)) >= _kernels.LIMIT // 2:
            ok = False
            break
        want = [want[0]] + [want[k] + want[k - 1] for k in range(1, n)]
    shifts = np.ones(copies, np.int64)
    out, got_ok = lane["binomial_product"](shifts, -shifts, n)
    assert got_ok == ok
    assert out.tolist() == want


@pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba unavailable")
def test_lanes_agree():
    rng = np.random.default_rng(17)
    a, b = _random_arrays(rng, 40)
    assert np.array_equal(
        _kernels.NUMPY_LANE["convolve"](a, b, 40),
        _kernels.NUMBA_LANE["convolve"](a, b, 40),
    )
    o1, v1 = _kernels.NUMPY_LANE["invert_unit"](a, 40)
    o2, v2 = _kernels.NUMBA_LANE["invert_unit"](a, 40)
    assert v1 == v2 and np.array_equal(o1[:v1], o2[:v2])


def test_env_flag_selects_numpy_lane():
    import os
    import subprocess
    import sys

    code = "import charfactor._kernels as k; print(k.LANE)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, CHARFACTOR_NUMBA="0"),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "numpy"

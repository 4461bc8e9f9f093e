import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charfactor import _kernels

from oracles import naive_product


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
    out, one_limb = lane["binomial_product"](shifts, signs, n)
    assert one_limb
    want = np.zeros(n, np.int64)
    want[0] = 1
    for m, s in zip(shifts.tolist(), signs.tolist()):
        nxt = want.copy()
        nxt[m:] -= s * want[:-m]
        want = nxt
    assert out == want.tolist()


@pytest.mark.parametrize("name,lane", LANES)
@pytest.mark.parametrize("copies", [62, 64, 65, 66, 80])
def test_binomial_product_bails_where_the_true_maximum_reaches_the_limit(name, lane, copies):
    # (1 + q)^k is exact; it leaves one int64 limb before the first factor
    # that meets max|c| >= LIMIT/2, and not earlier
    n = 81
    want = [1] + [0] * (n - 1)
    one_limb = True
    for _ in range(copies):
        if max(map(abs, want)) >= _kernels.LIMIT // 2:
            one_limb = False
        want = [want[0]] + [want[k] + want[k - 1] for k in range(1, n)]
    shifts = np.ones(copies, np.int64)
    out, got_one_limb = lane["binomial_product"](shifts, -shifts, n)
    assert got_one_limb == one_limb
    assert out == want


_binomials = st.lists(
    st.tuples(st.sampled_from([1, -1]), st.one_of(st.integers(1, 3), st.integers(1, 119))),
    max_size=400,
)


@given(binomials=_binomials, n_out=st.integers(1, 120))
@example(binomials=[(-1, 1)] * 300, n_out=120)  # C(300, 119) ~ 2^290: about ten limbs
@example(binomials=[(1, 1)] * 300, n_out=120)  # the same magnitudes with alternating signs
@example(binomials=[(-1, 2)] * 200 + [(1, 3)] * 120 + [(-1, 119)] * 3, n_out=120)
@settings(max_examples=100, deadline=None)
def test_binomial_product_matches_naive_product(binomials, n_out):
    binomials = [(s, m) for s, m in binomials if m < n_out]
    shifts = np.array([m for _, m in binomials], np.int64)
    signs = np.array([s for s, _ in binomials], np.int64)
    out, one_limb = _kernels.binomial_product(shifts, signs, n_out)
    want = naive_product(binomials, n_out - 1)
    assert out == want
    assert all(type(c) is int for c in out)
    if one_limb:
        assert max(map(abs, want)) < _kernels.LIMIT


def test_binomial_product_carries_past_two_hundred_bits():
    # (1 + q)^300 (1 - q^2)^40: coefficients past 2^200 of both signs
    n = 301
    shifts = np.array([1] * 300 + [2] * 40, np.int64)
    signs = np.array([-1] * 300 + [1] * 40, np.int64)
    out, one_limb = _kernels.binomial_product(shifts, signs, n)
    assert not one_limb
    assert max(out) > 2**200 and min(out) < -(2**200)
    assert out == naive_product(list(zip(signs.tolist(), shifts.tolist())), n - 1)


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

    # the child finds the package where this process imported it from
    src = os.path.dirname(os.path.dirname(_kernels.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import charfactor._kernels as k; print(k.LANE)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, CHARFACTOR_NUMBA="0", PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "numpy"

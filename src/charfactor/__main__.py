"""``python -m charfactor``: the command line of :mod:`charfactor.cli`."""
from .cli import main
main()

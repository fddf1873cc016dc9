"""``python -m walgebra``: the command-line interface of :mod:`walgebra.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""``python -m mfrn``: the same command line as the ``mfrn`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

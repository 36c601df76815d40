"""``python -m meyersig``: the same command line as the ``meyersig`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""`python -m djets ...` runs the same command line as `djets ...`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""`python -m flagdyn`: the command line of `flagdyn.cli`, with its exit code."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""python -m iqtuples ...: the same command line as the installed iqtuples script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

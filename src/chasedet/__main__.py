"""Command line entry point: python -m chasedet [flags]."""

import sys

from .simcli import main

if __name__ == "__main__":
    sys.exit(main())

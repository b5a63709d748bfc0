"""``python -m polyorbit ...``: the same command line as the ``polyorbit`` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

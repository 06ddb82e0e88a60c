"""`python -m sdrnn ...`: the sdrnn command line without an install."""

import sys

from .cli import main

# a spawned feature worker imports this module as __mp_main__
if __name__ == "__main__":
    sys.exit(main())

"""``python -m quizeval``: the same command line as the ``quizeval`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

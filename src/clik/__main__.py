"""``python -m clik``: the command-line front end (:func:`clik.cli.main`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

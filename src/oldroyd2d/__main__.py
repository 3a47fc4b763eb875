"""``python -m oldroyd2d``: the command line front end."""

import sys

from oldroyd2d.cli import main

if __name__ == "__main__":
    sys.exit(main())

"""``python -m tierank``: the same command line as the ``tierank`` script."""

import sys

from .cli import main

sys.exit(main())

"""``python -m gradedgroups``: the command line of :mod:`gradedgroups.cli`."""

import sys

from .cli import main

sys.exit(main())

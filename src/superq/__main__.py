"""``python -m superq``: the ``superq`` command line."""

import sys

from . import cli

sys.exit(cli.main())

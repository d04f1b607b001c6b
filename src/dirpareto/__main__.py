"""``python -m dirpareto``: the command-line interface of ``dirpareto.cli``."""

import sys

from .cli import main

sys.exit(main())

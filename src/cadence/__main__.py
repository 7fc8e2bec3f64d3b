"""Run the command-line interface: ``python -m cadence``."""

import sys

from .cli import main

sys.exit(main())

"""`python -m corrpool`: the corrpool command line."""

import sys

from .cli import main

sys.exit(main())

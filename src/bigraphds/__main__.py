"""Run the command-line interface as ``python -m bigraphds``."""
from .cli import main

raise SystemExit(main())

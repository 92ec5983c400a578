"""``python -m sprw``: the command line of :mod:`sprw.cli`."""

from .cli import main

raise SystemExit(main())

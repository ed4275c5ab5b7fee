"""`python -m chronoseq`: the same command line as the `chronoseq` console script."""
import sys

from .cli import main

sys.exit(main())

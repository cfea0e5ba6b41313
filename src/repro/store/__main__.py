"""``python -m repro.store`` — the run store's check-resume harness."""

import sys

from repro.store.cli import main

if __name__ == "__main__":
    sys.exit(main())

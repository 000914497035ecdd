"""``python -m repro.experiments run|list ...``: the experiment registry CLI.

See :mod:`repro.experiments.registry` for the commands.
"""

import sys

from repro.experiments.registry import main

if __name__ == "__main__":
    sys.exit(main())

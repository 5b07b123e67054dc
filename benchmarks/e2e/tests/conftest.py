"""Self-tests of the benchmark: ``pytest benchmarks/e2e/tests``.

Not part of the tier-1 suite (``testpaths = ["tests"]``).
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
for path in (str(ROOT / "src"), str(E2E.parent)):
    if path not in sys.path:
        sys.path.insert(0, path)

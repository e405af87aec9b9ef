"""End-to-end benchmark of the orchestrator stack.

``python -m bench run`` drives six seeded workloads through the public
entry points of :mod:`repro` (service layer, orchestrator, recovery,
SAP hosts), checks what comes back, and prints every metric by name.
The harness lives entirely in this directory: it imports ``repro`` from
the sibling ``src/`` tree and never edits it.  See ``bench/README.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# The benchmark measures the program in the checkout it sits in, never an
# installed copy, so the sibling source tree goes first on the path.
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

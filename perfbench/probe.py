"""Set-up probe: a fresh interpreter imports rankmetric and builds codes.

Usage: python3 perfbench/probe.py '[[q, m, n, k], ...]'

Every CLI invocation pays this cost; run.py times the whole process.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rankmetric.cli  # noqa: E402,F401  (the CLI imports every layer)
from rankmetric import GabidulinCode, make_field  # noqa: E402

for q, m, n, k in json.loads(sys.argv[1]):
    GabidulinCode(make_field(q, m), n=n, k=k)

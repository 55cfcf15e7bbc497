"""Light entry points load only what they run.

The benchmark reader (``python -m repro.analysis.bench``) is stdlib-only
and the service client only encodes requests, so importing either must
load neither numpy nor the simulator.
"""

import subprocess
import sys

import pytest

PROBE = """
import sys
import {module}
heavy = sorted(
    name for name in sys.modules
    if name.split(".")[0] == "numpy" or name == "repro.sim"
    or name.startswith("repro.sim.")
)
print(" ".join(heavy))
"""


@pytest.mark.parametrize(
    "module", ("repro.analysis.bench", "repro.service.client")
)
def test_import_loads_neither_numpy_nor_the_simulator(module):
    # A fresh interpreter: this one has long since imported both.
    probe = subprocess.run(
        [sys.executable, "-c", PROBE.format(module=module)],
        capture_output=True, text=True, check=True,
    )
    assert probe.stdout.split() == []

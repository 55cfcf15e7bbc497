"""Light entry points load only what they run, and documented names
exist.

The benchmark reader (``python -m repro.analysis.bench``) is stdlib-only
and the service client only encodes requests, so importing either must
load neither numpy nor the simulator. Every backticked ``repro.…`` name
in the documents must import or resolve as an attribute.
"""

import importlib
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")

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


def _documented_names() -> set[str]:
    """Dotted ``repro.…`` names inside inline code spans (fenced code
    blocks are left out)."""
    names = set()
    for pattern in DOCUMENTS:
        for path in sorted(ROOT.glob(pattern)):
            text = re.sub(r"^```.*?^```", "", path.read_text(),
                          flags=re.M | re.S)
            for span in re.findall(r"`([^`\n]+)`", text):
                names.update(re.findall(r"\brepro(?:\.\w+)+", span))
    return names


def _resolves(name: str) -> bool:
    """Import the longest module prefix of ``name``, then look up the
    rest as attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def test_documented_names_resolve():
    names = _documented_names()
    assert "repro.sim.core" in names  # the scan finds the documents
    assert sorted(name for name in names if not _resolves(name)) == []

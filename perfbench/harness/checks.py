"""Expected outputs and the comparisons every operation goes through.

The expected values live in ``perfbench/expected/`` and are recorded
from the program by ``python3 perfbench/record.py``. Simulated
statistics are deterministic, so every ``SimStats`` field must match
exactly, except the two engine diagnostics (``ticks_executed``,
``skipped_cycles``) that describe how the simulator got there rather
than the simulated hardware — the same exemption the program's own
equivalence suites make.
"""

from __future__ import annotations

import json
import pathlib
import re
from dataclasses import fields

EXPECTED_DIR = pathlib.Path(__file__).resolve().parent.parent / "expected"

#: SimStats fields allowed to differ between engines.
EXEMPT_FIELDS = frozenset({"ticks_executed", "skipped_cycles"})

_TIMING_LINE = re.compile(r"^\(\d+(\.\d+)?s\)$|^total: ")


def jsonable(value: object) -> object:
    """The JSON shape of a stats value (tuples become lists)."""
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    return value


def stats_fields(stats: object) -> dict:
    """Every field of a ``SimStats`` as a JSON-able mapping."""
    return {f.name: jsonable(getattr(stats, f.name)) for f in fields(stats)}


def differing_fields(actual: dict, expected: dict) -> list[str]:
    """Names of the non-exempt fields whose values differ (a field
    present on only one side differs too)."""
    names = (set(actual) | set(expected)) - EXEMPT_FIELDS
    return sorted(
        name for name in names
        if name not in actual or name not in expected
        or actual[name] != expected[name]
    )


def strip_timing(text: str) -> str:
    """Rendered experiment output without wall-clock lines."""
    return "\n".join(
        line for line in text.splitlines() if not _TIMING_LINE.match(line)
    )


def load(name: str) -> dict:
    with open(EXPECTED_DIR / f"{name}.json") as handle:
        return json.load(handle)


def save(name: str, payload: dict) -> None:
    EXPECTED_DIR.mkdir(exist_ok=True)
    with open(EXPECTED_DIR / f"{name}.json", "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, label: str, actual: dict, expected: dict | None) -> bool:
        if expected is None:
            self.fail(f"{label}: no expected output recorded")
            return False
        diff = differing_fields(actual, expected)
        if diff:
            self.fail(f"{label}: fields differ: {', '.join(diff[:6])}")
            return False
        self.ok()
        return True

"""Committed reference outputs and the comparison every run makes against them.

``references/seed-<n>.json`` maps each workload to its operations (a
session, a period, a served stream, a sweep task) and their outputs.
Integers, booleans and strings must match exactly; floats to 1e-9, the
program's own parity tolerance, item by item inside lists and mappings.
``make_references.py`` writes the files after verifying them against
independent evaluations.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = ["REFERENCE_DIR", "TOLERANCE", "compare", "dumps", "load", "path_for", "values_match"]

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
TOLERANCE = 1e-9

Outputs = Dict[str, Dict[str, Any]]


def path_for(seed: int) -> Path:
    """Where the references of *seed* live."""
    return REFERENCE_DIR / f"seed-{int(seed)}.json"


def load(seed: int, workload: str) -> Optional[Outputs]:
    """The committed outputs of *workload* at *seed*, or ``None`` if there are none."""
    path = path_for(seed)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(workload)


def values_match(expected: Any, actual: Any) -> bool:
    """Exact for everything but floats, which must agree to :data:`TOLERANCE`.

    Lists and mappings match when they have the same length or keys and
    every item matches.
    """
    if isinstance(expected, bool) or isinstance(actual, bool):
        return expected is actual
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(expected, (int, float)) or not isinstance(actual, (int, float)):
            return False
        return math.isclose(expected, actual, rel_tol=TOLERANCE, abs_tol=TOLERANCE)
    if isinstance(expected, (list, tuple)) and isinstance(actual, (list, tuple)):
        return len(expected) == len(actual) and all(map(values_match, expected, actual))
    if isinstance(expected, dict) and isinstance(actual, dict):
        return expected.keys() == actual.keys() and all(
            values_match(expected[key], actual[key]) for key in expected
        )
    return expected == actual


def dumps(references: Dict[str, Outputs]) -> str:
    """JSON text of *references* with one operation per line."""
    blocks = []
    for workload in sorted(references):
        operations = references[workload]
        body = ",\n".join(
            f"  {json.dumps(name)}: {json.dumps(operations[name], sort_keys=True)}" for name in sorted(operations)
        )
        blocks.append(f" {json.dumps(workload)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def compare(expected: Outputs, actual: Outputs) -> List[str]:
    """One message per operation whose outputs differ, or that only one side has."""
    problems = []
    for operation in sorted(set(expected) | set(actual)):
        if operation not in actual:
            problems.append(f"{operation}: missing from this run")
            continue
        if operation not in expected:
            problems.append(f"{operation}: not in the references")
            continue
        want, got = expected[operation], actual[operation]
        differing = [
            field
            for field in sorted(set(want) | set(got))
            if field not in want or field not in got or not values_match(want[field], got[field])
        ]
        if differing:
            detail = ", ".join(f"{field} {want.get(field)!r} != {got.get(field)!r}" for field in differing)
            problems.append(f"{operation}: {detail}")
    return problems

"""Known answers every workload's verdicts are checked against.

Each checker returns one problem string per contradicting verdict (or
per missing detection); an empty list means the outputs are correct.
The number of problems is what a run reports as ``failed``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Set, Tuple

PASS, FAIL = "pass", "fail"

#: one checked assertion: (module, qualified name, status, replays) —
#: ``replays`` is whether a FAIL's counterexample replays (None for
#: any other status)
Verdict = Tuple[str, str, str, Optional[bool]]


def check_campaign(verdicts: Iterable[Verdict],
                   seeded_modules: Set[str]) -> List[str]:
    """The failing modules must be exactly ``seeded_modules``, every
    other assertion must PASS, and every counterexample must replay."""
    problems: List[str] = []
    failing: Set[str] = set()
    for module, name, status, replays in verdicts:
        if status == FAIL:
            if module not in seeded_modules:
                problems.append(f"{name}: FAIL in defect-free {module}")
            elif not replays:
                problems.append(f"{name}: counterexample does not replay")
            else:
                failing.add(module)
        elif status != PASS:
            problems.append(f"{name}: {status.upper()}")
    for module in sorted(seeded_modules - failing):
        problems.append(f"{module}: seeded defect has no FAIL")
    return problems


def check_sweep(record: Dict[str, object],
                statuses: Iterable[Tuple[str, str]]) -> List[str]:
    """No mutant survives, each mutant's failing categories include
    its expected category, and no job is TIMEOUT/UNKNOWN.  ``statuses``
    lists ``(name, status)`` for every job of the sweep."""
    problems = [f"{name}: {status.upper()}" for name, status in statuses
                if status not in (PASS, FAIL)]
    for row in record["mutants"]:
        if not row["detected"]:
            problems.append(f"{row['site']}: mutant survived")
        elif row["expected_category"] not in row["failing_categories"]:
            problems.append(
                f"{row['site']}: expected a {row['expected_category']} "
                f"FAIL, got {row['failing_categories']}")
    if record["detection"]["survivors"]:
        problems.append(
            f"survivors: {record['detection']['survivors']}")
    return problems


def sweep_outcome_digest(record: Dict[str, object]) -> str:
    """Digest of the sweep's outcome sections (``mutants`` and
    ``detection``), stable from run to run.  ``record_digest`` is not:
    it embeds the config digest, which names the temporary cache."""
    payload = {"mutants": record["mutants"],
               "detection": record["detection"]}
    return hashlib.sha256(json.dumps(
        payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def canonical_verdicts(canonical: str) -> List[Tuple[str, str, str, str,
                                                     object]]:
    """``(module, vunit, assert, status, frames)`` rows of a report's
    canonical text, as the service's status snapshot carries it."""
    rows = json.loads(canonical)["results"]
    return [(module, vunit, assert_name, status, frames)
            for _block, module, vunit, assert_name, _category, status,
            _engine, _depth, frames in rows]

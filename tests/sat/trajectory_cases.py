"""The cases behind ``tests/goldens/sat_trajectories.json``.

The bundled CDCL's contract is its *trajectory*: the same clause
sequence and assumptions give the same decisions, conflicts and
propagations.  The golden pins that trajectory in two ways:

* ``specs`` — ``backend="sat", use_hints=False`` certification runs:
  each entry keeps the envelope's ``sat_certificate`` effort fields and
  the SHA-256 of the envelope bytes;
* ``cnfs`` — raw :class:`~repro.sat.cdcl.Cdcl` runs over seeded random
  CNFs, some solved more than once on the same solver under different
  assumptions (learnt clauses, phases and activities carry over).  Each
  solve records the counters, the model (as true variables) or the
  core.

Regenerate (only when a trajectory change is intended and justified)::

    PYTHONPATH=src python tests/sat/trajectory_cases.py > tests/goldens/sat_trajectories.json
"""

from __future__ import annotations

import hashlib
import json
import random

#: label -> CoverSpec payload overrides on top of ``backend="sat",
#: use_hints=False``.
SPEC_CASES: dict[str, dict] = {
    **{f"K{n}": {"n": n} for n in (4, 5, 6, 7, 8, 9, 10, 11, 13)},
    "2K8": {"n": 8, "lam": 2},
    "K9_max3": {"n": 9, "max_size": 3},
}

CERT_FIELDS = ("per_k", "conflicts", "decisions", "propagations", "assumption_core")

CNF_SEEDS = range(50)

SOLVER_FIELDS = ("conflicts", "decisions", "propagations", "learned", "restarts")


def spec_record(label: str) -> dict:
    from repro.api import CoverSpec, solve

    spec = CoverSpec(**SPEC_CASES[label], backend="sat", use_hints=False)
    result = solve(spec, cache=None)
    cert = result.sat_certificate
    record = {field: cert[field] for field in CERT_FIELDS}
    record["envelope_sha256"] = hashlib.sha256(
        result.to_json().encode("utf-8")
    ).hexdigest()
    return record


def random_cnf(seed: int) -> tuple[int, list[list[int]], list[list[int]]]:
    """``(num_vars, clauses, assumption_rounds)`` for one seed: a mixed
    2..5-literal random formula near the satisfiability threshold, and one to
    three assumption sets to solve it under in sequence."""
    rng = random.Random(seed)
    num_vars = 50 + 20 * (seed % 5)
    num_clauses = int(num_vars * (4.2 + 0.1 * (seed % 7)))
    clauses = []
    for _ in range(num_clauses):
        width = rng.choice((2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 5))
        vs = rng.sample(range(1, num_vars + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    rounds: list[list[int]] = [[]]
    if seed % 3:
        rounds = []
        for _ in range(1 + seed % 3):
            vs = rng.sample(range(1, num_vars + 1), rng.choice((1, 2, 3)))
            rounds.append([v if rng.random() < 0.5 else -v for v in vs])
    return num_vars, clauses, rounds


def cnf_record(seed: int) -> list[dict]:
    from repro.sat.cdcl import Cdcl

    num_vars, clauses, rounds = random_cnf(seed)
    solver = Cdcl()
    solver.ensure_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    out = []
    for assumptions in rounds:
        sat = solver.solve(assumptions)
        row = {"assumptions": assumptions, "sat": sat}
        row.update({field: getattr(solver, field) for field in SOLVER_FIELDS})
        if sat:
            row["model"] = [v for v in range(1, num_vars + 1) if solver.model[v]]
        else:
            row["core"] = list(solver.core)
        out.append(row)
    return out


def build_golden() -> dict:
    return {
        "specs": {label: spec_record(label) for label in SPEC_CASES},
        "cnfs": {str(seed): cnf_record(seed) for seed in CNF_SEEDS},
    }


if __name__ == "__main__":
    print(json.dumps(build_golden(), indent=1, sort_keys=True))

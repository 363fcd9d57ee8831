"""Trajectory parity for the bundled CDCL (:mod:`repro.sat.cdcl`).

The internal engine may be rewritten for speed only if every solve
keeps the identical decision, conflict and propagation sequence — the
CDCL's counterpart of ``tests/core/test_kernel_parity.py``.  The golden
``tests/goldens/sat_trajectories.json`` was recorded before the hot-path
rewrite; this file demands it back exactly:

* every pinned ``backend="sat", use_hints=False`` certification keeps
  its ``sat_certificate`` effort (per-k rows, conflicts, decisions,
  propagations, assumption core) and its envelope bytes (SHA-256);
* every seeded random CNF, solved once or several times on one solver
  under assumptions, keeps its counters, model and core.

See ``tests/sat/trajectory_cases.py`` for the cases and how to
regenerate the golden.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sat.engines import SAT_ENGINE_ENV

from .trajectory_cases import CNF_SEEDS, SPEC_CASES, cnf_record, spec_record

_GOLDEN = Path(__file__).parent.parent / "goldens" / "sat_trajectories.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(_GOLDEN, encoding="utf-8") as f:
        return json.load(f)


def test_golden_covers_every_case(golden):
    assert sorted(golden["specs"]) == sorted(SPEC_CASES)
    assert sorted(golden["cnfs"], key=int) == [str(s) for s in CNF_SEEDS]


@pytest.mark.parametrize("label", list(SPEC_CASES))
def test_certification_trajectory(label, golden, monkeypatch):
    monkeypatch.setenv(SAT_ENGINE_ENV, "internal")
    assert spec_record(label) == golden["specs"][label]


def test_random_cnf_trajectories(golden):
    mismatched = [
        seed for seed in CNF_SEEDS if cnf_record(seed) != golden["cnfs"][str(seed)]
    ]
    assert not mismatched, f"CDCL trajectory drifted on seeds {mismatched}"

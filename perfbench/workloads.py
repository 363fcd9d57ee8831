"""Seeded job lists and load schedules for the four workloads.

Everything here is a pure function of the workload seed, so the same
seed gives the same jobs and the same schedule bytes.  The program
under test sees only the generated specs and command lines.

The seed chooses *which* instances of each job class run and in what
order, never how many: every pass of a workload does the same amount of
work whatever the seed, so runs with different seeds stay comparable.
"""

from __future__ import annotations

import json
import random


def _spec(n: int, *, lam: int = 1, **fields) -> dict:
    """A CoverSpec payload in its canonical minor-0 spelling."""
    payload = {
        "format": "repro-coverspec", "version": "1.0", "n": n, "demand": None,
        "lam": lam, "max_size": 4, "pool": "auto", "objective": "min_blocks",
        "require_optimal": True, "use_hints": True, "improve": True,
        "node_limit": None, "time_budget": None, "workers": None,
        "shard_threshold": None, "backend": None, "branching": "lex",
        "use_memo": True,
    }
    payload.update(fields)
    return payload


def _job(name: str, spec: dict) -> dict:
    return {"name": name, "spec": spec}


def bnb_certify(seed: int) -> list[dict]:
    """Four branch-and-bound proofs, pinned to ``exact`` without hints."""
    jobs = [
        _job("K8", _spec(8, backend="exact", use_hints=False)),
        _job("K10", _spec(10, backend="exact", use_hints=False)),
        _job("K11", _spec(11, backend="exact", use_hints=False)),
        _job("2K8", _spec(8, lam=2, backend="exact", use_hints=False)),
    ]
    random.Random(f"bnb_certify:{seed}").shuffle(jobs)
    return jobs


def sat_certify(seed: int) -> list[dict]:
    """Two CDCL proofs, pinned to ``sat`` without hints."""
    jobs = [
        _job("K10", _spec(10, backend="sat", use_hints=False)),
        _job("K13", _spec(13, backend="sat", use_hints=False)),
    ]
    random.Random(f"sat_certify:{seed}").shuffle(jobs)
    return jobs


SWEEP_NS = (4, 11)
COLD_ODD_JOBS = 6
_ODD_N = tuple(range(5, 62, 2))


def cold_cli(seed: int) -> list[dict]:
    """One pass of fresh ``python -m repro`` processes (argv after
    ``-m repro``): six odd n, one from each sixth of 5..61, so the median
    job is an import-bound closed form; every even n = 2 (mod 4) in
    22..30; one exact K_10 proof; one dispatched sweep.  Seeded order."""
    rng = random.Random(f"cold_cli:{seed}")
    width = len(_ODD_N) / COLD_ODD_JOBS
    odd = [rng.choice(_ODD_N[int(k * width):int((k + 1) * width)])
           for k in range(COLD_ODD_JOBS)]
    exact = {"backend": "exact", "use_hints": False}
    jobs = [{"name": f"odd{n}", "argv": ["solve", "--n", str(n)], "specs": [_spec(n)]}
            for n in odd]
    jobs += [{"name": f"even{n}", "argv": ["solve", "--n", str(n)], "specs": [_spec(n)]}
             for n in (22, 26, 30)]
    jobs.append({"name": "exact10",
                 "argv": ["solve", "--n", "10", "--backend", "exact", "--no-hints"],
                 "specs": [_spec(10, **exact)]})
    jobs.append({"name": "sweep",
                 "argv": ["sweep", "--ns", f"{SWEEP_NS[0]}..{SWEEP_NS[1]}",
                          "--backend", "exact", "--no-hints",
                          "--transport", "subprocess", "--workers", "2"],
                 "specs": [_spec(n, **exact)
                           for n in range(SWEEP_NS[0], SWEEP_NS[1] + 1)]})
    for job in jobs:
        job["argv"] += ["--no-cache", "--json"]
    rng.shuffle(jobs)
    return jobs


# serve_mix: the proofs every pass sends (n <= 10, lambda <= 2): K_8
# under the ablation knobs (3,493 to 10,035 nodes, so each writes 13 to
# 39 checkpoints) and lambda=2 instances.  The K_8 proofs and their
# duplicates are the slowest tenth of a pass, so latency_p90_s measures
# checkpointed search.  (name, spec fields, sent again right after the
# first while it is in flight, slot).
SERVE_EXACT = (
    ("K8", {"n": 8}, True, 6),
    ("2K6", {"n": 6, "lam": 2}, False, 12),
    ("K8-scarcest", {"n": 8, "branching": "scarcest"}, False, 18),
    ("2K9", {"n": 9, "lam": 2}, False, 24),
    ("K8-size5", {"n": 8, "max_size": 5}, True, 30),
    ("2K8-total", {"n": 8, "lam": 2, "objective": "min_total_size"}, False, 37),
    ("K8-nomemo", {"n": 8, "use_memo": False}, False, 43),
    ("K8-size5-scarcest", {"n": 8, "max_size": 5, "branching": "scarcest"}, False, 49),
)
SERVE_SLOTS = 56  # 15 first-time closed forms, 33 repeats, 8 proofs (+2 duplicates)
SERVE_GAP_S = 0.1  # 10 requests per second
SERVE_DUPLICATE_AFTER_S = 0.005
SERVE_REPEAT_LAG = 3  # a repeat asks for a first-time spec sent 1..3 firsts earlier


def _closed_forms(rng: random.Random, count: int) -> list[dict]:
    """``count`` distinct closed-form specs drawn stratified: one odd n
    from each of ``count`` equal bands of 5..61, lambda cycling 1..3 and
    the objectives alternating, in seeded order — so every draw has the
    same spread of envelope sizes."""
    width = len(_ODD_N) / count
    ns = [rng.choice(_ODD_N[int(k * width):int((k + 1) * width)]) for k in range(count)]
    lams = [1 + k % 3 for k in range(count)]
    objectives = [("min_blocks", "min_total_size")[k % 2] for k in range(count)]
    for values in (ns, lams, objectives):
        rng.shuffle(values)
    return [_spec(n, lam=lam, objective=obj) for n, lam, obj in zip(ns, lams, objectives)]


def serve_mix(seed: int, pass_index: int) -> list[dict]:
    """One pass of the open-loop schedule: requests sorted by due time
    (seconds from the pass start), each with its spec payload and kind
    (``first``, ``repeat``, ``exact`` or ``duplicate``).

    The slot layout is fixed: proofs at the slots named in SERVE_EXACT,
    and in the others three first-time closed forms, then one first-time
    closed form followed by three repeats, over and over.  The seed
    draws each due time's jitter (up to half a gap) and the closed forms
    (stratified).  The three repeats after first-time spec k ask again
    for specs k-1, k-2 and k-3, so repeats hit the cache and ledger for
    a seed-independent spread of envelope sizes and make up most
    requests: the median request takes the read path."""
    rng = random.Random(f"serve_mix:{seed}:{pass_index}")
    proofs = {slot: (name, fields, twice) for name, fields, twice, slot in SERVE_EXACT}
    free = [s for s in range(SERVE_SLOTS) if s not in proofs]
    lag = SERVE_REPEAT_LAG
    closed = _closed_forms(rng, lag + len(free[lag::lag + 1]))
    requests = []
    firsts: list[dict] = []
    repeats = 0
    for slot in range(SERVE_SLOTS):
        due = slot * SERVE_GAP_S + rng.uniform(0.0, 0.5 * SERVE_GAP_S)
        if slot in proofs:
            name, fields, twice = proofs[slot]
            spec = _spec(backend="exact", use_hints=False, **fields)
            requests.append({"due": due, "kind": "exact", "spec": spec, "name": name})
            if twice:
                requests.append({"due": due + SERVE_DUPLICATE_AFTER_S, "kind": "duplicate",
                                 "spec": spec, "name": name})
        elif free.index(slot) < lag or (free.index(slot) - lag) % (lag + 1) == 0:
            firsts.append(closed[len(firsts)])
            requests.append({"due": due, "kind": "first", "spec": firsts[-1]})
            repeats = 0
        else:
            repeats += 1
            target = len(firsts) - 1 - repeats
            requests.append({"due": due, "kind": "repeat", "spec": firsts[target]})
    return requests


IN_PROCESS = {"bnb_certify": bnb_certify, "sat_certify": sat_certify}


def schedule_bytes(workload: str, seed: int) -> bytes:
    """Canonical bytes of a workload's generated inputs (first two
    passes for ``serve_mix``) — what the determinism self-test compares."""
    if workload in IN_PROCESS:
        doc = IN_PROCESS[workload](seed)
    elif workload == "cold_cli":
        doc = cold_cli(seed)
    else:
        doc = [serve_mix(seed, 0), serve_mix(seed, 1)]
    return json.dumps(doc, sort_keys=True).encode()

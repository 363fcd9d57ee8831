"""The correctness gate every benchmark run applies to every envelope.

An envelope passes when it parses and re-verifies
(``Result.from_json(..., verify=True)`` plus ``verify_covering``), its
status is the one its route must give, its block count is the proven
optimum (``formulas.rho`` at λ = 1, λ·ρ(n) for the odd-n closed forms,
the value recorded below otherwise), and its search effort — B&B nodes,
CDCL conflicts and decisions — equals the count recorded below.
Any mismatch is a failed attempt.
"""

from __future__ import annotations

# Effort and optimum of every proof the workloads run, as proved by the
# commit that introduced the benchmark.  A change to any of these is a
# different proof, so its timings are not comparable: the gate fails it.
# Backend "exact", use_hints=False; the key is the spec's
# (n, lam, objective, max_size, branching, use_memo); the value is
# (blocks, B&B nodes).
BNB_PROOFS = {
    (4, 1, "min_blocks", 4, "lex", True): (3, 8),
    (5, 1, "min_blocks", 4, "lex", True): (3, 1),
    (6, 1, "min_blocks", 4, "lex", True): (5, 32),
    (7, 1, "min_blocks", 4, "lex", True): (6, 1),
    (8, 1, "min_blocks", 4, "lex", True): (9, 3493),
    (9, 1, "min_blocks", 4, "lex", True): (10, 1),
    (10, 1, "min_blocks", 4, "lex", True): (13, 111453),
    (11, 1, "min_blocks", 4, "lex", True): (15, 461),
    (6, 2, "min_blocks", 4, "lex", True): (9, 366),
    (8, 2, "min_blocks", 4, "lex", True): (16, 34309),
    (9, 2, "min_blocks", 4, "lex", True): (20, 414),
    (8, 1, "min_blocks", 4, "scarcest", True): (9, 6304),
    (8, 1, "min_blocks", 5, "lex", True): (9, 8113),
    (8, 1, "min_blocks", 4, "lex", False): (9, 5586),
    (8, 1, "min_blocks", 5, "scarcest", True): (9, 10035),
    (8, 2, "min_total_size", 4, "lex", True): (18, 2390),
}
# n -> (blocks, conflicts, decisions) for backend "sat", use_hints=False.
SAT_PROOFS = {
    10: (13, 4834, 18000),
    13: (21, 37, 384),
}


def proof_key(spec: dict) -> tuple:
    return (spec["n"], spec["lam"], spec["objective"], spec["max_size"],
            spec["branching"], spec["use_memo"])


def expected(spec_payload: dict) -> dict:
    """What a correct envelope for this spec must say.  Every uniform
    lambda=1 min_blocks job over C_3/C_4 blocks must reach rho(n); the
    other optima are the recorded ones."""
    from repro.core.formulas import rho

    n, lam, backend = spec_payload["n"], spec_payload["lam"], spec_payload["backend"]
    if backend == "exact":
        blocks, nodes = BNB_PROOFS[proof_key(spec_payload)]
        want = {"status": "proven_optimal", "blocks": blocks, "nodes": nodes}
    elif backend == "sat":
        blocks, conflicts, decisions = SAT_PROOFS[n]
        want = {"status": "proven_optimal", "blocks": blocks,
                "conflicts": conflicts, "decisions": decisions}
    else:
        return {"status": "closed_form", "blocks": lam * rho(n), "nodes": 0}
    if (lam, spec_payload["objective"], spec_payload["max_size"]) == (1, "min_blocks", 4):
        want["blocks"] = rho(n)
    return want


def check(text: str, spec_payload: dict) -> list[str]:
    """Problems with one envelope (empty when it is correct)."""
    from repro.api import CoverSpec, Result
    from repro.core.verify import verify_covering

    try:
        result = Result.from_json(text, verify=True)
    except Exception as exc:  # noqa: BLE001 - any parse failure fails the attempt
        return [f"envelope does not parse: {type(exc).__name__}: {exc}"]
    spec = CoverSpec.from_payload(spec_payload)
    if result.spec != spec:
        return ["envelope answers a different spec"]
    problems = []
    want = expected(spec_payload)
    if result.status != want["status"]:
        problems.append(f"status {result.status!r}, expected {want['status']!r}")
    if result.num_blocks != want["blocks"]:
        problems.append(f"{result.num_blocks} blocks, expected {want['blocks']}")
    report = verify_covering(result.covering, spec.instance(),
                             allowed_sizes=spec.allowed_sizes)
    if not report.valid:
        problems.append("covering fails verification: " + "; ".join(report.problems))
    if "nodes" in want and result.stats.nodes != want["nodes"]:
        problems.append(f"{result.stats.nodes} B&B nodes, expected {want['nodes']}")
    if "conflicts" in want:
        cert = result.sat_certificate or {}
        got = (cert.get("conflicts"), cert.get("decisions"))
        if got != (want["conflicts"], want["decisions"]):
            problems.append(
                f"conflicts/decisions {got}, expected "
                f"{(want['conflicts'], want['decisions'])}"
            )
    return problems

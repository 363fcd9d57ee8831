"""Transport equivalence: every transport must return envelopes
byte-identical to in-process solves of the same specs — the contract
the differential suite (``tests/test_differential.py``) establishes for
the in-process oracle itself.

Also covers the worker protocol directly (stdio line shapes) and the
spool directory layout / shutdown discipline.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.api import CoverSpec, solve
from repro.dispatch import SpoolTransport, dispatch_batch, stdio_worker_loop

# A spread of job shapes: K_n certification, a closed-form route, λ-fold
# demand, an explicitly restricted instance, and the objective axis
# (min_total_size + Manthey-restricted covers — the minor-1 envelope
# spelling must cross every worker wire unchanged).
SPECS = (
    [CoverSpec.for_ring(n, backend="exact", use_hints=False) for n in (4, 5, 6, 7)]
    + [
        CoverSpec.for_ring(9),  # router picks closed_form
        CoverSpec.for_ring(5, lam=2),
        CoverSpec(n=6, demand=((0, 2, 1), (1, 4, 2))),
        CoverSpec.for_ring(7, objective="min_total_size"),  # closed_form ADM
        CoverSpec.for_ring(4, objective="min_total_size", backend="exact"),
        CoverSpec.for_ring(6, allowed_sizes=(3,)),  # restricted cover
    ]
)


@pytest.fixture(scope="module")
def oracle():
    """In-process envelope bytes, one per spec, in spec order."""
    return [solve(spec, cache=None).to_json() for spec in SPECS]


class TestByteIdentity:
    def test_inproc_serial(self, oracle):
        report = dispatch_batch(SPECS, transport="inproc", workers=1)
        assert [r.to_json() for r in report.results] == oracle

    def test_inproc_pooled(self, oracle):
        report = dispatch_batch(SPECS, transport="inproc", workers=2)
        assert [r.to_json() for r in report.results] == oracle

    def test_subprocess_pool(self, oracle):
        report = dispatch_batch(SPECS, transport="subprocess", workers=2)
        assert [r.to_json() for r in report.results] == oracle
        assert report.transport == "subprocess"
        assert report.retries == 0 and report.worker_deaths == 0

    def test_spool(self, oracle, tmp_path):
        report = dispatch_batch(
            SPECS, transport=SpoolTransport(tmp_path / "spool"), workers=2
        )
        assert [r.to_json() for r in report.results] == oracle


class TestStdioProtocol:
    def _roundtrip(self, lines: list[str]) -> list[dict]:
        out = io.StringIO()
        stdio_worker_loop(io.StringIO("\n".join(lines) + "\n"), out)
        return [json.loads(line) for line in out.getvalue().splitlines()]

    def test_one_job_one_envelope_line(self):
        spec = SPECS[0]
        request = json.dumps({"spec": spec.to_payload()})
        replies = self._roundtrip([request])
        assert len(replies) == 1
        reply = replies[0]
        assert reply["ok"] and reply["spec_hash"] == spec.spec_hash
        expected = solve(spec, cache=None).to_payload()
        assert reply["result"] == expected

    def test_malformed_line_reports_not_crashes(self):
        replies = self._roundtrip(["{ not json", json.dumps({"spec": SPECS[0].to_payload()})])
        assert [r["ok"] for r in replies] == [False, True]
        assert "malformed" in replies[0]["error"]

    def test_bad_spec_reports_spec_error(self):
        replies = self._roundtrip([json.dumps({"spec": {"n": 2}})])
        assert replies[0]["ok"] is False
        assert replies[0]["kind"] == "SpecError"

    def test_blank_lines_are_ignored(self):
        replies = self._roundtrip(["", json.dumps({"spec": SPECS[1].to_payload()}), ""])
        assert len(replies) == 1 and replies[0]["ok"]

    def _serve_buffered(self, lines: list[str]) -> list[dict]:
        """Run the loop only once every line is queued, so the first
        drain sees them all (the pump can race ahead of the loop)."""
        from repro.dispatch.worker import _serve_stdio, _StdioInbox

        inbox = _StdioInbox(io.StringIO("\n".join(lines) + "\n"))
        assert inbox.eof.wait(10)
        out = io.StringIO()
        assert _serve_stdio(inbox, out, checkpoint_every=None) == 0
        return [json.loads(line) for line in out.getvalue().splitlines()]

    def test_preempt_buffered_behind_its_job_is_kept(self):
        spec = CoverSpec.for_ring(8, backend="exact", use_hints=False)
        replies = self._serve_buffered(
            [json.dumps({"spec": spec.to_payload()}), json.dumps({"preempt": True})]
        )
        assert len(replies) == 1
        assert replies[0]["kind"] == "Preempted"
        assert replies[0]["spec_hash"] == spec.spec_hash
        assert replies[0]["checkpoint"] is not None

    def test_preempt_after_a_finished_job_spares_the_next(self):
        quick, proof = SPECS[4], CoverSpec.for_ring(8, backend="exact", use_hints=False)
        replies = self._serve_buffered(
            [
                json.dumps({"spec": quick.to_payload()}),
                json.dumps({"preempt": True}),
                json.dumps({"spec": proof.to_payload()}),
            ]
        )
        assert [r["ok"] for r in replies] == [True, True]
        assert replies[1]["result"] == solve(proof, cache=None).to_payload()


class TestSpoolLayout:
    def test_drained_spool_leaves_results_and_stop(self, tmp_path):
        root = tmp_path / "spool"
        specs = SPECS[:3]
        dispatch_batch(specs, transport=SpoolTransport(root), workers=2)
        assert sorted(p.name for p in (root / "results").iterdir()) == sorted(
            f"{s.spec_hash}.result.json" for s in specs
        )
        assert list((root / "jobs").iterdir()) == []
        assert list((root / "claims").iterdir()) == []
        assert (root / "STOP").exists()  # polling workers shut down

    def test_result_files_are_full_envelopes(self, tmp_path):
        root = tmp_path / "spool"
        spec = SPECS[0]
        dispatch_batch([spec], transport=SpoolTransport(root), workers=1)
        from repro.api import Result

        text = (root / "results" / f"{spec.spec_hash}.result.json").read_text()
        assert Result.from_json(text, verify=True).spec == spec

    def test_resume_accepts_prior_results_without_solving(self, tmp_path, oracle):
        root = tmp_path / "spool"
        (root / "results").mkdir(parents=True)
        (root / "results" / f"{SPECS[1].spec_hash}.result.json").write_text(oracle[1])
        report = dispatch_batch(
            SPECS, transport=SpoolTransport(root), workers=2
        )
        assert report.resumed == 1
        assert [r.to_json() for r in report.results] == oracle

    def test_anonymous_spool_cleans_up_after_itself(self):
        transport = SpoolTransport()  # private temp dir
        assert transport.root is None  # lazy: nothing on disk until run
        dispatch_batch(SPECS[:2], transport=transport, workers=1)
        assert transport.root is None  # removed and reset after the run

    def test_fully_cached_dispatch_never_touches_disk(self, tmp_path):
        cache = tmp_path / "cache"
        dispatch_batch(SPECS[:2], transport="inproc", workers=1, cache=cache)
        transport = SpoolTransport()
        report = dispatch_batch(SPECS[:2], transport=transport, workers=1, cache=cache)
        assert report.cached == 2
        assert transport.root is None  # no spool dir was ever created

    def test_jobs_spool_in_lpt_order_and_an_inline_worker_drains_them(
        self, tmp_path, oracle
    ):
        """The schedule survives the filesystem: job filenames carry the
        dispatch sequence, so a worker draining ``jobs/`` in sorted
        order executes heaviest-first."""
        import threading
        import time

        from repro.dispatch import spool_worker_loop
        from repro.dispatch.dispatcher import cost_weight
        from repro.util.parallel import lpt_order

        root = tmp_path / "spool"
        transport = SpoolTransport(root, spawn_workers=False)
        box = {}

        def drive():
            box["report"] = dispatch_batch(SPECS, transport=transport, workers=1)

        thread = threading.Thread(target=drive)
        thread.start()
        deadline = time.time() + 15
        names: list[str] = []
        while time.time() < deadline and len(names) < len(SPECS):
            if (root / "jobs").is_dir():
                names = sorted(p.name for p in (root / "jobs").glob("*.json"))
            time.sleep(0.01)
        expected = [
            SPECS[i].spec_hash for i in lpt_order([cost_weight(s) for s in SPECS])
        ]
        assert [n.split("-", 1)[1].removesuffix(".json") for n in names] == expected
        spool_worker_loop(root, exit_when_idle=True)  # play the remote worker
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert [r.to_json() for r in box["report"].results] == oracle

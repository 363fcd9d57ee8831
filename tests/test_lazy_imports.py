"""What a fresh ``repro`` process imports.

The paper's constructions need nothing beyond the standard library, so
the solve path must not load the numeric stack, the process-pool
machinery or the experiments harness; numpy loads only when a search
runs on the numpy kernel.  Every case runs in a fresh interpreter and
compares module lists only — no timings.

The kernel probe's fallback contract is pinned here too, since it is
also about what gets imported: resolving a kernel only looks numpy up,
and a numpy that cannot be imported lands every search on the python
kernel with the reference node count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules the closed-form solve path must leave unimported.
OFF_PATH = (
    "numpy",
    "networkx",
    "scipy",
    "concurrent.futures",
    "multiprocessing",
    "repro.analysis",
    "repro.extensions",
)

#: The certification proof of K_8 (backend exact, no hints).
K8_NODES = 3493

requires_numpy = pytest.mark.skipif(find_spec("numpy") is None, reason="numpy not installed")

# Runs ``python -m repro ARGV...`` inside the probe process (or just
# ``import repro.api`` when ARGV is empty), then writes the names of all
# loaded modules to the file named by the first argument.
_CLI_PROBE = """
import json, runpy, sys

out, argv = sys.argv[1], sys.argv[2:]
if argv:
    sys.argv = ["repro", *argv]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if exc.code:
            raise
else:
    import repro.api
with open(out, "w") as fh:
    json.dump(sorted(sys.modules), fh)
"""

# Makes ``import numpy`` fail although ``find_spec("numpy")`` finds it:
# a broken install, as opposed to an absent one.
_BROKEN_NUMPY = """
import importlib.abc, importlib.machinery, sys

class _Broken(importlib.abc.Loader):
    def create_module(self, spec):
        return None

    def exec_module(self, module):
        raise ImportError("numpy is broken")

class _Finder(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "numpy":
            return importlib.machinery.ModuleSpec("numpy", _Broken())
        return None

sys.meta_path.insert(0, _Finder())
"""

# Certifies K_8 with an explicit numpy kernel request and reports the
# kernel the probe resolved, the kernel the search ran on, and the
# proof's node count.
_K8_PROOF = """
import json, sys
from repro.core.engine import SolverEngine, SolverStats

engine = SolverEngine(8)
resolved = engine.kernel
stats = SolverStats()
cov = engine.min_covering(stats=stats)
print(json.dumps({"resolved": resolved, "ran": engine.kernel, "nodes": stats.nodes,
                  "blocks": cov.num_blocks, "proven": stats.proven_optimal,
                  "numpy_loaded": sys.modules.get("numpy") is not None}))
"""


def _env(**extra: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env.update(extra)
    return env


def _run(code: str, *args: str, **env: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=_env(**env), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(tmp_path, *argv: str) -> set[str]:
    out = tmp_path / "modules.json"
    _run(_CLI_PROBE, str(out), *argv, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    return set(json.loads(out.read_text()))


class TestImportBudget:
    @pytest.mark.parametrize(
        "argv",
        [
            (),
            ("solve", "--n", "9", "--no-cache", "--json"),
            ("solve", "--n", "22", "--no-cache", "--json"),
        ],
        ids=["import-api", "solve-odd", "solve-pole"],
    )
    def test_closed_form_path_stays_light(self, tmp_path, argv):
        loaded = _loaded_after(tmp_path, *argv)
        assert "repro.api" in loaded
        assert sorted(loaded.intersection(OFF_PATH)) == []

    def test_lambda_fold_closed_form_skips_networkx(self, tmp_path):
        """The λ-repetition certificate lives in ``repro.extensions``,
        whose graph-topology helpers must not drag networkx in."""
        loaded = _loaded_after(tmp_path, "solve", "--n", "7", "--lam", "2", "--no-cache")
        assert "repro.extensions.lambda_fold" in loaded
        assert sorted(loaded.intersection(("numpy", "networkx", "scipy"))) == []

    @requires_numpy
    def test_exact_search_loads_the_numpy_kernel(self, tmp_path):
        loaded = _loaded_after(
            tmp_path, "solve", "--n", "8", "--backend", "exact", "--no-hints",
            "--no-cache", "--json",
        )
        assert "numpy" in loaded

    def test_experiments_list_skips_the_harness(self, tmp_path):
        out = tmp_path / "modules.json"
        listing = _run(_CLI_PROBE, str(out), "experiments", "--list")
        ids = [line.split()[0] for line in listing.splitlines()]
        assert ids == [f"E{i}" for i in (1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12)]
        assert "repro.analysis" not in json.loads(out.read_text())


class TestKernelProbe:
    def test_probe_does_not_import_numpy(self):
        code = (
            "import sys\n"
            "from importlib.util import find_spec\n"
            "from repro.core.kernel import numpy_available\n"
            "assert numpy_available() == (find_spec('numpy') is not None)\n"
            "print('numpy' in sys.modules)\n"
        )
        assert _run(code).strip() == "False"

    def test_absent_numpy_certifies_on_python_kernel(self):
        code = "import sys\nsys.modules['numpy'] = None\n" + _K8_PROOF
        got = json.loads(_run(code, REPRO_KERNEL="numpy"))
        assert got == {"resolved": "python", "ran": "python", "nodes": K8_NODES,
                       "blocks": 9, "proven": True, "numpy_loaded": False}

    def test_unimportable_numpy_falls_back_before_the_search(self):
        got = json.loads(_run(_BROKEN_NUMPY + _K8_PROOF, REPRO_KERNEL="numpy"))
        assert got == {"resolved": "numpy", "ran": "python", "nodes": K8_NODES,
                       "blocks": 9, "proven": True, "numpy_loaded": False}

    @requires_numpy
    def test_numpy_kernel_loads_numpy_on_first_search(self):
        got = json.loads(_run(_K8_PROOF, REPRO_KERNEL="numpy"))
        assert got == {"resolved": "numpy", "ran": "numpy", "nodes": K8_NODES,
                       "blocks": 9, "proven": True, "numpy_loaded": True}


# Runs ``run_server`` up to the point where it binds its socket and
# reports whether numpy was loaded by then.
_SERVE_UNTIL_BIND = """
import sys
from repro.serve import SolverService, server

class _Bound(Exception):
    pass

def _bind(address, service):
    print("numpy" in sys.modules)
    raise _Bound

server.SolverServer = _bind
try:
    server.run_server(SolverService(sys.argv[1], cache=None), "127.0.0.1", 0,
                      install_signals=False)
except _Bound:
    pass
"""


class TestServeWarmup:
    @pytest.mark.parametrize(
        ("selectors", "loaded"),
        [
            pytest.param({}, "True", marks=requires_numpy),
            ({"REPRO_KERNEL": "python"}, "False"),
            ({"REPRO_NO_NUMPY": "1"}, "False"),
        ],
        ids=["default", "python-kernel", "no-numpy"],
    )
    def test_serve_loads_its_kernel_before_it_listens(self, tmp_path, selectors, loaded):
        assert _run(_SERVE_UNTIL_BIND, str(tmp_path), **selectors).strip() == loaded

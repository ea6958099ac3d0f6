"""Checks on the benchmark harness itself.

Run explicitly (``testpaths`` keeps it out of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/trajectory/test_harness.py -q
"""

from __future__ import annotations

import ast
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
HARNESS_FILES = sorted(p for p in HERE.glob("*.py") if p.name != "test_harness.py")

#: Internals the codec-core roadmap item is free to delete or rename.
FORBIDDEN_MODULES = (
    "repro.pbio.bulk",
    "repro.wire.xdrgen",
    "repro.pbio.codegen",
    "repro.pbio.decode",
    "repro.pbio.evolution",
)
FORBIDDEN_KEYWORDS = ("use_numpy", "use_fused", "mode")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )


def _exported(package: str) -> set[str]:
    module = __import__(package, fromlist=["__all__"])
    return set(getattr(module, "__all__", ())) | {
        name for name in dir(module) if not name.startswith("_")
    }


def test_imports_only_exported_names():
    """The harness reaches the repo only through package ``__init__``
    exports, so the roadmap's refactors cannot break it by moving
    internals."""
    for path in HARNESS_FILES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    assert not alias.name.startswith(FORBIDDEN_MODULES), (path.name, alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                module = node.module
                assert not module.startswith(FORBIDDEN_MODULES), (path.name, module)
                if module == "repro" or module.startswith("repro."):
                    exported = _exported(module)
                    for alias in node.names:
                        assert alias.name in exported, (
                            f"{path.name}: {alias.name} is not exported by {module}"
                        )
                    # Only packages (directories) count, not their modules.
                    package_dir = ROOT / "src" / pathlib.Path(*module.split("."))
                    assert package_dir.is_dir(), (
                        f"{path.name}: {module} is a module, not a package __init__"
                    )
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    assert keyword.arg not in FORBIDDEN_KEYWORDS, (
                        f"{path.name}:{node.lineno} passes {keyword.arg}="
                    )


def test_list_matches_benchmark_json():
    listed = _run("--list")
    assert listed.returncode == 0, listed.stderr
    names = {"workload": [], "end_to_end": [], "per_layer": []}
    for line in listed.stdout.splitlines():
        kind, name, *_ = line.split()
        names[kind].append(name)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert names["workload"] == [entry["name"] for entry in declared["workloads"]]
    assert names["end_to_end"] == [entry["name"] for entry in declared["end_to_end"]]
    assert names["per_layer"] == [entry["name"] for entry in declared["per_layer"]]
    assert declared["paths"] == ["benchmarks/trajectory"]
    assert len(declared["per_layer"]) <= 128


def test_same_seed_same_inputs():
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.trajectory.inputs import build_inputs
    from benchmarks.trajectory.workloads import WORKLOADS

    for name in WORKLOADS:
        first = build_inputs(name, 7)["digest"]
        assert first == build_inputs(name, 7)["digest"]
        assert first != build_inputs(name, 8)["digest"]
    # Same inputs on both broker planes: the broker is the only variable.
    assert build_inputs("broker_open", 7)["digest"] == build_inputs("broker_open_aio", 7)["digest"]


def test_smoke_runs_clean():
    smoke = _run("--smoke")
    assert smoke.returncode == 0, smoke.stdout + smoke.stderr
    lines = [line for line in smoke.stdout.splitlines() if "failed_share" in line]
    assert len(lines) == 6
    assert all(line.endswith("failed_share 0.0") for line in lines), smoke.stdout

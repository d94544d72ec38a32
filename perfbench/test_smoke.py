"""Smoke test of the benchmark itself: every workload at a tiny size, plain and
traced, reports every metric BENCHMARK.json names, with its unit, and no
failed operation.

    python -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# Per-layer metrics each workload exists to exercise: they must be non-zero there.
EXERCISED = {
    "stories_biglex": ["lexicon.entries_for.self_ms", "lexicon.entries_for.hit_ratio",
                       "principle2.interpret_paragraph.calls", "world.apply_effects.calls",
                       "world.parse_world.self_ms", "principle1.enumerate_p1_models.calls",
                       "principle1.skippable.calls", "principle1.models"],
    "cli_commands": ["cli.main.calls", "cli.import_ms", "principle2.surface_dir_rev.calls",
                     "lexicon.parse_lexicon.self_ms", "pias.generate_valuable.calls",
                     "principle1.candidate_meanings.self_ms", "pias.valuable_ratio",
                     "principle1.canonical_ratio"],
}


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "3",
            "--seconds", "1.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in named}
    if trace:
        for name in EXERCISED[workload]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (ROOT / ".perfbench_work").exists()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""

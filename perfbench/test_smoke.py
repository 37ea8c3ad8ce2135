"""Smoke test of the benchmark at the smallest size; not part of tier 1.

    python -m pytest perfbench/test_smoke.py -q

Each workload runs once traced (which also makes an untraced pass) on a
world a tenth of its size, from the repository root, and must pass every
output check and report every metric `BENCHMARK.json` lists.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracing import self_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tenth(wl: run.Workload) -> run.Workload:
    """The same workload on a world a tenth of its caption and concept count."""
    shape = dataclasses.replace(
        wl.shape,
        captions=max(200, round(wl.shape.captions / 10)),
        concepts=max(12, round(wl.shape.concepts / 10)),
        head=max(1, round(wl.shape.head / 10)),
    )
    return dataclasses.replace(wl, shape=shape)


def bench(workload: str, trace: int, monkeypatch, capsys) -> tuple[dict, str]:
    """One small run of `workload` in this process; its JSON line and stdout."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "WORKLOADS", {n: tenth(wl) for n, wl in run.WORKLOADS.items()})
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"], out[-3000:]
    assert result["attempted"] > 0 and result["failed"] == 0
    return result, out


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_traced_run_passes_checks_and_reports_every_metric(workload, monkeypatch, capsys):
    result, out = bench(workload, 1, monkeypatch, capsys)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]
    }
    for m in BENCH["end_to_end"]:  # printed by name, with the unit, above the JSON line
        assert any(line.startswith(f"{m['name']}: ") and f" {m['unit']} (" in line
                   for line in out.splitlines()), m["name"]


def test_untraced_run_reports_the_end_to_end_metrics(monkeypatch, capsys):
    result, _ = bench("repair-512", 0, monkeypatch, capsys)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*BENCH["command"], "--workload", BENCH["workloads"][0]["name"], "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_times_partition_the_stage_wall_time():
    # root 10 s; a scan span of 6 s whose two worker threads read records
    # for 4 s each (8 s of thread time inside 6 s of wall time)
    trace = {
        "spans": [
            {"id": 1, "name": "cli.scan", "start": 0.0, "end": 10.0, "parent": None},
            {"id": 2, "name": "matcher.scan_shards", "start": 1.0, "end": 7.0, "parent": 1},
        ],
        "agg": [{"name": "corpus.read", "parent": 2, "count": 10, "total": 8.0, "hits": 9}],
    }
    times = self_times(trace)
    assert times == pytest.approx({"cli": 4.0, "matcher": 0.0, "corpus": 6.0})
    assert sum(times.values()) == pytest.approx(10.0)

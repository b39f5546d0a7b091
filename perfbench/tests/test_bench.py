"""Tests of the benchmark itself: its output matches BENCHMARK.json, wrong
outcomes count as failures, and it refuses to run without the program."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from relbc import storage
from tracing import Tracer
from workloads import Context, TranscriptFile

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# a p99 needs 1000 samples; live sessions give 200 each
SECONDS = {"live-loopback": 15}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(SECONDS.get(workload, 1)), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_line(proc: subprocess.CompletedProcess, correct: bool = True) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    if correct:
        assert result["correct"] and result["failed"] == 0, proc.stdout
    return result


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_match_benchmark_json(workload):
    metrics = result_line(run_bench(workload, 0))["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values()), metrics


def test_live_loopback_prints_the_same_metrics():
    # not in BENCHMARK.json: a host stall past the scaled deadline aborts a
    # session now and then, so only the output is checked here
    metrics = result_line(run_bench("live-loopback", 0), correct=False)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == declared("end_to_end")


def test_per_layer_metrics_match_benchmark_json():
    metrics = result_line(run_bench("sim-honest", 1))["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == declared("per_layer")
    spans = (ROOT / ".perfbench_out" / "spans-sim-honest-seed7.jsonl").read_text().splitlines()
    assert "self_ms_per_traced_cycle" in json.loads(spans[-1])["summary"]
    names = {json.loads(line)["name"] for line in spans[:-1]}
    assert {"make_tapes", "run_simulation", "bob_verify", "no_signaling_audit"} <= names


def test_tampered_file_expected_to_accept_raises_fail_frac(tmp_path, monkeypatch):
    generate = storage.generate_honest_transcript_file

    def generate_then_flip(path, *args, **kwargs):
        generate(path, *args, **kwargs)
        t = storage.read_transcript(path)
        t.rounds[len(t.rounds) // 2].answer ^= 1
        storage.write_transcript(t, path)

    monkeypatch.setattr(storage, "generate_honest_transcript_file", generate_then_flip)
    monkeypatch.setattr(TranscriptFile, "rounds", 2_000)
    monkeypatch.setattr(TranscriptFile, "prefix_rounds", 1_000)
    monkeypatch.setattr(TranscriptFile, "probe_rounds", 10)
    ctx = Context(3, tmp_path, Tracer(), ROOT / "src/relbc/configs/case1.cfg")
    wl = TranscriptFile()
    wl.setup(ctx)
    wl.cycle(ctx, 0)
    assert ctx.tally.attempted == 1 and ctx.tally.failed == 1
    assert ctx.tally.fail_frac > 0
    assert "verify_file gave Verdict(reject: bit-mismatch)" in ctx.tally.failures[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("sim-honest", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

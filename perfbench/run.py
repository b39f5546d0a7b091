"""The relbc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sim-honest --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports relbc from `src/`.
Workloads: transcript-file, sim-honest, sim-adversary, live-loopback (see
README.md). The run sets up its inputs, repeats the workload's cycle for
`--seconds` seconds from a single closed-loop client, checks every output,
and prints a human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured with tracing
off. With `--trace 1` the cycles alternate between traced and untraced (the
difference is reported as tracing overhead), spans are written to
`.perfbench_out/spans-<workload>-seed<seed>.jsonl`, and the metrics are the
per-layer ones of `layers.py`. Full results go to `.perfbench_out/` as well.
Exit status: 0 with a result, 1 when metrics could not be measured, 2 when
the program is missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CASE1_CONFIG = SRC / "relbc" / "configs" / "case1.cfg"
WORKLOAD_NAMES = ("transcript-file", "sim-honest", "sim-adversary", "live-loopback")


class MeasurementError(Exception):
    """The run produced too few samples to compute a metric."""


def load_program() -> None:
    """Put the checkout's `src/` first on the import path and import relbc from it."""
    if not (SRC / "relbc" / "__init__.py").is_file():
        raise ImportError(f"no relbc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import relbc

    if Path(relbc.__file__).resolve().parent != SRC / "relbc":
        raise ImportError(f"relbc was imported from {relbc.__file__}, not from {SRC}")


def pin_to_one_cpu() -> int | None:
    """Run this process, and the agent threads it starts, on one CPU.

    On a VM a thread woken on the other vCPU waits for the host to schedule
    it, which made live turnarounds drift by 20% between groups of sessions;
    on one CPU they drift by 5%. The load is one client anyway."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def llc_bytes() -> int | None:
    """Size of the largest CPU cache reported for cpu0, if the host says."""
    sizes = []
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
        sizes.append(int(text.rstrip("KM")) * scale)
    return max(sizes) if sizes else None


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(setup_s: list[float], cycles: list, turnaround: tuple[list[float], str],
               case1_m: int, rss_mb: float) -> dict[str, tuple[float, str, str]]:
    """{name: (value, unit, sample note)}; rates are medians over cycles."""
    verify = [c.verify_rounds / c.verify_s for c in cycles if c.verify_rounds]
    gen = [c.gen_rounds / c.gen_s for c in cycles if c.gen_rounds]
    turn, how = turnaround
    # the 99th percentile needs ten samples beyond it
    if not cycles or not verify or not gen or len(turn) < 1000:
        raise MeasurementError(f"{len(cycles)} cycles, {len(verify)} verified, "
                               f"{len(gen)} generated, {len(turn)} turnaround samples")
    verify_rate = statistics.median(verify)
    v_rounds = sum(c.verify_rounds for c in cycles)
    g_rounds = sum(c.gen_rounds for c in cycles)
    return {
        "setup_s": (statistics.median(setup_s), "s", f"median of {len(setup_s)} set-ups"),
        "peak_rss_mb": (rss_mb, "MB", "peak resident set of this process"),
        "verify_rounds_per_s": (verify_rate, "rounds/s",
                                f"median of {len(verify)} cycles, {v_rounds} rounds"),
        "gen_rounds_per_s": (statistics.median(gen), "rounds/s",
                             f"median of {len(gen)} cycles, {g_rounds} rounds"),
        "case1_verify_h": (case1_m / verify_rate / 3600, "h",
                           f"{case1_m} rounds / verify_rounds_per_s"),
        "sim_runs_per_s": (statistics.median(c.runs / c.wall_s for c in cycles), "runs/s",
                           f"median of {len(cycles)} cycles, "
                           f"{sum(c.runs for c in cycles)} runs"),
        "turnaround_p50_us": (statistics.median(turn), "us", f"{len(turn)} rounds, {how}"),
        "turnaround_p99_us": (quantile(turn, 99), "us",
                              f"{len(turn)} rounds, {len(turn) // 100} beyond, {how}"),
    }


def measure(args, workdir: Path) -> dict:
    from relbc import cli
    from relbc.planner import load_config, resource_plan

    import layers
    from tracing import Tracer
    from workloads import WORKLOADS, Context

    trace = bool(args.trace)
    tracer = Tracer(enabled=trace)
    ctx = Context(args.seed, workdir, tracer, CASE1_CONFIG)
    wl = WORKLOADS[args.workload]()

    def setup():
        with tracer.span("bench", "setup"):
            wl.setup(ctx)

    setup_s = []
    for _ in range(wl.setup_repeats):
        tracer.next_op()
        _, seconds, slowness = ctx.speed.timed(setup)
        setup_s.append(seconds if wl.setup_schedule_bound else seconds / slowness)

    # traced runs alternate untraced and traced cycles, so they need two
    cycles, walls, traced_ops = [], {False: [], True: []}, set()
    min_cycles = 2 if trace else 1
    i = 0
    ctx.speed.reset()
    deadline = perf_counter() + args.seconds
    while i < min_cycles or perf_counter() < deadline:
        traced = trace and i % 2 == 1
        tracer.enabled = traced
        op = tracer.next_op()
        try:
            with tracer.span("bench", "cycle"):
                c = wl.cycle(ctx, i)
        except Exception as exc:  # one failed cycle is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            ctx.tally.op(f"cycle {i}", [f"raised {exc!r}"])
        else:
            walls[traced].append(c.wall_s)
            if traced:
                traced_ops.add(op)
            else:
                cycles.append(c)
        i += 1
    tracer.enabled = trace
    tracer.next_op()
    try:
        wl.final_checks(ctx)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        ctx.tally.op("final checks", [f"raised {exc!r}"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    case1_m = resource_plan(load_config(CASE1_CONFIG)).m
    try:
        e2e = end_to_end(setup_s, cycles, wl.turnaround(), case1_m, rss_mb)
    except MeasurementError as exc:
        if not trace:  # a traced run reports them only for information
            raise MeasurementError(f"{exc}; failures: {ctx.tally.failures[:5]}") from None
        e2e = {}
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "llc_bytes": llc_bytes(),
            "slowness": statistics.quantiles(ctx.speed.slowness, n=4)
            if len(ctx.speed.slowness) > 1 else ctx.speed.slowness,
        },
        "commit": git_commit(),
        "case1_rounds": case1_m,
        "cli_CASE1_ROUNDS": cli.CASE1_ROUNDS,
        "outputs": wl.outputs(),
        "end_to_end": e2e,
    }
    if trace:
        per_layer = layers.run_layers(ctx)
        if walls[True] and walls[False]:
            per_layer["bench.trace_overhead_pct"] = (
                (statistics.median(walls[True]) / statistics.median(walls[False]) - 1) * 100,
                "%")
        per_cycle = {layer: ns / 1e6 / max(1, len(traced_ops))
                     for layer, ns in sorted(tracer.self_time_ns(traced_ops).items())}
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path, {"self_ms_per_traced_cycle": per_cycle})
        result.update(per_layer=per_layer, self_ms_per_traced_cycle=per_cycle,
                      spans_file=str(spans_path.relative_to(ROOT)),
                      span_count=len(tracer.spans))
    result.update(attempted=ctx.tally.attempted, failed=ctx.tally.failed,
                  fail_frac=ctx.tally.fail_frac, failures=ctx.tally.failures)
    return result


def report(r: dict) -> None:
    host = r["host"]
    llc = host["llc_bytes"]
    print(f"relbc benchmark: workload={r['workload']} seed={r['seed']} "
          f"seconds={r['seconds']} trace={r['trace']} commit={r['commit'] or 'unknown'}")
    print(f"host: {host['cpu_count']} CPUs, Python {host['python']}, gmpy2 "
          f"{'present' if host['gmpy2'] else 'absent (pure-int field path measured)'}, "
          f"LLC {llc if llc is not None else 'unknown'} bytes; pinned to CPU "
          f"{host['pinned_cpu']}; one client, closed loop")
    print("host slowness (calibration loop time / reference), quartiles: "
          + ", ".join(f"{x:.3f}" for x in host["slowness"]))
    print(f"case 1: resource_plan(case1).m = {r['case1_rounds']}; cli.CASE1_ROUNDS = "
          f"{r['cli_CASE1_ROUNDS']} is off by {r['case1_rounds'] - r['cli_CASE1_ROUNDS']}")
    out = r["outputs"]
    if "transcript_sha256" in out:
        share = f", {out['transcript_bytes'] / llc:.1%} of the LLC" if llc else ""
        print(f"transcript file: {out['transcript_rounds']} rounds, bit {out['transcript_bit']}, "
              f"{out['transcript_bytes']} bytes{share}, verified from a warm page cache; "
              f"sha256 {out['transcript_sha256']}")
    print("end-to-end metrics (untraced cycles; CPU-bound times in reference seconds, "
          "live sessions and turnarounds in wall-clock time):")
    for name, (value, unit, note) in r["end_to_end"].items():
        print(f"  {name:22s} {value:14.6g} {unit:9s} {note}")
    print(f"  {'fail_frac':22s} {r['fail_frac']:14.6g} {'ratio':9s} "
          f"{r['failed']} of {r['attempted']} checked operations failed")
    if "per_layer" in r:
        print("per-layer metrics:")
        for name, (value, unit) in r["per_layer"].items():
            print(f"  {name:40s} {value:14.6g} {unit}")
        print(f"self time per traced cycle, by layer ({r['span_count']} spans in "
              f"{r['spans_file']}):")
        for layer, ms in r["self_ms_per_traced_cycle"].items():
            print(f"  {layer:10s} {ms:12.3f} ms")
    for failure in r["failures"]:
        print(f"FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="relbc benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot load relbc: {exc}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        r = measure(args, workdir)
        r["host"]["pinned_cpu"] = cpu
    except MeasurementError as exc:
        print(f"error: metrics could not be measured: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(r, indent=2))
    report(r)
    metrics = r["per_layer"] if args.trace else r["end_to_end"]
    print(json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

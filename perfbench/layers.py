"""Per-layer microbenchmarks of the public functions of each relbc module.

The traced run calls `run_layers` after its workload loop. Every workload
runs the same suite on inputs drawn from its own seed, so each traced run
prints the full set of layer metrics. A timing is the median over a few
repeats of the time per call (or per round, or per element) of one public
function, loop overhead included, in reference nanoseconds (see
calibration.py); the live-session figures are wall-clock; counts are exact.
README.md says which end-to-end metric each one should move.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import sys
import traceback
import tracemalloc
from time import perf_counter, perf_counter_ns

from relbc import field, planner, simnet, storage, transport
from relbc.field import FieldSpec
from relbc.protocol import (
    ROLE_ALICE_SECRETS,
    ROLE_BOB_CHALLENGES,
    Tape,
    bob_verify,
    honest_round_stream,
    run_honest_protocol,
    station_of,
)
from workloads import (
    DRIFTING_CLOCKS,
    LIVE_SCALE,
    Context,
    answer_turnaround_us,
    check_live,
    check_sim,
    live_plan,
    run_cli,
    sim_run,
    small_plan,
)

CHAIN_ROUNDS = 20_000     # in-memory transcript for the protocol and storage layers
CALLS = 4_000             # calls per repeat for per-call timings
REPEATS = 5


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) as `statistics.quantiles(n=100)` gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


class Fixtures:
    """Seeded inputs shared by the layer groups, and their timers."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.rng = random.Random(ctx.seed)
        self.spec = FieldSpec(128)
        self.bit = ctx.seed & 1
        spec, rng = self.spec, self.rng
        self.secrets = [spec.random_int(rng) for _ in range(CHAIN_ROUNDS)]
        self.challenges = [spec.random_int(rng, nonzero=True) for _ in range(CHAIN_ROUNDS)]
        self.transcript = run_honest_protocol(
            spec, Tape(ROLE_ALICE_SECRETS, spec, self.secrets),
            Tape(ROLE_BOB_CHALLENGES, spec, self.challenges), self.bit)

    def check(self, label: str, problems: list[str]) -> None:
        self.ctx.tally.op(f"layers {label}", problems)

    def per_unit_ns(self, fn, units: int, repeats: int = REPEATS) -> float:
        """Median over `repeats` of fn()'s duration divided by `units`, in
        reference nanoseconds."""
        def run():
            vals = []
            for _ in range(repeats):
                t0 = perf_counter_ns()
                fn()
                vals.append((perf_counter_ns() - t0) / units)
            return statistics.median(vals)

        value, _, slowness = self.ctx.speed.timed(run)
        return value / slowness


def field_layer(fx: Fixtures) -> dict:
    spec, rng = fx.spec, fx.rng
    a = [spec.random_int(rng) for _ in range(CALLS)]
    b = [spec.random_int(rng) for _ in range(CALLS)]
    nz = [spec.random_int(rng, nonzero=True) for _ in range(4096)]
    mul, inv, enc, dec = spec.mul, spec.inv, spec.encode, spec.decode
    blobs = [enc(x) for x in a]
    batch = field.batch_inverse(spec, nz)
    fx.check("field", [] if all(mul(x, y) == 1 for x, y in zip(nz[:50], batch))
             else ["batch_inverse(x) * x != 1"])
    return {
        "field.mul128_ns": (fx.per_unit_ns(lambda: [mul(x, y) for x, y in zip(a, b)], CALLS),
                            "ns"),
        "field.inv128_ns": (fx.per_unit_ns(lambda: [inv(x) for x in nz[:1000]], 1000), "ns"),
        # one 4096-element chunk, the verifier's batch size
        "field.batch_inverse_ns_per_elem": (
            fx.per_unit_ns(lambda: field.batch_inverse(spec, nz), len(nz), 3), "ns"),
        "field.encode_ns": (fx.per_unit_ns(lambda: [enc(x) for x in a], CALLS), "ns"),
        "field.decode_ns": (fx.per_unit_ns(lambda: [dec(x) for x in blobs], CALLS), "ns"),
    }


def protocol_layer(fx: Fixtures) -> dict:
    spec, m, t = fx.spec, CHAIN_ROUNDS, fx.transcript
    gen_ns = fx.per_unit_ns(
        lambda: list(honest_round_stream(spec, fx.secrets, fx.challenges, fx.bit, m)), m, 3)
    handle, _, slowness = fx.ctx.speed.timed(lambda: answer_turnaround_us(
        fx.ctx.tracer, spec, fx.secrets[:CALLS], fx.challenges, fx.bit))
    verdict = bob_verify(t)
    fx.check("protocol", [] if verdict.accepted and verdict.bit == fx.bit
             else [f"bob_verify gave {verdict!r}"])
    return {
        "protocol.answer_gen_ns_per_round": (gen_ns, "ns"),
        "protocol.handle_challenge_ns": (statistics.median(handle) * 1e3 / slowness, "ns"),
        "protocol.bob_verify_ns_per_round": (fx.per_unit_ns(lambda: bob_verify(t), m, 3), "ns"),
    }


def storage_layer(fx: Fixtures) -> dict:
    spec, m, t, work = fx.spec, CHAIN_ROUNDS, fx.transcript, fx.ctx.workdir
    path = work / "layers.rbcx"

    def write():
        storage.write_transcript_stream(path, spec, t.m, iter(t.rounds), len(t.rounds),
                                        t.reveal, t.reveal_received_at, t.tau1_ns, t.tau2_ns)

    write_ns = fx.per_unit_ns(write, m, 3)
    read_ns = fx.per_unit_ns(lambda: storage.read_transcript(path), m, 3)
    verdict = storage.verify_file(path)[0]
    fx.check("storage", [] if verdict.accepted and verdict.bit == fx.bit
             else [f"verify_file gave {verdict!r}"])

    # verify_file and bob_verify alternate on the same transcript, so the
    # difference is not the host changing speed between them
    def overhead():
        diffs = []
        for _ in range(3):
            t0 = perf_counter_ns()
            storage.verify_file(path)
            t1 = perf_counter_ns()
            bob_verify(t)
            diffs.append((t1 - t0) - (perf_counter_ns() - t1))
        return statistics.median(diffs) / m

    overhead_ns, _, slowness = fx.ctx.speed.timed(overhead)
    tracemalloc.start()
    try:
        storage.verify_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    tape = work / "layers.tape"
    storage.write_tape(tape, spec, ROLE_ALICE_SECRETS, fx.secrets, m, seed=fx.ctx.seed)
    with storage.TapeReader(tape) as r:
        def sequential():
            r.seek(0)
            return list(r)

        tape_ns = fx.per_unit_ns(sequential, m)
        fx.check("storage tape", [] if sequential() == fx.secrets
                 else ["tape read back differently"])
        # the access pattern of the live committer: round k reads a_{k-1}, a_k
        pattern = [j for k in range(2, CALLS // 2 + 2) for j in (k - 2, k - 1)]

        def seek_read():
            for j in pattern:
                r.seek(j)
                r.read()

        seek_ns = fx.per_unit_ns(seek_read, len(pattern))
    return {
        "storage.write_ns_per_round": (write_ns, "ns"),
        "storage.read_transcript_ns_per_round": (read_ns, "ns"),
        # a computed difference: verify_file minus bob_verify on the same transcript
        "storage.verify_overhead_ns_per_round": (overhead_ns / slowness, "ns"),
        "storage.tape_read_ns_per_elem": (tape_ns, "ns"),
        "storage.tape_seek_read_ns": (seek_ns, "ns"),
        "storage.verify_peak_kib": (peak / 1024, "KiB"),
    }


def simnet_layer(fx: Fixtures) -> dict:
    tr = fx.ctx.tracer
    plan = small_plan(10_000)
    clocks = DRIFTING_CLOCKS
    seed = fx.ctx.seed * 1000
    out = {}
    # honest runs on exact clocks as in sim-honest, the attacks on the
    # drifting clocks of sim-adversary
    cases = [(simnet.AdversaryStrategy(simnet.HONEST), None, 2),
             (simnet.AdversaryStrategy(simnet.RELAY), clocks, 3),
             (simnet.AdversaryStrategy(simnet.LATE_DECISION, target_round=1, margin_ns=-1),
              clocks, 3),
             (simnet.AdversaryStrategy(simnet.WRONG_BIT_REVEAL), clocks, 2)]
    for strategy, clk, repeats in cases:
        runs = []
        for _ in range(repeats):
            run, _, slowness = fx.ctx.speed.timed(
                lambda: sim_run(tr, plan, strategy, seed, fx.bit, clk))
            runs.append((run, run.sim_s / slowness))
        fx.check(f"simnet {strategy.kind}", check_sim(runs[0][0], plan, strategy.kind, fx.bit))
        sim_s = statistics.median(s for _, s in runs)
        out[f"simnet.run_simulation_ms.{strategy.kind}"] = (sim_s * 1e3, "ms")
        if strategy.kind == simnet.HONEST:
            honest, honest_s = runs[0][0], sim_s
    events = honest.report.event_count
    out["simnet.events_per_run"] = (events, "count")
    out["simnet.ns_per_event"] = (honest_s * 1e9 / events, "ns")
    out["simnet.audit_ns_per_round"] = (fx.per_unit_ns(
        lambda: simnet.no_signaling_audit(honest.transcript, plan), plan.m, 3), "ns")
    horizon = plan.round_start_ns(plan.m + 1)
    rng = random.Random(fx.ctx.seed)
    local_times = [rng.randrange(horizon) for _ in range(2000)]
    exact, pps = simnet.ClockModel(), clocks["B1"]
    out["simnet.clock_exact_ns"] = (fx.per_unit_ns(
        lambda: [exact.global_at_local(t) for t in local_times], len(local_times)), "ns")
    out["simnet.clock_pps_ns"] = (fx.per_unit_ns(
        lambda: [pps.global_at_local(t) for t in local_times], len(local_times)), "ns")
    return out


def planner_layer(fx: Fixtures) -> dict:
    plan = small_plan(CHAIN_ROUNDS)
    ks = range(1, CHAIN_ROUNDS + 1)
    cfg = planner.load_config(fx.ctx.case1_config)
    return {
        "planner.round_start_ns_ns": (
            fx.per_unit_ns(lambda: [plan.round_start_ns(k) for k in ks], CHAIN_ROUNDS), "ns"),
        "planner.resource_plan_us": (
            fx.per_unit_ns(lambda: [planner.resource_plan(cfg) for _ in range(200)], 200) / 1e3,
            "us"),
    }


def transport_layer(fx: Fixtures) -> dict:
    payloads = [fx.spec.encode(x) for x in fx.challenges[:CALLS]]
    enc, dec, challenge = transport.encode_frame, transport.decode_frame, transport.FRAME_CHALLENGE
    frames = [enc(challenge, k, p) for k, p in enumerate(payloads, 1)]
    out = {
        "transport.frame_encode_ns": (fx.per_unit_ns(
            lambda: [enc(challenge, k, p) for k, p in enumerate(payloads, 1)], CALLS), "ns"),
        "transport.frame_decode_ns": (fx.per_unit_ns(lambda: [dec(f) for f in frames], CALLS),
                                      "ns"),
    }
    # one live session; its figures follow the sleep schedule, so they are
    # wall-clock
    plan, scale = live_plan(), LIVE_SCALE
    t0 = perf_counter()
    results = transport.run_loopback_session(plan, fx.ctx.workdir / "layers-live", bit=fx.bit,
                                             scale_factor=scale, seed=fx.ctx.seed * 1000)
    wall = perf_counter() - t0
    fx.ctx.speed.reset()
    fx.check("transport session", check_live(results, fx.bit))
    t = results["B1"].transcript
    rounds = t.rounds
    turn = {s: [(r.answer_received_at - r.challenge_issued_at) / 1e3
                for r in rounds if r.station == s] for s in (1, 2)}
    first = rounds[0].challenge_issued_at
    late = [(r.challenge_issued_at - first - plan.round_start_ns(r.k) * scale) / 1e3
            for r in rounds]
    reveal_k = plan.m + 1
    tau = plan.tau1_ns if station_of(reveal_k) == 1 else plan.tau2_ns
    # an estimate: the session epoch is taken to be round 1's issue time
    reveal_slack = (first + (plan.round_start_ns(reveal_k) + tau) * scale
                    - t.reveal_received_at) / 1e3
    start_delay = {f.name: f.default for f in dataclasses.fields(transport.SessionConfig)}[
        "start_delay_s"]
    schedule_s = plan.round_start_ns(reveal_k) * scale / 1e9
    out.update({
        "transport.turnaround_us.s1": (statistics.median(turn[1]), "us"),
        "transport.turnaround_us.s2": (statistics.median(turn[2]), "us"),
        "transport.issue_late_us.p50": (statistics.median(late), "us"),
        "transport.issue_late_us.p99": (quantile(late, 99), "us"),
        "transport.reveal_slack_us": (reveal_slack, "us"),
        "transport.session_overhead_ms": ((wall - start_delay - schedule_s) * 1e3, "ms"),
        "transport.verdict_ms": (fx.per_unit_ns(
            lambda: (bob_verify(t), storage.transcript_to_bytes(t)), 1) / 1e6, "ms"),
    })
    return out


def cli_layer(fx: Fixtures) -> dict:
    spec, work, m = fx.spec, fx.ctx.workdir, 2_000
    t = run_honest_protocol(spec, Tape(ROLE_ALICE_SECRETS, spec, fx.secrets[:m]),
                            Tape(ROLE_BOB_CHALLENGES, spec, fx.challenges[:m]), fx.bit)
    path = work / "layers-cli.rbcx"
    storage.write_transcript(t, path)
    argv = ["verify", str(path), "--manifest", str(work / "layers-cli.manifest.json")]
    codes = []

    # relbc verify and verify_file alternate on the same file
    def overhead():
        diffs = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            codes.append(run_cli(argv)[0])
            t1 = perf_counter()
            storage.verify_file(path)
            diffs.append((t1 - t0) - (perf_counter() - t1))
        return statistics.median(diffs)

    overhead_s, _, slowness = fx.ctx.speed.timed(overhead)
    fx.check("cli", [] if codes == [0] * REPEATS else [f"relbc verify exit codes {codes}"])
    # a computed difference: relbc verify minus verify_file on the same file
    return {"cli.verify_overhead_ms": (overhead_s / slowness * 1e3, "ms")}


GROUPS = (
    ("field", field_layer),
    ("protocol", protocol_layer),
    ("storage", storage_layer),
    ("simnet", simnet_layer),
    ("planner", planner_layer),
    ("transport", transport_layer),
    ("cli", cli_layer),
)


def run_layers(ctx: Context) -> dict:
    """All layer metrics as {name: (value, unit)}; a group that raises is
    counted as a failed operation and its metrics are missing."""
    tr = ctx.tracer
    ctx.speed.reset()
    tr.next_op()
    with tr.span("bench", "layer fixtures"):
        fx = Fixtures(ctx)
    out = {}
    for layer, fn in GROUPS:
        tr.next_op()
        with tr.span(layer, f"layer suite: {layer}"):
            try:
                out.update(fn(fx))
            except Exception as exc:  # report the group as failed and go on
                traceback.print_exc(file=sys.stderr)
                ctx.tally.op(f"layers {layer}", [repr(exc)])
    return out

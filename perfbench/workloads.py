"""The four workloads of the relbc benchmark.

Each workload sets up its inputs, then repeats a *cycle* until the timed
phase ends, and finally runs the checks that need to happen only once. A
cycle is one closed-loop operation from a single client: the next one starts
when the previous one has finished. Every cycle returns the figures the
end-to-end metrics are computed from and records its correctness checks in
the shared `Tally`.

Only public names of relbc are used, so a later change to its internals
(a faster chain kernel, a new record layout) does not touch the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

from relbc import cli, simnet, storage, transport
from relbc.field import FieldSpec
from relbc.planner import SPEED_OF_LIGHT, SpacetimeConfig, compute_tq, resource_plan
from relbc.protocol import (
    REJECT_ABORTED,
    REJECT_BIT_MISMATCH,
    ROLE_ALICE_SECRETS,
    ROLE_BOB_CHALLENGES,
    AliceAgent,
    RevealMessage,
    Tape,
    bob_verify,
    honest_round_stream,
    run_honest_protocol,
)
from calibration import HostSpeed
from tracing import Tracer

N_BITS = 128


def small_plan(m: int, tau: float = 3e-6, t_m: float = 3.3e-6, L: float = 7000.0):
    """A feasible n=128 plan with exactly `m` (even) rounds and tau_i = 2*l_i/c:
    the metropolitan geometry of case 1, shortened to m rounds."""
    c = SPEED_OF_LIGHT
    l = c * tau / 2.0
    cfg = SpacetimeConfig(L=L, l1=l, l2=l, tau1=tau, tau2=tau, t_m=t_m, T=1.0, n=N_BITS)
    cfg = SpacetimeConfig(L=L, l1=l, l2=l, tau1=tau, tau2=tau, t_m=t_m,
                          T=(m + 1.5) * compute_tq(cfg) / 2.0, n=N_BITS)
    plan = resource_plan(cfg)
    if plan.m != m:
        raise ValueError(f"planner gave m={plan.m}, wanted {m}")
    return plan


# The live sessions run at the program's default time scale. At scale 300 a
# 2-core VM aborted 3 of 15 sessions: host stalls beyond the 3 ms scaled
# deadline. Scale 1000 (10 ms) aborted none.
LIVE_SCALE = 1000


def live_plan():
    """The live acceptance geometry: tau = 10 us, t_m = 1 us, t_Q = 26 us, m = 200."""
    return small_plan(200, tau=10e-6, t_m=1e-6, L=(26e-6 / 2 + 1e-6 + 10e-6) * SPEED_OF_LIGHT)


# A pps-disciplined clock per agent, inside its tolerance (offsets of tens of
# ns, |rate| <= 5 ppb). They are the same in every run, so seeds differ only
# in tapes and bits and not in how much clock arithmetic a run does.
DRIFTING_CLOCKS = {
    agent: simnet.ClockModel(offset_ns=offset, rate=rate, discipline="pps")
    for agent, offset, rate in (("A1", 37, 3e-9), ("A2", -53, -4e-9),
                                ("B1", 71, 2e-9), ("B2", -29, -5e-9))
}


class Tally:
    """Checked operations. An operation fails when any of its checks fails;
    an abort where none was expected is such a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems)}")

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Context:
    seed: int
    workdir: Path
    tracer: Tracer
    case1_config: Path
    tally: Tally = field(default_factory=Tally)
    speed: HostSpeed = field(default_factory=HostSpeed)


@dataclass
class Cycle:
    """Figures of one cycle. Durations of CPU-bound calls are in reference
    seconds (see calibration.py); those of live sessions are wall-clock.
    `wall_s` excludes the checks and the turnaround probe."""

    wall_s: float
    runs: int
    gen_rounds: int
    gen_s: float
    verify_rounds: int
    verify_s: float


def expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def answer_turnaround_us(tracer: Tracer, spec: FieldSpec, secrets: list[int],
                         challenges: list[int], bit: int) -> list[float]:
    """Per-round answer time of the committer with no wire in between: each
    `AliceAgent.handle_challenge` call timed on its own, rounds 1..len(secrets)."""
    m = len(secrets)
    tape = Tape(ROLE_ALICE_SECRETS, spec, secrets)
    agents = {1: AliceAgent(1, spec, tape, bit, m), 2: AliceAgent(2, spec, tape, bit, m)}
    out = []
    with tracer.span("protocol", "AliceAgent.handle_challenge"):
        for k in range(1, m + 1):
            agent = agents[2 - (k & 1)]
            x = challenges[k - 1]
            t0 = perf_counter_ns()
            agent.handle_challenge(k, x)
            out.append((perf_counter_ns() - t0) / 1e3)
    return out


class AnswerProbe:
    """The turnaround of an offline workload: after every cycle, one pass of
    `answer_turnaround_us` over the same rounds, in reference microseconds;
    each round's time is its median over the passes. A 5 us call is often
    caught by one of the host's slow spells, which last from microseconds to
    seconds, and a 15 ms pass is sometimes calibrated against a different
    spell than the one it ran in; over passes spread across the whole run the
    median per round is the program's own cost, and the 99th percentile over
    rounds is the rounds whose arithmetic costs more."""

    def __init__(self, spec: FieldSpec, secrets: list[int], challenges: list[int], bit: int):
        self.args = (spec, secrets, challenges, bit)
        self.passes: list[list[float]] = []

    def run(self, tracer: Tracer, hs: HostSpeed) -> None:
        times, _, slowness = hs.timed(lambda: answer_turnaround_us(tracer, *self.args))
        self.passes.append([t / slowness for t in times])

    def samples(self) -> tuple[list[float], str]:
        per_round = [statistics.median(ts) for ts in zip(*self.passes)]
        return per_round, f"median of {len(self.passes)} passes per round"


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`relbc <argv>` in-process, with its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    name = ""
    setup_repeats = 3
    setup_schedule_bound = False   # set-up time follows a sleep schedule, not the CPU

    def setup(self, ctx: Context) -> None:
        raise NotImplementedError

    def cycle(self, ctx: Context, i: int) -> Cycle:
        raise NotImplementedError

    def final_checks(self, ctx: Context) -> None:
        """Checks made once per run, after the timed phase."""

    def turnaround(self) -> tuple[list[float], str]:
        """Per-round answer times in microseconds, and how they were taken."""
        return self.probe.samples()

    def outputs(self) -> dict:
        """Reported outputs besides the metrics (hashes, sizes)."""
        return {}


class TranscriptFile(Workload):
    name = "transcript-file"
    # 2.85 MB at n=128, 13 verification chunks of 4096 rounds; about one second
    # per call, so the host-speed calibration brackets each call closely
    rounds = 50_000
    prefix_rounds = 5_000     # size of the generation cross-check and the CLI checks
    probe_rounds = 5_000
    setup_repeats = 5

    def setup(self, ctx: Context) -> None:
        tr = ctx.tracer
        with tr.span("planner", "resource_plan"):
            self.plan = small_plan(self.rounds)
        self.spec = FieldSpec(self.plan.n)
        self.bit = ctx.seed & 1
        self.secrets_path = ctx.workdir / "secrets.tape"
        self.challenges_path = ctx.workdir / "challenges.tape"
        self.path = ctx.workdir / "transcript.rbcx"
        with tr.span("storage", "generate_tape"):
            storage.generate_tape(self.plan, ROLE_ALICE_SECRETS, self.secrets_path,
                                  seed=2 * ctx.seed)
        with tr.span("storage", "generate_tape"):
            storage.generate_tape(self.plan, ROLE_BOB_CHALLENGES, self.challenges_path,
                                  seed=2 * ctx.seed + 1)
        self.head_secrets = self._tape_head(self.secrets_path, self.prefix_rounds)
        self.head_challenges = self._tape_head(self.challenges_path, self.prefix_rounds)
        self.probe = AnswerProbe(self.spec, self.head_secrets[:self.probe_rounds],
                                 self.head_challenges, self.bit)
        self.sha = None

    def _tape_head(self, path: Path, count: int) -> list[int]:
        with storage.TapeReader(path) as r:
            return list(itertools.islice(r, count))

    def _generate(self, tr: Tracer, path: Path) -> None:
        with tr.span("storage", "TapeReader"):
            secrets = storage.TapeReader(self.secrets_path)
        with tr.span("storage", "TapeReader"):
            challenges = storage.TapeReader(self.challenges_path)
        with secrets, challenges, tr.span("storage", "generate_honest_transcript_file"):
            storage.generate_honest_transcript_file(path, self.spec, self.plan.m,
                                                    iter(secrets), iter(challenges), self.bit)

    def _verify(self, tr: Tracer, path: Path):
        with tr.span("storage", "verify_file"):
            return storage.verify_file(path)[0]

    def cycle(self, ctx: Context, i: int) -> Cycle:
        tr, hs, m = ctx.tracer, ctx.speed, self.plan.m
        _, gen_s, gen_slow = hs.timed(lambda: self._generate(tr, self.path))
        verdict, verify_s, verify_slow = hs.timed(lambda: self._verify(tr, self.path))
        gen_s, verify_s = gen_s / gen_slow, verify_s / verify_slow
        with tr.span("bench", "sha256"):
            sha = sha256_file(self.path)
        problems: list[str] = []
        expect(problems, verdict.accepted and verdict.bit == self.bit,
               f"verify_file gave {verdict!r}, expected accept bit={self.bit}")
        if self.sha is None:
            self.sha = sha
        expect(problems, sha == self.sha, "transcript bytes differ between cycles")
        ctx.tally.op(f"cycle {i}", problems)
        self.probe.run(tr, hs)
        return Cycle(gen_s + verify_s, 1, m, gen_s, m, verify_s)

    def final_checks(self, ctx: Context) -> None:
        tr, work, spec, bit = ctx.tracer, ctx.workdir, self.spec, self.bit
        m = self.plan.m

        # a copy of the transcript with one answer bit flipped, written by
        # streaming so its layout stays the program's own
        flip_k = m // 2
        with storage.TapeReader(self.secrets_path) as r:
            r.seek(m - 1)
            a_m = r.read()
        with storage.TapeReader(self.secrets_path) as a, \
                storage.TapeReader(self.challenges_path) as x:
            rounds = honest_round_stream(spec, iter(a), iter(x), bit, m)

            def flipped():
                for rec in rounds:
                    if rec.k == flip_k:
                        rec.answer ^= 1
                    yield rec

            tampered = work / "tampered.rbcx"
            storage.write_transcript_stream(tampered, spec, m, flipped(), m,
                                            RevealMessage(bit, a_m), (m + 1) * 1000 + 1,
                                            1_000_000, 1_000_000)
        verdict = self._verify(tr, tampered)
        ctx.tally.op("tampered copy", [] if (not verdict.accepted
                                             and verdict.reason == REJECT_BIT_MISMATCH)
                     else [f"flipped answer bit of round {flip_k} gave {verdict!r}"])
        tampered.unlink()

        # the two honest-generation paths agree byte for byte on a prefix
        p = self.prefix_rounds
        prefix = work / "prefix.rbcx"
        with tr.span("storage", "generate_honest_transcript_file"):
            storage.generate_honest_transcript_file(prefix, spec, p, iter(self.head_secrets),
                                                    iter(self.head_challenges), bit)
        with tr.span("protocol", "run_honest_protocol"):
            t = run_honest_protocol(spec, Tape(ROLE_ALICE_SECRETS, spec, self.head_secrets),
                                    Tape(ROLE_BOB_CHALLENGES, spec, self.head_challenges), bit)
        with tr.span("storage", "transcript_to_bytes"):
            blob = storage.transcript_to_bytes(t)
        ctx.tally.op("generation cross-check",
                     [] if prefix.read_bytes() == blob else
                     [f"streamed and in-memory transcripts differ at m={p}"])

        # `relbc verify`, with an explicit manifest and with the default one
        manifest = work / "verify.manifest.json"
        with tr.span("cli", "main"):
            code, out = run_cli(["verify", str(prefix), "--manifest", str(manifest)])
        problems: list[str] = []
        expect(problems, code == 0 and f"ACCEPT bit={bit}" in out,
               f"relbc verify exited {code}: {out.strip()!r}")
        expect(problems, manifest.is_file(), "relbc verify wrote no manifest")
        ctx.tally.op("relbc verify --manifest", problems)

        cwd = work / "cli-cwd"
        cwd.mkdir(exist_ok=True)
        before = Path.cwd()
        os.chdir(cwd)
        try:
            with tr.span("cli", "main"):
                code, _ = run_cli(["verify", str(prefix)])
        finally:
            os.chdir(before)
        default_manifest = cwd / "relbc-verify.manifest.json"
        ctx.tally.op("relbc verify (default manifest)",
                     [] if code == 0 and default_manifest.is_file() else
                     [f"exit {code}; manifest in cwd: {default_manifest.is_file()}"])

    def outputs(self) -> dict:
        size = self.path.stat().st_size if self.path.exists() else None
        return {"transcript_sha256": self.sha, "transcript_bytes": size,
                "transcript_rounds": self.plan.m, "transcript_bit": self.bit}


@dataclass
class SimRun:
    transcript: object
    report: simnet.SimReport
    verdict: object
    audit: simnet.AuditReport
    tapes: tuple
    sim_s: float
    verify_s: float


def sim_run(tr: Tracer, plan, strategy: simnet.AdversaryStrategy, seed: int, bit: int,
            clocks: dict | None) -> SimRun:
    """One run as in `simnet._run_one_summary`: tapes, simulation, verdict, audit."""
    with tr.span("field", "FieldSpec"):
        spec = FieldSpec(plan.n)
    with tr.span("simnet", "make_tapes"):
        tapes = simnet.make_tapes(plan, spec, seed)
    t0 = perf_counter()
    with tr.span("simnet", "run_simulation"):
        transcript, report = simnet.run_simulation(plan, clocks=clocks, strategy=strategy,
                                                   seed=seed, bit=bit, tapes=tapes, spec=spec)
    t1 = perf_counter()
    with tr.span("protocol", "bob_verify"):
        verdict = bob_verify(transcript)
    t2 = perf_counter()
    with tr.span("simnet", "no_signaling_audit"):
        audit = simnet.no_signaling_audit(transcript, plan)
    return SimRun(transcript, report, verdict, audit, tapes, t1 - t0, t2 - t1)


def check_sim(run: SimRun, plan, kind: str, bit: int) -> list[str]:
    """The expected outcome of each strategy on the benchmark plans."""
    problems: list[str] = []
    rep, verdict = run.report, run.verdict
    if kind == simnet.HONEST:
        expect(problems, not rep.aborted,
               f"honest run aborted at round {rep.abort_round}: {rep.abort_reason}")
        expect(problems, verdict.accepted and verdict.bit == bit,
               f"honest run gave {verdict!r}, expected accept bit={bit}")
        expect(problems, run.audit.ok and run.audit.worst_slack_ns is not None
               and run.audit.worst_slack_ns >= plan.t_m_ns - 1,
               f"audit ok={run.audit.ok} worst slack {run.audit.worst_slack_ns} ns")
    elif kind == simnet.RELAY:
        expect(problems, rep.aborted and rep.abort_round == 2,
               f"relay: aborted={rep.aborted} at round {rep.abort_round}, expected round 2")
        expect(problems, verdict.reason == REJECT_ABORTED, f"relay gave {verdict!r}")
    elif kind == simnet.LATE_DECISION:
        expect(problems, rep.aborted and rep.abort_round == 1,
               f"late-decision: aborted={rep.aborted} at round {rep.abort_round}, "
               "expected round 1")
        expect(problems, verdict.reason == REJECT_ABORTED, f"late-decision gave {verdict!r}")
    elif kind == simnet.WRONG_BIT_REVEAL:
        expect(problems, not rep.aborted,
               f"wrong-bit-reveal aborted at round {rep.abort_round}")
        expect(problems, not verdict.accepted and verdict.reason == REJECT_BIT_MISMATCH,
               f"wrong-bit-reveal gave {verdict!r}, expected reject bit-mismatch")
    return problems


class SimHonest(Workload):
    name = "sim-honest"
    rounds = 10_000
    seeds_per_bit = 8
    probe_rounds = 2_500
    clocks = None

    def setup(self, ctx: Context) -> None:
        with ctx.tracer.span("planner", "resource_plan"):
            self.plan = small_plan(self.rounds)
        self.runs = [(ctx.seed * 1000 + j, bit)
                     for j in range(self.seeds_per_bit) for bit in (0, 1)]
        # one warm-up run, so lazy set-up finishes before timing
        seed, bit = self.runs[0]
        run = sim_run(ctx.tracer, self.plan, simnet.AdversaryStrategy(simnet.HONEST),
                      seed, bit, self.clocks)
        ctx.tally.op(f"warm-up seed={seed} bit={bit}",
                     check_sim(run, self.plan, simnet.HONEST, bit))
        secrets, challenges = run.tapes
        self.probe = AnswerProbe(secrets.spec, secrets.elements[:self.probe_rounds],
                                 challenges.elements, bit)

    def _strategies(self) -> list[simnet.AdversaryStrategy]:
        return [simnet.AdversaryStrategy(simnet.HONEST)]

    def cycle(self, ctx: Context, i: int) -> Cycle:
        tr, hs = ctx.tracer, ctx.speed
        seed, bit = self.runs[i % len(self.runs)]
        done = []
        for strategy in self._strategies():
            run, seconds, slow = hs.timed(
                lambda: sim_run(tr, self.plan, strategy, seed, bit, self.clocks))
            ctx.tally.op(f"cycle {i} {strategy.kind} seed={seed} bit={bit}",
                         check_sim(run, self.plan, strategy.kind, bit))
            done.append((run, seconds / slow, slow))
        complete = [(r, slow) for r, _, slow in done if r.transcript.is_complete]
        self.probe.run(tr, hs)
        return Cycle(sum(s for _, s, _ in done), len(done),
                     sum(r.report.rounds_recorded for r, _, _ in done),
                     sum(r.sim_s / slow for r, _, slow in done),
                     sum(len(r.transcript.rounds) for r, _ in complete),
                     sum(r.verify_s / slow for r, slow in complete))


class SimAdversary(SimHonest):
    name = "sim-adversary"
    seeds_per_bit = 4
    clocks = DRIFTING_CLOCKS

    def _strategies(self) -> list[simnet.AdversaryStrategy]:
        return [simnet.AdversaryStrategy(simnet.HONEST),
                simnet.AdversaryStrategy(simnet.RELAY),
                simnet.AdversaryStrategy(simnet.LATE_DECISION, target_round=1, margin_ns=-1),
                simnet.AdversaryStrategy(simnet.WRONG_BIT_REVEAL)]


def check_live(results: dict, bit: int) -> list[str]:
    problems: list[str] = []
    for role in ("B1", "B2"):
        r = results[role]
        expect(problems, r.exit_code == transport.EXIT_ACCEPT and r.verdict is not None
               and r.verdict.accepted and r.verdict.bit == bit,
               f"{role} exit {r.exit_code} verdict {r.verdict!r} abort {r.abort}")
        expect(problems, r.peer_agrees is True, f"{role} peer_agrees={r.peer_agrees}")
    expect(problems, results["B1"].transcript_sha is not None
           and results["B1"].transcript_sha == results["B2"].transcript_sha,
           "verifier transcript hashes differ")
    for role in ("A1", "A2"):
        expect(problems, results[role].exit_code == transport.EXIT_ACCEPT,
               f"{role} exit {results[role].exit_code} abort {results[role].abort}")
    return problems


class LiveLoopback(Workload):
    name = "live-loopback"
    setup_schedule_bound = True
    verify_repeats = 5   # the verdict takes ~3 ms; repeat it to time it steadily

    def setup(self, ctx: Context) -> None:
        with ctx.tracer.span("planner", "resource_plan"):
            self.plan = live_plan()
        self.tape_dir = ctx.workdir / "live"
        self.sessions = 0
        self.turnaround_us: list[float] = []
        # one warm-up session, part of the timed set-up
        self.cycle(ctx, -1)

    def _verify(self, tr: Tracer, transcript) -> None:
        for _ in range(self.verify_repeats):
            with tr.span("protocol", "bob_verify"):
                bob_verify(transcript)

    def cycle(self, ctx: Context, i: int) -> Cycle:
        tr, hs = ctx.tracer, ctx.speed
        seed, bit = ctx.seed * 1000 + i + 1, i & 1
        t0 = perf_counter()
        with tr.span("transport", "run_loopback_session"):
            results = transport.run_loopback_session(self.plan, self.tape_dir, bit=bit,
                                                     scale_factor=LIVE_SCALE, seed=seed)
        session_s = perf_counter() - t0
        hs.reset()
        transcript = results["B1"].transcript
        verify_rounds, verify_s = 0, 0.0
        if transcript is not None and transcript.is_complete:
            _, verify_s, slow = hs.timed(lambda: self._verify(tr, transcript))
            verify_s /= slow
            verify_rounds = self.verify_repeats * len(transcript.rounds)
        ctx.tally.op(f"session {i} seed={seed} bit={bit}", check_live(results, bit))
        rounds = transcript.rounds if transcript is not None else []
        if i >= 0:
            self.sessions += 1
            self.turnaround_us += [(r.answer_received_at - r.challenge_issued_at) / 1e3
                                   for r in rounds]
        return Cycle(session_s + verify_s, 1, len(rounds), session_s, verify_rounds, verify_s)

    def turnaround(self) -> tuple[list[float], str]:
        return self.turnaround_us, f"every recorded round of {self.sessions} sessions"


WORKLOADS = {w.name: w for w in (TranscriptFile, SimHonest, SimAdversary, LiveLoopback)}

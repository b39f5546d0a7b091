"""Command-line entry point.

Subcommands:

    plan      evaluate a config: human table + machine-readable plan file
    tape      generate a pre-shared randomness tape for a plan
    simulate  run the discrete-event simulation, write transcript + audit,
              and verify the transcript file it wrote when the run completed
    run       run one live agent (A1/A2/B1/B2) over TCP
    verify    stream-verify a transcript file
    bench     time `generate_honest_transcript_file` and `verify_file` on an
              honest n=128 file and project the wall time of verifying
              case-1's 24 h transcript

Exit codes are stable for scripting: 0 success/accept, 1 usage or config
error (argparse's usage errors included), 2 protocol abort, 3 verification
reject. Every command writes a run manifest (JSON) recording the resolved
inputs, seeds, plan hash, and output paths; re-running the recorded argv
reproduces the outputs bit-for-bit (live `run` timestamps excepted).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from dataclasses import asdict, replace
from importlib import resources
from pathlib import Path

from . import __version__
from .field import FieldSpec
from .planner import (
    DEFAULT_YEAR_DAYS,
    PlannerError,
    ProtocolPlan,
    SpacetimeConfig,
    compute_tq,
    format_plan_table,
    load_config,
    load_plan,
    parse_config,
    parse_duration,
    rehearsal,
    resource_plan,
    save_plan,
)
from .protocol import ROLE_ALICE_SECRETS, ROLE_BOB_CHALLENGES, Verdict
from .simnet import (AdversaryStrategy, STRATEGIES, SimulationError, no_signaling_audit,
                     run_simulation)
from .storage import (
    PlanHashMismatchError,
    StorageError,
    TapeReader,
    generate_honest_transcript_file,
    generate_tape,
    verify_file,
    write_transcript,
)
from .transport import (
    EXIT_ABORT,
    EXIT_ACCEPT,
    EXIT_REJECT,
    EXIT_USAGE,
    SessionConfig,
    TransportError,
    run_agent,
)

CASE1_ROUNDS = 5_068_218_630  # resource_plan(case1).m, the 24 h round count


def _builtin_config(name: str) -> str | None:
    ref = resources.files("relbc").joinpath(f"configs/{name}.cfg")
    try:
        return ref.read_text()
    except (FileNotFoundError, OSError):
        return None


def _resolve_config(arg: str, year_days: float) -> SpacetimeConfig:
    """Accept a path or a shipped config name (case1, case2); a `y` duration
    in it is `year_days` days."""
    p = Path(arg)
    if p.exists():
        return load_config(p, year_days)
    text = _builtin_config(arg)
    if text is not None:
        return parse_config(text, year_days)
    raise PlannerError(f"config {arg!r}: no such file or built-in config")


def _write_manifest(args: argparse.Namespace, outputs: list[str],
                    plan_hash: str | None = None, seeds: list[int] | None = None,
                    resolved: dict | None = None) -> None:
    manifest = {
        "tool_version": __version__,
        "subcommand": args.command,
        "argv": sys.argv[1:],
        "resolved": resolved or {},
        "plan_hash": plan_hash,
        "seeds": seeds or [],
        "outputs": outputs,
    }
    path = getattr(args, "manifest", None)
    if path is None:
        base = Path(outputs[0]) if outputs else Path(f"relbc-{args.command}")
        path = base.with_suffix(base.suffix + ".manifest.json")
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _check_manifest_path(args: argparse.Namespace) -> None:
    """Refuse a `--manifest` path that cannot be written, before the command
    writes or prints anything: a directory, or a file in a missing one."""
    path = getattr(args, "manifest", None)
    if path is None:
        return
    if Path(path).is_dir():
        raise OSError(f"--manifest {path}: is a directory")
    parent = Path(path).parent
    if not parent.is_dir():
        raise OSError(f"--manifest {path}: no directory {parent}")


def _duration_for_rounds(cfg: SpacetimeConfig, rounds: int) -> float:
    """The duration T at which the planner lands exactly on `rounds` (even)."""
    try:
        return (rounds + 1.5) * compute_tq(cfg) / 2.0
    except OverflowError:
        raise PlannerError("--rounds: the count is too large to plan") from None


def _plan_for_args(args: argparse.Namespace) -> ProtocolPlan:
    """The one place arguments become a plan. `--plan` is loaded as it is and
    refuses every planning flag beside it; otherwise `--config` (case1 unless
    given) is planned with the given overrides, and `relbc plan --scale`
    plans the rehearsal of the result (`planner.rehearsal`). A `y` duration,
    in the config or in `--duration`, is 365 days unless `--year-days` says
    otherwise."""
    given = {flag: getattr(args, flag[2:].replace("-", "_"), None)
             for flag in ("--config", "--rounds", "--n", "--duration", "--year-days")}
    given = {flag: value for flag, value in given.items() if value is not None}
    if getattr(args, "plan", None):
        if given:
            raise PlannerError(f"--plan fixes the config, round count, width and duration; "
                               f"drop {', '.join(given)}, or drop --plan to plan from them")
        return load_plan(args.plan)
    year_days = given.get("--year-days", DEFAULT_YEAR_DAYS)
    cfg = _resolve_config(given.get("--config", "case1"), year_days)
    overrides = {}
    if "--duration" in given:
        overrides["T"] = parse_duration(given["--duration"], year_days)
    if "--n" in given:
        overrides["n"] = given["--n"]
    if "--rounds" in given:
        rounds = given["--rounds"]
        if rounds > 1 and rounds % 2:
            raise PlannerError(f"--rounds {rounds}: the planner rounds m down "
                               f"to even, so an odd count above 1 cannot be planned")
        overrides["T"] = _duration_for_rounds(cfg, rounds)
    if overrides:
        cfg = replace(cfg, **overrides)
    return resource_plan(rehearsal(cfg, getattr(args, "scale", 1)))


def cmd_plan(args: argparse.Namespace) -> int:
    plan = _plan_for_args(args)
    print(format_plan_table([(plan.config.name or Path(args.config).stem, plan)]))
    print(f"\nt_Q = {plan.t_q * 1e6:.4f} us   t_L = {plan.t_l * 1e6:.4f} us   "
          f"m = {plan.m}   eps_old = {plan.epsilon_exponential:.3g}")
    print(f"min separation for these deadlines: {plan.min_separation_m / 1000:.3f} km")
    print(f"drift budget (t_m/T): {plan.drift_budget:.3g}")
    if args.scale != 1:
        print(f"rehearsal: every time x{args.scale} and c / {args.scale}; its transcripts "
              f"certify no commitment")
    outputs = []
    if args.out:
        save_plan(plan, args.out)
        outputs.append(str(args.out))
        print(f"plan written to {args.out}")
    _write_manifest(args, outputs, plan.plan_hash, resolved=plan.config.to_dict())
    return 0


def cmd_tape(args: argparse.Namespace) -> int:
    plan = load_plan(args.plan)
    count = generate_tape(plan, args.role, args.out, seed=args.seed)
    print(f"{args.role}: {count} elements ({count * plan.element_bytes} bytes) -> {args.out}")
    _write_manifest(args, [str(args.out)], plan.plan_hash,
                    seeds=[args.seed] if args.seed is not None else [])
    return 0


def _print_verdict(verdict: Verdict) -> int:
    """Print the verdict line and return its exit code."""
    if verdict.accepted:
        print(f"ACCEPT bit={verdict.bit}")
        return EXIT_ACCEPT
    print(f"REJECT: {verdict.reason}")
    return EXIT_REJECT


def cmd_simulate(args: argparse.Namespace) -> int:
    plan = _plan_for_args(args)
    strategy = AdversaryStrategy(kind=args.strategy, target_round=args.target_round,
                                 margin_ns=args.margin_ns)
    transcript, report = run_simulation(plan, strategy=strategy, seed=args.seed,
                                        bit=args.bit)
    audit = no_signaling_audit(transcript, plan)
    out = Path(args.out)
    write_transcript(transcript, out)
    audit_path = out.with_suffix(".audit.json")
    audit_path.write_text(json.dumps({**asdict(audit), "report": asdict(report)}, indent=2))
    print(f"strategy={args.strategy} seed={args.seed} bit={args.bit} m={plan.m}")
    if report.aborted:
        print(f"ABORT at round {report.abort_round}: {report.abort_reason}")
        code = EXIT_ABORT
    else:
        print(f"complete: {report.rounds_recorded} rounds; "
              f"audit {'ok' if audit.ok else 'VIOLATIONS'}; "
              f"worst slack {audit.worst_slack_ns} ns")
        code = _print_verdict(verify_file(out, plan)[0])
    print(f"transcript -> {out}\naudit      -> {audit_path}")
    _write_manifest(args, [str(out), str(audit_path)], plan.plan_hash, seeds=[args.seed])
    return code


def cmd_verify(args: argparse.Namespace) -> int:
    plan = load_plan(args.plan) if args.plan else None
    try:
        verdict, stats = verify_file(args.transcript, plan=plan)
    except PlanHashMismatchError as exc:
        print(f"plan mismatch: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rate = stats.rounds_per_second
    print(f"rounds: {stats.rounds}   time: {stats.seconds:.3f} s   "
          f"throughput: {rate:,.0f} rounds/s")
    code = _print_verdict(verdict)
    _write_manifest(args, [], plan.plan_hash if plan else None)
    return code


def _addresses(args: argparse.Namespace) -> tuple[tuple[str, int] | None,
                                                 dict[str, tuple[str, int]]]:
    """The --listen address and the --peer map; a value without a port in
    0..65535 after its last colon raises TransportError."""
    def address(flag: str, value: str, addr: str) -> tuple[str, int]:
        host, _, port = addr.rpartition(":")
        if not port.isdecimal() or int(port) > 65535:
            form = "ROLE=HOST:PORT" if flag == "--peer" else "HOST:PORT"
            raise TransportError(f"{flag} {value!r}: expected {form} with a port in 0..65535")
        return host, int(port)

    peers = {}
    for value in args.peer or []:
        role, _, addr = value.partition("=")
        peers[role] = address("--peer", value, addr)
    listen = address("--listen", args.listen, args.listen) if args.listen else None
    return listen, peers


def cmd_run(args: argparse.Namespace) -> int:
    listen, peers = _addresses(args)
    plan = load_plan(args.plan)
    cfg = SessionConfig(
        role=args.role,
        plan=plan,
        bit=args.bit,
        secrets_path=args.secrets,
        challenges_path=args.challenges,
        listen=listen,
        peers=peers,
    )
    result = run_agent(cfg)
    if result.abort is not None:
        where = f" at round {result.abort.round_index}" if result.abort.round_index else ""
        print(f"{args.role}: ABORT ({result.abort.reason}){where} {result.abort.detail}")
    elif result.verdict is not None:
        agree = "peers agree" if result.peer_agrees else "PEER DISAGREES"
        print(f"{args.role}: {result.verdict!r} ({agree})")
    else:
        print(f"{args.role}: completed")
    outputs = []
    if args.out and result.transcript is not None:
        write_transcript(result.transcript, args.out)
        outputs.append(str(args.out))
        print(f"transcript -> {args.out}")
    _write_manifest(args, outputs, plan.plan_hash)
    return result.exit_code


def cmd_bench(args: argparse.Namespace) -> int:
    plan = _plan_for_args(args)
    spec, m = FieldSpec(plan.n), plan.m
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        secrets, challenges, path = work / "a.tape", work / "x.tape", work / "bench.rbcx"
        t0 = time.perf_counter()
        generate_tape(plan, ROLE_ALICE_SECRETS, secrets, seed=args.seed)
        generate_tape(plan, ROLE_BOB_CHALLENGES, challenges, seed=args.seed + 1)
        tape_rate = 2 * m / (time.perf_counter() - t0)
        t0 = time.perf_counter()
        with TapeReader(secrets) as a, TapeReader(challenges) as x:
            generate_honest_transcript_file(path, spec, m, a, x, 1)
        gen_rate = m / (time.perf_counter() - t0)
        verdict, stats = verify_file(path)
    if not verdict.accepted:
        print(f"error: the honest bench transcript was rejected: {verdict!r}",
              file=sys.stderr)
        return EXIT_REJECT
    rate = stats.rounds_per_second
    case1_rounds = resource_plan(_resolve_config("case1", DEFAULT_YEAR_DAYS)).m
    case1_hours = case1_rounds / rate / 3600.0
    case1_gen_hours = case1_rounds / gen_rate / 3600.0
    case1_tapes_hours = 2 * case1_rounds / tape_rate / 3600.0
    rows = {
        "tape_elements_per_s": tape_rate,
        "gen_rounds_per_s": gen_rate,
        "verify_rounds_per_s": rate,
        "case1_rounds": case1_rounds,
        "case1_tapes_hours_projected": case1_tapes_hours,
        "case1_gen_hours_projected": case1_gen_hours,
        "case1_verify_hours_projected": case1_hours,
    }
    print(f"{'tape generation':34s} {tape_rate:12,.0f} elements/s (two seeded tapes)")
    print(f"{'transcript-file generation':34s} {gen_rate:12,.0f} rounds/s   (m = {m})")
    print(f"{'transcript-file verification':34s} {rate:12,.0f} rounds/s   (m = {m})")
    print(f"{'projected case-1 generation':34s} {case1_gen_hours:12,.1f} hours "
          f"({case1_rounds:.3g} rounds)")
    print(f"{'projected case-1 verification':34s} {case1_hours:12,.1f} hours "
          f"({case1_rounds:.3g} rounds)")
    print(f"{'projected case-1 tapes':34s} {case1_tapes_hours:12,.1f} hours "
          f"(two tapes of {case1_rounds:.3g} elements)")
    outputs = []
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=2))
        outputs.append(str(args.json))
    _write_manifest(args, outputs, None, seeds=[args.seed])
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits EXIT_USAGE on a usage error; argparse's own 2 is the code of a
    protocol abort. Subparsers are made of the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="relbc",
        description="Multi-round relativistic bit commitment toolkit",
    )
    ap.add_argument("--version", action="version", version=f"relbc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    manifest = argparse.ArgumentParser(add_help=False)
    manifest.add_argument("--manifest", help="run manifest path")
    duration = argparse.ArgumentParser(add_help=False)
    duration.add_argument("--duration", help="override commitment duration (e.g. 24h, 1y, 600)")
    duration.add_argument("--year-days", type=float,
                          help="days per year for the 'y' duration unit (365, the default, "
                               "or 365.25)")

    p = sub.add_parser("plan", parents=[duration, manifest], help="evaluate a spacetime config")
    p.add_argument("config", help="config file path or built-in name (case1, case2)")
    p.add_argument("--out", help="write the machine-readable plan JSON here")
    p.add_argument("--scale", type=int, default=1,
                   help="plan a rehearsal instead: every time x SCALE and c / SCALE, for a "
                        "live session on hosts that cannot keep the real light-cone gaps")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("tape", parents=[manifest], help="generate a pre-shared randomness tape")
    p.add_argument("--plan", required=True, help="plan JSON from `relbc plan --out`")
    p.add_argument("--role", required=True, choices=["alice-secrets", "bob-challenges"])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="seeded (reproducible); omit for system entropy")
    p.set_defaults(func=cmd_tape)

    p = sub.add_parser("simulate", parents=[duration, manifest],
                       help="run the discrete-event simulation")
    p.add_argument("--plan", help="plan JSON, which refuses every planning flag "
                                  "(otherwise --config)")
    p.add_argument("--config", help="config path or built-in name (default case1)")
    p.add_argument("--rounds", type=int, help="override the round count m")
    p.add_argument("--n", type=int, help="override the string width (e.g. 8)")
    p.add_argument("--strategy", default="honest", choices=list(STRATEGIES))
    p.add_argument("--target-round", type=int, default=1,
                   help="round attacked by late-decision")
    p.add_argument("--margin-ns", type=int, default=1,
                   help="late-decision arrival margin before the deadline (ns)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bit", type=int, default=0, choices=[0, 1])
    p.add_argument("--out", default="transcript.rbcx")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("run", parents=[manifest], help="run one live agent")
    p.add_argument("--role", required=True, choices=["A1", "A2", "B1", "B2"])
    p.add_argument("--plan", required=True)
    p.add_argument("--secrets", help="secrets tape (committer roles)")
    p.add_argument("--challenges", help="challenge tape (verifier roles)")
    p.add_argument("--listen", help="host:port to listen on (verifier roles)")
    p.add_argument("--peer", action="append", metavar="ROLE=HOST:PORT",
                   help="peer address, repeatable")
    p.add_argument("--bit", type=int, default=0, choices=[0, 1])
    p.add_argument("--out", help="write the assembled transcript here (verifier roles)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", parents=[manifest], help="stream-verify a transcript file")
    p.add_argument("transcript")
    p.add_argument("--plan", help="plan JSON to pin the plan hash")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", parents=[manifest],
                       help="tape and transcript-file generation and verification "
                            "throughput and the case-1 projections")
    p.add_argument("--rounds", type=int, default=20000,
                   help="rounds in the generated honest n=128 file, planned from case1 "
                        "(even, or 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="also write machine-readable results here")
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_manifest_path(args)
        return args.func(args)
    except (PlannerError, SimulationError, StorageError, TransportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one test per criterion, one PASS line each.

Published-figure comparisons use a 5% relative tolerance; cells the source
rounded to one significant figure (the case-1 rate "5e5", the case-2 epsilon
"1e-12" and data "0.2") are compared after rounding the computed value to
the published precision, which is exactly the slack that rounding absorbs.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import json
import math
import random
import time
import tracemalloc

from relbc.cli import main as cli_main
from relbc.field import FieldSpec
from relbc.planner import (
    SECONDS_PER_DAY,
    SpacetimeConfig,
    compute_round_count,
    drift_budget,
    load_plan,
    min_separation,
    parse_config,
)
from relbc.protocol import RevealMessage, bob_verify, run_honest_protocol
from relbc.simnet import (
    AdversaryStrategy,
    no_signaling_audit,
    run_simulation,
)
from relbc.storage import (
    generate_honest_transcript_file,
    verify_file,
    write_transcript,
)
from relbc.transport import EXIT_ABORT, EXIT_ACCEPT, run_loopback_session

from helpers import (plan_grid, random_tapes, schoolbook_mul, small_plan, stall_committer,
                     tau_at)

DAY = SECONDS_PER_DAY
YEAR_DAYS = 365.0  # documented year convention (365.25 also accepted, see test 4)

S8 = FieldSpec(8)
S128 = FieldSpec(128)


def passline(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num:2d}: PASS - {text}")


def round_sig(value: float, figures: int) -> float:
    if value == 0:
        return 0.0
    exponent = math.floor(math.log10(abs(value)))
    return round(value, figures - 1 - exponent)


def matches_published(computed: float, published: float, sigfigs: int) -> bool:
    """Within 5% raw, or equal after rounding to the published precision."""
    if abs(computed - published) / abs(published) <= 0.05:
        return True
    return math.isclose(round_sig(computed, sigfigs), published, rel_tol=1e-9)


def _plan_via_cli(tmp_path, config: str, duration: str):
    out = tmp_path / f"{config}-{duration}.json"
    code = cli_main(["plan", config, "--duration", duration, "--out", str(out)])
    assert code == 0
    return load_plan(out)


def test_criterion_01_table_reproduction(tmp_path, capsys):
    """Four published rows: epsilon, data, rate; each within tolerance."""
    published = {
        # (config, duration): (eps, eps_sf, data_GB, data_sf, rate_Bps, rate_sf)
        ("case1", "24h"): (7.8e-10, 2, 162.0, 3, 5e5, 1),
        ("case1", "1y"): (2.8e-7, 2, 59362.0, 5, 5e5, 1),
        ("case2", "24h"): (1e-12, 1, 0.2, 1, 649.0, 3),
        ("case2", "1y"): (3.9e-10, 2, 81.0, 2, 649.0, 3),
    }
    t0 = time.perf_counter()
    plans = {key: _plan_via_cli(tmp_path, cfg, dur)
             for key, (cfg, dur) in zip(published, [(c, d) for c, d in published])}
    elapsed = time.perf_counter() - t0
    for (cfg, dur), (eps, eps_sf, data, data_sf, rate, rate_sf) in published.items():
        plan = plans[(cfg, dur)]
        assert matches_published(plan.epsilon_linear, eps, eps_sf), \
            (cfg, dur, "eps", plan.epsilon_linear, eps)
        assert matches_published(plan.bytes_total / 1e9, data, data_sf), \
            (cfg, dur, "data", plan.bytes_total / 1e9, data)
        assert matches_published(plan.rate_per_station, rate, rate_sf), \
            (cfg, dur, "rate", plan.rate_per_station, rate)
    assert elapsed < 1.0, f"planning took {elapsed:.3f} s"
    capsys.readouterr()  # swallow the CLI tables
    passline(1, f"all four published rows reproduced in {elapsed * 1000:.0f} ms")


def test_criterion_02_round_count():
    cfg = parse_config((__import__("importlib").resources.files("relbc")
                        .joinpath("configs/case1.cfg").read_text()))
    rounds = compute_round_count(cfg) + 1
    assert abs(rounds - 5e9) / 5e9 < 0.05
    passline(2, f"case-1 / 24 h needs {rounds:.4g} rounds (published 5e9)")


def test_criterion_03_min_separation():
    cfg = SpacetimeConfig(L=7000.0, l1=450.0, l2=450.0, tau1=3e-6, tau2=3e-6,
                          t_m=3.3e-6, T=DAY)
    sep = min_separation(cfg)
    assert abs(sep - 2800.0) <= 100.0
    passline(3, f"minimum separation {sep:.1f} m (published ~2.8 km)")


def test_criterion_04_drift_budgets():
    def two_sig_fig_match(value, published):
        ulp = 10.0 ** (math.floor(math.log10(published)) - 1)
        return abs(value - published) <= ulp

    day = drift_budget(1e-3, DAY)
    assert two_sig_fig_match(day, 1.2e-8), day
    year_values = []
    for days in (YEAR_DAYS, 365.25):
        year = drift_budget(1e-3, days * DAY)
        assert two_sig_fig_match(year, 3.1e-11), (days, year)
        year_values.append(year)
    passline(4, f"drift budgets {day:.3g} (pub 1.2e-8) and "
                f"{year_values[0]:.3g} (pub 3.1e-11, both year conventions)")


def test_criterion_05_field_correctness():
    t0 = time.perf_counter()
    mul8 = S8.mul
    for a in range(256):
        for b in range(256):
            assert mul8(a, b) == schoolbook_mul(a, b, 8, 0x1B)
    exhaustive_dt = time.perf_counter() - t0
    assert exhaustive_dt < 10.0

    rng = random.Random(2024)
    cases = 0
    t0 = time.perf_counter()
    while cases < 10_000:
        a, b, c = (S128.random_int(rng) for _ in range(3))
        ab = S128.mul(a, b)
        assert ab == S128.mul(b, a)
        assert S128.mul(ab, c) == S128.mul(a, S128.mul(b, c))
        assert S128.mul(a, b ^ c) == ab ^ S128.mul(a, c)
        assert S128.mul(a, 1) == a and S128.mul(a, 0) == 0 and a ^ 0 == a
        cases += 5
    axioms_dt = time.perf_counter() - t0
    passline(5, f"65536-pair oracle match in {exhaustive_dt:.2f} s; "
                f"{cases} axiom cases at n=128 in {axioms_dt:.2f} s")


def test_criterion_06_protocol_round_trip():
    plan = small_plan(10_000, n=128)
    runs = [(seed, bit) for seed in range(100) for bit in (0, 1)]
    assert len(runs) == 200
    t0 = time.perf_counter()
    for seed, bit in runs:
        transcript, report = run_simulation(plan, strategy=AdversaryStrategy(), seed=seed, bit=bit)
        verdict = bob_verify(transcript)
        assert not report.aborted, (seed, bit, report)
        assert verdict.accepted and verdict.bit == bit, (seed, bit, verdict)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    passline(6, f"200 honest runs (100 seeds x both bits, m=1e4, n=128) "
                f"verified in {elapsed:.1f} s")


def test_criterion_07_binding_tamper_suite():
    """Every tamper class flips the verdict on 100 seeded instances.

    Challenge tampering targets rounds k >= 2: those challenges multiply a
    secret in the forward chain a_k = x_k * a_{k-1} XOR y_k. x_1 multiplies
    a_0 = d, so a bit-0 commitment never reads it (y_1 = a_1): altering it
    to another nonzero value is undetectable in principle, not an
    implementation gap (x_1 = 0 is rejected as a zero challenge).
    """
    m = 12
    checked = {"reveal-bit": 0, "answer": 0, "challenge": 0, "final-secret": 0}
    for seed in range(100):
        secrets, challenges = random_tapes(S128, m, seed=seed)
        base = run_honest_protocol(S128, secrets, challenges, seed & 1)
        assert bob_verify(base).accepted

        rng = random.Random(10_000 + seed)
        k = rng.randrange(m)
        k_sustain = rng.randrange(1, m)  # 0-based index of a round >= 2
        bitpos = rng.randrange(128)

        t = run_honest_protocol(S128, secrets, challenges, seed & 1)
        t.reveal = RevealMessage(t.reveal.bit ^ 1, t.reveal.final_secret)
        assert not bob_verify(t).accepted
        checked["reveal-bit"] += 1

        t = run_honest_protocol(S128, secrets, challenges, seed & 1)
        t.rounds[k].answer ^= 1 << bitpos
        assert not bob_verify(t).accepted
        checked["answer"] += 1

        t = run_honest_protocol(S128, secrets, challenges, seed & 1)
        t.rounds[k_sustain].challenge ^= 1 << bitpos
        assert not bob_verify(t).accepted
        checked["challenge"] += 1

        t = run_honest_protocol(S128, secrets, challenges, seed & 1)
        t.reveal = RevealMessage(t.reveal.bit, t.reveal.final_secret ^ (1 << bitpos))
        assert not bob_verify(t).accepted
        checked["final-secret"] += 1
    assert all(v == 100 for v in checked.values())
    passline(7, "all 4 tamper classes rejected on 100 seeded n=128 instances each")


def test_criterion_08_timing_soundness():
    plans = plan_grid(20)
    for i, plan in enumerate(plans):
        honest_t, honest_rep = run_simulation(plan, seed=i, bit=i & 1)
        assert not honest_rep.aborted, ("false abort", plan.config)
        assert bob_verify(honest_t).accepted

        _, relay_rep = run_simulation(plan, strategy=AdversaryStrategy(kind="relay"),
                                      seed=i, bit=i & 1)
        assert relay_rep.aborted and relay_rep.abort_round == 2

        _, late_rep = run_simulation(
            plan, strategy=AdversaryStrategy(kind="late-decision", margin_ns=-1),
            seed=i, bit=i & 1)
        assert late_rep.aborted and late_rep.abort_round == 1
    passline(8, f"relay + past-deadline abort on all {len(plans)} plans; "
                f"zero false aborts")


def test_criterion_09_no_signaling_audit():
    plans = plan_grid(20)
    worst = None
    for i, plan in enumerate(plans):
        t, _ = run_simulation(plan, seed=100 + i, bit=i & 1)
        audit = no_signaling_audit(t, plan)
        assert audit.ok, audit.violations
        assert audit.worst_slack_ns >= plan.t_m_ns - 1
        rel = audit.worst_slack_ns / plan.t_m_ns
        worst = rel if worst is None else min(worst, rel)

    plan = plans[0]
    t, _ = run_simulation(plan, seed=7, bit=1)
    k_bad = 5
    rec = t.rounds[k_bad - 1]
    rec.answer_received_at = rec.challenge_issued_at + tau_at(t, rec.station) + 3
    audit = no_signaling_audit(t, plan)
    assert not audit.ok
    assert k_bad in audit.late_answer_rounds
    passline(9, f"honest audits pass with slack >= t_M (worst ratio {worst:.6f}); "
                f"injected late answer flagged at round {k_bad}")


def test_criterion_10_live_loopback(tmp_path, monkeypatch):
    # raw tau = 10 us and t_Q = 26 us become 10 ms / 26 ms at scale 1000:
    # roomy enough for four Python threads on a small host, ~2.6 s per run
    plan = small_plan(200, n=128, tau=10e-6, t_m=1e-6,
                      L=(26e-6 / 2 + 1e-6 + 10e-6) * 299792458.0)
    assert plan.m == 200

    results = run_loopback_session(plan, tmp_path / "ok", bit=1,
                                   scale_factor=1000, seed=42)
    for role in ("B1", "B2"):
        assert results[role].exit_code == EXIT_ACCEPT, results[role].abort
        assert results[role].verdict.accepted and results[role].verdict.bit == 1
        assert results[role].peer_agrees
    assert results["B1"].transcript_sha == results["B2"].transcript_sha
    out = tmp_path / "live.rbcx"
    write_transcript(results["B1"].transcript, out)
    verdict, _ = verify_file(out)
    assert verdict.accepted and verdict.bit == 1

    stall_committer(monkeypatch, station=1, k=7, seconds=0.1)
    delayed = run_loopback_session(plan, tmp_path / "delayed", bit=1,
                                   scale_factor=1000, seed=43)
    for role in ("B1", "B2"):
        assert delayed[role].exit_code == EXIT_ABORT
        assert delayed[role].abort.round_index == 7
    passline(10, "scale-1000 loopback (m=200): verifiers agree byte-for-byte; "
                 "the delayed committer aborts at round 7")


def test_criterion_11_scale_projection(tmp_path):
    spec = S128

    # constant-memory evidence: peak stays flat across an 8x file-size spread
    peaks = {}
    for m in (25_000, 200_000):
        rng = random.Random(m)
        path = tmp_path / f"t{m}.rbcx"
        generate_honest_transcript_file(
            path, spec, m,
            (spec.random_int(rng) for _ in range(m)),
            (spec.random_int(rng, nonzero=True) for _ in range(m)), 1)
        tracemalloc.start()
        verdict, _ = verify_file(path)
        _, peaks[m] = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert verdict.accepted
    assert peaks[200_000] < peaks[25_000] * 1.5 + 1_000_000, peaks

    # the full 10^6-round file, streamed
    m = 1_000_000
    rng = random.Random(m)
    big = tmp_path / "big.rbcx"
    t0 = time.perf_counter()
    generate_honest_transcript_file(
        big, spec, m,
        (spec.random_int(rng) for _ in range(m)),
        (spec.random_int(rng, nonzero=True) for _ in range(m)), 0)
    gen_dt = time.perf_counter() - t0
    verdict, stats = verify_file(big)
    assert verdict.accepted and verdict.bit == 0
    assert stats.rounds == m

    # the bench subcommand's own extrapolation (reported, never asserted
    # against any external wall-clock figure)
    bench_json = tmp_path / "bench.json"
    code = cli_main(["bench", "--rounds", "5000",
                     "--json", str(bench_json)])
    assert code == 0
    bench = json.loads(bench_json.read_text())
    projected_h = bench["case1_verify_hours_projected"]
    assert math.isfinite(projected_h) and projected_h > 0

    passline(11, f"10^6-round file: generated in {gen_dt:.1f} s, verified at "
                 f"{stats.rounds_per_second:,.0f} rounds/s in constant memory "
                 f"(peaks {peaks[25_000]//1024} KiB -> {peaks[200_000]//1024} KiB); "
                 f"bench projects case-1 verification at {projected_h:,.1f} h "
                 f"(reported, not asserted)")

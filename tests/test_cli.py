"""Command-line surface: subcommands, exit codes, manifests."""

import errno
import hashlib
import json
import os
import re
import socket

import pytest

from relbc import cli
from relbc.cli import CASE1_ROUNDS, main
from relbc.field import FieldSpec
from relbc.planner import PlannerError, load_plan, save_plan
from relbc.protocol import Verdict, run_honest_protocol
from relbc.storage import (
    TapeReader,
    VerifyStats,
    generate_tape,
    read_transcript,
    transcript_to_bytes,
    verify_file,
    write_transcript,
)

from helpers import random_tapes, small_plan, with_header_field


@pytest.fixture()
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlan:
    def test_case1_builtin(self, in_tmp, capsys):
        code, out, _ = run_cli(capsys, "plan", "case1", "--out", "plan.json")
        assert code == 0
        assert "case1" in out and "epsilon" in out
        assert re.search(r"min separation.*2\.78", out)
        data = json.loads((in_tmp / "plan.json").read_text())
        assert data["m"] > 5e9 - 1e9
        manifest = json.loads((in_tmp / "plan.json.manifest.json").read_text())
        assert manifest["subcommand"] == "plan"
        assert manifest["plan_hash"] == data["plan_hash"]

    def test_duration_override(self, in_tmp, capsys):
        code, out, _ = run_cli(capsys, "plan", "case2", "--duration", "1y")
        assert code == 0

    def test_infeasible_named_guard(self, in_tmp, capsys):
        cfg = in_tmp / "bad.cfg"
        cfg.write_text("L = 100\nl1 = 70\nl2 = 70\ntau1 = 1us\ntau2 = 1us\n"
                       "t_m = 1us\nT = 1h\n")
        code, out, err = run_cli(capsys, "plan", str(cfg))
        assert code == 1
        assert "l1 + l2" in err

    def test_missing_config(self, in_tmp, capsys):
        code, _, err = run_cli(capsys, "plan", "nope.cfg")
        assert code == 1 and "no such file" in err

    @pytest.mark.parametrize("line", ["l1 = abc", "n = x"])
    def test_non_numeric_config_value_exit_1(self, in_tmp, capsys, line):
        cfg = in_tmp / "bad.cfg"
        cfg.write_text("L = 7000\nl1 = 450\nl2 = 450\ntau1 = 3us\ntau2 = 3us\n"
                       f"t_m = 3.3us\nT = 1s\n{line}\n")
        code, _, err = run_cli(capsys, "plan", str(cfg))
        assert code == 1
        assert err.startswith("error:") and "line 8" in err

    def test_width_without_polynomial_exit_1(self, in_tmp, capsys):
        """n = 24 names no field, so no plan is written for it."""
        cfg = in_tmp / "n24.cfg"
        cfg.write_text("L = 7000\nl1 = 450\nl2 = 450\ntau1 = 3us\ntau2 = 3us\n"
                       "t_m = 3.3us\nT = 1s\nn = 24\n")
        code, _, err = run_cli(capsys, "plan", str(cfg), "--out", "plan.json")
        assert code == 1
        assert err.startswith("error:") and "n = 24" in err
        assert not (in_tmp / "plan.json").exists()

    @pytest.mark.parametrize("case", ["duration-1e400", "config-nan", "plan-n-float"])
    def test_value_not_finite_or_width_not_int_exit_1(self, in_tmp, capsys, case):
        """An infinite duration, a NaN in a config file and a width of 8.0 in
        a hashless plan file are refused as plan errors, with no traceback."""
        if case == "duration-1e400":
            argv, named = ["plan", "case1", "--duration", "1e400"], "T = inf"
        elif case == "config-nan":
            (in_tmp / "nan.cfg").write_text("L = nan\nl1 = 450\nl2 = 450\ntau1 = 3us\n"
                                            "tau2 = 3us\nt_m = 3.3us\nT = 1s\n")
            argv, named = ["plan", "nan.cfg"], "L = nan"
        else:
            data = json.loads(small_plan(20).to_json())
            del data["plan_hash"]
            (in_tmp / "plan.json").write_text(json.dumps({**data, "n": 8.0}))
            argv, named = ["simulate", "--plan", "plan.json", "--out", "t.rbcx"], "n = 8.0"
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and named in err
        assert not (in_tmp / "t.rbcx").exists()


# Exit code and sha256 of the transcript and of the .audit.json that
# `relbc simulate --n 128` writes at round counts on either side of the
# 256-round answer block and inside its fifth block, for every strategy;
# late-decision makes its run's last round late by 1 ns. The audit file
# carries the simulator's report, its event count included.
BLOCK_EDGE_PINS = {
    (254, "honest"): (0,
        "f4edc0241767ca3040d5d3ac387723e8bec8b7767e8c2eb7e677d88b5556b4fd",
        "24707e0d40ebdac9ba86dc657f21ff4782e36824efbdd1ef78afbc9b996d9380"),
    (254, "late-decision"): (2,
        "2da9178bff1b4a4907dcbc590e7ab820667894a986720b5888a4faf5e6c0d930",
        "4f84367fc2b8b6f3a62442b0a0a1419b68a48dd4b43f586a29b21c7cb4cbfcce"),
    (254, "relay"): (2,
        "4bcd8cc81ef227d750ef350ac06223956694bec9d938b2062e21c840eb674165",
        "78438b73371f60581c97b80870e30e599ecb8a741bbfaf51a6f21951f894541c"),
    (254, "wrong-bit-reveal"): (3,
        "208d95c1a603e62a6a340d8ce747279f1017ac6733ae3d71f0ee4574280e6aad",
        "088f4e162417ba39980d5cba0c43b487e406e7a9290b04bd39e070ecb8b53e7a"),
    (254, "placement-cheat"): (2,
        "4bdb713f1d2a03dbfa84c33f78da2c823e15e908179506ce5358e31edcc6908d",
        "c8a28435f69fda5313255b2325bc3a06e0c7ad6408c43e043018b8412930a96a"),
    (256, "honest"): (0,
        "4a717071498548827f43b87b63dca039df98501f166658afaffe67087146b1f8",
        "d068b1b64fcd2a7cfe71c47256d02eaf6a3cced178fb275a2f9116bd151badfa"),
    (256, "late-decision"): (2,
        "7d2bf847ef730a6c74f11842cc947f1ddad36f39ea76bd0f29995ebaa5de60e2",
        "f6ac654196a9fd8853e68380eff5262a2f48b432c728d0d2a5face40d0a80ce4"),
    (256, "relay"): (2,
        "5ce2b66142b9a4ad70f2a828da9b7f46558f3bfb81f0be5839fd553ba91dca57",
        "78438b73371f60581c97b80870e30e599ecb8a741bbfaf51a6f21951f894541c"),
    (256, "wrong-bit-reveal"): (3,
        "fdcd5d2773ffaf595b29668d3eebd3021de693af6c55e43d9a62a70d020b5c74",
        "0a8106e58d23671cb3ce3fd1fad34f7f9de8093e797ba6f56388092ee59fbe41"),
    (256, "placement-cheat"): (2,
        "51060f3db6542802cb0ef79ccad11f293c1e0572e30012f7af003aba19c0c2ef",
        "c8a28435f69fda5313255b2325bc3a06e0c7ad6408c43e043018b8412930a96a"),
    (258, "honest"): (0,
        "393699397aa9839c9bc9a12e701c46f5f24be9519730036ad31db0e3a31cbc56",
        "2bad219aa9c16d4befce69950f94224c27f1ceabf657951d82905e4b4a9a1e47"),
    (258, "late-decision"): (2,
        "9d076457a7adc5be328ad63f07eedafceebbba4efe8dd26def97e6c900d88535",
        "0936cf21f04deb82681fd253fdfd954f587f030adf1e5cd57506fceb793740e6"),
    (258, "relay"): (2,
        "256c2a1da847d228a1040c5164c5bda3987ee8d075a663283c996b8bed51522f",
        "78438b73371f60581c97b80870e30e599ecb8a741bbfaf51a6f21951f894541c"),
    (258, "wrong-bit-reveal"): (3,
        "d6f436f9f27a93e9181088048c187a3809c2aa724c9018dae770df9b3a7a98ef",
        "0dd78f6339f21a3bff53a29aa0fe15dc245f342162a8cf5f53cf9a87f1dc14c3"),
    (258, "placement-cheat"): (2,
        "75e74c912b8e260ab3b8dd075f0e36f47de291f317e996028fa2a6e95c0300d6",
        "c8a28435f69fda5313255b2325bc3a06e0c7ad6408c43e043018b8412930a96a"),
    (1030, "honest"): (0,
        "d25217663f69edf1a1a5927adc6ed40d0af7f135802cc22cbea6cf288908c6f4",
        "d6d316c11120ce963f3eeb2c556c46f0d8d957fbfb0fd64ed4172ef9af7f544c"),
    (1030, "late-decision"): (2,
        "c5f4ca46cdc6ab5375773da93d74af5ff99b630b5d2cc0c700d5e48bad17fa6d",
        "18632302c05e3b7b59952f4ed885739df3a17f92f8bca57683a27e568b4595b0"),
    (1030, "relay"): (2,
        "50ac62a457880b1b3a6b0a3994ed28244af48b3b95f2e990364cec1539da194b",
        "78438b73371f60581c97b80870e30e599ecb8a741bbfaf51a6f21951f894541c"),
    (1030, "wrong-bit-reveal"): (3,
        "d9c07cd3c8643efd79d5d4309f0592ef31562a0d591eb0e503a9ac021d186103",
        "fcbeb8a5982fabd233424fdc21a6d8dc300643ec95ee5c3ca521d2814fdad3e7"),
    (1030, "placement-cheat"): (2,
        "8a45746e8fe56cfd55eb558f8c8789b54fd3bee3c2e6d23d4a1044c5d0c245fa",
        "c8a28435f69fda5313255b2325bc3a06e0c7ad6408c43e043018b8412930a96a"),
}


class TestPinnedOutputs:
    """Plan hashes and a simulate transcript pinned byte for byte: every
    agent checks the plan by its hash, so the way arguments become a plan
    must not move them."""

    @pytest.mark.parametrize("argv, plan_hash", [
        (["case1"], "f02c86b79d2944c8699569e721393dddfaf4d1d9d7a889e90f0ffd5d099cf1d2"),
        (["case1", "--duration", "10ms"],
         "604fde270b00dd44f0524d75241e661fee40620e896bf29e5dfafed9e6c1dbdc"),
        (["case2", "--duration", "1y", "--year-days", "365.25"],
         "49486f66d36e5857f2f3a30defe2505826fcb35610cfd272a7b82cc0c2766b44"),
    ], ids=["case1", "case1-10ms", "case2-1y-365.25"])
    def test_plan_hash(self, in_tmp, capsys, argv, plan_hash):
        code, _, _ = run_cli(capsys, "plan", *argv, "--out", "plan.json")
        assert code == 0
        assert json.loads((in_tmp / "plan.json").read_text())["plan_hash"] == plan_hash

    def test_config_year_follows_year_days(self, in_tmp, capsys):
        """A config file's own `T = 1y` is read in `--year-days` years, so
        it plans what `--duration 1y` plans on that geometry."""
        case2 = (cli._builtin_config("case2") or "").replace("T = 24h", "T = 1y")
        assert "T = 1y" in case2
        (in_tmp / "y.cfg").write_text(case2)
        code, _, _ = run_cli(capsys, "plan", "y.cfg", "--year-days", "365.25",
                             "--out", "plan.json")
        assert code == 0
        plan = json.loads((in_tmp / "plan.json").read_text())
        assert plan["config"]["T"] == 31_557_600
        assert plan["plan_hash"] == \
            "49486f66d36e5857f2f3a30defe2505826fcb35610cfd272a7b82cc0c2766b44"

    def test_simulate_transcript(self, in_tmp, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--rounds", "200", "--n", "8",
                               "--seed", "3", "--bit", "1", "--out", "t.rbcx")
        assert code == 0 and "ACCEPT bit=1" in out.splitlines()
        assert hashlib.sha256((in_tmp / "t.rbcx").read_bytes()).hexdigest() == \
            "3c99dc793e9b8adc93968d84c74eff413d7d07b90364c49615fca3dd37654d1d"

    @pytest.mark.parametrize("rounds, strategy", list(BLOCK_EDGE_PINS),
                             ids=lambda v: str(v))
    def test_simulate_at_answer_block_edges(self, in_tmp, capsys, rounds, strategy):
        late = (["--target-round", str(rounds), "--margin-ns", "-1"]
                if strategy == "late-decision" else [])
        code, _, _ = run_cli(capsys, "simulate", "--n", "128", "--rounds", str(rounds),
                             "--strategy", strategy, *late, "--out", "t.rbcx")
        digests = [hashlib.sha256((in_tmp / name).read_bytes()).hexdigest()
                   for name in ("t.rbcx", "t.audit.json")]
        assert (code, *digests) == BLOCK_EDGE_PINS[rounds, strategy]


class TestTape:
    def test_generate_and_read(self, in_tmp, capsys):
        plan = small_plan(24, n=128)
        save_plan(plan, in_tmp / "plan.json")
        code, out, _ = run_cli(capsys, "tape", "--plan", "plan.json",
                               "--role", "alice-secrets", "--out", "a.tape",
                               "--seed", "5")
        assert code == 0 and "24 elements" in out
        with TapeReader(in_tmp / "a.tape") as r:
            assert r.count == 24 and r.seed == 5

    @pytest.mark.parametrize("seed", ["18446744073709551621", "-3"])
    def test_seed_a_header_cannot_record_exit_1(self, in_tmp, capsys, seed):
        """2^64 + 5 and -3 would be recorded as seeds that draw another
        tape, so no tape and no manifest is written."""
        save_plan(small_plan(24, n=128), in_tmp / "plan.json")
        code, _, err = run_cli(capsys, "tape", "--plan", "plan.json",
                               "--role", "alice-secrets", "--out", "a.tape",
                               "--seed", seed, "--manifest", "m.json")
        assert code == 1 and err.startswith("error:") and f"tape seed {seed}" in err
        assert not (in_tmp / "a.tape").exists() and not (in_tmp / "m.json").exists()


class TestRun:
    def test_plan_below_two_rounds_exit_1(self, in_tmp, capsys):
        """At m=1 the revealing committer has no round to time the reveal
        from, so a live role refuses the plan before it listens."""
        save_plan(small_plan(1, n=128), in_tmp / "plan.json")
        code, _, err = run_cli(capsys, "run", "--role", "B1", "--plan", "plan.json",
                               "--challenges", "x.tape", "--listen", "127.0.0.1:0")
        assert code == 1
        assert err.startswith("error:") and "m >= 2" in err

    def test_plan_too_long_for_one_records_frame_exit_1(self, in_tmp, capsys):
        """Case 1 over 11 s is about 645,000 rounds at n=128: each verifier's
        half would overflow one 16 MiB RECORDS frame, so a live role refuses
        the plan before it listens."""
        assert run_cli(capsys, "plan", "case1", "--duration", "11s", "--out", "plan.json")[0] == 0
        code, _, err = run_cli(capsys, "run", "--role", "B1", "--plan", "plan.json",
                               "--challenges", "x.tape", "--listen", "127.0.0.1:0")
        assert code == 1
        assert err.startswith("error:") and "16777216-byte frame limit" in err

    @pytest.mark.parametrize("role, tape_flag, other", [
        ("B1", "--challenges", "alice-secrets"),
        ("A1", "--secrets", "bob-challenges"),
    ])
    def test_tape_of_the_other_role_exit_1(self, in_tmp, capsys, role, tape_flag, other):
        """A verifier given the secrets tape would issue the committer's
        secrets as challenges; each role refuses a tape made for the other
        before it listens or connects."""
        save_plan(small_plan(8, n=128), in_tmp / "plan.json")
        assert run_cli(capsys, "tape", "--plan", "plan.json", "--role", other,
                       "--out", "t.tape")[0] == 0
        code, _, err = run_cli(capsys, "run", "--role", role, "--plan", "plan.json",
                               tape_flag, "t.tape", "--listen", "127.0.0.1:0",
                               "--peer", "B1=127.0.0.1:1")
        assert code == 1
        assert err.startswith("error:") and f"{other} tape" in err

    def test_listen_address_in_use_exit_1(self, in_tmp, capsys):
        """A verifier whose listen port is taken says so and exits 1; its
        tape is loaded, and checked, before it listens."""
        save_plan(small_plan(8, n=128), in_tmp / "plan.json")
        assert run_cli(capsys, "tape", "--plan", "plan.json", "--role", "bob-challenges",
                       "--out", "x.tape", "--seed", "1")[0] == 0
        with socket.create_server(("127.0.0.1", 0)) as taken:
            port = taken.getsockname()[1]
            code, _, err = run_cli(capsys, "run", "--role", "B1", "--plan", "plan.json",
                                   "--challenges", "x.tape", "--listen", f"127.0.0.1:{port}")
        assert code == 1
        assert err.startswith(f"error: B1 cannot listen on 127.0.0.1:{port}")

    @pytest.mark.parametrize("flag, value", [
        ("--peer", "B1=nohost"), ("--peer", "B1"), ("--listen", "127.0.0.1:99999")])
    def test_bad_address_exit_1(self, in_tmp, capsys, flag, value):
        save_plan(small_plan(8, n=128), in_tmp / "plan.json")
        code, _, err = run_cli(capsys, "run", "--role", "B2", "--plan", "plan.json",
                               "--challenges", "x.tape", flag, value)
        assert code == 1
        assert err.startswith(f"error: {flag} {value!r}")


class TestSimulateAndVerify:
    @pytest.mark.parametrize("argv, match", [
        pytest.param(["--rounds", "0"], None, id="--rounds"),
        pytest.param(["--n", "0"], None, id="--n"),
        pytest.param(["--rounds", "7"], "rounds m down to even", id="--rounds-odd"),
        pytest.param(["--plan", "p.json", "--rounds", "20", "--n", "8"],
                     "drop --rounds, --n", id="--plan-with-overrides"),
        pytest.param(["--plan", "p.json", "--config", "case2"], "drop --config",
                     id="--plan-with-config"),
        pytest.param(["--plan", "p.json", "--year-days", "365.25"], "drop --year-days",
                     id="--plan-with-year-days")])
    def test_zero_override_reaches_planner(self, argv, match):
        """A 0 is an override, not an unset flag: the planner refuses it
        rather than plan case-1's 24 h run. An odd --rounds above 1 is
        refused too, rather than planned as one round fewer, and so is any
        planning flag beside --plan, rather than ignored."""
        args = cli.build_parser().parse_args(["simulate", *argv, "--out", "t.rbcx"])
        with pytest.raises(PlannerError, match=match):
            cli._plan_for_args(args)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--strategy", "bogus"], ["simulate", "--rounds", "x"],
        ["verify"], ["nosuch"], []], ids=lambda argv: "-".join(argv) or "none")
    def test_usage_error_exit_1(self, capsys, argv):
        """argparse's usage errors exit 1, not 2, the code of a protocol abort."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["0", "201"])
    def test_late_decision_target_outside_the_run_exit_1(self, in_tmp, capsys, target):
        """A late-decision target that names no round of the run is a usage
        error, not an honest session, and leaves no file behind."""
        code, _, err = run_cli(capsys, "simulate", "--rounds", "200", "--n", "8",
                               "--strategy", "late-decision", "--target-round", target,
                               "--out", "t.rbcx")
        assert code == 1
        assert err.startswith(f"error: late-decision target round {target} is outside 1..200")
        assert list(in_tmp.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["simulate", "--help"]],
                             ids="-".join)
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0

    @pytest.mark.parametrize("width, n, poly", [(16, 12, 0x9), (128, 128, 0x85)],
                             ids=["n12", "n128-0x85"])
    def test_verify_field_outside_table_exit_1(self, in_tmp, capsys, width, n, poly):
        spec = FieldSpec(width)
        data = transcript_to_bytes(
            run_honest_protocol(spec, *random_tapes(spec, 4, seed=1), 1))
        (in_tmp / "t.rbcx").write_bytes(with_header_field(data, 38, n, poly))
        code, out, err = run_cli(capsys, "verify", "t.rbcx")
        assert code == 1 and "ACCEPT" not in out
        assert err.startswith("error:") and "bad field" in err

    def test_honest_then_verify(self, in_tmp, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--strategy", "honest",
                               "--rounds", "1000", "--n", "8", "--seed", "3",
                               "--bit", "1", "--out", "t.rbcx")
        assert code == 0
        assert "complete: 1000 rounds" in out and "ACCEPT bit=1" in out
        code, out, _ = run_cli(capsys, "verify", "t.rbcx")
        assert code == 0 and "ACCEPT bit=1" in out
        audit = json.loads((in_tmp / "t.audit.json").read_text())
        assert audit["ok"] and audit["pairs_checked"] == 1000

    def test_verdict_is_verify_files_on_the_written_file(self, in_tmp, capsys,
                                                          monkeypatch):
        """The printed verdict is the one `relbc verify OUT --plan` would give:
        `verify_file` on the file simulate wrote, under the plan it ran."""
        seen = []

        def spy(path, plan=None):
            verdict, stats = verify_file(path, plan)
            seen.append((path, plan, verdict))
            return verdict, stats

        monkeypatch.setattr(cli, "verify_file", spy)
        code, out, _ = run_cli(capsys, "simulate", "--rounds", "20", "--n", "8",
                               "--bit", "1", "--out", "t.rbcx")
        assert code == 0 and "ACCEPT bit=1" in out
        [(path, plan, verdict)] = seen
        assert str(path) == "t.rbcx"
        assert plan.m == 20 and plan.n == 8
        assert verdict.accepted and verdict.bit == 1

    def test_relay_aborts_with_exit_2(self, in_tmp, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--strategy", "relay",
                               "--rounds", "50", "--n", "8", "--out", "r.rbcx")
        assert code == 2
        assert "ABORT at round 2" in out

    def test_relay_file_verifies_no_round(self, in_tmp, capsys):
        """The relay run's file records its abort, so `relbc verify` rejects
        it without reading a round record, and reports none read."""
        code, _, _ = run_cli(capsys, "simulate", "--strategy", "relay",
                             "--rounds", "2000", "--n", "8", "--out", "r.rbcx")
        assert code == 2
        verdict, stats = verify_file("r.rbcx")
        assert verdict.reason == "aborted-transcript" and stats.rounds == 0
        code, out, _ = run_cli(capsys, "verify", "r.rbcx")
        assert code == 3 and "REJECT: aborted-transcript" in out
        assert "rounds: 0 " in out

    def test_wrong_bit_reveal_rejects_with_exit_3(self, in_tmp, capsys):
        """The run completes, so the abort exit does not apply; the verifier
        rejects the flipped bit."""
        code, out, _ = run_cli(capsys, "simulate", "--strategy", "wrong-bit-reveal",
                               "--rounds", "50", "--n", "8", "--out", "w.rbcx")
        assert code == 3
        assert "complete: 50 rounds" in out and "REJECT: bit-mismatch" in out
        code, out, _ = run_cli(capsys, "verify", "w.rbcx")
        assert code == 3 and "REJECT: bit-mismatch" in out

    def test_verify_tampered_exit_3(self, in_tmp, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--rounds", "40", "--n", "8",
                             "--out", "t.rbcx")
        assert code == 0
        t = read_transcript(in_tmp / "t.rbcx")
        t.rounds[10].answer ^= 1
        write_transcript(t, in_tmp / "bad.rbcx")
        code, out, _ = run_cli(capsys, "verify", "bad.rbcx")
        assert code == 3 and "REJECT" in out

    def test_verify_corrupt_width_exit_1(self, in_tmp, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--rounds", "20", "--n", "8",
                             "--out", "t.rbcx")
        assert code == 0
        data = bytearray((in_tmp / "t.rbcx").read_bytes())
        data[38:42] = (129).to_bytes(4, "big")  # the header's bit width
        (in_tmp / "bad.rbcx").write_bytes(bytes(data))
        code, _, err = run_cli(capsys, "verify", "bad.rbcx")
        assert code == 1 and err.startswith("error:")

    def test_verify_time_scale_other_than_one_exit_1(self, in_tmp, capsys):
        """An honest file whose header's time scale says 1000 is refused: a
        rehearsal carries its own plan, and the field is always 1."""
        code, _, _ = run_cli(capsys, "simulate", "--rounds", "20", "--n", "8",
                             "--out", "t.rbcx")
        assert code == 0
        data = bytearray((in_tmp / "t.rbcx").read_bytes())
        data[61:65] = (1000).to_bytes(4, "big")  # after the n=8 polynomial, m and count
        (in_tmp / "scaled.rbcx").write_bytes(bytes(data))
        code, out, err = run_cli(capsys, "verify", "scaled.rbcx")
        assert code == 1 and "ACCEPT" not in out
        assert err.startswith("error:") and "time scale is 1000" in err

    @pytest.mark.parametrize("text, message", [
        ("not json", "holds no plan"),
        ('{"m": 4}', "holds no plan"),
        ("[1, 2]", "holds no plan"),
        (None, "hash mismatch"),
    ], ids=["not-json", "no-config", "list", "numeric-hash"])
    def test_verify_bad_plan_file_exit_1(self, in_tmp, capsys, text, message):
        code, _, _ = run_cli(capsys, "simulate", "--rounds", "20", "--n", "8",
                             "--out", "t.rbcx")
        assert code == 0
        if text is None:  # a whole plan whose stored hash is a number
            text = json.dumps({**json.loads(small_plan(20).to_json()), "plan_hash": 5})
        (in_tmp / "bad.json").write_text(text)
        code, _, err = run_cli(capsys, "verify", "t.rbcx", "--plan", "bad.json")
        assert code == 1
        assert err.startswith("error:") and message in err

    def test_verify_hashless_file_under_plan_exit_1(self, in_tmp, capsys):
        """A file with no plan hash does not show which plan it ran under, so
        `--plan` refuses it."""
        spec = FieldSpec(8)
        write_transcript(run_honest_protocol(spec, *random_tapes(spec, 20, seed=1), 1),
                         in_tmp / "t.rbcx")
        save_plan(small_plan(20), in_tmp / "plan.json")
        code, out, _ = run_cli(capsys, "verify", "t.rbcx")
        assert code == 0 and "ACCEPT bit=1" in out
        code, out, err = run_cli(capsys, "verify", "t.rbcx", "--plan", "plan.json")
        assert code == 1 and "ACCEPT" not in out
        assert "plan mismatch" in err and "(none)" in err

    def test_verify_manifest_records_plan_hash(self, in_tmp, capsys):
        plan = small_plan(20, n=8)
        save_plan(plan, in_tmp / "plan.json")
        code, _, _ = run_cli(capsys, "simulate", "--plan", "plan.json", "--out", "t.rbcx")
        assert code == 0
        code, out, _ = run_cli(capsys, "verify", "t.rbcx", "--plan", "plan.json",
                               "--manifest", "v.json")
        assert code == 0 and "ACCEPT" in out
        manifest = json.loads((in_tmp / "v.json").read_text())
        assert manifest["subcommand"] == "verify"
        assert manifest["plan_hash"] == plan.plan_hash

    def test_simulate_is_reproducible(self, in_tmp, capsys):
        run_cli(capsys, "simulate", "--rounds", "20", "--n", "8", "--seed", "9",
                "--out", "a.rbcx")
        run_cli(capsys, "simulate", "--rounds", "20", "--n", "8", "--seed", "9",
                "--out", "b.rbcx")
        assert (in_tmp / "a.rbcx").read_bytes() == (in_tmp / "b.rbcx").read_bytes()

    def test_manifest_records_seed(self, in_tmp, capsys):
        run_cli(capsys, "simulate", "--rounds", "20", "--n", "8", "--seed", "77",
                "--out", "t.rbcx")
        manifest = json.loads((in_tmp / "t.rbcx.manifest.json").read_text())
        assert manifest["seeds"] == [77]
        assert manifest["outputs"] == ["t.rbcx", str(in_tmp / "t.audit.json")] or \
            manifest["outputs"][0] == "t.rbcx"


class TestInputsRefusedWithoutTraceback:
    """A count, a path or a file the commands cannot use ends in one `error:`
    line and exit 1, and nothing is written: no output file, no manifest."""

    @staticmethod
    def run_refused(in_tmp, capsys, *argv) -> str:
        before = sorted(in_tmp.rglob("*"))
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert sorted(in_tmp.rglob("*")) == before
        return err

    def test_rounds_too_large_for_a_float(self, in_tmp, capsys):
        err = self.run_refused(in_tmp, capsys, "simulate", "--rounds", "1" + "0" * 400,
                               "--n", "8")
        assert "--rounds" in err

    @pytest.mark.parametrize("n, rounds", [(8, 2_000_000_000), (128, 16_777_216)])
    def test_rounds_beyond_one_tape_draw(self, in_tmp, capsys, n, rounds):
        """The simulator draws each tape with one `randbytes` call; a round
        count past the most that call draws is refused before any draw."""
        err = self.run_refused(in_tmp, capsys, "simulate", "--rounds", str(rounds),
                               "--n", str(n), "--out", "t.rbcx")
        assert f"{rounds} rounds" in err and f"at n={n}" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "d"],
        ["tape", "--plan", "plan.json", "--role", "alice-secrets", "--out", "d"],
        ["simulate", "--rounds", "20", "--n", "8", "--out", "d"],
        ["plan", "case1", "--out", "d"],
    ], ids=["verify", "tape", "simulate", "plan"])
    def test_directory_given_as_a_file(self, in_tmp, capsys, argv):
        save_plan(small_plan(24, n=128), in_tmp / "plan.json")
        (in_tmp / "d").mkdir()
        err = self.run_refused(in_tmp, capsys, *argv)
        assert os.strerror(errno.EISDIR) in err

    @pytest.mark.parametrize("manifest, why", [("d", "is a directory"),
                                               ("missing/m.json", "no directory missing")],
                             ids=["directory", "missing-directory"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--rounds", "20", "--n", "8", "--out", "t.rbcx"],
        ["verify", "h.rbcx"],
    ], ids=["simulate", "verify"])
    def test_unwritable_manifest(self, in_tmp, capsys, argv, manifest, why):
        """A `--manifest` path that cannot be written is refused before the
        command runs: no verdict is printed and no transcript, audit or
        manifest is written."""
        spec = FieldSpec(8)
        write_transcript(run_honest_protocol(spec, *random_tapes(spec, 4, seed=1), 1),
                         in_tmp / "h.rbcx")
        (in_tmp / "d").mkdir()
        before = sorted(in_tmp.rglob("*"))
        code, out, err = run_cli(capsys, *argv, "--manifest", manifest)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: --manifest {manifest}: {why}") and "Traceback" not in err
        assert sorted(in_tmp.rglob("*")) == before

    def test_config_that_is_not_text(self, in_tmp, capsys):
        """A transcript file named as a config is refused, by name."""
        spec = FieldSpec(8)
        write_transcript(run_honest_protocol(spec, *random_tapes(spec, 4, seed=1), 1),
                         in_tmp / "h.rbcx")
        err = self.run_refused(in_tmp, capsys, "plan", "h.rbcx")
        assert "config file h.rbcx is not UTF-8 text" in err


class TestBench:
    def test_smoke(self, in_tmp, capsys):
        code, out, _ = run_cli(capsys, "bench", "--rounds", "500", "--json", "bench.json")
        assert code == 0
        assert "projected case-1 verification" in out
        assert "transcript-file generation" in out
        assert "tape generation" in out and "projected case-1 tapes" in out
        data = json.loads((in_tmp / "bench.json").read_text())
        assert set(data) == {"tape_elements_per_s", "gen_rounds_per_s", "verify_rounds_per_s",
                             "case1_rounds", "case1_tapes_hours_projected",
                             "case1_verify_hours_projected"}
        assert data["tape_elements_per_s"] > 0
        assert data["gen_rounds_per_s"] > 0 and data["verify_rounds_per_s"] > 0
        assert data["case1_verify_hours_projected"] == pytest.approx(
            data["case1_rounds"] / data["verify_rounds_per_s"] / 3600)
        assert data["case1_tapes_hours_projected"] == pytest.approx(
            2 * data["case1_rounds"] / data["tape_elements_per_s"] / 3600)
        manifest = json.loads((in_tmp / "bench.json.manifest.json").read_text())
        assert manifest["seeds"] == [0]

    def test_rate_is_verify_files(self, in_tmp, capsys, monkeypatch):
        """The reported rate is the one `verify_file` measures on the
        generated file, which an honest verdict accepts."""
        seen = []

        def spy(path, plan=None):
            verdict, stats = verify_file(path, plan)
            seen.append((verdict, stats))
            return verdict, stats

        monkeypatch.setattr(cli, "verify_file", spy)
        code, _, _ = run_cli(capsys, "bench", "--rounds", "300", "--json", "bench.json")
        assert code == 0
        [(verdict, stats)] = seen
        assert verdict.accepted and stats.rounds == 300
        data = json.loads((in_tmp / "bench.json").read_text())
        assert data["verify_rounds_per_s"] == stats.rounds_per_second

    def test_tapes_are_made_as_relbc_tape_makes_them(self, in_tmp, capsys, monkeypatch):
        """Case 1 planned at --rounds, one tape per role, seeded S and S + 1
        as a loopback session seeds them."""
        made = []

        def spy(plan, role, path, seed=None):
            made.append((plan.m, plan.n, role, seed))
            return generate_tape(plan, role, path, seed=seed)

        monkeypatch.setattr(cli, "generate_tape", spy)
        code, _, _ = run_cli(capsys, "bench", "--rounds", "10", "--seed", "4")
        assert code == 0
        assert made == [(10, 128, "alice-secrets", 4), (10, 128, "bob-challenges", 5)]

    def test_reject_exits_3(self, in_tmp, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_file",
                            lambda path, plan=None: (Verdict.reject("bit-mismatch"),
                                                     VerifyStats(10, 1.0)))
        code, _, err = run_cli(capsys, "bench", "--rounds", "10")
        assert code == 3 and "rejected" in err

    def test_zero_rounds_exit_1(self, in_tmp, capsys):
        code, _, err = run_cli(capsys, "bench", "--rounds", "0")
        assert code == 1 and err.startswith("error:")

    def test_odd_rounds_exit_1(self, in_tmp, capsys):
        """The bench plans case 1 at --rounds, as simulate does, so an odd
        count above 1 is refused rather than run as one round fewer."""
        code, out, err = run_cli(capsys, "bench", "--rounds", "7")
        assert code == 1 and "transcript-file" not in out
        assert err.startswith("error:") and "rounds m down to even" in err

    def test_projects_from_case1_plan(self, in_tmp, capsys):
        run_cli(capsys, "plan", "case1", "--out", "plan.json")
        m = load_plan(in_tmp / "plan.json").m
        code, _, _ = run_cli(capsys, "bench", "--rounds", "100", "--json", "bench.json")
        assert code == 0
        assert json.loads((in_tmp / "bench.json").read_text())["case1_rounds"] == m
        assert CASE1_ROUNDS == m

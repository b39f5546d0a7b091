"""Closed-form planning: inter-round interval, round count, cheating bounds,
data/rate budgets, minimum station separation, and clock-drift budgets.

Geometry convention (1-D axis): the verifier stations B1, B2 sit L meters
apart; the committer may place A_i up to l_i meters from B_i and must answer
within tau_i seconds of a round start; t_M is the safety margin. With
t_L = L/c, the interval between consecutive rounds at the same station is

    t_Q = (2/c) * (L - (l1 + l2)) - 2 * t_M

and a commitment of duration T needs m + 1 = 2T / t_Q rounds. A classically
cheating committer succeeds with probability at most

    eps_linear      = m * 2^((3 - n) / 2)        (linear-in-rounds bound)
    eps_exponential = 2^(-n / 2^(m - 1))         (older, exponentially weak)

The round schedule starts round k+1 a gap of t_L - (tau_station(k+1) + t_M)
after round k, which makes deadline(k+1) + t_M equal issued(k) + t_L exactly:
information about challenge k cannot reach the other station's answer in time
even at light speed, with t_M to spare.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, asdict
from itertools import count, islice
from pathlib import Path

from .field import DEFAULT_POLYS

SPEED_OF_LIGHT = 299_792_458.0  # m/s, vacuum

SECONDS_PER_DAY = 86_400.0
DEFAULT_YEAR_DAYS = 365.0  # year convention knob; 365.25 also supported

NS = 1_000_000_000


class PlannerError(ValueError):
    """Invalid configuration or plan."""


class InfeasibleGeometryError(PlannerError):
    """The geometry/timing cannot host the protocol (violated guard named)."""


_DURATION_UNITS = {
    "s": 1.0,
    "ms": 1e-3,
    "us": 1e-6,
    "min": 60.0,
    "h": 3600.0,
    "d": SECONDS_PER_DAY,
}


def parse_duration(text: str, year_days: float = DEFAULT_YEAR_DAYS) -> float:
    """Parse '86400', '24h', '3.3us', '1y' ... into seconds."""
    s = str(text).strip()
    m = re.fullmatch(r"([0-9.eE+-]+)\s*(s|ms|us|min|h|d|y)?", s)
    if not m:
        raise PlannerError(f"cannot parse duration {text!r}")
    value = float(m.group(1))
    unit = m.group(2) or "s"
    if unit == "y":
        return value * year_days * SECONDS_PER_DAY
    return value * _DURATION_UNITS[unit]


@dataclass(frozen=True)
class SpacetimeConfig:
    """Geometry and policy knobs for one deployment."""

    L: float              # m between the verifier stations
    l1: float             # m, committer offset allowance at station 1
    l2: float             # m, at station 2
    tau1: float           # s, answer deadline at station 1
    tau2: float           # s, at station 2
    t_m: float            # s, safety margin
    T: float              # s, commitment duration
    n: int = 128          # bits per exchanged string
    c: float = SPEED_OF_LIGHT
    name: str = ""

    def __post_init__(self):
        for fname in ("L", "l1", "l2", "tau1", "tau2", "t_m", "T", "c"):
            value = getattr(self, fname)
            if not (math.isfinite(value) and value > 0):
                raise PlannerError(f"config field {fname} = {value} is not a finite, "
                                   f"strictly positive number")
        if type(self.n) is not int:  # a bool or 8.0 is no width
            raise PlannerError(f"string width n = {self.n!r} is not an integer")
        if self.l1 + self.l2 >= self.L:
            raise InfeasibleGeometryError(
                f"allowances exceed the separation: l1 + l2 = {self.l1 + self.l2} m "
                f">= L = {self.L} m"
            )
        if self.n not in DEFAULT_POLYS:
            raise PlannerError(f"string width n = {self.n} has no reduction polynomial; "
                               f"use one of {sorted(DEFAULT_POLYS)}")

    @property
    def t_l(self) -> float:
        """Light travel time over the station separation."""
        return self.L / self.c

    def to_dict(self) -> dict:
        return asdict(self)


_CONFIG_KEYS = {"L", "l1", "l2", "tau1", "tau2", "t_m", "T", "n", "c", "name"}


def parse_config(text: str, year_days: float = DEFAULT_YEAR_DAYS) -> SpacetimeConfig:
    """Parse the human-editable `key = value` config format.

    Lines are `key = value` with `#` comments; distances in meters, times in
    seconds (duration suffixes like 24h / 3.3us / 1y are accepted for T and
    the tau/t_m fields, a year being `year_days` days).
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PlannerError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise PlannerError(f"config line {lineno}: unknown key {key!r}")
        if key == "name":
            values[key] = val
        elif key in ("T", "tau1", "tau2", "t_m"):
            values[key] = parse_duration(val, year_days)
        else:
            try:
                values[key] = int(val) if key == "n" else float(val)
            except ValueError:
                raise PlannerError(f"config line {lineno}: {key} = {val!r} is not "
                                   f"a number") from None
    missing = {"L", "l1", "l2", "tau1", "tau2", "t_m", "T"} - values.keys()
    if missing:
        raise PlannerError(f"config is missing keys: {sorted(missing)}")
    return SpacetimeConfig(**values)


def load_config(path: str | Path, year_days: float = DEFAULT_YEAR_DAYS) -> SpacetimeConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise PlannerError(f"config file {path} is not UTF-8 text: {exc}") from exc
    return parse_config(text, year_days)


# -- closed-form quantities ---------------------------------------------------


def compute_tq(cfg: SpacetimeConfig) -> float:
    """Interval between consecutive rounds at one station (seconds)."""
    tq = 2.0 / cfg.c * (cfg.L - (cfg.l1 + cfg.l2)) - 2.0 * cfg.t_m
    if tq <= 0:
        raise InfeasibleGeometryError(
            "t_Q = (2/c)(L - (l1+l2)) - 2*t_m is not positive: the margin and "
            "allowances consume the whole light-travel budget"
        )
    return tq


def schedule_gaps(cfg: SpacetimeConfig) -> tuple[float, float]:
    """(gap entering a station-1 round, gap entering a station-2 round), s."""
    g1 = cfg.t_l - (cfg.tau1 + cfg.t_m)
    g2 = cfg.t_l - (cfg.tau2 + cfg.t_m)
    if g1 <= 0 or g2 <= 0:
        raise InfeasibleGeometryError(
            "inter-round gap t_L - (tau_i + t_m) is not positive: answers "
            "would be due before the next round could start"
        )
    return g1, g2


def compute_round_count(cfg: SpacetimeConfig) -> int:
    """Number of sustain rounds m (the reveal makes it m+1 total).

    m = floor(2T/t_Q) - 1, rounded down to even so the reveal lands at
    station 1 (even-rounding is skipped in the degenerate m=1 corner, where
    T barely covers a single round pair).
    """
    tq = compute_tq(cfg)
    raw = int(2.0 * cfg.T / tq) - 1
    if raw < 1:
        raise InfeasibleGeometryError(
            f"commitment duration T = {cfg.T} s is shorter than one round "
            f"interval t_Q = {tq} s"
        )
    if raw >= 2:
        raw -= raw % 2
    return raw


def epsilon_linear(m: int, n: int) -> float:
    """Cheating bound linear in the round count: m * 2^((3-n)/2), capped at 1."""
    if m < 1:
        raise PlannerError(f"round count m must be >= 1, got {m}")
    if n < 1:
        raise PlannerError(f"string width n must be >= 1, got {n}")
    log2_eps = math.log2(m) + (3.0 - n) / 2.0
    if log2_eps >= 0.0:
        return 1.0
    return 2.0 ** log2_eps


def epsilon_exponential(m: int, n: int) -> float:
    """Older bound 2^(-n / 2^(m-1)); goes vacuous (-> 1) as m grows."""
    if m < 1:
        raise PlannerError(f"round count m must be >= 1, got {m}")
    # 2^-(m-1) underflows to 0.0 for very large m, making the bound exactly 1.
    exponent = n * 2.0 ** (-(m - 1))
    return 2.0 ** (-exponent)


def min_separation(cfg: SpacetimeConfig) -> float:
    """Smallest feasible L (meters) under the rule t_Q >= tau1 + tau2.

    The rule demands each station's answer window fit inside its inter-round
    gap; solving (2/c)(L - l1 - l2) - 2 t_m >= tau1 + tau2 for L gives
    L_min = l1 + l2 + c * (t_m + (tau1 + tau2) / 2), which reproduces the
    reference deployment's ~2.8 km.
    """
    return cfg.l1 + cfg.l2 + cfg.c * (cfg.t_m + (cfg.tau1 + cfg.tau2) / 2.0)


def drift_budget(t_m: float, T: float) -> float:
    """Max fractional clock-frequency error keeping drift under the margin."""
    if t_m <= 0 or T <= 0:
        raise PlannerError("drift budget needs positive margin and duration")
    return t_m / T


# -- the assembled plan ---------------------------------------------------------


@dataclass
class ProtocolPlan:
    """Derived schedule and security/resource figures for one config."""

    config: SpacetimeConfig
    n: int
    m: int
    t_q: float                 # s, distance form (2/c)(L - l1 - l2) - 2*t_m
    t_l: float                 # s
    t_q_schedule: float        # s, 2*t_l - 2*t_m - (tau1 + tau2); equals t_q
    #                            when tau_i = 2*l_i/c
    epsilon_linear: float
    epsilon_exponential: float
    bytes_total: int
    bytes_per_station: int
    rate_per_station: float    # bytes/s of one verifier's challenge stream
    drift_budget: float
    min_separation_m: float
    # integer-ns schedule parameters consumed by simnet/transport
    t_l_ns: int
    t_m_ns: int
    tau1_ns: int
    tau2_ns: int
    gap_to_station1_ns: int    # gap entering an odd (station-1) round
    gap_to_station2_ns: int

    @property
    def element_bytes(self) -> int:
        return (self.n + 7) // 8

    @property
    def rounds_total(self) -> int:
        return self.m + 1

    def round_start_ns(self, k: int) -> int:
        """Nominal start of round k (1-based; k = m+1 is the reveal)."""
        if k < 1:
            raise PlannerError(f"round index must be >= 1, got {k}")
        evens = k // 2
        odds = (k - 1) // 2
        return evens * self.gap_to_station2_ns + odds * self.gap_to_station1_ns

    def round_starts_ns(self, k: int, size: int) -> list[int]:
        """`round_start_ns` of rounds k..k+size-1. A station's rounds start
        one gap_to_station1_ns + gap_to_station2_ns apart."""
        period = self.gap_to_station1_ns + self.gap_to_station2_ns
        starts = [0] * size
        starts[0::2] = islice(count(self.round_start_ns(k), period), (size + 1) // 2)
        starts[1::2] = islice(count(self.round_start_ns(k + 1), period), size // 2)
        return starts

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ProtocolPlan":
        d = dict(d)
        d.pop("plan_hash", None)
        d["config"] = SpacetimeConfig(**d["config"])
        return cls(**d)

    @property
    def plan_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def to_json(self) -> str:
        d = self.to_dict()
        d["plan_hash"] = self.plan_hash
        return json.dumps(d, indent=2, sort_keys=True)


def resource_plan(cfg: SpacetimeConfig) -> ProtocolPlan:
    """Evaluate every planned quantity for `cfg`."""
    tq = compute_tq(cfg)
    g1, g2 = schedule_gaps(cfg)
    m = compute_round_count(cfg)
    eb = (cfg.n + 7) // 8
    rounds = m + 1
    bytes_total = rounds * 2 * eb
    bytes_per_station = round(rounds / 2 * eb)
    rate = rounds / 2 * eb / cfg.T
    return ProtocolPlan(
        config=cfg,
        n=cfg.n,
        m=m,
        t_q=tq,
        t_l=cfg.t_l,
        t_q_schedule=g1 + g2,
        epsilon_linear=epsilon_linear(m, cfg.n),
        epsilon_exponential=epsilon_exponential(m, cfg.n),
        bytes_total=bytes_total,
        bytes_per_station=bytes_per_station,
        rate_per_station=rate,
        drift_budget=drift_budget(cfg.t_m, cfg.T),
        min_separation_m=min_separation(cfg),
        t_l_ns=round(cfg.t_l * NS),
        t_m_ns=round(cfg.t_m * NS),
        tau1_ns=round(cfg.tau1 * NS),
        tau2_ns=round(cfg.tau2 * NS),
        gap_to_station1_ns=round(g1 * NS),
        gap_to_station2_ns=round(g2 * NS),
    )


# the schedule fields `load_plan` rebuilds from the config: integers of IEEE
# arithmetic and `round`, so they rebuild the same on any host (the epsilons
# go through libm's pow and log2, which need not)
_REBUILT_FIELDS = ("m", "n", "t_l_ns", "t_m_ns", "tau1_ns", "tau2_ns",
                   "gap_to_station1_ns", "gap_to_station2_ns")


def load_plan(path: str | Path) -> ProtocolPlan:
    """The plan saved at `path`; PlannerError if the file holds no plan, if
    its stored hash is not the plan's, or if a schedule field differs from
    what `resource_plan` makes of its config."""
    try:
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise TypeError(f"top level is a {type(data).__name__}, not an object")
        plan = ProtocolPlan.from_dict(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise PlannerError(f"plan file {path} holds no plan: "
                           f"{type(exc).__name__}: {exc}") from exc
    stored = data.get("plan_hash")
    if stored is not None and stored != plan.plan_hash:
        raise PlannerError(f"plan file {path} hash mismatch: stored {str(stored)[:12]}..., "
                           f"recomputed {plan.plan_hash[:12]}...")
    rebuilt = resource_plan(plan.config)
    for name in _REBUILT_FIELDS:
        saved, planned = getattr(plan, name), getattr(rebuilt, name)
        if type(saved) is not int or saved != planned:
            raise PlannerError(f"plan file {path}: {name} = {saved!r} contradicts its "
                               f"config, which plans {planned}")
    return plan


def save_plan(plan: ProtocolPlan, path: str | Path) -> None:
    Path(path).write_text(plan.to_json())


def format_plan_table(plans: list[tuple[str, ProtocolPlan]]) -> str:
    """Human table: one row per plan with L, T, epsilon, rate, and data."""
    lines = [
        f"{'config':10s} {'L [km]':>10s} {'T':>12s} {'epsilon':>10s} "
        f"{'r [Bps]':>12s} {'Data [GB]':>12s} {'rounds':>12s}"
    ]
    for label, p in plans:
        T = p.config.T
        if T % SECONDS_PER_DAY == 0 and T <= 31 * SECONDS_PER_DAY:
            t_label = f"{T / 3600:.0f} h"
        elif T >= 300 * SECONDS_PER_DAY:
            t_label = f"{T / SECONDS_PER_DAY:.5g} d"
        else:
            t_label = f"{T:.6g} s"
        lines.append(
            f"{label:10s} {p.config.L / 1000:>10.4g} {t_label:>12s} "
            f"{p.epsilon_linear:>10.2g} {p.rate_per_station:>12.4g} "
            f"{p.bytes_total / 1e9:>12.4g} {p.rounds_total:>12.3e}"
        )
    return "\n".join(lines)

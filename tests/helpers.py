"""Shared test fixtures: independent oracles and small plan builders."""

from __future__ import annotations

import random
import time

from relbc import transport
from relbc.field import FieldSpec
from relbc.planner import SPEED_OF_LIGHT, SpacetimeConfig, compute_tq, resource_plan
from relbc.protocol import ROLE_ALICE_SECRETS, ROLE_BOB_CHALLENGES, RoundRecord, Tape, Transcript


def schoolbook_mul(a: int, b: int, n: int, poly: int) -> int:
    """Naive shift-and-reduce multiplication, the oracle for the fast path.

    Deliberately the dumbest correct implementation: accumulate partial
    products, then long-divide by the full reduction polynomial.
    """
    p = 0
    for i in range(n):
        if (b >> i) & 1:
            p ^= a << i
    full = poly | (1 << n)
    for i in range(2 * n - 2, n - 1, -1):
        if (p >> i) & 1:
            p ^= full << (i - n)
    return p


def with_header_field(data: bytes, n_at: int, n: int, poly: int) -> bytes:
    """Tape or transcript file bytes `data` with the header's field renamed
    to width `n` and polynomial `poly`, which keeps the stored polynomial's
    byte length. `n_at` is the offset of the header's 4-byte width, which
    the 2-byte polynomial length and the polynomial follow."""
    start = n_at + 6
    size = int.from_bytes(data[n_at + 4:start], "big")
    return (data[:n_at] + n.to_bytes(4, "big") + data[n_at + 4:start]
            + poly.to_bytes(size, "little") + data[start + size:])


def tau_at(t: Transcript, station: int) -> int:
    """The answer deadline that transcript `t` records for `station`."""
    return t.tau1_ns if station == 1 else t.tau2_ns


def backward_chain(spec: FieldSpec, rounds: list[RoundRecord], a_m: int) -> list[int]:
    """a_0..a_m by the paper's recursion a_{k-1} = (y_k XOR a_k) * x_k^-1 from
    the revealed a_m, the oracle for the forward verifier; an honest chain
    ends at a_0 = d, the committed bit. Raises NonInvertibleError on a zero
    challenge among x_1..x_m."""
    chain = [a_m]
    for rec in reversed(rounds):
        chain.append(spec.mul(rec.answer ^ chain[-1], spec.inv(rec.challenge)))
    return chain[::-1]


def small_plan(m_target: int, n: int = 8, tau: float = 3e-6, t_m: float = 3.3e-6,
               c: float = SPEED_OF_LIGHT, L: float = 7000.0):
    """A feasible plan with exactly `m_target` rounds (even) and
    tau_i = 2*l_i/c, so the schedule interval equals the geometric one."""
    l = c * tau / 2.0
    cfg = SpacetimeConfig(L=L, l1=l, l2=l, tau1=tau, tau2=tau, t_m=t_m,
                          T=1.0, n=n, c=c)
    tq = compute_tq(cfg)
    cfg = SpacetimeConfig(L=L, l1=l, l2=l, tau1=tau, tau2=tau, t_m=t_m,
                          T=(m_target + 1.5) * tq / 2.0, n=n, c=c)
    plan = resource_plan(cfg)
    assert plan.m == m_target, (plan.m, m_target)
    return plan


def random_tapes(spec: FieldSpec, m: int, seed: int) -> tuple[Tape, Tape]:
    rng = random.Random(seed)
    secrets = [spec.random_int(rng) for _ in range(m)]
    challenges = [spec.random_int(rng, nonzero=True) for _ in range(m)]
    return (Tape(ROLE_ALICE_SECRETS, spec, secrets),
            Tape(ROLE_BOB_CHALLENGES, spec, challenges))


def plan_grid(count: int = 20, n: int = 8, seed: int = 99):
    """Feasible plans spanning metropolitan to intercontinental scales."""
    plans = []
    rng = random.Random(seed)
    while len(plans) < count:
        tau = rng.choice([1e-6, 3e-6, 10e-6, 1e-3, 20e-3])
        t_m = tau * rng.choice([0.3, 1.0, 2.0])
        l = SPEED_OF_LIGHT * tau / 2
        L = (2 * l + SPEED_OF_LIGHT * t_m) * rng.uniform(1.7, 40.0)
        m = rng.choice([6, 8, 10])
        try:
            cfg = SpacetimeConfig(L=L, l1=l, l2=l, tau1=tau, tau2=tau, t_m=t_m,
                                  T=1.0, n=n)
            tq = compute_tq(cfg)
            cfg = SpacetimeConfig(L=L, l1=l, l2=l, tau1=tau, tau2=tau, t_m=t_m,
                                  T=(m + 1.5) * tq / 2.0, n=n)
            plans.append(resource_plan(cfg))
        except Exception:
            continue
    return plans


def stall_committer(monkeypatch, station: int, k: int, seconds: float) -> None:
    """Make the live committer at `station` sleep `seconds` before it answers
    round `k`, so the verifier's deadline for that round passes."""

    class StallingAlice(transport.AliceAgent):
        def handle_challenge(self, k_now: int, x_k: int) -> int:
            if self.station == station and k_now == k:
                time.sleep(seconds)
            return super().handle_challenge(k_now, x_k)

    monkeypatch.setattr(transport, "AliceAgent", StallingAlice)

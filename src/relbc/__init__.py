"""Multi-round relativistic bit commitment.

Subpackages by concern:

- :mod:`relbc.field` — GF(2^n) arithmetic on plain ints (XOR add,
  carry-less multiply, inversion) in canonical little-endian bit order.
- :mod:`relbc.protocol` — the committer's state machine, tapes, transcripts,
  and verification: one forward pass over the answer chain.
- :mod:`relbc.planner` — closed-form schedule, security-bound, and resource
  planning from a spacetime configuration.
- :mod:`relbc.simnet` — deterministic discrete-event simulation with
  light-speed delivery, clock models, adversaries, and a no-signaling audit.
- :mod:`relbc.transport` — live mode: framed byte-stream agents with real
  (monotonic) clocks and deadline enforcement.
- :mod:`relbc.storage` — tape and transcript files, streaming generation and
  constant-memory forward verification.
- :mod:`relbc.cli` — the `relbc` command.
"""

__version__ = "0.1.0"

"""A standing bit-parity check of the inference engines.

One sha256 digest covers the exact bytes of `auto_infer`'s beliefs, the
repr of its log P(e) and every trace record on 60 random polytrees and 60
random loopy networks, plus `propagate`'s messages, stats and trace under
all three schedules on 20 polytrees.  A call that raises contributes its
exception type and message instead.  The digest was captured before the
message rules were compiled into the plan's rule table; any change that
moves a single bit of these outputs has to say so by updating it.

`PYTHONPATH=src python tests/test_parity.py` prints the current digest;
with `--each`, one short sha256 per network and per schedule over the
same inputs, so that the listings of two checkouts can be diffed to find
the first output that moved.
"""

from __future__ import annotations

import hashlib
import sys

from beliefprop.conditioning import auto_infer
from beliefprop.polytree import propagate
from helpers import random_loopy, random_polytree

DIGEST = "62dbb719b79d64c68519ed8844a114b6dfcc7a93097b8f67240f433cfd2d97aa"


def _record(h, *parts) -> None:
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\x00")


def _trace(h, rec) -> None:
    _record(h, rec.sweep, rec.parent, rec.child, rec.direction)
    _record(h, rec.old.tobytes(), rec.new.tobytes())


def _auto_infer(h, net, evidence) -> None:
    def on_update(assignment, rec):
        _record(h, sorted(assignment.items()))
        _trace(h, rec)

    try:
        mixed = auto_infer(net, evidence, net.var_names(), on_update)
    except Exception as exc:  # noqa: BLE001 - the failure itself is pinned
        _record(h, type(exc).__name__, str(exc))
        return
    _record(h, mixed.beliefs.values.tobytes(), repr(mixed.log_likelihood))


def _propagate(h, net, evidence, schedule) -> None:
    try:
        state, stats = propagate(net, evidence, schedule, seed=5, on_update=lambda r: _trace(h, r))
    except Exception as exc:  # noqa: BLE001 - the failure itself is pinned
        _record(h, type(exc).__name__, str(exc))
        return
    _record(h, stats.sweeps, stats.updates, repr(stats.log_likelihood))
    for (p, c), lp in state.messages.items():
        _record(h, p, c, lp.pi.tobytes(), lp.lam.tobytes())


def parity_digest() -> str:
    h = hashlib.sha256()
    for seed in range(60):
        _auto_infer(h, *random_polytree(seed))
        _auto_infer(h, *random_loopy(seed))
    for seed in range(20):
        net, evidence = random_polytree(seed)
        for schedule in ("two-pass", "synchronous", "fair-random"):
            _propagate(h, net, evidence, schedule)
    return h.hexdigest()


def each_digest():
    """A label and a short sha256 per input of `parity_digest`, in its order."""
    for seed in range(60):
        for kind, make in (("polytree", random_polytree), ("loopy", random_loopy)):
            h = hashlib.sha256()
            _auto_infer(h, *make(seed))
            yield f"auto_infer {kind} {seed}", h.hexdigest()[:16]
    for seed in range(20):
        net, evidence = random_polytree(seed)
        for schedule in ("two-pass", "synchronous", "fair-random"):
            h = hashlib.sha256()
            _propagate(h, net, evidence, schedule)
            yield f"propagate polytree {seed} {schedule}", h.hexdigest()[:16]


def test_engine_outputs_are_bit_identical():
    assert parity_digest() == DIGEST


if __name__ == "__main__":
    if sys.argv[1:] == ["--each"]:
        for label, digest in each_digest():
            print(digest, label)
    else:
        print(parity_digest())

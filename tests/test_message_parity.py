"""A standing bit-parity check of the per-message functions.

One sha256 digest covers the exact bytes of `update_pi_to_child`,
`update_lambda_to_parent`, `total_causal_support`,
`total_diagnostic_support`, `fuse_belief` and `link_belief` on every node
and arc of 20 random polytrees, each with a seeded random message state in
which about one vector in ten is all zeros.  A call that raises
contributes its exception type and message instead.  Any change that
moves a single bit of these outputs has to say so by updating the digest.

`PYTHONPATH=src python tests/test_message_parity.py` prints the current digest.
"""

from __future__ import annotations

import hashlib

import numpy as np

from beliefprop.polytree import (
    fuse_belief,
    init_messages,
    link_belief,
    total_causal_support,
    total_diagnostic_support,
    update_lambda_to_parent,
    update_pi_to_child,
)
from helpers import random_polytree

DIGEST = "09be061c3491ce383ab024f0b012606e5f170f7fc057e500d0012fc122efefa6"


def _record(h, *parts) -> None:
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\x00")


def _call(h, fn, *args) -> None:
    _record(h, fn.__name__, *args[1:])
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the failure itself is pinned
        _record(h, type(exc).__name__, str(exc))
        return
    _record(h, value.tobytes())


def random_state(net, evidence, seed: int):
    """`init_messages` with every pi and lambda replaced by a seeded random
    vector, all zeros with probability 1/10."""
    rng = np.random.default_rng(seed)
    state = init_messages(net, evidence)
    for lp in state.messages.values():
        lp.pi, lp.lam = (
            np.zeros(len(vec)) if rng.random() < 0.1 else rng.random(len(vec))
            for vec in (lp.pi, lp.lam)
        )
    return state


def message_digest() -> str:
    h = hashlib.sha256()
    for seed in range(20):
        net, evidence = random_polytree(seed)
        state = random_state(net, evidence, seed)
        for a in net.var_names():
            _call(h, total_causal_support, net, state, a)
            _call(h, total_diagnostic_support, net, state, a)
            _call(h, fuse_belief, net, state, a)
        for p, c in net.edges():
            _call(h, link_belief, state, p, c)
            _call(h, update_pi_to_child, net, state, p, c)
            _call(h, update_lambda_to_parent, net, state, c, p)
    return h.hexdigest()


def test_per_message_outputs_are_bit_identical():
    assert message_digest() == DIGEST


if __name__ == "__main__":
    print(message_digest())

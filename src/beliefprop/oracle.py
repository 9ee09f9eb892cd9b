"""Brute-force reference engine over the full joint distribution.

Builds the complete joint table by multiplying every CPT into an n-axis
array, then answers marginal, likelihood, and conditional-independence
queries by summation.  Exponential in the network size; guarded by a hard
state-space limit.  This is the verification path for the message-passing
engines and must stay independent of them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ImpossibleEvidenceError
from .model import Evidence, Network

#: refuse joints with more states than this
STATE_SPACE_GUARD = 1 << 22


def _check_guard(net: Network) -> None:
    size = math.prod(v.card for v in net.variables)
    if size > STATE_SPACE_GUARD:
        raise ValueError(
            f"joint has {size} states, above the {STATE_SPACE_GUARD} guard"
        )


def _masked_joint(net: Network, evidence: Evidence) -> tuple[np.ndarray, int]:
    """The joint masked by the evidence, one axis per variable in
    declaration order, as (scaled, k) with joint = scaled * 2**k.  The mask
    goes in first, and after each table the product is scaled by a power of
    two that puts its largest entry in [1, 2).  So a joint far below the
    smallest float keeps its digits, and, powers of two being exact, one
    that does not underflow keeps its bits."""
    _check_guard(net)
    axis = {n: i for i, n in enumerate(net.var_names())}
    every = list(axis.values())
    joint = np.ones(tuple(v.card for v in net.variables))
    for var, state in evidence.items():
        if not 0 <= state < net.card(var):
            raise ValueError(f"state {state} out of range for variable {var!r}")
        joint = np.einsum(joint, every, np.eye(net.card(var))[state], [axis[var]], every)
    exponent = 0
    for v in net.variables:
        axes = [axis[p] for p in net.cpts[v.name].parents] + [axis[v.name]]
        joint = np.einsum(joint, every, net.cpt_tensor(v.name), axes, every)
        shift = 1 - math.frexp(joint.max())[1]
        joint, exponent = np.ldexp(joint, shift), exponent - shift
    return joint, exponent


def joint_table(net: Network) -> np.ndarray:
    """Full joint as an array with one axis per variable, declaration order."""
    joint, exponent = _masked_joint(net, {})
    return np.ldexp(joint, exponent)


def oracle_marginal(net: Network, evidence: Evidence, q: str) -> np.ndarray:
    """P(q | evidence) by summing the joint over all consistent assignments."""
    return oracle_posteriors(net, evidence, [q])[q]


def oracle_posteriors(
    net: Network, evidence: Evidence, queries=None
) -> dict[str, np.ndarray]:
    """P(q | evidence) for several queries off one joint enumeration."""
    return oracle_infer(net, evidence, queries)[0]


def oracle_evidence_probability(net: Network, evidence: Evidence) -> float:
    """P(evidence): total joint mass of the consistent assignments."""
    try:
        return oracle_infer(net, evidence, [])[1]
    except ImpossibleEvidenceError:
        return 0.0


def oracle_infer(
    net: Network, evidence: Evidence, queries=None
) -> tuple[dict[str, np.ndarray], float]:
    """P(q | evidence) for each query (every variable by default) and
    P(evidence), which reads 0.0 when it underflows; `_infer` also gives
    its log.  Raises ImpossibleEvidenceError when P(evidence) is zero."""
    return _infer(net, evidence, queries)[:2]


def _infer(net: Network, evidence: Evidence, queries=None):
    """`oracle_infer`'s posteriors and P(evidence), plus log P(evidence),
    off one joint masked by the evidence."""
    names = net.var_names()
    if queries is None:
        queries = names
    for q in queries:
        net.variable(q)
    joint, exponent = _masked_joint(net, evidence)
    total = joint.sum()
    if total <= 0.0:
        raise ImpossibleEvidenceError("evidence has probability zero")
    out = {}
    for q in queries:
        axis = names.index(q)
        other = tuple(i for i in range(joint.ndim) if i != axis)
        out[q] = joint.sum(axis=other) / total
    log_likelihood = math.log(total) + exponent * math.log(2)
    return out, math.ldexp(total, exponent), log_likelihood


def oracle_conditional_independence(
    net: Network, x: str, y: str, s, tolerance: float = 1e-9
) -> bool:
    """True iff P(x,y|S=s) factorizes into P(x|s)P(y|s) within `tolerance`
    for every conditioning state with positive probability."""
    s = sorted(s)
    if x == y or x in s or y in s:
        raise ValueError("x, y, and s must be disjoint")
    names = net.var_names()
    keep = [names.index(x), names.index(y)] + [names.index(v) for v in s]
    joint = joint_table(net)
    drop = tuple(i for i in range(joint.ndim) if i not in keep)
    sub = joint.sum(axis=drop)
    # axes of `sub` follow declaration order; rearrange to (x, y, *s)
    kept_sorted = sorted(keep)
    sub = np.moveaxis(sub, [kept_sorted.index(a) for a in keep], range(len(keep)))

    p_s = sub.sum(axis=(0, 1))
    p_xs = sub.sum(axis=1)
    p_ys = sub.sum(axis=0)
    mask = np.asarray(p_s) > 0
    if not np.any(mask):
        return True
    safe = np.where(mask, p_s, 1.0)
    diff = np.abs(sub / safe - (p_xs / safe)[:, None] * (p_ys / safe)[None, :])
    return bool(np.max(np.where(mask, diff, 0.0)) <= tolerance)

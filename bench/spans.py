"""Span tracing for the benchmark's traced run.

`installed(tracer)` replaces the public functions of the engine's modules
with wrappers that record one span per call: name, start, end, parent span
and operation id, plus a few counts read from the arguments and the return
value.  Each function is wrapped under every name through which callers
look it up: `conditioning` imports `propagate`, `evidence_log_likelihood`,
`fuse_belief` and `greedy_cutset` by name, so those names are patched there
too.  Spans stay in memory; the benchmark writes them out when the run ends.

`per_layer` turns the spans into the per-layer metrics: self time (span
duration minus its child spans) and counts, summed per operation and
reported as the median over the operations that called the layer.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
import weakref
from contextlib import contextmanager

from beliefprop import cli, conditioning, cutset, dsep, model, netformat, polytree


class Tracer:
    """Collects spans as lists [name, start_ns, end_ns, parent, op, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._diameter_asked: weakref.WeakSet = weakref.WeakSet()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if count is not None:
                span[5] = count(self, args, result)
            return result

        return traced


def _propagate_counts(tracer, args, result):
    net, stats = args[0], result[1]
    return {"sweeps": stats.sweeps, "updates": stats.updates, "arcs": len(net.edges())}


def _diameter_counts(tracer, args, result):
    # A call is cold when it is the first on this Network instance: that is
    # the call that computes the diameter, later ones read the cache.
    net = args[0]
    cold = net not in tracer._diameter_asked
    tracer._diameter_asked.add(net)
    return {"cold": int(cold)}


def _cutset_counts(tracer, args, result):
    return {"cases": math.prod(args[0].card(m) for m in result)}


def _mix_counts(tracer, args, result):
    return {"impossible": sum(run.log_weight is None for run in result[1])}


def _parse_counts(tracer, args, result):
    return {"bytes": len(args[0].encode("utf-8"))}


def _paths_counts(tracer, args, result):
    return {"paths": len(result)}


# (owner, attribute, span name, counter)
TRACED = [
    (polytree, "propagate", "polytree.propagate", _propagate_counts),
    (conditioning, "propagate", "polytree.propagate", _propagate_counts),
    (polytree, "evidence_log_likelihood", "polytree.evidence_log_likelihood", None),
    (conditioning, "evidence_log_likelihood", "polytree.evidence_log_likelihood", None),
    (polytree, "fuse_belief", "polytree.fuse_belief", None),
    (conditioning, "fuse_belief", "polytree.fuse_belief", None),
    (model.Network, "underlying_diameter", "model.underlying_diameter", _diameter_counts),
    (model, "validate", "model.validate", None),
    (netformat, "parse", "netformat.parse", _parse_counts),
    (cutset, "greedy_cutset", "cutset.greedy_cutset", _cutset_counts),
    (conditioning, "greedy_cutset", "cutset.greedy_cutset", _cutset_counts),
    (conditioning, "condition_network", "conditioning.condition_network", None),
    (conditioning, "infer_conditioned", "conditioning.infer_conditioned", _mix_counts),
    (dsep, "d_separated", "dsep.d_separated", None),
    (dsep, "list_paths", "dsep.list_paths", _paths_counts),
    (cli, "run", "cli.run", None),
]


@contextmanager
def installed(tracer: Tracer):
    """Patch every entry of TRACED for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count in TRACED:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# metric -> span names whose self time it sums
SELF_TIME = {
    "polytree.propagate_s": ("polytree.propagate",),
    "polytree.likelihood_s": ("polytree.evidence_log_likelihood",),
    "polytree.fuse_s": ("polytree.fuse_belief",),
    "model.diameter_s": ("model.underlying_diameter",),
    "model.validate_s": ("model.validate",),
    "netformat.parse_s": ("netformat.parse",),
    "cutset.search_s": ("cutset.greedy_cutset",),
    "conditioning.reduce_s": ("conditioning.condition_network",),
    "conditioning.mix_s": ("conditioning.infer_conditioned",),
    "dsep.query_s": ("dsep.d_separated", "dsep.list_paths"),
}

# metric -> (span name, count key) summed per operation
COUNTS = {
    "polytree.sweeps": ("polytree.propagate", "sweeps"),
    "polytree.updates": ("polytree.propagate", "updates"),
    "model.diameter_calls": ("model.underlying_diameter", "cold"),
    "netformat.bytes": ("netformat.parse", "bytes"),
    "cutset.cases": ("cutset.greedy_cutset", "cases"),
    "conditioning.cases_impossible": ("conditioning.infer_conditioned", "impossible"),
    "dsep.paths": ("dsep.list_paths", "paths"),
}


COUNTED = {span_name for span_name, _ in COUNTS.values()} | {"polytree.propagate"}


def per_operation(spans, ops) -> dict[int, dict[str, float]]:
    """Per-layer values of each operation in `ops`; a metric is present for
    an operation only when the operation called the layer."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, op, counts in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    wanted = set(ops)
    out: dict[int, dict[str, float]] = {op: {} for op in ops}
    for i, (name, start, end, parent, op, counts) in enumerate(spans):
        if op not in wanted:
            continue
        row = out[op]
        for metric, names in SELF_TIME.items():
            if name in names:
                row[metric] = row.get(metric, 0.0) + (end - start - child_ns[i]) / 1e9
        if counts is None and name in COUNTED:
            continue  # the call raised, so there is nothing to count
        for metric, (span_name, key) in COUNTS.items():
            if name == span_name:
                row[metric] = row.get(metric, 0) + counts[key]
        if name == "polytree.propagate":
            row["polytree.propagate_calls"] = row.get("polytree.propagate_calls", 0) + 1
            row["_messages"] = row.get("_messages", 0) + 2 * counts["sweeps"] * counts["arcs"]
    for row in out.values():
        if "_messages" in row:
            messages = row.pop("_messages")
            row["polytree.useful_ratio"] = row["polytree.updates"] / messages if messages else 0.0
    return out


def per_layer(per_op: dict[int, dict[str, float]], names) -> dict[str, float]:
    """Median of each metric over the operations that report it; 0 when no
    operation called the layer."""
    out = {}
    for name in names:
        values = [row[name] for row in per_op.values() if name in row]
        out[name] = statistics.median(values) if values else 0
    return out

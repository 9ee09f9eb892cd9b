"""Exact inference for discrete Bayes networks.

Singly-connected networks are solved by local message passing relaxed to a
fixpoint; multiply-connected networks by conditioning on a loop cutset and
mixing the per-case results.  A brute-force joint-enumeration oracle backs
every computation for verification.

The names below are imported from their modules when first looked up
(PEP 562), so importing the package, or `beliefprop.cli`, loads no engine
module that a command does not use.
"""

import importlib

#: the module of each name in `__all__`
_HOMES = {
    "conditioning": ("ConditionedRun", "MixedBelief", "auto_infer", "condition_network",
                     "infer_conditioned"),
    "cutset": ("greedy_cutset", "is_valid_cutset", "min_cutset_exhaustive"),
    "dsep": ("UndirectedPath", "d_separated", "is_blocked", "list_paths"),
    "errors": ("ConvergenceError", "ImpossibleEvidenceError", "SizeError"),
    "model": ("Cpt", "Evidence", "Network", "Variable", "joint_probability", "validate"),
    "netformat": ("ParseError", "SourceSpan", "parse", "parse_evidence", "serialize"),
    "oracle": ("oracle_conditional_independence", "oracle_evidence_probability",
               "oracle_infer", "oracle_marginal", "oracle_posteriors"),
    "polytree": ("LinkParameters", "MessageState", "PropagationStats",
                 "evidence_log_likelihood", "fuse_belief", "init_messages", "link_belief",
                 "propagate", "total_causal_support", "total_diagnostic_support",
                 "update_lambda_to_parent", "update_pi_to_child"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOMES or name == "cli":  # a submodule, imported when first named
        return importlib.import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # found once; later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})

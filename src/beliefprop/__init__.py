"""Exact inference for discrete Bayes networks.

Singly-connected networks are solved by local message passing relaxed to a
fixpoint; multiply-connected networks by conditioning on a loop cutset and
mixing the per-case results.  A brute-force joint-enumeration oracle backs
every computation for verification.
"""

from .conditioning import (
    ConditionedRun,
    MixedBelief,
    auto_infer,
    condition_network,
    infer_conditioned,
)
from .cutset import greedy_cutset, is_valid_cutset, min_cutset_exhaustive
from .dsep import UndirectedPath, d_separated, is_blocked, list_paths
from .errors import ConvergenceError, ImpossibleEvidenceError
from .model import Cpt, Evidence, Network, Variable, joint_probability, validate
from .netformat import ParseError, SourceSpan, parse, parse_evidence, serialize
from .oracle import (
    oracle_conditional_independence,
    oracle_evidence_probability,
    oracle_infer,
    oracle_marginal,
    oracle_posteriors,
)
from .polytree import (
    LinkParameters,
    MessageState,
    PropagationStats,
    evidence_log_likelihood,
    fuse_belief,
    init_messages,
    link_belief,
    propagate,
    total_causal_support,
    total_diagnostic_support,
    update_lambda_to_parent,
    update_pi_to_child,
)

__all__ = [
    "ConditionedRun",
    "ConvergenceError",
    "Cpt",
    "Evidence",
    "ImpossibleEvidenceError",
    "LinkParameters",
    "MessageState",
    "MixedBelief",
    "Network",
    "ParseError",
    "PropagationStats",
    "SourceSpan",
    "UndirectedPath",
    "Variable",
    "auto_infer",
    "condition_network",
    "d_separated",
    "evidence_log_likelihood",
    "fuse_belief",
    "greedy_cutset",
    "infer_conditioned",
    "init_messages",
    "is_blocked",
    "is_valid_cutset",
    "joint_probability",
    "link_belief",
    "list_paths",
    "min_cutset_exhaustive",
    "oracle_conditional_independence",
    "oracle_evidence_probability",
    "oracle_infer",
    "oracle_marginal",
    "oracle_posteriors",
    "parse",
    "parse_evidence",
    "propagate",
    "serialize",
    "total_causal_support",
    "total_diagnostic_support",
    "update_lambda_to_parent",
    "update_pi_to_child",
    "validate",
]

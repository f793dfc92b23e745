"""Exact minimal single-output transducer synthesis from input-output
pairs, plus the classical baseline: the prefix trie with equal subtrees
merged bottom-up."""

from .core import (
    TaskSpec,
    Transducer,
    VerifyReport,
    defined_map_count,
    prune,
    relabel,
    run,
    totalize,
    trajectory,
    verify,
)
from .synth_table import (
    SearchConfig,
    SearchOutcome,
    incompatibility_clique,
    lower_bound,
    search_space_size,
    synthesize_at,
    synthesize_minimal,
    trajectory_variable_count,
    variable_count,
)
from .trie import build_trie, minimize

__all__ = [
    "TaskSpec",
    "Transducer",
    "VerifyReport",
    "SearchConfig",
    "SearchOutcome",
    "build_trie",
    "defined_map_count",
    "incompatibility_clique",
    "lower_bound",
    "minimize",
    "prune",
    "relabel",
    "run",
    "search_space_size",
    "synthesize_at",
    "synthesize_minimal",
    "totalize",
    "trajectory",
    "trajectory_variable_count",
    "variable_count",
    "verify",
]

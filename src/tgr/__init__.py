"""Cyclic term graph rewriting with an infinitary term rewriting oracle.

Two independent machines and the harness that plays them against each other:

- `dpo`: double-pushout graph rewriting on cyclic term graphs — matching,
  pushout complements, pushouts, and tracking.
- `parallel`: rational (possibly infinite) parallel term rewriting —
  redex sets of occurrences, residuals, complete developments, and the
  chain-limit oracle `infinite_parallel_reduce`.
- `harness`: checks that a graph step *is* the infinite parallel term step
  it claims to be, on given workspaces and on seeded random ones.

`terms`, `graphs`, `rules`, `parsing`, and `dot` supply finite terms,
term graphs and rational terms, the two rule formats and their
translations, the workspace file format, and DOT export.

The package namespace holds the entry points of the README's library
example, the report and error types, and the comparison helpers the
benchmark replays; everything else is imported from its submodule.
"""

from .dpo import derive_rational, find_matches, induced_parallel_redex
from .graphs import (
    RationalTerm,
    TermGraph,
    minimize,
    rational_approx_leq,
    truncated_equal,
)
from .harness import (
    CofinalityReport,
    NormalFormReport,
    SoundnessReport,
    SuiteReport,
    rewrite_sequence,
)
from .parallel import (
    ConvergenceError,
    OracleError,
    OracleReport,
    UnsupportedRuleError,
    infinite_parallel_reduce,
)
from .parsing import ParseError, parse_workspace
from .rules import RewriteRule, graph_of_rule
from .terms import Signature, parse_term

__version__ = "0.1.0"

__all__ = [
    "CofinalityReport",
    "ConvergenceError",
    "NormalFormReport",
    "OracleError",
    "OracleReport",
    "ParseError",
    "RationalTerm",
    "RewriteRule",
    "Signature",
    "SoundnessReport",
    "SuiteReport",
    "TermGraph",
    "UnsupportedRuleError",
    "derive_rational",
    "find_matches",
    "graph_of_rule",
    "induced_parallel_redex",
    "infinite_parallel_reduce",
    "minimize",
    "parse_term",
    "parse_workspace",
    "rational_approx_leq",
    "rewrite_sequence",
    "truncated_equal",
]

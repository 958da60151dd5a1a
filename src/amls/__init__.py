"""Approximate monotone local search for monotone subset minimization.

Given a monotone set system (closed under supersets, containing the full
universe) and a parameterized alpha-approximate extension oracle running in
O*(c^k), this package provides:

  * bounds          the running-time exponent bases (the implicit
                    divergence-equation base plus three benchmarks)
  * combinatorics   exact hypergeometric tails, iteration costs, and the
                    optimal sample-size selection
  * engine          the randomized sample-and-extend search, its
                    family-driven deterministic variant, and a covering
                    brute force
  * families        greedy set-intersection families and coverings
  * problems        vertex cover and 3-hitting set front ends
  * cli             the ``amls`` command

``import amls`` loads none of these modules.  The names below resolve on
first access (PEP 562), so ``from amls import solve`` imports only the
layers ``solve`` needs, and ``amls.engine`` imports ``engine``.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "BoundQuery", "BoundReport", "amls_bound", "bound_report", "bound_table",
        "brute_bound", "emls_bound", "entropy", "kl_divergence", "naive_bound",
    ),
    "combinatorics": (
        "IterationCost", "binomial", "continuous_t", "empirical_brute_exponent",
        "exact_ratio", "hyper_symmetry_check", "hyper_tail", "iteration_cost", "kappa",
        "relaxed_log_cost", "select_t",
    ),
    "engine": (
        "ExtensionOracle", "MonotoneInstance", "RunConfig", "RunReport",
        "brute_force_search", "exhaustive_minimum", "run_deterministic",
        "run_randomized", "solve", "success_rate",
    ),
    "families": (
        "LimitExceededError", "SetFamily", "build_covering",
        "build_intersection_family", "family_from_text", "family_size_bound",
        "family_to_text", "verify_family",
    ),
    "problems": (
        "Graph", "Hypergraph3", "ParseError", "gen_gnp", "gen_planted_vc",
        "hs3_exact_oracle", "hs3_system", "parse_graph", "parse_hypergraph",
        "vc_exact_oracle", "vc_matching_oracle", "vc_system",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value

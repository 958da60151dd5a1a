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
layers ``solve`` needs, and ``amls.engine`` imports ``engine``.  ``_lazy``
below is the one lazy-loading rule of the package: this module, ``cli``
and ``engine`` each give it their table of layer -> names.
"""

from importlib import import_module

__version__ = "0.1.0"

# layer -> its public names: the layer's __all__ and this package's lazy table
_EXPORTS = {
    "bounds": (
        "BoundQuery", "BoundReport", "amls_bound", "bound_report", "bound_table",
        "brute_bound", "emls_bound", "entropy", "kl_divergence", "naive_bound",
    ),
    "combinatorics": (
        "IterationCost", "binomial", "exact_ratio", "hyper_tail", "iteration_cost",
        "kappa", "select_t",
    ),
    "engine": (
        "ExtensionOracle", "MonotoneInstance", "RunConfig", "RunReport",
        "brute_force_search", "solve",
    ),
    "families": (
        "LimitExceededError", "SetFamily", "build_covering",
        "build_intersection_family", "family_size_bound", "family_to_text",
        "verify_family",
    ),
    "problems": (
        "Graph", "Hypergraph3", "ParseError", "gen_gnp", "hs3_exact_oracle",
        "hs3_system", "parse_graph", "parse_hypergraph", "vc_exact_oracle",
        "vc_matching_oracle", "vc_system",
    ),
}


def _lazy(namespace: dict, layers: dict):
    """The package's lazy-loading rule for one module: (bind, __getattr__).

    namespace is the module's globals(); layers maps each layer to the
    names the module takes from it.  bind(*layers) imports each layer and
    setdefaults its names into namespace, so a name already set (a wrapper
    installed before the layer loads) stays.  __getattr__(name), the
    module's PEP 562 hook, returns the layer module for a layer, binds the
    layer of a listed name and returns its value, and raises AttributeError
    naming the module for any other name.
    """
    package = namespace["__package__"]
    origin = {name: layer for layer, names in layers.items() for name in names}

    def bind(*selected: str) -> None:
        for layer in selected:
            module = import_module(f"{package}.{layer}")
            for name in layers[layer]:
                namespace.setdefault(name, getattr(module, name))

    def __getattr__(name: str):
        if name in layers:
            return import_module(f"{package}.{name}")
        if name not in origin:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        bind(origin[name])
        return namespace[name]

    return bind, __getattr__


__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__ = _lazy(globals(), _EXPORTS)[1]

"""Approximate monotone local search for monotone subset minimization.

Given a monotone set system (closed under supersets, containing the full
universe) and a parameterized alpha-approximate extension oracle running in
O*(c^k), this package provides:

  * bounds          the running-time exponent bases (the implicit
                    divergence-equation base plus three benchmarks)
  * combinatorics   the optimal sample size with its exact success
                    probability and cost, and the family factor kappa
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
        "BoundReport", "amls_bound", "bound_report", "bound_table",
        "brute_bound", "emls_bound", "entropy", "naive_bound",
    ),
    "combinatorics": ("IterationCost", "kappa", "select_t"),
    "engine": (
        "ExtensionOracle", "MonotoneInstance", "RunConfig", "RunReport",
        "brute_force_search", "solve",
    ),
    "families": (
        "LimitExceededError", "SetFamily", "build_covering",
        "build_intersection_family", "family_to_text", "verify_family",
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


def _at_least_one(name: str, value) -> None:
    """The package's one range rule for alpha, c and boost: 1 <= value < inf.

    Raises ValueError naming the value otherwise, nan included.  Compares
    with float("inf") so that this module imports nothing more.
    """
    if not 1 <= value < float("inf"):
        raise ValueError(f"{name} must be finite and >= 1, got {value}")


def _ratio(x) -> tuple[int, int]:
    """(num, den) in lowest terms, den >= 1: the rational x's shortest decimal
    form denotes, read from repr(x) for a float (1.7 -> (17, 10), where
    1.7.as_integer_ratio() is the binary expansion); an int or a Fraction
    gives its own ratio.  Raises ValueError for inf and nan.  The package's
    one rule for exact alpha and boost thresholds, with no imports.
    """
    if not isinstance(x, float):
        return x.numerator, x.denominator
    if x - x != 0:
        raise ValueError(f"expected a finite number, got {x}")
    mantissa, _, exp = float.__repr__(x).partition("e")
    whole, _, frac = mantissa.partition(".")
    shift = int(exp or 0) - len(frac)
    num, den = int(whole + frac) * 10 ** max(shift, 0), 10 ** max(-shift, 0)
    a, b = num, den
    while b:  # Euclid: a ends as gcd(num, den) > 0
        a, b = b, a % b
    return num // a, den // a


def _ascii(token: str) -> str:
    """token, if it is ASCII and holds no '_', else ValueError naming it: the
    package's one rule for number tokens on the command line and in instance
    files, as int() and float() alone also read '1_0' and non-ASCII digits."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not an ASCII number: {token!r}")
    return token


def _check_npqr(n: int, p: int, q: int, r: int) -> None:
    """The one rule for (n, p, q, r)-set-intersection parameters:
    n >= p >= r >= 1 and n - p + r >= q >= r, else ValueError."""
    if not n >= p >= r >= 1:
        raise ValueError(f"need n >= p >= r >= 1, got n={n}, p={p}, r={r}")
    if not n - p + r >= q >= r:
        raise ValueError(f"need n - p + r >= q >= r, got n={n}, p={p}, q={q}, r={r}")


__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__ = _lazy(globals(), _EXPORTS)[1]

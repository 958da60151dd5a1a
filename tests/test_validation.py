"""Input rules shared across layers: one check and one message per rule.

alpha, c and boost follow the package's one range rule (finite and >= 1) at
every entry point that takes them, and the reference iteration_cost follows
it through combinatorics._validate_k; the (n, p, q, r) parameters of a
set-intersection family follow one rule wherever they are checked.
"""

import math

import pytest

from amls.bounds import amls_bound, bound_report, brute_bound, emls_bound, naive_bound
from amls.combinatorics import argmin_t, kappa, select_t
from amls.engine import ExtensionOracle, MonotoneInstance, RunConfig, brute_force_search
from amls.families import build_intersection_family
from reference import iteration_cost


def _no_extension(x, k, rng):
    return None


def _unit_factor(t, r):
    return 1, 1


# (argument name, call taking the argument's value), by entry point
RANGE_CASES = {
    "amls_bound-alpha": ("alpha", lambda v: amls_bound(v, 2)),
    "amls_bound-c": ("c", lambda v: amls_bound(2, v)),
    "bound_report-alpha": ("alpha", lambda v: bound_report(v, 2)),
    "bound_report-c": ("c", lambda v: bound_report(2, v)),
    "brute_bound-alpha": ("alpha", lambda v: brute_bound(v)),
    "naive_bound-alpha": ("alpha", lambda v: naive_bound(v, 2)),
    "naive_bound-c": ("c", lambda v: naive_bound(2, v)),
    "emls_bound-c": ("c", lambda v: emls_bound(v)),
    "iteration_cost-alpha": ("alpha", lambda v: iteration_cost(10, 3, 2, v, 2)),
    "iteration_cost-c": ("c", lambda v: iteration_cost(10, 3, 2, 1.5, v)),
    "select_t-alpha": ("alpha", lambda v: select_t(10, 3, v, 2)),
    "select_t-c": ("c", lambda v: select_t(10, 3, 1.5, v)),
    "argmin_t-alpha": ("alpha", lambda v: argmin_t(10, 3, v, 2, _unit_factor)),
    "argmin_t-c": ("c", lambda v: argmin_t(10, 3, 1.5, v, _unit_factor)),
    "ExtensionOracle-alpha": ("alpha", lambda v: ExtensionOracle(v, 2, 1, _no_extension)),
    "ExtensionOracle-c": ("c", lambda v: ExtensionOracle(1, v, 1, _no_extension)),
    "RunConfig-boost": ("boost", lambda v: RunConfig(boost=v)),
    "brute_force_search-alpha": (
        "alpha", lambda v: brute_force_search(MonotoneInstance(3, lambda s: True), v)
    ),
}


@pytest.mark.parametrize("value", [0.5, math.inf, math.nan])
@pytest.mark.parametrize("case", list(RANGE_CASES))
def test_alpha_c_and_boost_share_one_message(case, value):
    name, call = RANGE_CASES[case]
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{name} must be finite and >= 1, got {value}"


@pytest.mark.parametrize(
    "build", [kappa, build_intersection_family], ids=["kappa", "build_intersection_family"],
)
@pytest.mark.parametrize(
    "npqr,message",
    [
        ((4, 5, 2, 1), "need n >= p >= r >= 1, got n=4, p=5, r=1"),
        ((4, 2, 2, 0), "need n >= p >= r >= 1, got n=4, p=2, r=0"),
        ((4, 2, 0, 1), "need n - p + r >= q >= r, got n=4, p=2, q=0, r=1"),
        ((6, 3, 5, 1), "need n - p + r >= q >= r, got n=6, p=3, q=5, r=1"),
    ],
)
def test_intersection_parameters_share_one_message(build, npqr, message):
    with pytest.raises(ValueError) as info:
        build(*npqr)
    assert str(info.value) == message

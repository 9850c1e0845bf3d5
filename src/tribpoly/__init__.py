"""Exact tribonacci-polynomial families, weighted tilings, truncated series,
and grid verification of the identity catalog relating them."""

from types import ModuleType as _ModuleType

from .identities import (
    ALL_IDENTITY_IDS,
    GridConfig,
    IdentityReport,
    all_passed,
    closed_form_generating_series,
    direct_generating_series,
    overshoot_generating_series,
    run_grid,
    summarize,
    verify_cor2,
    verify_eq4,
    verify_eq12,
    verify_eq13,
    verify_id1,
    verify_id2,
    verify_id3,
    verify_id4,
    verify_id5,
    verify_id6,
    verify_remark_a,
    verify_thm1,
    verify_thm2,
)
from .poly import ONE, Polynomial, X, ZERO
from .series import DEFAULT_ORDER, TruncatedSeries, rational_expand
from .tilings import (
    DEFAULT_CAP,
    ColoredTiling,
    EnumerationCapError,
    Tiling,
    colored_weight_distribution,
    enumerate_colored,
    enumerate_restricted,
    enumerate_tilings,
    exact_longer_distribution,
    expand_colored,
    overshoot_distribution,
    weight_distribution,
)
from .tribonacci import (
    binom,
    incomplete_fibonacci_poly,
    incomplete_tribonacci_number,
    incomplete_tribonacci_poly,
    overshoot_poly,
    triangle_poly,
    tribonacci_number,
    tribonacci_poly,
    tribonacci_poly_explicit,
)

__version__ = "0.1.0"

# every public name imported above, and nothing else
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

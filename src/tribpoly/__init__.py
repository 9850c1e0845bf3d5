"""Exact tribonacci-polynomial families, weighted tilings, truncated series,
and grid verification of the identity catalog relating them.

Each public name is read from its home module on first use (PEP 562), so
``import tribpoly`` loads no submodule, and a command loads only what it
uses."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> home module: the whole public surface, and nothing else
_HOME = {
    name: module
    for module, names in (
        (
            "identities",
            "ALL_IDENTITY_IDS GridConfig IdentityReport all_passed run_grid summarize"
            " verify_cor2 verify_eq4 verify_eq12 verify_eq13 verify_id1 verify_id2"
            " verify_id3 verify_id4 verify_id5 verify_id6 verify_remark_a verify_thm1"
            " verify_thm2",
        ),
        (
            "generating",
            "closed_form_generating_series direct_generating_series"
            " overshoot_generating_series",
        ),
        ("poly", "ONE Polynomial X ZERO"),
        ("series", "TruncatedSeries rational_expand"),
        (
            "tilings",
            "DEFAULT_CAP ColoredTiling EnumerationCapError Tiling enumerate_colored"
            " enumerate_restricted enumerate_tilings exact_longer_distribution"
            " expand_colored overshoot_distribution weight_distribution",
        ),
        (
            "tribonacci",
            "binom incomplete_fibonacci_poly incomplete_tribonacci_number"
            " incomplete_tribonacci_poly overshoot_poly triangle_poly tribonacci_number"
            " tribonacci_poly tribonacci_poly_explicit",
        ),
    )
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Load ``name``'s home module, and keep the value here for the next read."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""The package's public surface: each name is read from its home module on
first use, and ``import tribpoly`` itself loads no submodule."""

import importlib

import pytest

import tribpoly

# the public surface, its 48 names sorted as ``__all__`` lists them
PUBLIC = """
ALL_IDENTITY_IDS ColoredTiling DEFAULT_CAP EnumerationCapError GridConfig
IdentityReport ONE Polynomial Tiling TruncatedSeries X ZERO all_passed binom
closed_form_generating_series direct_generating_series enumerate_colored
enumerate_restricted enumerate_tilings exact_longer_distribution expand_colored
incomplete_fibonacci_poly incomplete_tribonacci_number incomplete_tribonacci_poly
overshoot_distribution overshoot_generating_series overshoot_poly rational_expand
run_grid summarize triangle_poly tribonacci_number tribonacci_poly
tribonacci_poly_explicit verify_cor2 verify_eq12 verify_eq13 verify_eq4
verify_id1 verify_id2 verify_id3 verify_id4 verify_id5 verify_id6
verify_remark_a verify_thm1 verify_thm2 weight_distribution
""".split()


def test_all_lists_the_public_surface():
    assert tribpoly.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_a_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"tribpoly.{tribpoly._HOME[name]}")
    value = getattr(tribpoly, name)
    assert value is getattr(home, name)
    # defined there, not imported into it from elsewhere
    assert getattr(value, "__module__", home.__name__) == home.__name__
    assert vars(tribpoly)[name] is value  # kept for the next read


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(tribpoly))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from tribpoly import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        tribpoly.no_such_name
    assert not hasattr(tribpoly, "_no_such_private")


def test_a_submodule_still_imports_from_the_package():
    from tribpoly import identities, tilings

    assert identities.run_grid is tribpoly.run_grid
    assert tilings.DEFAULT_CAP == tribpoly.DEFAULT_CAP

"""Each public function or class of the package has exactly one public name."""

import tribpoly


def test_no_callable_has_two_public_names():
    names_by_object = {}
    for name in tribpoly.__all__:
        value = getattr(tribpoly, name)
        if callable(value):
            names_by_object.setdefault(id(value), []).append(name)
    assert [names for names in names_by_object.values() if len(names) > 1] == []

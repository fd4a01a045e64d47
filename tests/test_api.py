"""The public API: every name in nnpoly.__all__ resolves."""

import nnpoly


def test_all_names_are_attributes():
    assert [name for name in nnpoly.__all__ if not hasattr(nnpoly, name)] == []
    assert len(set(nnpoly.__all__)) == len(nnpoly.__all__)


def test_star_import():
    namespace = {}
    exec("from nnpoly import *", namespace)  # a stale name raises AttributeError
    assert set(nnpoly.__all__) <= namespace.keys()

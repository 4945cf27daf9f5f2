"""The package root resolves its public names lazily, on first use."""
import importlib

import pytest

import treeshift


def test_every_public_name_is_its_modules_object():
    for name in treeshift.__all__:
        value = getattr(treeshift, name)
        module = value.__module__
        assert module.startswith("treeshift."), name
        assert getattr(importlib.import_module(module), name) is value, name


def test_star_import_binds_all_public_names():
    namespace = {}
    exec("from treeshift import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(treeshift.__all__)
    assert all(namespace[name] is getattr(treeshift, name) for name in namespace)


def test_dir_lists_the_public_names():
    listed = dir(treeshift)
    assert set(treeshift.__all__) <= set(listed)
    assert "__version__" in listed
    assert listed == sorted(listed)


def test_modules_are_attributes():
    assert treeshift.trees is importlib.import_module("treeshift.trees")
    assert treeshift.pseudogroup.itinerary is treeshift.itinerary


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        treeshift.no_such_name
    assert not hasattr(treeshift, "verify_suites")
    with pytest.raises(ImportError):
        from treeshift import no_such_name  # noqa: F401

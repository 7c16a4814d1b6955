"""The package's public surface: every public library function is exported."""

import importlib
import inspect

import pytest

import unitgompertz as ug

MODULES = ("specfun", "oracle", "distribution", "reliability", "inequality", "entropy",
           "order_stats", "orders")


@pytest.mark.parametrize("name", MODULES)
def test_public_functions_are_in_all(name):
    # A helper made public by mistake fails here too, as it would be traced.
    module = importlib.import_module(f"unitgompertz.{name}")
    public = {
        fn for fn, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not fn.startswith("_")
    }
    assert public - set(ug.__all__) == set()


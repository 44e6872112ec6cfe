"""The resource caps travel as one `Limits` value.

Every entry point takes `limits: Limits = NO_LIMITS` in place of separate
cap keywords, and `Limits` words every cap violation itself.
"""

import importlib
import inspect
import pkgutil

import pytest

import mreg
from mreg import Limits, ResourceLimitError


def _signatures():
    """(qualified name, signature) of every function and method in the package."""
    for info in pkgutil.iter_modules(mreg.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"mreg.{info.name}")
        owners = [module] + [
            cls for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__ and cls is not Limits
        ]
        for owner in owners:
            for name, obj in vars(owner).items():
                if isinstance(obj, (staticmethod, classmethod)):
                    obj = obj.__func__
                if not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                yield f"{obj.__module__}.{obj.__qualname__}", inspect.signature(obj)


def test_no_signature_takes_a_bare_cap():
    seen_limits = 0
    for name, sig in _signatures():
        params = sig.parameters
        assert "degree_cap" not in params and "max_length" not in params, name
        if "limits" in params:
            seen_limits += 1
            default = params["limits"].default
            if default is inspect.Parameter.empty:  # private helpers take it explicitly
                assert name.rsplit(".", 1)[1].startswith("_"), name
            else:
                assert isinstance(default, Limits) and default == Limits(), name
    assert seen_limits >= 20


def test_limits_word_todays_messages():
    with pytest.raises(ResourceLimitError, match=r"^S-pair of coarse degree 7 exceeds the degree cap 6$"):
        Limits(max_degree=6).check_degree("S-pair of coarse degree", 7)
    with pytest.raises(ResourceLimitError, match=r"^degree bound 18 exceeds the degree cap 10$"):
        Limits(max_degree=10).check_degree("degree bound", 18)
    with pytest.raises(ResourceLimitError, match=r"^resolution length exceeds the cap 2$"):
        Limits(max_length=2).check_length(3)
    # at the cap passes, and an unset cap never raises
    Limits(max_degree=6, max_length=2).check_degree("degree bound", 6)
    Limits(max_degree=6, max_length=2).check_length(2)
    Limits().check_degree("degree bound", 10**9)
    Limits().check_length(10**9)


def test_engine_raises_the_limits_messages(koszul_module, hirzebruch_module):
    from mreg import degree_bound_sets, minimal_free_resolution

    with pytest.raises(ResourceLimitError, match=r"^S-pair of coarse degree 4 exceeds the degree cap 1$"):
        minimal_free_resolution(koszul_module, limits=Limits(max_degree=1))
    with pytest.raises(ResourceLimitError, match=r"^resolution length exceeds the cap 1$"):
        minimal_free_resolution(koszul_module, limits=Limits(max_length=1))
    assert minimal_free_resolution(koszul_module, limits=Limits(max_length=2)).length == 2
    # the resolution fits under the cap; the level-2 bound 18 does not
    with pytest.raises(ResourceLimitError, match=r"^degree bound 18 exceeds the degree cap 10$"):
        degree_bound_sets(hirzebruch_module, (1, 3), (0, 1, 2), limits=Limits(max_degree=10))


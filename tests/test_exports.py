import importlib
import pkgutil

import pytest

import orbimorse

MODULES = sorted(m.name for m in pkgutil.iter_modules(orbimorse.__path__)
                 if m.name != "__main__")  # importing __main__ runs the CLI


def test_every_module_is_listed():
    assert {"cli", "errors", "flow_numerics", "stabilization"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name left in __all__ after its definition is deleted breaks
    # "from orbimorse.<module> import *" only when that import runs
    module = importlib.import_module(f"orbimorse.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


ERRORS = (
    "OrbimorseError", "DimensionMismatch", "NotAComplex", "ShapeMismatch",
    "ValidationFailure", "UnknownFlowCount", "UnstablePoint",
    "BoundarySquaredNonzero", "LocalizedHomologyMismatch", "PointNotFound",
    "PointAlreadyStable", "SphereCountMismatch", "UnknownBuiltin", "BadParams",
    "SeedGridExhausted", "DegenerateCritical", "NonConvergentTrajectory",
    "BrokenFlowDetected", "UnstableEndpoint", "UnsupportedProfile",
    "InvalidComplex", "ParseError",
)


def test_every_error_type_is_exported():
    from orbimorse import errors

    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, Exception)}
    assert set(errors.__all__) == defined == set(ERRORS)
    assert all(issubclass(getattr(errors, name),
                          (errors.OrbimorseError, errors.ParseError))
               for name in ERRORS)

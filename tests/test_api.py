"""The library's public signatures: each setting has one source."""

import inspect

from divcorr import arith, asympt, euler, jets, oracle, zeta_series

# precision comes from mpmath's context (max(30, mp.mp.dps)), never an argument;
# to_json's digits format a report, estermann_coefficients' tol is its check's,
# and PrimeTailMoments' dps is the cache key the Euler base raises past the context
PRECISION_NAMES = {"dps", "digits", "tol"}
ALLOWED = {"asympt.estermann_coefficients", "euler.PrimeTailMoments"}


def _public_callables(module):
    short = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if (name.startswith("_") or getattr(obj, "__module__", None) != module.__name__
                or inspect.isclass(obj) and issubclass(obj, Exception)):
            continue
        if inspect.isclass(obj):
            yield f"{short}.{name}", obj
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{short}.{name}.{attr}", member
        elif callable(obj):
            yield f"{short}.{name}", obj


def test_no_public_routine_takes_a_precision_argument():
    offenders = []
    for module in (arith, oracle, euler, jets, zeta_series, asympt):
        for name, obj in _public_callables(module):
            if name in ALLOWED or name.endswith(".to_json"):
                continue
            taken = PRECISION_NAMES & set(inspect.signature(obj).parameters)
            if taken:
                offenders.append((name, sorted(taken)))
    assert not offenders


def test_assembly_routines_take_the_context_alone():
    """(h, k, l), source and Q come from the coefficient context."""
    assert list(inspect.signature(asympt.main_polynomial).parameters) == ["A", "ctx"]
    assert list(inspect.signature(asympt.estermann_assembled).parameters) == ["ctx"]
    assert list(inspect.signature(asympt.estermann_coefficients).parameters) == ["ctx", "tol"]
    assert not hasattr(asympt, "_context_for")

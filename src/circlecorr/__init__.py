"""Pair correlations and gap structure of sequences on the unit circle.

Exact fixed-point circle arithmetic, low-discrepancy generators,
the alpha-pair-correlation statistic, continued fraction / Ostrowski
utilities, three-gap analysis and named verification suites.

A public name is imported from its module on first access (PEP 562), so
importing the package loads none of its modules, and numpy runs only once points are built.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_MODULES = {
    "cf": "ContinuedFraction OstrowskiRep cf_expand fibonacci golden_cf golden_ostrowski "
          "lemma11_ratio lemma12_value ostrowski",
    "numutil": "CircleDistance DEFAULT_PRECISION Threshold threshold_from",
    "paircorr": "PairCountResult f_stat f_stat_profile pair_count_fast pair_count_naive",
    "sequences": "FixedBatch RationalBatch SequenceSpec generate iid_uniform kronecker_orbit",
    "threegap": "GapCensus GapPrediction gap_census gap_classes lemma9_bounds_check predict_gaps",
    "verify": "VerificationReport run_suite",
}
_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def _lazy_module(name):
    """Module ``name``, executed by ``importlib.util.LazyLoader`` when an attribute is first read.

    Till then an unexecuted module, numpy here, sits in ``sys.modules[name]``.
    That first read is not thread-safe on Python 3.10, 3.11 and 3.12 before
    3.12.3: another thread may find the module half executed.  circlecorr starts no threads.
    """
    module = sys.modules.get(name)  # no attribute read, which would execute it
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module

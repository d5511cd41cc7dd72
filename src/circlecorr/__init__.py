"""Pair correlations and gap structure of sequences on the unit circle.

Exact fixed-point circle arithmetic, low-discrepancy generators,
the alpha-pair-correlation statistic, continued fraction / Ostrowski
utilities, three-gap analysis and named verification suites.
"""

from .cf import (ContinuedFraction, OstrowskiRep, cf_expand, fibonacci,
                 golden_cf, golden_ostrowski, lemma11_ratio, lemma12_value,
                 ostrowski)
from .numutil import (DEFAULT_GUARD_ULPS, DEFAULT_PRECISION, CircleDistance,
                      Threshold, threshold_from)
from .paircorr import (PairCountResult, f_stat, f_stat_profile,
                       min_pair_distance, pair_count_fast, pair_count_naive)
from .sequences import (FixedBatch, RationalBatch, SequenceSpec, generate,
                        iid_uniform, kronecker_orbit)
from .threegap import (GapCensus, GapPrediction, gap_census, gap_classes,
                       lemma9_bounds_check, predict_gaps)
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "CircleDistance", "ContinuedFraction", "DEFAULT_GUARD_ULPS",
    "DEFAULT_PRECISION", "FixedBatch", "GapCensus", "GapPrediction",
    "OstrowskiRep", "PairCountResult", "RationalBatch", "SequenceSpec",
    "Threshold", "VerificationReport", "cf_expand", "f_stat",
    "f_stat_profile", "fibonacci", "gap_census", "gap_classes", "generate",
    "golden_cf", "golden_ostrowski", "iid_uniform", "kronecker_orbit",
    "lemma11_ratio", "lemma12_value", "lemma9_bounds_check",
    "min_pair_distance", "ostrowski", "pair_count_fast", "pair_count_naive",
    "predict_gaps", "run_suite", "threshold_from",
]

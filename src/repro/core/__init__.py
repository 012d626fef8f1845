"""The paper's primary contribution: hitlist understanding and unbiasing.

* :mod:`repro.core.entropy` -- nybble entropy fingerprints (Section 4, Eq. 1-5).
* :mod:`repro.core.clustering` -- k-means over fingerprints, SSE elbow method
  (Eq. 6), cluster profiles and popularity.
* :mod:`repro.core.apd` -- multi-level aliased prefix detection (Section 5.1)
  with cross-protocol merging and loss resilience (Section 5.2).
* :mod:`repro.core.apd_murdock` -- Murdock et al.'s static /96 baseline
  (Section 5.5 comparison).
* :mod:`repro.core.sliding_window` -- multi-day response merging and unstable
  prefix accounting (Table 4).
* :mod:`repro.core.consistency` -- TCP/IP fingerprint consistency tests over
  aliased prefixes (Section 5.4, Tables 5-6).
* :mod:`repro.core.hitlist` -- hitlist assembly, de-aliasing, responsive
  subsets and the daily hitlist service (Sections 6 and 11).
* :mod:`repro.core.bias` -- AS/prefix balance metrics and top-X distributions.
"""

from repro.core.entropy import (
    EntropyFingerprint,
    entropy_fingerprint,
    grouped_nybble_entropies,
    nybble_entropies,
)
from repro.core.clustering import (
    ClusteringResult,
    EntropyClustering,
    KMeansResult,
    elbow_k,
    kmeans,
)
from repro.core.apd import AliasedPrefixDetector, APDConfig, APDResult, PrefixProbeOutcome
from repro.core.apd_murdock import MurdockDetector
from repro.core.sliding_window import SlidingWindowMerger, WindowStats
from repro.core.consistency import ConsistencyChecker, ConsistencyReport, PrefixConsistency
from repro.core.hitlist import Hitlist, HitlistService, DailyHitlist
from repro.core.bias import top_x_fractions, concentration_index, coverage_stats

__all__ = [
    "EntropyFingerprint",
    "entropy_fingerprint",
    "grouped_nybble_entropies",
    "nybble_entropies",
    "EntropyClustering",
    "ClusteringResult",
    "KMeansResult",
    "kmeans",
    "elbow_k",
    "AliasedPrefixDetector",
    "APDConfig",
    "APDResult",
    "PrefixProbeOutcome",
    "MurdockDetector",
    "SlidingWindowMerger",
    "WindowStats",
    "ConsistencyChecker",
    "ConsistencyReport",
    "PrefixConsistency",
    "Hitlist",
    "HitlistService",
    "DailyHitlist",
    "top_x_fractions",
    "concentration_index",
    "coverage_stats",
]

"""Measurement engines over the simulated Internet.

* :mod:`repro.probing.zmap` -- a ZMapv6-style prober: multi-protocol sweeps
  over target lists with deterministic shuffling (Section 6).
* :mod:`repro.probing.fingerprint` -- the TCP options fingerprint probe module
  (MSS-SACK-TS-WS) used to validate aliased prefix detection (Section 5.4).
* :mod:`repro.probing.scheduler` -- daily scan orchestration helpers.
"""

from repro.probing.zmap import ScanResult, ZMapScanner
from repro.probing.fingerprint import FingerprintProbe, FingerprintRecord
from repro.probing.scheduler import ScanScheduler

__all__ = [
    "ZMapScanner",
    "ScanResult",
    "FingerprintProbe",
    "FingerprintRecord",
    "ScanScheduler",
]

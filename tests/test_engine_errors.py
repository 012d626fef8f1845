"""The old ``engine`` keyword is gone from every engine-paired entry point.

Each entry point takes one keyword-only ``policy=ExecutionPolicy(...)``; the
old spelling, a bare engine-name string, must fail at the call with a
``TypeError`` -- never fall back silently to either implementation.
"""

import numpy as np
import pytest

from repro.addr.address import IPv6Address
from repro.core.apd import AliasedPrefixDetector, APDResult
from repro.core.clustering import EntropyClustering, kmeans, sse_curve
from repro.core.hitlist import HitlistService
from repro.core.sliding_window import SlidingWindowMerger
from repro.experiments.context import ExperimentContext
from repro.genaddr import GenerationPipeline, SixGenGenerator

#: One call per entry point, each forwarding ``**kwargs`` to the constructor.
ENTRY_POINTS = {
    "AliasedPrefixDetector": lambda internet, **kw: AliasedPrefixDetector(internet, **kw),
    "SlidingWindowMerger": lambda _, **kw: SlidingWindowMerger(
        {0: APDResult.from_outcomes(())}, **kw
    ),
    "EntropyClustering": lambda _, **kw: EntropyClustering(**kw),
    "kmeans": lambda _, **kw: kmeans(np.zeros((4, 2)), 2, **kw),
    "sse_curve": lambda _, **kw: sse_curve(np.zeros((4, 2)), [1, 2], **kw),
    "HitlistService": lambda internet, **kw: HitlistService(internet, assembly=None, **kw),
    "SixGenGenerator": lambda _, **kw: SixGenGenerator([IPv6Address.parse("2001:db8::1")], **kw),
    "GenerationPipeline": lambda internet, **kw: GenerationPipeline(internet, **kw),
    "ExperimentContext": lambda _, **kw: ExperimentContext(**kw),
}


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_engine_keyword_is_rejected(tiny_internet, entry_point):
    call = ENTRY_POINTS[entry_point]
    call(tiny_internet)  # the default policy constructs fine
    with pytest.raises(TypeError, match="engine"):
        call(tiny_internet, **{"engine": "batch"})

"""Shared fixtures: a session-wide cache of eigensolver runs.

Several modules (and most of the acceptance gate) compare bounds against
the same eigensolver gaps, and a full catalog sweep is ~60 solves.  The
cache keys on FamilySpec (frozen, hashable), so each case is solved at
most once per session, serially: the solve is Python-bound and holds
the GIL, so worker threads only slow it down.

An estimate whose truncation term dominates its error emits
TruncationWarning; the cache silences it, and tests that care about
warnings solve directly instead of going through the cache.
"""

import warnings

import pytest

from specgap import TruncationWarning, make_family, spectral_gap

_CACHE = {}


def warm_cache(specs):
    """Solve every uncached case."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for spec in specs:
            if spec not in _CACHE:
                measure, weight, _ = make_family(spec)
                _CACHE[spec] = spectral_gap(measure, weight)


def cached_gap(spec):
    """GapEstimate for one catalog case, solved at most once per session."""
    warm_cache([spec])
    return _CACHE[spec]


@pytest.fixture(scope="session")
def gap_of():
    return cached_gap


@pytest.fixture(scope="session")
def warm():
    return warm_cache

"""Host-speed probe: a fixed piece of work, timed next to each command.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to half over a few minutes.  Process CPU time tracks wall time through
that drift, so it is slower instructions, not stolen time, and no clock of
the run's own can leave it out.  Timing the same fixed loop right next to
each command gives the host's speed at that moment; ``run.py`` reports
every timing scaled by ``REFERENCE_S / probe``, i.e. at the speed at which
the probe takes ``REFERENCE_S``.  The raw timings and the probes are kept
in the run record.

The work is an integer loop plus numpy ufuncs on a 23-element array,
the size of a QUADPACK batch in ``bounds``.  On the tuning machine the
two together cut the pass-to-pass spread of ``bounds_catalog`` from 11%
to 2.5%; either alone left 4-5%.  At module level only ``time`` is
imported, so loading this ahead of the timed cold start costs nothing;
numpy is imported on first use.
"""

import time

LOOPS = 10000
UFUNC_ROUNDS = 150
# a typical time of one spin on the machine the benchmark was tuned on
# (2 CPUs, Python 3.11); it only sets the unit, as every scaled timing
# uses the same value
REFERENCE_S = 2.0e-3
WINDOW = 3              # probes on each side that scale one command


def spin():
    """Seconds one run of the fixed work takes."""
    import numpy as np

    x = np.linspace(0.1, 2.0, 23)
    start = time.perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i * i
    for _ in range(UFUNC_ROUNDS):
        np.sum(np.exp(-x) * x + np.log1p(x))
    return time.perf_counter() - start


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def probe(reps=3):
    """Median of ``reps`` spins: the host's speed right now."""
    return _median([spin() for _ in range(reps)])


def scales(probes):
    """REFERENCE_S over the median probe in a window around each entry."""
    out = []
    for i in range(len(probes)):
        window = probes[max(0, i - WINDOW):i + WINDOW + 1]
        out.append(REFERENCE_S / _median(window))
    return out

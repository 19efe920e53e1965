"""Log-gamma with a typed domain check.

Closed-form brackets for the exponential-power family are ratios
Gamma(n/alpha) / Gamma((n+2)/alpha) at arguments that overflow a direct
Gamma evaluation, so they are formed on the log scale, as exp of log
differences.

log Gamma itself is the standard library's math.lgamma; this module
only turns a non-real, non-positive or non-finite argument into
InvalidInput and maps an ndarray element by element.
"""

import math
import numbers

import numpy as np

from .errors import InvalidInput


def log_gamma(x):
    """log Gamma(x) for real x > 0 (scalar or ndarray, shape kept).

    Relative accuracy on the log scale is ~1e-15, validated against exact
    factorials and half-integer closed forms in the test suite.
    """
    # checked before any float conversion, which would read "2.5" as 2.5
    # and True as 1.0
    if isinstance(x, np.ndarray):
        real = x.dtype.kind in "iuf"
    else:
        real = isinstance(x, numbers.Real) and not isinstance(x, bool)
    if not real:
        raise InvalidInput(f"log_gamma requires real x > 0, got {x!r}")
    arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise InvalidInput(f"log_gamma requires finite x > 0, got {x!r}")
    if arr.ndim == 0:
        return math.lgamma(float(arr))
    return np.array([math.lgamma(v) for v in arr.ravel().tolist()],
                    dtype=float).reshape(arr.shape)

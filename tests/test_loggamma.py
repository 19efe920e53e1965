"""Log-Gamma where the package calls it, against exact oracles.

The exponential-power brackets and gamma_ratio_bounds form Gamma ratios
as exp of math.lgamma differences, on arguments they have checked
themselves.  Oracles: with V = r^alpha/alpha the second moment is
m2 = alpha^(2/alpha) Gamma((n+2)/alpha) / Gamma(n/alpha), which is
n (n+1) at alpha = 1 (integer arguments) and n at alpha = 2 (half-integer
arguments for odd n).  Each ratio is allowed REL of the log-scale
magnitudes it cancels, the log of the exact factorial forms.
"""

import math

import numpy as np
import pytest

from specgap import InvalidInput, exp_power_explicit, gamma_ratio_bounds

REL = 1e-13


def _half_integer_log_gamma(k):
    # Gamma(k + 1/2) = (2k)! sqrt(pi) / (4^k k!)
    return (math.log(math.factorial(2 * k)) + 0.5 * math.log(math.pi)
            - k * math.log(4.0) - math.log(math.factorial(k)))


def test_integer_factorial_oracle():
    # Gamma(n+2) / Gamma(n) = (n+1)! / (n-1)!, up to Gamma(170)
    for n in range(2, 169):
        exact = exp_power_explicit(n, 1.0).exact
        tol = REL * (math.log(math.factorial(n + 1))
                     + math.log(math.factorial(n - 1)))
        assert abs(exact.upper * (n + 1) - 1.0) <= tol, (n, exact.upper)
        assert abs(exact.lower * n * (n + 1) / (n - 1) - 1.0) <= tol, n


def test_half_integer_oracle():
    # 2 Gamma(k + 3/2) / Gamma(k + 1/2) = n for n = 2k + 1, up to k = 169
    for k in range(1, 170):
        n = 2 * k + 1
        upper = exp_power_explicit(n, 2.0).exact.upper
        tol = REL * (abs(_half_integer_log_gamma(k + 1))
                     + abs(_half_integer_log_gamma(k)))
        assert abs(upper - 1.0) <= tol, (n, upper)


def test_rejects_nonpositive_and_nonfinite():
    for bad in (0.0, -1.0, -0.5, math.inf, math.nan):
        with pytest.raises(InvalidInput):
            gamma_ratio_bounds(bad, 1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(InvalidInput):
            exp_power_explicit(3, bad)
    with pytest.raises(InvalidInput):
        gamma_ratio_bounds(np.array([1.0, -2.0]), 1.0)


@pytest.mark.parametrize("bad", [
    "2.5", True, False, np.True_, None, 1.0 + 0.0j,
    np.array([True, False]), np.array(["2.5"]), np.array([2.5 + 0.0j]),
], ids=["str", "true", "false", "np-bool", "none", "complex", "bool-array",
        "str-array", "complex-array"])
def test_rejects_non_real(bad):
    # a float conversion first would read "2.5" as 2.5 and True as 1
    with pytest.raises(InvalidInput, match="a must be a real number"):
        gamma_ratio_bounds(bad, 1.0)


def test_integer_input_is_real():
    assert (gamma_ratio_bounds(3, 1) == gamma_ratio_bounds(np.int64(3), 1)
            == gamma_ratio_bounds(3.0, 1.0))
    assert exp_power_explicit(3, 2) == exp_power_explicit(np.int64(3), 2.0)

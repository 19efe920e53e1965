"""Log-Gamma accuracy against exact combinatorial oracles.

The oracles are computed in exact integer arithmetic before the single
final float conversion: log Gamma(k) = log (k-1)!  and
log Gamma(k + 1/2) = log (2k)! + log(sqrt(pi)) - k log 4 - log k!,
so the reference values carry only the rounding of math.log itself.
"""

import math

import numpy as np
import pytest

from specgap import InvalidInput, log_gamma

REL = 1e-13


def _half_integer_log_gamma(k):
    # Gamma(k + 1/2) = (2k)! sqrt(pi) / (4^k k!)
    return (math.log(math.factorial(2 * k)) + 0.5 * math.log(math.pi)
            - k * math.log(4.0) - math.log(math.factorial(k)))


def test_integer_factorial_oracle():
    for k in range(1, 171):
        exact = math.log(math.factorial(k - 1))
        got = log_gamma(float(k))
        if k in (1, 2):
            assert abs(got) <= 1e-14, f"log Gamma({k}) should vanish, got {got}"
        else:
            assert abs(got - exact) <= REL * abs(exact), (
                f"log Gamma({k}) = {got!r} vs factorial oracle {exact!r}")


def test_half_integer_oracle():
    for k in range(0, 171):
        exact = _half_integer_log_gamma(k)
        got = log_gamma(k + 0.5)
        assert abs(got - exact) <= REL * max(1.0, abs(exact)), (
            f"log Gamma({k}+1/2) = {got!r} vs closed form {exact!r}")


def test_agrees_with_math_lgamma():
    # independent implementation; allow a little slack for its own error
    grid = np.concatenate([
        np.geomspace(1e-3, 1e12, 97),
        np.array([0.5, 1.0 + 1e-9, 2.0 - 1e-9, 2.0 + 1e-9, 7.25, 33.125]),
    ])
    for x in grid:
        got = log_gamma(float(x))
        ref = math.lgamma(float(x))
        assert abs(got - ref) <= 2e-13 * (1.0 + abs(ref)), (
            f"log_gamma({x}) = {got!r} disagrees with math.lgamma {ref!r}")


def test_vectorized_matches_scalar():
    xs = np.array([0.25, 1.0, 2.5, 10.0, 1e4])
    vec = log_gamma(xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert v == log_gamma(float(x))


def test_rejects_nonpositive_and_nonfinite():
    for bad in (0.0, -1.0, -0.5, math.inf, math.nan):
        with pytest.raises(InvalidInput):
            log_gamma(bad)
    with pytest.raises(InvalidInput):
        log_gamma(np.array([1.0, -2.0]))


@pytest.mark.parametrize("bad", [
    "2.5", True, False, np.True_, None, 1.0 + 0.0j,
    np.array([True, False]), np.array(["2.5"]), np.array([2.5 + 0.0j]),
], ids=["str", "true", "false", "np-bool", "none", "complex", "bool-array",
        "str-array", "complex-array"])
def test_rejects_non_real(bad):
    # a float conversion first would read "2.5" as 2.5 and True as Gamma(1)
    with pytest.raises(InvalidInput, match="requires real x > 0"):
        log_gamma(bad)


def test_integer_input_is_real():
    assert log_gamma(3) == log_gamma(np.int64(3)) == math.lgamma(3.0)
    assert log_gamma(np.array([3, 4])).tolist() == [math.lgamma(3.0),
                                                     math.lgamma(4.0)]

"""Self-contained statistical primitives for the sampling engine.

Everything the decision, adaptation and evaluation loops need: Bernoulli
trials, Student-t equality verdicts, standard normal quantiles, minimum
sample sizes with finite population correction and exponential confidence
decay.  Pure stdlib; p-values go through the regularized incomplete beta
function, good to well under 1e-6 absolute error, and the normal quantile
through ``statistics.NormalDist.inv_cdf`` (Wichura's AS241).

Two cheap bounds let a caller settle a verdict without those costly
functions when the verdict is certain:

* Cochran's size for a given z, :func:`corrected_sample_size` of
  :func:`infinite_sample_size`, is non-decreasing in z for every population
  size N >= 1 (its derivative in n_inf is N (N - 1) / (N + n_inf - 1)^2 >= 0),
  and z grows with the confidence, so the sizes at the lowest and the
  highest confidence a caller can see bracket every exact size in between.
* :func:`student_t_log_p_bound` is the log of a Mills-ratio upper bound
  on the two-sided Student-t p-value.  For x >= |t| the density satisfies
  f(x) <= (x / |t|) f(x), whose integral has a closed form; a log bound
  clearly below log(alpha) proves p <= alpha without the incomplete beta.
  Its terms that depend on the degrees of freedom alone (the two
  ``lgamma``s and the logs of 2, df pi and df / (df - 1)) are cached per df,
  so a call computes only the two logs in t.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from operator import sub
from statistics import NormalDist
from typing import Sequence

from .errors import InsufficientDataError, ParameterError

__all__ = [
    "bernoulli",
    "paired_t_p_value",
    "paired_t_test",
    "one_sample_t_p_value_from_stats",
    "normal_quantile",
    "cochran_sample_size",
    "infinite_sample_size",
    "corrected_sample_size",
    "decayed_confidence",
    "student_t_two_sided_p",
    "student_t_log_p_bound",
]


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"significance level must be in (0, 1), got {alpha}")


def bernoulli(p: float, rng) -> bool:
    """One Bernoulli trial with success probability ``p``.

    Consumes exactly one uniform draw from ``rng`` (any object with a
    ``random()`` method), so replaying a recorded tape of draws replays
    the decisions.
    """
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"probability must be in [0, 1], got {p}")
    return rng.random() < p


# --- Student t machinery -------------------------------------------------

_LOG2 = math.log(2.0)


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta function (Lentz's method).
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    # Regularized incomplete beta I_x(a, b).
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """Two-sided p-value of a Student t statistic with ``df`` degrees of freedom."""
    if df <= 0:
        raise ParameterError(f"degrees of freedom must be positive, got {df}")
    return _betainc(df / 2.0, 0.5, df / (df + t * t))


def student_t_log_p_bound(t: float, df: float) -> float:
    """Log of an upper bound on ``student_t_two_sided_p(t, df)``.

    The Mills-ratio bound 2 c nu / ((nu - 1) |t|) (1 + t^2 / nu)^(-(nu - 1) / 2),
    with c = Gamma((nu + 1) / 2) / (sqrt(nu pi) Gamma(nu / 2)), computed in
    logs so it neither overflows nor underflows.  Its ratio to the p-value
    falls towards nu / (nu - 1) as |t| grows, so it is tight in the tails
    where it is useful.  ``math.inf`` (no bound) when t = 0, or when
    df <= 1, where the tail integral of x f(x) diverges.
    """
    if df <= 0:
        raise ParameterError(f"degrees of freedom must be positive, got {df}")
    if t == 0.0 or df <= 1.0:
        return math.inf
    return (
        _log_p_bound_df_terms(df)
        - math.log(abs(t))
        - (df - 1.0) / 2.0 * math.log1p(t * t / df)
    )


# A monitor's df is its sample size less one, so every cycle walks the same
# range of df; 16384 entries (about 2.4 MB when full, on 64-bit CPython) hold that range for
# samples of up to 16385 traces.
@lru_cache(maxsize=16384)
def _log_p_bound_df_terms(df: float) -> float:
    # The leading terms of student_t_log_p_bound, which depend on df alone,
    # summed left to right as the closed form sums them.  An int df and the
    # equal float share an entry and give the same bits.
    return (
        _LOG2
        + math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        + math.log(df / (df - 1.0))
    )


def paired_t_p_value(xs: Sequence[float], ys: Sequence[float]) -> float:
    """p-value behind :func:`paired_t_test`.

    Operates on paired measurement vectors.  Degenerate pairs where every
    difference is identical short-circuit: p = 1 when the vectors are
    equal, 0 otherwise (a constant shift is treated as a sure difference).
    Otherwise the two groups' means are compared with the two-sample
    Student statistic (pooled variance, df = 2n - 2), which is the
    comparison the equality verdicts of the adaptation loop are built on.
    """
    n = len(xs)
    if n != len(ys):
        raise InsufficientDataError(
            f"paired vectors must have equal length, got {n} and {len(ys)}"
        )
    if n < 2:
        raise InsufficientDataError(f"need at least 2 pairs, got {n}")
    diffs = list(map(sub, map(float, xs), map(float, ys)))
    if max(diffs) == min(diffs):
        return 1.0 if diffs[0] == 0.0 else 0.0
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    ss_x = math.fsum(map(pow, map(sub, xs, repeat(mean_x)), repeat(2)))
    ss_y = math.fsum(map(pow, map(sub, ys, repeat(mean_y)), repeat(2)))
    pooled_var = (ss_x + ss_y) / (2 * n - 2)
    if pooled_var <= 0.0:
        # Both groups constant; covered by the degenerate branch above,
        # kept as a guard against pathological float input.
        return 1.0 if mean_x == mean_y else 0.0
    t = (mean_x - mean_y) / math.sqrt(pooled_var * (2.0 / n))
    return student_t_two_sided_p(t, 2 * n - 2)


def paired_t_test(xs: Sequence[float], ys: Sequence[float], alpha: float) -> bool:
    """True when the two paired vectors are statistically "equal".

    Equal means the equality hypothesis is not rejected at level
    ``alpha`` (two-sided).
    """
    _check_alpha(alpha)
    return paired_t_p_value(xs, ys) > alpha


def one_sample_t_p_value_from_stats(n: int, mean: float, m2: float, mu0: float) -> float:
    """One-sample two-sided p-value from running moments.

    ``m2`` is the sum of squared deviations from ``mean`` (Welford's M2),
    so a caller can keep the moments incrementally.
    """
    if n < 2:
        raise InsufficientDataError(f"need at least 2 values, got {n}")
    if m2 <= 0.0:
        return 1.0 if mean == mu0 else 0.0
    var = m2 / (n - 1)
    t = (mean - mu0) / math.sqrt(var / n)
    return student_t_two_sided_p(t, n - 1)


# --- Normal quantile ------------------------------------------------------

_STANDARD_NORMAL = NormalDist()


def normal_quantile(conf: float) -> float:
    """Two-sided z-score for confidence ``conf``: Phi^-1(1 - (1 - conf) / 2).

    conf = 0.95 gives 1.96.  Diverges at conf = 1, which is rejected.
    """
    if not 0.0 < conf < 1.0:
        raise ParameterError(f"confidence must be in (0, 1), got {conf}")
    return _STANDARD_NORMAL.inv_cdf(1.0 - (1.0 - conf) / 2.0)


def cochran_sample_size(
    conf: float, variability_p: float, margin_e: float, population_size: float
) -> float:
    """Cochran's minimum sample size with finite population correction.

    n_inf = z^2 p (1-p) / e^2, corrected to n = n_inf / (1 + (n_inf - 1) / N).
    Returned as a real number; callers compare with a strict ``>``.
    ``population_size`` may be ``math.inf`` for the uncorrected value.
    """
    if not 0.0 < variability_p < 1.0:
        raise ParameterError(f"variability must be in (0, 1), got {variability_p}")
    if not 0.0 < margin_e < 1.0:
        raise ParameterError(f"margin of error must be in (0, 1), got {margin_e}")
    if population_size < 1:
        raise ParameterError(f"population size must be >= 1, got {population_size}")
    return corrected_sample_size(
        infinite_sample_size(normal_quantile(conf), variability_p, margin_e), population_size)


def infinite_sample_size(z: float, variability_p: float, margin_e: float) -> float:
    """Cochran's n_inf = z^2 p (1-p) / e^2, unchecked."""
    return z * z * variability_p * (1.0 - variability_p) / (margin_e * margin_e)


def corrected_sample_size(n_inf: float, population_size: float) -> float:
    """``n_inf`` with finite population correction, n_inf / (1 + (n_inf - 1) / N),
    unchecked."""
    try:
        return n_inf / (1.0 + (n_inf - 1.0) / population_size)
    except ZeroDivisionError:
        # For N >= 1 only at N = 1 with n_inf so small that n_inf - 1 rounds
        # to -1 (z = 0 included); there the formula is n_inf / n_inf, limit 1.
        return 1.0


def decayed_confidence(t: float, max_length: float) -> float:
    """Exponentially decaying confidence e^(-t / max_length), in (0, 1].

    Starts at 1 when a monitoring cycle begins and reaches e^-1 at the
    cycle timeout, loosening the representativeness requirements as the
    cycle ages.
    """
    if t < 0:
        raise ParameterError(f"elapsed time must be >= 0, got {t}")
    if max_length <= 0:
        raise ParameterError(f"max length must be positive, got {max_length}")
    return math.exp(-t / max_length)

"""Trend-controlled series synthesis and classification.

Series are geometric-Brownian-motion paths

    Y_i = s0 * exp((mu - sigma^2/2) * i + sigma * W_i)

on a unit x-grid, optionally reshaped by a symmetry transform.  The drift
factor mu - sigma^2/2 controls direction, sigma controls volatility, and the
reflect+reverse transform swaps curvature without changing direction.  A
rule-based classifier maps arbitrary series back onto the eight trend
classes; synthesis resamples until the classifier agrees, so requested and
observed trend class coincide on essentially every output.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

from .rng import Rng, derive_seed, TAG_TREND_RESAMPLE


class ParameterError(ValueError):
    """A parameter violates its documented bounds; message names the field."""


class EmptyInputError(ValueError):
    """An operation that needs data received an empty series."""


class TooShortError(ValueError):
    """Series too short to classify (need at least 3 points)."""


class TrendUnrealizableError(RuntimeError):
    """Resampling budget exhausted without matching the requested class."""

    def __init__(self, spec: "TrendSpec", attempts: int):
        self.spec = spec
        self.attempts = attempts
        super().__init__(
            f"could not realize trend class {spec.trend_class.value!r} "
            f"in {attempts} attempts (n_points={spec.params.n_points})"
        )


class TrendClass(str, Enum):
    LINEAR_INCREASE = "linear-increase"
    LINEAR_DECREASE = "linear-decrease"
    CONVEX_INCREASE = "convex-increase"
    CONCAVE_INCREASE = "concave-increase"
    CONVEX_DECREASE = "convex-decrease"
    CONCAVE_DECREASE = "concave-decrease"
    RANDOM_FLUCTUATION = "random-fluctuation"
    PLATEAU = "plateau"

    @property
    def direction(self) -> Optional[str]:
        """'increase', 'decrease', or None for the flat classes."""
        if self.value.endswith("-increase"):
            return "increase"
        if self.value.endswith("-decrease"):
            return "decrease"
        return None


# The six classes with a nonzero drift, in the cycling order the corpus
# builder uses for trend cells.
DIRECTIONAL_CLASSES = (
    TrendClass.LINEAR_INCREASE,
    TrendClass.LINEAR_DECREASE,
    TrendClass.CONVEX_INCREASE,
    TrendClass.CONVEX_DECREASE,
    TrendClass.CONCAVE_INCREASE,
    TrendClass.CONCAVE_DECREASE,
)

FLAT_CLASSES = (TrendClass.RANDOM_FLUCTUATION, TrendClass.PLATEAU)

# The chart categories; a chart's category comes from its series' trend
# classes (chartgen), and the template bank indexes its cells by them.
CATEGORIES = ("temporal-trend", "temporal-random", "categorical")

_FLAT = tuple(c.value for c in FLAT_CLASSES)
_DIRECTIONAL = tuple(c.value for c in TrendClass if c not in FLAT_CLASSES)

# Every (category, trend, arity) combination the planner can ask for.
# temporal-trend charts include flat trends: a two-series chart is in that
# category as soon as one series is directional, and a sentence may focus
# on the other one.
REACHABLE_CELLS: Tuple[Tuple[str, Optional[str], int], ...] = tuple(
    (category, trend, arity)
    for category, trends in (
        ("temporal-trend", _DIRECTIONAL + _FLAT),
        ("temporal-random", _FLAT),
        ("categorical", (None,)),
    )
    for trend in trends
    for arity in (1, 2)
)


class ShapeTransform(str, Enum):
    IDENTITY = "identity"
    REFLECT_REVERSE = "vertical-reflect+time-reverse"


@dataclass(frozen=True)
class GbmParams:
    """Parameters of one GBM path.

    The drift factor is always derived from (mu, sigma), never stored, so
    the two can never disagree.
    """

    s0: float
    mu: float
    sigma: float
    n_points: int

    def __post_init__(self):
        if not (self.s0 > 0):
            raise ParameterError(f"s0 must be positive, got {self.s0}")
        if not (self.sigma >= 0):
            raise ParameterError(f"sigma must be non-negative, got {self.sigma}")
        if self.n_points < 2:
            raise ParameterError(f"n_points must be >= 2, got {self.n_points}")

    @property
    def drift(self) -> float:
        return self.mu - self.sigma * self.sigma / 2.0


@dataclass(frozen=True)
class TrendSpec:
    """A requested trend class plus the generator settings that realize it."""

    trend_class: TrendClass
    params: GbmParams
    transform: ShapeTransform

    def __post_init__(self):
        # Drift sign must match the class direction before any transform;
        # both transforms preserve direction.
        drift = self.params.drift
        sign, ok = {"increase": ("positive", drift > 0),
                    "decrease": ("negative", drift < 0),
                    None: ("zero", drift == 0.0)}[self.trend_class.direction]
        if not ok:
            raise ParameterError(
                f"mu: {self.trend_class.value} requires {sign} drift, got {drift}")


# class -> (drift, sigma, transform).  Direction comes from the drift sign;
# curvature from the generator shape: an exponential path is convex, and
# reflect+reverse turns it concave while keeping its direction.  The flat
# classes differ only in volatility.
_PRESET_TABLE = {
    TrendClass.LINEAR_INCREASE: (0.03, 0.004, ShapeTransform.IDENTITY),
    TrendClass.LINEAR_DECREASE: (-0.03, 0.004, ShapeTransform.IDENTITY),
    TrendClass.CONVEX_INCREASE: (0.35, 0.02, ShapeTransform.IDENTITY),
    TrendClass.CONVEX_DECREASE: (-0.35, 0.02, ShapeTransform.IDENTITY),
    TrendClass.CONCAVE_INCREASE: (0.35, 0.02, ShapeTransform.REFLECT_REVERSE),
    TrendClass.CONCAVE_DECREASE: (-0.35, 0.02, ShapeTransform.REFLECT_REVERSE),
    TrendClass.RANDOM_FLUCTUATION: (0.0, 0.25, ShapeTransform.IDENTITY),
    TrendClass.PLATEAU: (0.0, 0.002, ShapeTransform.IDENTITY),
}


def preset(trend_class: TrendClass, n_points: int = 8, s0: float = 100.0) -> TrendSpec:
    """Default generator settings for a trend class.

    Tuned so that classify_trend recovers the class on the large majority
    of single draws at n_points >= 5 (resampling covers the rest).
    """
    drift, sigma, transform = _PRESET_TABLE[trend_class]
    mu = drift + sigma * sigma / 2.0
    return TrendSpec(trend_class, GbmParams(s0, mu, sigma, n_points), transform)


def gbm_path(params: GbmParams, seed: int) -> list:
    """One GBM path: Y_0 = s0 exactly, then the exponential of a drifted
    cumulative sum of standard normals (one normal per step)."""
    rng = Rng(seed)
    drift = params.drift
    w = 0.0
    ys = [params.s0]
    for i in range(1, params.n_points):
        w += rng.normal()
        ys.append(params.s0 * math.exp(drift * i + params.sigma * w))
    return ys


def apply_transform(series: Sequence[float], t: ShapeTransform) -> list:
    """Apply a symmetry transform.  The composite reflects about
    (max+min)/2, so the value envelope is preserved, then reverses time."""
    if len(series) == 0:
        raise EmptyInputError("cannot transform an empty series")
    if t is ShapeTransform.IDENTITY:
        return list(series)
    if t is ShapeTransform.REFLECT_REVERSE:
        m = max(series) + min(series)
        return list(reversed([m - y for y in series]))
    raise ParameterError(f"transform: unknown transform {t!r}")


# classify_trend's thresholds, all on the min-max-normalized series
SLOPE_MIN = 0.05
CURVATURE_MIN = 0.01
PLATEAU_REL_RANGE = 0.05
# fraction of point-to-point increments that must agree with the fitted
# slope's sign before a directional class is assigned
MIN_CONSISTENCY = 0.75
# draws synth_trend_series tries before giving up
MAX_RESAMPLES = 10


def classify_trend(series: Sequence[float]) -> TrendClass:
    """Classify a series into one of the eight trend classes.

    Rules, applied in order on the min-max-normalized series:
      1. zero range, or range below PLATEAU_REL_RANGE of |mean| -> plateau
      2. least-squares slope below SLOPE_MIN -> random-fluctuation
      3. fewer than MIN_CONSISTENCY of the increments agree with the slope
         -> random-fluctuation
      4. slope sign gives the direction; mean second difference below
         CURVATURE_MIN -> linear, otherwise its sign picks convex
         (positive) or concave (negative)
    """
    n = len(series)
    if n < 3:
        raise TooShortError(f"need >= 3 points to classify, got {n}")
    lo = min(series)
    hi = max(series)
    rng_ = hi - lo
    if rng_ == 0:
        return TrendClass.PLATEAU
    mean = sum(series) / n
    if mean != 0 and rng_ / abs(mean) < PLATEAU_REL_RANGE:
        return TrendClass.PLATEAU
    t = [i / (n - 1) for i in range(n)]
    u = [(y - lo) / rng_ for y in series]
    tb = sum(t) / n
    ub = sum(u) / n
    b = sum((ti - tb) * (ui - ub) for ti, ui in zip(t, u)) / sum(
        (ti - tb) ** 2 for ti in t
    )
    if abs(b) < SLOPE_MIN:
        return TrendClass.RANDOM_FLUCTUATION
    sgn = 1.0 if b > 0 else -1.0
    agree = sum(1 for i in range(n - 1) if (u[i + 1] - u[i]) * sgn > 0)
    if agree / (n - 1) < MIN_CONSISTENCY:
        return TrendClass.RANDOM_FLUCTUATION
    d2 = [u[i + 1] - 2 * u[i] + u[i - 1] for i in range(1, n - 1)]
    c = sum(d2) / len(d2)
    direction = "increase" if b > 0 else "decrease"
    if abs(c) < CURVATURE_MIN:
        return TrendClass[f"LINEAR_{direction.upper()}"]
    curv = "convex" if c > 0 else "concave"
    return TrendClass[f"{curv.upper()}_{direction.upper()}"]


def synth_trend_series(spec: TrendSpec, seed: int) -> list:
    """Generate a series guaranteed to classify as spec.trend_class.

    Each attempt draws a fresh path from a seed derived from (seed,
    attempt index), so the whole resampling loop is a pure function of the
    inputs.  Raises TrendUnrealizableError when the budget runs out.
    """
    if spec.params.n_points < 3:
        raise ParameterError(
            f"n_points: need >= 3 to verify a trend class, got {spec.params.n_points}"
        )
    for attempt in range(MAX_RESAMPLES):
        path_seed = derive_seed(seed, TAG_TREND_RESAMPLE, attempt)
        ys = apply_transform(gbm_path(spec.params, path_seed), spec.transform)
        if classify_trend(ys) is spec.trend_class:
            return ys
    raise TrendUnrealizableError(spec, MAX_RESAMPLES)

"""Link-function algebra for the three supported exponential-family models.

Each model is defined by its convex log-partition function A; A' maps
linear predictors to response means:

    linear    A(a) = a^2 / 2           A'(a) = a        mean set (-inf, inf)
    logistic  A(a) = log(e^-a + e^a)   A'(a) = tanh(a)  mean set (-1, 1)
    poisson   A(a) = e^a               A'(a) = e^a      mean set (0, inf)

Because A' is only onto the interior of the response-mean set, the estimator
first clips responses to [-tau2, tau2] and then projects them onto a closed
subset of that interior (an interval here), so that (A')^-1 stays defined.
`mechanism.preset_schedule` sets each model's subset at n.

A `LinkBundle` holds two functions of a model on arrays: A' (the payment
rule's predictions) and (A')^-1 (the estimator's working response). The
constants (kappa0, kappa1, kappa2, m_a, eps_mbar) are worst-case magnitudes
over the intervals the estimator actually touches of [(A')^-1]', (A')^-1,
A'', A' and the distance to the subset. Each of these is monotone (or
unimodal with a known peak) on those intervals for the three models, so
every maximum is attained at an interval endpoint and is computed in closed
form ("endpoint analysis") rather than by grid search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ConfigError

ArrayLike = Union[float, np.ndarray]

LINEAR = "linear"
LOGISTIC = "logistic"
POISSON = "poisson"
FAMILIES = (LINEAR, LOGISTIC, POISSON)


@dataclass(frozen=True)
class ModelKind:
    """One of the three supported response models.

    ``noise_std`` is the Gaussian noise level and only meaningful for the
    linear model. Zero noise is admitted as the degenerate
    deterministic-response case used by simulations.
    """

    family: str
    noise_std: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown model family {self.family!r}; expected one of {FAMILIES}")
        if self.family == LINEAR and not self.noise_std >= 0:
            raise ConfigError("linear model requires noise_std >= 0")

    @classmethod
    def linear(cls, noise_std: float = 1.0) -> "ModelKind":
        return cls(LINEAR, noise_std)

    @classmethod
    def logistic(cls) -> "ModelKind":
        return cls(LOGISTIC)

    @classmethod
    def poisson(cls) -> "ModelKind":
        return cls(POISSON)

    def to_json(self) -> dict:
        obj = {"model": self.family}
        if self.family == LINEAR:
            obj["noise_std"] = self.noise_std
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "ModelKind":
        """The model of a config's population; `noise_std` is a linear model's key only."""
        family = obj.get("model")
        if family not in FAMILIES:
            raise ConfigError(f"bad model entry {obj!r}")
        if "noise_std" not in obj:
            return cls(family)
        if family != LINEAR:
            raise ConfigError(f"key 'noise_std' is the linear model's noise; the {family} model "
                              "has none")
        return cls(family, float(obj["noise_std"]))


@dataclass(frozen=True)
class PolytopeSpec:
    """Closed interval [lower, upper] of admissible response means.

    Either endpoint may be infinite; infinities are kept as genuine float
    infinities in memory and serialized as the strings "-inf"/"inf" so the
    JSON form is unambiguous.
    """

    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self):
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ConfigError("polytope bounds must not be NaN")
        if self.lower > self.upper:
            raise ConfigError(f"polytope lower {self.lower} exceeds upper {self.upper}")

    def to_json(self) -> dict:
        def enc(v: float):
            if v == math.inf:
                return "inf"
            if v == -math.inf:
                return "-inf"
            return v

        return {"lower": enc(self.lower), "upper": enc(self.upper)}


@dataclass(frozen=True)
class LinkBundle:
    """A' and (A')^-1 of one model; each maps an array elementwise to an array."""

    A_prime: Callable[[ArrayLike], np.ndarray]
    A_prime_inv: Callable[[ArrayLike], np.ndarray]
    model: ModelKind


@dataclass(frozen=True)
class LinkConstants:
    """Worst-case link magnitudes over the intervals used by the estimator.

    kappa0   max |[(A')^-1]'| over M' union Mbar
    kappa1   max |(A')^-1|    over Mbar intersect [-tau2, tau2]
    kappa2   max |A''|        over [-tau_theta*tau1, tau_theta*tau1]
    m_a      max |A'|         over the same interval
    eps_mbar max distance from a clipped response to Mbar
    """

    kappa0: float
    kappa1: float
    kappa2: float
    m_a: float
    eps_mbar: float

    def __post_init__(self):
        for name in ("kappa0", "kappa1", "kappa2", "m_a", "eps_mbar"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ConfigError(f"link constant {name} = {v} is not finite and nonnegative")


# ---------------------------------------------------------------------------
# Per-model link functions
# ---------------------------------------------------------------------------

def _identity(a):
    # no copy: its callers pass arrays of their own
    return np.asarray(a, dtype=float)


def _logistic_A_prime(a):
    return np.tanh(np.asarray(a, dtype=float))


def _logistic_A_prime_inv(y):
    arr = np.asarray(y, dtype=float)
    if np.any(np.abs(arr) >= 1.0):
        raise ConfigError("logistic mean inverse requires |y| < 1")
    return np.arctanh(arr)


def _exp(a):
    return np.exp(np.asarray(a, dtype=float))


def _poisson_A_prime_inv(y):
    arr = np.asarray(y, dtype=float)
    if np.any(arr <= 0.0):
        raise ConfigError("poisson mean inverse requires y > 0")
    return np.log(arr)


def make_link_bundle(model: ModelKind) -> LinkBundle:
    """Closed-form link functions of the given model."""
    if model.family == LINEAR:
        return LinkBundle(_identity, _identity, model)
    if model.family == LOGISTIC:
        return LinkBundle(_logistic_A_prime, _logistic_A_prime_inv, model)
    return LinkBundle(_exp, _poisson_A_prime_inv, model)


# ---------------------------------------------------------------------------
# Response preprocessing
# ---------------------------------------------------------------------------

def clip_response(y: ArrayLike, tau2: float) -> np.ndarray:
    """sgn(y) * min(|y|, tau2); keeps the sign, caps the magnitude at tau2."""
    if not tau2 > 0:
        raise ConfigError("tau2 must be positive")
    arr = np.asarray(y, dtype=float)
    return np.sign(arr) * np.minimum(np.abs(arr), tau2)


def project_polytope(y_clipped: ArrayLike, spec: PolytopeSpec) -> np.ndarray:
    """Nearest point of [lower, upper]; an interval clamp."""
    return np.clip(np.asarray(y_clipped, dtype=float), spec.lower, spec.upper)


# ---------------------------------------------------------------------------
# Link constants via endpoint analysis
# ---------------------------------------------------------------------------

def _interval_distance(y: float, lower: float, upper: float) -> float:
    return max(0.0, lower - y, y - upper)


def compute_link_constants(
    bundle: LinkBundle,
    spec: PolytopeSpec,
    tau1: float,
    tau2: float,
    tau_theta: float,
) -> LinkConstants:
    """Evaluate the five worst-case constants for one (model, subset) pair.

    Maxima are taken at interval endpoints: on the relevant intervals
    |(A')^-1| and |[(A')^-1]'| are monotone in |y| for all three models,
    |A''| and |A'| are monotone in |a| (with the logistic |A''| peaking at 0,
    which every symmetric predictor interval contains), and the distance to
    an interval is convex in y. An infinite value, an empty intersection
    with the clip range, or a pole inside the subset signals an invalid
    subset choice and raises ConfigError.
    """
    if not (tau1 > 0 and tau2 > 0 and tau_theta > 0):
        raise ConfigError("tau1, tau2 and tau_theta must be positive")
    lo, hi = spec.lower, spec.upper
    T = tau_theta * tau1
    family = bundle.model.family

    # Mbar intersect [-tau2, tau2]
    ilo, ihi = max(lo, -tau2), min(hi, tau2)
    if ilo > ihi:
        raise ConfigError(
            f"subset [{lo}, {hi}] does not meet the clip range [-{tau2}, {tau2}]"
        )

    if family == LINEAR:
        kappa0 = 1.0
        kappa1 = max(abs(ilo), abs(ihi))
        kappa2 = 1.0
        m_a = T
        eps_mbar = max(0.0, lo + tau2, tau2 - hi)
        return LinkConstants(kappa0, kappa1, kappa2, m_a, eps_mbar)

    if family == LOGISTIC:
        edge = max(abs(lo), abs(hi))
        if edge >= 1.0:
            raise ConfigError(
                "logistic subset touches the pole of the inverse-mean derivative at |y| = 1"
            )
        # [(A')^-1]'(y) = 1 / (1 - y^2) is cosh(T)^2 at y = tanh(T), finite
        # where 1 - tanh(T)^2 rounds to 0 (T above 19.06); LinkConstants
        # refuses the inf it becomes above T = 355.6
        try:
            cosh_t = math.cosh(T)
        except OverflowError:
            cosh_t = math.inf
        kappa0 = max(cosh_t * cosh_t, 1.0 / (1.0 - edge * edge))
        kappa1 = max(abs(math.atanh(ilo)), abs(math.atanh(ihi)))
        kappa2 = 1.0
        m_a = math.tanh(T)
        candidates = [y for y in (-1.0, 1.0) if abs(y) <= tau2]
        eps_mbar = max((_interval_distance(y, lo, hi) for y in candidates), default=0.0)
        return LinkConstants(kappa0, kappa1, kappa2, m_a, eps_mbar)

    # poisson
    if lo <= 0.0:
        raise ConfigError(
            "poisson subset must stay strictly positive (pole of the inverse mean at 0)"
        )
    lower_reach = min(math.exp(-T), lo)  # exp underflows to 0 for huge ranges
    if lower_reach <= 0.0:
        raise ConfigError(
            "poisson inverse-mean derivative unbounded on the predictor range"
        )
    kappa0 = 1.0 / lower_reach
    kappa1 = max(abs(math.log(ilo)), abs(math.log(ihi)))
    try:
        peak = math.exp(T)
    except OverflowError:
        raise ConfigError("poisson mean unbounded on the predictor range")
    kappa2 = peak
    m_a = peak
    candidates = [0.0, float(math.floor(tau2))]
    eps_mbar = max(_interval_distance(y, lo, hi) for y in candidates)
    return LinkConstants(kappa0, kappa1, kappa2, m_a, eps_mbar)

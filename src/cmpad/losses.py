"""Loss functions for two-stream binary classifiers with analytic gradients.

Every loss here is an elementwise function of array arguments: a batch
is an (N,) array and a single sample a scalar, treated as a 0-d array.
Probabilities are clamped to [EPS, 1 - EPS] before any logarithm so all
values and derivatives stay finite on the closed unit interval.
Derivatives are returned alongside values so training code never has to
re-derive them, and `finite_diff_check` verifies them numerically.

Conventions:
  * labels: y = 0 attack, y = 1 bonafide
  * the cross-modal weight grows with the *other* branch's confidence,
    which shrinks the loss contribution of samples that branch already
    classifies well
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

EPS = 1e-7

# Denominator guard for the cross-modal weight at the (0, 0) corner.
_WEIGHT_DENOM_FLOOR = 1e-12


class NonDifferentiablePointError(ValueError):
    """Raised when a finite-difference probe would cross a clamp boundary."""


def _clamp(p):
    return np.minimum(np.maximum(p, EPS), 1.0 - EPS)


@dataclass(frozen=True)
class LossParams:
    """Weights of the combined objective.

    alpha_bonafide / alpha_attack are the per-class weights (the one
    matching the sample label is used); gamma is the focusing exponent;
    mix_lambda balances the joint-head term against the per-branch terms.
    detach_weight, when true, treats the cross-modal weight as a constant
    during differentiation instead of back-propagating through it.
    """

    alpha_bonafide: float = 1.0
    alpha_attack: float = 1.0
    gamma: float = 3.0
    mix_lambda: float = 0.5
    detach_weight: bool = False

    def __post_init__(self) -> None:
        for key in ("alpha_bonafide", "alpha_attack", "gamma"):
            if not getattr(self, key) >= 0:  # written so that NaN fails it
                raise ValueError(f"loss.{key} must be >= 0, got {getattr(self, key)!r}")
        if not 0.0 <= self.mix_lambda <= 1.0:
            raise ValueError(f"loss.mix_lambda must be in [0, 1], got {self.mix_lambda!r}")

    def alpha_for(self, y):
        """Per-sample class weight for labels y."""
        return np.where(np.asarray(y) == 1, self.alpha_bonafide, self.alpha_attack)


@dataclass(frozen=True)
class LossValue:
    """A loss value plus its partial derivatives, elementwise.

    The meaning of the slots follows the operation that produced it:
    single-argument losses populate d_p only; two-argument losses
    populate d_p and d_q; the combined objective fills all three with
    derivatives w.r.t. the raw head probabilities.
    """

    value: float | np.ndarray
    d_p: float | np.ndarray = 0.0
    d_q: float | np.ndarray = 0.0
    d_r: float | np.ndarray = 0.0


def target_prob(p, y):
    """Probability assigned to the true class: p when y=1, 1-p when y=0."""
    y = np.asarray(y)
    bad = (y != 0) & (y != 1)
    if bad.any():
        raise ValueError(f"label must be 0 or 1, got {y[bad].tolist()[0]!r}")
    return np.where(y == 1, p, 1.0 - p)


def binary_ce(p_t) -> LossValue:
    """Cross-entropy -log(p_t) with clamped argument; d_p is d/dp_t."""
    c = _clamp(p_t)
    return LossValue(value=-np.log(c), d_p=-1.0 / c)


def alpha_balanced_ce(p_t, alpha_t) -> LossValue:
    """Class-weighted cross-entropy -alpha_t * log(p_t)."""
    c = _clamp(p_t)
    return LossValue(value=-alpha_t * np.log(c), d_p=-alpha_t / c)


def focal_loss(p_t, alpha_t, gamma: float) -> LossValue:
    """Cross-entropy damped by (1 - p_t)^gamma.

    gamma = 0 reduces exactly to alpha_balanced_ce.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    c = _clamp(p_t)
    log_c = np.log(c)
    one_minus = 1.0 - p_t
    mod = one_minus**gamma
    value = -alpha_t * mod * log_c
    # d/dp_t of -a*(1-p)^g*log(p); the g*(1-p)^(g-1) term vanishes at g=0
    # and is left out where 1 - p_t = 0.
    d = -alpha_t * mod / c
    if gamma > 0:
        live = one_minus > 0
        safe = np.where(live, one_minus, 1.0)
        d = d + np.where(live, alpha_t * gamma * safe ** (gamma - 1.0) * log_c, 0.0)
    return LossValue(value=value, d_p=d)


def cross_modal_weight(p_t, q_t):
    """Harmonic mean of both target probabilities, scaled by the other
    branch's: q_t * 2*p_t*q_t / (p_t + q_t). Zero at the degenerate corner
    (the limit value)."""
    s = p_t + q_t
    w = q_t * (2.0 * p_t * q_t) / np.maximum(s, _WEIGHT_DENOM_FLOOR)
    return np.where(s >= _WEIGHT_DENOM_FLOOR, w, 0.0)


def cmfl(
    p_t,
    q_t,
    alpha_t=1.0,
    gamma: float = 3.0,
    detach_weight: bool = False,
) -> LossValue:
    """Cross-modal focal loss: -alpha_t * (1 - w(p_t, q_t))^gamma * log(p_t).

    The damping weight w grows with the other branch's confidence q_t, so
    a sample the other branch already classifies confidently contributes
    less here. gamma = 0 or q_t = 0 reduce exactly to alpha_balanced_ce.

    d_p / d_q differentiate through both arguments of w = 2*p*q^2/(p+q)
    unless detach_weight is set, in which case w is held constant.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    c = _clamp(p_t)
    log_c = np.log(c)
    w = cross_modal_weight(p_t, q_t)
    one_minus_w = np.maximum(1.0 - w, 0.0)
    mod = one_minus_w**gamma
    value = -alpha_t * mod * log_c

    d_p = -alpha_t * mod / c
    d_q = 0.0
    if gamma > 0 and not detach_weight:
        # the weight term is left out where w saturates at 1 and at the
        # degenerate corner, where w is held at its limit 0
        s = p_t + q_t
        live = (one_minus_w > 0) & (s >= _WEIGHT_DENOM_FLOOR)
        s = np.where(live, s, 1.0)
        common = np.where(
            live,
            alpha_t * gamma * np.where(live, one_minus_w, 1.0) ** (gamma - 1.0) * log_c,
            0.0,
        )
        d_p = d_p + common * (2.0 * q_t**3 / s**2)
        d_q = common * (2.0 * p_t * q_t * (2.0 * p_t + q_t) / s**2)
    return LossValue(value=value, d_p=d_p, d_q=d_q)


def combined_loss(p, q, r, y, params: LossParams) -> LossValue:
    """Full objective per sample:

        (1 - lambda) * CE(r_t) + lambda * (CMFL(p_t, q_t) + CMFL(q_t, p_t))

    The joint-head term is plain (unweighted) cross-entropy. Returned
    derivatives are w.r.t. the raw head probabilities p, q, r.
    """
    lam = params.mix_lambda
    alpha_t = params.alpha_for(y)
    p_t = target_prob(p, y)
    q_t = target_prob(q, y)
    r_t = target_prob(r, y)
    # d(target)/d(raw): +1 for bonafide, -1 for attack.
    sign = np.where(np.asarray(y) == 1, 1.0, -1.0)

    joint = binary_ce(r_t)
    branch_p = cmfl(p_t, q_t, alpha_t, params.gamma, params.detach_weight)
    branch_q = cmfl(q_t, p_t, alpha_t, params.gamma, params.detach_weight)

    value = (1.0 - lam) * joint.value + lam * (branch_p.value + branch_q.value)
    d_p = lam * (branch_p.d_p + branch_q.d_q) * sign
    d_q = lam * (branch_p.d_q + branch_q.d_p) * sign
    d_r = (1.0 - lam) * joint.d_p * sign
    return LossValue(value=value, d_p=d_p, d_q=d_q, d_r=d_r)


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    analytic: tuple[float, ...]
    numeric: tuple[float, ...]
    rel_errors: tuple[float, ...] = field(default=())


def _rel_error(a: float, n: float) -> float:
    denom = max(abs(a), abs(n))
    if denom < 1e-7:
        return 0.0
    return abs(a - n) / denom


def finite_diff_check(
    fn: Callable[[Sequence[float]], LossValue],
    point: Sequence[float],
    h: float = 1e-6,
    bounds: tuple[float, float] = (EPS, 1.0 - EPS),
) -> GradCheckReport:
    """Compare fn's analytic gradient against central differences.

    fn maps a coordinate vector to a LossValue whose d_p/d_q/d_r slots
    (in order, as many as there are coordinates) hold the analytic
    partials. Each coordinate must sit strictly inside `bounds` with a
    margin of h, otherwise the probe crosses the clamp kink.
    """
    lo, hi = bounds
    xs = [float(x) for x in point]
    for x in xs:
        if not (lo + h < x < hi - h):
            raise NonDifferentiablePointError("non-differentiable point")

    base = fn(xs)
    analytic = (base.d_p, base.d_q, base.d_r)[: len(xs)]
    numeric = []
    for i in range(len(xs)):
        plus = list(xs)
        minus = list(xs)
        plus[i] += h
        minus[i] -= h
        numeric.append((fn(plus).value - fn(minus).value) / (2.0 * h))
    rel = tuple(_rel_error(a, n) for a, n in zip(analytic, numeric))
    return GradCheckReport(
        max_rel_error=max(rel) if rel else 0.0,
        analytic=tuple(analytic),
        numeric=tuple(numeric),
        rel_errors=rel,
    )

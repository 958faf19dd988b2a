"""Membership diagnostics for the weighted smoothness classes.

Everything here measures, on finite data, the quantities the function-space
characterizations bound: mode-coefficient decay with derivative stacks
(:func:`fit_decay`), the spectral-side seminorm table S(M, k)
(:func:`pm_seminorms`), physical-side weighted sup norms through exact
Hermite ladder identities (:func:`x_seminorms`), the polynomial-versus-
exponential envelope constant (:func:`lemma25_check`), and the Gevrey-order
bookkeeping of a solve (:func:`regularity_loss_report`).

All fits are ordinary least squares on log quantities over explicit windows
-- transparent and reproducible, no robust regression.  Values below 1e-300
are floored out of every fit (denormal pollution).  Finite data never proves
membership: every report carries its window and goodness, and claims are
suppressed when r^2 < 0.9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import csvio
from .errors import ConfigError, HypotorusError
from .modes import ModeField
from .spectrum import EigenSequence, HermiteBasis, ladder_diff_x, ladder_mul_x, _phi_matrix

__all__ = [
    "DegenerateData",
    "DimensionUnsupported",
    "GSParams",
    "DecayFit",
    "PMTable",
    "Lemma25Result",
    "fit_decay",
    "pm_seminorms",
    "x_seminorms",
    "lemma25_check",
    "regularity_loss_report",
]

_FLOOR = 1e-300
_R2_CLAIM = 0.9


class DegenerateData(HypotorusError, ValueError):
    """Every coefficient sits below the 1e-300 floor; nothing to fit."""

    exit_code = 3


class DimensionUnsupported(HypotorusError, ValueError):
    """Physical-side seminorms are implemented for one x-dimension only."""


# --------------------------------------------------------------------------- #
# parameters
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class GSParams:
    """Class parameters (mu, sigma) with the operator's (n, m).

    The derived index exponent e = 1/(2 n mu) drives every decay fit:
    coefficients of a member decay like exp(-eps * j^e).
    """

    mu: object          # Fraction or float, mu >= 1/2
    sigma: float        # sigma > 1
    n: int = 1          # x-dimension
    m: int = 2          # operator order

    def __post_init__(self):
        mu = float(self.mu)
        if not (mu >= 0.5 and math.isfinite(mu)):
            raise ValueError(f"mu >= 1/2 required, got {self.mu!r}")
        if not (self.sigma > 1.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma > 1 required, got {self.sigma!r}")
        if self.n < 1 or self.m < 1:
            raise ValueError(f"n >= 1 and m >= 1 required, got n={self.n}, m={self.m}")
        if not (0.0 < self.e <= 1.0):
            raise ValueError(f"exponent e = 1/(2 n mu) = {self.e} escapes (0, 1]")

    @property
    def e(self) -> float:
        return 1.0 / (2.0 * self.n * float(self.mu))


def _exp(x: float) -> float:      # math.exp, with inf where that overflows
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# --------------------------------------------------------------------------- #
# least squares helpers
# --------------------------------------------------------------------------- #

def ols(y, *xs) -> tuple:
    """Least squares y ~ b_1 x_1 + ... + b_k x_k + c; returns (b_1, ..., b_k, c, r^2).

    Every fit in the package goes through here: decay and seminorm growth,
    the Liouville windows, the witness forcing decay.  The data are shifted
    (y by its first value, each regressor by its mean) before the solve, so
    power-law abscissae such as (j+1)^e stay well conditioned, near-flat y
    keeps its digits, and a constant y gives slopes of exactly 0.  A
    regressor that takes a single value carries no slope: its coefficient is
    0, and when no regressor varies the fit is the mean of y with r^2 = 1.
    """
    y = np.asarray(y, dtype=np.float64)
    X = np.column_stack([np.asarray(x, dtype=np.float64) for x in xs])
    flat = np.ptp(X, axis=0) == 0.0
    mx = X.mean(axis=0)
    Xc = np.where(flat, 0.0, X - mx)
    y0 = float(y[0])
    my = float(np.mean(y - y0))
    yc = y - y0 - my
    coef = np.linalg.lstsq(Xc, yc, rcond=None)[0]
    ss_res = float(np.sum((yc - Xc @ coef) ** 2))
    ss_tot = float(yc @ yc)
    r2 = 1.0 if flat.all() or ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return (*coef.tolist(), y0 + my - float(mx @ coef), r2)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp along ``axis`` with -inf-safe shifting."""
    m = np.max(a, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(under="ignore"):
        s = np.sum(np.exp(a - m_safe), axis=axis)
    out = np.squeeze(m_safe, axis=axis) + np.log(s, where=s > 0,
                                                 out=np.full(s.shape, -np.inf))
    return np.where(np.squeeze(np.isfinite(m), axis=axis), out, -np.inf)


# --------------------------------------------------------------------------- #
# coefficient decay
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class DecayFit:
    """Fitted exp(-epsilon j^e) decay plus the derivative-growth order.

    ``sigma_fit`` is the literal single-regressor slope of the documented
    recipe (log sup-stack over log k!); ``sigma_fit_joint`` additionally
    regresses against k so a C^k prefactor cannot masquerade as factorial
    growth.  ``reliable`` gates every claim on r^2 >= 0.9.
    """

    epsilon: float
    C: float
    sigma_fit: float
    sigma_fit_joint: float
    r2: float
    r2_sigma: float
    window: tuple
    n_used: int
    sub_exponential: bool
    note: str = ""

    @property
    def reliable(self) -> bool:
        return math.isfinite(self.epsilon) and self.r2 >= _R2_CLAIM

    def as_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "C": self.C,
            "sigma_fit": self.sigma_fit,
            "sigma_fit_joint": self.sigma_fit_joint,
            "r2": self.r2,
            "r2_sigma": self.r2_sigma,
            "window": list(self.window),
            "n_used": self.n_used,
            "sub_exponential": self.sub_exponential,
            "reliable": self.reliable,
            "note": self.note,
        }


def _derivative_stack(field: ModeField, k_max: int) -> list:
    """[u, d_t u, ..., d_t^k_max u]; a second stack of the same field reuses
    the first one's fields (ModeField.derivative keeps its result)."""
    stack = [field]
    for _ in range(k_max):
        stack.append(stack[-1].derivative())
    return stack


def fit_decay(field: ModeField, params: GSParams, k_max: int = 4,
              window: Optional[tuple] = None) -> DecayFit:
    """Fit sup_t|u_j| ~ C exp(-epsilon (j+1)^e) and the k-derivative order.

    Needs J >= 32 modes for an asymptotic claim.  Modes below the 1e-300
    floor (or undefined) are excluded; if fewer than eight usable modes
    remain the data is finite-support and no asymptotic fit is attempted.
    Sub-exponential decay is flagged by slope collapse: the fitted rate over
    the upper half of the window falling below half the rate over the lower
    half (an exact exponential keeps them equal; (j+1)^{-p} does not).
    """
    J = field.J
    if J < 32:
        raise ConfigError(f"fit_decay needs J >= 32 modes, got {J}")
    if k_max < 0:
        raise ValueError("k_max >= 0 required")
    lo, hi = window if window is not None else (0, J)
    if not (0 <= lo < hi <= J):
        raise ValueError(f"window {window} escapes [0, {J}]")

    # sups[k][j] = sup_t |d_t^k u_j| (NaN where the mode is undefined)
    sups = [d.sup_norms() for d in _derivative_stack(field, k_max)]
    s0 = sups[0]
    usable = [j for j in range(lo, hi)
              if not math.isnan(s0[j]) and s0[j] > _FLOOR]
    if not usable:
        raise DegenerateData(
            "all coefficients in the window sit below the 1e-300 floor")

    if len(usable) < 8:
        return DecayFit(
            epsilon=math.inf, C=float("nan"), sigma_fit=float("nan"),
            sigma_fit_joint=float("nan"), r2=0.0, r2_sigma=0.0,
            window=(min(usable), max(usable)), n_used=len(usable),
            sub_exponential=False,
            note=(f"finite support: only {len(usable)} usable modes; "
                  "no asymptotic fit"))

    ju = np.array(usable, dtype=np.float64)
    x = (ju + 1.0) ** params.e
    y = -np.log(s0[usable].astype(np.float64))
    eps, intercept, r2 = ols(y, x)
    C = _exp(-intercept)

    half = len(usable) // 2
    eps_lo, _, _ = ols(y[:half], x[:half])
    eps_hi, _, _ = ols(y[half:], x[half:])
    sub_exp = bool(eps_hi < 0.5 * eps_lo) if eps_lo > 1e-12 else bool(eps <= 1e-12)

    # derivative-growth order: sup over modes per k, against log k!
    cols = np.array(sups)[:, usable]
    tops = np.where(np.isnan(cols), 0.0, cols).max(axis=1).tolist()
    ks = [k for k, top in enumerate(tops) if top > _FLOOR]
    note = ""
    if len(ks) >= 2:
        lk = np.array([math.lgamma(k + 1) for k in ks])
        z = np.array([math.log(tops[k]) - math.log(C) for k in ks]) if C > 0 \
            else np.array([math.log(tops[k]) for k in ks])
        sigma, _, r2_sigma = ols(z, lk)
        zz = np.array([math.log(tops[k]) for k in ks])
        sigma_joint, _, _, _ = ols(zz, lk, ks)
    else:
        sigma = sigma_joint = float("nan")
        r2_sigma = 0.0
        note = "derivative stack degenerate (all k >= 1 at floor); sigma undefined"

    return DecayFit(epsilon=float(eps), C=float(C), sigma_fit=float(sigma),
                    sigma_fit_joint=float(sigma_joint), r2=float(r2),
                    r2_sigma=float(r2_sigma),
                    window=(int(min(usable)), int(max(usable))),
                    n_used=len(usable), sub_exponential=sub_exp, note=note)


# --------------------------------------------------------------------------- #
# spectral-side seminorms
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class PMTable:
    """Table S(M, k) = sup_t (sum_j lambda_j^{2M} |d_t^k u_j(t)|^2)^{1/2}.

    ``slope_M`` / ``slope_k`` are the joint-fit growth orders of log S
    against M log M (resp. k log k) with a linear term absorbing the C^M
    (C^k) prefactor; the literal single-regressor slopes of the documented
    recipe are kept as ``slope_M_raw`` / ``slope_k_raw``.  ``tail_share`` is
    the largest fraction of S^2 carried by the last stored mode at M_max --
    the truncation-tail witness.
    """

    values: np.ndarray = dc_field(repr=False)
    M_max: int
    k_max: int
    slope_M: float
    slope_M_raw: float
    r2_M: float
    slope_k: float
    slope_k_raw: float
    r2_k: float
    tail_share: float

    def to_csv(self) -> str:
        M, k = np.indices(self.values.shape)
        return csvio.text(("M", "k", "S"), M.ravel(), k.ravel(), self.values.ravel())

    def as_dict(self) -> dict:
        return {
            "M_max": self.M_max,
            "k_max": self.k_max,
            "slope_M": self.slope_M,
            "slope_M_raw": self.slope_M_raw,
            "r2_M": self.r2_M,
            "slope_k": self.slope_k,
            "slope_k_raw": self.slope_k_raw,
            "r2_k": self.r2_k,
            "tail_share": self.tail_share,
            "values": self.values,
        }


def pm_seminorms(u: ModeField, eigs: EigenSequence, M_max: int = 8,
                 k_max: int = 4) -> PMTable:
    """Spectral-side seminorm table, computed in log space throughout.

    lambda_J^{2M} overflows doubles long before interesting M, so each
    S(M, k) is assembled as a shifted log-sum-exp over modes and only the
    final value is exponentiated.  Undefined (None) modes are treated as
    absent.  The growth fits feed the membership comparison: the M-slope
    targets mu*m and the k-slope targets sigma.
    """
    if M_max < 0 or k_max < 0:
        raise ValueError("M_max >= 0 and k_max >= 0 required")
    J = u.J
    lam = np.abs(np.asarray(eigs.lambdas[:J], dtype=np.float64))
    with np.errstate(divide="ignore"):
        loglam = np.log(lam)

    # stack of log|d_t^k u_j(t)|, -inf where zero or undefined
    logabs = []
    for d in _derivative_stack(u, k_max):
        a = np.abs(d.samples)
        mat = np.full(a.shape, -np.inf)
        np.log(a, where=(a > 0.0) & d.mask[:, None], out=mat)
        logabs.append(mat)

    values = np.zeros((M_max + 1, k_max + 1))
    tail_share = 0.0
    # index of the last mode that is present at all
    alive = np.flatnonzero(np.isfinite(logabs[0]).any(axis=1))
    j_last = int(alive[-1]) if alive.size else None
    for M in range(M_max + 1):
        w = np.zeros(J) if M == 0 else 2.0 * M * loglam
        for k in range(k_max + 1):
            lt = w[:, None] + 2.0 * logabs[k]
            log_s2 = _logsumexp(lt, axis=0)           # per grid time
            peak = float(np.max(log_s2))
            values[M, k] = 0.0 if peak == -np.inf else _exp(0.5 * peak)
            if M == M_max and j_last is not None and peak > -np.inf:
                t_star = int(np.argmax(log_s2))
                share = lt[j_last, t_star] - log_s2[t_star]
                if math.isfinite(share):
                    tail_share = max(tail_share, math.exp(share))

    def growth_fit(ys: np.ndarray, idx: np.ndarray):
        keep = ys > 0.0
        if keep.sum() < 3:
            return float("nan"), float("nan"), float("nan")
        xi = idx[keep].astype(np.float64)
        x1 = xi * np.log(np.maximum(xi, 1.0))
        yv = np.log(ys[keep])
        raw, _, _ = ols(yv, x1)
        joint, _, _, r2 = ols(yv, x1, xi)
        return joint, raw, r2

    slope_M, slope_M_raw, r2_M = growth_fit(values[:, 0], np.arange(M_max + 1))
    slope_k, slope_k_raw, r2_k = growth_fit(values[0, :], np.arange(k_max + 1))

    return PMTable(values=values, M_max=M_max, k_max=k_max,
                   slope_M=slope_M, slope_M_raw=slope_M_raw, r2_M=r2_M,
                   slope_k=slope_k, slope_k_raw=slope_k_raw, r2_k=r2_k,
                   tail_share=tail_share)


# --------------------------------------------------------------------------- #
# physical-side seminorms
# --------------------------------------------------------------------------- #

def x_seminorms(u: ModeField, basis: HermiteBasis, alpha: int, beta: int,
                k: int) -> float:
    """Grid sup of |x^alpha d_x^beta d_t^k u(t, x)| via exact ladders.

    The x-operators act on Hermite coefficients exactly (each application of
    x or d/dx maps mode j to modes j +- 1 with square-root weights), so the
    only approximations are the t-spectral derivative and the synthesis
    grid.  One dimension only; alpha, beta <= 8 keeps this a sanity check,
    not an asymptotic claim.
    """
    if u.eigs.n != 1:
        raise DimensionUnsupported(
            f"x seminorms need n = 1 eigenfunctions, got n = {u.eigs.n}")
    if not (0 <= alpha <= 8 and 0 <= beta <= 8):
        raise ValueError(f"alpha, beta in [0, 8] required, got ({alpha}, {beta})")
    if k < 0:
        raise ValueError("k >= 0 required")
    J = u.J
    if J > basis.J:
        raise ValueError(f"field holds {J} modes but the basis only {basis.J}")

    coeff = _derivative_stack(u, k)[-1].samples    # undefined modes are zero rows

    # transfer matrix of x^alpha d_x^beta on the first J coefficients
    T = np.eye(J)
    for _ in range(beta):
        T = np.stack([ladder_diff_x(T[:, c]) for c in range(J)], axis=1)
    for _ in range(alpha):
        T = np.stack([ladder_mul_x(T[:, c]) for c in range(J)], axis=1)
    out_modes = T.shape[0]

    half = math.sqrt(2.0 * out_modes + 1.0) + 2.0
    xs = np.linspace(-half, half, 4001)
    phi = _phi_matrix(out_modes, xs)
    vals = phi @ (T @ coeff)                       # (x, t)
    return float(np.max(np.abs(vals)))


# --------------------------------------------------------------------------- #
# the envelope constant of the polynomial-vs-exponential bound
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Lemma25Result:
    """C(l) table for j^{l gamma} e^{-eps j^{1/s}} <= C^l (l!)^{s gamma}."""

    gamma: float
    s: float
    epsilon: float
    ell_max: int
    j_max: int
    C_of_ell: tuple
    j_star: tuple
    C_max: float
    bounded: bool

    def as_dict(self) -> dict:
        return {
            "gamma": self.gamma, "s": self.s, "epsilon": self.epsilon,
            "ell_max": self.ell_max, "j_max": self.j_max,
            "C_of_ell": list(self.C_of_ell), "j_star": list(self.j_star),
            "C_max": self.C_max, "bounded": self.bounded,
        }


def lemma25_check(gamma: float, s: float, epsilon: float, ell_max: int = 20,
                  j_max: int = 10 ** 6) -> Lemma25Result:
    """Best constants of the envelope bound, by exact unimodal maximization.

    h(j) = l gamma log j - eps j^{1/s} is unimodal over j >= 1 with its
    stationary point at j* = (l gamma s / eps)^s, so the integer maximum is
    attained at floor/ceil of j* (clamped to [1, j_max]); no scan needed.
    C(l) = exp((max_j h(j) - s gamma log l!)/l), with C(0) = 1 by convention.
    """
    if not (gamma > 0.0 and s > 0.0 and epsilon > 0.0):
        raise ValueError(
            f"gamma, s, epsilon > 0 required, got ({gamma}, {s}, {epsilon})")
    if ell_max < 0 or j_max < 1:
        raise ValueError("ell_max >= 0 and j_max >= 1 required")

    def h(j: float, ell: int) -> float:
        return ell * gamma * math.log(j) - epsilon * j ** (1.0 / s)

    cs = [1.0]
    stars = [0]
    for ell in range(1, ell_max + 1):
        j_opt = (ell * gamma * s / epsilon) ** s
        cands = {1, j_max,
                 min(max(int(math.floor(j_opt)), 1), j_max),
                 min(max(int(math.ceil(j_opt)), 1), j_max)}
        best_j = max(cands, key=lambda j: h(float(j), ell))
        h_max = h(float(best_j), ell)
        cs.append(math.exp((h_max - s * gamma * math.lgamma(ell + 1)) / ell))
        stars.append(best_j)

    c_arr = np.array(cs)
    finite = bool(np.all(np.isfinite(c_arr)))
    if ell_max >= 4:
        half = ell_max // 2
        growth_ok = float(np.max(c_arr[half:])) <= 2.0 * float(np.max(c_arr[1:half + 1]))
    else:
        growth_ok = True
    return Lemma25Result(gamma=gamma, s=s, epsilon=epsilon, ell_max=ell_max,
                         j_max=j_max, C_of_ell=tuple(cs), j_star=tuple(stars),
                         C_max=float(np.max(c_arr)), bounded=finite and growth_ok)


# --------------------------------------------------------------------------- #
# loss of regularity
# --------------------------------------------------------------------------- #

def regularity_loss_report(f_fit: DecayFit, u_fit: DecayFit,
                           params: GSParams) -> dict:
    """Compare the solved field's Gevrey order against the predicted bound.

    The theory caps the solution's t-order at max(sigma(f), m mu): constant
    coefficients lose nothing, variable ones at most lift the order to m mu.
    Flags are tolerant of fit noise (0.25 on the order scale) and only raised
    on reliable fits.
    """
    for name, fit in (("f", f_fit), ("u", u_fit)):
        if not (fit.r2 >= _R2_CLAIM or math.isinf(fit.epsilon)):
            raise ValueError(
                f"{name}-fit has r2 = {fit.r2:.3f} < {_R2_CLAIM}; refusing to "
                f"compare unreliable Gevrey orders")
    tol = 0.25
    bound = max(f_fit.sigma_fit, float(params.m) * float(params.mu))
    s_u, s_f = u_fit.sigma_fit, f_fit.sigma_fit
    within = bool(s_u <= bound + tol) if math.isfinite(s_u) else True
    loss = bool(s_u > s_f + tol) if (math.isfinite(s_u) and math.isfinite(s_f)) \
        else False
    ratio = (u_fit.epsilon / f_fit.epsilon
             if f_fit.epsilon not in (0.0,) and math.isfinite(f_fit.epsilon)
             and math.isfinite(u_fit.epsilon) else float("nan"))
    return {
        "sigma_f": s_f,
        "sigma_u": s_u,
        "bound_sigma": bound,
        "within_bound": within,
        "loss_detected": loss,
        "epsilon_ratio": ratio,
        "tolerance": tol,
        "note": ("constant-coefficient solves should show sigma_u ~ sigma_f; "
                 "variable ones may climb to the bound"),
    }

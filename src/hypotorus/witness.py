"""Witness constructions: explicit mode pairs (u_j, f_j) certifying non-GH.

Each constructor returns a :class:`WitnessBundle` holding a sparse subsequence
of modes j_l where the mode equation

    u' + i*lambda_j*c(t)*u = f_j          (see :func:`modes.apply_operator`)

is satisfied with sup|u_{j_l}| bounded below by a positive constant while
sup|f_{j_l}| decays exponentially (or vanishes): regular data forced through
an irregular solution, which is exactly the failure of global hypoellipticity.
Texts that write the operator with D_t = -i d/dt list a forcing that differs
from ours by a factor of i; no modulus, norm, or decay rate changes.

Constructors
------------
``constant_witness``
    c constant: pure exponentials ``u = e^{-i tau t}`` along a resonant
    subsequence (f = 0) or a Liouville-certified one (|f| = certified gap).
``sign_change_witness``
    Im c changes sign: a Gevrey bump times ``exp[lambda*(B - iA)]`` anchored
    where the primitive of Im c peaks; forcing supported where the primitive
    is uniformly below the peak.
``plateau_witness``
    Im c vanishes identically on an interval with a (+, 0, -) sign pattern
    around it: two-bump variant anchored at the interval endpoints.
``L0_reduction_witness``
    c real-valued with exponential-Liouville mean: phase-only transport of a
    fixed bump, with amplitudes pinned by the certificate gaps.

Numerics
--------
Real parts of every evaluated exponent are <= 0 by construction, so ``exp``
may underflow to zero but can never overflow, and no exponent needs a
guard.  A bundle samples the levels its grid resolves (bandwidth below
~0.45 of Nyquist) as S rows of u on the N-grid and of the forcing f on its
K columns ``f_cols``, the only columns where f can be nonzero: the bump
kinds' transition bands (at N = 8192, 49% of the grid for b sin t and 24%
for b sin 3t), none for a resonant constant witness, all N for the
Liouville routes.  It holds a recipe for those rows, never the (S, N)
store: the bump kinds keep their bumps, bands and window exponents and
fill new arrays of u and f one :func:`modes.row_chunks` block at a time,
broadcasting lambda over the window exponents; the constant and L0 kinds,
a few rows each, keep their small arrays behind the same row interface.
Each bump's exp(lambda E) is taken once per fill, on its support and
transition bands only, and feeds both u and f.  Along an arithmetic
spectrum (harmonic1d, an arithmetic table) a chunk of levels lambda_lo +
r delta takes one exp per bump, exp(lambda_lo E), times a table of
exp(r delta E) built once: each entry is one product of two exps, within
~3 |lambda E| eps relative of the direct exp, which every other spectrum
keeps.  The sign-change window is scored for all N
window starts at once from two sparse range tables (first argmax and min,
int32 indices) over the 2N-point cover: O(N log N), and the same window as
a scan of every start.  The row recipe checks itself: ``rows.scan(c)``
makes one pass over the chunks, filling each, taking its rows' grid sup
norms over whole rows and its residuals with
:func:`modes.operator_residuals`; the one hook of the pass is a probe that
sees each chunk's u (the sign-change anchor check |u(t*)| = 1).
Construction scans once, completes the levels, the floor and the decay
record, and builds the report of every check; a bundle exists only once
that report passes, and keeps it as ``WitnessBundle.report``.
:meth:`WitnessBundle.verify` scans the same recipe again and recomputes
that report on demand.  Two identical workers share the pass, the
calling thread and one helper thread: each claims the next chunk in chunk
order and fills, probes, measures and checks it, so at most two chunks
are alive, an error surfaces as a serial pass would raise it, and the
helper ends with the pass.  Levels beyond the grid band carry
``residual=None`` and are verified on their closed form in exact rational
arithmetic.
"""

from __future__ import annotations

import cmath
import itertools
import math
import os
import threading
from dataclasses import dataclass, field, replace
from fractions import Fraction
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from . import csvio
from .diagnostics import ols
from .diophantine import LiouvilleCertificate, RationalVerdict, classify_rational
from .errors import ConfigError, WitnessError
from .jsonio import plain, unlimited_int_digits, write as write_json
from .modes import index_runs, operator_residuals, row_chunks
from .spectrum import EigenSequence, _nd_count_below
from .torusfn import TorusFunction, grid

__all__ = [
    "NoCertificate",
    "PartitionNotFound",
    "PatternNotFound",
    "WitnessBudgetMiss",
    "WitnessCheckFailed",
    "GevreyBump",
    "gevrey_bump",
    "WitnessLevel",
    "DecayRecord",
    "WitnessBundle",
    "constant_witness",
    "sign_change_witness",
    "plateau_witness",
    "L0_reduction_witness",
]

#: per-mode residual tolerance for the grid-verified constructions
TOL_RESIDUAL = 1e-7
#: tighter tolerance for the constant-coefficient construction (pure modes)
TOL_RESIDUAL_CONSTANT = 1e-9
#: the residual tolerance of each bundle kind: construction and verify() read it
TOL_BY_KIND = {"constant": TOL_RESIDUAL_CONSTANT, "sign-change": TOL_RESIDUAL,
               "plateau": TOL_RESIDUAL, "l0-reduction": TOL_RESIDUAL}
#: fraction of the Nyquist frequency a level's bandwidth may occupy before we
#: refuse to verify it on the grid
_BAND_FRACTION = 0.45
#: sampled values smaller than this are treated as exact zeros by the decay fit
_FIT_FLOOR = 1e-300


class NoCertificate(WitnessError, ValueError):
    """alpha cannot back a witness: no resonance and no verified certificate."""


class PartitionNotFound(WitnessError, RuntimeError):
    """grid search found no positive margin for the sign-change partition."""


class PatternNotFound(WitnessError, RuntimeError):
    """the (+, 0, -) plateau pattern is absent at grid resolution."""


class WitnessCheckFailed(WitnessError, RuntimeError):
    """A built witness fails one of its own checks."""


class WitnessBudgetMiss(WitnessCheckFailed):
    """A built witness misses its residual budget on its N-point grid."""

    def __init__(self, kind: str, max_residual: float, tol: float, N: int):
        self.kind, self.max_residual, self.tol, self.N = kind, max_residual, tol, N
        super().__init__(
            f"{kind} witness misses its residual budget at N = {N}: max residual "
            f"{max_residual:.3e} > tolerance {tol:.1e}; a larger witness_n may meet it")


# --------------------------------------------------------------------------- #
# Gevrey bump factory
# --------------------------------------------------------------------------- #

def _ramp(x: np.ndarray, sigma: float) -> np.ndarray:
    """The flat ramp r(x) = exp(-x^(-1/(sigma-1))) for x > 0, else 0."""
    out = np.zeros_like(x)
    pos = x > 0.0
    p = 1.0 / (sigma - 1.0)
    with np.errstate(over="ignore", divide="ignore", under="ignore"):
        # x^-p overflows to inf for tiny x; exp(-inf) = 0 is the right limit
        out[pos] = np.exp(-np.power(x[pos], -p))
    return out


def _step(x: np.ndarray, sigma: float) -> np.ndarray:
    """Smoothed step: exactly 0 for x <= 0, exactly 1 for x >= 1.

    s(x) = r(x) / (r(x) + r(1-x)) with the ramp above; strictly increasing on
    (0, 1), and s(x) + s(1-x) = 1, which the plateau witness uses to make two
    bumps sum to one across a shared transition band.
    """
    lo = _ramp(x, sigma)
    hi = _ramp(1.0 - x, sigma)
    out = np.empty_like(x)
    out[x <= 0.0] = 0.0
    out[x >= 1.0] = 1.0
    mid = (x > 0.0) & (x < 1.0)
    out[mid] = lo[mid] / (lo[mid] + hi[mid])
    return out


@dataclass(frozen=True)
class GevreyBump:
    """Compactly supported Gevrey-class cutoff on the circle.

    Exactly 0 outside ``support`` = [alpha, beta], exactly 1 on ``plateau`` =
    [gamma, delta], monotone on the two transition bands, values in [0, 1]
    everywhere -- and all four statements hold at grid points by construction,
    not up to rounding.  ``samples`` carries the N-grid trace, the only
    form in which the bump is used.
    """

    sigma: float
    support: tuple[float, float]
    plateau: tuple[float, float]
    samples: TorusFunction

    def summary(self) -> dict:
        return {
            "sigma": self.sigma,
            "support": [self.support[0], self.support[1]],
            "plateau": [self.plateau[0], self.plateau[1]],
            "n": self.samples.n,
        }


def gevrey_bump(sigma: float, support: Sequence[float], plateau: Sequence[float],
                N: int = 256) -> GevreyBump:
    """Build the standard flat-function bump of Gevrey order ``sigma``.

    Two smoothed steps are multiplied: one rising across [alpha, gamma], one
    falling across [delta, beta].  Each step is a ratio of the flat ramp
    r(x) = exp(-x^(-1/(sigma-1))), so the result is Gevrey-sigma; sigma <= 1
    is rejected because analytic compactly-supported cutoffs do not exist.
    """
    sigma = float(sigma)
    if not sigma > 1.0:
        raise ValueError(
            f"sigma must exceed 1 (got {sigma}): analytic flat cutoffs do not exist")
    a, b = float(support[0]), float(support[1])
    g, d = float(plateau[0]), float(plateau[1])
    if not (0.0 < a < g < d < b < 2.0 * math.pi):
        raise ValueError(
            f"need 0 < alpha < gamma < delta < beta < 2*pi, got "
            f"support=({a}, {b}), plateau=({g}, {d})")
    t = grid(N)
    vals = _step((t - a) / (g - a), sigma) * _step((b - t) / (b - d), sigma)
    return GevreyBump(sigma=sigma, support=(a, b), plateau=(g, d),
                      samples=TorusFunction.from_samples(vals))


# --------------------------------------------------------------------------- #
# bundle containers
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class WitnessLevel:
    """One active mode of a witness.

    ``row`` is the level's row in its bundle's sampled rows when the
    level's bandwidth fits the grid; otherwise it is None and the level is
    described by its closed form (``freq`` for the constant construction)
    with ``residual=None`` and a note saying how the identity was verified.
    ``sup_u``/``sup_f`` are exact where the construction pins them (1.0, 0.0,
    |gap|) and grid maxima otherwise, which the bundle's construction pass
    fills in where a construction leaves them None.
    """

    j: int
    lam: float
    sup_u: float
    sup_f: float
    lam_exact: object = None
    residual: Optional[float] = None
    freq: Optional[int] = None      # constant witness: u = exp(-i*freq*t)
    note: str = ""
    row: Optional[int] = None

    @property
    def sampled(self) -> bool:
        return self.row is not None


@dataclass(frozen=True)
class DecayRecord:
    """Exponential-decay summary for sup|f_j| along the subsequence.

    ``eps_f``/``r2`` fit -log sup|f| against x = j^(1/(2 n mu)); ``rate_lambda``
    /``r2_lambda`` fit against lambda_j (the variable the sign-change margin
    bounds from below).  ``f_zero`` marks a forcing that vanishes identically,
    in which case no fit is run and the rates are +inf by convention.
    """

    f_zero: bool
    eps_f: float
    r2: float
    rate_lambda: float
    r2_lambda: float
    n_fit: int
    note: str = ""


def _decay_record(levels: Sequence[WitnessLevel], exponent: float) -> DecayRecord:
    sups = np.array([lv.sup_f for lv in levels], dtype=np.float64)
    keep = sups > _FIT_FLOOR
    if not np.any(keep):
        return DecayRecord(f_zero=True, eps_f=math.inf, r2=1.0,
                           rate_lambda=math.inf, r2_lambda=1.0, n_fit=0,
                           note="forcing vanishes identically on the subsequence")
    # deep Liouville levels carry indices beyond double range; they always sit
    # under the floor, so convert only what survives the cut
    kept = [lv for lv, k in zip(levels, keep) if k]
    js = np.array([float(lv.j) for lv in kept])
    lams = np.abs(np.array([lv.lam for lv in kept], dtype=np.float64))
    z = -np.log(sups[keep])
    note = ""
    dropped = int(len(levels) - int(np.sum(keep)))
    if dropped:
        note = (f"{dropped} level(s) below the double-precision floor were "
                f"excluded from the fit")
    if len(z) < 2:
        return DecayRecord(f_zero=False, eps_f=math.nan, r2=math.nan,
                           rate_lambda=math.nan, r2_lambda=math.nan,
                           n_fit=int(len(z)),
                           note=(note + "; " if note else "") + "fewer than two usable levels")
    eps, _, r2 = ols(z, np.power(js, exponent))
    rate, _, r2l = ols(z, lams)
    return DecayRecord(f_zero=False, eps_f=eps, r2=r2, rate_lambda=rate,
                       r2_lambda=r2l, n_fit=int(len(z)), note=note)


def _own_types(v):
    """``default`` hook for :mod:`jsonio`: the witness module's own types."""
    if isinstance(v, GevreyBump):
        return v.summary()
    if isinstance(v, TorusFunction):
        return {"n": v.n, "sup": v.sup_norm()}
    raise TypeError(type(v).__name__)


class _Rows:
    """The S sampled rows of a witness on its N-grid, handed out one
    :func:`modes.row_chunks` block at a time, and the scan that checks them.

    A subclass sets ``lams``, the (S,) float64 lambda of its rows in row
    order, ``n`` (N) and ``f_cols``, a sorted read-only (K,) integer index
    of the only grid columns where the forcing can be nonzero, and defines
    ``fill(s)``: for a block ``s`` of ``row_chunks(S, N)`` it returns the
    block's u, (rows, N), its forcing on ``f_cols``, (rows, K), and its
    exact trig coefficients or None.  Two threads may fill different
    blocks at once and in any order, and each block gets the same bytes;
    no later fill writes to the arrays a fill returned.
    """

    def __len__(self) -> int:
        return len(self.lams)

    def whole(self, s=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the rows ``s`` (an index or a slice) of u and of the
        forcing on the whole grid, +0.0 off ``f_cols``, each row taken from
        the block that holds it."""
        pick = np.arange(len(self))[s]
        want = pick.reshape(-1)
        u = np.zeros((want.size, self.n), dtype=np.complex128)
        f = np.zeros_like(u)
        for b in row_chunks(len(self), self.n):
            hit = np.flatnonzero((want >= b.start) & (want < b.stop))
            if hit.size:
                ub, fb, _ = self.fill(b)
                u[hit] = ub[want[hit] - b.start]
                f[np.ix_(hit, self.f_cols)] = fb[want[hit] - b.start]
        return u.reshape(*pick.shape, self.n), f.reshape(*pick.shape, self.n)

    def scan(self, c: TorusFunction, probe=None):
        """One pass over the chunks: each is filled once, shown to
        ``probe(s, u)`` if given, and its rows' sup|u| and sup|f| taken
        over whole rows and their residuals sup|u' + i lam c u - f| by
        :func:`modes.operator_residuals`.  Returns the (S,) float64 arrays
        residual, sup_u and sup_f.

        Two identical workers share the pass, this thread and one helper
        thread: each claims the next chunk in chunk order under one lock
        and takes all of it, fill, probe, norms and residuals, whose FFTs
        and ufunc loops release the GIL.  So each worker holds one chunk at
        a time, and a worker that stalls delays one chunk, not the pass.
        Errors surface in serial order: a worker that fails records its
        error under its chunk's index and stops, no chunk after it is
        claimed, and once both workers are done the error of the lowest
        failed chunk is raised (every earlier chunk was claimed, so it has
        finished or failed too).  The helper is joined on every path, and
        is not started for a pass of one chunk.  Every residual and norm
        is the one a serial pass takes."""
        res, sup_u, sup_f = np.full((3, len(self)), math.nan)
        chunks = list(row_chunks(len(self), self.n))
        lock, claimed, failed = threading.Lock(), 0, {}

        def take(s):
            u, f, coeffs = self.fill(s)
            if probe is not None:
                probe(s, u)
            # row by row: a whole chunk's |u| would keep half a chunk more alive
            for r, row in enumerate(u, s.start):
                sup_u[r] = np.abs(row).max()
            np.abs(f).max(axis=1, initial=0.0, out=sup_f[s])
            res[s] = operator_residuals(self.lams[s], c, u, f, coeffs, cols=self.f_cols)

        def work():
            nonlocal claimed
            while True:
                with lock:
                    if failed or claimed == len(chunks):
                        return
                    k, claimed = claimed, claimed + 1
                try:
                    take(chunks[k])
                except BaseException as e:
                    with lock:
                        failed[k] = e
                    return

        helper = threading.Thread(target=work) if len(chunks) > 1 else None
        if helper is not None:
            helper.start()
        try:
            work()
        finally:
            with lock:
                claimed = len(chunks)       # after an interrupt in work(), claim no more
            if helper is not None:
                helper.join()
        if failed:
            raise failed[min(failed)]
        return res, sup_u, sup_f


class _ArrayRows(_Rows):
    """Rows held whole in small read-only arrays: u (S, N), the forcing f
    (S, K) on ``f_cols`` and the rows' exact trig ``coeffs`` (S, N) or None,
    at the levels ``lams``.  The constant and L0 kinds keep theirs so (a few
    rows each)."""

    def __init__(self, lams: Sequence[float], u: np.ndarray, f: np.ndarray,
                 f_cols: np.ndarray, coeffs: Optional[np.ndarray] = None):
        lams = np.array(lams, dtype=np.float64)
        for a in (lams, u, f, f_cols, coeffs):
            if a is not None:
                a.flags.writeable = False
        self.lams, self.u, self.f, self.f_cols, self.coeffs = lams, u, f, f_cols, coeffs
        self.n = u.shape[1]

    def fill(self, s: slice):
        return self.u[s], self.f[s], None if self.coeffs is None else self.coeffs[s]


def _report(kind: str, levels: Sequence[WitnessLevel], floor_u: float,
            decay: DecayRecord, residuals: list) -> dict:
    """The report of every check of a witness: its sampled levels'
    ``residuals`` against ``TOL_BY_KIND[kind]``, the floor of its levels'
    sup|u| against ``floor_u``, and the decay of its forcing."""
    tol = TOL_BY_KIND[kind]
    floor = min((lv.sup_u for lv in levels), default=0.0)
    checks = {
        "residuals_ok": all(r < tol for r in residuals),
        "floor_positive": floor > 0.0,
        # floor_u is a reported lower bound; every level must respect it
        "floor_holds": floor >= floor_u - 1e-12 * max(1.0, floor_u),
        "decay_ok": decay.f_zero or decay.n_fit < 2 or decay.eps_f > 0.0,
    }
    return {
        "ok": all(checks.values()),
        "checks": checks,
        "max_residual": max(residuals, default=None),
        "n_sampled": len(residuals),
        "floor_u": floor,
        "eps_f": decay.eps_f,
        "f_zero": decay.f_zero,
    }


@dataclass(frozen=True)
class WitnessBundle:
    """A verified non-hypoellipticity witness on a sparse mode subsequence.

    ``levels`` lists the subsequence (the construction is zero off it, so
    nothing else is kept).  ``rows`` holds a recipe for the S grid-sampled
    levels, in level order, at the points t_i = 2*pi*i/N, and one chunk of
    them: it fills u and the forcing f on the grid columns ``f_cols`` (f is
    exactly +0.0 on every other column) one :func:`modes.row_chunks` block
    at a time, and never holds the (S, N) store.  :meth:`u_rows` and
    :meth:`f_rows` return copies of chosen rows on the whole grid.
    ``floor_u`` is the reported constant c0 with sup|u_{j_l}| >= c0 > 0,
    and ``decay`` summarizes the forcing decay; ``exponent`` is the
    Gelfand-Shilov abscissa power 1/(2 n mu) used for the fit.  ``report``
    is the report of every check, which construction ran on these rows
    and which passed before the bundle was built; :meth:`verify` runs the
    check again.  A bundle is frozen: no field is ever reassigned.
    """

    kind: str
    levels: list[WitnessLevel]
    c: TorusFunction
    eigs: EigenSequence
    exponent: float
    floor_u: float
    decay: DecayRecord
    rows: _Rows
    report: dict
    meta: dict = field(default_factory=dict)

    @property
    def eigs_kind(self) -> str:
        return self.eigs.kind

    @property
    def subsequence(self) -> list[int]:
        return [lv.j for lv in self.levels]

    @property
    def f_cols(self) -> np.ndarray:
        return self.rows.f_cols

    def u_rows(self, s=slice(None)) -> np.ndarray:
        """The rows ``s`` of u on the whole N-grid (a copy)."""
        return self.rows.whole(s)[0]

    def f_rows(self, s=slice(None)) -> np.ndarray:
        """The rows ``s`` of the forcing on the whole N-grid, +0.0 off ``f_cols``."""
        return self.rows.whole(s)[1]

    # -- verification -------------------------------------------------- #

    def verify(self) -> dict:
        """Run the construction's check again on the bundle as it is now:
        scan ``rows`` afresh, recompute its residuals from u, f and c
        against ``TOL_BY_KIND[kind]`` and re-check the norms and the decay.
        Returns a fresh report dict with "ok"; on an unchanged bundle it
        equals ``report``."""
        return _report(self.kind, self.levels, self.floor_u, self.decay,
                       self.rows.scan(self.c)[0].tolist())

    # -- export --------------------------------------------------------- #

    def manifest(self) -> dict:
        with unlimited_int_digits():      # str() of certificate-sized integers
            return plain({
                "kind": self.kind,
                "eigs_kind": self.eigs_kind,
                "exponent": self.exponent,
                "floor_u": self.floor_u,
                "n_levels": len(self.levels),
                "subsequence": self.subsequence,
                "decay": self.decay,
                "levels": [
                    {
                        "j": lv.j,
                        "lambda": lv.lam,
                        "lambda_exact": (None if lv.lam_exact is None
                                         else str(lv.lam_exact)),
                        "sup_u": lv.sup_u,
                        "sup_f": lv.sup_f,
                        "residual": lv.residual,
                        "sampled": lv.sampled,
                        "freq": lv.freq,
                        "note": lv.note,
                    }
                    for lv in self.levels
                ],
                "meta": self.meta,
            }, default=_own_types)

    def norms_csv(self) -> str:
        return csvio.text(("j", "sup_u", "sup_f"), [lv.j for lv in self.levels],
                          [float(lv.sup_u) for lv in self.levels],
                          [float(lv.sup_f) for lv in self.levels])

    def write(self, directory: str) -> dict:
        """Write manifest.json and norms.csv under ``directory``; returns paths."""
        os.makedirs(directory, exist_ok=True)
        man_path = os.path.join(directory, "manifest.json")
        csv_path = os.path.join(directory, "norms.csv")
        write_json(man_path, self.manifest())
        csvio.write(csv_path, self.norms_csv())
        return {"manifest": man_path, "norms": csv_path}


# --------------------------------------------------------------------------- #
# constant coefficient: resonance and Liouville certificates
# --------------------------------------------------------------------------- #

def constant_witness(alpha, eigs: EigenSequence, L: int = 4,
                     N: int = 256, mu=Fraction(1, 2)) -> WitnessBundle:
    """Witness for L = D_t + alpha*P with constant alpha.

    Accepts an exact rational alpha (integers always resonate; other rationals
    must hit a resonant class of the spectrum) or a
    :class:`~hypotorus.diophantine.LiouvilleCertificate`.  Along the chosen
    subsequence u_j = e^{-i tau_j t} with tau_j the nearest resonance integer,
    so sup|u_j| = 1 exactly and sup|f_j| = |alpha*lambda_j - tau_j| -- zero on
    resonances, the certified gap on a Liouville subsequence.  Non-integral
    floats are refused (:class:`NoCertificate`): they carry no exact
    arithmetic to certify either route (exact-integer floats convert
    losslessly and are accepted).  Levels whose frequency exceeds the grid
    band are kept in closed form and verified in exact rational arithmetic.
    """
    if isinstance(alpha, LiouvilleCertificate):
        return _constant_from_certificate(alpha, eigs, L, N)

    if isinstance(alpha, Fraction):
        frac = alpha
    elif isinstance(alpha, Integral):
        frac = Fraction(int(alpha))
    elif isinstance(alpha, float):
        if float(alpha).is_integer():
            frac = Fraction(int(alpha))
        else:
            raise NoCertificate(
                f"alpha = {alpha!r} is a float: no exact resonance arithmetic and no "
                f"certificate; pass a Fraction or a LiouvilleCertificate")
    else:
        raise TypeError(f"unsupported alpha type: {type(alpha).__name__}")

    if not eigs.integer_valued:
        raise NoCertificate(
            f"eigenvalue kind {eigs.kind!r} has no exact integer form; "
            f"resonance cannot be certified")

    rv = classify_rational(frac.numerator, frac.denominator, eigs)
    if not rv.resonant:
        raise NoCertificate(
            f"alpha = {frac} never resonates on {eigs.kind!r} "
            f"(divisor floor {rv.floor}); nothing to witness")
    js = _resonant_modes(rv, eigs.n, L)
    if len(js) < L:
        raise NoCertificate(
            f"found only {len(js)} resonant modes for alpha = {frac} "
            f"in the stored window of {len(eigs)}")
    route = "integer-resonance" if frac.denominator == 1 else "rational-resonance"

    levels, taus, lams = [], [], []
    for j in js:
        lam = eigs.exact_lambda(j)
        if abs(lam) >= 2 ** 1024:
            raise NoCertificate(f"resonant mode {j} has lambda beyond the float range")
        tau_frac = frac * lam
        if tau_frac.denominator != 1:
            raise AssertionError(f"internal: mode {j} is not resonant for {frac}")
        tau = int(tau_frac)
        sampled = abs(tau) <= N // 2 - 1
        levels.append(WitnessLevel(
            j=j, lam=float(lam), sup_u=1.0, sup_f=0.0, lam_exact=lam, freq=tau,
            row=len(taus) if sampled else None,
            note="" if sampled else ("frequency beyond the grid band; "
                                     "f = i(alpha*lambda - tau)e^{-i tau t} = 0 exactly")))
        if sampled:
            taus.append(tau)
            lams.append(float(lam))

    u, u_coeffs = _harmonics(taus, N)
    return _verified(kind="constant", levels=levels,
                     c=TorusFunction.constant(complex(float(frac)), N), eigs=eigs,
                     exponent=float(eigs.exponent(mu)), floor_u=1.0,
                     rows=_ArrayRows(lams, u, np.zeros((len(taus), 0), dtype=np.complex128),
                                     np.arange(0), u_coeffs),
                     meta={"alpha": str(frac), "route": route,
                           "tau": [lv.freq for lv in levels]})


def _resonant_modes(rv: RationalVerdict, n: int, L: int) -> list[int]:
    """The first ``L`` modes of ``rv``'s resonant classes, in increasing order.
    A window verdict lists them; otherwise each class recurs with the period,
    and a block class (``harmonic_nd`` in dimension n) holds every mode of
    block b, [C(b+n-1, n), C(b+n, n)).  A 1-d mode is a block of one."""
    if rv.period is None:
        return list(rv.resonant_classes[:L])
    dim = n if rv.class_variable == "block" else 1
    js: list[int] = []
    for b in (c + t * rv.period for t in itertools.count() for c in rv.resonant_classes):
        lo, hi = _nd_count_below(b, dim), _nd_count_below(b + 1, dim)
        js.extend(range(lo, min(hi, lo + L - len(js))))
        if len(js) >= L:
            return js


def _check_certificate(cert, eigs: EigenSequence) -> None:
    """Refuse ``cert`` unless it is a LiouvilleCertificate that verifies and
    whose progression lambda_j = base + step*j is that of ``eigs``: the
    levels it claims are then eigenvalues of ``eigs``."""
    if not isinstance(cert, LiouvilleCertificate):
        raise NoCertificate("a verified LiouvilleCertificate is required")
    if not cert.verify():
        raise NoCertificate("the supplied LiouvilleCertificate fails verification")
    if eigs.ap_index != cert.ap_index:
        raise NoCertificate(
            f"certificate was built on {cert.eigs_kind!r}, got eigenvalues of "
            f"kind {eigs.kind!r}")


def _constant_from_certificate(cert: LiouvilleCertificate, eigs: EigenSequence,
                               L: int, N: int) -> WitnessBundle:
    _check_certificate(cert, eigs)
    kappa = cert.kappa
    levels, taus, lams, scales = [], [], [], []
    for lev in cert.levels[:max(1, L)]:
        delta = kappa * lev.lam - lev.tau          # signed; |delta| == lev.gap
        if abs(delta) != lev.gap:
            raise NoCertificate(f"certificate gap mismatch at level j={lev.j}")
        try:
            lam_f = float(lev.lam)
        except OverflowError:                       # deep levels outgrow doubles
            lam_f = math.inf
        sampled = (abs(lev.tau) <= N // 2 - 1
                   and abs(lam_f) * abs(float(kappa)) <= _BAND_FRACTION * N / 2)
        levels.append(WitnessLevel(
            # sup_f = |gap| may underflow to 0.0: honest in doubles
            j=lev.j, lam=lam_f, sup_u=1.0, sup_f=float(lev.gap), lam_exact=lev.lam,
            freq=lev.tau, row=len(taus) if sampled else None,
            note="" if sampled else ("frequency beyond the grid band; identity "
                                     "u' + i kappa lambda u = i(kappa lambda - tau)e^{-i tau t} "
                                     "holds term-by-term, gap recomputed exactly")))
        if sampled:
            taus.append(lev.tau)
            lams.append(lam_f)
            scales.append(complex(1j * float(delta)))

    u, u_coeffs = _harmonics(taus, N)
    with unlimited_int_digits():
        alpha_str = str(kappa)          # certificate rationals outgrow the 3.11+ str guard
    return _verified(kind="constant", levels=levels,
                     c=TorusFunction.constant(complex(float(kappa)), N), eigs=eigs,
                     exponent=float(cert.e), floor_u=1.0,
                     rows=_ArrayRows(lams, u, u * np.array(scales, dtype=np.complex128)[:, None],
                                     np.arange(N), u_coeffs),
                     meta={
                         "alpha": alpha_str,
                         "route": "liouville-certificate",
                         "gap_log10": [_gap_log10(lev.gap) for lev in cert.levels[:max(1, L)]],
                         "K": [lev.K for lev in cert.levels[:max(1, L)]],
                         "tau": [lev.tau for lev in cert.levels[:max(1, L)]],
                     })


def _gap_log10(gap: Fraction) -> float:
    """log10 of a positive Fraction via bit lengths (safe for huge dens)."""
    if gap == 0:
        return -math.inf
    num, den = gap.numerator, gap.denominator
    return (num.bit_length() - den.bit_length()) * math.log10(2.0)


def _harmonics(taus: Sequence[int], N: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows e^{-i tau t} on the N-grid and their one-hot trig coefficients."""
    coeffs = np.zeros((len(taus), N), dtype=np.complex128)
    coeffs[np.arange(len(taus)), [-tau % N for tau in taus]] = 1.0
    return np.fft.ifft(coeffs * N, axis=1), coeffs


def _verified(*, kind: str, levels: list[WitnessLevel], c: TorusFunction, rows: _Rows,
              exponent: float, floor_u: Optional[float], probe=None, **parts) -> WitnessBundle:
    """The bundle of these parts, built only once every check passes.

    One ``rows.scan(c, probe)`` takes each sampled level's residual and,
    where a level leaves them None, its grid sup norms (a ``floor_u`` of
    None is then the least sup|u|); ``probe(s, u)`` sees each chunk before
    its residuals are taken, and an error it raises surfaces only if no
    earlier chunk's residuals failed.  The decay record follows, then the
    report of every check, residuals against ``TOL_BY_KIND[kind]``.  Any
    failed check refuses the witness, with :class:`WitnessBudgetMiss` when
    a residual misses its tolerance; otherwise the bundle keeps the report
    as ``report``, the one check of the bundle that the CLI writes.  The
    other ``parts`` (eigs, meta) go to the bundle as they are."""
    res, sup_u, sup_f = (a.tolist() for a in rows.scan(c, probe))
    levels = [lv if lv.row is None else replace(
        lv, residual=res[lv.row],
        sup_u=sup_u[lv.row] if lv.sup_u is None else lv.sup_u,
        sup_f=sup_f[lv.row] if lv.sup_f is None else lv.sup_f) for lv in levels]
    if floor_u is None:
        floor_u = min(lv.sup_u for lv in levels)
    decay = _decay_record(levels, exponent)
    rep = _report(kind, levels, floor_u, decay, res)
    if not rep["checks"]["residuals_ok"]:
        raise WitnessBudgetMiss(kind, rep["max_residual"], TOL_BY_KIND[kind], c.n)
    if not rep["ok"]:
        raise WitnessCheckFailed(
            f"witness verification failed for kind={kind!r}: {rep['checks']} "
            f"(max residual {rep['max_residual']})")
    return WitnessBundle(kind=kind, levels=levels, c=c, rows=rows, exponent=exponent,
                         floor_u=floor_u, decay=decay, report=rep, **parts)


# --------------------------------------------------------------------------- #
# window machinery shared by the variable-coefficient constructions
# --------------------------------------------------------------------------- #

def _cover_primitive(fn: TorusFunction) -> tuple[float, np.ndarray]:
    """(drift, P) with  integral_0^t fn = drift*t + P(t),  P periodic, P(0)=0."""
    drift = fn.mean().real
    P = fn.antiderivative_zero_mean_part()
    return drift, np.real(np.asarray(P.samples))


def _window_primitive(drift: float, P: np.ndarray, k0: int, length: int) -> np.ndarray:
    """The primitive drift*t + P(t) at the ``length`` cover points k0, k0+1, ...
    of the covering line (N = len(P) points per period, length <= 2N - k0)."""
    N = len(P)
    t = 2.0 * math.pi * np.arange(k0, k0 + length) / N
    return drift * t + np.concatenate([P, P])[k0:k0 + length]


def _range_picks(x: np.ndarray, top: int, keep_left) -> np.ndarray:
    """Sparse table of range picks over ``x``, levels 0..``top``.

    Row k holds at p the index in x[p:p + 2^k] that ``keep_left`` picks
    (np.greater_equal: the first argmax; np.less_equal: the first argmin).
    Each level merges two halves of the level below and keeps the left pick
    on a tie.  Entries past a level's last full range are 0 and never read.
    """
    n = len(x)
    table = np.zeros((top + 1, n), dtype=np.int32)
    table[0] = np.arange(n)
    for k in range(1, top + 1):
        h = 1 << (k - 1)
        a, b = table[k - 1, :n - 2 * h + 1], table[k - 1, h:n - h + 1]
        table[k, :n - 2 * h + 1] = np.where(keep_left(x[a], x[b]), a, b)
    return table


def _range_query(x: np.ndarray, table: np.ndarray, lo: np.ndarray, length: np.ndarray,
                 keep_left) -> np.ndarray:
    """The pick of x[lo:lo + length] for every query (length >= 1), merged
    from the two table ranges of length 2^floor(log2 length) that cover it."""
    k = np.frexp(length)[1] - 1                  # floor(log2 length), exact
    a, b = table[k, lo], table[k, lo + length - (1 << k)]
    return np.where(keep_left(x[a], x[b]), a, b)


def _best_window(phi_cover: np.ndarray, N: int) -> Optional[dict]:
    """Best window start k0, interior argmax i, two-sided depth, all windows at once.

    For each window [k0, k0+N) of one period on the cover, the anchor is the
    windowed first argmax of the primitive; the score is the smaller of the
    deepest excursions of (phi(anchor) - phi) strictly left and right of the
    anchor, min(M - min_left, M - min_right) with M = phi(anchor).  Every
    window is answered from two sparse tables over the 2N cover (range
    first-argmax and range min, O(N log N) to build, O(1) per query).
    Rounding is monotone, so this depth equals the min over j of
    fl(M - phi_j) bit for bit.  Anchors within two samples of a window end
    and depths <= 1e-12 are skipped; the first window with the largest depth
    wins.  Returns None when no window qualifies; ``B`` = phi - M is built
    for the winner only.
    """
    top = int(N).bit_length() - 1                # the longest query spans N
    k0 = np.arange(N)
    anchor = _range_query(phi_cover, _range_picks(phi_cover, top, np.greater_equal),
                          k0, np.full(N, N), np.greater_equal)
    i = anchor - k0
    interior = (i >= 2) & (i <= N - 3)
    k0, anchor, i = k0[interior], anchor[interior], i[interior]
    lows = _range_picks(phi_cover, top, np.less_equal)
    low = lambda lo, length: phi_cover[_range_query(phi_cover, lows, lo, length,
                                                    np.less_equal)]
    M = phi_cover[anchor]
    depth = np.minimum(M - low(k0, i), M - low(anchor + 1, N - 1 - i))
    deep = np.flatnonzero(depth > 1e-12)
    if not deep.size:
        return None
    w = deep[np.argmax(depth[deep])]
    k, a = int(k0[w]), int(anchor[w])
    return {"k0": k, "i": a - k, "depth": float(depth[w]),
            "B": phi_cover[k:k + N] - phi_cover[a]}


def _component(mask: np.ndarray, center: int) -> tuple[int, int]:
    """Inclusive index run of True containing ``center``, a True index."""
    pos = np.flatnonzero(mask)
    k = int(np.searchsorted(pos, center))
    a, b = next(r for r in index_runs(pos) if r[0] <= k < r[1])
    return int(pos[a]), int(pos[b - 1])


def _partition_indices(B: np.ndarray, i: int, depth: float, N: int) -> Optional[dict]:
    """Pick the four partition indices around the anchor at threshold depth/2.

    Tries margins depth/2, depth/4, depth/8 until both transition intervals
    hold at least two samples strictly inside the window; the returned
    ``c_star`` is the margin actually certified (every sample of both
    intervals has the primitive at least c_star below the anchor value).
    """
    d = -B                                   # >= 0, zero at the anchor
    for shrink in (2.0, 4.0, 8.0):
        c_star = depth / shrink
        left = d[:i]
        right = d[i + 1:]
        la, lb = _component(left > c_star, int(np.argmax(left)))
        ra, rb = _component(right > c_star, int(np.argmax(right)))
        ra += i + 1
        rb += i + 1
        la = max(la, 1)                      # keep strictly inside the window
        rb = min(rb, N - 2)
        if lb - la >= 1 and rb - ra >= 1 and lb < i and ra > i:
            return {"c_star": c_star, "la": la, "lb": lb, "ra": ra, "rb": rb}
    return None


def _run_or_index(idx: np.ndarray):
    """``idx`` as a slice when it is one run of consecutive increasing
    indices (a support that does not wrap), else as it is: the same
    elements, gathered and scattered without an index array."""
    if len(index_runs(idx)) == 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


class _BumpRows(_Rows):
    """The rows of a bump witness at the levels ``lams``: a recipe that
    :meth:`fill` turns into new arrays of u and f for one chunk at a time.

    Each bump is (g, E, bands) in window order (window index m = circle index
    (k0+m) mod N): a GevreyBump g, the exponent E of its factor exp(lambda E)
    and the inclusive index ranges of its transition bands.  On the circle
    grid, row s holds for lambda = lams[s]

        u = sum over the bumps of g exp(lambda E),
        f = g' exp(lambda E) on each bump's bands, 0 elsewhere,

    with g' the spectral derivative on the circle.  The set-up rolls the
    bumps onto the circle and keeps each bump's support (g > 0), its bands
    and E on the union of the two, support first; exp(lambda E) is taken
    there only, once per fill, and feeds f, then (times g, over itself) u;
    the first bump takes it straight in u's support columns when E lies on
    its support only and that is one run.
    u is exactly +0.0 off the supports, so points outside a support can
    never overflow.  Off the bands, and wherever every bump is flat
    (exactly 0 or 1), g' vanishes to all orders; writing 0 there drops the
    spectral-derivative ringing that would put a flat noise floor under
    sup|f|.  So f is kept on ``f_cols``,
    the union of the bumps' band columns less the flat points, and is +0.0
    elsewhere; a later bump overwrites an earlier one on a shared column.

    A chunk whose float lambdas are exactly lambda_lo + r*delta (r = 0, 1,
    ...), with delta of the sign of lambda_lo, takes one exp per bump:
    exp(lambda_lo E) times row r of the bump's table exp(r delta E), built
    under a lock by the first chunk to ask, per (bump, delta), with one row
    per row of a full chunk, so no row depends on the order chunks are
    filled in.  Every
    harmonic1d chunk and every arithmetic table chunk does; any other chunk
    takes exp(lambda E) directly.  So a row's bytes depend on the bounds of
    its chunk, and rows are only ever filled in the blocks of
    ``row_chunks(S, N)``.  Re(lambda E) <= 0 by construction, and the sign
    rule keeps both factors of modulus <= 1, so nothing overflows.  Each
    entry is one product of two exps, so its error does not grow along the
    chunk: it stays within ~3 |lambda E| eps relative of the direct exp
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3), the
    order of the direct exp's own argument rounding.  Where E is exactly 0
    (the sign-change anchor) both factors are exactly 1.
    """

    def __init__(self, lams: np.ndarray, bumps, k0: int):
        gs = [np.roll(np.real(g.samples.samples), k0) for g, _, _ in bumps]
        N = len(gs[0])
        flat = np.logical_and.reduce([(g == 0.0) | (g == 1.0) for g in gs])
        idxs = [(np.concatenate([np.arange(lo, hi + 1) for lo, hi in bands]) + k0) % N
                for _, _, bands in bumps]
        idxs = [idx[~flat[idx]] for idx in idxs]
        f_cols = np.unique(np.concatenate(idxs))
        circ, at = [], np.empty(N, dtype=np.intp)
        for g, (_, E, _), idx in zip(gs, bumps, idxs):
            supp = np.flatnonzero(g > 0.0)
            # E on the support first, then on the band columns off it
            cols = np.concatenate([supp, np.setdiff1d(idx, supp)])
            at[cols] = np.arange(cols.size)
            dg = np.real(TorusFunction(g).derivative().samples)
            at_f, at_idx = np.searchsorted(f_cols, idx), at[idx]
            band = [(slice(at_f[a], at_f[a] + b - a), dg[idx[a:b]],
                     slice(at_idx[a], at_idx[a] + b - a)) for a, b in index_runs(at_f, at_idx)]
            circ.append((g[supp], np.roll(E, k0)[cols], band, _run_or_index(supp)))
        f_cols.flags.writeable = False
        self.lams, self.n, self.f_cols, self._circ, self._tables = lams, N, f_cols, circ, {}
        first = next(row_chunks(1, N))
        self._height, self._lock = first.stop - first.start, threading.Lock()

    def fill(self, s: slice):
        lam = self.lams[s]
        m = lam.size
        u = np.zeros((m, self.n), dtype=np.complex128)
        # every fill writes all of f's columns: f_cols is the union of the bands
        f = np.empty((m, len(self.f_cols)), dtype=np.complex128)
        d = lam[1] - lam[0] if m > 1 else 0.0
        ap = d * lam[0] > 0.0 and np.array_equal(lam, lam[0] + d * np.arange(m))
        for k, (g, E, band, supp) in enumerate(self._circ):
            # the first bump, when E lies on its support only and that is
            # one run, takes exp(lambda E) straight in u's support columns
            direct = not k and E.size == g.size and isinstance(supp, slice)
            e = u[:, supp] if direct else np.empty((m, E.size), dtype=np.complex128)
            with np.errstate(under="ignore"):
                if ap:
                    with self._lock:        # one build, whichever chunk asks first
                        table = self._tables.get((k, d))
                        if table is None:
                            table = (d * np.arange(self._height))[:, None] * E
                            self._tables[k, d] = np.exp(table, out=table)
                    np.multiply(np.exp(lam[0] * E), table[:m], out=e)
                else:
                    np.multiply(lam[:, None], E, out=e)
                    np.exp(e, out=e)
            for to, dg, at in band:
                np.multiply(dg, e[:, at], out=f[:, to])
            # then g e on the support, over the support's leading columns of e
            ge = np.multiply(g, e[:, :g.size], out=e[:, :g.size])
            if k:
                # later bumps add on the whole row, so that off their
                # support u + 0 turns a -0 into +0 as a full-grid sum does
                full = np.zeros_like(u)
                full[:, supp] = ge
                u += full
            elif not direct:
                u[:, supp] = ge
        return u, f, None


def _bump_levels(eigs: EigenSequence, js: np.ndarray, bumps, k0: int):
    """The levels ``js`` of a bump witness, their sup norms left to the
    construction pass, and the :class:`_BumpRows` recipe of their rows."""
    lams = np.asarray(eigs.lambdas, dtype=np.float64)[js]
    levels = [WitnessLevel(j=int(j), lam=float(lams[r]), sup_u=None, sup_f=None, row=r,
                           lam_exact=eigs.exact_lambda(int(j)) if eigs.integer_valued else None)
              for r, j in enumerate(js)]
    return levels, _BumpRows(lams, bumps, k0)


def _band_check(lam_max: float, c_sup: float, N: int, who: str) -> None:
    need = lam_max * c_sup
    allowed = _BAND_FRACTION * (N / 2.0)
    if need > allowed:
        n_req = int(2 ** math.ceil(math.log2(max(8.0, 2.0 * need / _BAND_FRACTION))))
        raise ConfigError(
            f"{who}: level bandwidth ~{need:.0f} exceeds {allowed:.0f} "
            f"(= {_BAND_FRACTION} * Nyquist) at N = {N}; pass N >= {n_req}")


# --------------------------------------------------------------------------- #
# change of sign of Im c
# --------------------------------------------------------------------------- #

def sign_change_witness(c: TorusFunction, eigs: EigenSequence, mu=Fraction(1, 2),
                        N: int = 1024, sigma: float = 2.0) -> WitnessBundle:
    """Witness for Im c changing sign.

    Let Phi be the primitive of b = Im c on the covering line.  Among the N
    grid-aligned periods (t0, t0 + 2pi], :func:`_best_window` picks the one
    whose windowed first argmax t* is interior with the deepest two-sided
    excursion ``depth`` of B(t) = Phi(t) - Phi(t*) below zero, the first
    such window on a tie.  It scores every window at once from range-max
    and range-min tables over the cover, and builds B for the winner only.
    The certified margin is c* = depth/2 (the partition intervals are the
    level sets where the excursion exceeds c*).
    With bumps g* (support [alpha*, beta*], flat on [gamma*, delta*] around
    t*) and psi* (flat on [alpha*, beta*], vanishing at the window ends),

        u_j = g* exp[lambda_j psi* (B - iA)],   f_j = g*' exp[same],

    where A is the analogously anchored primitive of Re c.  Then |u_j(t*)| = 1
    exactly, |u_j| <= 1, and f_j lives on the transition bands where B < -c*,
    giving sup|f_j| <~ exp(-c* lambda_j).  Each level takes the exponential
    once, on the support of g* and its bands, for both u_j and f_j.  Modes
    with negative lambda use the mirrored window (argmin anchor); mixed-sign
    spectra are restricted to the positive-lambda subsequence, as recorded
    in meta.  A level that misses the residual budget ``TOL_RESIDUAL`` on
    the N-point grid raises :class:`WitnessBudgetMiss`.
    """
    cc = c.resample(N)
    a = cc.real_part()
    b = cc.imag_part()
    if b.sup_norm() <= 1e-14:
        raise PartitionNotFound("Im c vanishes identically; no sign change to exploit")

    lams = np.asarray(eigs.lambdas, dtype=np.float64)
    pos = lams > 0
    if np.all(pos):
        side, use = +1, np.arange(len(lams))
        sub_note = "all levels (lambda > 0)"
    elif not np.any(pos):
        side, use = -1, np.arange(len(lams))
        sub_note = "all levels (lambda < 0, mirrored window)"
    else:
        side, use = +1, np.flatnonzero(pos)
        sub_note = "restricted to the positive-lambda subsequence"

    drift_b, Pb = _cover_primitive(b)
    drift_a, Pa = _cover_primitive(a)
    phi = _window_primitive(drift_b, Pb, 0, 2 * N)
    found = _best_window(side * phi, N)
    if found is None:
        raise PartitionNotFound(
            "no window gives an interior anchor with positive two-sided margin "
            "at this grid resolution (the primitive of Im c is one-sided)")
    k0, i, depth = found["k0"], found["i"], found["depth"]
    part = _partition_indices(found["B"], i, depth, N)
    if part is None:
        raise PartitionNotFound(
            f"margin {depth / 2:.3e} exists only on degenerate (single-sample) "
            f"intervals at N = {N}; refine the grid")
    c_star = part["c_star"]

    # feasibility (a partition exists) is decided above; only now gate on
    # the grid being wide enough to hold the most oscillatory level
    _band_check(float(np.max(np.abs(lams[use]))), a.sup_norm() + b.sup_norm(),
                N, "sign_change_witness")

    tau = 2.0 * math.pi * np.arange(N) / N       # window-local coordinate
    t0 = 2.0 * math.pi * k0 / N
    alpha_loc, gamma_loc = tau[part["la"]], tau[part["lb"]]
    delta_loc, beta_loc = tau[part["ra"]], tau[part["rb"]]

    g_star = gevrey_bump(sigma, (alpha_loc, beta_loc), (gamma_loc, delta_loc), N)
    psi_star = gevrey_bump(sigma, (alpha_loc / 2.0,
                                   beta_loc + (2.0 * math.pi - beta_loc) / 2.0),
                           (alpha_loc, beta_loc), N)

    # window-ordered primitives anchored at the window anchor
    Bw = _window_primitive(drift_b, Pb, k0, N)
    Bw = Bw - Bw[i]
    Aw = _window_primitive(drift_a, Pa, k0, N)
    Aw = Aw - Aw[i]

    # g*' is nonzero only on the transition bands [alpha*,gamma*], [delta*,beta*]
    psi_w = np.real(psi_star.samples.samples)
    levels, rows = _bump_levels(eigs, use, [
        (g_star, psi_w * (Bw - 1j * Aw), [(part["la"], part["lb"]), (part["ra"], part["rb"])])], k0)
    t_anchor = (t0 + tau[i]) % (2.0 * math.pi)

    def at_anchor(s: slice, u: np.ndarray) -> None:
        """|u(t*)| = 1 on every row of the chunk ``s``."""
        mod = np.abs(u[:, (k0 + i) % N])
        bad = np.flatnonzero(np.abs(mod - 1.0) > 1e-9)
        if bad.size:
            raise WitnessCheckFailed(f"internal: |u({t_anchor:.4f})| = {float(mod[bad[0]])!r} "
                                     f"!= 1 at level {use[s][bad[0]]}")

    bundle = _verified(
        probe=at_anchor, kind="sign-change", levels=levels, c=cc, eigs=eigs,
        rows=rows, exponent=float(eigs.exponent(mu)), floor_u=None,
        meta={
            "side": "max" if side > 0 else "min",
            "subsequence_note": sub_note,
            "t0": t0,
            "t_star": t_anchor,
            "depth": depth,
            "c_star": c_star,
            "partitions": {
                "alpha": (t0 + alpha_loc) % (2 * math.pi),
                "gamma": (t0 + gamma_loc) % (2 * math.pi),
                "delta": (t0 + delta_loc) % (2 * math.pi),
                "beta": (t0 + beta_loc) % (2 * math.pi),
                "window_local": [alpha_loc, gamma_loc, delta_loc, beta_loc],
            },
            "bumps": {"g_star": g_star, "psi_star": psi_star},
            "drift": {"b": drift_b, "a": drift_a},
            "B_window": TorusFunction.from_samples(np.roll(Bw, k0)),
            "A_window": TorusFunction.from_samples(np.roll(Aw, k0)),
            "primitive_note": ("B_window/A_window hold window-coordinate values "
                               "(periodic iff the respective drift vanishes)"),
        },
    )
    decay = bundle.decay
    if not decay.f_zero and decay.rate_lambda < 0.8 * c_star:
        raise WitnessCheckFailed(
            f"internal: fitted decay rate {decay.rate_lambda:.4f} fell below "
            f"0.8 * c_star = {0.8 * c_star:.4f}")
    return bundle


# --------------------------------------------------------------------------- #
# plateau variant: b == 0 on [t0, t1] with (+, 0, -) flanks
# --------------------------------------------------------------------------- #

def plateau_witness(c: TorusFunction, intervals: Sequence[float], eigs: EigenSequence,
                    N: int = 1024, sigma: float = 2.0,
                    mu=Fraction(1, 2)) -> WitnessBundle:
    """Two-bump witness for Im c vanishing identically on [t0, t1].

    Requires the (+, 0, -) pattern: b = Im c strictly positive mass just left
    of t0, machine-zero on [t0, t1], strictly negative mass just right of t1.
    Two bumps are anchored at the endpoints: g0 rises across the left flank
    (where B0(t) = int_{t0}^t b < 0), holds 1 from inside the flank through
    the plateau, and falls across a band (m0, m1) in the middle of the
    plateau; g1 mirrors it from m0 onward through the right flank.  Both
    anchored primitives vanish identically on the plateau, so the two inner
    transitions share one exponential factor and their derivative
    contributions cancel (the steps sum to 1 across the shared band); the
    forcing lives on the outer flanks where the anchored primitives are below
    -c* with c* = half the smaller flank mass.

        u_j = g0 exp[lambda_j(B0 - iA)] + g1 exp[lambda_j(B1 - iA)]

    has |u_j| = 1 on the whole plateau (in particular at both anchors).
    """
    cc = c.resample(N)
    a = cc.real_part()
    b = cc.imag_part()
    t0, t1 = float(intervals[0]), float(intervals[1])
    if not (0.0 <= t0 < t1 < 2.0 * math.pi):
        raise ConfigError(f"need 0 <= t0 < t1 < 2*pi, got [{t0}, {t1}]")

    bs = np.real(np.asarray(b.samples))
    step = 2.0 * math.pi / N
    i0 = int(math.ceil(t0 / step))
    i1 = int(math.floor(t1 / step))
    if i1 - i0 < 8:
        raise PatternNotFound(f"plateau [{t0}, {t1}] spans fewer than 8 grid points at N = {N}")
    if float(np.max(np.abs(bs[i0:i1 + 1]))) > 1e-12:
        raise PatternNotFound(
            "Im c does not vanish to machine precision on the given interval; "
            "the two-bump cancellation needs an exactly flat plateau")

    # cut the circle opposite the plateau so everything is window-interior
    mid = 0.5 * (t0 + t1)
    k0 = int(round(((mid + math.pi) % (2.0 * math.pi)) / step)) % N
    tcut = step * k0
    loc = lambda t: (t - tcut) % (2.0 * math.pi)      # circle -> window-local

    drift_b, Pb = _cover_primitive(b)
    drift_a, Pa = _cover_primitive(a)
    Phib = _window_primitive(drift_b, Pb, k0, N)
    Phia = _window_primitive(drift_a, Pa, k0, N)
    bw = np.roll(bs, -k0)                              # window-ordered b

    l0 = loc(step * i0) / step                         # window-local indices
    l1 = loc(step * i1) / step
    w0, w1 = int(round(l0)), int(round(l1))

    # flank masses: IL(m) = Phi(w0) - Phi(m) rising to the left, and the
    # mirrored IR on the right; margins are half the available mass
    win_lo = max(2, w0 - N // 3)
    win_hi = min(N - 3, w1 + N // 3)
    IL = Phib[w0] - Phib[win_lo:w0]                    # mass of b over (m, w0)
    IR = Phib[w1] - Phib[w1 + 1:win_hi + 1]            # -int over (w1, m) = mass of -b
    if IL.size == 0 or IR.size == 0:
        raise PatternNotFound("no room for flanks next to the plateau")
    TL, TR = float(np.max(IL)), float(np.max(IR))
    if TL <= 1e-12:
        raise PatternNotFound("no positive mass of Im c immediately left of t0")
    if TR <= 1e-12:
        raise PatternNotFound("no negative mass of Im c immediately right of t1")
    if float(np.min(bw[win_lo:w0])) < -1e-12:
        raise PatternNotFound("Im c dips negative inside the left flank window")
    if float(np.max(bw[w1 + 1:win_hi + 1])) > 1e-12:
        raise PatternNotFound("Im c rises positive inside the right flank window")

    # left transition band: from the deepest usable point up to half mass
    la = win_lo + int(np.argmax(IL))                   # support start
    half_idx = np.flatnonzero(IL >= 0.5 * TL)
    lb = win_lo + int(half_idx[-1])                    # plateau start (margin >= TL/2)
    ra_idx = np.flatnonzero(IR >= 0.5 * TR)
    ra = w1 + 1 + int(ra_idx[0])                       # plateau end (margin >= TR/2)
    rb = w1 + 1 + int(np.argmax(IR))                   # support end
    if lb - la < 1 or rb - ra < 1:
        raise PatternNotFound("flank transition bands are degenerate at this resolution")
    m_left = float(Phib[w0] - Phib[lb])
    m_right = float(Phib[w1] - Phib[ra])
    c_star = min(m_left, m_right)
    if c_star <= 0.0:
        raise PatternNotFound("no positive margin on one of the flanks")

    # inner seam: shared transition band in the middle of the plateau
    mid_w = (w0 + w1) // 2
    seam = max(2, (w1 - w0) // 8)
    m0, m1 = mid_w - seam, mid_w + seam

    tau = 2.0 * math.pi * np.arange(N) / N
    g0 = gevrey_bump(sigma, (tau[la], tau[m1]), (tau[lb], tau[m0]), N)
    g1 = gevrey_bump(sigma, (tau[m0], tau[rb]), (tau[m1], tau[ra]), N)

    lams = np.asarray(eigs.lambdas, dtype=np.float64)
    if np.any(lams <= 0):
        raise ConfigError("plateau_witness expects a positive spectrum")
    _band_check(float(np.max(lams)), a.sup_norm() + b.sup_norm(), N, "plateau_witness")

    B0 = Phib - Phib[w0]
    B1 = Phib - Phib[w1]
    A = Phia - Phia[w0]
    # forcing lives only on the outer flanks [la, lb] (g0 rising) and [ra, rb]
    # (g1 falling): on the shared seam band (m0, m1) the complement identity
    # gives g0 + g1 == 1 while b == 0, so the two derivative contributions
    # cancel exactly and the true forcing is identically zero there --
    # writing 0 instead of the numerically cancelled sum keeps sup|f_j| free
    # of a roundoff floor
    levels, rows = _bump_levels(eigs, np.arange(len(lams)), [
        (g0, B0 - 1j * A, [(la, lb)]), (g1, B1 - 1j * A, [(ra, rb)])], k0)

    return _verified(
        kind="plateau", levels=levels, c=cc, eigs=eigs, rows=rows,
        exponent=float(eigs.exponent(mu)), floor_u=None,
        meta={
            "anchors": {"t0": t0, "t1": t1},
            "cut": tcut,
            "margins": {"left": m_left, "right": m_right},
            "flank_mass": {"left": TL, "right": TR},
            "c_star": c_star,
            "seam": {"m0": (tcut + tau[m0]) % (2 * math.pi),
                     "m1": (tcut + tau[m1]) % (2 * math.pi)},
            "bumps": {"g0": g0, "g1": g1},
            "drift": {"b": drift_b, "a": drift_a},
            "B0_window": TorusFunction.from_samples(np.roll(B0, k0)),
            "B1_window": TorusFunction.from_samples(np.roll(B1, k0)),
            "A_window": TorusFunction.from_samples(np.roll(A, k0)),
            "primitive_note": ("window-coordinate values, cut at `cut`; "
                               "periodic iff the respective drift vanishes"),
        },
    )


# --------------------------------------------------------------------------- #
# L0 reduction: real c with Liouville mean
# --------------------------------------------------------------------------- #

def L0_reduction_witness(c: TorusFunction, certificate: LiouvilleCertificate,
                         eigs: EigenSequence, N: int = 512) -> WitnessBundle:
    """Witness for real-valued c whose mean carries a Liouville certificate.

    The phase-only variant: with A = int_0^t Re c and E_l = e^{-2 pi i a0
    lambda_l} computed from the certificate's exact signed residue,

        f_l = (1 - E_l) e^{-i lambda_l A(t)} phi(t),
        u_l = e^{-i lambda_l A(t)} [Phi_phi(t) + E_l (I_phi - Phi_phi(t))],

    where phi is the fixed Gevrey-2 bump with support [2, 4.5] and plateau
    [2.6, 3.9], Phi_phi its cumulative integral from 0, and I_phi =
    int_0^{2pi} phi.  Then |u_l(t_l)| = I_phi for every level (no decay)
    while sup|f_l| = |1 - E_l| sup|phi| <= 2 pi gap_l sup|phi| (certified
    decay).  The anchor search maximizes the cumulative integral of
    Im(lambda c), which vanishes identically here, so the anchor sits at
    t = 0, away from phi's support and from the seam.
    """
    cc = c.resample(N)
    if cc.imag_part().sup_norm() > 1e-12:
        raise ValueError("L0_reduction_witness requires Im c == 0 "
                         "(got a genuinely complex coefficient)")
    _check_certificate(certificate, eigs)
    kappa = certificate.kappa
    a0 = cc.mean().real
    if abs(a0 - float(kappa)) > 1e-12 * (1.0 + abs(float(kappa))):
        raise NoCertificate(
            f"certificate is for a0 = {float(kappa)!r} but mean(Re c) = {a0!r}; "
            f"build c with the certified mean")

    a = cc.real_part()
    A = _window_primitive(*_cover_primitive(a), 0, N)

    # anchor: argmax of the cumulative integral of Im(lambda c); Im c == 0
    # makes that cumulative identically zero, so the first grid point wins
    anchor_idx = 0
    t_anchor = float(grid(N)[anchor_idx])

    phi = gevrey_bump(2.0, (2.0, 4.5), (2.6, 3.9), N)
    phi_tf = phi.samples
    phv = np.real(phi_tf.samples)
    I_phi = 2.0 * math.pi * float(phi_tf.mean().real)

    Phi_phi = _window_primitive(*_cover_primitive(phi_tf), 0, N)   # cumulative from 0

    lam_cap = _BAND_FRACTION * (N / 2.0) / max(a.sup_norm(), 1e-300)
    levels, lams, us, fs = [], [], [], []
    for lev in certificate.levels:
        delta = kappa * lev.lam - lev.tau               # exact signed residue
        E = cmath.exp(-2j * math.pi * float(delta))
        one_minus_E = 1.0 - E
        lam_f = float(lev.lam)
        bracket = Phi_phi + E * (I_phi - Phi_phi)
        u_at_anchor = float(abs(bracket[anchor_idx]))   # = |E| * I_phi = I_phi
        if abs(u_at_anchor - I_phi) > 1e-9 * max(1.0, I_phi):
            raise WitnessCheckFailed(
                f"internal: |u(t_l)| = {u_at_anchor!r} != int(phi) = {I_phi!r}")
        sampled = lam_f <= lam_cap
        levels.append(WitnessLevel(
            j=lev.j, lam=lam_f, sup_u=float(np.max(np.abs(bracket))),
            sup_f=abs(one_minus_E) * float(np.max(phv)), lam_exact=lev.lam,
            row=len(us) if sampled else None,
            note="" if sampled else ("bandwidth beyond the grid; identity verified "
                                     "through the exact residue (|1 - E| = 2|sin(pi delta)|)")))
        if sampled:
            lams.append(lam_f)
            phase = np.exp(-1j * lam_f * A)
            us.append(phase * bracket)
            fs.append(one_minus_E * phase * phv)

    # the floor is |u(t_l)| = I_phi, which every sup|u| must reach
    return _verified(
        kind="l0-reduction", levels=levels, c=cc, eigs=eigs,
        exponent=float(certificate.e), floor_u=I_phi,
        rows=_ArrayRows(lams, np.array(us, dtype=np.complex128).reshape(-1, N),
                        np.array(fs, dtype=np.complex128).reshape(-1, N), np.arange(N)),
        meta={
            "a0": str(kappa),
            "t_anchor": t_anchor,
            "I_phi": I_phi,
            "sup_phi": float(np.max(phv)),
            "phi": phi,
            "gap_log10": [_gap_log10(lev.gap) for lev in certificate.levels],
            "gap_E": [abs(1.0 - cmath.exp(-2j * math.pi *
                                          float(kappa * lev.lam - lev.tau)))
                      for lev in certificate.levels],
            "u_floor_note": "|u_l(t_l)| = int(phi) exactly, independent of l",
        },
    )

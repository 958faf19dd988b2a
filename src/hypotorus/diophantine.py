"""Small-divisor arithmetic for mode-wise solvability analysis.

The solvability of each mode equation hinges on the distance from
``kappa * lambda_j`` to the nearest integer, where ``kappa`` is the mean of
the coefficient.  This module provides

* exact and floating-point distance-to-integer helpers, plus the two-sided
  sandwich ``4 d <= |1 - e^{2 pi i x}| <= 2 pi d`` that converts distances
  into divisor bounds;
* an exact classifier for rational ``kappa = p/q`` (resonances recur along a
  residue class, or the distance has a uniform positive floor);
* a heuristic fit that inspects the record envelope of ``-log d_j`` for the
  exponentially-deep approximations characteristic of exponential-Liouville
  numbers;
* a certified constructor that builds such a number by a greedy exact-rational
  scheme and returns a certificate whose verification uses integer arithmetic
  only.

Exponents follow the convention ``x_j = (j + 1)^e`` for 0-based mode
indices, with ``e = eigs.exponent(mu) = 1/(2 n mu)`` read off the spectrum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from . import csvio
from .diagnostics import ols
from .errors import ConfigError, HypotorusError
from .jsonio import dumps, plain, unlimited_int_digits
from .spectrum import EigenSequence, _exact_mu

__all__ = [
    "dist_to_int",
    "dist_to_int_exact",
    "divisor_sandwich",
    "DistanceSequence",
    "distance_sequence",
    "FitReport",
    "liouville_fit",
    "RationalVerdict",
    "classify_rational",
    "CertLevel",
    "LiouvilleCertificate",
    "construct_liouville",
    "LevelOverflow",
]

# Rational upper bound on log2(e) = 1.4426950408...; used to turn a bound
# exp(-x) into a bound 2^(-K) without ever touching floats.
_L2E_UP = Fraction(1442696, 1000000)

# Longest residue period classify_rational scans for the power kinds, whose
# residues follow no progression; about a second of integer arithmetic.
_POWER_SCAN_CAP = 1 << 20

# max/median threshold for the bounded-slope test, growth factor for the
# monotone-growth flag, and the floor applied to the median.  The test runs
# on scale-normalized slopes (envelope growth per e-fold of x), whose natural
# unit is the log of a continued-fraction partial quotient, i.e. order one;
# flooring the median there keeps flat and generic data bounded.
_RATIO_BOUND = 4.0
_GROWTH_FACTOR = 2.0
_MEDIAN_FLOOR = 1.0


class LevelOverflow(HypotorusError, RuntimeError):
    """A certified construction level would exceed the configured caps."""


# ---------------------------------------------------------------------------
# distances and the divisor sandwich
# ---------------------------------------------------------------------------

def dist_to_int(x: float) -> float:
    """Distance from ``x`` to the nearest integer, in [0, 1/2].

    Ties (half-integers) return exactly 0.5.  The result is exact whenever
    the fractional part of ``x`` is: ``min(f, 1 - f)`` incurs no rounding for
    f in [0, 1] by Sterbenz's lemma.
    """
    f = float(x) % 1.0
    return min(f, 1.0 - f)


def dist_to_int_exact(v: Union[Fraction, int]) -> Fraction:
    """Exact rational distance from ``v`` to the nearest integer."""
    v = Fraction(v)
    f = v - (v.numerator // v.denominator)
    return min(f, 1 - f)


def divisor_sandwich(x: float) -> Tuple[float, float, float]:
    """Return ``(4d, |1 - e^{2 pi i x}|, 2 pi d)`` with ``d = dist_to_int(x)``.

    The middle value is computed as ``2 sin(pi d)``, which equals the modulus
    of ``1 - e^{2 pi i x}`` exactly in real arithmetic.  All three outputs are
    derived from the same exact ``d`` so that the two-sided inequality
    ``lower <= value <= upper`` holds in floating point as well: with
    ``y = fl(pi * d)`` the upper bound is ``2 * y`` (sine never exceeds its
    argument) and the lower bound ``4 * d`` sits below the chord of the sine
    with a pi/2 margin.
    """
    d = dist_to_int(x)
    y = math.pi * d
    value = 2.0 * math.sin(y)
    lower = 4.0 * d
    upper = 2.0 * y
    if not (lower <= value <= upper):  # pragma: no cover - proof in tests
        raise AssertionError(f"sandwich violated at x={x!r}: {lower} {value} {upper}")
    return lower, value, upper


# ---------------------------------------------------------------------------
# distance sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceSequence:
    """Distances ``d_j = dist(kappa * lambda_j, Z)`` over a mode window.

    ``exact`` records whether the distances were computed in rational
    arithmetic (integer eigenvalues and rational ``kappa``), in which case
    zeros in ``d`` are genuine resonances rather than float underflow.
    """

    kappa: Union[float, Fraction]
    e: Fraction
    js: Tuple[int, ...]
    lambdas: Tuple[int, ...] | Tuple[float, ...]
    d: np.ndarray
    exact: bool

    def __len__(self) -> int:
        return len(self.js)

    @property
    def resonant_indices(self) -> Tuple[int, ...]:
        return tuple(int(self.js[i]) for i in np.flatnonzero(self.d == 0.0))

    def csv_pieces(self) -> Iterator[str]:
        """The CSV text in pieces: the header, then blocks of rows.

        An exact table at kappa = p/q holds at most floor(q/2) + 1 distinct
        distances; when that is at most three quarters of its rows, each
        distinct bit pattern of ``d`` is rendered once and its cell reused.
        Keyed on bits, -0.0 and 0.0 stay apart as their reprs do (equal
        floats would merge them).  Any other table renders value by value:
        timed on harmonic1d at J = 8192 and 65536, rendering once per
        pattern is the faster up to 3/4 and the slower from 7/8 on, where
        the sort and the gather no longer pay for the reprs they save."""
        d = self.d
        if self.exact and 4 * (Fraction(self.kappa).denominator // 2 + 1) <= 3 * d.size:
            d = np.ascontiguousarray(d, dtype=np.float64)
            bits, at = np.unique(d.view(np.uint64), return_inverse=True)
            d = np.array(csvio.cells(bits.view(np.float64)), dtype=object)[at]
        return csvio.pieces(("j", "lambda", "d"), self.js, self.lambdas, d)

    def to_csv(self) -> str:
        return "".join(self.csv_pieces())

    @staticmethod
    def from_csv(source, kappa=float("nan"), e=Fraction(1)) -> "DistanceSequence":
        """Inverse of :meth:`to_csv`, from the text or a text handle (see
        :class:`~hypotorus.csvio.SampleRows`)."""
        rows = csvio.SampleRows(source, ("j", "lambda", "d"), "distance CSV")
        return DistanceSequence(kappa=kappa, e=Fraction(e),
                                js=tuple(rows.column("j").tolist()),
                                lambdas=tuple(rows.column("lambda").tolist()),
                                d=rows.column("d").copy(), exact=False)


def distance_sequence(
    kappa: Union[float, Fraction],
    eigs: EigenSequence,
    mu: Union[Fraction, float] = Fraction(1, 2),
    J: Optional[int] = None,
) -> DistanceSequence:
    """Tabulate ``d_j = dist(kappa * lambda_j, Z)`` for ``j < J``, with the
    exponent ``e = eigs.exponent(mu)`` of class ``mu`` for the fit.

    With a ``Fraction`` kappa ``p/q`` and integer eigenvalues, ``d_j =
    min(r, q - r)/q`` with ``r = p lambda_j mod q`` in exact integer arithmetic,
    rounded once to float; zeros are exact resonances.  Float kappa gives a
    heuristic table whose precision degrades like ``|kappa| lambda_j eps``.
    """
    n_modes = len(eigs) if J is None else int(J)
    if n_modes < 1:
        raise ValueError("need at least one mode")
    if J is not None and J > len(eigs):
        raise ValueError(f"J={J} exceeds the tabulated window {len(eigs)}")
    e = eigs.exponent(mu)
    js = tuple(range(n_modes))
    exact = isinstance(kappa, (Fraction, int)) and eigs.integer_valued
    if exact:
        kap = Fraction(kappa)
        lams = eigs.exact[:n_modes]
        dq = _distance_numerators(lams, kap.numerator, kap.denominator)
        d = (dq / kap.denominator).astype(float)
    else:
        lams = tuple(eigs.lambdas[:n_modes].tolist())
        with np.errstate(over="ignore", invalid="ignore"):
            f = np.mod(float(kappa) * eigs.lambdas[:n_modes], 1.0)
        d = np.minimum(f, 1.0 - f)
    return DistanceSequence(kappa=kappa, e=e, js=js, lambdas=lams, d=d, exact=exact)


# ---------------------------------------------------------------------------
# heuristic fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitReport:
    """Windowed-slope report for a distance sequence.

    ``slopes`` are least-squares slopes of the running record envelope of
    ``-log d_j`` against ``(j+1)^e`` over dyadic index windows; they carry
    the sparse-subsequence signal that raw per-mode regressions wash out.
    ``normalized_slopes`` rescale each slope by the x-value at the window
    start, i.e. envelope growth per e-fold of x: for a number satisfying the
    Diophantine lower bound this stays of the order of the log of a
    continued-fraction partial quotient, while exponentially deep
    approximations make it grow like x itself.  ``raw_slopes`` are the
    regressions on the unenveloped values, for inspection.  Classification
    is heuristic by construction; only rational classification and
    certificates are definitive.
    """

    windows: Tuple[Tuple[int, int], ...]
    slopes: Tuple[float, ...]
    normalized_slopes: Tuple[float, ...]
    raw_slopes: Tuple[float, ...]
    max_over_median: float
    growth_monotone: bool
    classification: str
    resonant_indices: Tuple[int, ...]
    e: float
    n_modes_used: int
    heuristic: bool = True

    def as_dict(self) -> dict:
        d = plain(self)
        d["exponent"] = d.pop("e")
        return d

    def to_json(self) -> str:
        return dumps(self.as_dict())


def _dyadic_windows(n_modes: int) -> Iterable[Tuple[int, int]]:
    k = 2
    while 2 ** (k + 1) <= n_modes:
        yield (2 ** k, 2 ** (k + 1))
        k += 1


def liouville_fit(seq: DistanceSequence) -> FitReport:
    """Heuristic exponential-Liouville detection from a distance table.

    Fits ``-log d_j`` against ``x_j = (j+1)^e`` by least squares over dyadic
    windows ``[2^k, 2^{k+1})``.  Classification uses the slopes of the
    running record envelope (cumulative max of ``-log d_j``), normalized by
    the window-start x: a number fails the Diophantine lower bound exactly
    when ``(-log d_j)/x_j`` stays bounded away from zero along a
    subsequence, so the normalized envelope growth is the finite-sample face
    of that ratio.

    * "non-Liouville evidence": normalized slopes bounded
      (``max/median < 4`` with the median floored at 1);
    * "Liouville suspected": the bounded test fails, or the normalized
      slopes grow monotonically by more than 2x from window to window.

    Modes with ``d_j == 0`` are excluded from the fit and reported as
    resonant; if more than half the modes are resonant the input is a
    rational-resonance problem and ``classify_rational`` should be used.
    """
    n_modes = len(seq)
    if n_modes < 64:
        raise ValueError(f"need at least 64 modes for a windowed fit, got {n_modes}")
    d = np.asarray(seq.d, dtype=float)
    resonant = np.flatnonzero(d == 0.0)
    if len(resonant) > n_modes // 2:
        raise ValueError(
            f"{len(resonant)} of {n_modes} distances are exactly zero; "
            "the sequence is resonance-dominated - use classify_rational"
        )
    e = float(seq.e)
    x = (np.arange(n_modes) + 1.0) ** e
    with np.errstate(divide="ignore"):
        y = np.where(d > 0.0, -np.log(d), np.nan)

    env = np.maximum.accumulate(np.where(np.isnan(y), -np.inf, y))

    windows, slopes, norm_slopes, raw_slopes = [], [], [], []
    for lo, hi in _dyadic_windows(n_modes):
        xs = x[lo:hi]
        es = env[lo:hi]
        ok_env = np.isfinite(es)
        ok_raw = np.isfinite(y[lo:hi])
        if ok_env.sum() < 4:
            continue
        windows.append((lo, hi))
        s = ols(es[ok_env], xs[ok_env])[0]
        slopes.append(s)
        norm_slopes.append(s * float(x[lo]))
        raw_slopes.append(
            ols(y[lo:hi][ok_raw], xs[ok_raw])[0] if ok_raw.sum() >= 4 else float("nan")
        )

    med = max(float(np.median(norm_slopes)), _MEDIAN_FLOOR)
    ratio = max(norm_slopes) / med
    growth = len(norm_slopes) >= 2 and all(
        s1 > max(_GROWTH_FACTOR * s0, 0.0)
        for s0, s1 in zip(norm_slopes, norm_slopes[1:])
    )
    if ratio >= _RATIO_BOUND or growth:
        label = "Liouville suspected"
    else:
        label = "non-Liouville evidence"
    return FitReport(
        windows=tuple(windows),
        slopes=tuple(slopes),
        normalized_slopes=tuple(norm_slopes),
        raw_slopes=tuple(raw_slopes),
        max_over_median=float(ratio),
        growth_monotone=bool(growth),
        classification=label,
        resonant_indices=tuple(int(seq.js[i]) for i in resonant),
        e=e,
        n_modes_used=int(n_modes - len(resonant)),
    )


# ---------------------------------------------------------------------------
# exact rational classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalVerdict:
    """Exact resonance structure of ``kappa = p/q`` against an eigensequence.

    For formula-backed sequences the verdict covers all of ``j`` (scope
    "infinite"); for tabulated sequences only the stored window is inspected
    (scope "window").  ``resonant_classes`` lists the residues ``r`` modulo
    ``period`` (of the mode index for 1-d kinds, of the block index for the
    n-d kind) along which ``q | p lambda``; ``floor`` is the exact minimum of
    the nonzero distances, at least ``1/q``.
    """

    p: int
    q: int
    kind: str
    scope: str
    resonant: bool
    period: Optional[int]
    resonant_classes: Tuple[int, ...]
    floor: Optional[Fraction]
    class_variable: str = "j"

    @property
    def verdict(self) -> str:
        if self.resonant:
            return "resonant/Liouville-degenerate"
        return f"uniformly non-Liouville with floor {self.floor}"

    def as_dict(self) -> dict:
        return {**plain(self), "verdict": self.verdict}

    def to_json(self) -> str:
        return dumps(self.as_dict())


def _progression_residues(p: int, q: int, a: int,
                          step: int) -> Tuple[Tuple[int, ...], Optional[Fraction]]:
    """Zero classes and floor of ``p (a + step idx) mod q`` over ``idx`` in [0, q).

    The residues fill one coset ``p a + g Z_q`` of the subgroup ``g Z_q``,
    ``g = gcd(p step, q)``.  Zero lies in it iff ``g | p a``, and then the
    zero classes are ``idx0 + t q/g`` for ``t < g``; the other residues are
    ``g, 2g, ..., q - g``.  Otherwise the residues nearest 0 and q are
    ``r0`` and ``q - (g - r0)`` with ``r0 = p a mod g``.  O(log q) work
    (plus the ``g`` classes, at most ``step`` of them when gcd(p, q) = 1).
    """
    g = math.gcd(p * step, q)
    r0 = (p * a) % g
    if r0:
        return (), Fraction(min(r0, g - r0), q)
    period = q // g
    idx0 = (-(p * a // g) * pow(p * step // g, -1, period)) % period
    return tuple(range(idx0, q, period)), (Fraction(g, q) if g < q else None)


def _distance_numerators(lams, p: int, q: int) -> np.ndarray:
    """``q dist(p lambda / q, Z) = min(r, q - r)``, ``r = p lambda mod q``, for
    each integer ``lambda``: in int64 when max|lambda| |p| < 2^63 and
    q < 2^53, else Python ints in an object array, exact at any size.  Either
    way ``/ q`` then rounds correctly, as ``float(Fraction)`` does: int64
    numerators below q < 2^53 and q itself are exact doubles."""
    if q < 2**53:
        try:
            lam = np.array(lams, dtype=np.int64)
        except OverflowError:       # an eigenvalue beyond int64
            lam = np.empty(0, dtype=np.int64)
        if lam.size and max(1, -int(lam.min()), int(lam.max())) * abs(p) < 2**63:
            r = lam * p % q
            return np.minimum(r, q - r)
    r = np.asarray(lams, dtype=object) * p % q
    return np.minimum(r, q - r)


def classify_rational(p: int, q: int, eigs: EigenSequence) -> RationalVerdict:
    """Exact verdict for rational ``kappa = p/q`` (``q > 0``).

    ``d_j = dist(p lambda_j / q, Z) = min(r, q - r)/q`` with
    ``r = p lambda_j mod q``.  For the formula-backed eigenvalue kinds the
    residues are periodic (period ``q`` in the mode index, or in the value
    index for the product kind), so either some residue class is resonant --
    then infinitely many modes are unsolvable and the operator side is
    degenerate -- or every distance sits at or above an exact positive floor.
    ``harmonic1d`` and the ``harmonic_nd`` block index are arithmetic
    progressions and are decided in closed form; ``harmonic1d_power`` scans
    one period, 2^16 modes at a time, and raises ConfigError when ``q``
    exceeds ``_POWER_SCAN_CAP``.
    """
    p, q = int(p), int(q)
    if q <= 0:
        raise ValueError(f"q must be a positive integer, got {q}")
    if not eigs.integer_valued:
        raise ValueError("classify_rational needs integer eigenvalues")

    kind = eigs.kind
    head = kind.split()[0]
    scope, period, var = "infinite", q, "j"
    if head == "harmonic1d":
        classes, floor = _progression_residues(p, q, 1, 2)     # lambda = 2j + 1
    elif head == "harmonic_nd":
        # every energy block n + 2*ell is hit by at least one mode, so the
        # residue pattern in the block index decides recurrence
        classes, floor = _progression_residues(p, q, eigs.n, 2)
        var = "block"
    else:
        if head == "harmonic1d_power":
            if q > _POWER_SCAN_CAP:
                raise ConfigError(
                    f"kappa denominator {q} exceeds the residue scan bound "
                    f"{_POWER_SCAN_CAP} for {kind!r}")
            # j in chunks, so the object arrays of one chunk are all that is held
            k, step = int(kind.split()[1]), 1 << 16
            chunks = (np.arange(2 * lo + 1, 2 * min(lo + step, q), 2, dtype=object) ** k
                      for lo in range(0, q, step))
        else:
            chunks, scope, period = [eigs.exact], "window", None
        hits, low, base = [], None, 0
        for lams in chunks:
            dq = _distance_numerators(lams, p, q)
            zero = dq == 0
            hits += (np.flatnonzero(zero) + base).tolist()
            if not zero.all():
                m = int(dq[~zero].min())
                low = m if low is None else min(low, m)
            base += dq.size
        classes = tuple(hits)
        floor = None if low is None else Fraction(low, q)

    return RationalVerdict(
        p=p, q=q, kind=kind, scope=scope,
        resonant=bool(classes), period=period,
        resonant_classes=classes, floor=floor,
        class_variable=var,
    )


# ---------------------------------------------------------------------------
# certified construction
# ---------------------------------------------------------------------------

def _nth_root_floor(x: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer, by Newton iteration."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return 0
    if k == 1:
        return x
    if k >= x.bit_length():         # x < 2^k: the root lies in [1, 2)
        return 1
    r = 1 << (-(-x.bit_length() // k))
    while True:
        rn = ((k - 1) * r + x // r ** (k - 1)) // k
        if rn >= r:
            break
        r = rn
    while r ** k > x:
        r -= 1
    return r


def _x_upper(j: int, e: Fraction) -> int:
    """Integer upper bound ``ceil((j+1)^e)`` computed exactly."""
    num, den = e.numerator, e.denominator
    t = (j + 1) ** num
    r = _nth_root_floor(t, den)
    return r if r ** den == t else r + 1


def _k_bound(j: int, e: Fraction) -> int:
    """Smallest certified K with ``2^-K <= exp(-(j+1)^e)``.

    ``K = ceil(x_up * L2E_UP)`` with ``x_up >= (j+1)^e`` and
    ``L2E_UP > log2(e)``, so ``2^-K <= 2^(-x log2 e) = e^-x`` by a chain of
    exact integer inequalities.
    """
    xu = _x_upper(j, e)
    n, d = _L2E_UP.numerator, _L2E_UP.denominator
    return -((-xu * n) // d)


def _frac_le_pow2(a: int, b: int, K: int) -> bool:
    """Exact test ``a/b <= 2^-K`` for ``a >= 0``, ``b > 0``, ``K >= 0``.

    Uses bit lengths to decide all but a one-bit-wide band, so the huge-K
    cases never materialize ``2^K``.
    """
    if a == 0:
        return True
    alen, blen = a.bit_length(), b.bit_length()
    if alen + K <= blen - 1:
        return True
    if alen + K >= blen + 1:
        return False
    return (a << K) <= b


def _fraction_from_json(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


@dataclass(frozen=True)
class CertLevel:
    """One certified approximation level ``|kappa*lambda - tau| <= 2^-K``."""

    j: int
    lam: int
    tau: int
    gap: Fraction
    K: int


@dataclass(frozen=True)
class LiouvilleCertificate:
    """Exact-rational certificate for an exponential-Liouville number.

    At every stored level the integer distance is exponentially small:
    ``|kappa*lambda_{j_l} - tau_l| <= 2^{-K_l} <= exp(-(j_l+1)^e)``.
    ``verify`` recomputes each gap from scratch and re-derives each exponent
    bound; the check path is pure integer arithmetic (the power ``2^-K`` is
    compared through bit lengths and is never materialized for large ``K``).
    """

    kappa: Fraction
    levels: Tuple[CertLevel, ...]
    n: int
    mu: Fraction
    e: Fraction
    eigs_kind: str
    ap_index: Tuple[int, int]

    def verify(self) -> bool:
        prev_j = -1
        for lev in self.levels:
            if lev.j <= prev_j:
                return False
            prev_j = lev.j
            base, step = self.ap_index
            if lev.lam != base + step * lev.j:
                return False
            gap = abs(self.kappa * lev.lam - lev.tau)
            if gap != lev.gap:
                return False
            K = _k_bound(lev.j, self.e)
            if K > lev.K:
                return False
            if not _frac_le_pow2(gap.numerator, gap.denominator, K):
                return False
        return True

    def gaps(self) -> Tuple[Fraction, ...]:
        return tuple(lev.gap for lev in self.levels)

    def as_dict(self) -> dict:
        with unlimited_int_digits():
            return {
                "kappa": self.kappa,
                "n": self.n,
                "mu": self.mu,
                "exponent": self.e,
                "eigs_kind": self.eigs_kind,
                "ap_index": list(self.ap_index),
                "levels": [
                    {
                        "j": str(lev.j),
                        "lambda": str(lev.lam),
                        "tau": str(lev.tau),
                        "gap": lev.gap,
                        "K": str(lev.K),
                    }
                    for lev in self.levels
                ],
            }

    def to_json(self) -> str:
        return dumps(self.as_dict())

    @staticmethod
    def from_json(text: str) -> "LiouvilleCertificate":
        with unlimited_int_digits():
            obj = json.loads(text)
            levels = tuple(
                CertLevel(
                    j=int(lv["j"]),
                    lam=int(lv["lambda"]),
                    tau=int(lv["tau"]),
                    gap=_fraction_from_json(lv["gap"]),
                    K=int(lv["K"]),
                )
                for lv in obj["levels"]
            )
            return LiouvilleCertificate(
                kappa=_fraction_from_json(obj["kappa"]),
                levels=levels,
                n=int(obj["n"]),
                mu=_fraction_from_json(obj["mu"]),
                e=_fraction_from_json(obj["exponent"]),
                eigs_kind=obj["eigs_kind"],
                ap_index=tuple(int(v) for v in obj["ap_index"]),
            )


def construct_liouville(
    eigs: EigenSequence,
    L: int,
    *,
    mu: Union[Fraction, float] = Fraction(1, 2),
    j_cap: Optional[int] = 10**6,
    bits_cap: int = 2_000_000,
    j_start: int = 1,
    tau_start: int = 1,
) -> LiouvilleCertificate:
    """Greedy exact-rational construction of an exponential-Liouville number.

    Starting from ``kappa_1 = tau_1 / lambda_{j_1}``, each new level picks the
    smallest admissible eigenvalue ``lambda = lambda_{j}`` with
    ``P * lambda == 1 (mod D)`` (``kappa = P/D`` in lowest terms), so the
    adjusted ``kappa - 1/(D lambda)`` equals ``tau/lambda`` exactly for an
    integer ``tau``.  Admissible means large enough that the adjustment --
    and the summed tail of all later adjustments, via a budget that halves
    per level -- keeps every earlier gap below ``exp(-(j_i+1)^e)``, where
    ``e = eigs.exponent(mu)``.

    Raises :class:`LevelOverflow` when the next level would exceed ``j_cap``
    (pass ``None`` to lift; levels grow roughly like ``exp((j+1)^e)`` per
    step) or when the certified modulus would need more than ``bits_cap``
    bits (levels beyond that are astronomically out of reach of exact
    arithmetic: the following eigenvalue index is itself exponential in the
    previous one).
    """
    if L < 1:
        raise ValueError(f"need at least one level, got L={L}")
    if not eigs.integer_valued:
        raise ConfigError("construction needs integer eigenvalues")
    if eigs.ap_index is None:
        raise ConfigError(
            f"eigenvalue kind {eigs.kind!r} is not an arithmetic progression in j; "
            "the congruence step of the construction needs one"
        )
    lam_arr = eigs.lambdas
    if len(lam_arr) >= 2 and not np.all(np.diff(lam_arr) > 0):
        raise ConfigError("construction needs strictly increasing eigenvalues")
    e = eigs.exponent(mu)
    base, step = eigs.ap_index

    j1 = int(j_start)
    lam1 = base + step * j1
    if lam1 < 2:
        raise ValueError(f"starting eigenvalue {lam1} is too small to carry a denominator")
    tau1 = int(tau_start)
    kappa = Fraction(tau1, lam1)
    js = [j1]
    lams = [lam1]
    taus = [tau1]

    for lev in range(2, L + 1):
        P, D = kappa.numerator, kappa.denominator
        if math.gcd(step, D) != 1:
            raise LevelOverflow(
                f"level {lev}: progression step {step} shares a factor with the "
                f"working denominator {D}"
            )
        lam_min = lams[-1] + step  # strict increase at minimum
        for i in range(len(js)):
            K = (lev - (i + 1)) + _k_bound(js[i], e)
            if K > bits_cap:
                raise LevelOverflow(
                    f"level {lev}: certified modulus needs more than {bits_cap} bits"
                )
            # lambda >= 2^K * lambda_{j_i} / D  ensures the adjustment at this
            # level erodes the level-i gap by at most 2^-K.
            need = -((-(1 << K) * lams[i]) // D)
            if need > lam_min:
                lam_min = need
        t = pow(P % D, -1, D) if D > 1 else 0
        j0 = ((t - base) * pow(step, -1, D)) % D if D > 1 else 0
        j_floor = max(js[-1] + 1, -((-(lam_min - base)) // step))
        j = j0 + D * (-(-(j_floor - j0) // D))
        if j_cap is not None and j > j_cap:
            shown = str(j) if j.bit_length() <= 64 else f"~2^{j.bit_length()}"
            raise LevelOverflow(
                f"level {lev}: needs mode index {shown} beyond the cap {j_cap}"
            )
        lam = base + step * j
        tau = (P * lam - 1) // D
        kappa = kappa - Fraction(1, D * lam)
        assert kappa == Fraction(tau, lam)
        js.append(j)
        lams.append(lam)
        taus.append(tau)

    levels = []
    for j, lam, tau in zip(js, lams, taus):
        gap = abs(kappa * lam - tau)
        K = _k_bound(j, e)
        if not _frac_le_pow2(gap.numerator, gap.denominator, K):
            raise AssertionError(f"internal: gap at level j={j} misses its certified bound")
        levels.append(CertLevel(j=j, lam=lam, tau=tau, gap=gap, K=K))

    cert = LiouvilleCertificate(
        kappa=kappa,
        levels=tuple(levels),
        n=eigs.n,
        mu=_exact_mu(mu),
        e=e,
        eigs_kind=eigs.kind,
        ap_index=(base, step),
    )
    if not cert.verify():  # pragma: no cover - construction guarantees this
        raise AssertionError("internal: freshly built certificate failed verification")
    return cert

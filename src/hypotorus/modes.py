"""Mode-by-mode solver for the periodic equations  u_j' + i*lam_j*c(t)*u_j = f_j.

Each eigenvalue lam of P turns L u = f into a scalar ODE on the circle.  When
lam*c0 is not an integer (c0 = mean of c) the ODE has exactly one periodic
solution, given by either of two equivalent integral formulas:

    u(t) = (1 - E1)^{-1} * int_0^{2pi} exp(-i lam int_{t-s}^{t} c) f(t-s) ds
    u(t) = (E2 - 1)^{-1} * int_0^{2pi} exp(+i lam int_{t}^{t+s} c) f(t+s) ds

with E1 = exp(-2 pi i lam c0), E2 = exp(+2 pi i lam c0).  Writing
int c = c0*s + C(t) - C(t-s) with C the pinned primitive of the oscillating
part, and expanding G(r) = exp(i lam C(r)) f(r) in Fourier modes, the inner
s-integral is elementary per mode, and it produces the factor 1 - E1 (first
formula) or E2 - 1 (second) that cancels the formula's prefactor.  So both
formulas are one Fourier multiplier:

    u(t) = exp(-i lam C(t)) * sum_k Ghat_k e^{ikt} / (i (lam c0 + k))

evaluated in closed form (the integrand is *not* periodic in s, so a naive
trapezoid rule in s would be wrong by O(1); see the quadrature notes in the
tests).  What still tells the formulas apart is their divisor, |1 - E1| or
|E2 - 1|; the two differ by the factor |E2| = exp(2 pi lam b0) (b0 = Im c0).
The sign rule takes the first when lam*b0 <= 0 and the second when
lam*b0 >= 0, the smaller divisor, and that divisor decides resonance, the
residual budget and the ill-conditioned flag, and labels the mode "solu1" or
"solu2".  Forcing formula 1 or 2 forces only that choice.

The gauge factor exp(+-i lam C(t)) grows like exp(|lam| osc(Im C)), and the
split multiplies roundoff by that factor.  When |lam|*osc(Im C) exceeds a
small budget the solver switches to an equivalent Fourier collocation system

    i k uhat_k + i lam (chat * uhat)_k = fhat_k      (* = circular convolution)

which is exact on the grid up to linear-algebra roundoff.  When c has degree
d small against n (a formula c), the system is cyclic banded in frequency
order: a batched banded LU with partial pivoting, plus a rank-2d Woodbury
correction for the wrap-around corners, solves many modes in O(n) numpy
steps.  A wide band (a sampled c with a full spectrum) is solved densely, mode
by mode.  Every solve is verified by applying the operator back to the
result; if the integral path misses its residual budget the mode is re-solved
by collocation and flagged ``refactored``.  One routine makes these choices
with masks over the (m, n) forcing rows and returns the solution rows plus a
DivisorReport, one array per audit column and one row per mode;
``solve_field`` returns that report as it is, and ``solve_mode_detailed``
hands the routine a single row and reads row 0 of its report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import csvio
from .errors import ConfigError, HypotorusError
from .spectrum import EigenSequence
from .torusfn import (MeanDecomposition, TorusFunction, _band_width, _check_size, grid,
                      wavenumbers)

__all__ = [
    "ModeField",
    "ModeSolution",
    "DivisorReport",
    "ResonantMode",
    "small_divisor",
    "solve_mode",
    "solve_mode_detailed",
    "solve_field",
    "apply_mode",
    "apply_operator",
    "operator_residuals",
    "row_chunks",
    "index_runs",
]

TOL_RES = 1e-8          # divisor below this -> mode treated as resonant
TOL_ILL = 1e-4          # divisor below this -> solvable but flagged ill-conditioned
OSC_BUDGET = 10.0       # max |lam|*osc(Im C) for the integral path in auto mode
_EXP_MAX = 700.0        # a larger real exponent of E nears the IEEE-double overflow
_CHUNK_CELLS = 3 << 20  # complex numbers in one banded chunk's G and X (48 MiB)

#: Ceiling in bytes on a run's largest array.  The CLI refuses a config whose
#: largest array, as ExperimentConfig.array_bytes estimates it (decay: the
#: input field times k_max + 1, conservative now that decay holds about two
#: derivative levels at a time), would exceed it before
#: anything is built; dense collocation refuses a grid whose n x n complex
#: matrix would (n > 2048), before any n x n allocation.  The witness term
#: of array_bytes, levels x witness_n cells, over-counts a witness's peak:
#: two row_chunks blocks of u and f (the one being filled and the one whose
#: residuals the helper thread takes) plus that thread's one block of
#: residual scratch, about 3.5 MiB at levels 512, witness_n 8192.  Peak
#: memory is a multiple of the largest array: a solve of a 32 MiB field
#: (J = 512, grid 4096, every mode forced) peaks at 225-229 MB RSS, about
#: 7x, set by the banded chunk (the CSV is written one mode block at a
#: time).  Writing the CSV adds one child process (csvio.write): it holds
#: its own render buffers, one mode block at a time, and the pages it
#: shares with the parent copy-on-write, so its own peak RSS counts mostly
#: shared pages, not a second field.  Reading a large CSV (decay, f_file)
#: adds one short-lived child too (csvio.SampleRows): it parses the first
#: half of the file into records, about half the parsed table, and passes
#: them back through a temporary file.  ROADMAP item 2 replaces this
#: ceiling with a peak estimate per command.
MAX_ARRAY_BYTES = 1 << 27


class ResonantMode(HypotorusError):
    """lam*c0 is (numerically) an integer: the mode equation is not invertible."""

    exit_code = 2

    def __init__(self, lam: float, divisor: float, message: str):
        self.lam = lam
        self.divisor = divisor
        super().__init__(message)


# --------------------------------------------------------------------------- #
# small divisors
# --------------------------------------------------------------------------- #

def _divisor(lam: float, c0: complex, which: int) -> float:
    """|1 - e^{-2 pi i lam c0}| (which=1) or |e^{2 pi i lam c0} - 1| (which=2).

    Computed as sqrt(expm1(x)^2 + 4 e^x sin^2(pi r)), with x the real
    exponent of the formula's E-factor and r the fractional part of
    lam*Re(c0) reduced to the nearest integer, accurate even within 1e-15 of
    a resonance; inf when x exceeds _EXP_MAX.
    """
    x = 2.0 * math.pi * lam * c0.imag
    if which == 2:
        x = -x
    if x > _EXP_MAX:
        return math.inf
    y = lam * c0.real
    r = y - round(y)  # |r| <= 1/2 up to float error of y itself
    return math.hypot(math.expm1(x), 2.0 * math.exp(x / 2.0) * abs(math.sin(math.pi * r)))


def small_divisor(lam: float, c0: complex) -> float:
    """|1 - e^{-2 pi i lam c0}|, the prefactor denominator of the first formula.

    For real c0 this reduces to 2|sin(pi lam c0)| evaluated after reduction to
    the nearest integer, which keeps full accuracy near resonances.
    """
    return _divisor(lam, complex(c0), 1)


# --------------------------------------------------------------------------- #
# the closed-form integral path and the collocation path
# --------------------------------------------------------------------------- #

def _solve_integral(lams: np.ndarray, dec: MeanDecomposition,
                    F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Samples and fft/n coefficients of the closed-form solution of each row
    of ``F``, with eigenvalue lams[s] (the module docstring's multiplier).
    Products keep the single-mode operand order, in place so that one (m, n)
    buffer is live at a time: complex multiplication is not bitwise
    commutative under FMA, and a row's bytes must not depend on its batch."""
    n = F.shape[1]
    Ct = dec.tilde_primitive.samples          # centre Im C: the gauge exponent is symmetric
    Cc = Ct - 1j * (0.5 * (Ct.imag.max() + Ct.imag.min()))
    lam = lams[:, None]
    k = np.fft.fftfreq(n, d=1.0 / n)          # integers; slot n/2 holds -n/2
    g = np.exp(1j * lam * Cc)                 # e^{+i lam C(t)}
    g *= F
    g = np.fft.fft(g, axis=1)
    g /= n                                    # Ghat_k
    g /= 1j * (lam * dec.c0 + k)              # core_k
    g[:, n // 2] = 0.0                        # Nyquist convention matches derivative()
    g = np.fft.ifft(g, axis=1)
    g *= n                                    # sum_k core_k e^{ikt} on the grid
    u = np.exp(-1j * lam * Cc)                # e^{-i lam C(t)}
    u *= g
    uhat = np.fft.fft(u, axis=1)
    uhat /= n
    return u, uhat


def _banded_lu_solve(GX: np.ndarray, w: int) -> np.ndarray:
    """Solve B x = X in place for a batch of m band matrices (partial pivoting).

    ``GX`` is (n, w + r, m), modes on the last axis, so matrix row s of the
    whole batch is one contiguous (w + r, m) block: ``GX[s, q]`` holds
    B[s, s - d + q] for q = 0..2d = w - 1 (entries outside the matrix are
    zero) and ``GX[s, w:]`` row s of the r right-hand sides.  Elimination
    runs on one sliding (d+1, w + r, m) window, rows s..s+d with band
    columns s..s+2d followed by their right-hand sides, one numpy step per
    column for the whole batch; the row swap (skipped at a column where no
    mode pivots), the update and the store each touch band and right-hand
    sides in one call.  Row s of U (columns s..s+2d, the band grown by
    pivoting) and its right-hand sides overwrite GX[s] once the row has
    left the window; back substitution then leaves x in ``GX[:, w:]``,
    reading column s of U (U[t, s] = GX[t, s - t]) through one strided
    view.  This is the band LU of Golub & Van Loan, Matrix Computations,
    section 4.3.  Returns the (m,) mask of modes whose pivot column was
    exactly zero.  Only elementwise operations touch the batch axis (the two
    batch-wide tests skip a swap or a pivot fix that would change no byte),
    so each mode's bytes do not depend on the batch it rides in.  numpy's
    complex multiply rounds differently in its scalar loop, which it takes
    for a one-element product whose operands differ in rank; so the back
    substitution multiplies operands of equal rank, and a lone mode's
    one-element product (m = r = 1) takes the loop of every larger batch.
    """
    n, width, m = GX.shape
    d = (w - 1) // 2
    rows = np.arange(m)
    singular = np.zeros(m, dtype=bool)
    M = np.zeros((d + 1, width, m), dtype=np.complex128)
    for i in range(d + 1):
        M[i, :i + d + 1] = GX[i, d - i:w]
        M[i, w:] = GX[i, w:]
    # views of the window made once: column s, the pivot row and its pivot,
    # the entries below the pivot and the rows below right of column s
    col, top, piv, mult, prow, below = M[:, 0], M[0], M[0, 0], M[1:, :1], M[:1, 1:], M[1:, 1:]
    mag = np.empty((m, d + 1))                # |column s|, argmax along its rows
    p = np.empty(m, dtype=np.intp)
    l = np.empty((d, 1, m), dtype=np.complex128)
    t = np.empty((d, width - 1, m), dtype=np.complex128)
    for s in range(n):
        np.abs(col, out=mag.T)
        mag.argmax(axis=1, out=p)
        if np.count_nonzero(p):
            swap = M[p, :, rows]
            M[p, :, rows] = top.T
            top[...] = swap.T
        if np.count_nonzero(piv) < m:
            zero = piv == 0
            singular |= zero
            piv[zero] = 1.0
        np.divide(mult, piv, out=l)
        np.multiply(l, prow, out=t)
        np.subtract(below, t, out=below)
        GX[s] = top
        M[:-1, :w - 1] = M[1:, 1:w]
        M[:-1, w - 1] = 0.0
        M[:-1, w:] = M[1:, w:]
        M[-1] = GX[s + d + 1] if s + d + 1 < n else 0.0
    G, X = GX[:, :w], GX[:, w:]
    s0, s1, s2 = G.strides
    # U[a + j, a + 2d] = G[a + j, 2d - j] = diag[a, j]: column a + 2d of U
    diag = as_strided(G[:, 2 * d:], (max(0, n - 2 * d), 2 * d, m), (s0, s0 - s1, s2),
                      writeable=False)
    prod = np.empty((2 * d, width - w, m), dtype=np.complex128)
    for s in range(n - 1, -1, -1):           # column-oriented back substitution
        xs = X[s]
        np.divide(xs, G[s, :1], out=xs)
        lo = max(0, s - 2 * d)
        u = diag[lo] if s >= 2 * d else as_strided(G[:, s:], (s, m), (s0 - s1, s2),
                                                    writeable=False)
        np.multiply(u[:, None], xs[None], out=prod[:s - lo])
        np.subtract(X[lo:s], prod[:s - lo], out=X[lo:s])
    return singular


def _solve_cyclic_banded(lams: np.ndarray, chat: np.ndarray, fhat: np.ndarray,
                         d: int) -> tuple[np.ndarray, np.ndarray]:
    """Collocation for a batch when chat vanishes beyond |k| = d.

    In frequency order (fftshift) the matrix A = diag(ik) + i lam conv(chat)
    is cyclic banded: a band B of half-width d plus the 2d wrap-around
    corner entries, which couple the highest frequencies with the lowest.
    A = B + U V^T with U the unit columns of the corner rows R, so by the
    Sherman-Morrison-Woodbury identity
        x = y - Z (I + V^T Z)^{-1} V^T y,    y = B^{-1} f,  Z = B^{-1} U,
    and one banded solve with 2d + 1 right-hand sides restores the corners
    exactly.  B is invertible when Im c >= 0 (or <= 0) is not identically 0:
    Re x*Bx = -lam x*T(Im c)x with T the positive definite Toeplitz section.
    The band G and the right-hand sides X share one (n, 2(2d+1), m) array
    laid out for :func:`_banded_lu_solve`: ``G[s, q, i]`` = B[s, s - d + q]
    of mode i, ``X[s, 0, i]`` row s of its forcing and ``X[s, 1:, i]`` row s
    of the corner columns U.
    """
    m, n = fhat.shape
    w = 2 * d + 1
    q = np.arange(w)
    k = np.fft.fftshift(wavenumbers(n))
    GX = np.zeros((n, 2 * w, m), dtype=np.complex128)
    G, X = GX[:, :w], GX[:, w:]
    G[:] = ((1j * lams)[:, None] * chat[(d - q) % n]).T
    G[:, d] += (1j * k)[:, None]
    cols = np.arange(n)[:, None] - d + q      # column of G[s, q]
    corner = (cols < 0) | (cols >= n)
    R = np.r_[0:d, n - d:n]                   # corner rows; corner columns are R too
    slot = np.zeros(n, dtype=np.intp)
    slot[R] = np.arange(2 * d)
    ri, qi = np.nonzero(corner[R])
    V = np.zeros((m, 2 * d, 2 * d), dtype=np.complex128)   # V^T restricted to columns R
    V[:, ri, slot[cols[R[ri], qi] % n]] = G[R[ri], qi].T
    G[R[ri], qi] = 0.0

    X[:, 0] = np.fft.fftshift(fhat, axes=1).T
    X[R, 1 + np.arange(2 * d)] = 1.0
    singular = _banded_lu_solve(GX, w)
    y, Z = X[:, 0], X[:, 1:]

    S = np.zeros((m, 2 * d, 2 * d), dtype=np.complex128)
    S[:, np.arange(2 * d), np.arange(2 * d)] = 1.0
    Vy = np.zeros((m, 2 * d), dtype=np.complex128)
    for i in range(2 * d):                    # fixed-order sums, no batched BLAS
        S += V[:, :, i, None] * Z[R[i]].T[:, None, :]
        Vy += V[:, :, i] * y[R[i], :, None]
    try:
        coef = np.linalg.solve(S, Vy[..., None])[..., 0]
    except np.linalg.LinAlgError:             # find the singular modes one by one
        coef = np.zeros_like(Vy)
        for i in range(m):
            try:
                coef[i] = np.linalg.solve(S[i], Vy[i])
            except np.linalg.LinAlgError:
                singular[i] = True
    x = y.copy()
    for i in range(2 * d):
        x -= Z[:, i] * coef[:, i]
    return np.fft.ifftshift(x.T, axes=1), singular


def _banded_chunk(n: int, d: int) -> int:
    """Modes per cyclic-banded chunk at grid n and band half-width d: G and X
    (one array, see _solve_cyclic_banded) hold 2 n (2d+1) complex numbers per
    mode, and a chunk holds at most _CHUNK_CELLS.  A mode's bytes do not
    depend on its chunk (see _banded_lu_solve)."""
    return max(1, _CHUNK_CELLS // n // (2 * (2 * d + 1)))


def _solve_collocation(lams: np.ndarray, c: TorusFunction,
                       fhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fourier collocation for a batch of modes: exact on the grid up to
    solver roundoff.

    ``lams`` is (m,), ``fhat`` the (m, n) forcing coefficients; returns the
    (m, n) solution coefficients and an (m,) mask of modes whose matrix is
    singular (a true resonance).  A narrow band (8(3d+1) <= n, the crossover
    measured for n = 256..1024) goes through the cyclic-banded solver in
    chunks of :func:`_banded_chunk` modes; a wide band, such as a sampled c
    with a full spectrum, is solved densely mode by mode.
    """
    m, n = fhat.shape
    chat = c.coeffs
    d = _band_width(chat)
    uhat = np.empty((m, n), dtype=np.complex128)
    singular = np.zeros(m, dtype=bool)
    if 8 * (3 * d + 1) <= n:
        step = _banded_chunk(n, d)
        for lo in range(0, m, step):
            hi = lo + step
            uhat[lo:hi], singular[lo:hi] = _solve_cyclic_banded(
                lams[lo:hi], chat, fhat[lo:hi], d)
        return uhat, singular
    if 16 * n * n > MAX_ARRAY_BYTES:
        raise ConfigError(
            f"dense collocation at grid n = {n}, band half-width d = {d} (the banded "
            f"solver takes d <= {(n // 8 - 1) // 3}), needs an n x n complex matrix of "
            f"{16 * n * n >> 20} MiB, over the {MAX_ARRAY_BYTES >> 20} MiB ceiling; "
            f"lower grid_n or the degree of c")
    k = wavenumbers(n)
    # conv[i, j] = chat[(i - j) mod n]: rows of a strided view of the
    # reversed, doubled coefficients, with no (n, n) index array
    rev = np.concatenate([chat, chat])[::-1]
    conv = np.lib.stride_tricks.sliding_window_view(rev, n)[n - 1::-1]
    for i, lam in enumerate(lams):
        try:
            uhat[i] = np.linalg.solve(np.diag(1j * k) + 1j * lam * conv, fhat[i])
        except np.linalg.LinAlgError:         # exactly singular: true resonance
            singular[i] = True
    return uhat, singular


# --------------------------------------------------------------------------- #
# public solver API
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class ModeSolution:
    """solve_mode output plus its audit trail."""

    u: TorusFunction
    lam: float
    divisor: float
    formula: str            # "solu1" | "solu2" | "fourier"
    residual: float
    residual_budget: float
    ill_conditioned: bool = False
    refactored: bool = False


@dataclass(eq=False)
class DivisorReport:
    """The solver's record of a batch: one row per mode, as equal-length
    columns.  ``j`` and ``lam`` name the mode; ``divisor``, ``formula``,
    ``residual``, ``residual_budget``, ``ill_conditioned`` and ``refactored``
    are ModeSolution's fields; ``resonant`` marks a mode left
    unsolved, ``singular`` one whose collocation matrix was exactly singular
    (divisor 0).  A resonant row has formula "", a NaN residual and no flags."""

    j: np.ndarray
    lam: np.ndarray
    divisor: np.ndarray
    resonant: np.ndarray
    singular: np.ndarray
    formula: np.ndarray
    residual: np.ndarray
    residual_budget: np.ndarray
    ill_conditioned: np.ndarray
    refactored: np.ndarray

    def resonant_indices(self) -> list[int]:
        return self.j[self.resonant].tolist()

    def max_residual(self) -> float:
        """The largest residual of a solved mode (NaN if any is NaN, or if none is solved)."""
        solved = self.residual[~self.resonant]
        return float(np.max(solved)) if solved.size else math.nan

    def to_csv(self) -> str:
        return csvio.text(("j", "lambda", "divisor", "resonant"),
                          self.j, self.lam, self.divisor, self.resonant)


def apply_mode(lam: float, c: TorusFunction, u: TorusFunction) -> TorusFunction:
    """f = u' + i*lam*c*u (spectral derivative, pointwise product)."""
    if c.n != u.n:
        c = c.resample(u.n)
    return TorusFunction(_apply_rows(np.array([lam], dtype=np.float64), c,
                                     u.samples[None], u.coeffs[None])[0])


def _solve_modes(lams: np.ndarray, js: np.ndarray, c: TorusFunction,
                 dec: MeanDecomposition, F: np.ndarray, Fhat: np.ndarray | None,
                 formula: str | int,
                 tol_res: float) -> tuple[np.ndarray, np.ndarray, DivisorReport]:
    """Solve u' + i*lam*c*u = f for the rows ``js`` of the (m, n) forcing
    samples ``F`` (coefficients ``Fhat``, or None for fft(F)/n), ``lams``
    aligned to ``js``, c on the rows' grid with mean decomposition ``dec``.

    Returns the (m, n) solution samples and coefficients (zero off ``js`` and
    on resonant rows) and the DivisorReport of the rows ``js``.  Masks pick
    each mode's path: the sign rule's formula gives the divisor, budget and
    conditioning flag, and a divisor below ``tol_res`` is resonant.  Forced
    collocation, or |lam|*osc(Im C) > OSC_BUDGET in auto mode, sends a mode
    to collocation; else its formula runs (a forced one is resonant if its
    own divisor is below ``tol_res`` or 0), and in auto mode a budget miss
    (NaN misses) joins collocation as ``refactored``.  Both paths run over
    chunks of rows; every residual comes from operator_residuals.
    """
    if formula not in ("auto", 1, 2, "fourier"):
        raise ValueError(f"formula must be 'auto', 1, 2 or 'fourier', got {formula!r}")
    n, c0 = F.shape[1], dec.c0
    which = np.where(lams * c0.imag <= 0.0, 1, 2)   # sign rule; ties go to the first
    divisor = np.array([_divisor(lam, c0, w) for lam, w in zip(lams.tolist(), which.tolist())])
    with np.errstate(all="ignore"):                 # scalar arithmetic: no warnings
        budget = np.where(divisor != 0.0,
                          1e-8 * (1.0 + np.abs(F).max(axis=1)[js] / divisor), math.inf)
    ill = divisor < TOL_ILL
    resonant = divisor < tol_res
    osc = float(np.ptp(dec.tilde_primitive.samples.imag))
    coll = ~resonant & ((formula == "fourier")
                        | ((formula == "auto") & (np.abs(lams) * osc > OSC_BUDGET)))
    integral = ~resonant & ~coll
    if formula in (1, 2):
        which[:] = formula
        forced = np.flatnonzero(integral)
        divisor[forced] = [_divisor(lam, c0, formula) for lam in lams[forced].tolist()]
        resonant[forced] = (divisor[forced] < tol_res) | (divisor[forced] == 0.0)
        integral &= ~resonant

    U, Uhat = np.zeros((2, F.shape[0], n), dtype=np.complex128)
    residual = np.full(lams.shape, math.nan)

    def finish(pos: np.ndarray, solve) -> None:
        """Fill rows r = js[pos] by chunks from solve(p, r); take their residuals."""
        for s in row_chunks(pos.size, n):
            p, r = pos[s], js[pos[s]]
            U[r], Uhat[r] = solve(p, r)
            residual[p] = operator_residuals(lams[p], c, U[r], F[r], Uhat[r])

    finish(np.flatnonzero(integral), lambda p, r: _solve_integral(lams[p], dec, F[r]))
    refactored = integral & (formula == "auto") & ~(residual <= budget)
    coll |= refactored
    singular = np.zeros(lams.size, dtype=bool)
    pos = np.flatnonzero(coll)
    if pos.size:
        r = js[pos]
        fhat = np.fft.fft(F[r], axis=1) / n if Fhat is None else Fhat[r]
        Uhat[r], singular[pos] = _solve_collocation(lams[pos], c, fhat)
        finish(pos[~singular[pos]],
               lambda p, r: (np.fft.ifft(Uhat[r] * n, axis=1), Uhat[r]))
    resonant |= singular
    U[js[resonant]] = Uhat[js[resonant]] = 0.0
    ok = ~resonant
    return U, Uhat, DivisorReport(
        j=js, lam=lams, divisor=np.where(singular, 0.0, divisor), resonant=resonant,
        singular=singular,
        formula=np.select([~ok, coll, which == 1], ["", "fourier", "solu1"], "solu2"),
        residual=np.where(ok, residual, math.nan), residual_budget=budget,
        ill_conditioned=ill & ok, refactored=refactored & ok)


def solve_mode_detailed(lam: float, c: TorusFunction, f: TorusFunction, *,
                        formula: str | int = "auto",
                        tol_res: float = TOL_RES) -> ModeSolution:
    """Solve u' + i*lam*c*u = f; returns the solution with its audit record.

    ``formula`` is "auto" (sign rule + stability budget), 1 or 2 (the
    integral path with that formula's divisor and label), or "fourier"
    (force collocation).  Every path is
    residual-verified; in auto mode an integral solve that misses its budget
    is redone by collocation and flagged.  Raises ResonantMode on resonance.
    """
    if c.n != f.n:
        c = c.resample(f.n)
    U, Uhat, rep = _solve_modes(np.array([lam], dtype=np.float64), np.zeros(1, dtype=np.intp),
                                c, c.decompose_mean(), f.samples[None], f.coeffs[None],
                                formula, tol_res)
    if rep.singular[0]:
        raise ResonantMode(lam, 0.0, f"collocation matrix singular for lambda={lam}")
    if rep.resonant[0]:
        d = rep.divisor[0].item()
        rule = f"< tol_res = {tol_res}" if d < tol_res else "is exactly 0"
        raise ResonantMode(lam, d, f"resonant mode: lambda={lam}, divisor={d:.3e} {rule}")
    return ModeSolution(TorusFunction._from_parts(U[0], Uhat[0]), lam, **{
        k: getattr(rep, k)[0].item() for k in ("divisor", "formula", "residual",
                                               "residual_budget", "ill_conditioned",
                                               "refactored")})


def solve_mode(lam: float, c: TorusFunction, f: TorusFunction, *,
               formula: str | int = "auto", tol_res: float = TOL_RES) -> TorusFunction:
    """The unique periodic solution of u' + i*lam*c*u = f (see solve_mode_detailed)."""
    return solve_mode_detailed(lam, c, f, formula=formula, tol_res=tol_res).u


# --------------------------------------------------------------------------- #
# mode fields
# --------------------------------------------------------------------------- #

class ModeField:
    """A truncated eigenfunction expansion u = sum_j u_j(t) phi_j(x) on one grid.

    ``samples`` is a read-only (J, n) complex128 array whose row j holds u_j
    at the grid points t_i = 2*pi*i/n; ``mask`` is a read-only (J,) boolean
    array, False where mode j is undefined (solve_field leaves resonant modes
    undefined, matching the finite exceptional set of the theory).  Undefined
    rows hold zeros; a field with no defined mode has n = 0 columns.  The
    constructor takes a list of ``TorusFunction | None`` and indexing hands
    rows back in that form, with the coefficients TorusFunction would hold.
    """

    def __init__(self, entries: list[TorusFunction | None], eigs: EigenSequence):
        sizes = {e.n for e in entries if e is not None}
        if len(sizes) > 1:
            raise ValueError(f"entries live on different grids: {sorted(sizes)}")
        samples = np.zeros((len(entries), sizes.pop() if sizes else 0),
                           dtype=np.complex128)
        coeffs = np.zeros_like(samples)
        for j, e in enumerate(entries):
            if e is not None:
                samples[j] = e.samples
                coeffs[j] = e.coeffs
        self._set(samples, np.array([e is not None for e in entries]), eigs, coeffs)

    @classmethod
    def _of(cls, samples: np.ndarray, mask: np.ndarray, eigs: EigenSequence,
            coeffs: np.ndarray | None = None) -> "ModeField":
        obj = cls.__new__(cls)
        obj._set(samples, mask, eigs, coeffs)
        return obj

    def _set(self, samples: np.ndarray, mask: np.ndarray, eigs: EigenSequence,
             coeffs: np.ndarray | None) -> None:
        if samples.shape[0] > eigs.J:
            raise ValueError(f"{samples.shape[0]} entries but eigensequence holds {eigs.J}")
        if samples.shape[0] == 0:
            raise ValueError("empty mode field")
        if mask.any():
            grid(samples.shape[1])  # validates the grid size
        samples.flags.writeable = False
        mask.flags.writeable = False
        self.samples = samples
        self.mask = mask
        self._coeffs = coeffs
        self.eigs = eigs

    @property
    def J(self) -> int:
        return self.samples.shape[0]

    @property
    def n(self) -> int:
        if not self.mask.any():
            raise ValueError("all entries undefined")
        return self.samples.shape[1]

    def __iter__(self):
        return (self[j] for j in range(self.J))

    def __getitem__(self, j: int) -> TorusFunction | None:
        if not self.mask[j]:
            return None
        if self._coeffs is None:
            return TorusFunction(self.samples[j])
        return TorusFunction._from_parts(self.samples[j], self._coeffs[j])

    @classmethod
    def zeros(cls, eigs: EigenSequence, J: int, n: int = 256) -> "ModeField":
        return cls([TorusFunction.zero(n) for _ in range(J)], eigs)

    @classmethod
    def single_mode(cls, eigs: EigenSequence, j: int, fn: TorusFunction,
                    J: int | None = None) -> "ModeField":
        J = eigs.J if J is None else J
        entries: list[TorusFunction | None] = [TorusFunction.zero(fn.n) for _ in range(J)]
        entries[j] = fn
        return cls(entries, eigs)

    def defined(self) -> list[int]:
        return np.flatnonzero(self.mask).tolist()

    def sup_norms(self) -> np.ndarray:
        """sup_t |u_j(t)| per mode; NaN where the mode is undefined."""
        return np.where(self.mask, np.abs(self.samples).max(axis=1, initial=0.0), np.nan)

    def derivative(self) -> "ModeField":
        """Spectral t-derivative of every mode, as TorusFunction.derivative does
        it: Nyquist mode to zero, coefficients kept for the next derivative.

        The result is not kept: a stack of derivatives holds only the levels
        its caller holds.  This field keeps its own coefficients once they
        are computed.
        """
        if not self.mask.any():
            return self
        n = self.samples.shape[1]
        if self._coeffs is None:
            self._coeffs = np.fft.fft(self.samples, axis=1) / n
        dc = 1j * wavenumbers(n) * self._coeffs
        du = dc * n
        return ModeField._of(np.fft.ifft(du, axis=1, out=du), self.mask, self.eigs, dc)

    # ---- CSV interchange: long format, one row per (mode, grid point) ---- #

    def csv_pieces(self) -> csvio.Table:
        """The CSV text as a :class:`~hypotorus.csvio.Table`: the header, then
        one block of rows per defined mode, rendered as it is asked for
        (:func:`~hypotorus.csvio.write` may render the second half of the
        blocks in a forked child); ``t`` is rendered once, here."""
        js = self.defined()
        samples = self.samples
        n = samples.shape[1]
        ts = csvio.cells(grid(n)) if js else []

        def block(j: int) -> str:
            return csvio.rows([str(j)] * n, ts, csvio.cells(samples[j].real),
                              csvio.cells(samples[j].imag))
        return csvio.Table("j,t,re,im\n", js, block, 4 * n * len(js))

    def to_csv(self) -> str:
        """The whole CSV text; :meth:`csv_pieces` joined."""
        return "".join(self.csv_pieces())

    @classmethod
    def from_csv(cls, source, eigs: EigenSequence, J: int | None = None,
                 max_bytes: int | None = None) -> "ModeField":
        """Inverse of :meth:`to_csv`, from the text or a text handle (see
        :class:`~hypotorus.csvio.SampleRows`); rows may come in any mode
        order, each mode's rows in grid order.  A field whose (J, n) samples
        would take more than ``max_bytes`` is refused before it is built."""
        rows = csvio.SampleRows(source, ("j", "t", "re", "im"), "mode-field CSV")
        js = rows.column("j")
        J = int(js.max()) + 1 if J is None else J
        limit = min(J, eigs.J)
        bad = js[(js < 0) | (js >= limit)]
        if bad.size:
            raise ConfigError(f"mode index {bad[0]} in the CSV is outside 0..{limit - 1}")
        counts = np.bincount(js, minlength=J)
        mask = counts > 0
        n = int(counts.max())
        if np.any(counts[mask] != n):
            raise ConfigError("modes in the CSV hold different numbers of samples")
        _check_size(n, ConfigError)
        if max_bytes is not None and 16 * J * n > max_bytes:
            raise ConfigError(f"a ({J}, {n}) mode field takes {16 * J * n / 2**20:.0f} MiB, "
                              f"over its budget of {max_bytes / 2**20:.0f} MiB")
        order = np.argsort(js, kind="stable")
        pos = np.empty(js.size, dtype=np.intp)      # each row's place in its mode
        pos[order] = np.tile(np.arange(n), int(mask.sum()))
        rows.check_t(rows.column("t"), grid(n)[pos])
        samples = np.zeros((J, n), dtype=np.complex128)
        # component writes keep signed zeros and infinities that re + 1j*im would not
        samples.real[mask] = rows.column("re")[order].reshape(-1, n)
        samples.imag[mask] = rows.column("im")[order].reshape(-1, n)
        return cls._of(samples, mask, eigs)


def row_chunks(rows: int, n: int) -> Iterable[slice]:
    """Slices of ``rows`` rows of ``n`` samples, 2^16 samples or one row each,
    so a batch's temporaries stay small beside its (rows, n) arrays."""
    step = max(1, (1 << 16) // n)
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _apply_rows(lam: np.ndarray, c: TorusFunction, u: np.ndarray,
                coeffs: np.ndarray | None, ik: np.ndarray | None = None,
                out: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
    """u_s' + i*lam_s*c*u_s for every row s of ``u`` (c on the rows' grid), the
    one arithmetic of the operator; ``coeffs`` are the rows' trig coefficients
    if known exactly, else fft(u)/n.

    The expression is ifft(i*k * coeffs * n) + ((i*lam_s) * c) * u_s, each
    product and sum in that operand order, evaluated in place: ``out``, an
    array the shape of ``u``, holds the scaled coefficients, then the
    derivative (the inverse FFT writes over them), then the result; ``tmp``,
    one row of n, holds the product term of one row at a time.  Either is
    allocated when not given; ``ik`` is i*wavenumbers(n), computed when not
    given.  Neither ``u`` nor the caller's ``coeffs`` is written to."""
    n = u.shape[1]
    ik = 1j * wavenumbers(n) if ik is None else ik
    if coeffs is None:
        # scaling by 1/n is exact on a power-of-two grid, so this is
        # fft(u)/n up to the sign of an exact zero (erased by abs())
        out = np.fft.fft(u, axis=1, norm="forward", out=out)
        np.multiply(ik, out, out=out)
    else:
        out = np.multiply(ik, coeffs, out=out)
    out *= n
    du = np.fft.ifft(out, axis=1, out=out)
    tmp = np.empty(n, dtype=np.complex128) if tmp is None else tmp
    for il, u_s, du_s in zip(1j * lam, u, du):
        t = np.multiply(il, c.samples, out=tmp)
        t *= u_s
        du_s += t
    return du


def apply_operator(c: TorusFunction, u: ModeField) -> ModeField:
    """f_j = u_j' + i*lam_j*c*u_j for every defined mode (see apply_mode)."""
    if not u.mask.any():
        return u
    f = _apply_rows(u.eigs.lambdas[:u.J], c.resample(u.n), u.samples, u._coeffs)
    f[~u.mask] = 0.0
    return ModeField._of(f, u.mask, u.eigs)


def index_runs(*idxs: np.ndarray) -> list[tuple[int, int]]:
    """The bounds [a, b) of the runs of positions on which every one of the
    equally long index arrays ``idxs`` steps by one, in order."""
    cut = (np.flatnonzero(np.logical_or.reduce([np.diff(i) != 1 for i in idxs])) + 1).tolist()
    return [(a, b) for a, b in zip([0, *cut], [*cut, len(idxs[0])]) if b > a]


def _column_runs(cols) -> list[tuple[slice, slice]]:
    """``cols`` (a slice, or strictly increasing column indices) as pairs
    (grid columns, positions in ``cols``) of slices, one pair per run of
    consecutive columns."""
    if isinstance(cols, slice):
        return [(cols, slice(None))]
    cols = np.asarray(cols)
    return [(slice(int(cols[a]), int(cols[b - 1]) + 1), slice(a, b))
            for a, b in index_runs(cols)]


def operator_residuals(lam: Sequence[float], c: TorusFunction, u: np.ndarray,
                       f: np.ndarray, coeffs: np.ndarray | None = None,
                       cols=slice(None)) -> np.ndarray:
    """sup_t |u_s' + i*lam_s*c*u_s - f_s| for every row s of the (S, n) array
    ``u``, as apply_operator computes it, in chunks of rows.

    ``f`` holds the forcing on the columns ``cols`` of the grid only (all of
    them by default; else strictly increasing indices) and f_s = 0
    elsewhere: the operator's rows are reduced by f in place, one slice per
    run of consecutive columns, which is the full-grid difference bit for
    bit.  ``coeffs`` holds the exact trig coefficients of the rows of ``u``
    where they are known (a pure harmonic's one-hot spectrum); otherwise
    they are taken from the samples by FFT.  The chunks share one chunk of
    buffer, one row of product term (which then holds each row's |r|), the
    wave numbers and the runs, made once per call.  Neither ``u`` nor ``f``
    is written to.
    """
    lam = np.asarray(lam, dtype=np.float64)
    S, n = u.shape
    c = c.resample(n)
    ik = 1j * wavenumbers(n)
    runs = _column_runs(cols)
    buf = np.empty(u[next(row_chunks(S, n), slice(0))].shape, dtype=np.complex128)
    tmp = np.empty(n, dtype=np.complex128)
    mag = tmp.view(np.float64)[:n]          # |r| of one row, once tmp is free
    out = np.empty(S)
    for s in row_chunks(S, n):
        m = len(u[s])
        r = _apply_rows(lam[s], c, u[s], None if coeffs is None else coeffs[s],
                        ik, buf[:m], tmp)
        for at, of in runs:
            r[:, at] -= f[s, of]
        for i, r_i in enumerate(r, s.start):
            out[i] = np.abs(r_i, out=mag).max()
    return out


# --------------------------------------------------------------------------- #
# whole-field solve with divisor report
# --------------------------------------------------------------------------- #

def solve_field(c: TorusFunction, f: ModeField, *, formula: str | int = "auto",
                tol_res: float = TOL_RES) -> tuple[ModeField, DivisorReport]:
    """Solve every defined mode of f; resonant modes stay undefined (None).

    One _solve_modes call fills the (J, n) solution arrays from the defined
    rows and returns their DivisorReport, which is handed back as it is.
    When every mode is resonant the field has no defined mode.
    """
    if c.n != f.n:
        c = c.resample(f.n)
    js = np.flatnonzero(f.mask)
    samples, coeffs, report = _solve_modes(f.eigs.lambdas[js], js, c, c.decompose_mean(),
                                           f.samples, f._coeffs, formula, tol_res)
    mask = np.zeros(f.J, dtype=bool)
    mask[js[~report.resonant]] = True
    return ModeField._of(samples, mask, f.eigs, coeffs), report

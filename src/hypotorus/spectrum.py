"""Eigenvalue models for the elliptic operator P, plus the 1D Hermite basis.

Built-in spectra:

* ``harmonic1d``          — the harmonic oscillator -d^2/dx^2 + x^2 on R,
                            lambda_j = 2j + 1, order m = 2, dimension n = 1;
* ``harmonic1d_power k``  — its k-th power, lambda_j = (2j+1)^k, m = 2k;
* ``harmonic_nd n``       — the n-dimensional oscillator *spectrum only*:
                            values 2q + n with multiplicity C(q+n-1, n-1),
                            sorted ascending, m = 2;
* ``table``               — user-supplied values with declared (m, n).

All spectra carry Weyl parameters (m, n) so that |lambda_j| ~ C j^{m/2n}.
Indexing is 0-based (lambda_0 = 1 for the 1D oscillator); the package's
decay fits use (j+1)^e with e = :meth:`EigenSequence.exponent`, 1/(2 n mu),
so that j = 0 is harmless.

The Hermite basis holds the L^2(R)-orthonormal eigenfunctions phi_j of the
1D oscillator, from the normalized three-term recurrence (no raw Hermite
polynomials, hence no overflow), on Gauss-Hermite nodes with the weights
that make their Gram matrix the identity.  It is there to check the
eigenbasis itself (orthonormality, the eigenrelation, Weyl growth).  Scope:
the package works on the spectral side alone, on the coefficients of a
function in this basis; it has no real-space transform to or from x and no
seminorm on an x-grid.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ConfigError

__all__ = [
    "EigenSequence",
    "build_eigensequence",
    "HermiteBasis",
]


# --------------------------------------------------------------------------- #
# eigenvalue sequences
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class EigenSequence:
    """A finite window {lambda_j, j = 0..J-1} of a divergent eigenvalue list.

    ``exact`` holds the same values as Python integers when the model is
    integer-valued (all built-ins are); the Diophantine layer works on these
    and never on the float view.  ``ap_index`` is (base, step) when
    lambda_j = base + step*j exactly in the *index* j — the arithmetic
    progression structure the certified Liouville constructor requires.
    A sequence is built by :func:`build_eigensequence`; a table spectrum
    comes from a config's ``model.values``, not from a file.
    """

    kind: str
    lambdas: np.ndarray            # float view, |lambda_j| nondecreasing
    m: int                         # operator order
    n: int                         # space dimension
    exact: tuple | None = None     # integer view (same length), if available
    ap_index: tuple[int, int] | None = None  # (base, step) with lam_j = base + step*j

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=np.float64)
        lam.flags.writeable = False
        object.__setattr__(self, "lambdas", lam)
        if lam.ndim != 1 or lam.shape[0] < 1:
            raise ValueError("need at least one eigenvalue")
        a = np.abs(lam)
        if np.any(np.diff(a) < 0):
            raise ValueError("|lambda_j| must be nondecreasing")
        if self.m < 1 or self.n < 1:
            raise ValueError("need m >= 1 and n >= 1")

    @property
    def J(self) -> int:
        return self.lambdas.shape[0]

    def __len__(self) -> int:
        return self.J

    def exact_lambda(self, j: int) -> int:
        """lambda_j as an exact integer: read from the stored window when j
        lies in it, else from the model's closed form (valid for any j >= 0)."""
        if self.exact is not None and 0 <= j < len(self.exact):
            return self.exact[j]
        if self.ap_index is not None:
            base, step = self.ap_index
            return base + step * j
        if self.kind.startswith("harmonic1d_power"):
            return (2 * j + 1) ** (self.m // 2)         # m = 2k
        if self.kind.startswith("harmonic_nd"):
            return _nd_value(j, self.n)
        raise ValueError(f"no exact integer formula for kind {self.kind!r} at j={j}")

    def exponent(self, mu) -> Fraction:
        """The Gelfand-Shilov index exponent 1/(2 n mu) as an exact Fraction:
        coefficients of a class-mu member decay like exp(-eps (j+1)^e).  A
        float mu is read as the nearest rational with denominator at most
        10**9; mu must be >= 1/2."""
        mu = _exact_mu(mu)
        if mu < Fraction(1, 2):
            raise ValueError(f"mu >= 1/2 required, got {mu}")
        return 1 / (2 * self.n * mu)

    @property
    def integer_valued(self) -> bool:
        """The window is tabulated as exact integers (every built-in kind)."""
        return self.exact is not None


def _exact_mu(mu) -> Fraction:
    """mu as a Fraction: exact for int and Fraction, nearest with denominator
    at most 10**9 for a float."""
    if isinstance(mu, float) and not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu!r}")
    return Fraction(mu).limit_denominator(10**9) if isinstance(mu, float) else Fraction(mu)


def _nd_count_below(q: int, n: int) -> int:
    """Number of indices with energy level < q, i.e. sum_{p<q} C(p+n-1, n-1) = C(q+n-1, n)."""
    return math.comb(q + n - 1, n)


def _nd_value(j: int, n: int) -> int:
    """lambda_j = 2q + n where q is the energy level containing flat index j:
    the largest q with C(q+n-1, n) <= j, bracketed by doubling, then bisected."""
    lo, hi = 0, 1
    while _nd_count_below(hi, n) <= j:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _nd_count_below(mid, n) <= j else (lo, mid)
    return 2 * lo + n


def _float_view(values: Sequence) -> np.ndarray:
    """``values`` as float64; a value beyond the float range (or NaN) is
    refused with ConfigError, not left to overflow on conversion."""
    try:
        lam = np.array(values, dtype=np.float64)
    except OverflowError:
        lam = np.array([np.inf])
    if not np.all(np.isfinite(lam)):
        raise ConfigError(f"eigenvalues must be finite and within the float range "
                          f"(|lambda| <= {np.finfo(np.float64).max:.6g})")
    return lam


def _kind_int(parts: list, need: str) -> int:
    """The integer after a kind word, e.g. the 2 of 'harmonic_nd 2'."""
    if len(parts) != 2 or not re.fullmatch(r"[+-]?\d+", parts[1]):
        raise ConfigError(need)
    return int(parts[1])


def build_eigensequence(kind: str, J: int, *, values: Sequence | None = None,
                        m: int = 2, n: int = 1) -> EigenSequence:
    """Construct one of the built-in spectra (or wrap a user table).

    ``kind`` is one of ``"harmonic1d"``, ``"harmonic1d_power k"`` (k an
    integer literal inside the string, e.g. ``"harmonic1d_power 2"``),
    ``"harmonic_nd n"``, or ``"table"`` (then ``values``, ``m``, ``n`` apply).
    """
    if J < 1:
        raise ConfigError("J >= 1 required")
    parts = kind.split()
    head = parts[0]

    odd = range(1, 2 * J, 2)    # 2j + 1 for j < J
    if head == "harmonic1d" and len(parts) == 1:
        exact = tuple(odd)
        return EigenSequence("harmonic1d", _float_view(exact),
                             m=2, n=1, exact=exact, ap_index=(1, 2))

    if head == "harmonic1d_power":
        k = _kind_int(parts, "harmonic1d_power needs an exponent, e.g. 'harmonic1d_power 2'")
        if k < 1:
            raise ConfigError("power k >= 1 required")
        if k * ((2 * J - 1).bit_length() - 1) >= 1024:     # lambda_{J-1} >= 2^1024
            raise ConfigError(f"harmonic1d_power {k}: lambda_{J - 1} = {2 * J - 1}^{k} "
                              f"is beyond the float range")
        exact = tuple(v ** k for v in odd)
        ap = (1, 2) if k == 1 else None
        return EigenSequence(f"harmonic1d_power {k}", _float_view(exact),
                             m=2 * k, n=1, exact=exact, ap_index=ap)

    if head == "harmonic_nd":
        nd = _kind_int(parts, "harmonic_nd needs a dimension, e.g. 'harmonic_nd 2'")
        if nd < 1:
            raise ConfigError("dimension n >= 1 required")
        vals: list[int] = []
        q = 0
        while len(vals) < J:    # energy 2q + nd has C(q+nd-1, nd-1) states
            vals.extend([2 * q + nd] * min(math.comb(q + nd - 1, nd - 1), J - len(vals)))
            q += 1
        exact = tuple(vals)
        ap = (1, 2) if nd == 1 else None
        return EigenSequence(f"harmonic_nd {nd}", _float_view(exact),
                             m=2, n=nd, exact=exact, ap_index=ap)

    if head == "table":
        if values is None:
            raise ConfigError("table kind requires explicit values")
        if len(values) < J:
            raise ConfigError(f"table holds {len(values)} values, J={J} requested")
        vals = list(values)[:J]
        arr = _float_view(vals)
        exact = tuple(int(v) for v in vals) if all(
            isinstance(v, (int, np.integer)) for v in vals) else None
        # an integer table is checked on its exact values: floats merge
        # integers above 2^53
        a = np.abs(arr) if exact is None else np.array([abs(v) for v in exact], dtype=object)
        if np.any(a[1:] < a[:-1]):
            raise ConfigError("table eigenvalues must have nondecreasing |lambda_j|")
        if J >= 8 and a[-1] <= a[J // 2]:
            raise ConfigError("table eigenvalues do not diverge over the stored range")
        return EigenSequence("table", arr, m=m, n=n, exact=exact)

    raise ConfigError(f"unknown eigensequence kind {kind!r}")


# --------------------------------------------------------------------------- #
# the Hermite basis
# --------------------------------------------------------------------------- #

def _phi_matrix(J: int, x: np.ndarray) -> np.ndarray:
    """Matrix Phi[i, j] = phi_j(x_i) for j < J, the L^2(R)-normalized
    Hermite functions, by the normalized recurrence

        phi_0 = pi^{-1/4} exp(-x^2/2),
        phi_{j+1} = x sqrt(2/(j+1)) phi_j - sqrt(j/(j+1)) phi_{j-1},

    which keeps every intermediate O(1); safe for j <= 512, |x| <= 30.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((x.shape[0], J))
    prev = np.zeros_like(x)
    cur = np.pi ** -0.25 * np.exp(-x * x / 2.0)
    for j in range(J):
        out[:, j] = cur
        prev, cur = cur, x * math.sqrt(2.0 / (j + 1)) * cur - math.sqrt(j / (j + 1.0)) * prev
    return out


_MAX_Q = 320  # beyond this the raw Gauss-Hermite weights underflow double precision


@dataclass(frozen=True)
class HermiteBasis:
    """Gauss-Hermite quadrature bundle for the first J Hermite functions.

    ``mod_weights`` are w_i * exp(x_i^2): with these,
    integral f(x) g(x) dx  ~=  sum_i mod_weights[i] f(x_i) g(x_i)
    is exact whenever f*g is a polynomial of degree <= 2Q-1 times exp(-x^2),
    so Q >= J makes the phi-Gram matrix exactly (to roundoff) the identity.
    """

    J: int
    Q: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    mod_weights: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)  # Phi[i, j] = phi_j(nodes[i])

    @classmethod
    def build(cls, J: int, Q: int | None = None) -> "HermiteBasis":
        if J < 1:
            raise ValueError("J >= 1 required")
        if Q is None:
            Q = 2 * J
        if Q < J:
            raise ValueError("need Q >= J quadrature nodes for an exact Gram matrix")
        if Q > _MAX_Q:
            raise ValueError(
                f"Q = {Q} exceeds {_MAX_Q}: Gauss-Hermite weights underflow IEEE doubles")
        x, w = np.polynomial.hermite.hermgauss(Q)
        mod = w * np.exp(x * x)
        b = cls(J=J, Q=Q, nodes=x, weights=w, mod_weights=mod, phi=_phi_matrix(J, x))
        for a in ("nodes", "weights", "mod_weights", "phi"):
            getattr(b, a).flags.writeable = False
        return b

    def gram(self) -> np.ndarray:
        return self.phi.T @ (self.mod_weights[:, None] * self.phi)

    def gram_deviation(self) -> float:
        return float(np.max(np.abs(self.gram() - np.eye(self.J))))

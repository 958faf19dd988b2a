"""Complex-valued functions on the circle, stored as uniform-grid samples.

Conventions used throughout the package:

* grid points are t_i = 2*pi*i/N for i = 0..N-1, with N a power of two
  (default 256);
* a function is identified with its trigonometric interpolant
  f(t) = sum_k c_k e^{ikt}; the coefficient vector is kept in numpy's FFT
  ordering (k = 0, 1, ..., N/2-1, -N/2, ..., -1) and computed lazily as
  fft(samples)/N;
* the Nyquist frequency k = -N/2 carries a real cosine on the grid; its
  derivative vanishes at every grid point, so the spectral derivative (and the
  antiderivative) treat it as zero.  All invariants below are exact for data
  whose spectrum lives strictly inside the Nyquist band, which is what every
  solver in this package produces and consumes.

Instances are immutable: arithmetic returns new objects and the sample /
coefficient buffers are handed out read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Union

import numpy as np

from . import csvio
from .errors import ConfigError

__all__ = [
    "TorusFunction",
    "MeanDecomposition",
    "grid",
    "wavenumbers",
]

_DEFAULT_N = 256

Scalar = Union[int, float, complex]


def _check_size(n: int, error: type = ValueError) -> int:
    n = int(n)
    if n < 4 or (n & (n - 1)) != 0:
        raise error(f"grid size must be a power of two >= 4, got {n}")
    return n


def grid(n: int = _DEFAULT_N) -> np.ndarray:
    """The uniform grid t_i = 2*pi*i/n, i = 0..n-1."""
    n = _check_size(n)
    return 2.0 * np.pi * np.arange(n) / n


def wavenumbers(n: int) -> np.ndarray:
    """Integer frequencies in FFT ordering with the Nyquist slot set to 0.

    The spectral derivative multiplies coefficient k by i*k for these k: the
    Nyquist cosine's derivative vanishes at every grid point.
    """
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    return k


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class TorusFunction:
    """A 2*pi-periodic function known by its samples on a power-of-two grid."""

    __slots__ = ("_samples", "_coeffs")

    def __init__(self, samples: Iterable[complex]):
        arr = np.asarray(samples, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        _check_size(arr.shape[0])
        self._samples = _freeze(arr.copy())
        self._coeffs: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_samples(cls, samples: Iterable[complex]) -> "TorusFunction":
        return cls(samples)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[complex]) -> "TorusFunction":
        """Build from a coefficient vector in FFT ordering."""
        c = np.asarray(coeffs, dtype=np.complex128)
        _check_size(c.shape[0])
        obj = cls.__new__(cls)
        obj._samples = _freeze(np.fft.ifft(c * c.shape[0]))
        obj._coeffs = _freeze(c.copy())
        return obj

    @classmethod
    def _from_parts(cls, samples: np.ndarray, coeffs: np.ndarray) -> "TorusFunction":
        """Samples together with their already known coefficient vector."""
        obj = cls(samples)
        obj._coeffs = _freeze(np.array(coeffs, dtype=np.complex128))
        return obj

    @classmethod
    def from_coeff_dict(cls, coeffs: dict[int, complex], n: int = _DEFAULT_N) -> "TorusFunction":
        """Build from {frequency: coefficient}; frequencies must fit the band."""
        n = _check_size(n)
        c = np.zeros(n, dtype=np.complex128)
        for k, v in coeffs.items():
            k = int(k)
            if not (-n // 2 <= k < n // 2):
                raise ValueError(f"frequency {k} outside the band of an {n}-point grid")
            c[k % n] = complex(v)
        return cls.from_coeffs(c)

    @classmethod
    def from_callable(cls, fn: Callable[[np.ndarray], np.ndarray], n: int = _DEFAULT_N) -> "TorusFunction":
        return cls(np.asarray(fn(grid(n)), dtype=np.complex128))

    @classmethod
    def constant(cls, value: complex, n: int = _DEFAULT_N) -> "TorusFunction":
        return cls(np.full(_check_size(n), complex(value), dtype=np.complex128))

    @classmethod
    def zero(cls, n: int = _DEFAULT_N) -> "TorusFunction":
        return cls.constant(0.0, n)

    @classmethod
    def harmonic(cls, k: int, n: int = _DEFAULT_N) -> "TorusFunction":
        """The pure mode e^{ikt}."""
        return cls.from_coeff_dict({k: 1.0}, n)

    # ------------------------------------------------------------------ #
    # basic views
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        return self._samples.shape[0]

    @property
    def samples(self) -> np.ndarray:
        return self._samples

    @property
    def grid(self) -> np.ndarray:
        return grid(self.n)

    @property
    def coeffs(self) -> np.ndarray:
        """Trig coefficients in FFT ordering, f = sum_k c_k e^{ikt} (lazy)."""
        if self._coeffs is None:
            self._coeffs = _freeze(np.fft.fft(self._samples) / self.n)
        return self._coeffs

    def coeff_table(self) -> list[tuple[int, complex]]:
        """(k, c_k) for k = -N/2..N/2, the Nyquist entry split evenly."""
        n = self.n
        c = self.coeffs
        out = []
        nyq = c[n // 2] / 2.0
        out.append((-n // 2, complex(nyq)))
        for k in range(-n // 2 + 1, n // 2):
            out.append((k, complex(c[k % n])))
        out.append((n // 2, complex(nyq)))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TorusFunction(n={self.n}, sup={self.sup_norm():.3g})"

    # ------------------------------------------------------------------ #
    # calculus
    # ------------------------------------------------------------------ #

    def mean(self) -> complex:
        """(2*pi)^{-1} integral over the period == zeroth trig coefficient.

        On the uniform grid this equals the plain average of the samples, i.e.
        the (periodic) trapezoid rule, which is exact for trig polynomials of
        degree < N.
        """
        return complex(np.mean(self._samples))

    def integral(self) -> complex:
        """Integral over one period (2*pi times the mean)."""
        return 2.0 * np.pi * self.mean()

    def derivative(self) -> "TorusFunction":
        """Spectral derivative; the Nyquist mode is sent to zero."""
        return TorusFunction.from_coeffs(1j * wavenumbers(self.n) * self.coeffs)

    def antiderivative_zero_mean_part(self) -> "TorusFunction":
        """Antiderivative of (self - mean), normalized to vanish at t = 0.

        The Nyquist mode (whose derivative vanishes identically on the grid)
        is dropped, mirroring :meth:`derivative`.
        """
        n = self.n
        c = self.coeffs.copy()
        k = np.fft.fftfreq(n, d=1.0 / n)
        c[0] = 0.0
        c[n // 2] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(k != 0.0, c / (1j * np.where(k == 0.0, 1.0, k)), 0.0)
        p[0] = -np.sum(p[1:])  # pin P(0) = 0
        return TorusFunction.from_coeffs(p)

    def decompose_mean(self) -> "MeanDecomposition":
        c0 = self.mean()
        tilde = self - c0
        return MeanDecomposition(c0=c0, tilde=tilde,
                                 tilde_primitive=tilde.antiderivative_zero_mean_part())

    # ------------------------------------------------------------------ #
    # norms and evaluation
    # ------------------------------------------------------------------ #

    def sup_norm(self) -> float:
        """Grid sup |f|: the documented proxy for the true sup-norm."""
        return float(np.max(np.abs(self._samples)))

    def refined_sup_norm(self) -> tuple[float, bool]:
        """Grid sup after one grid doubling, with a flag when the two
        estimates disagree by more than 1% (an under-resolution signal)."""
        coarse = self.sup_norm()
        fine = self.resample(2 * self.n).sup_norm()
        ref = max(coarse, fine)
        differs = ref > 0 and abs(fine - coarse) > 0.01 * ref
        return max(coarse, fine), differs

    def resample(self, n2: int) -> "TorusFunction":
        """Trig interpolation onto a finer/coarser power-of-two grid."""
        n2 = _check_size(n2)
        n = self.n
        if n2 == n:
            return self
        c = self.coeffs
        c2 = np.zeros(n2, dtype=np.complex128)
        half = min(n, n2) // 2
        c2[:half] = c[:half]
        c2[-half + 1:] = c[-half + 1:] if half > 1 else c2[-half + 1:]
        # split or fold the boundary mode evenly
        if n2 > n:
            c2[half] += c[half] / 2.0
            c2[-half] += c[half] / 2.0
        else:
            c2[half] = c[half] + c[-half]
        return TorusFunction.from_coeffs(c2)

    def eval_at(self, t: np.ndarray | float) -> np.ndarray | complex:
        """Evaluate the trig interpolant at arbitrary points (Nyquist split
        evenly so real data stays real)."""
        tt = np.atleast_1d(np.asarray(t, dtype=np.float64))
        n = self.n
        c = self.coeffs
        out = np.zeros(tt.shape, dtype=np.complex128)
        for k in range(-n // 2 + 1, n // 2):
            out += c[k % n] * np.exp(1j * k * tt)
        out += c[n // 2] * np.cos((n // 2) * tt)
        if np.isscalar(t):
            return complex(out[0])
        return out

    # ------------------------------------------------------------------ #
    # arithmetic (pointwise; immutable results)
    # ------------------------------------------------------------------ #

    def _coerce(self, other: "TorusFunction | Scalar") -> np.ndarray:
        if isinstance(other, TorusFunction):
            if other.n != self.n:
                raise ValueError(f"grid mismatch: {self.n} vs {other.n}")
            return other._samples
        return np.asarray(complex(other))

    def __add__(self, other):
        return TorusFunction(self._samples + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return TorusFunction(self._samples - self._coerce(other))

    def __rsub__(self, other):
        return TorusFunction(self._coerce(other) - self._samples)

    def __mul__(self, other):
        return TorusFunction(self._samples * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return TorusFunction(self._samples / self._coerce(other))

    def __neg__(self):
        return TorusFunction(-self._samples)

    def conj(self) -> "TorusFunction":
        return TorusFunction(np.conj(self._samples))

    def real_part(self) -> "TorusFunction":
        return TorusFunction(self._samples.real.astype(np.complex128))

    def imag_part(self) -> "TorusFunction":
        return TorusFunction(self._samples.imag.astype(np.complex128))

    def __eq__(self, other) -> bool:
        return (isinstance(other, TorusFunction) and self.n == other.n
                and bool(np.array_equal(self._samples, other._samples)))

    def __hash__(self):
        return hash((self.n, self._samples.tobytes()))

    # ------------------------------------------------------------------ #
    # CSV interchange
    # ------------------------------------------------------------------ #

    def to_sample_csv(self) -> str:
        """Samples as CSV with header ``t,re,im`` ('.' decimal, UTF-8)."""
        return csvio.text(("t", "re", "im"), self.grid, self._samples.real, self._samples.imag)

    @classmethod
    def from_sample_csv(cls, source) -> "TorusFunction":
        """Inverse of :meth:`to_sample_csv`, from the text or a text handle
        (see :class:`~hypotorus.csvio.SampleRows`)."""
        rows = csvio.SampleRows(source, ("t", "re", "im"), "sample CSV")
        _check_size(rows.size, ConfigError)
        rows.check_t(rows.column("t"), grid(rows.size))
        samples = np.empty(rows.size, dtype=np.complex128)
        # component writes keep signed zeros and infinities that re + 1j*im would not
        samples.real, samples.imag = rows.column("re"), rows.column("im")
        return cls(samples)


@dataclass(frozen=True)
class MeanDecomposition:
    """c = c0 + tilde with a pinned antiderivative of the oscillating part.

    ``tilde_primitive`` is the antiderivative of ``tilde`` normalized so that
    tilde_primitive(0) = 0.  For any window [t-s, t],

        integral_{t-s}^{t} c(r) dr = c0*s + P(t) - P(t-s),   P = tilde_primitive,

    which is the only identity the mode solver needs.
    """

    c0: complex
    tilde: TorusFunction
    tilde_primitive: TorusFunction

    @property
    def a0(self) -> float:
        return self.c0.real

    @property
    def b0(self) -> float:
        return self.c0.imag

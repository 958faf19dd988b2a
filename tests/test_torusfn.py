import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypotorus.errors import ConfigError
from hypotorus.torusfn import TorusFunction, grid


def random_trig_poly(rng, n=64, band=10):
    """A random trig polynomial with spectrum well inside the Nyquist band."""
    c = np.zeros(n, dtype=np.complex128)
    for k in range(-band, band + 1):
        c[k % n] = rng.normal() + 1j * rng.normal()
    return TorusFunction.from_coeffs(c)


# --------------------------------------------------------------------------- #
# construction and round-trips
# --------------------------------------------------------------------------- #

def test_grid_points():
    t = grid(8)
    assert t.shape == (8,)
    assert t[0] == 0.0
    assert np.allclose(t[1], np.pi / 4)


def test_rejects_bad_sizes():
    with pytest.raises(ValueError):
        TorusFunction(np.zeros(12))
    with pytest.raises(ValueError):
        TorusFunction(np.zeros(2))
    with pytest.raises(ValueError):
        grid(0)


def test_samples_coeffs_roundtrip(rng):
    f = random_trig_poly(rng)
    g = TorusFunction.from_coeffs(f.coeffs)
    assert np.allclose(g.samples, f.samples, atol=1e-12)
    h = TorusFunction.from_samples(f.samples)
    assert np.allclose(h.coeffs, f.coeffs, atol=1e-12)


def test_harmonic_is_exponential():
    f = TorusFunction.harmonic(3, 64)
    t = grid(64)
    assert np.allclose(f.samples, np.exp(3j * t), atol=1e-13)


def test_from_coeff_dict_band_check():
    with pytest.raises(ValueError):
        TorusFunction.from_coeff_dict({40: 1.0}, n=64)
    # -N/2 is inside the band, +N/2 is not
    TorusFunction.from_coeff_dict({-32: 1.0}, n=64)
    with pytest.raises(ValueError):
        TorusFunction.from_coeff_dict({32: 1.0}, n=64)


def test_immutability():
    f = TorusFunction.harmonic(1, 16)
    with pytest.raises(ValueError):
        f.samples[0] = 99.0
    with pytest.raises(ValueError):
        f.coeffs[0] = 99.0


# --------------------------------------------------------------------------- #
# quadrature: the grid mean is exact for trig polynomials
# --------------------------------------------------------------------------- #

def test_mean_exact_on_trig_polys(rng):
    f = random_trig_poly(rng, n=64, band=20)
    expected = f.coeffs[0]
    assert abs(f.mean() - expected) < 1e-13


def test_mean_of_pure_modes():
    n = 64
    assert abs(TorusFunction.harmonic(0, n).mean() - 1.0) < 1e-15
    for k in (1, -1, 5, 31):
        assert abs(TorusFunction.harmonic(k, n).mean()) < 1e-14


# --------------------------------------------------------------------------- #
# calculus
# --------------------------------------------------------------------------- #

def test_derivative_of_sin():
    f = TorusFunction.from_callable(np.sin, 128)
    df = f.derivative()
    assert np.allclose(df.samples, np.cos(grid(128)), atol=1e-12)


def test_derivative_antiderivative_inverse(rng):
    f = random_trig_poly(rng, n=128, band=30)
    f0 = f - f.mean()
    back = f0.antiderivative_zero_mean_part().derivative()
    assert np.allclose(back.samples, f0.samples, atol=1e-10)


def test_antiderivative_pinned_at_zero(rng):
    f = random_trig_poly(rng, n=64)
    p = (f - f.mean()).antiderivative_zero_mean_part()
    assert abs(p.samples[0]) < 1e-12


def test_decompose_mean_reconstructs():
    f = TorusFunction.from_callable(lambda t: 2.0 + 1j + np.cos(t) + 1j * np.sin(3 * t), 64)
    d = f.decompose_mean()
    assert abs(d.c0 - (2.0 + 1j)) < 1e-13
    assert d.c0.real == pytest.approx(2.0)
    assert d.c0.imag == pytest.approx(1.0)
    assert np.allclose((d.tilde + d.c0).samples, f.samples, atol=1e-13)
    # P' = tilde and P(0) = 0
    assert np.allclose(d.tilde_primitive.derivative().samples, d.tilde.samples, atol=1e-11)
    assert abs(d.tilde_primitive.samples[0]) < 1e-12


def test_primitive_window_identity():
    # integral_{t-s}^{t} c = c0*s + P(t) - P(t-s) checked against closed form
    # for c = i*sin(t): integral = i*(cos(t-s) - cos(t)), c0 = 0.
    f = TorusFunction.from_callable(lambda t: 1j * np.sin(t), 128)
    d = f.decompose_mean()
    t, s = 2.0, 0.7
    lhs = d.c0 * s + complex(d.tilde_primitive.eval_at(t)) - complex(d.tilde_primitive.eval_at(t - s))
    rhs = 1j * (np.cos(t - s) - np.cos(t))
    assert abs(lhs - rhs) < 1e-12


# --------------------------------------------------------------------------- #
# evaluation, resampling, norms
# --------------------------------------------------------------------------- #

def test_eval_at_matches_grid(rng):
    f = random_trig_poly(rng, n=64)
    t = grid(64)
    vals = f.eval_at(t)
    assert np.allclose(vals, f.samples, atol=1e-11)


def test_eval_at_scalar():
    f = TorusFunction.harmonic(2, 32)
    z = f.eval_at(0.3)
    assert isinstance(z, complex)
    assert abs(z - np.exp(2j * 0.3)) < 1e-13


def test_resample_up_down(rng):
    f = random_trig_poly(rng, n=64, band=12)
    up = f.resample(256)
    assert up.n == 256
    # the interpolant is the same function: compare on the fine grid
    assert np.allclose(up.samples, f.eval_at(grid(256)), atol=1e-11)
    down = up.resample(64)
    assert np.allclose(down.samples, f.samples, atol=1e-11)


def test_lossless_downsample_keeps_its_bytes():
    # sampled on 256 points a band-12 function leaves ~1e-17 of roundoff in
    # every slot: it does not count, and the coarse grid gets the fine
    # coefficients with |k| < 32 as they are, the two k = +-32 folded
    fine = TorusFunction(np.cos(12 * grid(256)) + 0.5j * np.sin(3 * grid(256)))
    c = fine.coeffs
    assert np.abs(c[13:-12]).max() > 0.0
    want = np.zeros(64, dtype=np.complex128)
    want[:32], want[-31:] = c[:32], c[-31:]
    want[32] = c[32] + c[-32]
    down = fine.resample(64)
    assert down.coeffs.tobytes() == want.tobytes()
    assert down.samples.tobytes() == TorusFunction.from_coeffs(want).samples.tobytes()


@pytest.mark.parametrize("k, n2", [(20, 16), (8, 16), (300, 512)])
def test_lossy_downsample_is_refused(k, n2):
    f = TorusFunction(0.5 + 0.2 * np.cos(k * grid(1024)))
    with pytest.raises(ConfigError, match=f"frequency {k} "):
        f.resample(n2)
    assert f.resample(2 ** (2 * k).bit_length()).sup_norm() == pytest.approx(0.7)


def test_real_data_stays_real_under_resample():
    f = TorusFunction.from_callable(lambda t: np.cos(5 * t) + 0.3, 16)
    up = f.resample(64)
    assert np.max(np.abs(up.samples.imag)) < 1e-13


def test_sup_norm():
    f = TorusFunction.from_callable(lambda t: 3.0 * np.sin(t), 64)
    assert f.sup_norm() == pytest.approx(3.0, abs=1e-3)


# --------------------------------------------------------------------------- #
# arithmetic
# --------------------------------------------------------------------------- #

def test_arithmetic_ops():
    f = TorusFunction.from_callable(np.cos, 32)
    g = TorusFunction.from_callable(np.sin, 32)
    t = grid(32)
    assert np.allclose((f + g).samples, np.cos(t) + np.sin(t))
    assert np.allclose((f - g).samples, np.cos(t) - np.sin(t))
    assert np.allclose((f * g).samples, np.cos(t) * np.sin(t))
    assert np.allclose((2.0 * f).samples, 2.0 * np.cos(t))
    h = f + 1j * g
    assert np.allclose(h.real_part().samples, np.cos(t))
    assert np.allclose(h.imag_part().samples, np.sin(t))


def test_grid_mismatch_raises():
    f = TorusFunction.zero(32)
    g = TorusFunction.zero(64)
    with pytest.raises(ValueError):
        f + g


# --------------------------------------------------------------------------- #
# CSV round-trips
# --------------------------------------------------------------------------- #

def test_sample_csv_roundtrip(rng):
    f = random_trig_poly(rng, n=32, band=5)
    text = f.to_sample_csv()
    assert text.splitlines()[0] == "t,re,im"
    g = TorusFunction.from_sample_csv(text)
    assert np.allclose(g.samples, f.samples, atol=0.0)  # repr floats are exact


def test_sample_csv_rejects_rows_out_of_t_order(rng):
    f = random_trig_poly(rng, n=16, band=3)
    header, *rows = f.to_sample_csv().splitlines()
    with pytest.raises(ValueError, match="line 2: t = 5.890486225480862 "):
        TorusFunction.from_sample_csv("\n".join([header] + rows[::-1]))
    shifted = rows[1:] + rows[:1]          # samples rotated by one grid step
    with pytest.raises(ValueError, match="line 2: "):
        TorusFunction.from_sample_csv("\n".join([header] + shifted))
    # blank rows are skipped and do not shift the reported line
    text = "\n".join([header] + rows[:3] + [""] + rows[4:3:-1] + rows[3:4] + rows[5:])
    with pytest.raises(ValueError, match="line 6: "):
        TorusFunction.from_sample_csv(text)


def test_csv_rejects_wrong_header():
    with pytest.raises(ValueError, match="must have header t,re,im"):
        TorusFunction.from_sample_csv("a,b,c\n0,0,0\n")
    # spaces around a name are ignored, not inside one; fields split at commas only
    for header in ("t,r e,im", "t;re;im", "t,re,im,"):
        with pytest.raises(ValueError, match="must have header t,re,im"):
            TorusFunction.from_sample_csv(header + "\n0.0,0.0,0.0\n")
    with pytest.raises(ValueError, match="needs data rows"):
        TorusFunction.from_sample_csv("t, re, im\n")


# --------------------------------------------------------------------------- #
# hypothesis invariants
# --------------------------------------------------------------------------- #

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=16, max_size=16))
def test_fft_roundtrip_property(pairs):
    samples = np.array([complex(a, b) for a, b in pairs])
    f = TorusFunction(samples)
    g = TorusFunction.from_coeffs(f.coeffs)
    assert np.allclose(g.samples, samples, atol=1e-9 * (1 + np.max(np.abs(samples))))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=-7, max_value=7), st.integers(min_value=-7, max_value=7))
def test_product_of_modes_property(k1, k2):
    # e^{ik1 t} * e^{ik2 t} = e^{i(k1+k2)t}; degrees stay inside the band
    n = 32
    f = TorusFunction.harmonic(k1, n) * TorusFunction.harmonic(k2, n)
    g = TorusFunction.harmonic(k1 + k2, n)
    assert np.allclose(f.samples, g.samples, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=-15, max_value=15))
def test_derivative_eigenmode_property(k):
    n = 64
    f = TorusFunction.harmonic(k, n)
    df = f.derivative()
    assert np.allclose(df.samples, 1j * k * f.samples, atol=1e-11)

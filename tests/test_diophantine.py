"""Tests for small-divisor arithmetic, rational classification, the heuristic
Liouville fit, and certified construction."""

import cmath
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypotorus import diophantine as dio
from hypotorus.diagnostics import ols
from hypotorus.modes import small_divisor
from hypotorus.spectrum import EigenSequence, build_eigensequence

# Frozen output of the greedy construction on the harmonic oscillator line
# with (n, mu) = (1, 1/2), L = 3, default caps.  Verified independently by
# exact rational arithmetic and an mpmath bound check below.
L3_JS = (1, 9, 32773)
L3_LAMS = (3, 19, 65547)
L3_TAUS = (1, 6, 20699)
L3_KAPPA = Fraction(20699, 65547)
L3_GAPS = (Fraction(1150, 21849), Fraction(1, 65547), Fraction(0))
L3_KS = (3, 15, 47283)

# Bit lengths for the L = 4 run (the index itself has ~14k digits).
L4_J_BITS = (1, 4, 16, 47284)
L4_LAM_BITS = (2, 5, 17, 47285)


@pytest.fixture(scope="module")
def h1d():
    return build_eigensequence("harmonic1d", 2048)


# --------------------------------------------------------------------------- #
# distance to the nearest integer
# --------------------------------------------------------------------------- #

class TestDistToInt:
    def test_examples(self):
        assert dio.dist_to_int(0.25) == 0.25
        assert dio.dist_to_int(0.75) == 0.25
        assert dio.dist_to_int(3.0) == 0.0
        assert dio.dist_to_int(-0.3) == pytest.approx(0.3, abs=1e-15)

    def test_half_integer_ties(self):
        assert dio.dist_to_int(0.5) == 0.5
        assert dio.dist_to_int(-2.5) == 0.5
        assert dio.dist_to_int(7.5) == 0.5

    def test_exact_variant(self):
        assert dio.dist_to_int_exact(Fraction(7, 3)) == Fraction(1, 3)
        assert dio.dist_to_int_exact(Fraction(-1, 4)) == Fraction(1, 4)
        assert dio.dist_to_int_exact(Fraction(1, 2)) == Fraction(1, 2)
        assert dio.dist_to_int_exact(5) == 0

    @given(st.floats(-1e6, 1e6), st.integers(-1000, 1000))
    def test_integer_shift_invariance(self, x, k):
        # keep x + k exactly representable
        if abs(x) < 2**40:
            assert dio.dist_to_int(x + k) == pytest.approx(dio.dist_to_int(x), abs=1e-9)

    @given(st.floats(-1e9, 1e9))
    def test_symmetry(self, x):
        assert dio.dist_to_int(-x) == pytest.approx(dio.dist_to_int(x), abs=1e-12)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_exact_matches_float_on_small_rationals(self, p, q):
        v = Fraction(p, q)
        if q <= 2**20:
            assert float(dio.dist_to_int_exact(v)) == pytest.approx(
                dio.dist_to_int(p / q), abs=1e-9)


# --------------------------------------------------------------------------- #
# the divisor sandwich  4d <= |1 - e^{2 pi i x}| <= 2 pi d
# --------------------------------------------------------------------------- #

class TestDivisorSandwich:
    def test_quarter(self):
        lo, v, up = dio.divisor_sandwich(0.25)
        assert lo == 1.0
        assert v == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert up == pytest.approx(math.pi / 2, abs=1e-15)

    def test_zero(self):
        assert dio.divisor_sandwich(0.0) == (0.0, 0.0, 0.0)

    def test_half(self):
        lo, v, up = dio.divisor_sandwich(0.5)
        assert lo == 2.0
        assert v == 2.0
        assert up == pytest.approx(math.pi, abs=1e-15)

    def test_ordering_on_large_random_sample(self, rng):
        # acceptance-scale sweep: zero failures allowed
        xs = np.concatenate([
            rng.uniform(-50.0, 50.0, 100_000),
            0.5 + np.linspace(-1e-12, 1e-12, 2001),
            np.linspace(-1e-12, 1e-12, 2001),
            0.5 - np.logspace(-17, -1, 400), 0.5 + np.logspace(-17, -1, 400),
            1.0 - np.logspace(-17, -1, 400), 1.0 + np.logspace(-17, -1, 400),
        ])
        for x in xs:
            lo, v, up = dio.divisor_sandwich(float(x))
            assert lo <= v <= up

    def test_value_matches_naive_modulus(self, rng):
        # the stable form agrees with |1 - e^{2 pi i x}| where the naive
        # evaluation is itself accurate
        for x in rng.uniform(-10.0, 10.0, 5000):
            d = dio.dist_to_int(float(x))
            if d > 1e-6:
                naive = abs(1 - cmath.exp(2j * math.pi * float(x)))
                assert dio.divisor_sandwich(float(x))[1] == pytest.approx(
                    naive, rel=1e-10)

    def test_consistent_with_mode_divisor(self, rng):
        # same quantity as the real-mean small divisor of the mode solver
        for _ in range(200):
            lam = float(rng.integers(1, 400))
            c0 = float(rng.uniform(-2, 2))
            assert small_divisor(lam, c0) == pytest.approx(
                dio.divisor_sandwich(lam * c0)[1], rel=1e-12, abs=1e-300)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_ordering_property(self, x):
        lo, v, up = dio.divisor_sandwich(x)
        assert lo <= v <= up


# --------------------------------------------------------------------------- #
# distance sequences
# --------------------------------------------------------------------------- #

class TestDistanceSequence:
    def test_exact_resonances_for_one_third(self, h1d):
        seq = dio.distance_sequence(Fraction(1, 3), h1d, J=128)
        assert seq.exact
        res = set(seq.resonant_indices)
        assert res == {j for j in range(128) if (2 * j + 1) % 3 == 0}
        # nonresonant distances are exactly 1/3
        nz = seq.d[seq.d > 0]
        assert np.all(nz == pytest.approx(1.0 / 3.0, abs=1e-15))

    def test_float_path(self, h1d):
        seq = dio.distance_sequence(0.25 + 1e-3, h1d, J=64)
        assert not seq.exact
        assert seq.d[0] == pytest.approx(dio.dist_to_int((0.25 + 1e-3) * 1.0))

    def test_csv_roundtrip(self, h1d):
        seq = dio.distance_sequence(Fraction(2, 7), h1d, J=96)
        back = dio.DistanceSequence.from_csv(seq.to_csv(), kappa=Fraction(2, 7))
        assert back.js == seq.js
        assert back.lambdas == seq.lambdas
        np.testing.assert_array_equal(back.d, seq.d)

    def test_csv_roundtrip_of_float_lambdas_in_exponent_form(self):
        # repr writes a float lambda >= 1e16 as '1e+16', which is no int literal
        eigs = build_eigensequence("table", 8, values=[1.5, 2.5, 1e16, 3e16, 1e17,
                                                       2.5e17, 1e20, 1.25e22])
        seq = dio.distance_sequence(0.3, eigs)
        back = dio.DistanceSequence.from_csv(seq.to_csv(), kappa=0.3)
        assert back.lambdas == seq.lambdas
        np.testing.assert_array_equal(back.d, seq.d)

    def test_window_validation(self, h1d):
        with pytest.raises(ValueError):
            dio.distance_sequence(Fraction(1, 2), h1d, J=10**7)

    def test_exponent(self, h1d):
        assert dio.distance_sequence(Fraction(1, 2), h1d, J=64,
                                     mu=Fraction(1, 2)).e == 1
        assert dio.distance_sequence(Fraction(1, 2), h1d, J=64,
                                     mu=Fraction(1, 1)).e == Fraction(1, 2)
        nd2 = build_eigensequence("harmonic_nd 2", 64)
        assert dio.distance_sequence(Fraction(1, 2), nd2, J=64, mu=0.5).e == Fraction(1, 2)


_EXACT_KINDS = ["harmonic1d", "harmonic1d_power 2", "harmonic1d_power 3",
                "harmonic_nd 2", "harmonic_nd 3", "table"]


@st.composite
def _integer_tables(draw):
    """Integer values of strictly increasing modulus and random signs."""
    steps = draw(st.lists(st.integers(1, 2**72), min_size=1, max_size=32))
    signs = draw(st.lists(st.booleans(), min_size=len(steps), max_size=len(steps)))
    vals, acc = [], 0
    for step, neg in zip(steps, signs):
        acc += step
        vals.append(-acc if neg else acc)
    return vals


def _exact_eigs(kind, table):
    if kind == "table":
        return build_eigensequence("table", len(table), values=table)
    return build_eigensequence(kind, 32)


def _scan_residues(p, q, values):
    """Zero classes and floor of p*lambda mod q by a scan over the values."""
    zero_classes, min_nonzero = [], None
    for idx, lam in enumerate(values):
        r = (p * lam) % q
        if r == 0:
            zero_classes.append(idx)
        else:
            dq = min(r, q - r)
            if min_nonzero is None or dq < min_nonzero:
                min_nonzero = dq
    return tuple(zero_classes), None if min_nonzero is None else Fraction(min_nonzero, q)


class TestResiduePath:
    # the int64 numerators need max|lambda| |p| < 2^63 and q < 2^53 (lambda_31
    # = 63 on harmonic1d); one step past either bound takes Python ints
    @example(p=(2**63 - 1) // 63, q=2**53 - 1, kind="harmonic1d", table=[1])
    @example(p=-((2**63 - 1) // 63), q=2**53 - 111, kind="harmonic1d", table=[1])
    @example(p=(2**63 - 1) // 63 + 1, q=2**53 - 1, kind="harmonic1d", table=[1])
    @example(p=3, q=2**53, kind="harmonic1d", table=[1])
    @example(p=1, q=5, kind="table", table=[2**63 - 1, -(2**63)])
    @example(p=-1, q=5, kind="table", table=[-(2**63 - 1), 2**63 - 1])
    @given(p=st.integers(-2**70, 2**70), q=st.integers(1, 2**70),
           kind=st.sampled_from(_EXACT_KINDS), table=_integer_tables())
    @settings(max_examples=200, deadline=None)
    def test_exact_distances_are_the_rounded_fractions(self, p, q, kind, table):
        eigs = _exact_eigs(kind, table)
        kappa = Fraction(p, q)
        seq = dio.distance_sequence(kappa, eigs)
        want = np.array([float(dio.dist_to_int_exact(kappa * lam)) for lam in eigs.exact])
        assert seq.exact and seq.lambdas == tuple(eigs.exact)
        assert seq.d.tobytes() == want.tobytes()

    # q = 9 * 25 * 1001 spans four 2^16-mode scan chunks, and q | (2j+1)^k
    # exactly when 15015 | 2j+1: fifteen resonant classes, in every chunk
    @example(p=4, q=225225, k=2)
    @example(p=4, q=225225, k=3)
    @given(p=st.integers(-2**70, 2**70), q=st.integers(1, 400), k=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_power_classes_and_floor_match_the_scan(self, p, q, k):
        v = dio.classify_rational(p, q, build_eigensequence(f"harmonic1d_power {k}", 8))
        classes, floor = _scan_residues(p, q, ((2 * j + 1) ** k for j in range(q)))
        assert (v.resonant_classes, v.floor, v.period) == (classes, floor, q)

    # above 2^53 these four values share a float, so the float view does not diverge
    @example(p=1, q=7, table=[1, 2, 3, 4] + [72057594037927900 + k for k in range(4)])
    @given(p=st.integers(-2**70, 2**70), q=st.integers(1, 2**70), table=_integer_tables())
    @settings(max_examples=150, deadline=None)
    def test_table_classes_and_floor_match_the_scan(self, p, q, table):
        v = dio.classify_rational(p, q, build_eigensequence("table", len(table), values=table))
        assert (v.resonant_classes, v.floor) == _scan_residues(p, q, table)

    @given(kappa=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from([0.5, -2.5, 5e-324, -5e-324, 0.1, 1e308])),
           lams=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                   st.sampled_from([0.5, 1.5, -3.0, 5e-324, 1e16])),
                         min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_float_distances_match_the_scalar_helper(self, kappa, lams):
        eigs = EigenSequence("table", np.array(sorted(lams, key=abs)), m=2, n=1)
        seq = dio.distance_sequence(kappa, eigs)
        want = np.array([dio.dist_to_int(kappa * lam) for lam in eigs.lambdas.tolist()])
        assert not seq.exact
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(seq.d), nan)
        assert seq.d[~nan].tobytes() == want[~nan].tobytes()

    @given(lead=st.integers(0, 30), zeros=st.lists(st.integers(0, 199), max_size=16),
           ds=st.lists(st.floats(5e-324, 0.5), min_size=64, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_fit_envelope_matches_the_loop(self, lead, zeros, ds):
        # resonant modes (d = 0) give NaN in -log d; a leading run of them
        # leaves the envelope at -inf
        d = np.array([0.0] * lead + ds)
        n = len(d)
        d[[lead + z % len(ds) for z in zeros]] = 0.0
        seq = dio.DistanceSequence(kappa=float("nan"), e=Fraction(1),
                                   js=tuple(range(n)), lambdas=tuple(range(n)), d=d, exact=False)
        rep = dio.liouville_fit(seq)
        with np.errstate(divide="ignore"):
            y = np.where(d > 0.0, -np.log(d), np.nan)
        env, cur = np.empty(n), -np.inf      # the running record, one mode at a time
        for j in range(n):
            if not np.isnan(y[j]):
                cur = max(cur, y[j])
            env[j] = cur
        x = np.arange(1.0, n + 1.0)
        windows = [(lo, hi) for lo, hi in dio._dyadic_windows(n)
                   if np.isfinite(env[lo:hi]).sum() >= 4]
        assert rep.windows == tuple(windows)
        for (lo, hi), slope in zip(windows, rep.slopes):
            ok = np.isfinite(env[lo:hi])
            assert slope == ols(env[lo:hi][ok], x[lo:hi][ok])[0]


def test_exponent_from_params_validation():
    # the exponent 1/(2 n mu) of the fit comes from the spectrum: n >= 1 there,
    # mu >= 1/2 in EigenSequence.exponent
    with pytest.raises(ValueError):
        build_eigensequence("table", 4, values=[1, 2, 3, 4], n=0)
    with pytest.raises(ValueError):
        dio.distance_sequence(Fraction(1, 2), build_eigensequence("harmonic1d", 16),
                              mu=Fraction(0))


# --------------------------------------------------------------------------- #
# exact rational classification
# --------------------------------------------------------------------------- #

class TestClassifyRational:
    def test_one_half_has_floor_one_half(self, h1d):
        v = dio.classify_rational(1, 2, h1d)
        assert not v.resonant
        assert v.floor == Fraction(1, 2)
        assert v.scope == "infinite"
        assert "non-Liouville" in v.verdict

    def test_integers_fully_resonant(self, h1d):
        v = dio.classify_rational(1, 1, h1d)
        assert v.resonant
        assert v.resonant_classes == (0,)
        assert v.verdict == "resonant/Liouville-degenerate"

    def test_one_third_resonant_along_residue_class(self, h1d):
        v = dio.classify_rational(1, 3, h1d)
        assert v.resonant
        assert v.resonant_classes == (1,)   # 3 | 2j+1  iff  j = 1 mod 3
        assert v.period == 3

    def test_rejects_bad_q(self, h1d):
        with pytest.raises(ValueError):
            dio.classify_rational(1, 0, h1d)
        with pytest.raises(ValueError):
            dio.classify_rational(1, -5, h1d)

    def test_rejects_float_eigenvalues(self):
        tab = build_eigensequence("table", 16,
                                  values=[1.5 * (j + 1) for j in range(16)])
        with pytest.raises(ValueError):
            dio.classify_rational(1, 2, tab)

    def test_brute_force_agreement_harmonic1d(self):
        # every p/q with q <= 50 against J = 500 explicit distances
        J = 500
        lams = [2 * j + 1 for j in range(J)]
        eigs = build_eigensequence("harmonic1d", J)
        for q in range(1, 51):
            for p in (0, 1, 2, q - 1, q, q + 1, 3 * q // 2 + 1, -1, -3):
                v = dio.classify_rational(p, q, eigs)
                brute_res = [j for j, lam in enumerate(lams) if (p * lam) % q == 0]
                want_res = [j for j in range(J) if j % q in v.resonant_classes]
                assert brute_res == want_res, (p, q)
                if not v.resonant:
                    brute_min = min(
                        Fraction(min(r, q - r), q)
                        for r in ((p * lam) % q for lam in lams))
                    assert v.floor == brute_min, (p, q)
                    assert v.floor >= Fraction(1, q)

    def test_brute_force_agreement_power_kind(self):
        J = 200
        eigs = build_eigensequence("harmonic1d_power 2", J)
        lams = [(2 * j + 1) ** 2 for j in range(J)]
        for q in range(1, 21):
            for p in (1, q - 1, q + 2, -1):
                v = dio.classify_rational(p, q, eigs)
                brute_res = [j for j, lam in enumerate(lams) if (p * lam) % q == 0]
                want_res = [j for j in range(J) if j % q in v.resonant_classes]
                assert brute_res == want_res, (p, q)

    def test_nd_kind_block_pattern(self):
        # lambda = 2 + 2*ell in dimension 2: residues live on the block index
        eigs = build_eigensequence("harmonic_nd 2", 500)
        v = dio.classify_rational(1, 4, eigs)
        assert v.class_variable == "block"
        # 4 | 2 + 2 ell  iff  ell = 1 mod 2
        assert v.resonant and v.resonant_classes == (1, 3)
        brute = [j for j in range(500)
                 if (eigs.exact[j]) % 4 == 0]
        want = [j for j in range(500)
                if ((eigs.exact[j] - 2) // 2) % 4 in v.resonant_classes]
        assert brute == want

    def test_nd_floor_bounds_window(self):
        eigs = build_eigensequence("harmonic_nd 2", 500)
        v = dio.classify_rational(3, 7, eigs)
        window_min = min(
            dio.dist_to_int_exact(Fraction(3 * int(lam), 7)) for lam in eigs.exact)
        if not v.resonant:
            assert v.floor <= window_min

    def test_table_scope_is_window(self):
        tab = build_eigensequence("table", 32, values=[j + 1 for j in range(32)])
        v = dio.classify_rational(1, 7, tab)
        assert v.scope == "window"
        assert v.resonant  # 7, 14, 21, 28 are in the table

    def test_json_export(self, h1d):
        v = dio.classify_rational(1, 3, h1d)
        obj = json.loads(v.to_json())
        assert obj["verdict"] == "resonant/Liouville-degenerate"
        assert obj["resonant_classes"] == [1]
        v2 = dio.classify_rational(1, 2, h1d)
        obj2 = json.loads(v2.to_json())
        assert obj2["floor"] == {"num": "1", "den": "2"}


    def test_closed_form_matches_residue_scan(self):
        # the scan over one period that classify_rational used to run is the
        # reference for the closed form on arithmetic-progression spectra
        kinds = [("harmonic1d", lambda idx: 2 * idx + 1)]
        kinds += [(f"harmonic_nd {n}", lambda idx, n=n: n + 2 * idx) for n in (1, 2, 3, 4)]
        for kind, lam_of in kinds:
            eigs = build_eigensequence(kind, 8)
            for q in range(1, 301):
                ps = [p for p in range(q) if math.gcd(p, q) == 1]
                r = (np.array(ps)[:, None] * lam_of(np.arange(q))[None, :]) % q
                dmin = np.where(r == 0, q, np.minimum(r, q - r)).min(axis=1).tolist()
                for p, row, dq in zip(ps, r, dmin):
                    v = dio.classify_rational(p, q, eigs)
                    assert v.resonant_classes == tuple(np.flatnonzero(row == 0).tolist()), (kind, p, q)
                    assert v.floor == (Fraction(dq, q) if dq < q else None), (kind, p, q)

    def test_power_kind_scan_is_bounded(self):
        eigs = build_eigensequence("harmonic1d_power 2", 8)
        q = dio._POWER_SCAN_CAP + 1
        with pytest.raises(ValueError, match="scan bound"):
            dio.classify_rational(1, q, eigs)

    def test_power_scan_memory_stays_within_a_chunk(self):
        # the whole period at once held ~134 MB of Python ints at this q
        q = (1 << 20) - 3                   # prime: one resonant class, 2j+1 = q
        eigs = build_eigensequence("harmonic1d_power 2", 8)
        tracemalloc.start()
        try:
            v = dio.classify_rational(1, q, eigs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (v.resonant_classes, v.floor) == (((q - 1) // 2,), Fraction(1, q))
        assert peak < 40e6, f"peak {peak / 1e6:.0f} MB"


# Constant formula means with huge denominators.  Before the closed form
# these built a list of q residues, so each runs in a child process with its
# address space capped: a regression fails the test instead of exhausting
# the machine's memory.
_GUARDED_CLI = """
import resource, sys
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from hypotorus.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run_guarded(tmp_path, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _GUARDED_CLI, command, "--config", str(cfg),
         "--out", str(out)],
        capture_output=True, text=True, timeout=60, env=env)
    return proc, out


@pytest.mark.parametrize("config, code, decision", [
    ({"c": "0.70710678118654752", "j_modes": 128, "witness": True}, 0, "GH"),
    ({"c": "1/3 + 1/10000000000"}, 0, "GH"),
    ({"c": "1/3 + 1/10000000000", "model": {"kind": "harmonic1d_power 2"}}, 1, None),
])
def test_huge_denominator_constant_is_decided_quickly(tmp_path, config, code, decision):
    proc, out = _run_guarded(tmp_path, "classify", config)
    assert proc.returncode == code, proc.stderr
    if decision is None:
        assert "scan bound" in proc.stderr and "Traceback" not in proc.stderr
    else:
        verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
        assert (verdict["decision"], verdict["confidence"]) == (decision, "definitive")
        assert verdict["evidence"]["rational"]["floor"]["num"] == "1"


@pytest.mark.parametrize("command, config", [
    ("classify", {"c": "1/2000000000001", "witness": True}),
    ("witness", {"c": "1/2000000000001", "witness_kind": "constant"}),
])
def test_huge_denominator_resonance_witness_is_built_quickly(tmp_path, command, config):
    # 2j + 1 = 0 mod q first at j = (q - 1)/2, then once per period q
    q = 2000000000001
    proc, out = _run_guarded(tmp_path, command, config)
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["subsequence"] == [(q - 1) // 2 + t * q for t in range(4)]
    assert manifest["meta"]["tau"] == [1, 3, 5, 7]


# --------------------------------------------------------------------------- #
# heuristic fit
# --------------------------------------------------------------------------- #

class TestLiouvilleFit:
    def test_constant_half_is_non_liouville(self, h1d):
        rep = dio.liouville_fit(dio.distance_sequence(Fraction(1, 2), h1d))
        assert rep.classification == "non-Liouville evidence"
        assert max(abs(s) for s in rep.slopes) < 1e-12
        assert rep.heuristic

    def test_quadratic_irrational_is_non_liouville(self, h1d):
        kappa = math.sqrt(2.0) - 1.0
        seq = dio.distance_sequence(kappa, h1d)
        # classical continued-fraction floor for sqrt(2):
        # |sqrt(2) - p/q| > 1/((2+sqrt(2)) q^2), so d_j * lambda_j > 0.29
        scaled = seq.d * np.asarray(seq.lambdas, dtype=float)
        assert scaled.min() > 1.0 / (2.0 + math.sqrt(2.0)) - 1e-9
        rep = dio.liouville_fit(seq)
        assert rep.classification == "non-Liouville evidence"
        assert rep.max_over_median < 4.0

    def test_other_quadratic_irrationals_are_non_liouville(self, h1d):
        # all quadratic irrationals have eventually periodic continued
        # fractions, hence bounded partial quotients
        for kappa in ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(3.0) - 1.0,
                      math.sqrt(7.0) - 2.0):
            rep = dio.liouville_fit(dio.distance_sequence(kappa, h1d))
            assert rep.classification == "non-Liouville evidence", kappa

    def test_constructed_number_is_suspected(self, h1d):
        cert = dio.construct_liouville(h1d, 3)
        rep = dio.liouville_fit(dio.distance_sequence(cert.kappa, h1d))
        assert rep.classification == "Liouville suspected"
        assert rep.max_over_median >= 4.0

    def test_suspected_already_at_minimum_window(self, h1d):
        cert = dio.construct_liouville(h1d, 3)
        rep = dio.liouville_fit(dio.distance_sequence(cert.kappa, h1d, J=64))
        assert rep.classification == "Liouville suspected"

    def test_partial_resonance_reported(self, h1d):
        rep = dio.liouville_fit(dio.distance_sequence(Fraction(1, 3), h1d))
        assert rep.resonant_indices[:4] == (1, 4, 7, 10)
        assert rep.n_modes_used == 2048 - len(rep.resonant_indices)
        assert rep.classification == "non-Liouville evidence"

    def test_rejects_resonance_dominated(self, h1d):
        with pytest.raises(ValueError, match="classify_rational"):
            dio.liouville_fit(dio.distance_sequence(Fraction(1), h1d))

    def test_rejects_short_window(self, h1d):
        with pytest.raises(ValueError, match="64"):
            dio.liouville_fit(dio.distance_sequence(Fraction(1, 2), h1d, J=32))

    def test_report_json(self, h1d):
        rep = dio.liouville_fit(dio.distance_sequence(Fraction(1, 2), h1d))
        obj = json.loads(rep.to_json())
        assert obj["classification"] == "non-Liouville evidence"
        assert obj["heuristic"] is True
        assert len(obj["slopes"]) == len(obj["windows"])

    def test_report_json_writes_null_for_an_unfittable_raw_window(self):
        # kappa = 1/2 resonates with the even values 8..14, so window [4, 8)
        # has no nonzero distance and its raw slope is NaN
        values = [1, 3, 5, 7, 8, 10, 12, 14] + [2 * j + 1 for j in range(8, 64)]
        eigs = build_eigensequence("table", 64, values=values)
        rep = dio.liouville_fit(dio.distance_sequence(Fraction(1, 2), eigs))
        assert rep.windows[0] == (4, 8) and math.isnan(rep.raw_slopes[0])

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        obj = json.loads(rep.to_json(), parse_constant=refuse)
        assert obj["raw_slopes"][0] is None
        assert obj == json.loads(json.dumps(rep.as_dict()).replace("NaN", "null"))

    def test_windows_are_dyadic(self, h1d):
        rep = dio.liouville_fit(dio.distance_sequence(Fraction(1, 2), h1d))
        assert rep.windows[0] == (4, 8)
        assert all(hi == 2 * lo for lo, hi in rep.windows)


# --------------------------------------------------------------------------- #
# certified construction
# --------------------------------------------------------------------------- #

class TestConstructLiouville:
    def test_single_level_is_exact_hit(self, h1d):
        cert = dio.construct_liouville(h1d, 1)
        assert cert.kappa == Fraction(1, 3)
        assert cert.levels[0].gap == 0
        assert cert.verify()

    def test_three_levels_frozen_values(self, h1d):
        cert = dio.construct_liouville(h1d, 3)
        assert tuple(lv.j for lv in cert.levels) == L3_JS
        assert tuple(lv.lam for lv in cert.levels) == L3_LAMS
        assert tuple(lv.tau for lv in cert.levels) == L3_TAUS
        assert cert.kappa == L3_KAPPA
        assert cert.gaps() == L3_GAPS
        assert tuple(lv.K for lv in cert.levels) == L3_KS
        assert cert.verify()

    def test_gap_bound_against_mpmath(self, h1d):
        # independent high-precision check of gap <= exp(-(j+1)^e)
        cert = dio.construct_liouville(h1d, 3)
        with mpmath.workdps(60):
            for lv in cert.levels:
                gap = mpmath.mpf(lv.gap.numerator) / mpmath.mpf(lv.gap.denominator)
                assert gap <= mpmath.exp(-(lv.j + 1))

    def test_k_bound_is_a_lower_bound_on_exp(self):
        # 2^-K <= exp(-(j+1)^e) for a spread of j and exponents
        with mpmath.workdps(60):
            for e in (Fraction(1), Fraction(1, 2), Fraction(2, 3)):
                for j in (0, 1, 5, 17, 100, 10_000):
                    K = dio._k_bound(j, e)
                    x = mpmath.power(j + 1, mpmath.mpf(e.numerator) / e.denominator)
                    assert mpmath.power(2, -K) <= mpmath.exp(-x)

    def test_four_levels_beyond_cap(self, h1d):
        cert = dio.construct_liouville(h1d, 4, j_cap=None)
        assert tuple(lv.j.bit_length() for lv in cert.levels) == L4_J_BITS
        assert tuple(lv.lam.bit_length() for lv in cert.levels) == L4_LAM_BITS
        assert cert.levels[-1].gap == 0
        assert cert.verify()

    def test_default_cap_triggers_overflow(self, h1d):
        with pytest.raises(dio.LevelOverflow, match="cap 1000000"):
            dio.construct_liouville(h1d, 4)

    def test_bits_cap_triggers_overflow(self, h1d):
        with pytest.raises(dio.LevelOverflow, match="bits"):
            dio.construct_liouville(h1d, 5, j_cap=None)

    def test_gentler_exponent_fits_more_levels(self, h1d):
        # mu = 1 halves the exponent, so four levels fit under the cap
        cert = dio.construct_liouville(h1d, 4, mu=1)
        assert len(cert.levels) == 4
        assert cert.levels[-1].j <= 10**6
        assert cert.verify()

    def test_requires_progression_structure(self):
        nd = build_eigensequence("harmonic_nd 2", 64)
        with pytest.raises(ValueError, match="arithmetic progression"):
            dio.construct_liouville(nd, 2)
        tab = build_eigensequence("table", 16, values=[j + 1 for j in range(16)])
        with pytest.raises(ValueError, match="arithmetic progression"):
            dio.construct_liouville(tab, 2)

    def test_requires_positive_levels(self, h1d):
        with pytest.raises(ValueError):
            dio.construct_liouville(h1d, 0)

    def test_json_roundtrip(self, h1d):
        cert = dio.construct_liouville(h1d, 3)
        back = dio.LiouvilleCertificate.from_json(cert.to_json())
        assert back == cert
        assert back.verify()

    def test_json_roundtrip_huge(self, h1d):
        cert = dio.construct_liouville(h1d, 4, j_cap=None)
        back = dio.LiouvilleCertificate.from_json(cert.to_json())
        assert back == cert
        assert back.verify()

    def test_json_uses_decimal_strings(self, h1d):
        cert = dio.construct_liouville(h1d, 3)
        obj = json.loads(cert.to_json())
        assert obj["kappa"] == {"num": "20699", "den": "65547"}
        assert obj["levels"][1]["lambda"] == "19"
        assert obj["levels"][0]["gap"] == {"num": "1150", "den": "21849"}

    def test_verify_rejects_tampering(self, h1d):
        cert = dio.construct_liouville(h1d, 3)

        def rebuild(**kw):
            fields = dict(kappa=cert.kappa, levels=cert.levels, n=cert.n,
                          mu=cert.mu, e=cert.e, eigs_kind=cert.eigs_kind,
                          ap_index=cert.ap_index)
            fields.update(kw)
            return dio.LiouvilleCertificate(**fields)

        assert not rebuild(kappa=cert.kappa + Fraction(1, 10**9)).verify()

        lv = cert.levels[1]
        wrong_tau = dio.CertLevel(lv.j, lv.lam, lv.tau + 1,
                                  abs(cert.kappa * lv.lam - (lv.tau + 1)), lv.K)
        assert not rebuild(levels=(cert.levels[0], wrong_tau, cert.levels[2])).verify()

        weak_claim = dio.CertLevel(lv.j, lv.lam, lv.tau, lv.gap, lv.K - 1)
        assert not rebuild(levels=(cert.levels[0], weak_claim, cert.levels[2])).verify()

        out_of_order = (cert.levels[1], cert.levels[0], cert.levels[2])
        assert not rebuild(levels=out_of_order).verify()

    def test_level_distances_decrease_like_certified_bound(self, h1d):
        cert = dio.construct_liouville(h1d, 3)
        seq = dio.distance_sequence(cert.kappa, h1d)
        for lv in cert.levels:
            if lv.j < len(seq):
                assert seq.d[lv.j] == pytest.approx(float(lv.gap), rel=1e-12,
                                                    abs=1e-300)


def test_frac_le_pow2_band_logic():
    # fast paths and the narrow exact band
    assert dio._frac_le_pow2(0, 5, 10**7)
    assert dio._frac_le_pow2(1, 2**100, 50)
    assert not dio._frac_le_pow2(2**60, 2**70, 50)
    # boundary: a/b == 2^-K exactly
    assert dio._frac_le_pow2(1, 1 << 30, 30)
    assert not dio._frac_le_pow2(1 + (1 << 30), (1 << 60), 30)
    # narrow band just above/below
    assert dio._frac_le_pow2(3, 3 << 20, 20)
    assert not dio._frac_le_pow2((3 << 20) + 1, 3, 0) or True  # a > b, K = 0
    assert not dio._frac_le_pow2(3, (3 << 20) - 1, 20)

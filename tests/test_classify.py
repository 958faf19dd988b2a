"""Tests for the hypoellipticity decision procedure: sign analysis of Im c,
constant-coefficient arithmetic, the variable-coefficient decision tree, and
verdict serialization."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypotorus.classify import (
    BRANCH_DIOPHANTINE,
    BRANCH_NONREAL,
    BRANCH_RESONANCE,
    BRANCH_SIGN,
    BRANCH_SIGN_CHANGE,
    NonRealInput,
    SignReport,
    Verdict,
    WitnessPlan,
    _circular_runs,
    classify,
    classify_constant,
    classify_samples,
    sign_report,
)
from hypotorus.formulas import parse_formula
from hypotorus.spectrum import build_eigensequence
from hypotorus.torusfn import TorusFunction

# kappa of the L = 3 greedy construction (see test_diophantine): as an exact
# rational it resonates at mode 32773; as a float it is an empirical real
# whose distance table shows the Liouville spike at j = 9.
L3_KAPPA = Fraction(20699, 65547)

N = 256


@pytest.fixture(scope="module")
def h1d():
    return build_eigensequence("harmonic1d", 2048)


@pytest.fixture(scope="module")
def h1d_small():
    return build_eigensequence("harmonic1d", 128)


def _plateau_samples(sign_after=-1.0, tail_value=None):
    """+1 on the first quarter, 0 on a fat middle run, sign_after after it."""
    v = np.empty(N)
    v[:64] = 1.0
    v[64:160] = 0.0
    v[160:] = sign_after if tail_value is None else tail_value
    return v


# --------------------------------------------------------------------------- #
# sign_report
# --------------------------------------------------------------------------- #

class TestSignReport:
    def test_sin_changes_sign(self):
        rep = sign_report(TorusFunction.from_callable(np.sin))
        assert rep.changes_sign
        assert not rep.identically_zero
        assert rep.min_b == pytest.approx(-1.0, abs=1e-12)
        assert rep.max_b == pytest.approx(1.0, abs=1e-12)
        assert rep.mean_b == pytest.approx(0.0, abs=1e-14)
        # zeros at t = 0 and t = pi only, each an isolated grid sample
        assert rep.longest_zero_run == 1
        assert rep.zero_measure == pytest.approx(2 * 2 * np.pi / rep.n)

    def test_one_minus_cos_is_sign_definite(self):
        rep = sign_report(TorusFunction.from_callable(lambda t: 1.0 - np.cos(t)))
        assert rep.min_b == pytest.approx(0.0, abs=1e-14)
        assert rep.max_b == pytest.approx(2.0, abs=1e-14)
        assert not rep.changes_sign
        assert not rep.identically_zero

    def test_zero_function(self):
        rep = sign_report(TorusFunction.zero())
        assert rep.identically_zero
        assert not rep.changes_sign
        assert rep.longest_zero_run == rep.n
        assert rep.zero_measure == pytest.approx(2 * np.pi)

    def test_non_real_input_rejected(self):
        with pytest.raises(NonRealInput):
            sign_report(TorusFunction.constant(1j))
        with pytest.raises(NonRealInput):
            sign_report(TorusFunction.from_callable(lambda t: np.exp(1j * t)))

    def test_plateau_run_length(self):
        rep = sign_report(TorusFunction.from_samples(_plateau_samples()))
        assert rep.changes_sign
        assert rep.longest_zero_run == 96
        assert rep.zero_measure == pytest.approx(2 * np.pi * 96 / N)

    def test_wraparound_run(self):
        # zeros on [224, 256) and [0, 32): one circular run of length 64
        v = np.ones(N)
        v[224:] = 0.0
        v[:32] = 0.0
        v[128] = -1.0  # force a sign change elsewhere
        rep = sign_report(TorusFunction.from_samples(v))
        assert rep.longest_zero_run == 64

    def test_sub_threshold_amplitude_is_zero(self):
        rep = sign_report(TorusFunction.from_callable(lambda t: 1e-12 * np.sin(t)))
        assert rep.identically_zero

    @given(st.lists(st.floats(-1, 1), min_size=4, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_report_consistency_on_random_trig_polys(self, coeffs):
        # real trig polynomial from random cos/sin coefficients
        def fn(t):
            out = np.full_like(t, coeffs[0])
            for k, a in enumerate(coeffs[1:], start=1):
                out = out + a * np.cos(k * t) + (a - 0.5) * np.sin(k * t)
            return out

        rep = sign_report(TorusFunction.from_callable(fn))
        assert rep.changes_sign == (rep.min_b < -rep.tol and rep.max_b > rep.tol)
        assert rep.identically_zero == (max(abs(rep.min_b), abs(rep.max_b)) < rep.tol)
        assert 0.0 <= rep.zero_measure <= 2 * np.pi + 1e-12
        assert 0 <= rep.longest_zero_run <= rep.n
        assert rep.min_b <= rep.mean_b <= rep.max_b

    @given(st.lists(st.booleans(), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_circular_runs_match_a_scan_of_the_circle(self, bits):
        # reference: a run starts at s when s is True and s - 1 (mod n) is not
        n, want = len(bits), []
        for s in range(n):
            if bits[s] and not bits[s - 1]:
                ln = 0
                while bits[(s + ln) % n]:
                    ln += 1
                want.append((s, ln))
        if bits and all(bits):
            want = [(0, n)]
        assert sorted(_circular_runs(np.array(bits, dtype=bool))) == want


# --------------------------------------------------------------------------- #
# Verdict type invariants
# --------------------------------------------------------------------------- #

class TestVerdictType:
    def test_valid_verdict_roundtrips(self):
        v = Verdict("GH", BRANCH_SIGN, {"x": Fraction(1, 3)}, "definitive")
        d = json.loads(v.to_json())
        assert d["decision"] == "GH"
        assert d["branch"] == "thm-3.10-sign"
        assert d["evidence"]["x"] == {"num": "1", "den": "3"}
        assert d["witness"] is None

    def test_gh_cannot_fire_sign_change_branch(self):
        with pytest.raises(ValueError, match="GH verdict"):
            Verdict("GH", BRANCH_SIGN_CHANGE, {}, "definitive")

    def test_notgh_cannot_fire_nonreal_branch(self):
        with pytest.raises(ValueError, match="notGH verdict"):
            Verdict("notGH", BRANCH_NONREAL, {}, "definitive")

    def test_unknown_decision_and_confidence(self):
        with pytest.raises(ValueError, match="decision"):
            Verdict("maybe", BRANCH_SIGN, {}, "definitive")
        with pytest.raises(ValueError, match="confidence"):
            Verdict("GH", BRANCH_SIGN, {}, "sure")

    def test_inconclusive_branch_is_none(self):
        with pytest.raises(ValueError, match="inconclusive"):
            Verdict("inconclusive", BRANCH_SIGN, {}, "heuristic")
        Verdict("inconclusive", "none", {}, "heuristic")  # fine

    def test_witness_only_with_notgh(self):
        plan = WitnessPlan("sign-change", {"constructor": "sign_change_witness"})
        with pytest.raises(ValueError, match="witness"):
            Verdict("GH", BRANCH_SIGN, {}, "definitive", plan)
        v = Verdict("notGH", BRANCH_SIGN_CHANGE, {}, "definitive", plan)
        assert json.loads(v.to_json())["witness"]["kind"] == "sign-change"


# --------------------------------------------------------------------------- #
# classify_constant
# --------------------------------------------------------------------------- #

class TestClassifyConstant:
    def test_nonzero_beta_is_decisive(self, h1d):
        v = classify_constant(0.7, 1, h1d)
        assert (v.decision, v.branch, v.confidence) == ("GH", BRANCH_NONREAL, "definitive")
        assert v.witness_handle is None

    def test_negative_beta_too(self, h1d):
        v = classify_constant(3.2, -0.25, h1d)
        assert (v.decision, v.branch) == ("GH", BRANCH_NONREAL)

    def test_integer_alpha_resonates_everywhere(self, h1d):
        v = classify_constant(1, 0, h1d)
        assert (v.decision, v.branch, v.confidence) == (
            "notGH", BRANCH_RESONANCE, "definitive")
        assert v.evidence["rational"]["resonant"]
        assert v.witness_handle.kind == "constant-resonance"

    def test_half_alpha_has_exact_floor(self, h1d):
        v = classify_constant(Fraction(1, 2), 0, h1d)
        assert (v.decision, v.branch, v.confidence) == (
            "GH", BRANCH_DIOPHANTINE, "definitive")
        assert v.evidence["rational"]["floor"] == Fraction(1, 2)
        d = json.loads(v.to_json())
        assert d["evidence"]["rational"]["floor"] == {"num": "1", "den": "2"}

    def test_dyadic_float_is_exact(self, h1d):
        # 0.5 is exactly 1/2; the float input takes the exact route
        v = classify_constant(0.5, 0, h1d)
        assert (v.decision, v.branch, v.confidence) == (
            "GH", BRANCH_DIOPHANTINE, "definitive")
        assert v.evidence["rational"]["floor"] == Fraction(1, 2)

    def test_third_alpha_resonates_on_a_class(self, h1d):
        v = classify_constant(Fraction(1, 3), 0, h1d)
        assert (v.decision, v.branch, v.confidence) == (
            "notGH", BRANCH_RESONANCE, "definitive")
        assert v.evidence["rational"]["resonant_classes"] == [1]
        assert v.evidence["rational"]["period"] == 3

    def test_quadratic_irrational_is_gh_heuristic(self, h1d):
        v = classify_constant(math.sqrt(2) - 1, 0, h1d)
        assert (v.decision, v.branch, v.confidence) == (
            "GH", BRANCH_DIOPHANTINE, "heuristic")
        assert v.evidence["fit"]["classification"] == "non-Liouville evidence"
        assert v.witness_handle is None

    def test_constructed_kappa_float_is_suspected(self, h1d):
        # the float value of the certified construction: its deep level sits
        # outside the window, but the j = 9 spike is already decisive
        v = classify_constant(float(L3_KAPPA), 0, h1d)
        assert (v.decision, v.branch, v.confidence) == (
            "notGH", BRANCH_DIOPHANTINE, "heuristic")
        assert v.evidence["fit"]["classification"] == "Liouville suspected"
        assert v.witness_handle.kind == "constant-liouville"

    def test_constructed_kappa_exact_is_resonant(self, h1d):
        # the same number as an exact rational: lambda = 65547 divides out at
        # mode j = 32773, so the verdict upgrades to a definitive resonance
        v = classify_constant(L3_KAPPA, 0, h1d)
        assert (v.decision, v.branch, v.confidence) == (
            "notGH", BRANCH_RESONANCE, "definitive")

    def test_float_route_uses_exact_distances(self, h1d):
        # 1/3 entered as a float still lands on the resonant classes exactly:
        # the distance table is built from the exact binary rational
        v = classify_constant(1.0 / 3.0, 0, h1d)
        # float(1/3) is not 1/3, so no resonance; the fit sees the floor
        assert v.decision == "GH"
        assert v.confidence == "heuristic"

    def test_short_window_float_is_inconclusive(self):
        h32 = build_eigensequence("harmonic1d", 32)
        v = classify_constant(0.3, 0, h32)
        assert (v.decision, v.branch) == ("inconclusive", "none")
        assert "64" in v.evidence["reason"]

    def test_table_scope_is_heuristic(self):
        tab = build_eigensequence("table", 32, values=[2 * j + 1 for j in range(32)])
        v = classify_constant(Fraction(1, 2), 0, tab)
        assert (v.decision, v.branch, v.confidence) == (
            "GH", BRANCH_DIOPHANTINE, "heuristic")

    def test_table_resonance_is_heuristic(self):
        tab = build_eigensequence("table", 8, values=[3, 6, 9, 12, 15, 18, 21, 24])
        v = classify_constant(Fraction(1, 3), 0, tab)
        assert (v.decision, v.branch, v.confidence) == (
            "notGH", BRANCH_RESONANCE, "heuristic")

    # the float route (a float whose binary denominator exceeds 2^20, or a
    # non-integer spectrum) and its three resonance outcomes
    def test_float_resonance_on_an_exact_table_is_window_bound(self):
        tab = build_eigensequence("table", 64, values=[(j + 1) * 2**21 for j in range(64)])
        v = classify_constant(2.0**-21, 0.0, tab)
        assert (v.decision, v.branch, v.confidence) == (
            "notGH", BRANCH_RESONANCE, "heuristic")
        assert v.evidence["route"] == "constant-float"
        assert v.evidence["n_resonant"] == 64
        assert "observed within the stored window" in v.evidence["recurrence"]
        assert v.witness_handle.detail["alpha"] == repr(2.0**-21)

    def test_float_resonance_on_a_formula_kind_recurs(self):
        nd = build_eigensequence("harmonic_nd 2097152", 64)   # lambda_0 = 2^21
        v = classify_constant(3 * 2.0**-21, 0.0, nd)
        assert (v.decision, v.branch, v.confidence) == (
            "notGH", BRANCH_RESONANCE, "definitive")
        assert v.evidence["route"] == "constant-float"
        assert v.evidence["resonant_indices"] == [0]
        assert "recur indefinitely" in v.evidence["recurrence"]
        assert v.witness_handle.detail["alpha"] == "3/2097152"

    def test_float_resonance_on_a_float_table_is_heuristic(self):
        tab = build_eigensequence("table", 64, values=[(j + 1) / 2 for j in range(64)])
        v = classify_constant(2.0, 0.0, tab)
        assert (v.decision, v.branch, v.confidence) == (
            "notGH", BRANCH_RESONANCE, "heuristic")
        assert v.evidence["route"] == "constant-float"
        assert v.evidence["n_resonant"] == 64
        assert v.witness_handle.detail["alpha"] == "2.0"

    def test_nonfinite_inputs_rejected(self, h1d):
        with pytest.raises(ValueError):
            classify_constant(float("nan"), 0, h1d)
        with pytest.raises(ValueError):
            classify_constant(0.3, float("inf"), h1d)

    def test_power_kind_integer_alpha(self):
        hp = build_eigensequence("harmonic1d_power 2", 64)
        v = classify_constant(2, 0, hp)
        assert (v.decision, v.branch, v.confidence) == (
            "notGH", BRANCH_RESONANCE, "definitive")


# --------------------------------------------------------------------------- #
# classify: the variable-coefficient decision tree
# --------------------------------------------------------------------------- #

class TestClassify:
    def test_sign_definite_imaginary_part(self, h1d):
        c = TorusFunction.from_callable(lambda t: 1j * (1 - np.cos(t)))
        v = classify_samples(c, h1d)
        assert (v.decision, v.branch, v.confidence) == (
            "GH", BRANCH_SIGN, "definitive")
        assert v.witness_handle is None
        assert not v.evidence["sign_report"]["changes_sign"]

    def test_negative_definite_imaginary_part(self, h1d):
        c = TorusFunction.from_callable(lambda t: -1j * (1 - np.cos(t)))
        v = classify_samples(c, h1d)
        assert (v.decision, v.branch) == ("GH", BRANCH_SIGN)

    def test_sign_change_with_thin_zero_set(self, h1d):
        c = TorusFunction.from_callable(lambda t: 0.5 + 1j * np.sin(t))
        v = classify_samples(c, h1d)
        assert (v.decision, v.branch, v.confidence) == (
            "notGH", BRANCH_SIGN_CHANGE, "definitive")
        assert v.witness_handle.kind == "sign-change"
        assert v.witness_handle.detail["constructor"] == "sign_change_witness"

    def test_cos_imaginary_part_changes_sign(self, h1d):
        v = classify_samples(TorusFunction.from_callable(lambda t: 1j * np.cos(t)), h1d)
        assert (v.decision, v.branch) == ("notGH", BRANCH_SIGN_CHANGE)

    def test_real_sin_reduces_to_resonant_zero_mean(self, h1d):
        v = classify_samples(TorusFunction.from_callable(np.sin), h1d)
        assert (v.decision, v.branch, v.confidence) == (
            "notGH", BRANCH_RESONANCE, "definitive")
        red = v.evidence["reduction"]
        assert red["a0_exact"] == Fraction(0)
        assert abs(red["a0"]) < 1e-12

    def test_real_half_plus_cos_reduces_to_floor(self, h1d):
        c = TorusFunction.from_callable(lambda t: 0.5 + 0.3 * np.cos(t))
        v = classify_samples(c, h1d)
        assert (v.decision, v.branch, v.confidence) == (
            "GH", BRANCH_DIOPHANTINE, "definitive")
        assert v.evidence["reduction"]["a0_exact"] == Fraction(1, 2)

    def test_formula_poly_gives_the_exact_mean(self, h1d):
        # the samples alone snap only denominators up to 64, so 1/65 reads as
        # an empirical real; its formula resonates at lambda = 65
        poly = parse_formula("1/65 + cos t")
        c = poly.to_torus_function(N)
        v = classify(poly, h1d, n=N)
        assert (v.decision, v.branch, v.confidence) == (
            "notGH", BRANCH_RESONANCE, "definitive")
        assert v.evidence["reduction"]["a0_exact"] == Fraction(1, 65)
        assert classify_samples(c, h1d).evidence["reduction"]["a0_exact"] is None
        # a constant poly is the constant route, with its exact value
        poly = parse_formula("1/65")
        w = classify(poly, h1d, n=N)
        assert w.evidence["route"] == "constant-rational"
        assert w.evidence["alpha"] == Fraction(1, 65)

    @pytest.mark.parametrize("text", ["1/65 + 1/10000000000000 cos t",
                                      "1/3 + 1/10000000000000 i cos t"])
    def test_formula_poly_is_never_constant_on_the_grid(self, h1d, text):
        # the oscillation is below the grid test's 1e-12, but the formula is
        # not constant, so its exact mean decides (both resonate)
        poly = parse_formula(text)
        c = poly.to_torus_function(N)
        assert (c - c.mean()).sup_norm() < 1e-12
        v = classify(poly, h1d, n=N)
        assert v.evidence["route"] == "variable-real-reduction"
        assert (v.decision, v.branch, v.confidence) == (
            "notGH", BRANCH_RESONANCE, "definitive")
        assert v.evidence["reduction"]["a0_exact"] == poly.mean.re
        # the samples alone still take the grid constancy test
        assert classify_samples(c, h1d).evidence["route"].startswith("constant-")

    def test_reduction_property(self, h1d):
        # a GH verdict through the reduction agrees with classify_constant
        # at the snapped mean, branch and confidence included
        c = TorusFunction.from_callable(lambda t: 0.5 + 0.3 * np.cos(t))
        v = classify_samples(c, h1d)
        w = classify_constant(Fraction(1, 2), 0, h1d)
        assert (v.decision, v.branch, v.confidence) == (
            w.decision, w.branch, w.confidence)

    def test_plateau_pattern_is_notgh(self, h1d):
        c = TorusFunction.from_samples(1j * _plateau_samples())
        v = classify_samples(c, h1d)
        assert (v.decision, v.branch, v.confidence) == (
            "notGH", BRANCH_SIGN_CHANGE, "definitive")
        assert v.witness_handle.kind == "plateau"
        plat = v.evidence["plateau"]
        assert plat["run"] == 96
        assert plat["sign_before"] == 1 and plat["sign_after"] == -1
        assert plat["t0"] == pytest.approx(2 * np.pi * 64 / N)
        assert plat["t1"] == pytest.approx(2 * np.pi * 159 / N)
        assert v.evidence["variant"] == "three-interval"

    def test_mirrored_plateau_pattern(self, h1d):
        c = TorusFunction.from_samples(-1j * _plateau_samples())
        v = classify_samples(c, h1d)
        assert (v.decision, v.branch) == ("notGH", BRANCH_SIGN_CHANGE)
        assert v.witness_handle.kind == "plateau"
        assert v.evidence["plateau"]["sign_before"] == -1

    def test_ambiguous_fat_zero_set_is_inconclusive(self, h1d):
        # fat plateau flanked by like signs; the sign change happens
        # elsewhere without touching zero on the grid
        v2 = np.empty(N)
        v2[:64] = 1.0
        v2[64:160] = 0.0
        v2[160:251] = 1.0
        v2[251:] = -1.0
        v = classify_samples(TorusFunction.from_samples(0.543 + 1j * v2), h1d)
        assert (v.decision, v.branch, v.confidence) == (
            "inconclusive", "none", "heuristic")
        assert "three-interval" in v.evidence["reason"]
        assert v.evidence["fat_runs"] == [[64, 96]]
        assert v.witness_handle is None

    def test_resonant_mean_rescues_ambiguous_geometry(self, h1d):
        # same ambiguous zero-set shape, but b has exact zero mean and the
        # real part sits at an integer: the resonance criterion still decides
        v3 = np.empty(N)
        v3[:64] = 1.0
        v3[64:160] = 0.0
        v3[160:224] = 1.0
        v3[224:] = -4.0
        assert v3.mean() == 0.0
        v = classify_samples(TorusFunction.from_samples(1.0 + 1j * v3), h1d)
        assert (v.decision, v.branch, v.confidence) == (
            "notGH", BRANCH_RESONANCE, "definitive")
        assert v.witness_handle.kind == "resonance-mean"
        assert v.evidence["a0"] == Fraction(1)

    def test_constant_input_delegates_exactly(self, h1d):
        v = classify_samples(TorusFunction.constant(2.0 + 0.0j), h1d)
        w = classify_constant(2.0, 0.0, h1d)
        assert (v.decision, v.branch, v.confidence) == (
            w.decision, w.branch, w.confidence)
        assert v.decision == "notGH"

    def test_tiny_nonzero_beta_stays_decisive(self, h1d):
        # constant inputs bypass the grid threshold: beta = 1e-13 is a
        # genuine nonzero constant, not a zero function
        v = classify_samples(TorusFunction.constant(0.3 + 1e-13j), h1d)
        assert (v.decision, v.branch, v.confidence) == (
            "GH", BRANCH_NONREAL, "definitive")

    def test_consistency_with_classify_constant(self, h1d_small, rng):
        for i in range(100):
            a = float(rng.uniform(-2, 2))
            b = float(rng.uniform(-1, 1)) if i % 2 else 0.0
            v = classify_samples(TorusFunction.constant(complex(a, b)), h1d_small)
            w = classify_constant(a, b, h1d_small)
            assert (v.decision, v.branch, v.confidence) == (
                w.decision, w.branch, w.confidence), (a, b)

    def test_params_are_passed_through(self, h1d):
        # with mu = 1 the exponent halves; the constant fit still resolves
        c = TorusFunction.from_callable(lambda t: (math.sqrt(2) - 1) + 0.0 * t)
        v = classify_samples(c, h1d, mu=1)
        assert v.decision == "GH"
        assert v.evidence["fit"]["exponent"] == pytest.approx(0.5)

    def test_decision_is_rotation_invariant(self, h1d):
        base = TorusFunction.from_callable(lambda t: 0.3 + 1j * np.sin(t))
        v0 = classify_samples(base, h1d)
        for shift in (1, 17, 128, 200):
            rolled = TorusFunction.from_samples(np.roll(base.samples, shift))
            v = classify_samples(rolled, h1d)
            assert (v.decision, v.branch, v.confidence) == (
                v0.decision, v0.branch, v0.confidence)

    @given(st.integers(0, 3), st.floats(-1, 1), st.floats(-1, 1),
           st.integers(0, 255))
    @settings(max_examples=40, deadline=None)
    def test_verdict_wellformed_on_random_inputs(self, k, amp, a0, shift):
        h = build_eigensequence("harmonic1d", 64)
        def fn(t):
            return a0 + 1j * amp * np.cos(k * t + 0.1)
        c = TorusFunction.from_samples(np.roll(
            TorusFunction.from_callable(fn).samples, shift))
        v = classify_samples(c, h)
        assert v.decision in ("GH", "notGH", "inconclusive")
        assert (v.witness_handle is not None) == (v.decision == "notGH")
        json.loads(v.to_json())  # always serializable


# --------------------------------------------------------------------------- #
# serialization of the contract labels
# --------------------------------------------------------------------------- #

class TestBranchLabels:
    def test_all_four_contract_strings_are_reachable(self, h1d):
        cases = {
            classify_samples(TorusFunction.from_callable(
                lambda t: 1j * (1 - np.cos(t))), h1d).branch,
            classify_samples(TorusFunction.from_callable(
                lambda t: 0.5 + 1j * np.sin(t)), h1d).branch,
            classify_samples(TorusFunction.from_callable(np.sin), h1d).branch,
            classify_constant(Fraction(1, 2), 0, h1d).branch,
        }
        assert cases == {
            "thm-3.10-sign",
            "thm-3.15-sign-change",
            "prop-3.9-resonance",
            "thm-3.6b-diophantine",
        }

    def test_evidence_survives_json(self, h1d):
        v = classify_samples(TorusFunction.from_callable(
            lambda t: 0.5 + 1j * np.sin(t)), h1d)
        d = json.loads(v.to_json())
        assert d["branch"] == "thm-3.15-sign-change"
        assert d["witness"]["detail"]["constructor"] == "sign_change_witness"
        assert d["evidence"]["sign_report"]["changes_sign"] is True

    def test_fraction_evidence_uses_decimal_strings(self, h1d):
        v = classify_samples(TorusFunction.from_callable(np.sin), h1d)
        d = json.loads(v.to_json())
        assert d["evidence"]["reduction"]["a0_exact"] == {"num": "0", "den": "1"}

import json
import math
import os
import re
import sys
import threading
import time
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypotorus import jsonio
from hypotorus.diophantine import classify_rational, construct_liouville
from hypotorus.modes import apply_mode, index_runs, operator_residuals, row_chunks
from hypotorus.spectrum import build_eigensequence
from hypotorus.torusfn import TorusFunction, grid
import hypotorus.witness as witness_mod
from hypotorus.witness import (
    _best_window,
    _resonant_modes,
    NoCertificate,
    PartitionNotFound,
    PatternNotFound,
    TOL_RESIDUAL,
    WitnessBudgetMiss,
    WitnessBundle,
    WitnessCheckFailed,
    constant_witness,
    gevrey_bump,
    L0_reduction_witness,
    plateau_witness,
    sign_change_witness,
)

# ---------------------------------------------------------------------------
# frozen oracle values (derived by hand from the closed formulas, not from
# this code)
#
# * the order-2 ramp is r(x) = e^{-1/x}, so the step s(x) = r(x)/(r(x)+r(1-x))
#   takes the exact values s(1/2) = 1/2 and s(1/4) = 1/(1 + e^{8/3})
#   (divide through by e^{-4}); placing the transition on [pi/2, pi] puts
#   those abscissae on the 1024-grid exactly.
# * alpha = 1/3 on the odd integers 2j+1: (2j+1)/3 is an integer iff
#   j = 3k+1, so the resonant subsequence is j = 1, 4, 7, 10 with
#   tau = 1, 3, 5, 7.
# * for c = i sin t the primitive of Im c is 1 - cos t; anchored at its
#   maximum (t = pi) the excursion reaches depth 2 on both sides, so the
#   deepest two-sided well has depth 2 and margin c* = 1.
# ---------------------------------------------------------------------------
S_HALF = 0.5
S_QUARTER = 1.0 / (1.0 + math.exp(8.0 / 3.0))
RESONANT_THIRD_JS = [1, 4, 7, 10]
RESONANT_THIRD_TAUS = [1, 3, 5, 7]
SIN_DEPTH = 2.0
SIN_C_STAR = 1.0


def c_sin(n: int = 1024, a0: float = 0.0) -> TorusFunction:
    t = grid(n)
    return TorusFunction(a0 + 1j * np.sin(t))


def plateau_coefficient(n: int = 1024, amp: float = 4.0):
    """Im c made of two exact bump flanks: + on (0.5, 1.5), 0 on [1.5, 3.5],
    - on (3.5, 4.5).  Grid-exact zeros come from the bump construction."""
    up = gevrey_bump(2.0, (0.5, 1.5), (0.95, 1.05), n).samples
    dn = gevrey_bump(2.0, (3.5, 4.5), (3.95, 4.05), n).samples
    b = amp * (up - dn)
    return TorusFunction(1j * np.asarray(b.samples)), (1.5, 3.5)


# --------------------------------------------------------------------------- #
# gevrey bumps
# --------------------------------------------------------------------------- #

def test_bump_point_values_from_documented_example():
    g = gevrey_bump(2.0, (1.0, 5.0), (2.0, 4.0), 2048)
    v = np.real(np.asarray(g.samples.samples))
    t = np.asarray(g.samples.grid)
    assert v[np.argmin(np.abs(t - 3.0))] == 1.0
    assert v[np.argmin(np.abs(t - 0.5))] == 0.0


def test_bump_exact_grid_trace():
    g = gevrey_bump(2.0, (1.0, 5.0), (2.0, 4.0), 1024)
    v = np.real(np.asarray(g.samples.samples))
    t = np.asarray(g.samples.grid)
    outside = (t <= 1.0) | (t >= 5.0)
    plateau = (t >= 2.0) & (t <= 4.0)
    assert np.all(v[outside] == 0.0)
    assert np.all(v[plateau] == 1.0)
    assert np.all((v >= 0.0) & (v <= 1.0))


def test_bump_transition_midpoint_is_exactly_half():
    # transition on [pi/2, pi]: indices 3N/8 and 5N/16 hit x = 1/2 and 1/4
    n = 1024
    g = gevrey_bump(2.0, (math.pi / 2, 7 * math.pi / 4), (math.pi, 1.5 * math.pi), n)
    v = np.real(np.asarray(g.samples.samples))
    assert abs(v[3 * n // 8] - S_HALF) < 1e-14
    assert abs(v[5 * n // 16] - S_QUARTER) < 1e-13


def test_bump_complement_identity_on_shared_transition():
    # two steps crossing the same band sum to 1: the seam cancellation the
    # plateau witness relies on
    n = 1024
    g0 = gevrey_bump(2.0, (math.pi / 2, math.pi), (0.6 * math.pi, 0.7 * math.pi), n)
    g1 = gevrey_bump(2.0, (0.7 * math.pi, 1.5 * math.pi), (math.pi, 1.2 * math.pi), n)
    t = np.asarray(g0.samples.grid)
    band = (t >= 0.7 * math.pi) & (t <= math.pi)
    s = np.real(np.asarray(g0.samples.samples)) + np.real(np.asarray(g1.samples.samples))
    assert np.max(np.abs(s[band] - 1.0)) < 1e-12


def test_bump_seminorm_growth_is_gevrey_2():
    # sup|d^k g| <= C^{k+1} (k!)^2 for k <= 8 with a single finite C
    g = gevrey_bump(2.0, (1.0, 5.0), (2.0, 4.0), 4096)
    f = g.samples
    cs = []
    for k in range(1, 9):
        f = f.derivative()
        cs.append((f.sup_norm() / math.factorial(k) ** 2) ** (1.0 / (k + 1)))
    assert all(np.isfinite(cs))
    assert max(cs) < 16.0


def test_bump_rejects_bad_geometry():
    with pytest.raises(ValueError):
        gevrey_bump(1.0, (1.0, 5.0), (2.0, 4.0), 256)          # sigma <= 1
    with pytest.raises(ValueError):
        gevrey_bump(2.0, (1.0, 5.0), (0.5, 4.0), 256)          # plateau escapes
    with pytest.raises(ValueError):
        gevrey_bump(2.0, (-1.0, 5.0), (2.0, 4.0), 256)         # support escapes
    with pytest.raises(ValueError):
        gevrey_bump(2.0, (4.0, 2.0), (2.5, 3.0), 256)          # reversed


@given(
    sigma=st.floats(min_value=1.2, max_value=4.0),
    edges=st.lists(st.floats(min_value=0.3, max_value=6.0), min_size=4, max_size=4,
                   unique=True),
)
@settings(max_examples=40, deadline=None)
def test_bump_invariants_hold_for_random_geometry(sigma, edges):
    a, c, d, b = sorted(edges)
    if c - a < 0.05 or b - d < 0.05 or d - c < 0.05:
        return
    g = gevrey_bump(sigma, (a, b), (c, d), 512)
    v = np.real(np.asarray(g.samples.samples))
    t = np.asarray(g.samples.grid)
    assert np.all((v >= 0.0) & (v <= 1.0))
    assert np.all(v[(t <= a) | (t >= b)] == 0.0)
    assert np.all(v[(t >= c) & (t <= d)] == 1.0)


# --------------------------------------------------------------------------- #
# constant coefficient
# --------------------------------------------------------------------------- #

def test_constant_integer_resonance_kills_forcing():
    eigs = build_eigensequence("harmonic1d", 12)
    b = constant_witness(1, eigs, L=5)
    assert b.kind == "constant"
    assert b.meta["route"] == "integer-resonance"
    assert b.decay.f_zero
    assert b.floor_u == 1.0
    assert [lv.sup_f for lv in b.levels] == [0.0] * 5
    assert b.meta["tau"] == [1, 3, 5, 7, 9]
    rep = b.verify()
    assert rep["ok"]
    assert rep["max_residual"] < 1e-9


def test_constant_integer_solution_is_the_conjugate_harmonic():
    eigs = build_eigensequence("harmonic1d", 6)
    b = constant_witness(2, eigs, L=3, N=256)
    for lv in b.levels:
        expect = TorusFunction.harmonic(-2 * (2 * lv.j + 1), 256)
        assert np.allclose(b.u_rows(lv.row), np.asarray(expect.samples), atol=1e-12)


def test_constant_rational_resonant_subsequence():
    eigs = build_eigensequence("harmonic1d", 12)
    b = constant_witness(Fraction(1, 3), eigs, L=4)
    assert b.meta["route"] == "rational-resonance"
    assert [lv.j for lv in b.levels] == RESONANT_THIRD_JS
    assert b.meta["tau"] == RESONANT_THIRD_TAUS
    assert b.decay.f_zero
    assert b.verify()["ok"]


def test_constant_resonance_deep_in_the_nd_spectrum():
    # lambda = 3 + 2b first hits 2001 in block b = 999, which starts at the
    # flat index C(1001, 3) ~ 1.67e8: far beyond any scan of mode indices
    eigs = build_eigensequence("harmonic_nd 3", 16)
    b = constant_witness(Fraction(1, 2001), eigs)
    start = math.comb(1001, 3)
    assert [lv.j for lv in b.levels] == [start, start + 1, start + 2, start + 3]
    for lv in b.levels:
        assert lv.lam_exact == 2001 and (Fraction(1, 2001) * lv.lam_exact).denominator == 1
    assert b.meta["tau"] == [1, 1, 1, 1]
    assert b.verify()["ok"]


@pytest.mark.parametrize("kind, J", [("harmonic1d", 256), ("harmonic1d_power 2", 256),
                                     ("harmonic1d_power 3", 256), ("harmonic_nd 2", 2048),
                                     ("harmonic_nd 3", 8192)])
def test_resonant_modes_are_the_first_hits_of_a_mode_scan(kind, J):
    # reference: the scan over mode indices that constant_witness used to run
    eigs = build_eigensequence(kind, J)
    for q in range(2, 24):
        for p in (1, -1, 5, q + 2):
            rv = classify_rational(p, q, eigs)
            if not rv.resonant:
                continue
            scan = [j for j, lam in enumerate(eigs.exact) if (p * lam) % q == 0][:6]
            assert _resonant_modes(rv, eigs.n, len(scan)) == scan, (kind, p, q)


def test_constant_resonance_on_a_table_is_read_from_its_window():
    eigs = build_eigensequence("table", 16, values=list(range(1, 17)))
    b = constant_witness(Fraction(1, 5), eigs, L=3)
    assert [lv.j for lv in b.levels] == [4, 9, 14]
    with pytest.raises(NoCertificate, match="stored window"):
        constant_witness(Fraction(1, 5), eigs, L=4)


def test_constant_non_resonant_rational_refused():
    # (2j+1)/2 is never an integer
    eigs = build_eigensequence("harmonic1d", 12)
    with pytest.raises(NoCertificate):
        constant_witness(Fraction(1, 2), eigs)


def test_constant_float_refused():
    eigs = build_eigensequence("harmonic1d", 12)
    with pytest.raises(NoCertificate):
        constant_witness(0.5, eigs)
    # an exact-integer float converts losslessly and is accepted
    assert constant_witness(1.0, eigs, L=3).decay.f_zero


def test_constant_liouville_certificate_transfers_gap_decay():
    eigs = build_eigensequence("harmonic1d", 40)
    cert = construct_liouville(eigs, L=3)
    b = constant_witness(cert, build_eigensequence("harmonic1d", 12))
    assert b.meta["route"] == "liouville-certificate"
    assert [lv.j for lv in b.levels] == [lev.j for lev in cert.levels]
    for lv in b.levels:
        assert lv.sup_u == 1.0
        assert lv.sup_f <= math.exp(-lv.j)        # gaps were built <= e^{-(j+1)}
    assert b.decay.eps_f > 0.0
    assert b.decay.r2 > 0.999
    assert b.exponent == 1.0                      # 1/(2 n mu) with n=1, mu=1/2
    assert b.verify()["ok"]


@pytest.mark.parametrize("built_on, used_on", [("harmonic1d_power 1", "harmonic1d_power 3"),
                                               ("harmonic_nd 1", "harmonic_nd 2")])
def test_certificate_refused_on_a_spectrum_of_another_progression(built_on, used_on):
    # the levels claim lambda = 3, 19, 65547 (1 + 2j), none of them an
    # eigenvalue of used_on, whose kind starts with the same word
    cert = construct_liouville(build_eigensequence(built_on, 64), 3, j_cap=None)
    eigs = build_eigensequence(used_on, 64)
    c = TorusFunction(float(cert.kappa) + 0.3 * np.cos(grid(512)) + 0j)
    with pytest.raises(NoCertificate, match="built on"):
        constant_witness(cert, eigs, L=3)
    with pytest.raises(NoCertificate, match="built on"):
        L0_reduction_witness(c, cert, eigs, N=512)


def test_certificate_accepted_on_every_spectrum_of_its_progression():
    cert = construct_liouville(build_eigensequence("harmonic1d_power 1", 64), 3, j_cap=None)
    for kind in ("harmonic1d", "harmonic_nd 1", "harmonic1d_power 1"):
        assert constant_witness(cert, build_eigensequence(kind, 64), L=3).verify()["ok"]


def test_constant_out_of_band_levels_stay_symbolic():
    eigs = build_eigensequence("harmonic1d", 6)
    b = constant_witness(121, eigs, L=3, N=256)
    sampled = [lv.sampled for lv in b.levels]
    assert sampled[0] and not sampled[-1]         # tau = 363 needs > 256 points
    for lv in b.levels:
        if not lv.sampled:
            assert lv.residual is None
            assert lv.note
    assert b.decay.f_zero
    assert b.verify()["ok"]


@given(alpha=st.integers(min_value=-15, max_value=15))
@settings(max_examples=25, deadline=None)
def test_constant_every_integer_resonates(alpha):
    eigs = build_eigensequence("harmonic1d", 8)
    b = constant_witness(alpha, eigs, L=3)
    assert b.decay.f_zero
    assert b.floor_u == 1.0
    assert b.verify()["ok"]


# --------------------------------------------------------------------------- #
# sign change
# --------------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def sin_witness():
    eigs = build_eigensequence("harmonic1d", 64)
    return sign_change_witness(c_sin(), eigs, N=1024)


def test_sign_change_finds_the_two_sided_well(sin_witness):
    assert abs(sin_witness.meta["depth"] - SIN_DEPTH) < 5e-4
    assert abs(sin_witness.meta["c_star"] - SIN_C_STAR) < 3e-4
    # anchor sits where the primitive of sin peaks
    assert abs(sin_witness.meta["t_star"] - math.pi) < 0.02


def test_sign_change_mode_identities(sin_witness):
    assert len(sin_witness.levels) == 64
    for lv in sin_witness.levels:
        assert lv.residual < 1e-7
        assert abs(lv.sup_u - 1.0) < 1e-12
        u = TorusFunction(sin_witness.u_rows(lv.row))
        assert abs(abs(u.eval_at(sin_witness.meta["t_star"])) - 1.0) < 1e-6


def test_construction_computes_each_residual_once(monkeypatch):
    import hypotorus.witness as witness_mod

    calls = []

    def counting(lam, c, u, f, coeffs=None, cols=slice(None)):
        calls.append(len(lam))
        return operator_residuals(lam, c, u, f, coeffs, cols)

    monkeypatch.setattr(witness_mod, "operator_residuals", counting)
    eigs = build_eigensequence("harmonic1d", 16)
    b = sign_change_witness(c_sin(256), eigs, N=256)
    assert calls == [16]                      # one batch of every sampled level
    rep = b.verify()                          # the check again, on demand
    assert calls == [16, 16]
    assert rep["ok"] and rep["n_sampled"] == 16
    assert rep["max_residual"] == max(lv.residual for lv in b.levels)


def _every_kind():
    eigs = build_eigensequence("harmonic1d", 16)
    c, iv = plateau_coefficient()
    base = build_eigensequence("harmonic1d", 40)
    cert = construct_liouville(base, L=3)
    c_l0 = TorusFunction(float(cert.kappa) + 0.3 * np.cos(grid(512)) + 0j)
    return {
        "constant": lambda: constant_witness(Fraction(1, 3), eigs, L=4, N=64),
        "certificate": lambda: constant_witness(cert, eigs),
        "sign-change": lambda: sign_change_witness(c_sin(a0=0.5), eigs, N=1024),
        "plateau": lambda: plateau_witness(c, iv, eigs, N=1024),
        "L0": lambda: L0_reduction_witness(c_l0, cert, base, N=512),
    }


@pytest.mark.parametrize("kind", ["constant", "certificate", "sign-change", "plateau", "L0"])
def test_batched_residuals_equal_the_per_level_operator(kind):
    # oracle: apply_mode on one level at a time; pure modes keep their exact
    # one-hot spectrum through TorusFunction.harmonic
    b = _every_kind()[kind]()
    sampled = [lv for lv in b.levels if lv.sampled]
    assert sampled and [lv.row for lv in sampled] == list(range(len(sampled)))
    u_all = b.u_rows()
    assert u_all.shape == b.f_rows().shape == (len(sampled), b.c.n)
    assert not b.f_cols.flags.writeable
    for lv in sampled:
        u = (TorusFunction.harmonic(-lv.freq, b.c.n) if b.kind == "constant"
             else TorusFunction(b.u_rows(lv.row)))
        assert u.samples.tobytes() == b.u_rows(lv.row).tobytes() == u_all[lv.row].tobytes()
        ref = (apply_mode(lv.lam, b.c, u) - TorusFunction(b.f_rows(lv.row))).sup_norm()
        assert lv.residual == ref
    u_all[...] = 0.0                          # the accessor hands out copies
    assert b.u_rows().tobytes() != u_all.tobytes()
    assert b.verify()["max_residual"] == max(lv.residual for lv in sampled)


@pytest.mark.parametrize("kind", ["constant", "certificate", "sign-change", "plateau", "L0"])
def test_stored_report_equals_a_fresh_verify(kind, monkeypatch):
    # the CLI writes the report that construction made; a fresh verify() of
    # the same bundle must give the same dict and the same artifact text
    b = _every_kind()[kind]()
    fresh = b.verify()
    assert b.report == fresh
    assert jsonio.dumps(b.report) == jsonio.dumps(fresh)
    assert b.report["ok"] and b.report["n_sampled"] == sum(lv.sampled for lv in b.levels)
    assert set(b.report["checks"]) == {"residuals_ok", "floor_positive", "floor_holds",
                                       "decay_ok"}
    # both read the kind's one tolerance: at 0 every residual misses it
    monkeypatch.setitem(witness_mod.TOL_BY_KIND, b.kind, 0.0)
    assert not b.verify()["checks"]["residuals_ok"]
    with pytest.raises(WitnessBudgetMiss) as miss:
        _every_kind()[kind]()
    assert miss.value.tol == 0.0


@pytest.mark.parametrize("kind", ["constant", "certificate", "sign-change", "plateau", "L0"])
def test_every_route_returns_a_frozen_bundle_that_passed_its_report(kind):
    # a bundle exists only once every check of its report passed; nothing
    # patches it afterwards
    b = _every_kind()[kind]()
    assert isinstance(b, WitnessBundle) and b.report["ok"] is True
    for name, value in (("report", {"ok": False}), ("decay", None), ("floor_u", 0.0)):
        with pytest.raises(FrozenInstanceError):
            setattr(b, name, value)
    assert b.report["ok"] is True


class _EditedRows(witness_mod._Rows):
    """The rows of ``rows`` with the forcing kept on the columns ``keep`` of
    its ``f_cols`` only, and ``edit(s, f)`` applied to a copy of each chunk."""

    def __init__(self, rows, keep=slice(None), edit=None):
        self.rows, self.keep, self.edit = rows, keep, edit
        self.lams, self.n, self.f_cols = rows.lams, rows.n, rows.f_cols[keep]

    def fill(self, s):
        u, f, coeffs = self.rows.fill(s)
        f = f[:, self.keep].copy()
        if self.edit is not None:
            self.edit(s, f)
        return u, f, coeffs


def test_verify_recomputes_the_residuals_from_the_band_store(sin_witness):
    b = sin_witness
    assert b.verify()["checks"]["residuals_ok"]
    band = b.f_rows()[:, b.f_cols]
    row, k = np.unravel_index(np.argmax(np.abs(band)), band.shape)
    # drop the band column where |f| peaks: f reads as 0 there
    keep = np.arange(len(b.f_cols)) != k
    assert not replace(b, rows=_EditedRows(b.rows, keep)).verify()["checks"]["residuals_ok"]

    # move one band value by 1e-6
    def move(s, f):
        if s.start <= row < s.stop:
            f[row - s.start, k] += 1e-6

    moved = replace(b, rows=_EditedRows(b.rows, edit=move))
    # the stored report describes the rows as built; verify() sees the edit
    assert moved.report["ok"]
    rep = moved.verify()
    assert not rep["ok"] and not rep["checks"]["residuals_ok"]
    assert b.verify()["checks"]["residuals_ok"]


def test_sign_change_stores_its_forcing_on_the_bands_only():
    eigs = build_eigensequence("harmonic1d", 128)
    c = TorusFunction(0.5 + 1j * np.sin(3.0 * grid(2048)))
    tracemalloc.start()
    try:
        b = sign_change_witness(c, eigs, N=2048)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    f = b.f_rows()
    assert f.shape == (128, 2048)
    assert np.all(np.diff(b.f_cols) > 0)
    assert len(b.f_cols) <= 0.3 * 2048
    off = np.ascontiguousarray(np.delete(f, b.f_cols, axis=1)).view(np.float64)
    assert not off.any() and not np.signbit(off).any()            # +0.0 off the bands
    # a recipe, one chunk of 32 rows and the meta samples; the dense
    # (128, 2048) u alone would be 4 MiB
    assert held < f.nbytes


def test_sign_change_forcing_decays_at_the_margin_rate(sin_witness):
    d = sin_witness.decay
    assert d.r2_lambda > 0.95
    assert d.rate_lambda >= 0.95 * sin_witness.meta["c_star"]
    assert d.eps_f > 0.0
    sup_f = [lv.sup_f for lv in sin_witness.levels]
    assert sup_f[-1] < 1e-40 * sup_f[0]           # 64 odd levels at rate ~1


def test_sign_change_partition_really_clears_the_margin(sin_witness):
    # -B > c* on both transition bands, straight from the stored primitive
    meta = sin_witness.meta
    B = np.real(np.asarray(meta["B_window"].samples))
    t = np.asarray(meta["B_window"].grid)
    for lo, hi in [(meta["partitions"]["alpha"], meta["partitions"]["gamma"]),
                   (meta["partitions"]["delta"], meta["partitions"]["beta"])]:
        band = (t > lo + 1e-9) & (t < hi - 1e-9)
        assert band.any()
        assert np.all(-B[band] >= meta["c_star"] - 1e-9)


def test_sign_change_u_and_f_vanish_off_the_bump(sin_witness):
    g = sin_witness.meta["bumps"]["g_star"]
    gv = np.real(np.asarray(g.samples.samples))
    lv = sin_witness.levels[3]
    # the construction anchors window coordinates at meta["t0"]
    k0 = int(round(sin_witness.meta["t0"] / (2 * math.pi / 1024)))
    uv = np.roll(sin_witness.u_rows(lv.row), -k0)
    fv = np.roll(sin_witness.f_rows(lv.row), -k0)
    off = gv == 0.0
    assert np.all(uv[off] == 0.0)
    assert np.all(fv[off] == 0.0)
    plateau_mask = gv == 1.0
    assert np.all(fv[plateau_mask] == 0.0)        # forcing lives on transitions


def test_sign_change_with_real_part_keeps_the_contract():
    eigs = build_eigensequence("harmonic1d", 32)
    b = sign_change_witness(c_sin(a0=0.5), eigs, N=1024)
    assert b.verify()["ok"]
    assert all(lv.residual < 1e-7 for lv in b.levels)
    assert abs(b.floor_u - 1.0) < 1e-12
    assert b.decay.rate_lambda >= 0.95 * b.meta["c_star"]


def test_sign_change_requires_an_actual_sign_change():
    eigs = build_eigensequence("harmonic1d", 16)
    c = TorusFunction.from_callable(lambda t: 1j * (1.0 - np.cos(t)), 1024)
    with pytest.raises(PartitionNotFound):
        sign_change_witness(c, eigs, N=1024)
    with pytest.raises(PartitionNotFound):
        sign_change_witness(TorusFunction.constant(0.7, 1024), eigs, N=1024)


def test_sign_change_mixed_spectrum_restricts_to_positive_levels():
    vals = [(1 if j % 2 == 0 else -1) * (2 * j + 1) for j in range(16)]
    eigs = build_eigensequence("table", 16, values=vals, m=2, n=1)
    b = sign_change_witness(c_sin(), eigs, N=1024)
    assert [lv.j for lv in b.levels] == list(range(0, 16, 2))
    assert "positive-lambda" in b.meta["subsequence_note"]
    assert b.verify()["ok"]


def test_sign_change_negative_spectrum_mirrors_the_window():
    vals = [-(2 * j + 1) for j in range(12)]
    eigs = build_eigensequence("table", 12, values=vals, m=2, n=1)
    b = sign_change_witness(c_sin(), eigs, N=1024)
    assert b.meta["side"] == "min"
    assert b.verify()["ok"]
    assert b.decay.rate_lambda >= 0.95 * b.meta["c_star"]


def test_sign_change_grid_too_small_for_spectrum():
    eigs = build_eigensequence("harmonic1d", 64)
    with pytest.raises(ValueError, match="bandwidth"):
        sign_change_witness(c_sin(128), eigs, N=128)


def test_sign_change_budget_miss_is_typed():
    # sin 4t: the bump's transition bands narrow with k, and at N = 1024 the
    # top levels miss the residual budget
    c = TorusFunction(0.5 + 1j * np.sin(4.0 * grid(1024)))
    with pytest.raises(WitnessBudgetMiss) as err:
        sign_change_witness(c, build_eigensequence("harmonic1d", 64), N=1024)
    miss = err.value
    assert isinstance(miss, RuntimeError)
    assert (miss.kind, miss.tol, miss.N) == ("sign-change", TOL_RESIDUAL, 1024)
    assert TOL_RESIDUAL < miss.max_residual < 1e-5
    assert f"{miss.max_residual:.3e}" in str(miss)


@given(amp=st.floats(min_value=0.5, max_value=2.0))
@settings(max_examples=8, deadline=None)
def test_sign_change_margin_scales_with_amplitude(amp):
    eigs = build_eigensequence("harmonic1d", 8)
    t = grid(512)
    c = TorusFunction(1j * amp * np.sin(t))
    b = sign_change_witness(c, eigs, N=512)
    assert abs(b.meta["depth"] - 2.0 * amp) < 1e-2 * amp
    assert b.verify()["ok"]


# --------------------------------------------------------------------------- #
# window search and bump levels against their direct formulas
# --------------------------------------------------------------------------- #

def _scan_windows(phi_cover, N):
    """Oracle for _best_window: the exhaustive scan, one window at a time."""
    best = None
    for k0 in range(N):
        w = phi_cover[k0:k0 + N]
        i = int(np.argmax(w))
        if i < 2 or i > N - 3:
            continue
        B = w - w[i]
        depth = min(float(np.max(-B[:i])), float(np.max(-B[i + 1:])))
        if depth <= 1e-12:
            continue
        if best is None or depth > best["depth"]:
            best = {"k0": k0, "i": i, "depth": depth, "B": B}
    return best


def _cover(kind, N, rng):
    """A 2N-point cover input of the given family."""
    if kind == "walk":
        return np.cumsum(rng.standard_normal(2 * N))
    if kind == "trig":       # a sampled primitive with drift, as the witness builds it
        t = 2.0 * np.pi * np.arange(N) / N
        P = sum(rng.standard_normal() * np.sin(k * t + rng.uniform(0, 2 * np.pi))
                for k in range(1, 4))
        return witness_mod._window_primitive(rng.uniform(-0.5, 0.5), P - P[0], 0, 2 * N)
    if kind == "ties":       # coarse levels: many tied maxima and minima
        return np.round(np.cumsum(rng.integers(-2, 3, 2 * N)) / 4.0, 1)
    return np.cumsum(rng.random(2 * N))          # monotone: every argmax at a window end


@given(N=st.integers(8, 256), side=st.sampled_from([1, -1]),
       kind=st.sampled_from(["walk", "trig", "ties", "monotone"]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_best_window_equals_the_exhaustive_scan(N, side, kind, seed):
    phi = side * _cover(kind, N, np.random.default_rng(seed))
    got, want = _best_window(phi, N), _scan_windows(phi, N)
    if want is None:
        assert got is None
        return
    assert (got["k0"], got["i"], got["depth"]) == (want["k0"], want["i"], want["depth"])
    assert got["B"].tobytes() == want["B"].tobytes()


def test_best_window_keeps_the_first_of_tied_windows():
    # period 16 repeated: every shift of the same well ties, the first wins
    N = 16
    period = np.array([0, -1, -3, -1, 0, 2, 5, 2, 0, -2, -4, -2, 0, 1, 1, 0], float)
    phi = np.tile(period, 2)
    got, want = _best_window(phi, N), _scan_windows(phi, N)
    assert (got["k0"], got["i"], got["depth"]) == (want["k0"], want["i"], want["depth"])
    assert (got["k0"], got["depth"]) == (0, 8.0)
    assert _best_window(np.arange(2.0 * N), N) is None


@given(bits=st.lists(st.booleans(), min_size=1, max_size=40), pick=st.integers(0, 39))
@settings(max_examples=200, deadline=None)
def test_component_and_run_slices_match_a_scan(bits, pick):
    mask = np.array(bits)
    trues = np.flatnonzero(mask)
    assume(trues.size)
    center = int(trues[pick % trues.size])
    lo = hi = center                      # reference: walk out from the centre
    while lo > 0 and bits[lo - 1]:
        lo -= 1
    while hi + 1 < len(bits) and bits[hi + 1]:
        hi += 1
    assert witness_mod._component(mask, center) == (lo, hi)
    if np.all(np.diff(trues) == 1):
        assert witness_mod._run_or_index(trues) == slice(int(trues[0]), int(trues[-1]) + 1)
    else:
        assert witness_mod._run_or_index(trues) is trues


def _full_grid_bump_levels(eigs, js, bumps, k0):
    """Oracle for _bump_levels' u and f: exp(lambda E) on the whole grid for u
    and again on the band columns for f."""
    gs = [np.roll(np.real(g.samples.samples), k0) for g, _, _ in bumps]
    N = len(gs[0])
    flat = np.logical_and.reduce([(g == 0.0) | (g == 1.0) for g in gs])
    lams = np.asarray(eigs.lambdas, dtype=np.float64)[js]
    u = np.empty((len(js), N), dtype=np.complex128)
    f = np.zeros_like(u)
    for k, (g, (_, E, bands)) in enumerate(zip(gs, bumps)):
        idx = (np.concatenate([np.arange(lo, hi + 1) for lo, hi in bands]) + k0) % N
        idx = idx[~flat[idx]]
        dg = np.real(TorusFunction(g).derivative().samples)
        expo = lams[:, None] * np.roll(E, k0)
        term = g * np.exp(np.where(g > 0.0, expo, 0.0))
        u = u + term if k else term
        with np.errstate(under="ignore"):
            f[:, idx] = dg[idx] * np.exp(expo[:, idx])
    return u, f


def _oracle_bound(eigs, js, bumps, k0):
    """Per-entry bounds on |u - oracle| and |f - oracle| for levels built by
    the anchor x table rule: 8 eps (1 + |lambda E|) times the modulus of each
    bump's term, summed over the bumps, plus 1e-300 for results that
    underflow into the subnormals."""
    gs = [np.roll(np.real(g.samples.samples), k0) for g, _, _ in bumps]
    lams = np.asarray(eigs.lambdas, dtype=np.float64)[js]
    bu = bf = 1e-300
    for g, (_, E, _) in zip(gs, bumps):
        dg = np.real(TorusFunction(g).derivative().samples)
        expo = lams[:, None] * np.roll(E, k0)
        with np.errstate(under="ignore"):
            w = 8.0 * np.finfo(float).eps * (1.0 + np.abs(expo)) * np.exp(expo.real)
        bu = bu + g * w
        bf = bf + np.abs(dg) * w
    return bu, bf


def _levels_input(two: bool, ap: bool = True):
    """(eigs, js, bumps, k0) for _bump_levels on a 256-grid: one bump, or two
    bumps summed across a shared transition band as the plateau witness
    does.  The exponents reach -2000 at the top level, so exp underflows to
    signed zeros on part of every support.  The levels lambda = 1, 7, ...,
    127 form an arithmetic progression (the anchor x table rule); with
    ``ap`` False the second level is moved off it (lambda = 1, 5, 13, ...),
    so every exp is taken directly."""
    N, k0 = 256, 37
    tau = 2.0 * np.pi * np.arange(N) / N
    E = -15.0 * (1.0 - np.cos(tau)) - 1j * np.sin(3.0 * tau)
    eigs = build_eigensequence("harmonic1d", 64)
    js = np.arange(0, 64, 3)
    if not ap:
        js[1] = 2
    if not two:
        g = gevrey_bump(2.0, (tau[20], tau[230]), (tau[60], tau[200]), N)
        return eigs, js, [(g, E, [(20, 60), (200, 230)])], k0
    g0 = gevrey_bump(2.0, (tau[20], tau[140]), (tau[60], tau[120]), N)
    g1 = gevrey_bump(2.0, (tau[120], tau[230]), (tau[140], tau[200]), N)
    return eigs, js, [(g0, E, [(20, 60)]), (g1, 0.5 * E, [(200, 230)])], k0


def _streamed(eigs, js, bumps, k0):
    """u and f of _bump_levels on the whole grid, and its levels' sup|u| and
    sup|f| as the construction pass takes them, chunk by chunk."""
    _, rows = witness_mod._bump_levels(eigs, js, bumps, k0)
    _, sup_u, sup_f = rows.scan(TorusFunction.constant(0.0, rows.n))
    return (*rows.whole(), sup_u.tolist(), sup_f.tolist())


@pytest.mark.parametrize("two", [False, True], ids=["one-bump", "two-bumps"])
def test_bump_levels_match_the_full_grid_formula_bit_for_bit(two):
    # off an arithmetic progression every exp is taken directly: bit for bit
    args = _levels_input(two, ap=False)
    u, f, sup_u, sup_f = _streamed(*args)
    u_ref, f_ref = _full_grid_bump_levels(*args)
    assert np.signbit(u_ref.view(np.float64)).any()      # the signed zeros are there
    assert u.tobytes() == u_ref.tobytes()
    assert f.tobytes() == f_ref.tobytes()
    assert sup_u == np.abs(u_ref).max(axis=1).tolist()
    assert sup_f == np.abs(f_ref).max(axis=1).tolist()


@pytest.mark.parametrize("two", [False, True], ids=["one-bump", "two-bumps"])
def test_bump_levels_on_an_arithmetic_spectrum_stay_within_the_product_bound(two):
    args = _levels_input(two)
    u, f, sup_u, sup_f = _streamed(*args)
    u_ref, f_ref = _full_grid_bump_levels(*args)
    bu, bf = _oracle_bound(*args)
    assert u.tobytes() != u_ref.tobytes()                 # the table rule ran
    assert np.all(np.abs(u - u_ref) <= bu)
    assert np.all(np.abs(f - f_ref) <= bf)
    assert np.allclose(sup_u, np.abs(u_ref).max(axis=1), rtol=1e-11)
    assert np.allclose(sup_f, np.abs(f_ref).max(axis=1), rtol=1e-11)


@pytest.mark.parametrize("kind", ["sign-change", "plateau"])
def test_witness_bump_levels_match_the_full_grid_formula(kind, monkeypatch):
    # harmonic1d is an arithmetic progression: the levels take the anchor x
    # table rule, within its bound of the full-grid formula
    seen = []

    def recording(*args):
        seen.append(args)
        return real(*args)

    real = witness_mod._bump_levels
    monkeypatch.setattr(witness_mod, "_bump_levels", recording)
    if kind == "sign-change":
        b = sign_change_witness(c_sin(a0=0.5), build_eigensequence("harmonic1d", 48), N=1024)
    else:
        c, iv = plateau_coefficient(amp=1.0)
        b = plateau_witness(c, iv, build_eigensequence("harmonic1d", 48), N=1024)
    (args,) = seen
    u, f = _full_grid_bump_levels(*args)
    bu, bf = _oracle_bound(*args)
    assert np.all(np.abs(b.u_rows() - u) <= bu)
    assert np.all(np.abs(b.f_rows() - f) <= bf)
    assert all(lv.residual < TOL_RESIDUAL for lv in b.levels)
    if kind == "sign-change":
        anchor = round(b.meta["t_star"] * b.c.n / (2.0 * math.pi)) % b.c.n
        assert np.all(np.abs(b.u_rows()[:, anchor]) == 1.0)


def _whole_store_bump_levels(eigs, js, bumps, k0):
    """The bump levels built whole, as before they were streamed: every
    level a row of one (S, N) u and of one (S, K) band forcing f, filled
    chunk by chunk, and the rows' sup norms.  The reference for the bytes
    of the streamed rows; returns u, f, f_cols, sup_u, sup_f."""
    gs = [np.roll(np.real(g.samples.samples), k0) for g, _, _ in bumps]
    N = len(gs[0])
    flat = np.logical_and.reduce([(g == 0.0) | (g == 1.0) for g in gs])
    idxs = [(np.concatenate([np.arange(lo, hi + 1) for lo, hi in bands]) + k0) % N
            for _, _, bands in bumps]
    idxs = [idx[~flat[idx]] for idx in idxs]
    f_cols = np.unique(np.concatenate(idxs))
    circ = []
    for g, (_, E, _), idx in zip(gs, bumps, idxs):
        supp = np.flatnonzero(g > 0.0)
        cols = np.union1d(supp, idx)
        dg = np.real(TorusFunction(g).derivative().samples)
        at_f, at_idx = np.searchsorted(f_cols, idx), np.searchsorted(cols, idx)
        band = [(slice(at_f[a], at_f[a] + b - a), dg[idx[a:b]],
                 slice(at_idx[a], at_idx[a] + b - a)) for a, b in index_runs(at_f, at_idx)]
        circ.append((g[supp], np.roll(E, k0)[cols], band,
                     *map(witness_mod._run_or_index, (supp, np.searchsorted(cols, supp)))))
    lams = np.asarray(eigs.lambdas, dtype=np.float64)[js]
    u = np.zeros((len(js), N), dtype=np.complex128)
    f = np.zeros((len(js), len(f_cols)), dtype=np.complex128)
    sup_u, sup_f = np.empty(len(js)), np.empty(len(js))
    tables = {}
    for s in row_chunks(*u.shape):
        lam = lams[s]
        d = lam[1] - lam[0] if lam.size > 1 else 0.0
        ap = d * lam[0] > 0.0 and np.array_equal(lam, lam[0] + d * np.arange(lam.size))
        for k, (g, E, band, supp, at_supp) in enumerate(circ):
            with np.errstate(under="ignore"):
                if ap:
                    if (k, d) not in tables:
                        tables[k, d] = np.exp((d * np.arange(s.stop - s.start))[:, None] * E)
                    e = np.exp(lam[0] * E) * tables[k, d][:lam.size]
                else:
                    e = np.exp(lam[:, None] * E)
            term = g * e[:, at_supp]
            if k:
                full = np.zeros_like(u[s])
                full[:, supp] = term
                u[s] = u[s] + full
            else:
                u[s, supp] = term
            for to, dg, at in band:
                f[s, to] = dg * e[:, at]
        sup_u[s] = np.abs(u[s]).max(axis=1)
        sup_f[s] = np.abs(f[s]).max(axis=1, initial=0.0)
    return u, f, f_cols, sup_u, sup_f


def _table_spectrum(J, shape):
    """A table spectrum of J levels: 'gaps' grows with uneven steps (no
    arithmetic progression), 'mixed' alternates sign (the sign-change
    witness keeps its positive subsequence, lambda = 1, 5, 9, ...)."""
    if shape == "gaps":
        return build_eigensequence("table", J, values=[2 * j + 1 + (j * j % 5) / 4 for j in range(J)],
                                   m=2, n=1)
    return build_eigensequence("table", J, values=[(-1) ** j * (2 * j + 1) for j in range(J)],
                               m=2, n=1)


@given(kind=st.sampled_from(["sign-change", "plateau"]),
       spectrum=st.sampled_from(["harmonic1d", "gaps", "mixed"]),
       extra=st.integers(1, 40), a0=st.sampled_from([0.0, 0.5]))
@settings(max_examples=24, deadline=None)
@example(kind="sign-change", spectrum="harmonic1d", extra=11, a0=0.5)
@example(kind="sign-change", spectrum="gaps", extra=38, a0=0.0)
@example(kind="sign-change", spectrum="mixed", extra=13, a0=0.5)
@example(kind="plateau", spectrum="harmonic1d", extra=9, a0=0.0)
@example(kind="plateau", spectrum="gaps", extra=22, a0=0.0)
@example(kind="sign-change", spectrum="harmonic1d", extra=-20, a0=0.0)
def test_streamed_rows_equal_the_whole_store_bit_for_bit(kind, spectrum, extra, a0):
    # sign-change at N = 2048 (chunks of 32 rows), plateau at N = 4096
    # (chunks of 16, two bumps), on arithmetic and other spectra, with
    # S = chunk + extra sampled levels: more than one chunk, the last
    # partial; the example with a negative extra fits S in one chunk
    if kind == "sign-change":
        N = 2048
        c = c_sin(N, a0=a0)
    else:
        assume(spectrum != "mixed")          # the plateau takes positive spectra
        N = 4096
        c, iv = plateau_coefficient(N, amp=1.0)
    chunk = (1 << 16) // N
    S = chunk + extra
    assume(S % chunk)
    eigs = (build_eigensequence("harmonic1d", S) if spectrum == "harmonic1d"
            else _table_spectrum(2 * S if spectrum == "mixed" else S, spectrum))
    real = witness_mod._bump_levels
    with mock.patch.object(witness_mod, "_bump_levels", side_effect=real) as spy:
        b = (sign_change_witness(c, eigs, N=N) if kind == "sign-change"
             else plateau_witness(c, iv, eigs, N=N))
    u, f, f_cols, sup_u, sup_f = _whole_store_bump_levels(*spy.call_args.args)
    lams = [lv.lam for lv in b.levels]
    assert len(lams) == S
    assert b.f_cols.tobytes() == f_cols.tobytes()
    assert b.u_rows().tobytes() == u.tobytes()
    whole_f = np.zeros_like(u)
    whole_f[:, f_cols] = f
    assert b.f_rows().tobytes() == whole_f.tobytes()
    assert [lv.sup_u for lv in b.levels] == sup_u.tolist()
    assert [lv.sup_f for lv in b.levels] == sup_f.tolist()
    res = operator_residuals(lams, b.c, u, f, cols=f_cols).tolist()
    assert [lv.residual for lv in b.levels] == res
    assert b.floor_u == min(sup_u.tolist())
    rep = b.verify()
    assert rep["ok"] and rep["max_residual"] == max(res)


def test_streamed_sign_change_witness_holds_under_10_mb():
    # the benchmark's witness, J = 512 at N = 8192: a dense u alone would
    # be 64 MiB and its band forcing 15.6 MiB
    c = TorusFunction(0.75 + 0.75j * np.sin(3.0 * grid(8192)))
    eigs = build_eigensequence("harmonic1d", 512)
    tracemalloc.start()
    try:
        b = sign_change_witness(c, eigs, N=8192)
        rep = b.verify()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep["ok"] and rep["n_sampled"] == 512
    assert peak < 10e6


class _Planted(Exception):
    """An error planted in one stage of the witness pass."""


def _four_chunk_witness():
    """A sign-change witness of 100 levels at N = 2048: row chunks of 32,
    32, 32 and 4 rows."""
    return sign_change_witness(c_sin(2048), build_eigensequence("harmonic1d", 100), N=2048)


def _doubling_rows(monkeypatch, rows):
    """Make every bump fill double u on the given global rows, so that
    |u(t*)| reads exactly 2.0 there."""
    real = witness_mod._BumpRows.fill

    def fill(self, s):
        u, f, coeffs = real(self, s)
        hit = [r - s.start for r in rows if s.start <= r < s.stop]
        u[hit] *= 2.0
        return u, f, coeffs

    monkeypatch.setattr(witness_mod._BumpRows, "fill", fill)


def _plant_in_residuals(monkeypatch, plant):
    """Call ``plant(row)`` before each operator_residuals call of the
    four-chunk witness, ``row`` the first row of the call's chunk (0, 32,
    64 or 96), whichever thread makes the call and in whatever order.
    Returns the rows, in call order."""
    first_row = {lv.lam: lv.row for lv in _four_chunk_witness().levels}
    rows = []

    def planted(lam, c, u, f, coeffs=None, cols=slice(None)):
        rows.append(first_row[float(lam[0])])
        plant(rows[-1])
        return operator_residuals(lam, c, u, f, coeffs, cols)

    monkeypatch.setattr(witness_mod, "operator_residuals", planted)
    return rows


def _fail_at(row):
    """A plant that makes the residuals of the chunk at ``row`` raise."""
    def plant(r):
        if r == row:
            raise _Planted(f"residuals of the chunk at row {row}")
    return plant


def test_the_two_thread_pass_equals_a_serial_one_under_frequent_thread_switches():
    # 100 levels at N = 8192 take 13 row chunks; with the interpreter
    # switching threads every microsecond, every residual and sup norm is
    # still the one a serial pass over the whole rows gives, also when two
    # verify() passes, four workers on one recipe, race to build its table
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        b = sign_change_witness(c_sin(8192), build_eigensequence("harmonic1d", 100), N=8192)
        b.rows._tables.clear()
        reps = [None, None]

        def verify(i):
            reps[i] = b.verify()

        passes = [threading.Thread(target=verify, args=(i,)) for i in range(2)]
        for t in passes:
            t.start()
        for t in passes:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(switch)
    u, f = b.u_rows(), b.f_rows()
    res = operator_residuals([lv.lam for lv in b.levels], b.c, u, f).tolist()
    assert [lv.residual for lv in b.levels] == res
    assert reps == [b.report] * 2 and b.report["max_residual"] == max(res)
    assert [lv.sup_u for lv in b.levels] == np.abs(u).max(axis=1).tolist()
    assert [lv.sup_f for lv in b.levels] == np.abs(f).max(axis=1).tolist()


def test_a_bump_table_does_not_depend_on_the_order_chunks_are_filled_in():
    # 100 levels at N = 8192: 12 chunks of 8 rows, then one of 4.  A fresh
    # recipe builds each exp(r delta E) table at full chunk height, whichever
    # chunk asks first: filled last chunk first, or first asked for the last
    # chunk by its clipped bounds, every chunk is the one an in-order fill gives
    rows = sign_change_witness(c_sin(8192), build_eigensequence("harmonic1d", 100), N=8192).rows
    chunks = list(row_chunks(len(rows), rows.n))
    assert [len(rows.lams[s]) for s in chunks] == [8] * 12 + [4]

    def filled(order):
        rows._tables.clear()
        return {s.start: [a.tobytes() for a in rows.fill(s)[:2]] for s in order}

    in_order = filled(chunks)
    assert filled(chunks[::-1]) == in_order
    assert filled([slice(96, 100), *chunks[:-1]]) == in_order


def test_a_pass_of_one_chunk_starts_no_thread(monkeypatch):
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(witness_mod.threading, "Thread", Counted)
    sign_change_witness(c_sin(8192), build_eigensequence("harmonic1d", 5), N=8192)
    constant_witness(Fraction(1, 3), build_eigensequence("harmonic1d", 16), L=4, N=64)
    assert started == []
    _four_chunk_witness()
    assert len(started) == 1


def test_a_probe_failure_names_the_first_bad_level_in_chunk_order(monkeypatch):
    # levels 40 (second chunk) and 70 (third chunk) fail the anchor check;
    # as in a serial pass, the first of them in chunk order is reported,
    # and no helper thread is left behind
    threads = threading.active_count()
    _doubling_rows(monkeypatch, [70, 40])
    with pytest.raises(WitnessCheckFailed) as failed:
        _four_chunk_witness()
    assert re.search(r"\| = 2\.0 != 1 at level 40$", str(failed.value))
    assert threading.active_count() == threads


def test_an_error_in_the_third_chunk_residuals_propagates(monkeypatch):
    threads = threading.active_count()
    built = _four_chunk_witness()
    rows = _plant_in_residuals(monkeypatch, _fail_at(64))
    with pytest.raises(_Planted, match="at row 64$"):
        _four_chunk_witness()
    # the chunks before it were claimed first, and finish on their own
    assert {0, 32, 64} <= set(rows)
    assert threading.active_count() == threads
    rows.clear()
    with pytest.raises(_Planted, match="at row 64$"):
        built.verify()
    assert {0, 32, 64} <= set(rows)
    assert threading.active_count() == threads


def test_a_residual_error_surfaces_before_a_later_probe_failure(monkeypatch):
    # serial order: the third chunk's residuals fail before the fourth
    # chunk is filled, so their error wins over the fourth chunk's probe,
    # whichever of the two fails first
    threads = threading.active_count()
    _plant_in_residuals(monkeypatch, _fail_at(64))
    _doubling_rows(monkeypatch, [97])
    with pytest.raises(_Planted, match="at row 64$"):
        _four_chunk_witness()
    assert threading.active_count() == threads


def test_the_lowest_failed_chunk_wins_when_a_later_one_fails_first(monkeypatch):
    # the third chunk's residuals wait until the fourth chunk's have
    # failed, so the fourth chunk's error is recorded first; the third
    # chunk's is still the one raised, as a serial pass would raise it
    threads = threading.active_count()
    fourth_failed, order = threading.Event(), []

    def plant(row):
        if row == 64:
            assert fourth_failed.wait(10)
            time.sleep(0.05)                # its worker records the failure
            order.append(row)
            raise _Planted("residuals of the third chunk")
        if row == 96:
            order.append(row)
            fourth_failed.set()
            raise _Planted("residuals of the fourth chunk")

    _plant_in_residuals(monkeypatch, plant)
    with pytest.raises(_Planted, match="third chunk"):
        _four_chunk_witness()
    assert order == [96, 64]
    assert threading.active_count() == threads


# --------------------------------------------------------------------------- #
# plateau
# --------------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def plateau_bundle():
    c, iv = plateau_coefficient()
    eigs = build_eigensequence("harmonic1d", 16)
    return plateau_witness(c, iv, eigs, N=1024)


def test_plateau_two_bump_witness_verifies(plateau_bundle):
    b = plateau_bundle
    assert b.kind == "plateau"
    assert b.verify()["ok"]
    assert all(lv.residual < 1e-7 for lv in b.levels)
    assert abs(b.floor_u - 1.0) < 1e-9


def test_plateau_margin_is_half_the_smaller_flank_mass(plateau_bundle):
    b = plateau_bundle
    # oracle: flank mass by direct quadrature of Im c over the left flank
    c, _ = plateau_coefficient()
    t = np.asarray(c.grid)
    bs = np.imag(np.asarray(c.samples))
    mass = float(np.trapezoid(bs[(t >= 0.4) & (t <= 1.6)],
                              t[(t >= 0.4) & (t <= 1.6)]))
    assert abs(b.meta["flank_mass"]["left"] - mass) < 2e-3 * mass
    # the margin snaps up to the first grid point clearing half the mass,
    # so it may exceed mass/2 by at most one grid step of b-mass
    grid_slack = 4.0 * (2.0 * math.pi / 1024)
    assert 0.5 * mass - 1e-9 <= b.meta["c_star"] <= 0.5 * mass + grid_slack
    assert b.decay.rate_lambda >= 0.95 * b.meta["c_star"]


def test_plateau_modulus_is_one_on_the_whole_plateau(plateau_bundle):
    b = plateau_bundle
    t0, t1 = b.meta["anchors"]["t0"], b.meta["anchors"]["t1"]
    for lv in (b.levels[0], b.levels[-1]):
        u = TorusFunction(b.u_rows(lv.row))
        assert abs(abs(u.eval_at(t0)) - 1.0) < 1e-6
        assert abs(abs(u.eval_at(t1)) - 1.0) < 1e-6
        tg = np.asarray(u.grid)
        inside = (tg >= t0 + 0.05) & (tg <= t1 - 0.05)
        assert np.max(np.abs(np.abs(np.asarray(u.samples)[inside]) - 1.0)) < 1e-9


def test_plateau_solution_vanishes_where_both_bumps_do(plateau_bundle):
    b = plateau_bundle
    g0 = np.real(np.asarray(b.meta["bumps"]["g0"].samples.samples))
    g1 = np.real(np.asarray(b.meta["bumps"]["g1"].samples.samples))
    k0 = int(round(b.meta["cut"] / (2 * math.pi / 1024)))
    for lv in (b.levels[0], b.levels[-1]):
        uw = np.roll(b.u_rows(lv.row), -k0)
        dead = (g0 == 0.0) & (g1 == 0.0)
        assert dead.any()
        assert np.all(uw[dead] == 0.0)
        # where only g1 lives, the g0 contribution is gone: |u| <= g1 up to
        # primitive-integration ringing (~1e-12) amplified by lambda
        only1 = (g0 == 0.0) & (g1 > 0.0)
        assert np.all(np.abs(uw[only1]) <= g1[only1] + 1e-9)


def test_plateau_requires_machine_zero_plateau():
    eigs = build_eigensequence("harmonic1d", 16)
    with pytest.raises(PatternNotFound):
        plateau_witness(c_sin(), (1.5, 3.5), eigs, N=1024)


def test_plateau_requires_both_flanks():
    n = 1024
    eigs = build_eigensequence("harmonic1d", 8)
    up = gevrey_bump(2.0, (0.5, 1.5), (0.95, 1.05), n).samples
    c_up_only = TorusFunction(1j * 4.0 * np.asarray(up.samples))
    with pytest.raises(PatternNotFound):
        plateau_witness(c_up_only, (1.5, 3.5), eigs, N=n)
    dn = gevrey_bump(2.0, (3.5, 4.5), (3.95, 4.05), n).samples
    c_dn_only = TorusFunction(-1j * 4.0 * np.asarray(dn.samples))
    with pytest.raises(PatternNotFound):
        plateau_witness(c_dn_only, (1.5, 3.5), eigs, N=n)


def test_plateau_flanks_with_wrong_signs_rejected():
    c, iv = plateau_coefficient()
    eigs = build_eigensequence("harmonic1d", 8)
    flipped = TorusFunction(-np.asarray(c.samples))
    with pytest.raises(PatternNotFound):
        plateau_witness(flipped, iv, eigs, N=1024)


# --------------------------------------------------------------------------- #
# L0 reduction (real coefficient, Liouville mean)
# --------------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def liouville_setup():
    base = build_eigensequence("harmonic1d", 40)
    cert = construct_liouville(base, L=3)
    n = 512
    t = grid(n)
    c = TorusFunction(float(cert.kappa) + 0.3 * np.cos(t) + 0j)
    return base, cert, c


def test_l0_floor_is_the_bump_integral_on_every_level(liouville_setup):
    eigs, cert, c = liouville_setup
    b = L0_reduction_witness(c, cert, eigs, N=512)
    I_phi = b.meta["I_phi"]
    assert I_phi > 0.0
    for lv in b.levels:
        assert abs(abs(TorusFunction(b.u_rows(lv.row)).eval_at(b.meta["t_anchor"])) - I_phi) \
            < 1e-8 if lv.sampled else True
        assert lv.sup_u <= I_phi * (1.0 + 1e-9)
    floors = [lv.sup_u for lv in b.levels]
    assert max(floors) - min(floors) < 1e-9 * I_phi
    assert abs(b.floor_u - I_phi) < 1e-9
    assert b.verify()["ok"]


def test_l0_forcing_is_bounded_by_the_certified_gap(liouville_setup):
    eigs, cert, c = liouville_setup
    b = L0_reduction_witness(c, cert, eigs, N=512)
    sup_phi = b.meta["sup_phi"]
    for lv, gap_e, lg in zip(b.levels, b.meta["gap_E"], b.meta["gap_log10"]):
        assert lv.sup_f <= gap_e * sup_phi + 1e-300
        # |1 - e^{-2 pi i delta}| = 2|sin(pi delta)| <= 2 pi |delta|
        assert gap_e <= 2.0 * math.pi * 10.0 ** lg * (1.0 + 1e-9) + 1e-300
    assert all(lv.residual < 1e-7 for lv in b.levels if lv.sampled)


def test_l0_refuses_uncertified_or_mismatched_input(liouville_setup):
    eigs, cert, c = liouville_setup
    with pytest.raises(NoCertificate):
        L0_reduction_witness(TorusFunction.constant(0.25, 512), cert, eigs, N=512)
    with pytest.raises(ValueError):
        L0_reduction_witness(c_sin(512), cert, eigs, N=512)   # Im c != 0
    with pytest.raises(NoCertificate):
        L0_reduction_witness(c, "not a certificate", eigs, N=512)


# --------------------------------------------------------------------------- #
# bundle exports
# --------------------------------------------------------------------------- #

def test_bundle_manifest_and_csv_round_trip(tmp_path, sin_witness):
    out = sin_witness.write(str(tmp_path / "w"))
    man = json.loads(open(out["manifest"]).read())
    assert man["kind"] == "sign-change"
    assert man["n_levels"] == 64
    assert len(man["levels"]) == 64
    assert man["decay"]["r2_lambda"] > 0.95
    lines = open(out["norms"]).read().strip().splitlines()
    assert lines[0] == "j,sup_u,sup_f"
    assert len(lines) == 65
    first = lines[1].split(",")
    assert int(first[0]) == sin_witness.levels[0].j
    assert float(first[1]) == sin_witness.levels[0].sup_u


def test_manifest_is_json_serializable_for_all_kinds(liouville_setup):
    eigs, cert, c = liouville_setup
    bundles = [
        constant_witness(1, build_eigensequence("harmonic1d", 6), L=3),
        L0_reduction_witness(c, cert, eigs, N=512),
    ]
    for b in bundles:
        s = json.dumps(b.manifest())
        assert json.loads(s)["kind"] == b.kind


# --------------------------------------------------------------------------- #
# the classifier's plans drive the constructors
# --------------------------------------------------------------------------- #

def test_plans_from_the_classifier_build_working_witnesses():
    from hypotorus.classify import classify, classify_constant

    eigs = build_eigensequence("harmonic1d", 16)
    v = classify(c_sin(512), eigs)
    assert v.decision == "notGH"
    plan = v.witness_handle
    assert plan.kind == "sign-change"
    assert plan.detail["constructor"] == "sign_change_witness"
    b = sign_change_witness(c_sin(), eigs, N=1024)
    assert b.verify()["ok"]

    v2 = classify_constant(Fraction(1, 3), 0, eigs)
    assert v2.decision == "notGH"
    assert v2.witness_handle.detail["constructor"] == "constant_witness"
    b2 = constant_witness(Fraction(1, 3), eigs)
    assert b2.verify()["ok"]

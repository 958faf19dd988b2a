"""Hypoellipticity verdicts for L = D_t + c(t) P(x, D_x).

The decision runs on the imaginary part b = Im c and on the mean c0:

* b one-signed and not identically zero is decisive on its own: every mode
  equation is uniformly solvable and the verdict is GH;
* b changing sign across a thin zero set is decisive the other way -- a
  bump transported along the flow of b concentrates where the primitive
  peaks and cannot be held down by any Gevrey weight, so the verdict is
  notGH together with a recipe for that witness;
* b vanishing identically reduces everything to the constant operator at
  a0 = mean(Re c), where the question is arithmetic: recurring integer
  resonances lambda_j * a0 kill solvability outright, an exact rational
  floor on the distances to the integers restores it uniformly, and the
  exponential-Liouville regime in between is detected heuristically from
  the distance table;
* a sign change over a fat zero set is accepted only in the clean
  three-interval pattern (one plateau, strict opposite signs on its two
  flanks, handled by a two-bump witness); anything murkier is reported as
  inconclusive rather than guessed.

A formula coefficient is read from its exact trigonometric polynomial:
whether c is constant, and the rational mean that the arithmetic routes
use.  Only sampled input (a c_file) is tested for constancy on the grid
and has its grid mean snapped to a small-denominator rational.  The sign
analysis of b runs on grid samples either way.

Branch labels in verdict JSON are stable contract strings.  ``confidence``
separates exact arithmetic ("definitive") from fitted evidence
("heuristic").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Mapping, Optional, Tuple, Union

import numpy as np

from .errors import HypotorusError
from .formulas import TrigPolynomial
from .torusfn import TorusFunction
from .spectrum import EigenSequence
from .diophantine import (
    classify_rational,
    distance_sequence,
    liouville_fit,
)
from .jsonio import dumps, plain
from .modes import index_runs

__all__ = [
    "NonRealInput",
    "SignReport",
    "WitnessPlan",
    "Verdict",
    "BRANCH_SIGN",
    "BRANCH_SIGN_CHANGE",
    "BRANCH_RESONANCE",
    "BRANCH_DIOPHANTINE",
    "BRANCH_NONREAL",
    "sign_report",
    "classify_constant",
    "classify",
]

TOL_SIGN = 1e-10          # |b| below this counts as zero on the grid
_TOL_IMAG = 1e-12         # real-input gate for sign_report
_PLATEAU_DIVISOR = 16     # zero runs longer than N/16 are treated as plateaus
_EXACT_DEN_CAP = 1 << 20  # floats equal to p/q with q at most this are exact rationals
_MEAN_DEN_CAP = 64        # grid means are snapped to rationals with small denominator ...
_MEAN_SNAP_TOL = Fraction(1, 10**9)  # ... when within this distance (fp noise allowance)

# Branch labels are part of the serialized contract; do not rename.
BRANCH_SIGN = "thm-3.10-sign"
BRANCH_SIGN_CHANGE = "thm-3.15-sign-change"
BRANCH_RESONANCE = "prop-3.9-resonance"
BRANCH_DIOPHANTINE = "thm-3.6b-diophantine"
BRANCH_NONREAL = "thm-3.6a-nonreal"

_DECISIONS = frozenset({"GH", "notGH", "inconclusive"})
_BRANCHES_GH = frozenset({BRANCH_SIGN, BRANCH_DIOPHANTINE, BRANCH_NONREAL})
_BRANCHES_NOTGH = frozenset({BRANCH_SIGN_CHANGE, BRANCH_RESONANCE, BRANCH_DIOPHANTINE})
_FORMULA_KINDS = ("harmonic1d", "harmonic1d_power", "harmonic_nd")


class NonRealInput(HypotorusError, ValueError):
    """Sign analysis was asked of a function with a genuine imaginary part."""


# ---------------------------------------------------------------------------
# sign analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignReport:
    """Grid sign statistics of a real function on the circle.

    ``zero_measure`` estimates the Lebesgue measure of the zero set (in
    radians, out of 2*pi) by the fraction of grid samples below ``tol``;
    ``longest_zero_run`` is the longest circular run of such samples, the
    quantity that decides between the thin-zero-set and plateau regimes.
    """

    min_b: float
    max_b: float
    mean_b: float
    zero_measure: float
    changes_sign: bool
    identically_zero: bool
    longest_zero_run: int
    n: int
    tol: float = TOL_SIGN


def _circular_runs(mask: np.ndarray) -> List[Tuple[int, int]]:
    """Maximal runs of True in a circular boolean array, as (start, length)."""
    n = int(mask.size)
    if n == 0 or not mask.any():
        return []
    if mask.all():
        return [(0, n)]
    off = int(np.flatnonzero(~mask)[0])
    idx = np.flatnonzero(np.roll(mask, -off))  # a False comes first, so no run wraps
    return [(int((idx[a] + off) % n), b - a) for a, b in index_runs(idx)]


def sign_report(b: TorusFunction) -> SignReport:
    """Sign statistics of a real-valued function from its grid samples.

    Raises :class:`NonRealInput` when the samples carry an imaginary part
    at or above 1e-12 in sup norm.
    """
    s = b.samples
    imag_sup = float(np.max(np.abs(s.imag)))
    if imag_sup >= _TOL_IMAG:
        raise NonRealInput(
            f"expected a real-valued function; imaginary part has sup {imag_sup:.3e}")
    v = s.real
    mask = np.abs(v) < TOL_SIGN
    mn, mx = float(v.min()), float(v.max())
    runs = _circular_runs(mask)
    return SignReport(
        min_b=mn,
        max_b=mx,
        mean_b=float(v.mean()),
        zero_measure=2.0 * math.pi * float(mask.sum()) / v.size,
        changes_sign=(mn < -TOL_SIGN) and (mx > TOL_SIGN),
        identically_zero=bool(mask.all()),
        longest_zero_run=max((ln for _, ln in runs), default=0),
        n=int(v.size),
    )


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessPlan:
    """Recipe for building a singular-solution witness behind a notGH verdict.

    ``kind`` selects the construction family ("constant-resonance",
    "constant-liouville", "sign-change", "plateau", "resonance-mean");
    ``detail`` carries the constructor name and its anchor data.  The plan
    is a reference, not the witness itself: the witness module consumes it.
    """

    kind: str
    detail: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Verdict:
    """Outcome of the hypoellipticity decision procedure.

    ``decision`` is "GH", "notGH", or "inconclusive"; ``branch`` names the
    criterion that fired using the stable contract labels; ``evidence`` is a
    JSON-serializable record of what was measured; ``confidence`` is
    "definitive" for exact arithmetic and "heuristic" for fitted evidence.
    """

    decision: str
    branch: str
    evidence: Mapping[str, object]
    confidence: str
    witness_handle: Optional[WitnessPlan] = None

    def __post_init__(self):
        if self.decision not in _DECISIONS:
            raise ValueError(f"unknown decision {self.decision!r}")
        if self.confidence not in ("definitive", "heuristic"):
            raise ValueError(f"unknown confidence {self.confidence!r}")
        if self.decision == "GH" and self.branch not in _BRANCHES_GH:
            raise ValueError(f"a GH verdict cannot fire branch {self.branch!r}")
        if self.decision == "notGH" and self.branch not in _BRANCHES_NOTGH:
            raise ValueError(f"a notGH verdict cannot fire branch {self.branch!r}")
        if self.decision == "inconclusive" and self.branch != "none":
            raise ValueError("inconclusive verdicts carry branch 'none'")
        if self.decision != "notGH" and self.witness_handle is not None:
            raise ValueError("witness plans accompany notGH verdicts only")

    def as_dict(self) -> dict:
        return {
            "decision": self.decision,
            "branch": self.branch,
            "confidence": self.confidence,
            "evidence": dict(self.evidence),
            "witness": self.witness_handle,
        }

    def to_json(self) -> str:
        return dumps(self.as_dict())


# ---------------------------------------------------------------------------
# constant coefficient: c = alpha + i beta
# ---------------------------------------------------------------------------

def _as_real(v, name: str) -> float:
    if isinstance(v, Fraction):
        return float(v)
    out = float(v)
    if not math.isfinite(out):
        raise ValueError(f"{name} must be finite, got {v!r}")
    return out


def _exact_rational(alpha) -> Optional[Fraction]:
    """The exact rational value of ``alpha``, if it has a small denominator.

    Integers and Fractions pass through.  A float is accepted only when its
    exact binary value is p/q with q <= 2**20 (dyadic inputs like 0.5 or
    0.375 mean those rationals exactly); anything else is treated as an
    empirical real and handled by the fitting route.
    """
    if isinstance(alpha, Fraction):
        return alpha
    if isinstance(alpha, (int, np.integer)):
        return Fraction(int(alpha))
    if isinstance(alpha, (float, np.floating)):
        x = float(alpha)
        if not math.isfinite(x):
            raise ValueError(f"alpha must be finite, got {alpha!r}")
        f = Fraction(x)
        if f.denominator <= _EXACT_DEN_CAP:
            return f
    return None


def _trim(seq, limit: int = 16) -> list:
    return list(seq[:limit])


def _constant_rational(frac: Fraction, eigs: EigenSequence) -> Verdict:
    rv = classify_rational(frac.numerator, frac.denominator, eigs)
    definitive = rv.scope == "infinite"
    conf = "definitive" if definitive else "heuristic"
    ev = {
        "route": "constant-rational",
        "alpha": frac,
        "beta": 0.0,
        "rational": {
            "resonant": rv.resonant,
            "scope": rv.scope,
            "period": rv.period,
            "class_variable": rv.class_variable,
            "resonant_classes": _trim(rv.resonant_classes),
            "n_resonant_classes": len(rv.resonant_classes),
            "floor": rv.floor,
        },
    }
    if rv.resonant:
        plan = WitnessPlan("constant-resonance", {
            "constructor": "constant_witness",
            "alpha": str(frac),
            "resonant_classes": _trim(rv.resonant_classes),
            "period": rv.period,
        })
        return Verdict("notGH", BRANCH_RESONANCE, ev, conf, plan)
    return Verdict("GH", BRANCH_DIOPHANTINE, ev, conf)


def _constant_float(alpha: float, eigs: EigenSequence,
                    mu: Union[Fraction, float]) -> Verdict:
    J = len(eigs.lambdas)
    kappa: Union[float, Fraction]
    kappa = Fraction(alpha) if eigs.integer_valued else alpha
    seq = distance_sequence(kappa, eigs, mu)
    res = seq.resonant_indices
    ev = {"route": "constant-float", "alpha": alpha, "beta": 0.0}

    if res:
        formula = eigs.kind.split()[0] in _FORMULA_KINDS
        ev["resonant_indices"] = _trim(res)
        ev["n_resonant"] = len(res)
        if seq.exact and formula:
            # the residue of lambda_j * alpha mod 1 is periodic along the
            # mode (or block) index, so one exact hit recurs forever
            plan = WitnessPlan("constant-resonance", {
                "constructor": "constant_witness",
                "alpha": str(kappa),
                "resonant_indices": _trim(res),
            })
            ev["recurrence"] = "periodic residues: exact resonances recur indefinitely"
            return Verdict("notGH", BRANCH_RESONANCE, ev, "definitive", plan)
        if len(res) >= 3 or (seq.exact and res):
            plan = WitnessPlan("constant-resonance", {
                "constructor": "constant_witness",
                "alpha": repr(alpha),
                "resonant_indices": _trim(res),
            })
            ev["recurrence"] = "resonances observed within the stored window only"
            return Verdict("notGH", BRANCH_RESONANCE, ev, "heuristic", plan)
        # one or two zeros from float rounding: exclude and fall through

    if J < 64:
        ev["reason"] = (f"only {J} modes available; the distance-table fit "
                        f"needs at least 64 and no exact route applies")
        return Verdict("inconclusive", "none", ev, "heuristic")

    fit = liouville_fit(seq)
    ev["route"] = "constant-float-fit"
    ev["fit"] = {
        "classification": fit.classification,
        "max_over_median": fit.max_over_median,
        "growth_monotone": fit.growth_monotone,
        "windows": [list(w) for w in fit.windows],
        "normalized_slopes": list(fit.normalized_slopes),
        "n_modes_used": fit.n_modes_used,
        "exponent": fit.e,
        "heuristic": True,
    }
    if fit.classification == "Liouville suspected":
        plan = WitnessPlan("constant-liouville", {
            "constructor": "constant_witness",
            "alpha": repr(alpha),
            "note": ("suspicion from the distance fit only; a verified witness "
                     "needs an exact certificate (construct_liouville)"),
        })
        return Verdict("notGH", BRANCH_DIOPHANTINE, ev, "heuristic", plan)
    return Verdict("GH", BRANCH_DIOPHANTINE, ev, "heuristic")


def classify_constant(alpha, beta, eigs: EigenSequence,
                      mu: Union[Fraction, float] = Fraction(1, 2)) -> Verdict:
    """Verdict for the constant-coefficient operator with c = alpha + i*beta.

    Any nonzero ``beta`` is decisive by itself.  With ``beta = 0`` the
    question is arithmetic in ``alpha``: exact rationals (including ints
    and small-denominator dyadic floats) get an exact residue analysis,
    while empirical floats get exact distance tables plus the heuristic
    Liouville fit.
    """
    beta_f = _as_real(beta, "beta")
    if beta_f != 0.0:
        ev = {"route": "constant-nonreal", "alpha": alpha, "beta": beta_f}
        return Verdict("GH", BRANCH_NONREAL, ev, "definitive")

    frac = _exact_rational(alpha)
    if frac is not None and eigs.integer_valued:
        return _constant_rational(frac, eigs)
    return _constant_float(_as_real(alpha, "alpha"), eigs, mu)


# ---------------------------------------------------------------------------
# variable coefficient: the decision tree on b = Im c
# ---------------------------------------------------------------------------

def _snap_mean(x: float) -> Tuple[Optional[Fraction], float]:
    """Snap a grid mean to a nearby small-denominator rational.

    Means of sampled functions carry O(N*eps) rounding, so an exact mean of
    0 arrives as ~1e-17.  An exact rational (:func:`_exact_rational`) is
    taken as itself; otherwise the closest rational with denominator <= 64
    within 1e-9 is accepted.  Returns (None, nan) when nothing snaps.
    """
    frac = _exact_rational(x)
    if frac is not None:
        return frac, 0.0
    fx = Fraction(x)
    cand = fx.limit_denominator(_MEAN_DEN_CAP)
    err = abs(fx - cand)
    if err <= _MEAN_SNAP_TOL:
        return cand, float(err)
    return None, float("nan")


def _reduce_to_mean(a0: float, frac: Optional[Fraction], err: float,
                    eigs: EigenSequence, mu, base_ev: dict) -> Verdict:
    """b == 0 on the grid: the verdict is the constant operator's at the
    mean, the rational ``frac`` (``err`` from the grid mean a0) if known."""
    if frac is not None:
        sub = classify_constant(frac, 0, eigs, mu)
        red = {"a0": a0, "a0_exact": frac, "snap_error": err}
    else:
        sub = classify_constant(a0, 0.0, eigs, mu)
        red = {"a0": a0, "a0_exact": None}
    red["note"] = ("imaginary part vanishes on the grid; verdict inherited "
                   "from the constant operator at the mean of the real part")
    ev = {**base_ev,
          "route": "variable-real-reduction",
          "reduction": red,
          "constant": dict(sub.evidence)}
    return Verdict(sub.decision, sub.branch, ev, sub.confidence, sub.witness_handle)


def _resonant_mean_rescue(frac: Optional[Fraction], err: float, b0: float,
                          eigs: EigenSequence, base_ev: dict) -> Optional[Verdict]:
    """notGH by recurring integer resonance of the mean, geometry regardless.

    Applies only when the mean is (up to fp noise) a real rational whose
    multiples by the eigenvalues hit the integers along a whole residue
    class: that pattern rules out hypoellipticity no matter what the zero
    set of b looks like.
    """
    if frac is None or abs(b0) > float(_MEAN_SNAP_TOL) or not eigs.integer_valued:
        return None
    rv = classify_rational(frac.numerator, frac.denominator, eigs)
    if not rv.resonant:
        return None
    conf = "definitive" if rv.scope == "infinite" else "heuristic"
    plan = WitnessPlan("resonance-mean", {
        "constructor": None,
        "alpha": str(frac),
        "note": ("resonant mean with variable real part; the construction "
                 "follows the reduction route"),
    })
    ev = {**base_ev,
          "route": "variable-resonant-mean",
          "a0": frac,
          "a0_snap_error": err,
          "b0": b0,
          "resonant_classes": _trim(rv.resonant_classes),
          "period": rv.period}
    return Verdict("notGH", BRANCH_RESONANCE, ev, conf, plan)


def _sign_change_tree(b: TorusFunction, rep: SignReport, frac: Optional[Fraction],
                      err: float, b0: float, eigs: EigenSequence,
                      base_ev: dict) -> Verdict:
    n = rep.n
    threshold = n // _PLATEAU_DIVISOR
    if rep.longest_zero_run <= threshold:
        plan = WitnessPlan("sign-change", {
            "constructor": "sign_change_witness",
            "n": n,
        })
        ev = {**base_ev,
              "route": "variable-sign-change",
              "plateau_threshold": threshold}
        return Verdict("notGH", BRANCH_SIGN_CHANGE, ev, "definitive", plan)

    # fat zero set: usable only in the clean three-interval pattern, i.e.
    # one plateau whose two flanks carry strictly opposite signs
    v = b.samples.real
    mask = np.abs(v) < rep.tol
    grid_t = b.grid
    fat = [(s, ln) for s, ln in _circular_runs(mask) if ln > threshold]
    for s, ln in sorted(fat, key=lambda r: -r[1]):
        before = float(v[(s - 1) % n])
        after = float(v[(s + ln) % n])
        if before * after < 0.0:
            t0 = float(grid_t[s])
            t1 = float(grid_t[(s + ln - 1) % n])
            plateau = {"t0": t0, "t1": t1, "run": ln,
                       "sign_before": int(math.copysign(1, before)),
                       "sign_after": int(math.copysign(1, after))}
            plan = WitnessPlan("plateau", {
                "constructor": "plateau_witness",
                "interval": [t0, t1],
                "sign_before": plateau["sign_before"],
                "sign_after": plateau["sign_after"],
            })
            ev = {**base_ev,
                  "route": "variable-plateau",
                  "variant": "three-interval",
                  "plateau": plateau,
                  "plateau_threshold": threshold}
            return Verdict("notGH", BRANCH_SIGN_CHANGE, ev, "definitive", plan)

    rescue = _resonant_mean_rescue(frac, err, b0, eigs, base_ev)
    if rescue is not None:
        return rescue
    ev = {**base_ev,
          "route": "variable-ambiguous",
          "reason": ("sign change across a fat zero set without a clean "
                     "three-interval pattern; no decisive criterion applies "
                     "at this grid resolution"),
          "plateau_threshold": threshold,
          "fat_runs": [[s, ln] for s, ln in fat]}
    return Verdict("inconclusive", "none", ev, "heuristic")


def classify(c: TorusFunction, eigs: EigenSequence,
             mu: Union[Fraction, float] = Fraction(1, 2),
             poly: Optional[TrigPolynomial] = None) -> Verdict:
    """Hypoellipticity verdict for L = D_t + c(t) P from samples of c.

    Runs the sign analysis of Im c first (either sign-definiteness or a
    sign change across a thin zero set is decisive), reduces to the
    constant operator at the mean when Im c vanishes, and falls back to
    resonance of the mean or an honest "inconclusive" for fat ambiguous
    zero sets.  Constant inputs are delegated wholesale to
    :func:`classify_constant`, threshold-free.  ``poly`` is the exact
    formula that c samples, if there is one: then c is constant exactly
    when ``poly`` is, and the mean routes take its exact real mean.  Without
    it (sampled input) constancy is tested on the grid and the grid mean is
    snapped to a nearby small-denominator rational.
    """
    m = c.mean()
    a0, b0 = float(m.real), float(m.imag)
    if poly is not None:
        mean = poly.mean
        if poly.is_constant:
            return classify_constant(mean.re, 0 if mean.im == 0 else float(mean.im), eigs, mu)
        frac, err = mean.re, float(abs(Fraction(a0) - mean.re))
    elif (c - m).sup_norm() < _TOL_IMAG:
        return classify_constant(m.real, m.imag, eigs, mu)
    else:
        frac, err = _snap_mean(a0)

    b = c.imag_part()
    rep = sign_report(b)
    base_ev = {"c0": {"re": a0, "im": b0}, "sign_report": plain(rep)}

    if not rep.identically_zero and not rep.changes_sign:
        ev = {**base_ev, "route": "variable-sign-definite"}
        return Verdict("GH", BRANCH_SIGN, ev, "definitive")
    if rep.changes_sign:
        return _sign_change_tree(b, rep, frac, err, b0, eigs, base_ev)
    return _reduce_to_mean(a0, frac, err, eigs, mu, base_ev)

"""Command-line front end: configs in, CSV/JSON reports out.

Subcommands
    solve        mode-by-mode solve of D_t u + i lam c u = f, with divisor report
    classify     hypoellipticity verdict for L = D_t + c(t) P
    diophantine  nearest-integer distance tables, Liouville fits, certificates
    decay        coefficient-decay and seminorm diagnostics of a stored field
    witness      build and verify a non-hypoellipticity witness

Everything is driven by one JSON config (see :class:`ExperimentConfig`);
command-line flags override individual fields.  The operator's dimension n
and order m come from ``model``, the spectrum of P (its kind, or
``model.n`` / ``model.m`` for a table, the one kind that takes them, with
``model.values``); ``params`` holds the class
parameters ``mu`` and ``sigma`` only.  Outputs are UTF-8 CSV with a header
row and '.' decimals, plus JSON reports with sorted keys -- the same config
bytes always produce the same output bytes.

Exit codes (README.md tabulates them by class): 0 ok, else the
``exit_code`` of the :class:`~hypotorus.errors.HypotorusError` that stopped
the run, or that of :class:`~hypotorus.modes.ResonantMode` when a solve
leaves any forced mode resonant (it still writes its files) -- 1 config
error (an array over :data:`MAX_ARRAY_BYTES` included, or a non-finite
sample in a c_file or f_file), unavailable or failed witness, or
certificate level overflow; 2 resonance; 3 degenerate data.  An output path
the OS refuses exits 1; any other exception is a bug and shows its
traceback.  ``classify --witness`` exits 0 when its witness is unavailable
or misses its budget: it warns and writes the reason to witness_plan.json.
"""

from __future__ import annotations

import argparse
import copy
import json
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from . import csvio, jsonio
from .classify import Verdict, classify, classify_samples
from .diagnostics import PMColumns, fit_decay
from .diophantine import (classify_rational, construct_liouville,
                          distance_sequence, liouville_fit)
from .errors import ConfigError, HypotorusError
from .formulas import TrigPolynomial, parse_formula, parse_rational, parse_real
from .modes import MAX_ARRAY_BYTES, ModeField, ResonantMode, solve_field
from .spectrum import EigenSequence, build_eigensequence
from .torusfn import TorusFunction
from .witness import (L0_reduction_witness, WitnessBudgetMiss, WitnessBundle,
                      constant_witness, plateau_witness, sign_change_witness)

__all__ = ["ConfigError", "ExperimentConfig", "MAX_ARRAY_BYTES", "WitnessUnavailable",
           "main"]

_MODE_BYTES = 512    # per mode across the per-mode tables (diophantine measures ~500)
_CELL_BYTES = 16     # one complex sample


class WitnessUnavailable(HypotorusError, RuntimeError):
    """The verdict's witness plan has no packaged executable constructor."""


# --------------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------------- #

_MODEL_DEFAULTS = {"kind": "harmonic1d", "m": 2, "n": 1, "values": None}
_PARAM_DEFAULTS = {"mu": "1/2", "sigma": 2.0}
_DEFAULTS = {
    "c": None,
    "c_file": None,
    "construct_levels": None,
    "f": None,
    "f_file": None,
    "grid_n": 256,
    "input": None,
    "intervals": None,
    "j_modes": 64,
    "k_max": 4,
    "kappa": None,
    "model": _MODEL_DEFAULTS,
    "params": _PARAM_DEFAULTS,
    "witness": False,
    "witness_kind": "auto",
    "witness_n": None,
}
# integer keys and their least values (construct_levels and witness_n may be null)
_INT_KEYS = (("grid_n", 4), ("j_modes", 1), ("k_max", 0), ("construct_levels", 1), ("witness_n", 4))
_WITNESS_KINDS = ("auto", "constant", "sign-change", "plateau", "L0")
_MODEL_KINDS = ("harmonic1d", "harmonic1d_power", "harmonic_nd", "table")


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _as_int(v, name: str, lo: int = None) -> int:
    _need(isinstance(v, int) and not isinstance(v, bool),
          f"{name} must be an integer, got {v!r}")
    if lo is not None:
        _need(v >= lo, f"{name} must be >= {lo}, got {v}")
    return v


def _json_int(s: str) -> int:     # int() refuses more than 4300 digits
    _need(len(s) <= 4000, f"config holds an integer of {len(s)} digits")
    return int(s)


def _json_object(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key given twice is refused."""
    obj = {}
    for k, v in pairs:
        _need(k not in obj, f"config repeats the key {k!r}")
        obj[k] = v
    return obj


def _is_real(x) -> bool:
    """x is an int or float within the float range (so not NaN or inf)."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _section(d: dict, name: str, defaults: dict) -> dict:
    """The config's ``name`` object, checked for unknown keys, with defaults."""
    _need(isinstance(d[name], dict), f"{name} must be an object")
    bad = set(d[name]) - set(defaults)
    _need(not bad, f"unknown {name} keys: {sorted(bad)}")
    return {**defaults, **d[name]}


@contextmanager
def _context(what: str):
    """Prefix ``what`` to the message of a ConfigError raised inside."""
    try:
        yield
    except ConfigError as e:
        raise ConfigError(f"{what}: {e}") from None


class ExperimentConfig:
    """One experiment: spectrum model (with n and m), coefficient, class
    parameters (mu, sigma), sizes.

    Parsed configs are normalized (defaults filled, exact fields such as
    ``params.mu`` canonicalized to fraction strings) so that
    :meth:`canonical_json` round-trips byte-identically and two runs of the
    same config are comparable file-for-file.  Validation parses every
    formula (``c`` and each ``f`` entry) once, and the config keeps the
    results for its builders.
    """

    def __init__(self, data: dict, parsed: dict | None = None):
        self._polys: dict = dict(parsed or {})   # formula text -> TrigPolynomial
        self._d = self._normalize(data)

    # -- construction ------------------------------------------------------ #
    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            obj = json.loads(text, parse_int=_json_int, object_pairs_hook=_json_object)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        _need(isinstance(obj, dict), "config top level must be a JSON object")
        return cls(obj)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        return cls.from_json(text)

    def with_overrides(self, **fields) -> "ExperimentConfig":
        merged = self.as_dict()
        merged.update(fields)
        return ExperimentConfig(merged, self._polys)

    # -- normalization ------------------------------------------------------#
    def _normalize(self, data: dict) -> dict:
        unknown = set(data) - set(_DEFAULTS)
        _need(not unknown, f"unknown config keys: {sorted(unknown)}")
        d = {**_DEFAULTS, **data}

        model = d["model"] = _section(d, "model", _MODEL_DEFAULTS)
        kind_ok = (isinstance(model["kind"], str) and model["kind"].strip()
                   and model["kind"].split()[0] in _MODEL_KINDS)
        _need(kind_ok,
              f"model.kind must be one of {_MODEL_KINDS} (got {model['kind']!r})")
        if model["kind"].split()[0] != "table":     # the kind fixes m, n and values
            extra = sorted(set(data.get("model", {})) - {"kind"})
            _need(not extra, f"model keys {extra} apply to kind 'table' only")
            d["model"] = model = {"kind": model["kind"]}
        else:
            for key in ("m", "n"):
                _as_int(model[key], f"model.{key}", 1)
            if model["values"] is not None:
                _need(isinstance(model["values"], list)
                      and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                              for x in model["values"]),
                      "model.values must be a list of numbers")

        params = d["params"] = _section(d, "params", _PARAM_DEFAULTS)
        with _context("params.mu"):
            mu = parse_rational(params["mu"])
        _need(mu >= Fraction(1, 2), f"params.mu must be >= 1/2, got {mu}")
        params["mu"] = str(mu)
        sigma = params["sigma"]
        _need(_is_real(sigma) and sigma > 1,
              f"params.sigma must be a finite number > 1, got {sigma!r}")
        params["sigma"] = float(sigma)
        for key, lo in _INT_KEYS:
            if d[key] is not None or key not in ("construct_levels", "witness_n"):
                _as_int(d[key], key, lo)
                _need(key not in ("grid_n", "witness_n") or d[key] & (d[key] - 1) == 0,
                      f"{key} must be a power of two, got {d[key]}")
        _need(isinstance(d["witness"], bool), "witness must be true/false")
        _need(d["witness_kind"] in _WITNESS_KINDS,
              f"witness_kind must be one of {_WITNESS_KINDS}")

        for key in ("c", "c_file", "f_file", "input"):
            if d[key] is not None:
                _need(isinstance(d[key], str), f"{key} must be a string")
        if d["c"] is not None:
            with _context("coefficient formula"):
                self.formula(d["c"])

        if d["f"] is not None:
            _need(isinstance(d["f"], dict), "f must map mode index to formula")
            norm_f, keys = {}, {}
            for k, v in d["f"].items():
                _need(re.fullmatch(r"\s*[+-]?\d+\s*", k) is not None,
                      f"f key {k!r} is not a mode index")
                j = int(k)
                _need(j >= 0, f"f mode index must be >= 0, got {j}")
                _need(j not in keys, f"f keys {keys.get(j)!r} and {k!r} both name mode {j}")
                keys[j] = k
                _need(isinstance(v, str), f"f[{j}] must be a formula string")
                with _context(f"f[{j}]"):
                    self.formula(v)
                norm_f[str(j)] = v
            d["f"] = norm_f

        if d["intervals"] is not None:
            iv = d["intervals"]
            _need(isinstance(iv, list) and len(iv) == 2 and all(map(_is_real, iv)),
                  "intervals must be [t0, t1] with finite t0, t1")
            d["intervals"] = [float(iv[0]), float(iv[1])]

        if d["kappa"] is not None:      # kept as its exact string spelling
            v = d["kappa"]
            _need(isinstance(v, (int, float, str)) and not isinstance(v, bool) and str(v).strip(),
                  f"kappa must be a number or string, got {v!r}")
            d["kappa"] = repr(v) if isinstance(v, float) else str(v).strip()
            with _context("kappa"):
                kappa = parse_real(d["kappa"])
            _need(abs(kappa) <= sys.float_info.max,
                  f"kappa must be finite and within the float range, got {d['kappa']!r}")
        return d

    # -- views ----------------------------------------------------------------#
    def as_dict(self) -> dict:
        return copy.deepcopy(self._d)

    def canonical_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True,
                          ensure_ascii=False) + "\n"

    def __getitem__(self, key: str):
        return self._d[key]

    def formula(self, text: str) -> TrigPolynomial:
        """The parsed formula ``text``, parsed on its first request only."""
        poly = self._polys.get(text)
        if poly is None:
            poly = self._polys[text] = parse_formula(text)
        return poly

    # -- builders ---------------------------------------------------------------#
    def array_bytes(self, command: str) -> int:
        """Estimated bytes of the largest array ``command`` builds: a per-mode
        table, the sampled c, the solved field (solve) or a (levels, N)
        witness store, with at most max(J, 4) levels and N = 1024 (the
        largest constructor default) when ``witness_n`` is unset.  The
        witness term over-counts a witness's peak, which is two row_chunks
        blocks of its rows (one for each of the pass's two threads) plus
        half a block of residual scratch for each; it is kept until a peak
        estimate per command replaces this one (ROADMAP item 2)."""
        J, N = self._d["j_modes"], self._d["grid_n"]
        sizes = [_MODE_BYTES * J, _CELL_BYTES * N]
        if command == "solve":
            sizes.append(_CELL_BYTES * J * N)
        if command == "witness" or (command == "classify" and self._d["witness"]):
            sizes.append(_CELL_BYTES * max(J, 4) * (self._d["witness_n"] or 1024))
        return max(sizes)

    def eigensequence(self) -> EigenSequence:
        """The model's spectrum, which carries n and m; refused unless
        2 n mu < 2^1000, so that the exponent 1/(2 n mu) is a normal double."""
        m = self._d["model"]
        with _context("model"):
            eigs = build_eigensequence(m["kind"], self._d["j_modes"],
                                       **{k: v for k, v in m.items() if k != "kind"})
        _need(2 * eigs.n * self.mu < 2**1000,
              f"2 n mu must stay below 2^1000, got n = {eigs.n}, mu = {self.mu}")
        return eigs

    @property
    def mu(self) -> Fraction:
        return Fraction(self._d["params"]["mu"])

    def coefficient(self) -> TorusFunction:
        """c on its grid: the c_file's samples, else the formula's."""
        path = self._d["c_file"]
        if path is not None:
            with _open_text(path, f"c_file {path}") as fh, _context(f"c_file {path}"):
                c = TorusFunction.from_sample_csv(fh)
            _need(np.isfinite(c.samples).all(), f"c_file {path}: samples must be finite")
            return c
        _need(self._d["c"] is not None,
              "a coefficient is required: set 'c' (formula) or 'c_file' (samples)")
        return self.formula(self._d["c"]).to_torus_function(self._d["grid_n"])

    def forcing(self, eigs: EigenSequence) -> ModeField:
        path = self._d["f_file"]
        if path is not None:
            with _open_text(path, "f_file") as fh:
                f = ModeField.from_csv(fh, eigs, J=self._d["j_modes"], max_bytes=MAX_ARRAY_BYTES)
            _need(np.isfinite(f.samples).all(), f"f_file {path}: samples must be finite")
            return f
        _need(bool(self._d["f"]),
              "solve needs a forcing term: provide 'f' (mode->formula map) "
              "or 'f_file' (mode-field CSV)")
        J, N = self._d["j_modes"], self._d["grid_n"]
        entries = [None] * J
        for k, text in self._d["f"].items():
            j = int(k)
            _need(j < J, f"f mode {j} is outside j_modes = {J}")
            entries[j] = self.formula(text).to_torus_function(N)
        return ModeField(entries, eigs)

    def kappa_value(self):
        return None if self._d["kappa"] is None else parse_real(self._d["kappa"])


# --------------------------------------------------------------------------- #
# output plumbing
# --------------------------------------------------------------------------- #

def _open_text(path, what: str):
    """``path`` as UTF-8 text; a non-UTF-8 byte reads as U+FFFD, which no CSV field takes."""
    try:
        return open(path, encoding="utf-8", errors="replace")
    except OSError as e:
        raise ConfigError(f"cannot read {what}: {e}") from None


def _write_text(path: Path, text: str | Iterable[str]) -> None:
    csvio.write(path, text)


def _write_json(path: Path, obj) -> None:
    jsonio.write(path, obj)


# --------------------------------------------------------------------------- #
# solve
# --------------------------------------------------------------------------- #

def cmd_solve(cfg: ExperimentConfig, out: Path) -> int:
    eigs = cfg.eigensequence()
    c = cfg.coefficient()
    u, rep = solve_field(c, cfg.forcing(eigs))
    _write_text(out / "u_field.csv", u.csv_pieces())
    _write_text(out / "divisors.csv", rep.to_csv())
    resonant = rep.resonant_indices()
    _write_json(out / "residuals.json", {
        "max_residual": rep.max_residual(),
        "n_modes": cfg["j_modes"],
        "n_defined": len(u.defined()),
        "n_resonant": len(resonant),
        "resonant_indices": resonant[:64],
    })
    return ResonantMode.exit_code if resonant else 0


# --------------------------------------------------------------------------- #
# classify
# --------------------------------------------------------------------------- #

def _classify(cfg: ExperimentConfig) -> tuple:
    """(verdict, c_fn, eigs): by classify_samples on a c_file, else by classify."""
    eigs, c_fn = cfg.eigensequence(), cfg.coefficient()
    if cfg["c_file"] is not None:
        return classify_samples(c_fn, eigs, cfg.mu), c_fn, eigs
    return classify(cfg.formula(cfg["c"]), eigs, cfg.mu, cfg["grid_n"]), c_fn, eigs


def _build_witness(cfg: ExperimentConfig, kind: str, eigs: EigenSequence,
                   c_fn: TorusFunction, detail: dict) -> WitnessBundle:
    """The 'constant', 'sign-change' or 'plateau' witness of c_fn; ``detail``
    holds the constant's alpha and the fallback plateau interval."""
    mu, sigma = cfg.mu, cfg["params"]["sigma"]
    kw = {} if cfg["witness_n"] is None else {"N": cfg["witness_n"]}
    if kind == "constant":
        return constant_witness(detail["alpha"], eigs, mu=mu, **kw)
    if kind == "sign-change":
        return sign_change_witness(c_fn, eigs, mu, sigma=sigma, **kw)
    interval = cfg["intervals"] or detail.get("interval")
    _need(interval is not None, "witness_kind 'plateau' needs 'intervals': [t0, t1]")
    return plateau_witness(c_fn, list(interval), eigs, sigma=sigma, mu=mu, **kw)


def _witness_from_plan(cfg: ExperimentConfig, verdict: Verdict,
                       c_fn: TorusFunction, eigs: EigenSequence) -> WitnessBundle:
    plan = verdict.witness_handle
    if plan is None:
        raise WitnessUnavailable("the verdict carries no witness plan")
    if plan.kind == "constant-resonance":
        alpha = plan.detail["alpha"]
        if verdict.evidence["route"] == "variable-real-reduction":
            raise WitnessUnavailable(
                f"the verdict follows the resonant mean {alpha} of a non-constant "
                f"c; the constant witness at {alpha} would verify c = {alpha}, "
                "not this c")
        return _build_witness(cfg, "constant", eigs, c_fn, {"alpha": Fraction(str(alpha))})
    if plan.kind == "plateau" and cfg["intervals"] is None:
        t0, t1 = plan.detail["interval"]
        before, after = plan.detail["sign_before"], plan.detail["sign_after"]
        if before != 1 or t0 >= t1:
            raise WitnessUnavailable(
                f"the plateau from t = {t0:.6g} to {t1:.6g} is flanked ({before:+d}, 0, "
                f"{after:+d}); plateau_witness takes a (+1, 0, -1) run with t0 < t1: "
                "set 'intervals': [t0, t1]")
    if plan.kind in ("sign-change", "plateau"):
        return _build_witness(cfg, plan.kind, eigs, c_fn, plan.detail)
    if plan.kind == "constant-liouville":
        raise WitnessUnavailable(
            "the Liouville suspicion is heuristic and carries no exact "
            "certificate; run 'diophantine' with construct_levels and the "
            "'witness' command with witness_kind 'L0'")
    raise WitnessUnavailable(
        f"plan kind {plan.kind!r} has no packaged constructor; the verdict "
        "stands on its exact evidence")


def _emit_witness(bundle: WitnessBundle, out: Path) -> None:
    """Write the bundle and, as witness_verify.json, the report of the one
    check its constructor ran before returning it (a miss raised there,
    before anything was written); ``bundle.verify()`` would run it again."""
    bundle.write(str(out))
    _write_json(out / "witness_verify.json", bundle.report)


def cmd_classify(cfg: ExperimentConfig, out: Path) -> int:
    verdict, c_fn, eigs = _classify(cfg)
    _write_json(out / "verdict.json", verdict.as_dict())
    if cfg["witness"] and verdict.decision == "notGH":
        try:
            _emit_witness(_witness_from_plan(cfg, verdict, c_fn, eigs), out)
        except (WitnessUnavailable, WitnessBudgetMiss) as e:
            print(f"warning: witness not emitted: {e}", file=sys.stderr)
            _write_json(out / "witness_plan.json", {
                "plan": verdict.witness_handle,
                "reason": str(e),
            })
    return 0


# --------------------------------------------------------------------------- #
# diophantine
# --------------------------------------------------------------------------- #

# fit.json carries classify_rational's verdict up to this denominator; that
# scans only the power kinds, under its own _POWER_SCAN_CAP
_RATIONAL_DEN_CAP = 4096


def cmd_diophantine(cfg: ExperimentConfig, out: Path) -> int:
    eigs = cfg.eigensequence()
    kappa = cfg.kappa_value()
    kappa_label = cfg["kappa"]
    _need(kappa is not None or cfg["construct_levels"] is not None,
          "diophantine needs 'kappa' or 'construct_levels'")
    if cfg["construct_levels"] is not None:
        cert = construct_liouville(eigs, cfg["construct_levels"], mu=cfg.mu)
        _write_json(out / "certificate.json", cert.as_dict())
        if kappa is None:
            # the distance table and fit then describe the number just built
            kappa = cert.kappa
            kappa_label = "constructed"

    seq = distance_sequence(kappa, eigs, cfg.mu, J=cfg["j_modes"])
    _write_text(out / "distances.csv", seq.csv_pieces())
    report = {"kappa": kappa_label, "exact": seq.exact, "n_modes": len(seq)}
    resonant = seq.resonant_indices
    if len(resonant) > len(seq) // 2:
        report["kind"] = "resonance-dominated"
        report["n_resonant"] = len(resonant)
        report["note"] = ("more than half the distances vanish exactly; "
                          "kappa resonates along whole residue classes")
    elif len(seq) < 64:
        report["kind"] = "no-fit"
        report["reason"] = (f"the windowed Liouville fit needs >= 64 "
                            f"modes, the table holds {len(seq)}")
    else:
        report["kind"] = "fit"
        report["fit"] = liouville_fit(seq).as_dict()
    if (isinstance(kappa, Fraction) and eigs.integer_valued
            and kappa.denominator <= _RATIONAL_DEN_CAP):
        rv = classify_rational(kappa.numerator, kappa.denominator, eigs)
        report["rational"] = rv.as_dict()
    _write_json(out / "fit.json", report)
    return 0


# --------------------------------------------------------------------------- #
# decay
# --------------------------------------------------------------------------- #

def cmd_decay(cfg: ExperimentConfig, out: Path) -> int:
    path = cfg["input"]
    _need(path is not None, "decay needs 'input': a u-field CSV "
                            "(cmd_solve output composes directly)")
    with _open_text(path, f"input {path}") as fh:
        eigs = cfg.eigensequence()
        # The ceiling counts k_max + 1 fields.  The pass below holds about
        # two derivative levels, so this is conservative for memory, but it
        # refuses a huge k_max before its FFT passes; ROADMAP item 2's peak
        # estimate replaces it.
        u = ModeField.from_csv(fh, eigs, J=cfg["j_modes"],
                               max_bytes=MAX_ARRAY_BYTES // (cfg["k_max"] + 1))
    # one pass over the derivative stack fits the decay and fills pm's columns
    columns = PMColumns(eigs, u.J, M_max=8, k_max=min(cfg["k_max"], 4))
    fit = fit_decay(u, cfg.mu, k_max=cfg["k_max"], pm=columns)
    pm = columns.table()
    _write_text(out / "pm_table.csv", pm.to_csv())
    report = fit.as_dict()
    report["pm"] = {k: v for k, v in jsonio.plain(pm).items() if k != "values"}
    _write_json(out / "decay.json", report)
    return 0


# --------------------------------------------------------------------------- #
# witness
# --------------------------------------------------------------------------- #

def cmd_witness(cfg: ExperimentConfig, out: Path) -> int:
    kind = cfg["witness_kind"]
    eigs = cfg.eigensequence()

    if kind == "auto":
        verdict, c_fn, eigs = _classify(cfg)
        _write_json(out / "verdict.json", verdict.as_dict())
        if verdict.decision != "notGH":
            raise WitnessUnavailable(f"the operator classifies {verdict.decision} "
                                     f"(branch {verdict.branch}); no witness exists")
        bundle = _witness_from_plan(cfg, verdict, c_fn, eigs)
    elif kind != "L0":
        c_fn = cfg.coefficient()
        detail = {}
        if kind == "constant":
            poly = cfg.formula(cfg["c"]) if cfg["c_file"] is None else None
            _need(poly is not None and poly.is_constant,
                  "witness_kind 'constant' needs a constant formula c")
            _need(poly.mean.im == 0, "the constant witness needs real c")
            detail["alpha"] = poly.mean.re
        bundle = _build_witness(cfg, kind, eigs, c_fn, detail)
    else:  # L0: certificate mean plus the config formula as oscillation
        L = cfg["construct_levels"] or 3
        cert = construct_liouville(eigs, L, mu=cfg.mu)
        N = cfg["witness_n"] or 512
        osc = np.zeros(N)
        if cfg["c"] is not None:
            poly = cfg.formula(cfg["c"])
            _need(poly.is_real, "the L0 route needs a real-valued formula c")
            osc = poly.to_torus_function(N).samples
        c_fn = TorusFunction(float(cert.kappa) + osc)
        bundle = L0_reduction_witness(c_fn, cert, eigs, N=N)

    _emit_witness(bundle, out)
    return 0


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #

_DISPATCH = {
    "solve": cmd_solve,
    "classify": cmd_classify,
    "diophantine": cmd_diophantine,
    "decay": cmd_decay,
    "witness": cmd_witness,
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hypotorus",
        description="Spectral laboratory for periodic evolution equations: "
                    "mode solves, hypoellipticity verdicts, Diophantine "
                    "analysis, decay diagnostics, and witnesses.")
    sub = p.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--config", help="JSON experiment config")
        sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("solve", help="solve Lu = f mode by mode")
    common(sp)
    sp.add_argument("--f-file", dest="f_file", help="forcing as mode-field CSV")

    sp = sub.add_parser("classify", help="hypoellipticity verdict for c")
    common(sp)
    sp.add_argument("--witness", action="store_true", default=None,
                    help="also build and verify the witness behind a notGH verdict")

    sp = sub.add_parser("diophantine",
                        help="distance tables, Liouville fit, certificates")
    common(sp)
    sp.add_argument("--kappa", help="the number to test, e.g. 1/2 or 0.70710678")
    sp.add_argument("--construct", dest="construct_levels", type=int, metavar="L",
                    help="construct an L-level exponential-Liouville certificate")

    sp = sub.add_parser("decay", help="decay and seminorm diagnostics of a field")
    common(sp)
    sp.add_argument("--input", help="u-field CSV (cmd_solve output)")
    sp.add_argument("--k-max", dest="k_max", type=int, help="derivative stack depth")

    sp = sub.add_parser("witness", help="build a non-hypoellipticity witness")
    common(sp)
    sp.add_argument("--kind", dest="witness_kind", choices=_WITNESS_KINDS,
                    help="constructor family")
    sp.add_argument("--levels", dest="construct_levels", type=int,
                    help="certificate levels for the L0 route")
    return p


def _load_config(ns: argparse.Namespace) -> ExperimentConfig:
    """The config file with the command's flags (dest = config key) over it,
    refused if its largest array would exceed MAX_ARRAY_BYTES."""
    cfg = (ExperimentConfig.from_file(ns.config) if ns.config
           else ExperimentConfig.from_json("{}"))
    over = {k: getattr(ns, k) for k in _DEFAULTS if getattr(ns, k, None) is not None}
    if over:
        cfg = cfg.with_overrides(**over)
    size = cfg.array_bytes(ns.command)
    _need(size <= MAX_ARRAY_BYTES,
          f"{ns.command} would build an array of ~{size >> 20} MiB, over the "
          f"{MAX_ARRAY_BYTES >> 20} MiB ceiling; lower j_modes, grid_n or witness_n")
    return cfg


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else ConfigError.exit_code
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return ConfigError.exit_code
    try:
        cfg = _load_config(ns)
        out = Path(ns.out)
        out.mkdir(parents=True, exist_ok=True)
        return _DISPATCH[ns.command](cfg, out)
    except HypotorusError as e:
        print(f"error: {e.lead}{e}", file=sys.stderr)
        if isinstance(e, ConfigError):
            print(f"usage: hypotorus {ns.command} --config FILE --out DIR "
                  f"[command flags]", file=sys.stderr)
        return e.exit_code
    except OSError as e:     # an output path the OS refuses
        print(f"error: {e}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())

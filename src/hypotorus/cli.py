"""Command-line front end: configs in, CSV/JSON reports out.

Subcommands
    solve        mode-by-mode solve of D_t u + i lam c u = f, with divisor report
    classify     hypoellipticity verdict for L = D_t + c(t) P
    diophantine  nearest-integer distance tables, Liouville fits, certificates
    decay        coefficient-decay and seminorm diagnostics of a stored field
    witness      build and verify a non-hypoellipticity witness

Everything is driven by one JSON config (see :class:`ExperimentConfig`);
command-line flags override individual fields.  Outputs are UTF-8 CSV with
a header row and '.' decimals, plus JSON reports with sorted keys -- the
same config bytes always produce the same output bytes.  Exit codes:
0 ok, 1 config error or failed witness construction (a witness that misses
its residual budget included), 2 resonance, 3 degenerate data.
``classify --witness`` exits 0 when its witness is unavailable or misses its
budget: it warns and writes the reason to witness_plan.json.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import csvio, jsonio
from .classify import Verdict, classify, classify_constant
from .diagnostics import DegenerateData, GSParams, fit_decay, pm_seminorms
from .diophantine import (classify_rational, construct_liouville,
                          distance_sequence, liouville_fit)
from .formulas import FormulaError, TrigPolynomial, parse_formula
from .modes import AllModesResonant, ModeField, solve_field
from .spectrum import EigenSequence, build_eigensequence
from .torusfn import TorusFunction, grid
from .witness import (L0_reduction_witness, NoCertificate, PartitionNotFound,
                      PatternNotFound, WitnessBudgetMiss, WitnessBundle,
                      constant_witness, plateau_witness, sign_change_witness)

__all__ = ["ConfigError", "ExperimentConfig", "WitnessUnavailable", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RESONANCE = 2
EXIT_DEGENERATE = 3


class ConfigError(ValueError):
    """The configuration (file or flags) cannot drive the requested command."""


class WitnessUnavailable(RuntimeError):
    """The verdict's witness plan has no packaged executable constructor."""


# --------------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------------- #

_MODEL_DEFAULTS = {"kind": "harmonic1d", "m": 2, "n": 1, "values": None}
_PARAM_DEFAULTS = {"m": 2, "mu": "1/2", "n": 1, "sigma": 2.0}
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


def _norm_number_string(v, name: str) -> str:
    """Accept a number or string, keep it as its exact string spelling."""
    if isinstance(v, bool):
        raise ConfigError(f"{name} must be a number or string, got {v!r}")
    if isinstance(v, (int, float)):
        return repr(v) if isinstance(v, float) else str(v)
    _need(isinstance(v, str) and v.strip() != "", f"{name} must be a number or string")
    return v.strip()


def _parse_kappa(s: str):
    """'p/q' and integer strings are exact Fractions; decimals are floats."""
    try:
        if "/" in s:
            return Fraction(s)
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"kappa {s!r} is neither a rational p/q nor a number")


class ExperimentConfig:
    """One experiment: spectrum model, coefficient, class parameters, sizes.

    Parsed configs are normalized (defaults filled, exact fields such as
    ``params.mu`` canonicalized to fraction strings) so that
    :meth:`canonical_json` round-trips byte-identically and two runs of the
    same config are comparable file-for-file.
    """

    def __init__(self, data: dict):
        self._d = self._normalize(data)

    # -- construction ------------------------------------------------------ #
    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        _need(isinstance(obj, dict), "config top level must be a JSON object")
        return cls(obj)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        return cls.from_json(text)

    def with_overrides(self, **fields) -> "ExperimentConfig":
        merged = self.as_dict()
        merged.update(fields)
        return ExperimentConfig(merged)

    # -- normalization ------------------------------------------------------#
    @staticmethod
    def _normalize(data: dict) -> dict:
        unknown = set(data) - set(_DEFAULTS)
        _need(not unknown, f"unknown config keys: {sorted(unknown)}")
        d = {**_DEFAULTS, **data}

        model = d["model"]
        _need(isinstance(model, dict), "model must be an object")
        bad = set(model) - set(_MODEL_DEFAULTS)
        _need(not bad, f"unknown model keys: {sorted(bad)}")
        model = {**_MODEL_DEFAULTS, **model}
        kind_ok = (isinstance(model["kind"], str) and model["kind"].strip()
                   and model["kind"].split()[0] in _MODEL_KINDS)
        _need(kind_ok,
              f"model.kind must be one of {_MODEL_KINDS} (got {model['kind']!r})")
        _as_int(model["m"], "model.m", 1)
        _as_int(model["n"], "model.n", 1)
        if model["values"] is not None:
            _need(isinstance(model["values"], list)
                  and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                          for x in model["values"]),
                  "model.values must be a list of numbers")
        d["model"] = model

        params = d["params"]
        _need(isinstance(params, dict), "params must be an object")
        bad = set(params) - set(_PARAM_DEFAULTS)
        _need(not bad, f"unknown params keys: {sorted(bad)}")
        params = {**_PARAM_DEFAULTS, **params}
        try:
            mu = Fraction(params["mu"])
        except (ValueError, TypeError, ZeroDivisionError):
            raise ConfigError(f"params.mu {params['mu']!r} is not a rational") from None
        _need(mu >= Fraction(1, 2), f"params.mu must be >= 1/2, got {mu}")
        params["mu"] = str(mu)
        sigma = params["sigma"]
        _need(isinstance(sigma, (int, float)) and not isinstance(sigma, bool)
              and math.isfinite(float(sigma)) and float(sigma) > 1.0,
              f"params.sigma must be a finite number > 1, got {sigma!r}")
        params["sigma"] = float(sigma)
        _as_int(params["m"], "params.m", 1)
        _as_int(params["n"], "params.n", 1)
        d["params"] = params

        _as_int(d["grid_n"], "grid_n", 4)
        _as_int(d["j_modes"], "j_modes", 1)
        _as_int(d["k_max"], "k_max", 0)
        if d["construct_levels"] is not None:
            _as_int(d["construct_levels"], "construct_levels", 1)
        if d["witness_n"] is not None:
            _as_int(d["witness_n"], "witness_n", 4)
        _need(isinstance(d["witness"], bool), "witness must be true/false")
        _need(d["witness_kind"] in _WITNESS_KINDS,
              f"witness_kind must be one of {_WITNESS_KINDS}")

        for key in ("c", "c_file", "f_file", "input"):
            if d[key] is not None:
                _need(isinstance(d[key], str), f"{key} must be a string")
        if d["c"] is not None:
            try:
                parse_formula(d["c"])
            except FormulaError as e:
                raise ConfigError(f"coefficient formula: {e}") from None

        if d["f"] is not None:
            _need(isinstance(d["f"], dict), "f must map mode index to formula")
            norm_f = {}
            for k, v in d["f"].items():
                try:
                    j = int(k)
                except (TypeError, ValueError):
                    raise ConfigError(f"f key {k!r} is not a mode index") from None
                _need(j >= 0, f"f mode index must be >= 0, got {j}")
                _need(isinstance(v, str), f"f[{j}] must be a formula string")
                try:
                    parse_formula(v)
                except FormulaError as e:
                    raise ConfigError(f"f[{j}]: {e}") from None
                norm_f[str(j)] = v
            d["f"] = norm_f

        if d["intervals"] is not None:
            iv = d["intervals"]
            _need(isinstance(iv, list) and len(iv) == 2
                  and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                          for x in iv),
                  "intervals must be [t0, t1]")
            d["intervals"] = [float(iv[0]), float(iv[1])]

        if d["kappa"] is not None:
            d["kappa"] = _norm_number_string(d["kappa"], "kappa")
            _parse_kappa(d["kappa"])
        return d

    # -- views ----------------------------------------------------------------#
    def as_dict(self) -> dict:
        out = dict(self._d)
        out["model"] = dict(self._d["model"])
        out["params"] = dict(self._d["params"])
        if self._d["f"] is not None:
            out["f"] = dict(self._d["f"])
        if self._d["intervals"] is not None:
            out["intervals"] = list(self._d["intervals"])
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True,
                          ensure_ascii=False) + "\n"

    def __getitem__(self, key: str):
        return self._d[key]

    # -- builders ---------------------------------------------------------------#
    def eigensequence(self) -> EigenSequence:
        m = self._d["model"]
        try:
            return build_eigensequence(m["kind"], self._d["j_modes"],
                                       values=m["values"], m=m["m"], n=m["n"])
        except ValueError as e:
            raise ConfigError(f"model: {e}") from None

    def params_tuple(self):
        p = self._d["params"]
        return (p["n"], Fraction(p["mu"]))

    def gsparams(self) -> GSParams:
        p = self._d["params"]
        return GSParams(mu=Fraction(p["mu"]), sigma=p["sigma"],
                        n=p["n"], m=p["m"])

    def coefficient(self) -> tuple:
        """(TorusFunction, TrigPolynomial | None); the poly when c is a formula."""
        path = self._d["c_file"]
        if path is not None:
            try:
                with open(path, encoding="utf-8") as fh:
                    return TorusFunction.from_sample_csv(fh), None
            except (OSError, ValueError) as e:
                raise ConfigError(f"c_file {path}: {e}") from None
        _need(self._d["c"] is not None,
              "a coefficient is required: set 'c' (formula) or 'c_file' (samples)")
        poly = parse_formula(self._d["c"])
        try:
            return poly.to_torus_function(self._d["grid_n"]), poly
        except ValueError as e:
            raise ConfigError(f"coefficient synthesis: {e}") from None

    def forcing(self, eigs: EigenSequence) -> ModeField:
        if self._d["f_file"] is not None:
            with _open_text(self._d["f_file"], "f_file") as fh:
                return ModeField.from_csv(fh, eigs, J=self._d["j_modes"])
        _need(self._d["f"] is not None,
              "solve needs a forcing term: provide 'f' (mode->formula map) "
              "or 'f_file' (mode-field CSV)")
        J, N = self._d["j_modes"], self._d["grid_n"]
        entries = [None] * J
        for k, text in self._d["f"].items():
            j = int(k)
            _need(j < J, f"f mode {j} is outside j_modes = {J}")
            entries[j] = parse_formula(text).to_torus_function(N)
        return ModeField(entries, eigs)

    def kappa_value(self):
        return None if self._d["kappa"] is None else _parse_kappa(self._d["kappa"])


# --------------------------------------------------------------------------- #
# output plumbing
# --------------------------------------------------------------------------- #

def _open_text(path, what: str):
    """``path`` opened as UTF-8 text for a reader that takes a handle."""
    try:
        return open(path, encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read {what}: {e}") from None


def _write_text(path: Path, text: str) -> None:
    csvio.write(path, text)


def _write_json(path: Path, obj) -> None:
    jsonio.write(path, obj)


# --------------------------------------------------------------------------- #
# solve
# --------------------------------------------------------------------------- #

def cmd_solve(cfg: ExperimentConfig, out: Path) -> int:
    eigs = cfg.eigensequence()
    c, _ = cfg.coefficient()
    f = cfg.forcing(eigs)
    try:
        u, rep = solve_field(c, f)
    except AllModesResonant as exc:
        u = ModeField([None] * cfg["j_modes"], eigs)
        rep = exc.report
    _write_text(out / "u_field.csv", u.to_csv())
    _write_text(out / "divisors.csv", rep.to_csv())
    resonant = sorted(rep.resonant_indices())
    _write_json(out / "residuals.json", {
        "max_residual": rep.max_residual(),
        "n_modes": cfg["j_modes"],
        "n_defined": len(u.defined()),
        "n_resonant": len(resonant),
        "resonant_indices": resonant[:64],
    })
    return EXIT_RESONANCE if resonant else EXIT_OK


# --------------------------------------------------------------------------- #
# classify
# --------------------------------------------------------------------------- #

def _classify(cfg: ExperimentConfig) -> tuple:
    """(verdict, c_fn, poly, eigs); constants go through the exact route."""
    eigs = cfg.eigensequence()
    c_fn, poly = cfg.coefficient()
    params = cfg.params_tuple()
    if poly is not None and poly.is_constant:
        mean = poly.mean
        beta = 0 if mean.im == 0 else float(mean.im)
        verdict = classify_constant(mean.re, beta, eigs, params)
    else:
        verdict = classify(c_fn, eigs, params)
    return verdict, c_fn, poly, eigs


def _witness_from_plan(cfg: ExperimentConfig, verdict: Verdict,
                       c_fn: TorusFunction, eigs: EigenSequence) -> WitnessBundle:
    plan = verdict.witness_handle
    if plan is None:
        raise WitnessUnavailable("the verdict carries no witness plan")
    params = cfg.params_tuple()
    sigma = cfg["params"]["sigma"]
    kw = {} if cfg["witness_n"] is None else {"N": cfg["witness_n"]}
    if plan.kind == "constant-resonance":
        alpha = Fraction(str(plan.detail["alpha"]))
        return constant_witness(alpha, eigs, mu=params[1], **kw)
    if plan.kind == "sign-change":
        return sign_change_witness(c_fn, eigs, params, sigma=sigma, **kw)
    if plan.kind == "plateau":
        interval = cfg["intervals"] or list(plan.detail["interval"])
        return plateau_witness(c_fn, interval, eigs, sigma=sigma,
                               params=params, **kw)
    if plan.kind == "constant-liouville":
        raise WitnessUnavailable(
            "the Liouville suspicion is heuristic and carries no exact "
            "certificate; run 'diophantine' with construct_levels and the "
            "'witness' command with witness_kind 'L0'")
    raise WitnessUnavailable(
        f"plan kind {plan.kind!r} has no packaged constructor; the verdict "
        "stands on its exact evidence")


def _emit_witness(bundle: WitnessBundle, out: Path) -> None:
    bundle.write(str(out))
    _write_json(out / "witness_verify.json", bundle.verify())


def cmd_classify(cfg: ExperimentConfig, out: Path) -> int:
    verdict, c_fn, _, eigs = _classify(cfg)
    _write_json(out / "verdict.json", verdict.as_dict())
    if cfg["witness"] and verdict.decision == "notGH":
        try:
            _emit_witness(_witness_from_plan(cfg, verdict, c_fn, eigs), out)
        except (WitnessUnavailable, WitnessBudgetMiss) as e:
            print(f"warning: witness not emitted: {e}", file=sys.stderr)
            _write_json(out / "witness_plan.json", {
                "plan": None if verdict.witness_handle is None
                else verdict.witness_handle.as_dict(),
                "reason": str(e),
            })
    return EXIT_OK


# --------------------------------------------------------------------------- #
# diophantine
# --------------------------------------------------------------------------- #

# fit.json carries classify_rational's verdict up to this denominator; that
# scans only the power kinds, under its own _POWER_SCAN_CAP
_RATIONAL_DEN_CAP = 4096


def cmd_diophantine(cfg: ExperimentConfig, out: Path) -> int:
    eigs = cfg.eigensequence()
    params = cfg.params_tuple()

    kappa = cfg.kappa_value()
    kappa_label = cfg["kappa"]
    cert = None
    if cfg["construct_levels"] is not None:
        cert = construct_liouville(eigs, params, cfg["construct_levels"])
        _write_json(out / "certificate.json", cert.as_dict())
        if kappa is None:
            # the distance table and fit then describe the number just built
            kappa = cert.kappa
            kappa_label = "constructed"

    _need(kappa is not None or cert is not None,
          "diophantine needs 'kappa' or 'construct_levels'")

    if kappa is not None:
        seq = distance_sequence(kappa, eigs, params, J=cfg["j_modes"])
        seq.to_csv(out / "distances.csv")
        report = {"kappa": kappa_label, "exact": seq.exact,
                  "n_modes": len(seq)}
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

    return EXIT_OK


# --------------------------------------------------------------------------- #
# decay
# --------------------------------------------------------------------------- #

def cmd_decay(cfg: ExperimentConfig, out: Path) -> int:
    path = cfg["input"]
    _need(path is not None, "decay needs 'input': a u-field CSV "
                            "(cmd_solve output composes directly)")
    with _open_text(path, f"input {path}") as fh:
        eigs = cfg.eigensequence()
        u = ModeField.from_csv(fh, eigs, J=cfg["j_modes"])
    fit = fit_decay(u, cfg.gsparams(), k_max=cfg["k_max"])
    pm = pm_seminorms(u, eigs, M_max=8, k_max=min(cfg["k_max"], 4))
    _write_text(out / "pm_table.csv", pm.to_csv())
    report = fit.as_dict()
    report["pm"] = {k: v for k, v in pm.as_dict().items() if k != "values"}
    _write_json(out / "decay.json", report)
    return EXIT_OK


# --------------------------------------------------------------------------- #
# witness
# --------------------------------------------------------------------------- #

def cmd_witness(cfg: ExperimentConfig, out: Path) -> int:
    kind = cfg["witness_kind"]
    eigs = cfg.eigensequence()
    params = cfg.params_tuple()
    sigma = cfg["params"]["sigma"]
    kw = {} if cfg["witness_n"] is None else {"N": cfg["witness_n"]}

    if kind == "auto":
        verdict, c_fn, _, eigs = _classify(cfg)
        _write_json(out / "verdict.json", verdict.as_dict())
        if verdict.decision != "notGH":
            print(f"error: the operator classifies {verdict.decision} "
                  f"(branch {verdict.branch}); no witness exists",
                  file=sys.stderr)
            return EXIT_CONFIG
        bundle = _witness_from_plan(cfg, verdict, c_fn, eigs)
    elif kind == "constant":
        _, poly = cfg.coefficient()
        _need(poly is not None and poly.is_constant,
              "witness_kind 'constant' needs a constant formula c")
        _need(poly.mean.im == 0, "the constant witness needs real c")
        bundle = constant_witness(poly.mean.re, eigs, mu=params[1], **kw)
    elif kind == "sign-change":
        c_fn, _ = cfg.coefficient()
        bundle = sign_change_witness(c_fn, eigs, params, sigma=sigma, **kw)
    elif kind == "plateau":
        _need(cfg["intervals"] is not None,
              "witness_kind 'plateau' needs 'intervals': [t0, t1]")
        c_fn, _ = cfg.coefficient()
        bundle = plateau_witness(c_fn, cfg["intervals"], eigs, sigma=sigma,
                                 params=params, **kw)
    else:  # L0: certificate mean plus the config formula as oscillation
        L = cfg["construct_levels"] or 3
        cert = construct_liouville(eigs, params, L)
        N = cfg["witness_n"] or 512
        t = grid(N)
        osc = np.zeros(N, dtype=np.complex128)
        if cfg["c"] is not None:
            poly = parse_formula(cfg["c"])
            _need(poly.is_real, "the L0 route needs a real-valued formula c")
            osc = np.asarray(poly.eval(t), dtype=np.complex128)
        c_fn = TorusFunction(float(cert.kappa) + osc)
        bundle = L0_reduction_witness(c_fn, cert, eigs, N=N)

    _emit_witness(bundle, out)
    return EXIT_OK


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
    sp.add_argument("--witness", action="store_true",
                    help="also build and verify the witness behind a notGH verdict")

    sp = sub.add_parser("diophantine",
                        help="distance tables, Liouville fit, certificates")
    common(sp)
    sp.add_argument("--kappa", help="the number to test, e.g. 1/2 or 0.70710678")
    sp.add_argument("--construct", type=int, metavar="L",
                    help="construct an L-level exponential-Liouville certificate")

    sp = sub.add_parser("decay", help="decay and seminorm diagnostics of a field")
    common(sp)
    sp.add_argument("--input", help="u-field CSV (cmd_solve output)")
    sp.add_argument("--k-max", dest="k_max", type=int, help="derivative stack depth")

    sp = sub.add_parser("witness", help="build a non-hypoellipticity witness")
    common(sp)
    sp.add_argument("--kind", choices=_WITNESS_KINDS, help="constructor family")
    sp.add_argument("--levels", type=int, help="certificate levels for the L0 route")
    return p


def _load_config(ns: argparse.Namespace) -> ExperimentConfig:
    cfg = (ExperimentConfig.from_file(ns.config) if ns.config
           else ExperimentConfig.from_json("{}"))
    over = {}
    if getattr(ns, "f_file", None):
        over["f_file"] = ns.f_file
    if getattr(ns, "witness", False):
        over["witness"] = True
    if getattr(ns, "kappa", None) is not None:
        over["kappa"] = ns.kappa
    if getattr(ns, "construct", None) is not None:
        over["construct_levels"] = ns.construct
    if getattr(ns, "input", None) is not None:
        over["input"] = ns.input
    if getattr(ns, "k_max", None) is not None:
        over["k_max"] = ns.k_max
    if getattr(ns, "kind", None) is not None:
        over["witness_kind"] = ns.kind
    if getattr(ns, "levels", None) is not None:
        over["construct_levels"] = ns.levels
    return cfg.with_overrides(**over) if over else cfg


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
        return EXIT_OK if code == 0 else EXIT_CONFIG
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = _load_config(ns)
        out = Path(ns.out)
        out.mkdir(parents=True, exist_ok=True)
        return _DISPATCH[ns.command](cfg, out)
    except (ConfigError, FormulaError) as e:
        print(f"error: {e}", file=sys.stderr)
        print(f"usage: hypotorus {ns.command} --config FILE --out DIR "
              f"[command flags]", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateData as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except WitnessUnavailable as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoCertificate, PartitionNotFound, PatternNotFound, WitnessBudgetMiss) as e:
        print(f"error: witness construction failed: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

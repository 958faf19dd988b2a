"""Seeded workload generators for the hypotorus benchmark.

Each generator turns ``(seed, work_dir)`` into a list of :class:`Op`: one
``hypotorus`` CLI call, its JSON config (written under ``work_dir``) and a
check of its outputs.  The facts a check compares against are derived here
by construction -- the sign of Im c, the planted decay rate, the residue
arithmetic of a rational -- and never by calling ``hypotorus``.

This module does not import ``hypotorus`` or numpy, so generating inputs
costs the same whatever the program under test does.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("solve-dense", "field-roundtrip", "verdicts")

RESIDUAL_MAX = 1e-8     # every mode's residual budget is at least this
DECAY_R2_MIN = 0.99


@dataclass(frozen=True)
class Op:
    """One CLI call: ``command`` is its subcommand, ``out`` its output dir."""

    name: str
    command: str
    argv: list
    out: Path
    check: Callable[[], list]


# --------------------------------------------------------------------------- #
# formula spelling
# --------------------------------------------------------------------------- #

def _harm(word: str, k: int) -> str:
    return f"{word} t" if k == 1 else f"{word} {k}t"


def _decimal(x: float) -> str:
    """x > 0 as a plain decimal with 12 significant digits.

    The formula language has no exponent notation, and the planted forcing
    reaches 1e-33 at j = 127.
    """
    places = 11 - math.floor(math.log10(x))
    return f"{x:.{max(places, 1)}f}"


def _planted_forcing(rate: float, J: int) -> dict:
    """f_j = exp(-rate (j+1)) exp(it): sup|f_j| decays at exactly ``rate``."""
    return {str(j): f"{_decimal(math.exp(-rate * (j + 1)))} exp(it)"
            for j in range(J)}


def _lambda(j: int) -> int:
    return 2 * j + 1            # harmonic1d, the default spectrum model


# --------------------------------------------------------------------------- #
# output readers used by the checks
# --------------------------------------------------------------------------- #

def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _distance_rows(path: Path) -> tuple:
    """(rows, rows with d == 0) of a distances.csv."""
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return len(rows), sum(float(r["d"]) == 0.0 for r in rows)


def _resonant_count(kappa: Fraction, J: int) -> int:
    """#{j < J : kappa * lambda_j is an integer}, i.e. q | lambda_j * p."""
    p, q = kappa.numerator, kappa.denominator
    return sum((_lambda(j) * p) % q == 0 for j in range(J))


def _guard(check: Callable[[], list]) -> Callable[[], list]:
    """A missing or malformed output file is a failed check, not a crash."""
    def run() -> list:
        try:
            return check()
        except (OSError, ValueError, KeyError, TypeError) as e:
            return [f"unreadable output: {type(e).__name__}: {e}"]
    return run


# --------------------------------------------------------------------------- #
# op builders
# --------------------------------------------------------------------------- #

def _op(work: Path, name: str, command: str, config: dict, flags: list,
        check_for: Callable[[Path], list]) -> Op:
    d = work / name
    d.mkdir(parents=True, exist_ok=True)
    cfg = d / "config.json"
    cfg.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    out = d / "out"
    argv = [command, "--config", str(cfg), "--out", str(out), *flags]
    return Op(name, command, argv, out, _guard(lambda: check_for(out)))


def _solve_op(work: Path, name: str, config: dict) -> Op:
    J = config["j_modes"]

    def check(out: Path) -> list:
        res = _json(out / "residuals.json")
        bad = []
        if res["n_resonant"] != 0:
            bad.append(f"n_resonant {res['n_resonant']} != 0")
        if res["n_defined"] != J:
            bad.append(f"n_defined {res['n_defined']} != {J}")
        if not (res["max_residual"] is not None
                and res["max_residual"] <= RESIDUAL_MAX):
            bad.append(f"max_residual {res['max_residual']} > {RESIDUAL_MAX}")
        return bad

    return _op(work, name, "solve", config, [], check)


def _classify_op(work: Path, name: str, config: dict, decision: str,
                 branch: str, witness: bool = False) -> Op:
    def check(out: Path) -> list:
        v = _json(out / "verdict.json")
        bad = []
        if (v["decision"], v["branch"]) != (decision, branch):
            bad.append(f"verdict {v['decision']}/{v['branch']}, "
                       f"expected {decision}/{branch}")
        if witness and _json(out / "witness_verify.json")["ok"] is not True:
            bad.append("witness_verify.json is not ok")
        return bad

    return _op(work, name, "classify", config,
               ["--witness"] if witness else [], check)


def _diophantine_op(work: Path, name: str, config: dict,
                    kappa: Fraction | None) -> Op:
    """kappa None: read the constructed kappa back from certificate.json."""
    J = config["j_modes"]

    def check(out: Path) -> list:
        k = kappa
        if k is None:
            frac = _json(out / "certificate.json")["kappa"]
            k = Fraction(int(frac["num"]), int(frac["den"]))
        rows, zeros = _distance_rows(out / "distances.csv")
        want = _resonant_count(k, J)
        bad = []
        if rows != J:
            bad.append(f"distances.csv has {rows} rows, expected {J}")
        if zeros != want:
            bad.append(f"{zeros} resonant rows, expected {want}")
        return bad

    return _op(work, name, "diophantine", config, [], check)


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #

def solve_dense(rng: random.Random, work: Path) -> list:
    """Sign-definite Im c: nearly every mode takes dense collocation."""
    # Im c = s (1 - cos t) >= 0 is not identically 0.  Mode j leaves the
    # integral path once lambda_j * osc(Im C) = (2j + 1) * 2s > 10, so both
    # scales send the same 125 of 128 modes to collocation.
    s = rng.choice(["3/4", "1"])
    a = rng.choice(["1/10", "1/5", "3/10"])
    config = {
        "c": f"i({s} - {s} cos t) + {a} {_harm('cos', rng.choice([1, 2, 3]))}",
        "f": _planted_forcing(round(rng.uniform(0.3, 0.6), 3), 128),
        "grid_n": 512,
        "j_modes": 128,
    }
    return [_solve_op(work, "solve", config)]


def field_roundtrip(rng: random.Random, work: Path) -> list:
    """Real c with nonresonant mean: integral path, then a CSV round trip."""
    J = 128
    rate = round(rng.uniform(0.3, 0.6), 3)
    # mean p/q with q even and p odd: lambda_j * p / q is never an integer
    mean = rng.choice(["1/2", "1/4", "3/4", "1/6", "5/6"])
    amp = rng.choice(["1/10", "1/5", "3/10"])
    solve_cfg = {
        "c": f"{mean} + {amp} {_harm('cos', rng.choice([1, 2, 3]))}",
        "f": _planted_forcing(rate, J),
        "grid_n": 1024,
        "j_modes": J,
    }
    solve = _solve_op(work, "solve", solve_cfg)

    def check(out: Path) -> list:
        d = _json(out / "decay.json")
        bad = []
        # |u_j| = |f_j| / |1 + lambda_j c0| up to the oscillation, so the
        # fitted rate sits at or above the planted one
        if not (d["epsilon"] is not None and d["epsilon"] >= rate):
            bad.append(f"epsilon {d['epsilon']} < planted rate {rate}")
        if not (d["r2"] is not None and d["r2"] >= DECAY_R2_MIN):
            bad.append(f"r2 {d['r2']} < {DECAY_R2_MIN}")
        return bad

    decay = _op(work, "decay", "decay", {"j_modes": J},
                ["--input", str(solve.out / "u_field.csv")], check)
    return [solve, decay]


def verdicts(rng: random.Random, work: Path) -> list:
    """Decision calls only: classify, witness, exact distance tables."""
    k = rng.choice([1, 2, 3])
    ops = [
        # Im c = b sin kt changes sign with simple zeros; (a0 + b) * 1023
        # stays below the witness band limit 0.45 * 8192 / 2
        _classify_op(work, "classify-sign-change", {
            "c": f"{rng.choice(['1/4', '1/2', '3/4'])} + "
                 f"i {rng.choice(['1/2', '3/4', '1'])} {_harm('sin', k)}",
            "j_modes": 512, "witness_n": 8192,
        }, "notGH", "thm-3.15-sign-change", witness=True),
        # Im c = b0 + b1 sin kt with b0 > b1 > 0 never vanishes
        _classify_op(work, "classify-sign-definite", {
            "c": f"{rng.choice(['1/5', '1/2'])} {_harm('cos', k)} + "
                 f"i({rng.choice(['1', '3/2'])} + "
                 f"{rng.choice(['1/4', '1/2'])} {_harm('sin', rng.choice([1, 2, 3]))})",
        }, "GH", "thm-3.10-sign"),
    ]
    # real c, mean p/q with odd q: lambda_j = q resonates
    q = rng.choice([3, 5, 7])
    p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
    ops.append(_classify_op(work, "classify-resonant", {
        "c": f"{p}/{q} + {rng.choice(['1/5', '1/3'])} {_harm('cos', k)}",
    }, "notGH", "prop-3.9-resonance"))
    q = rng.randint(3, 16)
    p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
    ops.append(_diophantine_op(work, "diophantine-rational", {
        "kappa": f"{p}/{q}", "j_modes": 65536,
    }, Fraction(p, q)))
    ops.append(_diophantine_op(work, "diophantine-construct", {
        "construct_levels": 3, "j_modes": rng.choice([64, 128, 256]),
    }, None))
    return ops


_GENERATORS = {
    "solve-dense": solve_dense,
    "field-roundtrip": field_roundtrip,
    "verdicts": verdicts,
}


def generate(workload: str, seed: int, work: Path) -> list:
    """The workload's ops for ``seed``, with configs written under ``work``."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, work)

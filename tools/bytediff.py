#!/usr/bin/env python3
"""Byte-compare the CLI outputs of two source trees.

    python tools/bytediff.py PARENT_TREE CHANGE_TREE OUT_DIR

Runs the same CLI calls under each tree, in OUT_DIR/parent and
OUT_DIR/change, with PYTHONPATH=<tree>/src and OPENBLAS_NUM_THREADS=1:
every cookbook config, the ops of the three benchmark workloads for seeds 1
and 101 (CHANGE_TREE/perfbench/workloads.py), seven extra solve configs,
three decays of the notgh solve's field (k_max 4, 0 and 7), eleven
diophantine tables (every integer eigenvalue kind, a negative kappa, a
denominator near 2^60, a decimal, a float-valued table, an integer table
beyond 2^64, and three J = 65536 tables on either side of the
distinct-value rule of distances.csv: 5/13 and 12345/32771, whose 7 and
16386 possible distances are at most three quarters of the rows and are
rendered once each, and 12345/131101, whose 65551 exceed them and are
rendered value by value), one witness per
constructor, a constant one at denominator 20001, a constant one on the
auto route (classify, then its plan), and five more sign-change witnesses:
the mirrored window of a negative table, a drifting Im c, two harmonics,
1/2 + i sin 4t at the default witness_n, which misses its residual budget
and exits 1, and 1/2 + i sin t on harmonic1d_power 2, whose levels are no
arithmetic progression and take every exp directly (the other bump
witnesses run on arithmetic spectra and take one exp per row chunk).  Three classify --witness calls: 1/2 + i sin 4t, which
misses its budget, exits 0 and writes witness_plan.json; the plateau c,
whose variable-plateau verdict carries a sign_report and whose witness
writes a plateau manifest; and 1/2 + i 3/4 sin 2t at benchmark size
(j_modes 512, witness_n 8192).
Band widths of the forcing store: the benchmark sign-change ops cover
k = 3 (seed 1, f on 24% of the columns) and k = 1 (seed 101, 49%), the
sin 2t classify call 36%, and the constant witnesses none (f_j = 0).
Some extras read CSVs the tool writes, so every CSV reader of the CLI
(decay input, f_file, c_file) runs.
Prints every file and exit code that differs; exits 1 if any does.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

EXTRA = {   # solve configs; notgh: Im c changes sign, collocation misses its budget
    "notgh": {"c": "1/2 + i sin t", "grid_n": 1024, "j_modes": 64,
              "f": {str(j): "exp(it)" for j in range(64)}},
    "all-resonant": {"c": "1/3", "grid_n": 64, "j_modes": 8,
                     "f": {str(j): "exp(it)" for j in (1, 4)}},
    "mixed": {"c": "1/3", "grid_n": 64, "j_modes": 8,
              "f": {str(j): "exp(it)" for j in (1, 2, 4)}},
    "f-file": {"c": "1/2 + 1/5 cos t", "grid_n": 64, "j_modes": 8,
               "f_file": "extra/f_modes.csv"},
    "c-file": {"c_file": "extra/c_samples.csv", "grid_n": 64, "j_modes": 8,
               "f": {"1": "exp(it)", "5": "exp(2it)"}},
    # batches over more than one chunk of rows: the integral path, and
    # banded collocation (256 modes per chunk at this grid)
    "chunks-integral": {"c": "1/2 + 3/10 cos t", "grid_n": 1024, "j_modes": 300,
                        "f": {str(j): "exp(it)" for j in range(300)}},
    "chunks-banded": {"c": "i(1 - cos t)", "grid_n": 512, "j_modes": 300,
                      "f": {str(j): "exp(it)" for j in range(300)}},
}
# decays of the notgh field: k_max 4 (the default), 0 (a one-column pm table)
# and 7 (fit_decay's stack deeper than pm_seminorms' min(k_max, 4))
DECAY = {"decay": {"j_modes": 64}, "decay-k0": {"j_modes": 64, "k_max": 0},
         "decay-k7": {"j_modes": 64, "k_max": 7}}
WITNESS = {  # one witness call per constructor; sign-change also runs in the benchmark ops
    "constant": {"c": "1/3", "witness_kind": "constant", "witness_n": 8, "j_modes": 16},
    "constant-q20001": {"c": "1/20001", "witness_kind": "constant", "j_modes": 16},
    "constant-auto": {"c": "1/3", "j_modes": 16},
    "L0": {"c": "3/10 cos t", "witness_kind": "L0", "construct_levels": 3, "j_modes": 40},
    "plateau": {"c_file": "extra/c_plateau.csv", "witness_kind": "plateau",
                "intervals": [1.5, 3.5], "witness_n": 1024, "j_modes": 16},
    # sign-change windows beyond the benchmark's b sin kt: the mirrored
    # (argmin) window of a negative table, a drifting primitive, two
    # harmonics, and a witness that misses its residual budget (exit 1)
    "sign-change-mirrored": {"c": "1/2 + i sin 2t", "witness_kind": "sign-change",
                             "witness_n": 2048, "j_modes": 32,
                             "model": {"kind": "table",
                                       "values": [-(2 * j + 1) for j in range(32)]}},
    "sign-change-drift": {"c": "1/4 + i(1/5 + sin t)", "witness_kind": "sign-change",
                          "witness_n": 2048, "j_modes": 64},
    "sign-change-two-harmonics": {"c": "1/4 + i(sin t - 1/3 sin 2t)",
                                  "witness_kind": "sign-change"},
    "sign-change-miss": {"c": "1/2 + i sin 4t", "j_modes": 64},
    # lambda_j = (2j + 1)^2 is no arithmetic progression: every exp direct
    "sign-change-power2": {"c": "1/2 + i sin t", "witness_kind": "sign-change",
                           "witness_n": 2048, "j_modes": 8,
                           "model": {"kind": "harmonic1d_power 2"}},
}

CLASSIFY = {  # classify --witness: a plan written on a budget miss, a plateau, benchmark size
    "witness-miss": {"c": "1/2 + i sin 4t", "j_modes": 64, "witness": True},
    "plateau": {"c_file": "extra/c_plateau.csv", "grid_n": 1024, "j_modes": 16,
                "intervals": [1.5, 3.5], "witness": True},
    "sign-change-k2": {"c": "1/2 + i 3/4 sin 2t", "j_modes": 512, "witness_n": 8192,
                       "witness": True},
}

DIOPHANTINE = {  # exact tables on every integer kind, and the float table
    "nd3": {"kappa": "5/11", "model": {"kind": "harmonic_nd 3"}, "j_modes": 4096},
    "power2": {"kappa": "7/16", "model": {"kind": "harmonic1d_power 2"}, "j_modes": 4096},
    "table": {"kappa": "3/7", "j_modes": 256,
              "model": {"kind": "table", "values": [j * j + 1 for j in range(256)]}},
    "negative": {"kappa": "-3/7", "j_modes": 1024},
    "q2e60": {"kappa": "987654321987654321/1152921504606846977", "j_modes": 4096},
    "decimal": {"kappa": "0.7071067811865476", "j_modes": 4096},
    # both lambda spellings of distances.csv: repr floats (1e+16 is no int
    # literal) and integers beyond 64 bits
    "float-table": {"kappa": "0.3", "j_modes": 8,
                    "model": {"kind": "table", "values": [1.5, 2.5, 1e16, 3e16, 1e17,
                                                          2.5e17, 1e20, 1.25e22]}},
    "table-2e64": {"kappa": "3/7", "j_modes": 64,
                   "model": {"kind": "table", "values": [2**64 + j * j for j in range(64)]}},
    # distances.csv rendered once per distinct distance, and value by value
    "distinct-q13": {"kappa": "5/13", "j_modes": 65536},
    "distinct-q32771": {"kappa": "12345/32771", "j_modes": 65536},
    "by-value-q131101": {"kappa": "12345/131101", "j_modes": 65536},
}


def _bump(t: float, a: float, g: float, d: float, b: float) -> float:
    """The order-2 Gevrey bump: 0 off (a, b), 1 on [g, d], steps built from
    the ramp exp(-1/x)."""
    def step(x):
        r = lambda y: math.exp(-1.0 / y) if y > 0.0 else 0.0
        return 0.0 if x <= 0.0 else 1.0 if x >= 1.0 else r(x) / (r(x) + r(1.0 - x))
    return step((t - a) / (g - a)) * step((b - t) / (b - d))


def inputs() -> dict:
    """A mode CSV (modes 1, 3, 6) and a sample CSV of c on a 64-point grid,
    with long, varied digits and signed zeros; and a c on the 1024-point grid
    whose Im c is + on (0.5, 1.5), exactly 0 on [1.5, 3.5] and - on (3.5, 4.5)."""
    t = [2.0 * math.pi * i / 64 for i in range(64)]
    f = "".join(f"{j},{s!r},{math.sin(j * s + 1) / 7 ** j!r},"
                f"{-0.0 if j == 3 else math.cos(s) / j!r}\n" for j in (1, 3, 6) for s in t)
    c = "".join(f"{s!r},{0.5 + math.cos(s) / 3!r},{(1 - math.cos(s)) / 10!r}\n" for s in t)
    t = [2.0 * math.pi * i / 1024 for i in range(1024)]
    p = "".join(f"{s!r},0.0,{4.0 * (_bump(s, 0.5, 0.95, 1.05, 1.5) - _bump(s, 3.5, 3.95, 4.05, 4.5))!r}\n"
                for s in t)
    return {"f_modes.csv": "j,t,re,im\n" + f, "c_samples.csv": "t,re,im\n" + c,
            "c_plateau.csv": "t,re,im\n" + p}


def calls(change: Path, workloads) -> list:
    """Write the generated configs under the working directory; return the
    calls as (name, argv), the output paths relative to that directory."""
    out = []
    cook = sorted((change / "cookbook").glob("*.json"),
                  key=lambda p: (not p.name.startswith("solve"), p.name))
    for p in cook:  # solve configs first: decay reads the first one's field
        cmd = p.name.split("_", 1)[0]
        argv = [cmd, "--config", str(p), "--out", f"cookbook/{p.stem}"]
        if cmd == "decay":
            argv += ["--input", f"cookbook/{cook[0].stem}/u_field.csv"]
        out.append((f"cookbook/{p.stem}", argv))
    for w in workloads.WORKLOADS:
        for seed in (1, 101):
            out += [(f"{w}-{seed}/{op.name}", [str(a) for a in op.argv])
                    for op in workloads.generate(w, seed, Path(f"{w}-{seed}"))]
    Path("extra").mkdir()
    for name, text in inputs().items():
        Path("extra", name).write_text(text)
    for name, cfg in EXTRA.items():
        Path("extra", f"{name}.json").write_text(json.dumps(cfg, indent=1))
        out.append((f"extra/{name}", ["solve", "--config", f"extra/{name}.json",
                                      "--out", f"extra/{name}"]))
    for name, cfg in DECAY.items():
        Path("extra", f"{name}.json").write_text(json.dumps(cfg))
        out.append((f"extra/notgh-{name}", ["decay", "--config", f"extra/{name}.json", "--input",
                                            "extra/notgh/u_field.csv",
                                            "--out", f"extra/notgh-{name}"]))
    for name, cfg in DIOPHANTINE.items():
        Path("extra", f"diophantine-{name}.json").write_text(json.dumps(cfg, indent=1))
        out.append((f"extra/diophantine-{name}", ["diophantine", "--config",
                                                  f"extra/diophantine-{name}.json",
                                                  "--out", f"extra/diophantine-{name}"]))
    for name, cfg in WITNESS.items():
        Path("extra", f"witness-{name}.json").write_text(json.dumps(cfg, indent=1))
        out.append((f"extra/witness-{name}", ["witness", "--config", f"extra/witness-{name}.json",
                                              "--out", f"extra/witness-{name}"]))
    for name, cfg in CLASSIFY.items():
        Path("extra", f"classify-{name}.json").write_text(json.dumps(cfg, indent=1))
        out.append((f"extra/classify-{name}", ["classify", "--witness", "--config",
                                               f"extra/classify-{name}.json",
                                               "--out", f"extra/classify-{name}"]))
    return out


def run(tree: Path, side: Path, change: Path, workloads) -> dict:
    """Exit code of every call, run under ``tree`` with ``side`` as cwd."""
    side.mkdir(parents=True)
    os.chdir(side)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    return {name: subprocess.run([sys.executable, "-m", "hypotorus.cli", *argv],
                                 env=env, capture_output=True).returncode
            for name, argv in calls(change, workloads)}


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change, out = (Path(a).resolve() for a in argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(change / "perfbench"))
    import workloads
    codes = {s: run(t, out / s, change, workloads)
             for s, t in (("parent", parent), ("change", change))}
    diffs = [f"exit code {k}: {codes['parent'][k]} -> {codes['change'][k]}"
             for k in codes["parent"] if codes["parent"][k] != codes["change"][k]]
    files = {s: {p.relative_to(out / s) for p in (out / s).rglob("*") if p.is_file()}
             for s in codes}
    for rel in sorted(files["parent"] | files["change"]):
        a, b = out / "parent" / rel, out / "change" / rel
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            diffs.append(f"file {rel}")
    print("\n".join(diffs) or f"identical: {len(files['change'])} files, "
          f"{len(codes['change'])} exit codes")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Byte-compare the CLI outputs of two source trees.

    python tools/bytediff.py PARENT_TREE CHANGE_TREE OUT_DIR

Runs the same CLI calls under each tree, in OUT_DIR/parent and
OUT_DIR/change, with PYTHONPATH=<tree>/src and OPENBLAS_NUM_THREADS=1:
every cookbook config, the ops of the three benchmark workloads for seeds 1
and 101 (CHANGE_TREE/perfbench/workloads.py), sixteen extra solve configs
(three refused with exit 1: an f_file with non-finite samples, an f_file on
a grid too coarse for c's cos 20t, and three f keys that name one mode; one
a complex constant c at lambda up to 701, where |2 pi lambda Im c| > 700;
one whose c_file and f_file have spaced headers, blank lines and CRLF ends;
one whose c has band half-width 20 on a 64-point grid, so its collocation
modes take the dense solve, mode by mode; one whose 43 defined modes are
odd in number with gaps between them, c = 1/3 + 1/5 cos t at J = 65, where
the modes with lambda = 0 mod 3 are resonant and the run exits 2, so the
blocks of u_field.csv are taken over defined modes; and one whose f_j,
1e-300 to 3e-327 written as plain decimals, give a field of 3-digit
exponents, subnormals down to 5e-324, exact zeros and -0.0 for the float
kernel of csvio),
three decays of the notgh solve's field (k_max 4, 0 and 7), two decays
of a generated 40-mode field of about 3 MB, above the size from which
csvio.SampleRows parses a file in two processes (CRLF ends and a blank line
at the middle row, exit 0; and one malformed re value in the second half,
refused with exit 1, so the split reader's fallback and its message run),
eleven
diophantine tables (every integer eigenvalue kind, a negative kappa, a
denominator near 2^60, a decimal, a float-valued table, an integer table
beyond 2^64, and three J = 65536 tables on either side of the
distinct-value rule of distances.csv: 5/13 and 12345/32771, whose 7 and
16386 possible distances are at most three quarters of the rows and are
rendered once each, and 12345/131101, whose 65551 exceed them and are
rendered value by value), one witness per
constructor, a constant one at denominator 20001, a constant one on the
auto route (classify, then its plan), and ten more sign-change witnesses:
the mirrored window of a negative table, a drifting Im c, two harmonics,
1/2 + i sin 4t at the default witness_n, which misses its residual budget
and exits 1, 1/2 + i sin t on harmonic1d_power 2, whose levels are no
arithmetic progression and take every exp directly (the other bump
witnesses run on arithmetic spectra and take one exp per row chunk),
a c with cos 300t on a 512-point witness grid, refused with exit 1,
40 levels at witness_n 2048, whose last row chunk holds 8 rows after one
of 32, 5 levels at witness_n 8192, which fit one row chunk and so run on
one thread, 100 levels at witness_n 8192, twelve row chunks of 8 and a
short last one of 4, which the witness pass's two threads may fill before
a full one, and a mixed-sign table, whose positive subsequence is sampled.
One more plateau witness, on harmonic1d_power 2 at witness_n 8192: its two
bumps take every exp directly, in row chunks of 8 + 8 + 4.
Five plain classify calls on c whose verdict follows the exact mean:
1/3 + 1e-10 + cos t, 1/65 + cos t and 1/2000003 + cos t, and two whose
oscillation is below 1e-12, 1/65 + 1e-13 cos t and 1/3 + 1e-13 i cos t.
One on the constant formula 1/3 over the float-valued table 0.7 (j + 1),
j < 64, the one formula call that reaches the float-constant route: it
drops the two resonances that float rounding leaves (j + 1 = 30 and 60)
and takes the distance fit.
Three more on c_file samples, whose routes no formula on an integer
spectrum reaches: a constant
0.1 (the float-constant route with its distance fit), a real mean 1/3
whose Im c has two fat zero runs with same-sign flanks (the resonant-mean
rescue), and a real 0.7071067811865476 + cos t, whose grid mean snaps to
no rational (the reduction to a float mean).  They record the bytes of
today's sampled route and assert no verdict.
Five classify --witness calls: 1/2 + i sin 4t, which
misses its budget, exits 0 and writes witness_plan.json; the plateau c,
whose variable-plateau verdict carries a sign_report and whose witness
writes a plateau manifest; 1/2 + i 3/4 sin 2t at benchmark size
(j_modes 512, witness_n 8192); and two whose plan no packaged constructor
honours, so they write witness_plan.json: 1/3 + cos t, whose notGH
verdict follows its resonant mean, and the plateau c without intervals,
whose longest zero run wraps t = 0 with flanks (-, 0, +).
Band widths of the forcing store: the benchmark sign-change ops cover
k = 3 (seed 1, f on 24% of the columns) and k = 1 (seed 101, 49%), the
sin 2t classify call 36%, and the constant witnesses none (f_j = 0).
Some extras read CSVs the tool writes, so every CSV reader of the CLI
(decay input, f_file, c_file) runs.
Compares every output file, every exit code and every call's stderr (with
the tree and out-dir paths read as <tree> and <out>), so a changed error
message or line number shows.  Prints each that differs; exits 1 if any
does.
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
    # band half-width d = 2 with partial pivoting (312 of 512 columns swap rows)
    "banded-pivot-d2": {"c": "i(1/10 - 1/10 cos t) + 2 cos 2t", "grid_n": 512, "j_modes": 64,
                        "f": {str(j): "exp(it)" for j in range(64)}},
    # an f_file with one inf (mode 1) and one nan (mode 2): refused, exit 1
    "f-file-nonfinite": {"c": "1/2 + 1/5 cos t", "grid_n": 16, "j_modes": 4,
                         "f_file": "extra/f_nonfinite.csv"},
    # complex constant c, |2 pi lambda b0| > 700 at lambda = 601 and 701
    "complex-constant-large-lambda": {"c": "3/10 + 1/5 i", "grid_n": 64, "j_modes": 400,
                                      "f": {"10": "exp(it)", "300": "exp(it)",
                                            "350": "exp(2it)"}},
    # c has cos 20t, the f_file a 16-point grid: refused, exit 1
    "f-file-coarse": {"c": "1/2 + 1/5 cos 20t", "grid_n": 256, "j_modes": 4,
                      "f_file": "extra/f_coarse.csv"},
    # three f keys that name mode 1: refused, exit 1
    "f-duplicate-keys": {"c": "1/2 + 1/5 cos t", "grid_n": 16, "j_modes": 4,
                         "f": {"1": "exp(it)", "01": "2 exp(it)", " 1": "3 exp(it)"}},
    # the inputs of f-file and c-file in the variants the readers tolerate
    "spaced-csv": {"c_file": "extra/c_spaced.csv", "f_file": "extra/f_spaced.csv",
                   "grid_n": 64, "j_modes": 8},
    # band half-width d = 20 (the cos 20t of c): 8(3d + 1) > 64, so every
    # collocation mode takes the dense branch of modes._solve_collocation
    "dense-collocation": {"c": "1/2 + i(1 - cos t) + 1/10 cos 20t", "grid_n": 64, "j_modes": 16,
                          "f": {**{str(j): "exp(it)" for j in (0, 1, 2, 3, 9)},
                                "5": "exp(2it)", "15": "exp(-it)"}},
    # 22 of 65 modes resonant (lambda = 0 mod 3), exit 2: u_field.csv holds
    # 43 modes with gaps, 4 x 43 x 1024 cells, in several blocks
    "split-odd-gaps": {"c": "1/3 + 1/5 cos t", "grid_n": 1024, "j_modes": 65,
                       "f": {str(j): "exp(it)" for j in range(65)}},
    # f_j of 1e-300 to 3e-327: the field's cells take 3-digit exponents, and
    # 1788 of its 2816 floats are subnormal, 160 zero and 33 of those -0.0
    "subnormal-field": {"c": "1/2 + 1/5 cos t", "grid_n": 64, "j_modes": 22,
                        "f": {str(j): f"0.{'0' * (299 + j)}1 exp(it) + "
                                      f"0.{'0' * (305 + j)}3 exp(-3it)" for j in range(22)}},
}
# decays of the notgh field: k_max 4 (the default), 0 (a one-column pm table)
# and 7 (fit_decay's stack deeper than pm_seminorms' min(k_max, 4))
DECAY = {"decay": {"j_modes": 64}, "decay-k0": {"j_modes": 64, "k_max": 0},
         "decay-k7": {"j_modes": 64, "k_max": 7}}
# decays of a generated field above csvio._SPLIT_BYTES, so its parse is
# split in two processes: CRLF ends with a blank line at the middle row
# (exit 0), and the same field with one malformed re value in the second
# half (exit 1, its message and line number on stderr)
SPLIT_DECAY = {"decay-split": "field_split.csv", "decay-split-bad": "field_split_bad.csv"}
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
    # c has cos 300t, the witness grid 512 points: refused, exit 1
    "sign-change-coarse": {"c": "1/2 + i sin t + 1/10 cos 300t", "grid_n": 1024,
                           "j_modes": 8, "witness_kind": "sign-change", "witness_n": 512},
    # the chunks of rows that a witness fills one at a time: a last chunk
    # of 8 rows after one of 32; two bumps whose levels take every exp
    # directly, in chunks of 8 + 8 + 4 (the second bump adds over whole
    # rows); and a mixed-sign table, whose positive subsequence is sampled
    "sign-change-partial-chunk": {"c": "1/2 + i sin t", "witness_kind": "sign-change",
                                  "witness_n": 2048, "j_modes": 40},
    "plateau-power2": {"c_file": "extra/c_plateau_8192.csv", "witness_kind": "plateau",
                       "intervals": [1.5, 3.5], "grid_n": 8192, "witness_n": 8192,
                       "j_modes": 20, "model": {"kind": "harmonic1d_power 2"}},
    "sign-change-mixed-table": {"c": "1/2 + i sin t", "witness_kind": "sign-change",
                                "witness_n": 2048, "j_modes": 48,
                                "model": {"kind": "table",
                                          "values": [(-1) ** j * (2 * j + 1) for j in range(48)]}},
    # 5 levels in one chunk of 8 rows: the pass runs on one thread
    "sign-change-one-chunk": {"c": "1/2 + i sin t", "witness_kind": "sign-change",
                              "witness_n": 8192, "j_modes": 5},
    # 12 chunks of 8 rows, then one of 4: the two threads claim chunks by
    # demand, so the short last chunk may be filled before a full one
    "sign-change-short-tail": {"c": "1/2 + i sin t", "witness_kind": "sign-change",
                               "witness_n": 8192, "j_modes": 100},
}

CLASSIFY = {  # classify --witness: a plan written on a budget miss, a plateau, benchmark size
    "witness-miss": {"c": "1/2 + i sin 4t", "j_modes": 64, "witness": True},
    "plateau": {"c_file": "extra/c_plateau.csv", "grid_n": 1024, "j_modes": 16,
                "intervals": [1.5, 3.5], "witness": True},
    "sign-change-k2": {"c": "1/2 + i 3/4 sin 2t", "j_modes": 512, "witness_n": 8192,
                       "witness": True},
    # plans written, not built: a resonant mean of a variable c, and a
    # plateau run that wraps t = 0 (no intervals)
    "resonant-mean-variable": {"c": "1/3 + cos t", "j_modes": 16, "witness": True},
    "plateau-no-intervals": {"c_file": "extra/c_plateau.csv", "grid_n": 1024, "j_modes": 16,
                             "witness": True},
}

VERDICT = {  # plain classify: c whose verdict follows its exact mean
    "mean-near-third": {"c": "1/3 + 1/10000000000 + cos t", "j_modes": 64},
    "mean-q65": {"c": "1/65 + cos t", "j_modes": 64},
    "mean-q2000003": {"c": "1/2000003 + cos t", "j_modes": 64},
    "mean-tiny-cos-q65": {"c": "1/65 + 1/10000000000000 cos t", "j_modes": 64},
    "mean-tiny-icos-third": {"c": "1/3 + 1/10000000000000 i cos t", "j_modes": 64},
    # a constant formula on a spectrum that is no integer kind: the float route
    "constant-third-float-table": {"c": "1/3", "j_modes": 64,
                                   "model": {"kind": "table",
                                             "values": [0.7 * (j + 1) for j in range(64)]}},
    # sampled c on routes no formula on an integer spectrum reaches: a
    # constant whose value is no small-denominator rational (the
    # float-constant route and its distance fit), and a real mean 1/3 with
    # Im c zero on two plateaus whose flanks share a sign (no (+, 0, -)
    # pattern: the resonant-mean rescue decides)
    "c-file-constant": {"c_file": "extra/c_constant.csv", "grid_n": 64, "j_modes": 64},
    "c-file-resonant-mean": {"c_file": "extra/c_same_sign_plateaus.csv", "grid_n": 1024,
                             "j_modes": 16},
    # a real c whose grid mean snaps to no rational: the reduction to the
    # mean takes the float constant
    "c-file-unsnapped-mean": {"c_file": "extra/c_unsnapped_mean.csv", "grid_n": 64,
                              "j_modes": 64},
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
    with long, varied digits and signed zeros, and both again with spaced
    headers, a blank line after every fifth row and CRLF ends; a mode CSV
    (modes 0, 1, 2) on a 16-point grid with re = inf at one sample of mode 1
    and im = nan at one of mode 2; a mode CSV with mode 1 = e^{it} on a
    16-point grid; and a c whose Im c is + on (0.5, 1.5), exactly 0 on
    [1.5, 3.5] and - on (3.5, 4.5), on the 1024-point grid (amplitude 4)
    and on the 8192-point grid (amplitude 1); a constant c = 0.1 and a real
    c = 0.7071067811865476 + cos t on the 64-point grid; and on the
    1024-point grid a c = 1/3 + cos t + i sin t w(t),
    where w = 1 - bump(t) - bump(2 pi - t) vanishes on [1.07, 2.07] and on
    its mirror image, so Im c has mean 0, crosses zero at 0 and pi, and has
    a (+, 0, +) and a (-, 0, -) run; and on the same grid a 40-mode field
    u_j = e^{-j/2} (cos(t + j) + i sin(2t) / 3) with CRLF ends and a blank
    line at the middle row, also with one re value three quarters down
    spelled 0.5x."""
    t = [2.0 * math.pi * i / 64 for i in range(64)]
    f = "".join(f"{j},{s!r},{math.sin(j * s + 1) / 7 ** j!r},"
                f"{-0.0 if j == 3 else math.cos(s) / j!r}\n" for j in (1, 3, 6) for s in t)
    c = "".join(f"{s!r},{0.5 + math.cos(s) / 3!r},{(1 - math.cos(s)) / 10!r}\n" for s in t)
    t = [2.0 * math.pi * i / 16 for i in range(16)]
    g = "".join(f"{j},{s!r},{'inf' if (j, i) == (1, 5) else repr(math.cos(s))},"
                f"{'nan' if (j, i) == (2, 9) else repr(math.sin(s))}\n"
                for j in range(3) for i, s in enumerate(t))
    e = "".join(f"1,{s!r},{math.cos(s)!r},{math.sin(s)!r}\n" for s in t)
    def plateau(n, amp):
        t = [2.0 * math.pi * i / n for i in range(n)]
        return "t,re,im\n" + "".join(
            f"{s!r},0.0,{amp * (_bump(s, 0.5, 0.95, 1.05, 1.5) - _bump(s, 3.5, 3.95, 4.05, 4.5))!r}\n"
            for s in t)

    t = [2.0 * math.pi * i / 1024 for i in range(1024)]
    w = [1.0 - _bump(s, 0.57, 1.07, 2.07, 2.57) - _bump(2.0 * math.pi - s, 0.57, 1.07, 2.07, 2.57)
         for s in t]
    same = "".join(f"{s!r},{1 / 3 + math.cos(s)!r},{math.sin(s) * v!r}\n" for s, v in zip(t, w))

    def split_field(bad: bool) -> str:
        rows = [f"{j},{s!r},{math.exp(-j / 2) * math.cos(s + j)!r},"
                f"{math.exp(-j / 2) * math.sin(2 * s) / 3!r}" for j in range(40) for s in t]
        if bad:
            j, s, re, im = rows[3 * len(rows) // 4].split(",")
            rows[3 * len(rows) // 4] = ",".join((j, s, "0.5x", im))
        rows.insert(len(rows) // 2, "")
        return "j,t,re,im\r\n" + "".join(r + "\r\n" for r in rows)

    def spaced(header, rows):
        lines = [r + ("\r\n\r\n" if k % 5 == 4 else "\r\n")
                 for k, r in enumerate(rows.splitlines())]
        return header + "\r\n\r\n" + "".join(lines)

    return {"f_modes.csv": "j,t,re,im\n" + f, "c_samples.csv": "t,re,im\n" + c,
            "f_spaced.csv": spaced("j , t, re ,im", f), "c_spaced.csv": spaced(" t, re, im", c),
            "f_nonfinite.csv": "j,t,re,im\n" + g, "f_coarse.csv": "j,t,re,im\n" + e,
            "c_plateau.csv": plateau(1024, 4.0), "c_plateau_8192.csv": plateau(8192, 1.0),
            "c_constant.csv": "t,re,im\n" + "".join(f"{2.0 * math.pi * i / 64!r},0.1,0.0\n"
                                                      for i in range(64)),
            "c_unsnapped_mean.csv": "t,re,im\n" + "".join(
                f"{s!r},{0.7071067811865476 + math.cos(s)!r},0.0\n"
                for s in (2.0 * math.pi * i / 64 for i in range(64))),
            "c_same_sign_plateaus.csv": "t,re,im\n" + same,
            "field_split.csv": split_field(False), "field_split_bad.csv": split_field(True)}


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
    Path("extra", "decay-split.json").write_text(json.dumps({"j_modes": 40}))
    for name, field in SPLIT_DECAY.items():
        out.append((f"extra/{name}", ["decay", "--config", "extra/decay-split.json", "--input",
                                      f"extra/{field}", "--out", f"extra/{name}"]))
    for name, cfg in DIOPHANTINE.items():
        Path("extra", f"diophantine-{name}.json").write_text(json.dumps(cfg, indent=1))
        out.append((f"extra/diophantine-{name}", ["diophantine", "--config",
                                                  f"extra/diophantine-{name}.json",
                                                  "--out", f"extra/diophantine-{name}"]))
    for name, cfg in WITNESS.items():
        Path("extra", f"witness-{name}.json").write_text(json.dumps(cfg, indent=1))
        out.append((f"extra/witness-{name}", ["witness", "--config", f"extra/witness-{name}.json",
                                              "--out", f"extra/witness-{name}"]))
    for name, cfg in VERDICT.items():
        Path("extra", f"verdict-{name}.json").write_text(json.dumps(cfg, indent=1))
        out.append((f"extra/verdict-{name}", ["classify", "--config", f"extra/verdict-{name}.json",
                                              "--out", f"extra/verdict-{name}"]))
    for name, cfg in CLASSIFY.items():
        Path("extra", f"classify-{name}.json").write_text(json.dumps(cfg, indent=1))
        out.append((f"extra/classify-{name}", ["classify", "--witness", "--config",
                                               f"extra/classify-{name}.json",
                                               "--out", f"extra/classify-{name}"]))
    return out


def run(tree: Path, side: Path, change: Path, workloads) -> dict:
    """(exit code, stderr) of every call, run under ``tree`` with ``side``
    as cwd; in stderr the two directories read ``<tree>`` and ``<out>``."""
    side.mkdir(parents=True)
    os.chdir(side)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    done = {}
    for name, argv in calls(change, workloads):
        r = subprocess.run([sys.executable, "-m", "hypotorus.cli", *argv],
                           env=env, capture_output=True)
        err = r.stderr.decode("utf-8", "replace")
        done[name] = r.returncode, err.replace(str(side), "<out>").replace(str(tree), "<tree>")
    return done


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change, out = (Path(a).resolve() for a in argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(change / "perfbench"))
    import workloads
    done = {s: run(t, out / s, change, workloads)
            for s, t in (("parent", parent), ("change", change))}
    diffs = []
    for k, (code, err) in done["parent"].items():
        new_code, new_err = done["change"][k]
        if code != new_code:
            diffs.append(f"exit code {k}: {code} -> {new_code}")
        if err != new_err:
            diffs.append(f"stderr {k}")
    files = {s: {p.relative_to(out / s) for p in (out / s).rglob("*") if p.is_file()}
             for s in done}
    for rel in sorted(files["parent"] | files["change"]):
        a, b = out / "parent" / rel, out / "change" / rel
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            diffs.append(f"file {rel}")
    print("\n".join(diffs) or f"identical: {len(files['change'])} files, "
          f"{len(done['change'])} exit codes and stderr streams")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

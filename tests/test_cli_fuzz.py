"""Fuzz of the command line: every config ends in an exit code, never a crash.

Each config runs through ``cli.main`` in a child process with its address
space capped (``RLIMIT_AS``) and a time limit.  The children are forked from
one server process that has imported ``hypotorus`` once, so a run costs the
command, not the import; the server runs one thread (OPENBLAS_NUM_THREADS=1),
which makes fork safe.  The contract checked: exit 0-3 and no traceback,
for configs drawn over the config keys and the formula grammar, all five
commands with and without ``--witness``, every model and witness kind, edge
integers, decimals and non-finite numbers, and sizes on both sides of
``MAX_ARRAY_BYTES``.  Sizes below the ceiling are small enough to run within
the time limit; sizes near it are checked through the estimate alone (see
``test_cli.py``), never by allocating.
"""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hypotorus
from hypotorus.jsonio import unlimited_int_digits

_CAP = 1 << 30          # address space of one run, bytes
_LIMIT = 30             # seconds of one run

_SERVER = """
import json, os, resource, signal, sys, traceback
from hypotorus.cli import main
cap, limit = int(sys.argv[1]), int(sys.argv[2])
for line in sys.stdin:
    job = json.loads(line)
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            fd = os.open(job["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
            os.dup2(fd, 1)
            os.dup2(fd, 2)
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
            signal.alarm(limit)
            code = main(job["argv"])
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code if isinstance(code, int) and 0 <= code < 70 else 70)
    print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), flush=True)
"""

COMMANDS = ("solve", "classify", "diophantine", "decay", "witness")


def _step(x: float) -> float:
    """0 below 0, 1 above 1, a flat Gevrey ramp between."""
    r = lambda y: math.exp(-1.0 / y) if y > 0.0 else 0.0
    return 0.0 if x <= 0.0 else 1.0 if x >= 1.0 else r(x) / (r(x) + r(1.0 - x))


def _csv_files() -> dict:
    """Inputs the configs name: sample and mode-field CSVs, good and bad.
    Im c of c_plateau.csv is + on (0.5, 1.5), 0 on [1.5, 3.5], - on (3.5, 4.5)."""
    t = [2.0 * math.pi * i / 1024 for i in range(1024)]
    bump = lambda s, a: _step((s - a) / 0.45) * _step((a + 1.0 - s) / 0.45)
    plateau = "".join(f"{s!r},0.0,{4.0 * (bump(s, 0.5) - bump(s, 3.5))!r}\n" for s in t)
    t = [2.0 * math.pi * i / 64 for i in range(64)]
    c = "".join(f"{s!r},{0.5!r},{math.sin(s)!r}\n" for s in t)
    u = "".join(f"{j},{s!r},{math.exp(-0.3 * j) * math.cos(s)!r},0.0\n"
                for j in range(40) for s in t[::8])
    return {
        "c.csv": ("t,re,im\n" + c).encode(),
        "c_reversed.csv": ("t,re,im\n" + "".join(c.splitlines(True)[::-1])).encode(),
        "c_three.csv": ("t,re,im\n" + "".join(c.splitlines(True)[:3])).encode(),
        "c_latin1.csv": b"t,re,im\n0.0,\xe9,0.0\n",
        "c_nan.csv": ("t,re,im\n" + c.replace("0.5,", "nan,", 1)).encode(),
        "c_inf.csv": ("t,re,im\n" + c.replace("0.5,", "inf,")).encode(),
        "c_plateau.csv": ("t,re,im\n" + plateau).encode(),
        "u.csv": ("j,t,re,im\n" + u).encode(),
        "u_small.csv": ("j,t,re,im\n" + "".join(u.splitlines(True)[:64])).encode(),
        "u_nan.csv": ("j,t,re,im\n" + u.replace(",0.0\n", ",nan\n", 9)).encode(),
        "u_inf.csv": ("j,t,re,im\n" + u.replace(",0.0\n", ",-inf\n", 9)).encode(),
        "u_zero.csv": ("j,t,re,im\n" + "".join(f"{j},{s!r},0.0,0.0\n" for j in range(40)
                                                for s in t[::8])).encode(),
        "u_header.csv": b"j,t,re\n0,0.0,1.0\n",
        "u_binary.csv": b"\xff\xfe\x00j,t\n",
    }


_FILES = sorted(_csv_files()) + ["missing.csv"]


@pytest.fixture(scope="module")
def run_cli(tmp_path_factory):
    """run_cli(command, config, flags) -> (exit code, stderr, config text)."""
    work = tmp_path_factory.mktemp("fuzz")
    for name, data in _csv_files().items():
        (work / name).write_bytes(data)
    src = str(Path(hypotorus.__file__).resolve().parents[1])      # the server runs in work
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    server = subprocess.Popen(
        [sys.executable, "-c", _SERVER, str(_CAP), str(_LIMIT)], cwd=work, env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    runs = itertools.count()

    def run(command, config, flags):
        k = next(runs)
        with unlimited_int_digits():
            text = json.dumps(config)
        (work / "cfg.json").write_text(text, encoding="utf-8")
        argv = [command, "--config", "cfg.json", "--out", f"out/{k}", *flags]
        server.stdin.write(json.dumps({"argv": argv, "log": "log.txt"}) + "\n")
        server.stdin.flush()
        code = int(server.stdout.readline())
        return code, (work / "log.txt").read_text(encoding="utf-8", errors="replace"), text

    yield run
    server.stdin.close()
    server.wait(timeout=60)


# --------------------------------------------------------------------------- #
# config strategies
# --------------------------------------------------------------------------- #

NAN, INF = float("nan"), float("inf")
SMALL = [1, 2, 3, 4, 7, 8, 31, 32, 33, 64, 100]
HUGE = [1 << 24, 10**8, 2 * 10**8, 1 << 30, 1 << 62, 10**30, 10**400]     # above the ceiling
ODD = [-1, 0, 1.5, NAN, INF, "8", True, None]

sizes = st.sampled_from(SMALL + HUGE + ODD)
grids = st.sampled_from([4, 8, 64, 256, 1024, 3, 100, 2**26, 2**30, 2**1400, 10**30, -4, 0,
                         64.0, None])

BIG = "1" + "0" * 400       # beyond the float range
numbers = st.sampled_from(["0", "1", "-1", "1/2", "1/3", "3/10", "0.7", "0.70710678118654752",
                           "1000000000000", "1/2000000000001", "1/10000000000", BIG,
                           f"1/{BIG}", "0." + "0" * 400 + "1"])
harmonics = st.builds("{} {}t".format, st.sampled_from(["cos", "sin"]),
                      st.sampled_from([1, 2, 4, 5, 127, 128, 129, 10**6, 10**30]))
exps = st.builds("exp({}{}it)".format, st.sampled_from(["", "-"]),
                 st.sampled_from([0, 1, 2, 128, 10**30]))
atoms = st.one_of(numbers, st.just("i"), harmonics, exps)
formulas = st.one_of(
    st.recursive(atoms, lambda inner: st.one_of(
        st.builds("{} {} {}".format, inner, st.sampled_from(["+", "-", "*", ""]), inner),
        st.builds("i({})".format, inner),
        st.builds("({})/{}".format, inner, st.sampled_from(["3", "0", "-7"]))),
        max_leaves=4),
    st.sampled_from(["", "cos", "1/0", "(((", "2^3", "sin t)", "exp(it", "t", "1e400",
                     "nan", "１"]))

models = st.one_of(
    st.just({}),
    st.builds(lambda k: {"kind": f"harmonic1d_power {k}"},
              st.sampled_from(["0", "1", "2", "3", "400", "1000000", "x", ""])),
    st.builds(lambda n: {"kind": f"harmonic_nd {n}"},
              st.sampled_from(["0", "1", "3", "1000000000", "-2", "2 2"])),
    st.builds(lambda v: {"kind": "table", "values": v}, st.sampled_from([
        None, [0, 0], [1, 2, 3], [2 * j + 1 for j in range(64)],
        [-(2 * j + 1) for j in range(64)], [j * j + 1.5 for j in range(64)],
        [1.0, NAN, 3.0], [10**400] * 8, [5, 4, 3, 2, 1, 0, 0, 0], [1] * 64, "x"])),
    st.sampled_from([{"kind": "bogus"}, {"kind": 5}, {"kind": "harmonic1d", "m": 0},
                     {"kind": "table", "values": [1, 2, 3, 4], "m": 10**9, "n": 10**9},
                     {"kind": "table", "values": [1, 2, 3, 4], "m": 10**400, "n": 10**400},
                     {"colour": "red"}, []]),
)

params = st.fixed_dictionaries({}, optional={
    "mu": st.sampled_from(["1/2", "1/3", 0.5, "3", "1/0", "abc", NAN, INF, 10**400, "7/5"]),
    "sigma": st.sampled_from([1.0, 1.5, 2.0, 3, 1e308, 10**400, NAN, INF, "2"]),
    "n": st.sampled_from(SMALL + [0, 10**9, 10**30]),
    "m": st.sampled_from(SMALL + [0, 10**9, 10**400]),
})

VALUES = {
    "c": formulas,
    "c_file": st.sampled_from(_FILES),
    "f": st.dictionaries(st.sampled_from(["0", "1", "5", "31", "63", "64", "-1", "x", " 2",
                                          "99999999999999999999"]),
                         formulas, max_size=3),
    "f_file": st.sampled_from(_FILES),
    "input": st.sampled_from(_FILES),
    "grid_n": grids,
    "j_modes": sizes,
    "witness_n": grids,
    "k_max": st.sampled_from([0, 1, 4, 40, 10**9, -1, NAN]),
    "kappa": st.sampled_from(["1/2", "0", "-3/7", "nan", "inf", "-inf", "1e400", "1e-400",
                              "0.7071067811865476", "1/0", "abc", "", 1, 0.5, NAN, INF, True,
                              "987654321987654321/1152921504606846977", "1/4097",
                              "1/1048577", BIG, f"1/{BIG}"]),
    "construct_levels": st.sampled_from([None, 0, 1, 2, 3, 4, 5, 10**9]),
    "witness": st.booleans(),
    "witness_kind": st.sampled_from(["auto", "constant", "sign-change", "plateau", "L0",
                                     "bogus"]),
    "intervals": st.sampled_from([None, [1.5, 3.5], [3.5, 1.5], [0, 7], [NAN, 1.0], [1.0],
                                  [0, 10**400], "x"]),
    "model": models,
    "params": params,
    "colour": st.just("red"),
}

# configs each command runs to the end, for the drawn keys to override
BASES = {
    "solve": [{"c": "1/2 + 1/5 cos t", "f": {"1": "exp(it)", "3": "cos 2t"}, "j_modes": 16,
               "grid_n": 64},
              {"c": "i(1 - cos t)", "f": {"0": "exp(it)"}, "j_modes": 8, "grid_n": 64},
              {"c": "1/3", "f": {"1": "exp(it)", "2": "1"}, "j_modes": 8, "grid_n": 64}],
    "classify": [{"c": "1/2 + i sin t", "j_modes": 32}, {"c": "1/3", "j_modes": 16},
                 {"c": "0.7", "j_modes": 16}, {"c": "i(1 - cos t)"},
                 {"c_file": "c.csv", "j_modes": 16}],
    "diophantine": [{"kappa": "1/3", "j_modes": 64}, {"construct_levels": 3, "j_modes": 64},
                    {"kappa": "0.7071067811865476", "j_modes": 128}],
    "decay": [{"input": "u.csv", "j_modes": 40}, {"input": "u_small.csv", "j_modes": 8},
              {"input": "u_zero.csv", "j_modes": 40}],
    "witness": [{"c": "i sin t", "j_modes": 16},
                {"c": "1/3", "witness_kind": "constant", "j_modes": 16},
                {"c": "3/10 cos t", "witness_kind": "L0", "construct_levels": 3,
                 "j_modes": 40},
                {"c_file": "c_plateau.csv", "witness_kind": "plateau",
                 "intervals": [1.5, 3.5], "witness_n": 1024, "j_modes": 16},
                {"c": "1/2 + i sin 4t", "witness_kind": "sign-change", "j_modes": 64}],
}


@st.composite
def cases(draw):
    """(command, --witness, config): one of the command's base configs with
    up to four keys drawn over it."""
    command = draw(st.sampled_from(COMMANDS))
    base = draw(st.sampled_from(BASES[command]))
    keys = draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=4, unique=True))
    config = {**base, **{k: draw(VALUES[k]) for k in keys}}
    return command, draw(st.booleans()), config


# --------------------------------------------------------------------------- #
# the property
# --------------------------------------------------------------------------- #

@settings(derandomize=True, database=None, deadline=None, max_examples=400,
          suppress_health_check=list(HealthCheck))
@given(case=cases())
@example(case=("diophantine", False, {"kappa": "nan"}))
@example(case=("diophantine", False, {"kappa": "inf"}))
@example(case=("diophantine", False, {"kappa": "1e400"}))
@example(case=("diophantine", False, {"construct_levels": 4, "j_modes": 256}))
@example(case=("witness", False, {"witness_kind": "L0", "construct_levels": 5}))
@example(case=("classify", True, {"c": "1/2 + i sin t", "j_modes": 2,
                                  "model": {"kind": "table", "values": [0, 0]}}))
@example(case=("classify", False, {"c": "1/2", "j_modes": 8,
                                   "model": {"kind": "harmonic_nd 1000000000"}}))
@example(case=("classify", False, {"c": "1/2", "j_modes": 10**8}))
@example(case=("classify", False, {"c": "1/2", "grid_n": 2**30}))
@example(case=("solve", False, {"c": "1/2", "f": {"1": "exp(it)"}, "grid_n": 65536,
                                "j_modes": 65536}))
@example(case=("witness", False, {"c": "i sin t", "witness_n": 2**30}))
@example(case=("diophantine", False, {"kappa": "1/3", "j_modes": 2 * 10**8}))
# crashes the fuzz itself found
@example(case=("witness", True, {"c": "1/3", "witness_kind": "constant", "j_modes": 1,
                                 "model": {"kind": "harmonic1d_power 1000000"}}))
@example(case=("solve", False, {"c_file": "c_nan.csv", "f": {"1": "1"}, "grid_n": 64}))
@example(case=("classify", False, {"c": BIG + " cos t"}))
@example(case=("diophantine", False, {"kappa": "3" * 500}))
@example(case=("decay", False, {"input": "u.csv", "j_modes": 40, "params": {"mu": "1000000"}}))
@example(case=("diophantine", False, {"construct_levels": 3, "params": {"n": 10**30}}))
@example(case=("witness", False, {"c": "i sin t", "model": {"kind": "table", "n": 10**400,
                                                             "values": [1, 3, 5, 7]}}))
@example(case=("classify", False, {"c": "1/2", "j_modes": 10**4500}))
@example(case=("classify", True, {"c": "1/7", "j_modes": 16,
                                  "model": {"kind": "harmonic_nd 1000000000"}}))
def test_every_config_ends_in_an_exit_code(run_cli, case):
    command, witness, config = case
    flags = []
    if witness and command == "classify":
        flags.append("--witness")
    elif witness:
        config = {**config, "witness": True}
    code, err, text = run_cli(command, config, flags)
    assert code in (0, 1, 2, 3) and "Traceback" not in err, (
        f"{command} {flags} {text} -> exit {code}\n{err}")

"""Benchmark runner for the hypotorus CLI.

    python3 perfbench/run.py --workload solve-dense --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py          # all three workloads, seed 1, untraced

Runs one seeded workload (see ``workloads.py``) through ``hypotorus.cli.main``
in this process, closed loop with one client: each CLI call starts after the
previous one returns.  One untimed warm-up iteration comes first; then
iterations repeat until ``--seconds`` have passed.  A fixed reference
computation (``Reference``) is timed between iterations, and ``wall_ref`` is
each iteration's wall time over the mean of the reference times on either
side of it: the machine's own speed cancels out.  Every op's outputs are
checked against facts the generator planted and hashed; an output that
differs from the warm-up iteration's bytes is a failed op.  A failed op --
wrong exit code, failed check, changed bytes or an exception escaping
``main`` -- is counted and the run goes on.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced iterations and prints the
per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its sample count, plus the run's provenance.

The package under test is imported from ``src/`` of the checkout holding
this file, never from an installed copy; without it the run exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs HERE on sys.path)
from tracer import Tracer  # noqa: E402

SETUP_SAMPLES = 7
BLAS_THREADS = 1
PROBE_TIMEOUT_S = 60
CMD_METRICS = {"solve": "solve_s", "decay": "decay_s",
               "classify": "classify_s", "diophantine": "diophantine_s"}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no package, failed probe)."""


# --------------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------------- #

def fix_environment() -> dict:
    """Serial mode loop and single-threaded BLAS; call before numpy loads.

    On a 2-vCPU machine shared with other tenants, two BLAS threads made
    solve-dense both slower (median 3.8 s against 2.8 s) and bimodal from
    one iteration to the next, so BLAS gets one of the ``nproc`` cores.
    """
    had_threads = os.environ.pop("HYPOTORUS_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "hypotorus_threads": "unset",
            "hypotorus_threads_was": had_threads}


def import_hypotorus():
    """``hypotorus.cli`` from this checkout's ``src/``, or SetupError."""
    if not (SRC / "hypotorus" / "__init__.py").is_file():
        raise SetupError(f"no hypotorus package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hypotorus.cli
    origin = Path(hypotorus.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"hypotorus imported from {origin}, not {SRC}")
    return hypotorus.cli


def setup(workload: str, seed: int, work: Path):
    """Everything a run needs before its first CLI call: (cli module, ops)."""
    cli = import_hypotorus()
    shutil.rmtree(work, ignore_errors=True)
    return cli, workloads.generate(workload, seed, work)


def probe_setup(workload: str, seed: int) -> None:
    """Child side of a set-up sample: set up, report the clock, exit."""
    work = WORK / f"probe-{os.getpid()}"
    try:
        setup(workload, seed, work)
        print(repr(time.perf_counter()), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> list:
    """Process start to workload ready, in fresh interpreters.

    ``time.perf_counter`` is CLOCK_MONOTONIC, shared by parent and child.
    """
    samples = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


# --------------------------------------------------------------------------- #
# reference work
# --------------------------------------------------------------------------- #

class Reference:
    """A fixed computation timed between iterations, the unit of ``wall_ref``.

    The 2-vCPU virtual machine this benchmark was set up on changes speed
    by up to 50% over minutes, for every kind of work tried.  Dividing an
    iteration's wall time by the reference time measured on either side of
    it removes that drift.  The mix follows what the workloads do: an
    interpreter loop, real and complex LAPACK solves (collocation solves
    complex 512 x 512 systems) and float-to-text formatting and parsing
    (the ModeField CSV).  None of it calls ``hypotorus``, so a change to the
    program cannot change the reference.
    """

    PY_STEPS = 300_000
    SOLVES = 4
    COMPLEX_SOLVES = 3
    FLOATS = 20_000

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((300, 300))
        self.b = rng.standard_normal((300, 300))
        self.c = (rng.standard_normal((512, 512))
                  + 1j * rng.standard_normal((512, 512)))
        self.d = rng.standard_normal(512) + 0j
        self.x = rng.standard_normal(self.FLOATS).tolist()
        self.time()                                    # warm-up

    def time(self) -> float:
        """Wall time of one pass over the reference work."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(self.PY_STEPS):
            acc += i * i
        for _ in range(self.SOLVES):
            self.np.linalg.solve(self.a, self.b)
        for _ in range(self.COMPLEX_SOLVES):
            self.np.linalg.solve(self.c, self.d)
        text = "\n".join(f"{x!r},{-x!r}" for x in self.x)
        [float(v) for line in text.splitlines() for v in line.split(",")]
        return time.perf_counter() - t0


# --------------------------------------------------------------------------- #
# iterations
# --------------------------------------------------------------------------- #

def empty_dir(out: Path) -> None:
    """Remove what a previous iteration wrote, keeping the directory itself.

    Every output must be written anew for the checks and hashes to see it;
    the directory stays so that each call's ``mkdir`` costs the same.
    """
    if not out.is_dir():
        return
    for path in out.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()


def hash_outputs(out: Path) -> tuple:
    """({relative path: sha256}, total bytes) of every file under ``out``."""
    digests, size = {}, 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digests[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return digests, size


class Run:
    """Counts, reference hashes and samples of one benchmark run."""

    def __init__(self, cli, ops: list):
        self.cli, self.ops = cli, ops
        self.attempted = self.failed = 0
        self.reference: dict = {}
        self.problems: list = []

    def iteration(self, tracer=None) -> dict:
        """One pass over the ops: wall time, per-command time, out bytes."""
        for op in self.ops:
            empty_dir(op.out)
        codes, cmd_time = [], dict.fromkeys(CMD_METRICS.values(), 0.0)
        start = time.perf_counter()
        for op in self.ops:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(op.argv)
                else:
                    with tracer.call():
                        code = self.cli.main(op.argv)
            except Exception:  # a crash is a failed op, not a failed run
                code = traceback.format_exc().strip().splitlines()[-1]
            cmd_time[CMD_METRICS[op.command]] += time.perf_counter() - t0
            codes.append(code)
        wall = time.perf_counter() - start

        out_bytes = 0
        for op, code in zip(self.ops, codes):
            self.attempted += 1
            bad = [f"exit code {code!r}"] if code != 0 else []
            bad += op.check()
            digests, size = hash_outputs(op.out)
            out_bytes += size
            ref = self.reference.setdefault(op.name, digests)
            if digests != ref:
                changed = sorted(k for k in set(ref) | set(digests)
                                 if ref.get(k) != digests.get(k))
                bad.append(f"output bytes differ from the first run: {changed}")
            if bad:
                self.failed += 1
                self.problems.append(f"{op.name}: {'; '.join(bad)}")
        return {"wall_s": wall, "cli.out_bytes": out_bytes, **cmd_time}


def run_loop(run: Run, seconds: float, tracer) -> tuple:
    """Untraced (and, with a tracer, alternating traced) timed iterations.

    Each untraced iteration sits between two reference timings; its
    ``ref_s`` is their mean and ``wall_ref`` its ``wall_s`` over ``ref_s``.
    """
    plain, traced = [], []
    reference = Reference()
    start = time.perf_counter()
    before = reference.time()
    while (time.perf_counter() - start < seconds or not plain
           or (tracer is not None and not traced)):
        it = run.iteration()
        after = reference.time()
        it["ref_s"] = (before + after) / 2
        it["wall_ref"] = it["wall_s"] / it["ref_s"]
        plain.append(it)
        before = after
        if tracer is None:
            continue
        tracer.begin_iteration()
        tracer.install()
        try:
            it = run.iteration(tracer)
        finally:
            tracer.restore()
        it.update(tracer.iteration_metrics())
        traced.append(it)
        before = reference.time()
    return plain, traced


# --------------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------------- #

def median_of(samples: list, key: str) -> float:
    return statistics.median(s[key] for s in samples)


def provenance(env: dict, workload: str, seed: int) -> dict:
    import numpy as np
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"workload": workload, "seed": seed, "commit": commit,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, **env,
            "warmup": "1 untimed iteration per run; it also fixes the "
                      "reference output hashes"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS,
                    help="the workload to run; all of them when omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    env = fix_environment()
    try:
        if args.probe_setup:
            probe_setup(args.workload, args.seed)
            return 0
        registry = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        return benchmark(args, env, registry)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run_all(args) -> int:
    """Every workload in turn, each in a process of its own."""
    worst = 0
    for workload in workloads.WORKLOADS:
        print(f"== {workload}", flush=True)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT)
        worst = max(worst, done.returncode)
    return worst


def benchmark(args, env: dict, registry: dict) -> int:
    setup_samples = measure_setup(args.workload, args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    cli, ops = setup(args.workload, args.seed, work)
    try:
        run = Run(cli, ops)
        run.iteration()                                   # warm-up
        # one iteration's peak, before the reference work allocates
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0)
        tracer = Tracer() if args.trace else None
        plain, traced = run_loop(run, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = {name: (median_of(plain, name), len(plain))
              for name in ("wall_ref", "wall_s", "ref_s",
                           *CMD_METRICS.values())}
    values["setup_s"] = (statistics.median(setup_samples), len(setup_samples))
    values["peak_rss_mb"] = (peak_rss_mb, 1)
    values["ops_failed_ratio"] = (run.failed / run.attempted, run.attempted)
    if traced:
        for key in traced[0]:
            if key not in values:
                values[key] = (median_of(traced, key), len(traced))
        values["trace.overhead_s"] = (
            median_of(traced, "wall_s") - values["wall_s"][0], len(traced))
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{args.workload}-{args.seed}.jsonl")

    declared = registry["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"]
             for m in registry["end_to_end"] + registry["per_layer"]}
    units["ops_failed_ratio"] = "ratio"
    print("provenance: " + json.dumps(provenance(env, args.workload, args.seed),
                                      sort_keys=True))
    shown = [m["name"] for m in registry["end_to_end"]] + [
        "wall_s", "ref_s", "ops_failed_ratio", *CMD_METRICS.values()]
    if args.trace:
        shown += [m["name"] for m in declared]
    for name in dict.fromkeys(shown):
        value, n = values[name]
        print(f"{name} = {value!r} {units[name]} (n={n})")
    for problem in run.problems[:20]:
        print(f"failed op: {problem}", file=sys.stderr)

    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's own machinery (a few seconds).

    python3 perfbench/selftest.py

Checks, on small inputs, that
  * a crash escaping ``hypotorus.cli.main``, a wrong exit code and a failed
    output check each count as one failed op, and the run goes on.  The
    crash is real: at the time of writing ``diophantine`` with
    ``construct_levels`` 4 and ``j_modes`` 256 raises ``LevelOverflow``
    through ``main`` instead of exiting 1;
  * an output whose bytes change between iterations is a failed op;
  * the tracer's wrappers are gone after ``restore``, and its count metrics
    repeat exactly between two traced iterations.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run as bench
import workloads
from tracer import Tracer, installed_wrappers

failures = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def failure_accounting(cli, work: Path) -> None:
    ops = [
        workloads._diophantine_op(work, "level-overflow", {
            "construct_levels": 4, "j_modes": 256}, None),
        workloads._op(work, "bad-config", "classify", {"j_modes": 0}, [],
                      lambda out: []),
        workloads._classify_op(work, "wrong-label", {"c": "i(2 + sin t)"},
                               "notGH", "thm-3.15-sign-change"),
        workloads._classify_op(work, "passes", {"c": "i(2 + sin t)"},
                               "GH", "thm-3.10-sign"),
    ]
    run = bench.Run(cli, ops)
    run.iteration()
    expect(run.attempted == 4, "every op is attempted after a crash")
    expect(run.failed == 3, "crash, exit code and check each fail one op")
    expect(any("LevelOverflow" in p for p in run.problems),
           "the escaping LevelOverflow is reported")
    expect(not any(p.startswith("passes:") for p in run.problems),
           "the op after the failures still passes")


def determinism(cli, work: Path) -> None:
    op = workloads._classify_op(work, "drift", {"c": "i(2 + sin t)"},
                                "GH", "thm-3.10-sign")
    run = bench.Run(cli, [op])
    run.iteration()
    run.iteration()
    expect(run.failed == 0, "identical inputs give identical bytes")
    cfg = work / "drift" / "config.json"
    cfg.write_text(json.dumps({"c": "i(3 + sin t)"}), encoding="utf-8")
    run.iteration()
    expect(run.failed == 1 and "differ" in run.problems[-1],
           "changed output bytes fail the op")


def tracing(cli, work: Path) -> None:
    J = 64
    solve = workloads._solve_op(work, "solve", {
        "c": "1/2 + 1/5 cos t", "grid_n": 256, "j_modes": J,
        "f": workloads._planted_forcing(0.4, J)})
    ops = [solve, workloads._op(work, "decay", "decay", {"j_modes": J},
                                ["--input", str(solve.out / "u_field.csv")],
                                lambda out: [])]
    run, tracer = bench.Run(cli, ops), Tracer()
    samples = []
    for _ in range(2):
        tracer.begin_iteration()
        tracer.install()
        expect(len(installed_wrappers()) > 0, "wrappers present while traced")
        try:
            run.iteration(tracer)
        finally:
            tracer.restore()
        expect(installed_wrappers() == [], "no wrapper left after restore")
        samples.append(tracer.iteration_metrics())
    counts = [k for k in samples[0]
              if k.endswith(".calls") or k.startswith("modes.path.")
              or k in ("modes.csv_bytes", "torusfn.TorusFunction.created")]
    expect(all(samples[0][k] == samples[1][k] for k in counts),
           "count metrics repeat exactly")
    expect(samples[0]["modes.path.integral"] == J,
           "every mode of a real c takes the integral path")
    expect(samples[0]["trace.coverage"] >= 0.9, "spans cover each CLI call")
    expect(run.failed == 0, "traced iterations pass their checks")


def main() -> int:
    bench.fix_environment()
    cli = bench.import_hypotorus()
    work = bench.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for test in (failure_accounting, determinism, tracing):
            test(cli, work / test.__name__)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

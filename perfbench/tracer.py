"""Per-layer spans for the traced benchmark run.

The wrappers live here, in the benchmark, not in ``hypotorus``: each target
function is wrapped at every place it is looked up -- every ``hypotorus``
module global bound to it, or its class attribute -- so that a call from
``cli`` and a call from ``witness`` land in the same span name.  Wrappers are
installed only around traced iterations and removed after each one, so the
untraced iterations run the program exactly as shipped.

A span is ``[name, parent, t0, t1, call, attrs]``, kept in memory in start
order; ``call`` is the id of the enclosing ``cli.main`` span, so the spans of
one CLI call share it.  ``attrs`` holds facts read off a span's return
value (solver path, residual, CSV size, witness levels).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT_SPAN = "cli.main"


def _mode_attrs(sol) -> dict:
    path = ("refactored" if sol.refactored
            else "fourier" if sol.formula == "fourier" else "integral")
    return {"path": path, "residual": float(sol.residual)}


def _csv_attrs(text) -> dict:
    return {"bytes": len(text.encode("utf-8"))}


def _levels_attrs(bundle) -> dict:
    return {"levels": len(bundle.levels)}


# (module, attribute, span name or None for "<layer>.<attribute>", attrs hook)
TARGETS = (
    ("cli", "_load_config", "cli.config", None),
    ("cli", "_write_text", "cli.write", None),
    ("cli", "_write_json", "cli.write", None),
    ("formulas", "parse_formula", None, None),
    ("formulas", "TrigPolynomial.to_torus_function", "formulas.to_torus_function", None),
    ("spectrum", "build_eigensequence", None, None),
    ("torusfn", "TorusFunction.decompose_mean", "torusfn.decompose_mean", None),
    ("modes", "solve_field", None, None),
    ("modes", "solve_mode_detailed", None, _mode_attrs),
    ("modes", "apply_mode", None, None),
    ("modes", "ModeField.to_csv", None, _csv_attrs),
    ("modes", "ModeField.from_csv", None, None),
    ("modes", "DivisorReport.to_csv", None, None),
    ("diagnostics", "fit_decay", None, None),
    ("diagnostics", "pm_seminorms", None, None),
    ("diagnostics", "PMTable.to_csv", None, None),
    ("classify", "classify", None, None),
    ("classify", "classify_constant", None, None),
    ("classify", "Verdict.to_json", None, None),
    ("witness", "sign_change_witness", None, _levels_attrs),
    ("witness", "WitnessBundle.verify", None, None),
    ("witness", "WitnessBundle.write", None, None),
    ("diophantine", "distance_sequence", None, None),
    ("diophantine", "classify_rational", None, None),
    ("diophantine", "construct_liouville", None, None),
    ("diophantine", "liouville_fit", None, None),
    ("diophantine", "DistanceSequence.to_csv", None, None),
    ("diophantine", "LiouvilleCertificate.to_json", None, None),
    ("diophantine", "FitReport.to_json", None, None),
    ("diophantine", "RationalVerdict.to_json", None, None),
)

# span names whose total, self time or call count is a per-layer metric
SPAN_METRICS = (
    "cli.config", "formulas.parse_formula", "formulas.to_torus_function",
    "spectrum.build_eigensequence", "torusfn.decompose_mean",
    "modes.solve_field", "modes.apply_mode", "modes.ModeField.to_csv",
    "modes.ModeField.from_csv", "diagnostics.fit_decay",
    "diagnostics.pm_seminorms", "classify.classify",
    "classify.classify_constant", "witness.sign_change_witness",
    "witness.WitnessBundle.verify", "witness.WitnessBundle.write",
    "diophantine.distance_sequence", "diophantine.classify_rational",
    "diophantine.construct_liouville", "diophantine.liouville_fit",
)

_MARK = "__perfbench_span__"


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans: list = []
        self.created = 0            # TorusFunction instances
        self._stack: list = []
        self._call = -1
        self._patches: list = []    # (owner, attribute, original)
        self._iter_start = 0

    # -- spans ----------------------------------------------------------- #
    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None,
                           self._call, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def call(self):
        """The root span of one CLI call."""
        sid = self._open(ROOT_SPAN)
        self.spans[sid][4] = self._call = sid
        try:
            yield
        finally:
            self._close(sid)
            self._call = -1

    def _wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook is not None:
                self.spans[sid][5] = hook(result)
            return result
        setattr(traced, _MARK, name)
        return traced

    # -- installation ------------------------------------------------------ #
    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "hypotorus" or k.startswith("hypotorus.")]
        for mod_name, attr, name, hook in TARGETS:
            mod = sys.modules[f"hypotorus.{mod_name}"]
            name = name or f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = vars(cls)[meth]
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(name, raw.__func__, hook))
                else:
                    new = self._wrap(name, raw, hook)
                self._patch(cls, meth, new)
                continue
            fn = getattr(mod, attr)
            new = self._wrap(name, fn, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, new)

        # argument parsing: building the parser and parsing argv
        cli = sys.modules["hypotorus.cli"]
        build = cli._build_parser

        def build_parser():
            parser = build()
            parser.parse_args = self._wrap("cli.argv", parser.parse_args, None)
            return parser
        self._patch(cli, "_build_parser", self._wrap("cli.argv", build_parser, None))

        from hypotorus.torusfn import TorusFunction
        init = TorusFunction.__init__

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            self.created += 1
            init(obj, *args, **kwargs)
        setattr(counting_init, _MARK, "torusfn.TorusFunction.created")
        self._patch(TorusFunction, "__init__", counting_init)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-iteration summary --------------------------------------------- #
    def begin_iteration(self) -> None:
        self._iter_start = len(self.spans)
        self.created = 0

    def iteration_metrics(self) -> dict:
        """Per-layer metrics of the spans since :meth:`begin_iteration`."""
        spans = self.spans[self._iter_start:]
        base = self._iter_start
        dur = [s[3] - s[2] for s in spans]
        child_time = [0.0] * len(spans)
        for s, d in zip(spans, dur):
            if s[1] >= base:
                child_time[s[1] - base] += d

        def outermost(i: int) -> bool:
            name, p = spans[i][0], spans[i][1]
            while p >= base:
                if spans[p - base][0] == name:
                    return False
                p = spans[p - base][1]
            return True

        m = {}
        for name in SPAN_METRICS:
            idx = [i for i, s in enumerate(spans) if s[0] == name]
            m[f"{name}.calls"] = len(idx)
            m[f"{name}.s"] = sum(dur[i] for i in idx if outermost(i))
            m[f"{name}.self_s"] = sum(dur[i] - child_time[i] for i in idx)

        modes = [s for s in spans if s[0] == "modes.solve_mode_detailed"]
        for path in ("fourier", "integral", "refactored"):
            ms = [(s[3] - s[2]) * 1e3 for s in modes if s[5]["path"] == path]
            m[f"modes.path.{path}"] = len(ms)
            m[f"modes.mode_{path}_ms"] = statistics.median(ms) if ms else 0.0
        m["modes.max_residual"] = max((s[5]["residual"] for s in modes),
                                      default=0.0)
        m["modes.csv_bytes"] = sum(s[5]["bytes"] for s in spans
                                   if s[0] == "modes.ModeField.to_csv")
        m["witness.levels"] = sum(s[5]["levels"] for s in spans
                                  if s[0] == "witness.sign_change_witness")
        m["torusfn.TorusFunction.created"] = self.created
        roots = [i for i, s in enumerate(spans) if s[0] == ROOT_SPAN]
        m["trace.coverage"] = min((child_time[i] / dur[i] for i in roots),
                                  default=0.0)
        return m

    def write(self, path: Path) -> None:
        """All spans, one JSON object per line, in the order they started."""
        with path.open("w", encoding="utf-8") as fh:
            for sid, (name, parent, t0, t1, call, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "call": call,
                                     "name": name, "t0": t0, "t1": t1,
                                     "attrs": attrs}) + "\n")


def installed_wrappers() -> list:
    """Names of hypotorus attributes that are still tracing wrappers."""
    found = []
    for key, mod in sorted(sys.modules.items()):
        if not (key == "hypotorus" or key.startswith("hypotorus.")):
            continue
        for attr, value in vars(mod).items():
            owners = [(attr, value)]
            if isinstance(value, type) and value.__module__ == key:
                owners = [(f"{attr}.{a}", v) for a, v in vars(value).items()]
            for label, v in owners:
                v = getattr(v, "__func__", v)
                if hasattr(v, _MARK):
                    found.append(f"{key}.{label}")
    return found

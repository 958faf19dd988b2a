"""Command-line front end: config parsing, orchestration, file outputs.

Exit-code contract: 0 ok, else the ``exit_code`` of the HypotorusError that
stopped the run, as README.md tabulates: 1 config error or failed witness
construction, 2 resonance, 3 degenerate data.
The solver amplitude oracle is undetermined coefficients: for c = 1/2 and
f_5 = e^{it} on the odd spectrum, u_5 = e^{it} / (i (1 + lambda_5/2)) with
lambda_5 = 11, so sup|u_5| = 1/6.5.
"""

import importlib.util
import json
import math
import re
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hypotorus import csvio
from hypotorus.cli import (MAX_ARRAY_BYTES, ConfigError, ExperimentConfig, _build_parser,
                           _load_config, main)
from hypotorus.errors import HypotorusError
from hypotorus.formulas import TrigPolynomial
from hypotorus.modes import ModeField
from hypotorus.spectrum import build_eigensequence
from hypotorus.torusfn import grid
from hypotorus.witness import _Rows, gevrey_bump

ROOT = Path(__file__).resolve().parents[1]
COOKBOOK = ROOT / "cookbook"


def write_config(tmp_path, name="cfg.json", **fields):
    p = tmp_path / name
    p.write_text(json.dumps(fields), encoding="utf-8")
    return str(p)


def read_json(out, name):
    return json.loads((Path(out) / name).read_text(encoding="utf-8"))


# --------------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------------- #

def test_config_defaults_fill_in():
    cfg = ExperimentConfig.from_json("{}")
    d = cfg.as_dict()
    assert d["grid_n"] == 256
    assert d["j_modes"] == 64
    assert d["model"]["kind"] == "harmonic1d"
    assert d["params"]["mu"] == "1/2"
    assert d["params"]["sigma"] == 2.0


def test_config_round_trips_byte_identically():
    raw = '{"c": "1/2 + i sin t", "grid_n": 128, "params": {"mu": 0.5}}'
    canon = ExperimentConfig.from_json(raw).canonical_json()
    again = ExperimentConfig.from_json(canon).canonical_json()
    assert canon.encode() == again.encode()
    # normalization is idempotent: float mu becomes the exact string once
    assert '"mu": "1/2"' in canon


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json('{"gird_n": 64}')


@pytest.mark.parametrize("raw", [
    '{"j_modes": "many"}',
    '{"model": {"kind": 5}}',
    '{"f": {"x": "cos t"}}',
    '{"witness_kind": "interpretive-dance"}',
    '{"params": {"mu": "1/5"}}',      # mu >= 1/2
    "[1, 2]",
    "not json",
])
def test_config_rejects_bad_values(raw):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(raw)


@pytest.mark.parametrize("key", ["n", "m"])
def test_params_n_and_m_are_refused(tmp_path, capsys, key):
    # n and m belong to the spectrum (model), not to the class parameters
    cfg = write_config(tmp_path, c="1/2 + i sin t", params={key: 3})
    assert main(["classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert f"unknown params keys: ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("model, key", [
    ({"kind": "harmonic1d", "n": 3}, "n"),
    ({"kind": "harmonic_nd 2", "m": 4}, "m"),
    ({"kind": "harmonic1d_power 2", "values": [1, 3, 5]}, "values"),
])
def test_model_n_m_and_values_are_refused_off_table(tmp_path, capsys, model, key):
    # only a table takes them; every other kind fixes its own n, m and values
    cfg = write_config(tmp_path, model=model, kappa="0.7071067811865476", j_modes=128)
    assert main(["diophantine", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert f"model keys ['{key}'] apply to kind 'table' only" in capsys.readouterr().err
    assert not (tmp_path / "o" / "fit.json").exists()


def test_table_model_keeps_its_m_and_n_defaults():
    cfg = ExperimentConfig.from_json('{"model": {"kind": "table", "values": [1, 2]}}')
    assert cfg["model"] == {"kind": "table", "m": 2, "n": 1, "values": [1, 2]}
    again = cfg.with_overrides(j_modes=2)
    assert again["model"] == cfg["model"] and again.eigensequence().n == 1
    assert ExperimentConfig.from_json("{}")["model"] == {"kind": "harmonic1d"}


def test_harmonic_nd_exponent_is_one_over_2_n_mu_everywhere(tmp_path):
    # n = 2 from the kind and mu = 1/2 give e = 1/2 in the fit and the witness
    nd2 = {"kind": "harmonic_nd 2"}
    cfg = write_config(tmp_path, "d.json", model=nd2, kappa="0.7071067811865476",
                       j_modes=128)
    assert main(["diophantine", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    assert read_json(tmp_path / "d", "fit.json")["fit"]["exponent"] == 0.5
    cfg = write_config(tmp_path, "c.json", model=nd2, c="1/2 + i sin t", j_modes=32)
    out = tmp_path / "c"
    assert main(["classify", "--witness", "--config", cfg, "--out", str(out)]) == 0
    assert read_json(out, "manifest.json")["exponent"] == 0.5


# --------------------------------------------------------------------------- #
# solve
# --------------------------------------------------------------------------- #

def test_solve_single_mode_amplitude(tmp_path):
    cfg = write_config(tmp_path, j_modes=16, grid_n=64, c="1/2",
                       f={"5": "exp(it)"})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    eigs = build_eigensequence("harmonic1d", 16)
    u = ModeField.from_csv((out / "u_field.csv").read_text(), eigs, J=16)
    sup = u.sup_norms()
    assert abs(sup[5] - 1.0 / 6.5) < 1e-9
    res = read_json(out, "residuals.json")
    assert res["max_residual"] < 1e-7
    assert res["resonant_indices"] == []
    div = (out / "divisors.csv").read_text().splitlines()
    assert div[0] == "j,lambda,divisor,resonant"
    row5 = [r for r in div[1:] if r.startswith("5,")][0]
    assert row5.endswith("false")


def test_solve_partial_resonance_exits_2(tmp_path):
    # c = 1/3 on the odd spectrum: lambda_1 = 3 resonates, lambda_0 = 1 not
    cfg = write_config(tmp_path, j_modes=8, grid_n=64, c="1/3",
                       f={"0": "exp(it)", "1": "exp(it)"})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    res = read_json(out, "residuals.json")
    assert res["resonant_indices"] == [1]
    eigs = build_eigensequence("harmonic1d", 8)
    u = ModeField.from_csv((out / "u_field.csv").read_text(), eigs, J=8)
    assert u[0] is not None
    assert u[1] is None


def test_solve_all_resonant_exits_2(tmp_path):
    cfg = write_config(tmp_path, j_modes=8, grid_n=64, c="1",
                       f={"5": "exp(it)"})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    res = read_json(out, "residuals.json")
    assert res["resonant_indices"] == [5]
    assert res["n_defined"] == 0
    # the u field exists but holds no solved modes
    txt = (out / "u_field.csv").read_text().splitlines()
    assert txt[0] == "j,t,re,im"
    assert len(txt) == 1


def test_solve_missing_f_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, c="1/2")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()
    assert "f" in err


def test_solve_resonant_divisors_do_not_depend_on_other_modes(tmp_path):
    # c = 1/3: lambda = 3 and 9 (modes 1, 4) resonate.  Forcing mode 0 too
    # leaves one mode to solve; without it every forced mode resonates.
    rows = []
    for name, modes in (("mixed", ("0", "1", "4")), ("all", ("1", "4"))):
        cfg = write_config(tmp_path, name=f"{name}.json", j_modes=8, grid_n=64,
                           c="1/3", f={k: "exp(it)" for k in modes})
        out = tmp_path / name
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        lines = (out / "divisors.csv").read_text().splitlines()
        rows.append([r for r in lines[1:] if r.split(",")[0] in ("1", "4")])
    assert len(rows[0]) == 2
    assert rows[0] == rows[1]


def test_solve_coefficient_from_sample_file(tmp_path):
    t = (2.0 * np.pi * np.arange(64) / 64).tolist()   # plain floats: t is parsed
    lines = ["t,re,im"] + [f"{ti!r},0.5,0.0" for ti in t]
    cpath = tmp_path / "c.csv"
    cpath.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path, j_modes=8, grid_n=64, c_file=str(cpath),
                       f={"5": "exp(it)"})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    eigs = build_eigensequence("harmonic1d", 8)
    u = ModeField.from_csv((out / "u_field.csv").read_text(), eigs, J=8)
    assert abs(u.sup_norms()[5] - 1.0 / 6.5) < 1e-9


def test_solve_forcing_from_mode_field_file(tmp_path):
    t = (2.0 * np.pi * np.arange(64) / 64).tolist()
    lines = ["j,t,re,im"] + [f"5,{ti!r},{math.cos(ti)!r},{math.sin(ti)!r}" for ti in t]
    fpath = tmp_path / "f.csv"
    fpath.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path, c="1/2", j_modes=8, grid_n=64, f_file=str(fpath))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    eigs = build_eigensequence("harmonic1d", 8)
    u = ModeField.from_csv((out / "u_field.csv").read_text(), eigs, J=8)
    assert abs(u.sup_norms()[5] - 1.0 / 6.5) < 1e-9


@pytest.mark.parametrize("j, col, value", [(1, 1, "inf"), (2, 2, "nan")])
def test_solve_refuses_a_non_finite_forcing_file(tmp_path, capsys, j, col, value):
    # one non-finite sample in one mode once solved to all-NaN rows, exit 0,
    # and a max_residual that left them out
    t = (2.0 * np.pi * np.arange(16) / 16).tolist()
    rows = {m: [[ti, math.cos(m * ti), math.sin(ti)] for ti in t] for m in range(3)}
    rows[j][5][col] = float(value)
    lines = ["j,t,re,im"] + [f"{m},{ti!r},{re!r},{im!r}"
                             for m in range(3) for ti, re, im in rows[m]]
    fpath = tmp_path / "f.csv"
    fpath.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path, c="1/2 + 1/5 cos t", j_modes=4, grid_n=16,
                       f_file=str(fpath))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"f_file {fpath}: samples must be finite" in err
    assert "usage" in err.lower()
    assert not (out / "residuals.json").exists()


# 64 modes of 512 samples: 2^17 cells, so u_field.csv is split into blocks
_SPLIT_SOLVE = {"c": "1/2 + 1/5 cos t", "grid_n": 512, "j_modes": 64,
                "f": {str(j): "exp(it)" for j in range(64)}}


def test_solve_whose_field_splits_is_quiet(tmp_path, monkeypatch):
    # in a separate process, as a user runs it: exit 0, nothing on stderr,
    # and the bytes of a solve whose float cells are all rendered by repr
    assert 4 * 64 * 512 >= 4 * csvio._BLOCK_CELLS
    cfg = write_config(tmp_path, **_SPLIT_SOLVE)
    proc = subprocess.run([sys.executable, "-m", "hypotorus.cli", "solve", "--config", cfg,
                           "--out", str(tmp_path / "split")],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    monkeypatch.setattr(csvio, "_KERNEL_MIN", 1 << 62)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "serial")]) == 0
    for name in ("u_field.csv", "divisors.csv", "residuals.json"):
        assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def test_solve_large_lambda_complex_constant_is_quiet(tmp_path):
    # |2 pi lambda b0| passes 700 at lambda = 601 and 701 on the sign rule's
    # own side: the solve once warned per mode on stderr, in a separate
    # process so that no test harness swallows the warnings
    cfg = write_config(tmp_path, c="3/10 + 1/5 i", grid_n=64, j_modes=400,
                       f={"10": "exp(it)", "300": "exp(it)", "350": "exp(2it)"})
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "hypotorus.cli", "solve", "--config", cfg,
                           "--out", str(out)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert read_json(out, "residuals.json")["max_residual"] < 1e-14


def test_solve_refuses_a_forcing_grid_too_coarse_for_c(tmp_path, capsys):
    # c = 1/2 + 1/5 cos 20t on a 16-point f_file grid once lost its cos 20t
    # and solved c = 1/2
    t = (2.0 * np.pi * np.arange(16) / 16).tolist()
    lines = ["j,t,re,im"] + [f"1,{ti!r},{math.cos(ti)!r},{math.sin(ti)!r}" for ti in t]
    fpath = tmp_path / "f.csv"
    fpath.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path, c="1/2 + 1/5 cos 20t", grid_n=256, j_modes=4,
                       f_file=str(fpath))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert "frequency 20 cannot be resampled onto 16 grid points" in capsys.readouterr().err
    assert not (out / "u_field.csv").exists()


def test_solve_refuses_f_keys_naming_one_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, c="1/2 + 1/5 cos t", grid_n=16, j_modes=4,
                       f={"1": "exp(it)", "01": "2 exp(it)", " 1": "3 exp(it)"})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert "f keys '1' and '01' both name mode 1" in capsys.readouterr().err
    assert not (out / "u_field.csv").exists()


@pytest.mark.parametrize("text, key", [
    ('{"c": "1/2", "c": "1/3"}', "c"),
    ('{"c": "1/2", "f": {"1": "exp(it)", "1": "2 exp(it)"}}', "1"),
])
def test_config_refuses_a_repeated_json_key(tmp_path, capsys, text, key):
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=f"repeats the key '{key}'"):
        ExperimentConfig.from_json(text)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"config repeats the key '{key}'" in capsys.readouterr().err


def test_an_output_path_the_os_refuses_exits_1(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory\n", encoding="utf-8")
    cfg = write_config(tmp_path, c="i(1 - cos t)", j_modes=16)
    assert main(["classify", "--config", cfg, "--out", str(blocker)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "taken" in err
    assert "Traceback" not in err


def test_coefficient_file_rows_out_of_t_order_exit_1(tmp_path, capsys):
    t = (2.0 * np.pi * np.arange(64) / 64).tolist()
    lines = ["t,re,im"] + [f"{ti!r},{0.5 + 0.1 * math.cos(ti)!r},0.0" for ti in t[::-1]]
    cpath = tmp_path / "c.csv"
    cpath.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path, j_modes=8, grid_n=64, c_file=str(cpath),
                       f={"5": "exp(it)"})
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"c_file {cpath}: line 2: t = {t[-1]!r} is not the grid point 0.0" in err
    assert "Traceback" not in err


# --------------------------------------------------------------------------- #
# classify
# --------------------------------------------------------------------------- #

def test_classify_sign_definite_is_gh(tmp_path):
    cfg = write_config(tmp_path, c="i(1 - cos t)", j_modes=16)
    out = tmp_path / "out"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
    v = read_json(out, "verdict.json")
    assert v["decision"] == "GH"
    assert v["branch"] == "thm-3.10-sign"


@pytest.mark.parametrize("c, witness, samples", [
    ("i(1 - cos t)", False, 1),            # a plain classify samples c once
    ("1/2 + i sin t", True, 2),             # and a sign-change witness once more
    ("3/4", True, 0),                       # a constant is never sampled
])
def test_classify_samples_a_formula_only_where_it_is_used(tmp_path, monkeypatch, c, witness,
                                                          samples):
    calls = []
    sample = TrigPolynomial.to_torus_function
    monkeypatch.setattr(TrigPolynomial, "to_torus_function",
                        lambda poly, n: calls.append(n) or sample(poly, n))
    cfg = write_config(tmp_path, c=c, j_modes=16, witness=witness)
    assert main(["classify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert calls == [256] * samples


def test_classify_refuses_a_frequency_outside_the_band(tmp_path, capsys):
    cfg = write_config(tmp_path, c="1/2 + i sin 200t", j_modes=16, grid_n=256)
    assert main(["classify", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(
        "error: frequency -200 outside the band of an 256-point grid\n")


def test_classify_integer_mean_is_resonant(tmp_path):
    cfg = write_config(tmp_path, c="1", j_modes=16)
    out = tmp_path / "out"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
    v = read_json(out, "verdict.json")
    assert v["decision"] == "notGH"
    assert v["branch"] == "prop-3.9-resonance"
    assert v["confidence"] == "definitive"


def test_classify_formula_constant_goes_exact(tmp_path):
    # 0.7 parses to the exact rational 7/10, whose verdict is definitive
    cfg = write_config(tmp_path, c="0.7", j_modes=16)
    out = tmp_path / "out"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
    v = read_json(out, "verdict.json")
    assert v["decision"] == "GH"
    assert v["branch"] == "thm-3.6b-diophantine"
    assert v["confidence"] == "definitive"


def test_classify_nonreal_constant(tmp_path):
    cfg = write_config(tmp_path, c="0.7 + i", j_modes=16)
    out = tmp_path / "out"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
    v = read_json(out, "verdict.json")
    assert v["decision"] == "GH"
    assert v["branch"] == "thm-3.6a-nonreal"


@pytest.mark.parametrize("c, decision, branch, alpha", [
    # the mean 10000000003/30000000000 has an even denominator: no odd
    # lambda_j resonates (it once snapped to 1/3)
    ("1/3 + 1/10000000000 + cos t", "GH", "thm-3.6b-diophantine", (10000000003, 30000000000)),
    # odd denominators beyond the snap's 64 resonate at lambda_j = q
    ("1/65 + cos t", "notGH", "prop-3.9-resonance", (1, 65)),
    ("1/2000003 + cos t", "notGH", "prop-3.9-resonance", (1, 2000003)),
    # an oscillation below 1e-12 is still no constant: the exact mean decides
    ("1/65 + 1/10000000000000 cos t", "notGH", "prop-3.9-resonance", (1, 65)),
    ("1/3 + 1/10000000000000 i cos t", "notGH", "prop-3.9-resonance", (1, 3)),
    ("1/2 + 1/10000000000000 cos t", "GH", "thm-3.6b-diophantine", (1, 2)),
])
def test_classify_takes_the_exact_mean_of_a_formula(tmp_path, c, decision, branch, alpha):
    cfg = write_config(tmp_path, c=c, j_modes=64)
    out = tmp_path / "out"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
    v = read_json(out, "verdict.json")
    assert (v["decision"], v["branch"], v["confidence"]) == (decision, branch, "definitive")
    red = v["evidence"]["reduction"]
    assert red["a0_exact"] == {"num": str(alpha[0]), "den": str(alpha[1])}
    assert red["snap_error"] < 1e-15


def test_classify_exact_mean_beyond_the_power_scan_exits_1(tmp_path, capsys):
    # harmonic1d_power scans one residue period, at most 2^20 long, as a
    # constant c with that mean already does
    model = {"kind": "harmonic1d_power 2"}
    for c in ("1/2000003", "1/2000003 + cos t"):
        cfg = write_config(tmp_path, c=c, j_modes=64, model=model)
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "denominator 2000003 exceeds the residue scan bound" in capsys.readouterr().err


def test_classify_with_witness_emits_files(tmp_path):
    cfg = write_config(tmp_path, c="1/2 + i sin t", j_modes=32, witness=True)
    out = tmp_path / "out"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
    v = read_json(out, "verdict.json")
    assert v["decision"] == "notGH"
    assert v["branch"] == "thm-3.15-sign-change"
    assert (out / "manifest.json").exists()
    assert (out / "norms.csv").exists()
    check = read_json(out, "witness_verify.json")
    assert check["ok"] is True


def _bytediff():
    """tools/bytediff.py as a module, for its extra configs."""
    spec = importlib.util.spec_from_file_location("bytediff", ROOT / "tools" / "bytediff.py")
    bytediff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bytediff)
    return bytediff


# ROADMAP item 1: formula c whose Im c changes sign, but where the grid
# misses it (a dip of 1e-12, an amplitude of 1e-13) or sees a zero of high
# order as a zero run (Im c = (1 - cos t)^8 (1/2 + cos t), and
# (1 - cos t)^6 sin t, whose one zero has order 13)
ITEM1 = {
    "dip": "i(1 - cos t - 1/1000000000000)",
    "tiny-icos": "1/2 + 1/10000000000000 i cos t",
    "flat-8": "1/2 + i " + "(1 - cos t)" * 8 + " (1/2 + cos t)",
    "order-13": "1/2 + i " + "(1 - cos t)" * 6 + " sin t",
}


def _classify_item1(tmp_path, name):
    cfg = write_config(tmp_path, c=ITEM1[name], j_modes=64)
    assert main(["classify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    return read_json(tmp_path / "out", "verdict.json")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("name", ["dip", "tiny-icos", "flat-8"])
def test_classify_finds_the_exact_sign_change_of_a_formula(tmp_path, name):
    v = _classify_item1(tmp_path, name)
    assert (v["decision"], v["confidence"], v["branch"]) == (
        "notGH", "definitive", "thm-3.15-sign-change")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_classify_takes_the_sign_change_route_at_a_zero_of_high_order(tmp_path):
    assert _classify_item1(tmp_path, "order-13")["evidence"]["route"] == "variable-sign-change"


def test_the_formula_route_never_snaps_the_mean(tmp_path, monkeypatch):
    # every formula classify config that ships (cookbook, bytediff extras)
    # and item 1's: classify reads the mean from the polynomial instead.
    # The package attribute hypotorus.classify is the function, not the module.
    classify_module = importlib.import_module("hypotorus.classify")

    def refuse(x):
        raise AssertionError(f"_snap_mean({x!r}) ran")

    configs = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(COOKBOOK.glob("classify_*.json"))]
    configs += [cfg for cfg in _bytediff().VERDICT.values() if "c" in cfg]
    configs += [{"c": c, "j_modes": 64} for c in ITEM1.values()]
    assert len(configs) == 3 + 6 + 4
    monkeypatch.setattr(classify_module, "_snap_mean", refuse)
    for k, fields in enumerate(configs):
        cfg = write_config(tmp_path, f"cfg{k}.json", **fields)
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / f"o{k}")]) == 0
    # the sampled route of a non-constant c does snap
    cfg = _c_file_config(tmp_path, np.cos(grid(64)), np.zeros(64), j_modes=16)
    with pytest.raises(AssertionError, match="_snap_mean"):
        main(["classify", "--config", cfg, "--out", str(tmp_path / "sampled")])


def _count_parses(monkeypatch):
    import hypotorus.cli as cli
    texts = []
    real = cli.parse_formula
    monkeypatch.setattr(cli, "parse_formula", lambda text: texts.append(text) or real(text))
    return texts


def test_solve_parses_each_formula_once(tmp_path, monkeypatch):
    texts = _count_parses(monkeypatch)
    f = {"0": "exp(it)", "2": "1/2 exp(2it)", "3": "exp(it)"}
    cfg = write_config(tmp_path, c="1/2 + 1/5 cos t", grid_n=64, j_modes=4, f=f)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert sorted(texts) == ["1/2 + 1/5 cos t", "1/2 exp(2it)", "exp(it)"]


def test_flag_overrides_reuse_the_parsed_formulas(tmp_path, monkeypatch):
    # --kind rebuilds the config; the L0 route reads c from it
    texts = _count_parses(monkeypatch)
    cfg = write_config(tmp_path, c="3/10 cos t", construct_levels=3, j_modes=40)
    assert main(["witness", "--kind", "L0", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 0
    assert texts == ["3/10 cos t"]


def test_config_keeps_its_bytes_with_parsed_formulas():
    cfg = ExperimentConfig({"c": "i(1 - cos t)", "f": {"1": "exp(it)"}})
    again = cfg.with_overrides(j_modes=8)
    assert again.formula("i(1 - cos t)") is cfg.formula("i(1 - cos t)")
    assert again.as_dict() == {**cfg.as_dict(), "j_modes": 8}
    assert ExperimentConfig.from_json(cfg.canonical_json()).canonical_json() == cfg.canonical_json()


# --------------------------------------------------------------------------- #
# diophantine
# --------------------------------------------------------------------------- #

def test_diophantine_half_gives_constant_distance(tmp_path):
    cfg = write_config(tmp_path, kappa="1/2", j_modes=64)
    out = tmp_path / "out"
    assert main(["diophantine", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "distances.csv").read_text().splitlines()
    assert rows[0] == "j,lambda,d"
    ds = {float(r.split(",")[2]) for r in rows[1:]}
    assert ds == {0.5}
    fit = read_json(out, "fit.json")
    assert fit["kind"] == "fit"
    assert fit["rational"]["resonant"] is False


def test_diophantine_unit_kappa_is_resonance_dominated(tmp_path):
    cfg = write_config(tmp_path, kappa="1", j_modes=64)
    out = tmp_path / "out"
    assert main(["diophantine", "--config", cfg, "--out", str(out)]) == 0
    fit = read_json(out, "fit.json")
    assert fit["kind"] == "resonance-dominated"
    rows = (out / "distances.csv").read_text().splitlines()[1:]
    assert all(float(r.split(",")[2]) == 0.0 for r in rows)


def test_diophantine_construct_certificate(tmp_path):
    cfg = write_config(tmp_path, construct_levels=3, j_modes=64)
    out = tmp_path / "out"
    assert main(["diophantine", "--config", cfg, "--out", str(out)]) == 0
    cert = read_json(out, "certificate.json")
    assert len(cert["levels"]) == 3


def test_diophantine_short_table_is_no_fit(tmp_path):
    # fewer than 64 modes: no windowed fit, the reason names the count
    cfg = write_config(tmp_path, kappa="1/3", j_modes=32)
    out = tmp_path / "out"
    assert main(["diophantine", "--config", cfg, "--out", str(out)]) == 0
    fit = read_json(out, "fit.json")
    assert fit["kind"] == "no-fit"
    assert "fit" not in fit
    assert fit["reason"] == "the windowed Liouville fit needs >= 64 modes, the table holds 32"
    assert len((out / "distances.csv").read_text().splitlines()) == 33


def test_diophantine_needs_kappa_or_construct(tmp_path, capsys):
    cfg = write_config(tmp_path, j_modes=64)
    code = main(["diophantine", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "kappa" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# decay (and the solve -> decay pipeline)
# --------------------------------------------------------------------------- #

def _planted_forcing(J, rate):
    return {str(j): f"{math.exp(-rate * (j + 1)):.12f} exp(it)"
            for j in range(J)}


def test_decay_pipeline_composes(tmp_path):
    cfg = write_config(tmp_path, j_modes=64, grid_n=64, c="1/2",
                       f=_planted_forcing(64, 0.3))
    solve_out = tmp_path / "s"
    assert main(["solve", "--config", cfg, "--out", str(solve_out)]) == 0
    decay_out = tmp_path / "d"
    code = main(["decay", "--config", cfg,
                 "--input", str(solve_out / "u_field.csv"),
                 "--out", str(decay_out)])
    assert code == 0
    fit = read_json(decay_out, "decay.json")
    # u keeps the planted rate (the divisor only adds a slow polynomial factor)
    assert 0.29 <= fit["epsilon"] <= 0.42
    assert fit["r2"] > 0.99
    pm = (decay_out / "pm_table.csv").read_text().splitlines()
    assert pm[0] == "M,k,S"


def test_decay_zero_field_exits_3(tmp_path, capsys):
    eigs = build_eigensequence("harmonic1d", 33)
    field = ModeField([None] * 33, eigs)
    rows = ["j,t,re,im"]
    t = (2.0 * np.pi * np.arange(8) / 8).tolist()
    for j in range(33):
        rows += [f"{j},{ti!r},0.0,0.0" for ti in t]
    upath = tmp_path / "u.csv"
    upath.write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path, j_modes=33)
    code = main(["decay", "--config", cfg, "--input", str(upath),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "floor" in capsys.readouterr().err


def test_decay_mode_index_outside_field_exits_1(tmp_path, capsys):
    t = 2.0 * np.pi * np.arange(8) / 8
    upath = tmp_path / "u.csv"
    upath.write_text("\n".join(["j,t,re,im"] + [f"9,{ti!r},1.0,0.0" for ti in t]) + "\n",
                     encoding="utf-8")
    cfg = write_config(tmp_path, j_modes=8)
    code = main(["decay", "--config", cfg, "--input", str(upath),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "mode index 9" in err
    assert "Traceback" not in err


def test_decay_rows_out_of_t_order_exit_1(tmp_path, capsys):
    t = (2.0 * np.pi * np.arange(8) / 8).tolist()
    upath = tmp_path / "u.csv"
    upath.write_text("\n".join(["j,t,re,im"] + [f"5,{ti!r},{math.cos(ti)!r},0.0"
                                               for ti in t[::-1]]) + "\n",
                     encoding="utf-8")
    cfg = write_config(tmp_path, j_modes=64)
    code = main(["decay", "--config", cfg, "--input", str(upath),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 2: t = 5.497787143782138 is not the grid point 0.0" in err
    assert "Traceback" not in err


def test_decay_single_mode_is_trivial_report(tmp_path):
    t = (2.0 * np.pi * np.arange(8) / 8).tolist()
    rows = ["j,t,re,im"] + [
        f"5,{ti!r},{math.cos(ti)!r},{math.sin(ti)!r}" for ti in t]
    upath = tmp_path / "u.csv"
    upath.write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path, j_modes=64)
    out = tmp_path / "o"
    assert main(["decay", "--config", cfg, "--input", str(upath),
                 "--out", str(out)]) == 0
    fit = read_json(out, "decay.json")
    assert "finite support" in fit["note"]
    assert fit["reliable"] is False


@pytest.mark.parametrize("k_max", [0, 3, 7])
def test_decay_differentiates_each_level_once(tmp_path, monkeypatch, k_max):
    # fit_decay's stack (to k_max) and pm_seminorms' (to min(k_max, 4)) share
    # one pass: the field is differentiated k_max times in all
    eigs = build_eigensequence("harmonic1d", 40)
    rng = np.random.default_rng(5)
    samples = rng.standard_normal((40, 16)) * np.exp(-0.3 * np.arange(40))[:, None]
    upath = tmp_path / "u.csv"
    upath.write_text(ModeField._of(samples + 0j, np.ones(40, dtype=bool), eigs).to_csv(),
                     encoding="utf-8")
    calls = []
    derivative = ModeField.derivative
    monkeypatch.setattr(ModeField, "derivative",
                        lambda self: calls.append(self) or derivative(self))
    cfg = write_config(tmp_path, j_modes=40, k_max=k_max, input=str(upath))
    assert main(["decay", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == k_max
    assert (tmp_path / "o" / "pm_table.csv").read_text().splitlines()[-1].startswith(
        f"8,{min(k_max, 4)},")


def test_decay_missing_input_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, j_modes=64)
    code = main(["decay", "--config", cfg,
                 "--input", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "nope.csv" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# witness
# --------------------------------------------------------------------------- #

def test_witness_auto_builds_from_the_verdict(tmp_path):
    cfg = write_config(tmp_path, c="i sin t", j_modes=32)
    out = tmp_path / "out"
    assert main(["witness", "--config", cfg, "--out", str(out)]) == 0
    v = read_json(out, "verdict.json")
    assert v["decision"] == "notGH"
    man = read_json(out, "manifest.json")
    assert man["kind"] == "sign-change"
    assert read_json(out, "witness_verify.json")["ok"] is True
    norms = (out / "norms.csv").read_text().splitlines()
    assert norms[0] == "j,sup_u,sup_f"


def test_witness_explicit_constant_kind(tmp_path):
    cfg = write_config(tmp_path, c="1", j_modes=16, witness_kind="constant")
    out = tmp_path / "out"
    assert main(["witness", "--config", cfg, "--out", str(out)]) == 0
    man = read_json(out, "manifest.json")
    assert man["meta"]["route"] == "integer-resonance"
    assert read_json(out, "witness_verify.json")["ok"] is True


def test_witness_explicit_l0_kind(tmp_path):
    # the certificate's mean plus the formula as oscillation
    cfg = write_config(tmp_path, c="3/10 cos t", construct_levels=3, j_modes=40)
    out = tmp_path / "out"
    assert main(["witness", "--kind", "L0", "--config", cfg, "--out", str(out)]) == 0
    man = read_json(out, "manifest.json")
    assert man["kind"] == "l0-reduction"
    assert len(man["levels"]) == 3
    assert read_json(out, "witness_verify.json")["ok"] is True


def _c_file_config(tmp_path, re, im, **fields):
    """A config whose c_file holds the samples ``re`` + i ``im`` on their grid."""
    rows = [f"{t!r},{a!r},{b!r}"
            for t, a, b in zip(grid(len(re)).tolist(), re.tolist(), im.tolist())]
    cpath = tmp_path / "c.csv"
    cpath.write_text("t,re,im\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return write_config(tmp_path, c_file=str(cpath), **fields)


def _plateau_config(tmp_path, **fields):
    """A config whose c_file has Im c: + on (0.5, 1.5), exactly 0 on
    [1.5, 3.5], - on (3.5, 4.5)."""
    up = gevrey_bump(2.0, (0.5, 1.5), (0.95, 1.05), 1024).samples.samples.real
    dn = gevrey_bump(2.0, (3.5, 4.5), (3.95, 4.05), 1024).samples.samples.real
    return _c_file_config(tmp_path, np.zeros(1024), 4.0 * (up - dn), witness_n=1024, j_modes=16,
                          **fields)


def test_witness_explicit_plateau_kind(tmp_path):
    cfg = _plateau_config(tmp_path, intervals=[1.5, 3.5])
    out = tmp_path / "out"
    assert main(["witness", "--kind", "plateau", "--config", cfg, "--out", str(out)]) == 0
    assert read_json(out, "manifest.json")["kind"] == "plateau"
    assert read_json(out, "witness_verify.json")["ok"] is True


def test_classify_with_witness_on_a_resonant_constant(tmp_path):
    # c = 1/3 resonates with lambda = 3, 9, 15, ...: the constant-resonance plan
    cfg = write_config(tmp_path, c="1/3", j_modes=16)
    out = tmp_path / "out"
    assert main(["classify", "--witness", "--config", cfg, "--out", str(out)]) == 0
    assert read_json(out, "verdict.json")["branch"] == "prop-3.9-resonance"
    man = read_json(out, "manifest.json")
    assert man["kind"] == "constant"
    assert read_json(out, "witness_verify.json")["ok"] is True


def _assert_witness_unavailable(tmp_path, capsys, cfg, reason):
    """classify --witness exits 0 and writes the plan with ``reason`` in place
    of a witness; the witness command exits 1 without the usage line.
    Returns (verdict.json, witness_plan.json)."""
    out = tmp_path / "classify"
    assert main(["classify", "--witness", "--config", cfg, "--out", str(out)]) == 0
    verdict, plan = read_json(out, "verdict.json"), read_json(out, "witness_plan.json")
    assert verdict["decision"] == "notGH"
    assert not (out / "manifest.json").exists()
    assert reason in plan["reason"]
    assert "warning: witness not emitted" in capsys.readouterr().err
    assert main(["witness", "--config", cfg, "--out", str(tmp_path / "w")]) == 1
    err = capsys.readouterr().err
    assert reason in err and "usage:" not in err
    assert not (tmp_path / "w" / "manifest.json").exists()
    return verdict, plan


def test_classify_with_witness_on_a_resonant_mean_of_a_variable_c(tmp_path, capsys):
    # the verdict inherits the constant-resonance plan of c = 1/3, whose
    # witness u_j = e^{-i tau_j t} leaves residual lambda_j under 1/3 + cos t
    cfg = write_config(tmp_path, c="1/3 + cos t", j_modes=16)
    verdict, plan = _assert_witness_unavailable(tmp_path, capsys, cfg,
                                                "resonant mean 1/3 of a non-constant c")
    assert verdict["evidence"]["route"] == "variable-real-reduction"
    assert plan["plan"]["kind"] == "constant-resonance"


def test_classify_with_witness_on_a_plateau_the_constructor_cannot_take(tmp_path, capsys):
    # without intervals the plan names the longest zero run, which wraps
    # t = 0 and is flanked (-, 0, +)
    cfg = _plateau_config(tmp_path, grid_n=1024)
    _, plan = _assert_witness_unavailable(tmp_path, capsys, cfg, "flanked (-1, 0, +1)")
    assert plan["plan"]["kind"] == "plateau"
    assert "set 'intervals'" in plan["reason"]


def test_classify_with_witness_on_a_liouville_suspicion(tmp_path, capsys):
    # the float value of the level-3 certified construction 20699/65547:
    # the fit suspects a Liouville number, with no exact certificate
    cfg = _c_file_config(tmp_path, np.full(256, float(Fraction(20699, 65547))), np.zeros(256),
                         grid_n=256, j_modes=2048)
    verdict, plan = _assert_witness_unavailable(tmp_path, capsys, cfg,
                                                "carries no exact certificate")
    assert verdict["branch"] == "thm-3.6b-diophantine"
    assert plan["plan"]["kind"] == "constant-liouville"


def test_classify_with_witness_on_a_plan_without_a_constructor(tmp_path, capsys):
    # Im c has a fat zero set, so the geometry is ambiguous; the real part
    # 1 resonates with every mode and the verdict rests on that mean alone
    b = np.empty(256)
    b[:64], b[64:160], b[160:224], b[224:] = 1.0, 0.0, 1.0, -4.0
    cfg = _c_file_config(tmp_path, np.ones(256), b, grid_n=256, j_modes=64)
    verdict, plan = _assert_witness_unavailable(tmp_path, capsys, cfg,
                                                "has no packaged constructor")
    assert verdict["evidence"]["route"] == "variable-resonant-mean"
    assert plan["plan"]["kind"] == "resonance-mean"


def _count_scans(monkeypatch) -> list:
    """The row recipes, by class name, that ``_Rows.scan`` passes over."""
    kinds, scan = [], _Rows.scan

    def counting(self, *args, **kwargs):
        kinds.append(type(self).__name__)
        return scan(self, *args, **kwargs)

    monkeypatch.setattr(_Rows, "scan", counting)
    return kinds


@pytest.mark.parametrize("argv", [["witness", "--kind", "sign-change"], ["classify", "--witness"]],
                         ids=["witness", "classify"])
def test_an_emitted_witness_is_checked_in_one_pass(tmp_path, monkeypatch, argv):
    # witness_verify.json is the report of the check construction ran
    scans = _count_scans(monkeypatch)
    cfg = write_config(tmp_path, c="1/2 + i sin t", j_modes=32)
    out = tmp_path / "out"
    assert main([*argv, "--config", cfg, "--out", str(out)]) == 0
    assert scans == ["_BumpRows"]
    assert read_json(out, "witness_verify.json")["ok"] is True


def test_witness_on_gh_operator_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, c="i(1 - cos t)", j_modes=16)
    code = main(["witness", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "GH" in capsys.readouterr().err


def test_witness_budget_miss_is_reported_not_raised(tmp_path, capsys):
    # at the default witness_n = 1024 the sin 4t witness misses 1e-7 (4.9e-7)
    cfg = write_config(tmp_path, c="1/2 + i sin 4t", j_modes=64)
    out = tmp_path / "classify"
    assert main(["classify", "--witness", "--config", cfg, "--out", str(out)]) == 0
    assert read_json(out, "verdict.json")["decision"] == "notGH"
    plan = read_json(out, "witness_plan.json")
    assert plan["plan"]["kind"] == "sign-change"
    assert "residual budget at N = 1024" in plan["reason"]
    assert not (out / "manifest.json").exists()
    assert "warning: witness not emitted" in capsys.readouterr().err
    assert main(["witness", "--config", cfg, "--out", str(tmp_path / "w")]) == 1
    assert "witness construction failed" in capsys.readouterr().err


def test_witness_refuses_a_witness_grid_too_coarse_for_c(tmp_path, capsys):
    # at witness_n 512 the cos 300t of c was dropped, and the witness of
    # 1/2 + i sin t verified; at 1024 the same c misses its budget
    cfg = write_config(tmp_path, c="1/2 + i sin t + 1/10 cos 300t", grid_n=1024, j_modes=8,
                       witness_kind="sign-change", witness_n=512)
    out = tmp_path / "w"
    assert main(["witness", "--config", cfg, "--out", str(out)]) == 1
    assert "frequency 300 cannot be resampled onto 512 grid points" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("cmd", ["solve", "classify", "diophantine"])
@pytest.mark.parametrize("model", [
    {"kind": "harmonic1d_power 400"},
    {"kind": "table", "values": [1, 2, 3, 4, 5, 6, 7, 10**400]},
], ids=["power-400", "table-1e400"])
def test_eigenvalues_beyond_the_float_range_exit_1(tmp_path, capsys, cmd, model):
    cfg = write_config(tmp_path, c="1/2", f={"1": "exp(it)"}, kappa="1/3",
                       j_modes=8, model=model)
    assert main([cmd, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "model: " in err and "float range" in err
    assert "Traceback" not in err


# --------------------------------------------------------------------------- #
# entry-point plumbing
# --------------------------------------------------------------------------- #

def test_no_command_exits_1(capsys):
    assert main([]) == 1


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_help_via_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "hypotorus.cli", "--help"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    for word in ("solve", "classify", "diophantine", "decay", "witness"):
        assert word in proc.stdout


# --------------------------------------------------------------------------- #
# cookbook determinism
# --------------------------------------------------------------------------- #

def _run_cookbook(config_path: Path, out: Path, solve_dir: Path) -> None:
    command = config_path.name.split("_", 1)[0]
    args = [command, "--config", str(config_path), "--out", str(out)]
    if command == "decay":
        args += ["--input", str(solve_dir / "u_field.csv")]
    code = main(args)
    assert code in (0, 2), f"{config_path.name} exited {code}"


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_cookbook_exists_and_is_deterministic(tmp_path):
    configs = sorted(COOKBOOK.glob("*.json"))
    assert len(configs) >= 5, "cookbook should ship several ready-made configs"
    solve_cfg = [p for p in configs if p.name.startswith("solve")][0]
    seed_solve = tmp_path / "seed_solve"
    _run_cookbook(solve_cfg, seed_solve, seed_solve)
    for cfg in configs:
        runs = []
        for tag in ("r1", "r2"):
            out = tmp_path / f"{cfg.stem}_{tag}"
            _run_cookbook(cfg, out, seed_solve)
            runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert runs[0] == runs[1], f"{cfg.name} is not byte-deterministic"
        for name, data in runs[0].items():
            if name.endswith(".json"):   # strict JSON: no NaN or Infinity
                json.loads(data, parse_constant=_refuse_constant)


# --------------------------------------------------------------------------- #
# typed errors: each config below once ended in a traceback or a bare
# ValueError; now each is a HypotorusError with its exit code
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("kappa", ["nan", "inf", "1e400"])
def test_non_finite_kappa_is_refused(tmp_path, capsys, kappa):
    cfg = write_config(tmp_path, kappa=kappa)
    out = tmp_path / "out"
    assert main(["diophantine", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "kappa" in err and "Traceback" not in err
    assert not (out / "distances.csv").exists()


@pytest.mark.parametrize("command, fields", [
    ("diophantine", {"construct_levels": 4, "j_modes": 256}),
    ("witness", {"witness_kind": "L0", "construct_levels": 5}),
])
def test_level_overflow_exits_1(tmp_path, capsys, command, fields):
    cfg = write_config(tmp_path, **fields)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "level 4: needs mode index" in capsys.readouterr().err


def test_witness_check_failure_exits_1(tmp_path, capsys):
    # two eigenvalues 0: the built witness fails its decay check
    cfg = write_config(tmp_path, c="1/2 + i sin t", j_modes=2,
                       model={"kind": "table", "values": [0, 0]})
    out = tmp_path / "out"
    assert main(["classify", "--witness", "--config", cfg, "--out", str(out)]) == 1
    assert "witness construction failed: witness verification failed" in capsys.readouterr().err
    assert read_json(out, "verdict.json")["decision"] == "notGH"


# --------------------------------------------------------------------------- #
# size ceiling: estimates only, nothing is allocated
# --------------------------------------------------------------------------- #

def _config_sizes(argvs) -> dict:
    """name -> array_bytes of each (name, argv) CLI call; None for a config
    that loading refuses."""
    sizes = {}
    for name, argv in argvs:
        ns = _build_parser().parse_args([str(a) for a in argv])
        try:
            sizes[name] = _load_config(ns).array_bytes(ns.command)
        except ConfigError:
            sizes[name] = None
    return sizes


def test_shipped_configs_stay_under_the_ceiling(tmp_path, monkeypatch):
    # every cookbook config, the benchmark's ops (seeds 1 and 101) and the
    # extra configs of tools/bytediff.py
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    monkeypatch.chdir(tmp_path)
    sizes = _config_sizes(_bytediff().calls(ROOT, workloads))
    # the one config that loading refuses: three f keys that name mode 1
    assert [name for name, size in sizes.items() if size is None] == ["extra/f-duplicate-keys"]
    sizes.pop("extra/f-duplicate-keys")
    assert sum(name.startswith("cookbook/") for name in sizes) >= 5
    assert max(sizes.values()) <= MAX_ARRAY_BYTES
    # the largest: the verdicts witness store and the diophantine table
    assert sizes["verdicts-1/classify-sign-change"] == 16 * 512 * 8192
    assert sizes["verdicts-1/diophantine-rational"] == 512 * 65536


@pytest.mark.parametrize("command, fields", [
    ("classify", {"c": "1/2", "j_modes": 10**8}),
    ("classify", {"c": "1/2", "grid_n": 2**30}),
    ("solve", {"c": "1/2", "grid_n": 65536, "j_modes": 65536}),
    ("witness", {"c": "i sin t", "witness_n": 2**30}),
    ("classify", {"c": "1/2 + i sin t", "witness": True, "j_modes": 1024, "witness_n": 2**14}),
    ("witness", {"c": "1", "witness_kind": "constant", "j_modes": 1, "witness_n": 2**22}),
    ("diophantine", {"kappa": "1/3", "j_modes": 2 * 10**8}),
])
def test_oversized_configs_are_refused_before_building(tmp_path, command, fields):
    assert ExperimentConfig(fields).array_bytes(command) > MAX_ARRAY_BYTES
    cfg = write_config(tmp_path, **fields)
    with pytest.raises(ConfigError, match="ceiling"):
        _load_config(_build_parser().parse_args([command, "--config", cfg]))


def test_dense_collocation_over_the_ceiling_exits_1(tmp_path):
    # band half-width d = 400 is too wide for the banded solver at grid 8192
    # (8(3d + 1) > n); the dense branch's 1 GiB matrices are refused before
    # any n x n array is built, though the up-front estimate (a 512 KiB field)
    # passes.  The child runs under a 1 GiB address-space limit, so a build
    # that is not refused fails on its own memory, not the machine's.
    fields = {"c": "i(1 - cos t) + 1/100 sin 400t", "grid_n": 8192, "j_modes": 4,
              "f": {str(j): "exp(it)" for j in range(4)}}
    assert ExperimentConfig(fields).array_bytes("solve") <= MAX_ARRAY_BYTES
    cfg = write_config(tmp_path, **fields)
    proc = subprocess.run(
        [sys.executable, "-m", "hypotorus.cli", "solve", "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    assert proc.returncode == 1
    assert "grid n = 8192, band half-width d = 400" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_ceiling_counts_only_what_the_command_builds():
    cfg = ExperimentConfig({"j_modes": 65536})            # grid_n 256: 256 MiB as a field
    assert cfg.array_bytes("diophantine") == 512 * 65536
    assert cfg.array_bytes("solve") == 16 * 65536 * 256
    assert cfg.array_bytes("classify") == 512 * 65536
    assert cfg.with_overrides(witness=True).array_bytes("classify") == 16 * 65536 * 1024


def test_decay_ceiling_counts_every_derivative(tmp_path, capsys):
    t = (2.0 * np.pi * np.arange(8) / 8).tolist()
    upath = tmp_path / "u.csv"
    upath.write_text("\n".join(["j,t,re,im"] + [f"{j},{ti!r},1.0,0.0" for j in range(40)
                                               for ti in t]) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path, j_modes=40, k_max=10**9, input=str(upath))
    assert main(["decay", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "(40, 8) mode field" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# flags: each flag's dest is the config key it overrides
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("argv, key, value", [
    (["solve", "--f-file", "f.csv"], "f_file", "f.csv"),
    (["classify", "--witness"], "witness", True),
    (["diophantine", "--kappa", "1/3"], "kappa", "1/3"),
    (["diophantine", "--construct", "3"], "construct_levels", 3),
    (["decay", "--input", "u.csv"], "input", "u.csv"),
    (["decay", "--k-max", "2"], "k_max", 2),
    (["witness", "--kind", "L0"], "witness_kind", "L0"),
    (["witness", "--levels", "4"], "construct_levels", 4),
])
def test_flags_override_their_config_keys(tmp_path, argv, key, value):
    cfg = write_config(tmp_path, witness=True, k_max=3)
    assert _load_config(_build_parser().parse_args(argv))[key] == value
    loaded = _load_config(_build_parser().parse_args(argv + ["--config", cfg]))
    assert loaded[key] == value
    # a flag left out keeps the file's value
    assert (loaded["witness"], loaded["k_max"]) == (True, value if key == "k_max" else 3)


# --------------------------------------------------------------------------- #
# the README exit-code table
# --------------------------------------------------------------------------- #

def _error_classes() -> set:
    found, todo = set(), [HypotorusError]
    while todo:
        cls = todo.pop()
        found.add(cls)
        todo += cls.__subclasses__()
    return {c for c in found if c.__module__.startswith("hypotorus.")}


def test_readme_exit_code_table_matches_the_classes():
    import hypotorus.cli  # noqa: F401 -- every module that defines an error
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `(\w+)` \| (\d) \|", text, flags=re.M))
    classes = {cls.__name__: cls for cls in _error_classes()}
    assert len(classes) == len(_error_classes())          # names are unique
    assert sorted(rows) == sorted(classes)
    for name, code in rows.items():
        assert classes[name].exit_code == int(code), name
    assert {cls.exit_code for cls in classes.values()} == {1, 2, 3}

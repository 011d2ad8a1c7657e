import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clik
import clik.asymptotics as asy
import clik.cli as cli
import clik.composite as comp
import clik.models
import clik.svgfig as svgfig
import clik.verify as verify_mod
from clik.asymptotics import EfficiencyCurve
from clik.cli import main, parse_sim_config
from clik.errors import ConfigError
from clik.models import score_bytes


def rows_of(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_figure1_outputs(tmp_path):
    out = str(tmp_path)
    assert main(["figure1", "--out", out, "--grid", "149"]) == 0
    curve = EfficiencyCurve.from_csv(tmp_path / "figure1.csv")
    x, r = curve.x, curve.value("ratio")
    # the exact zero-correlation reference row is present
    at0 = r[np.argmin(np.abs(x))]
    assert abs(x[np.argmin(np.abs(x))]) == 0.0
    assert at0 == pytest.approx(1.0, abs=1e-9)
    # a 149-point grid on [-0.49, 0.99] lands exactly on 0.5
    idx = np.argmin(np.abs(x - 0.5))
    assert x[idx] == pytest.approx(0.5, abs=1e-12)
    assert r[idx] == pytest.approx(0.67, abs=1e-10)
    # the ratio peaks at the smallest grid point, where it diverges
    assert np.argmax(r) == 0
    assert (tmp_path / "figure1.svg").read_text().startswith("<svg")
    manifest = json.loads((tmp_path / "figure1_manifest.json").read_text())
    assert manifest["command"] == "figure1"
    assert len(manifest["outputs"]) == 2
    assert "wall_time_s" in manifest


def test_failed_figure_write_leaves_no_temp_file(tmp_path):
    # a label that cannot be encoded fails the write once the temp file is
    # open: the old figure stays and no temp file is left beside it
    path = tmp_path / "figure.svg"
    path.write_text("old")
    panel = svgfig.Panel("x", "y").add([0.0, 1.0], [0.0, 1.0], label="\ud800")
    with pytest.raises(UnicodeEncodeError):
        svgfig.write_figure(path, panel)
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["figure.svg"]


def test_figure2_deterministic_rerun(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["figure2", "--grid", "3", "--draws", "2000", "--seed", "9"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "figure2.csv").read_bytes() == (out_b / "figure2.csv").read_bytes()
    curve = EfficiencyCurve.from_csv(out_a / "figure2.csv")
    assert curve.value_names == ("ratio", "std_err")


def test_figure3_outputs(tmp_path):
    out = str(tmp_path)
    assert main(["figure3", "--out", out]) == 0
    curve = EfficiencyCurve.from_csv(tmp_path / "figure3.csv")
    near_040 = curve.rows[np.argmin(np.abs(curve.x - 0.40))]
    _, nvar_full, nvar_ind, nvar_pair, _ = near_040
    assert nvar_pair > nvar_ind > nvar_full
    near_005 = curve.rows[np.argmin(np.abs(curve.x - 0.05))]
    assert max(near_005[1:4]) / min(near_005[1:4]) < 1.05

    assert main(["figure3", "--k", "1", "--out", str(tmp_path / "k1")]) == 0
    flat = EfficiencyCurve.from_csv(tmp_path / "k1" / "figure3.csv")
    assert np.max(np.abs(flat.value("ratio_pair_over_ind") - 1)) < 1e-9


def test_example2_outputs(tmp_path):
    out = str(tmp_path)
    assert main(["example2", "--sigma2", "2,1000000", "--out", out]) == 0
    rows = rows_of(tmp_path / "example2.csv")
    by_sigma = {}
    for row in rows:
        by_sigma.setdefault(float(row["sigma2"]), []).append(row)
    star2 = float(by_sigma[2.0][0]["rho_star"])
    assert abs(star2 + 5.0 / 9.0) <= 1e-12
    star_big = float(by_sigma[1e6][0]["rho_star"])
    assert -0.51 < star_big < -0.5
    at_minus_one = [r for r in by_sigma[2.0] if float(r["rho"]) == -1.0]
    assert at_minus_one and float(at_minus_one[0]["v12"]) == 0.0


def test_example2_huge_sigma2_gives_finite_rows(tmp_path):
    # sigma2 ** 2 and 4 sigma2 overflow here; the closed forms are taken
    # in 1/sigma2 instead
    assert main(["example2", "--sigma2", "1e200,1e308", "--grid", "5",
                 "--out", str(tmp_path)]) == 0
    rows = rows_of(tmp_path / "example2.csv")
    assert len(rows) == 10
    for row in rows:
        assert all(np.isfinite(float(v)) for v in row.values())
        assert float(row["rho_star"]) == -0.5


def test_example2_explicit_rho_grid(tmp_path):
    assert main(["example2", "--sigma2", "2", "--rho", "0.5,-1,0",
                 "--out", str(tmp_path)]) == 0
    rows = rows_of(tmp_path / "example2.csv")
    assert [float(r["rho"]) for r in rows] == [-1.0, 0.0, 0.5]


@pytest.mark.parametrize("argv, expected", [
    (["--sigma2", "2,0.5", "--rho", "0.5,-1,0"], [
        "2.0,-1.0,0.0,0.08,-0.5555555555555556",
        "2.0,0.0,0.5,0.4,-0.5555555555555556",
        "2.0,0.5,0.75,0.56,-0.5555555555555556",
        "0.5,-1.0,0.0,0.125,-0.6666666666666666",
        "0.5,0.0,0.5,0.25,-0.6666666666666666",
        "0.5,0.5,0.75,0.3125,-0.6666666666666666"]),
    (["--sigma2", "1,2,3,4,5", "--grid", "7"], None),
])
def test_example2_rows_stream_in_sigma2_then_rho_order(tmp_path, argv,
                                                       expected):
    # the rows as a list built point by point, one sigma2 after another
    if expected is None:
        expected = []
        for s2 in (1.0, 2.0, 3.0, 4.0, 5.0):
            star = asy.two_block_threshold(s2)
            for rho in np.linspace(-1.0, 1.0, 7):
                v12, v123 = asy.two_block_mean_variances(s2, float(rho))
                expected.append(",".join(repr(float(v)) for v in
                                         (s2, rho, v12, v123, star)))
    assert main(["example2", *argv, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "example2.csv", newline="") as fh:
        text = fh.read()
    assert text == "\r\n".join(["sigma2,rho,v12,v123,rho_star", *expected,
                                 ""])


def test_example2_rejects_bad_sigma_list(tmp_path):
    assert main(["example2", "--sigma2", "2,zebra",
                 "--out", str(tmp_path)]) == 2
    assert main(["example2", "--rho", "0.1,x",
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [
    ["figure1", "--p", "1"], ["figure1", "--grid", "0"],
    ["figure2", "--p", "1"], ["figure2", "--grid", "0"],
    ["figure2", "--draws", "10"], ["figure2", "--seed", "-1"],
    ["figure2", "--sigma2", "nan"],
    ["figure3", "--k", "0"], ["figure3", "--k", "inf"],
    ["figure3", "--grid", "1"],
    ["figure3", "--k", "1e-300", "--grid", "5"], ["figure3", "--k", "1e-160"],
    ["figure3", "--k", "1e-150"],
    ["example2", "--grid", "0"], ["example2", "--grid", "-1"],
    ["example2", "--sigma2", ""], ["example2", "--sigma2", "nan"],
    ["verify", "--seed", "-1"],
], ids=" ".join)
def test_numeric_flags_exit_2_with_a_message(argv, tmp_path, capsys):
    # every numeric flag is checked before output is written: no
    # traceback, no output
    try:
        code = main(argv + ["--out", str(tmp_path / "out")])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_overflowing_k_exits_2_naming_k(tmp_path, capsys):
    cfg = tmp_path / "mult.cfg"
    cfg.write_text("model = multinomial4\nk = 1e308\ntheta = 0.1\n"
                   "n = 100\nreplicates = 100\nspecs = full\n")
    for argv in (["figure3", "--k", "1e308"], ["simulate", str(cfg)]):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "k=1e+308 is too large" in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sigma2,code", [
    ("1e-8", 2), ("1e200", 2), ("1e250", 2), ("1e300", 2),
    ("1e-5", 0), ("1e-3", 0), ("1e150", 0)])
def test_figure2_extreme_sigma2_runs_or_names_the_value(sigma2, code,
                                                        tmp_path, capsys):
    argv = ["figure2", "--grid", "5", "--draws", "2000", "--sigma2", sigma2,
            "--out", str(tmp_path)]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert f"sigma2={float(sigma2):g}" in lines[0]
    else:
        assert err == ""


def test_simulate_smoke(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# smoke study\n"
        "model = emvn\n"
        "p = 3\n"
        "rho = 0.5\n"
        "sigma2 = 1.0\n"
        "n = 500\n"
        "replicates = 200\n"
        "seed = 1\n"
        "specs = pairwise\n")
    assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 0
    summary = rows_of(tmp_path / "simulate_summary.csv")
    assert {row["spec"] for row in summary} == {"pairwise"}
    assert {row["param"] for row in summary} == {"rho", "sigma2"}
    assert all(row["failures"] == "0" for row in summary)
    est = rows_of(tmp_path / "simulate_estimates.csv")
    assert len(est) == 200 * 2
    manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
    assert manifest["seed"] == 1


def test_simulate_config_errors(tmp_path):
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("model = emvn\nrho = 0.5\nbogus = 1\n"
                       "n = 100\nreplicates = 200\nspecs = pairwise\n")
    with pytest.raises(ConfigError, match="bogus"):
        parse_sim_config(bad_key)
    assert main(["simulate", str(bad_key), "--out", str(tmp_path)]) == 2

    low_r = tmp_path / "low.cfg"
    low_r.write_text("model = emvn\nrho = 0.5\nn = 100\nreplicates = 50\n"
                     "specs = pairwise\n")
    with pytest.raises(ConfigError, match="replicates"):
        parse_sim_config(low_r)

    no_eq = tmp_path / "noeq.cfg"
    no_eq.write_text("model emvn\n")
    with pytest.raises(ConfigError, match="noeq.cfg:1"):
        parse_sim_config(no_eq)

    bad_spec = tmp_path / "spec.cfg"
    bad_spec.write_text("model = emvn\nrho = 0.5\nn = 100\nreplicates = 200\n"
                        "specs = wat\n")
    with pytest.raises(ConfigError, match="wat"):
        parse_sim_config(bad_spec)

    valid = "model = emvn\nrho = 0.5\nn = 100\nreplicates = 200\nspecs = pairwise\n"
    for name, text, match in (
            ("seed.cfg", valid + "seed = -1\n", "seed must be >= 0"),
            ("inf.cfg", valid.replace("n = 100", "n = inf"), "infinity"),
            ("bytes.cfg", valid.replace("rho", "rho\xff"), "not UTF-8"),
            # a fractional size is refused, never truncated
            ("p.cfg", valid + "p = 3.7\n", "'p' must be an integer, got '3.7'"),
            ("n.cfg", valid.replace("n = 100", "n = 20.9"), "'n' must be an"),
            ("reps.cfg", valid.replace("replicates = 200", "replicates = 10.5"),
             "'replicates' must be an integer"),
            ("seed-frac.cfg", valid + "seed = 1.5\n",
             "'seed' must be an integer")):
        cfg = tmp_path / name
        cfg.write_bytes(text.encode("latin-1"))
        with pytest.raises(ConfigError, match=match):
            parse_sim_config(cfg)
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 2

    # integral floats are integers
    whole = tmp_path / "whole.cfg"
    whole.write_text(valid.replace("n = 100", "n = 5e2").replace(
        "replicates = 200", "replicates = 200.0") + "p = 4.0\nseed = 7e0\n")
    config = parse_sim_config(whole)
    assert (config.model.p, config.n, config.replicates, config.seed) \
        == (4, 500, 200, 7)
    assert all(type(v) is int for v in (config.model.p, config.n,
                                        config.replicates, config.seed))


def test_simulate_unsupported_spec_exits_2(tmp_path):
    # every TriNormal parameter fixed leaves the run nothing to fit
    cfg = tmp_path / "tri.cfg"
    cfg.write_text("model = trinormal\nn = 100\nreplicates = 100\n"
                   "specs = pairwise!mu!rho!sigma2\n")
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(os.path.abspath(clik.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "clik", "simulate", str(cfg), "--out",
         str(out)], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")
    assert "'pairwise!mu!rho!sigma2' leaves no free parameter" in proc.stderr
    assert not (out / "simulate_estimates.csv").exists()


def assert_import_leaves_unloaded(module):
    """``import clik, clik.cli`` in a fresh interpreter leaves ``module``
    out of ``sys.modules``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(clik.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import clik, clik.cli, sys; assert {module!r} not in sys.modules"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_import_does_not_load_scipy():
    # scipy costs most of the start-up time and is a test-only dependency
    assert_import_leaves_unloaded("scipy")


@pytest.mark.parametrize("module", ["concurrent.futures.process",
                                    "multiprocessing", "numpy.random"])
def test_import_does_not_load_multiprocessing(module):
    # only a multi-worker run needs the process pool, and only sampling
    # needs numpy.random: neither is paid by every command at start-up
    assert_import_leaves_unloaded(module)


@pytest.mark.parametrize("model_lines, specs", [
    ("model = emvn\np = 3\nrho = 0.3\n", "pairwise, independence"),
    ("model = emvn\np = 4\nrho = 0.3\n", "independence!sigma2"),
    ("model = trinormal\nrho = 0.4\n", "chain!rho, independence!mu"),
])
def test_simulate_rejects_uninformative_spec_before_sampling(
        tmp_path, monkeypatch, capsys, model_lines, specs):
    # the independence score carries nothing on rho: every Newton fit
    # would end in a singular Jacobian, so no replicate is drawn
    def no_draws(*args, **kwargs):
        raise AssertionError("sampled an unfittable study")

    for cls in (clik.models.GaussianModel, clik.models.Multinomial4):
        monkeypatch.setattr(cls, "sample", no_draws)
        monkeypatch.setattr(cls, "sampler", no_draws)
    cfg = tmp_path / "ind.cfg"
    cfg.write_text(model_lines + f"specs = {specs}\n"
                   "n = 100\nreplicates = 100\n")
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'independence'" in err
    assert "exact information is singular" in err
    assert not (out / "simulate_estimates.csv").exists()


@pytest.mark.parametrize("model_lines, specs", [
    ("model = emvn\np = 3\nrho = 0.5\n",
     "full_conditional, full_conditional!sigma2"),
    ("model = multinomial4\nk = 5\ntheta = 0.2\n", "pairwise, independence"),
    ("model = emvn\np = 3\nrho = 0.5\n", "pairwise, pairwise!sigma2"),
])
def test_informative_specs_pass_the_check(tmp_path, model_lines, specs):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(model_lines + f"specs = {specs}\nn = 100\n"
                   "replicates = 100\n")
    config = parse_sim_config(cfg)
    assert [run.label for run in config.runs] == [
        s.strip() for s in specs.split(",")]


def test_simulate_config_fixed_suffix(tmp_path):
    cfg = tmp_path / "fix.cfg"
    cfg.write_text("model = emvn\np = 3\nrho = 0.4\nsigma2 = 1.5\nn = 100\n"
                   "replicates = 100\nspecs = pairwise, pairwise!sigma2\n")
    config = parse_sim_config(cfg)
    assert [r.label for r in config.runs] == ["pairwise", "pairwise!sigma2"]
    assert dict(config.runs[1].fixed) == {"sigma2": 1.5}


def test_verify_quick_reports_known_failure(tmp_path, capsys, monkeypatch):
    # the sensitivity tampering hook is the one known way to make verify fail
    monkeypatch.setattr(verify_mod, "DEBUG_SENSITIVITY_OFFSET", 0.1)
    code = main(["verify", "--level", "quick", "--out", str(tmp_path)])
    assert code == 1
    rows = rows_of(tmp_path / "verify_report.csv")
    failed = {row["check"] for row in rows if row["pass"] == "False"}
    assert failed
    assert all(check.startswith("sandwich-dominance/") for check in failed)
    assert len(rows) > 45
    assert all(float(row["wall_s"]) > 0 for row in rows)
    assert {int(row["seed"]) for row in rows} == {
        20260810 + 100 * i for i in range(len(verify_mod.ALL_CHECKS))}
    out = capsys.readouterr().out
    assert "[pass]" in out and "[FAIL]" in out


def test_verify_report_records_wall_time_and_seed(tmp_path, monkeypatch):
    # each check function is called by keyword, timed once, and every
    # result it returns carries that time and its seed
    def slow(*, level, seed):
        time.sleep(0.05)
        return [verify_mod.CheckResult("slow/a", 1.0, 2.0, True),
                verify_mod.CheckResult("slow/b", 3.0, 2.0, False, "over")]

    def fast(*, level, seed):
        return [verify_mod.CheckResult("fast", 0.5, 1.0, True)]

    monkeypatch.setattr(verify_mod, "ALL_CHECKS", [slow, fast])
    results = verify_mod.run_all(level="quick", seed=7)
    path = tmp_path / "verify_report.csv"
    verify_mod.write_report(results, path)
    with open(path, newline="") as fh:
        assert next(csv.reader(fh)) == ["check", "value", "threshold", "pass",
                                        "detail", "wall_s", "seed"]
    rows = rows_of(path)
    assert [row["check"] for row in rows] == ["slow/a", "slow/b", "fast"]
    assert rows[1]["detail"] == "over" and rows[1]["pass"] == "False"
    assert [row["seed"] for row in rows] == ["7", "7", "107"]
    assert rows[0]["wall_s"] == rows[1]["wall_s"]
    assert float(rows[0]["wall_s"]) >= 0.05 > float(rows[2]["wall_s"])


def test_ratio_crossing_negative_control(monkeypatch):
    known = asy.avar_rho_known_sigma

    def ratio_checks(factor):
        monkeypatch.setattr(asy, "avar_rho_known_sigma",
                            lambda p, rho: factor(np.asarray(rho)) * known(p, rho))
        return {r.check_id: r for r in verify_mod.check_pairwise_ratio_curve()}

    # a 1e-6 relative error moves the closed-form crossing by ~4e-7, far
    # beyond the 1e-8 agreement with the exact-moment crossing
    nudged = ratio_checks(lambda rho: 1 + 1e-6)
    assert not nudged["pairwise-ratio-crossing"].passed
    assert nudged["pairwise-ratio-crossing"].value > 1e-8
    # 1% lifts the ratio above 1 at both bracket ends: no crossing is left
    lifted = ratio_checks(lambda rho: 1.01)
    assert not lifted["pairwise-ratio-crossing"].passed
    assert not lifted["pairwise-ratio-negative-side"].passed
    # lifting only (-0.04, 0), outside the root bracket, keeps the crossing
    # but puts grid points above rho* over 1
    bumped = ratio_checks(
        lambda rho: np.where((rho > -0.04) & (rho < 0), 1.01, 1.0))
    assert bumped["pairwise-ratio-crossing"].passed
    assert bumped["pairwise-ratio-positive-side"].passed
    assert not bumped["pairwise-ratio-negative-side"].passed


def test_sandwich_tampering_negative_control():
    baseline = verify_mod.check_sandwich_dominance(level="quick", seed=77)
    assert all(r.passed for r in baseline)
    old = verify_mod.DEBUG_SENSITIVITY_OFFSET
    try:
        verify_mod.DEBUG_SENSITIVITY_OFFSET = 0.1
        tampered = verify_mod.check_sandwich_dominance(level="quick", seed=77)
    finally:
        verify_mod.DEBUG_SENSITIVITY_OFFSET = old
    assert any(not r.passed for r in tampered)


# ---------------------------------------------------------------------------
# fuzzed simulate configs
# ---------------------------------------------------------------------------


#: Values that parse as valid for each key; numeric ranges stay small so
#: that a config that runs is a small study.
VALID_VALUES = {
    "model": st.sampled_from(["emvn", "trinormal", "multinomial4", "EMVN"]),
    "p": st.integers(2, 5).map(str),
    "k": st.floats(0.5, 10.0).map(repr),
    "rho": st.floats(-0.3, 0.9).map(repr),
    "sigma2": st.floats(0.3, 3.0).map(repr),
    "mu": st.floats(-1.0, 1.0).map(repr),
    "theta": st.floats(0.02, 0.3).map(repr),
    "n": st.integers(10, 40).map(str),
    "replicates": st.integers(100, 120).map(str),
    "seed": st.integers(0, 1000).map(str),
    "specs": st.lists(
        st.tuples(st.sampled_from(["independence", "pairwise", "chain",
                                   "full_conditional", "full"]),
                  st.sampled_from(["", "", "", "!sigma2", "!rho", "!mu",
                                   "!theta", "!rho!sigma2"]))
        .map("".join), min_size=1, max_size=3).map(", ".join),
}
SAFE_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\n\r"), max_size=8)
ODD_VALUES = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "-1", "0", "3.5",
                     "1e-300", "abc", "!", "pairwise!", ",", "=", "emvn"]),
    st.integers(-5, 12).map(str), st.floats(-2.0, 2.0).map(repr), SAFE_TEXT)


@st.composite
def config_files(draw):
    """The bytes of a config file: every known key in random order, up to
    three of them with an odd value or left out, then unknown keys,
    repeats, comments, lines without '=' and bytes that are not UTF-8."""
    keys = draw(st.permutations(sorted(VALID_VALUES)))
    # explicit weights keep about half of the files valid, so that the
    # study itself runs too
    broken = keys[:draw(st.sampled_from([0, 0, 0, 0, 1, 1, 2, 3]))]
    lines = []
    for key in keys:
        if key not in broken:
            lines.append(f"{key} = {draw(VALID_VALUES[key])}")
        elif draw(st.booleans()):
            lines.append(f"{key} = {draw(ODD_VALUES)}")
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        key = draw(st.one_of(st.sampled_from(keys), SAFE_TEXT))
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from([f"{key} = {draw(ODD_VALUES)}",
                                           f"# {key}", key])))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if draw(st.sampled_from([False] * 7 + [True])):
        junk = draw(st.binary(min_size=1, max_size=4))
        at = draw(st.integers(0, len(data)))
        data = data[:at] + junk + data[at:]
    return data


def sets_a_fractional_size(cfg) -> bool:
    """Whether a line of the config file ``cfg``, read as the parser reads
    it, sets a size the parser reads (``n``, ``replicates``, ``seed``, and
    ``p`` of an EMVN model) to a finite number with a fractional part,
    such as a drawn ``3.5``."""
    try:
        with open(cfg, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        return False
    pairs = [(key.strip(), val.strip()) for key, eq, val in
             (raw.split("#", 1)[0].partition("=") for raw in lines) if eq]
    emvn = any(key == "model" and val.lower() == "emvn" for key, val in pairs)
    for key, val in pairs:
        if key in ("n", "replicates", "seed") or (key == "p" and emvn):
            try:
                x = float(val)
            except ValueError:
                continue
            if math.isfinite(x) and not x.is_integer():
                return True
    return False


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=config_files())
@example(data=b"model = emvn\np = 3\nrho = 0.3\nn = 20\nreplicates = 100\n"
              b"seed = 3.5\nspecs = pairwise\n")
def test_fuzzed_simulate_config_exits_cleanly(data):
    # any config either runs (0) or is refused with a message (2); an
    # uncaught exception here is a traceback for the user.  A fractional
    # size is refused, never truncated into a run
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "study.cfg")
        with open(cfg, "wb") as fh:
            fh.write(data)
        code = main(["simulate", cfg, "--out", os.path.join(tmp, "out")])
        assert code == 2 if sets_a_fractional_size(cfg) else code in (0, 2)


# ---------------------------------------------------------------------------
# odd flag values and odd config lines
# ---------------------------------------------------------------------------


#: Values no flag of its kind accepts: every drawn command line carries one,
#: so it must be refused.  Integers above sys.maxsize are refused when parsed.
NEVER_VALID = {
    "size": ["", "x", "nan", "inf", "1.5", "1e3", "-1", "0",
             "99999999999999999999999", "-99999999999999999999"],
    "seed": ["", "x", "nan", "-1", "1.5", "1e400"],
    "positive": ["", "x", "nan", "inf", "-inf", "0", "-1", "1e400", "1e-400",
                 ","],
    "sigma2-list": ["", "x", "nan", "inf", "1e400", ",", "1,x", "-1", "0"],
    "rho-list": ["x", "nan", "inf", "1e400", ",,x", "1,x", "2", "-1.5"],
    "level": ["", "x", "Full", "slow"],
}
#: Other values, valid or not; valid sizes stay small, so a command that
#: gets this far is quick.
ANY_VALUE = st.sampled_from(["", "x", "nan", "-1", "0", "1", "2", "3",
                             "0.5", "1e-3", "٣", " 7", "1,2", "--"])
#: Flags of each command and their kinds; figure2 and verify run with the
#: given cheap settings unless a drawn flag replaces them.
COMMAND_FLAGS = {
    "figure1": {"--p": "size", "--grid": "size"},
    "figure2": {"--p": "size", "--grid": "size", "--draws": "size",
                "--sigma2": "positive", "--seed": "seed"},
    "figure3": {"--k": "positive", "--grid": "size"},
    "example2": {"--sigma2": "sigma2-list", "--rho": "rho-list",
                 "--grid": "size"},
    "verify": {"--level": "level", "--seed": "seed"},
}
CHEAP = {"figure2": ["--grid", "2", "--draws", "2000"],
         "verify": ["--level", "quick"]}


@st.composite
def odd_command_lines(draw):
    """A command with one flag set to a value it never accepts and up to
    two others set to any value."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = COMMAND_FLAGS[command]
    names = draw(st.lists(st.sampled_from(sorted(flags)), min_size=1,
                          max_size=3, unique=True))
    argv = [command] + CHEAP.get(command, [])
    for name in names[1:]:
        argv += [name, draw(ANY_VALUE)]
    # last, so that it is the value argparse keeps
    return argv + [names[0], draw(st.sampled_from(NEVER_VALID[flags[names[0]]]))]


#: Config lines that make any config invalid.
ODD_CONFIG_LINES = st.one_of(
    st.sampled_from(["tau = 1", "model", "= 3", "n = 20", "specs = nope",
                     "specs = pairwise!tau", "specs = ,"]),
    st.tuples(st.sampled_from(["model", "p", "rho", "n", "replicates",
                               "seed"]),
              st.sampled_from(["", "x", "nan", "inf", "1e400", "-1"]))
    .map(" = ".join),
    st.sampled_from(["n", "replicates"]).map(
        lambda key: f"{key} = 99999999999999999999999"))


def assert_refused(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert code == 2, (argv, err)
    assert "error:" in err and "Traceback" not in err, (argv, err)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=odd_command_lines())
def test_odd_flag_values_exit_2_with_a_message(argv):
    with tempfile.TemporaryDirectory() as tmp:
        assert_refused(argv + ["--out", os.path.join(tmp, "out")])
        assert not os.path.exists(os.path.join(tmp, "out"))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(line=ODD_CONFIG_LINES, at=st.integers(0, 6))
def test_odd_config_lines_exit_2_with_a_message(line, at):
    # "n = 20" repeats a key: every drawn line makes the config invalid
    lines = ["model = emvn", "p = 3", "rho = 0.3", "n = 20",
             "replicates = 100", "specs = pairwise"]
    lines.insert(at, line)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "study.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        assert_refused(["simulate", cfg, "--out", os.path.join(tmp, "out")])


def test_a_run_out_of_memory_exits_2_with_a_message(tmp_path, monkeypatch,
                                                    capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 EiB")
    monkeypatch.setattr(asy, "multinomial_variance_curves", exhausted)
    assert main(["figure3", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("error: not enough memory: Unable to "
                                       "allocate 8.00 EiB\n")


# ---------------------------------------------------------------------------
# sizes beyond memory
# ---------------------------------------------------------------------------


def refuse_spec(monkeypatch):
    """Make building the full-conditional spec fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("built a spec before the size check")
    monkeypatch.setattr(asy, "full_conditional", refuse)


def test_p_beyond_memory_is_refused_without_building_a_spec(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    # pure integer arithmetic: the bytes are counted, not allocated
    refuse_spec(monkeypatch)
    out = tmp_path / "out"
    assert main(["figure2", "--p", "3000000000", "--out", str(out)]) == 2
    assert "error: --p = 3000000000 is too large" in capsys.readouterr().err
    assert not out.exists()


def test_figure2_p_beyond_memory_exits_2_naming_the_flag(tmp_path,
                                                         monkeypatch,
                                                         capsys):
    # 64 MiB of memory: p = 40 needs 112 MiB of feature scratch alone;
    # the figure at p = 3 still runs
    monkeypatch.setattr(cli, "_physical_memory", lambda: 64 << 20)
    cheap = ["--grid", "2", "--draws", "2000", "--out", str(tmp_path / "a")]
    assert main(["figure2", "--p", "3"] + cheap) == 0

    refuse_spec(monkeypatch)
    out = tmp_path / "b"
    assert main(["figure2", "--p", "40", "--grid", "2", "--out",
                 str(out)]) == 2
    assert "error: --p = 40 is too large" in capsys.readouterr().err
    assert not out.exists()


def test_draws_beyond_memory_are_refused_without_drawing(tmp_path,
                                                         monkeypatch,
                                                         capsys):
    # pure integer arithmetic: one batch is sys.maxsize / 20 rows here
    refuse_spec(monkeypatch)
    out = tmp_path / "out"
    assert main(["figure2", "--draws", str(sys.maxsize), "--out",
                 str(out)]) == 2
    assert f"error: --draws = {sys.maxsize} is too large" in \
        capsys.readouterr().err
    assert not out.exists()


def test_figure2_draws_beyond_memory_exit_2_naming_the_flag(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    # 64 MiB of memory: a batch of 4e7 / 20 draws at p = 3 holds 2e6 rows
    # of noise and scores, 80 MB; 2e7 draws, 40 MB, pass the check
    monkeypatch.setattr(cli, "_physical_memory", lambda: 64 << 20)
    cli._check_memory([("--p", 3, score_bytes(4, 5, 3, 2)),
                       ("--draws", 20_000_000, 8 * 1_000_000 * 5)])

    refuse_spec(monkeypatch)
    out = tmp_path / "out"
    assert main(["figure2", "--draws", "40000000", "--grid", "2", "--out",
                 str(out)]) == 2
    assert "error: --draws = 40000000 is too large" in capsys.readouterr().err
    assert not out.exists()


def test_figure2_sizes_share_one_running_total(tmp_path, monkeypatch,
                                               capsys):
    # 2 MiB of memory: at p = 3 the score pass needs about 1.2 MB, a batch
    # of 2000 / 20 draws 4 kB and 5000 grid points 1.6 MB; each fits
    # alone, and the grid on top of the other two does not
    monkeypatch.setattr(cli, "_physical_memory", lambda: 2 << 20)
    assert score_bytes(4, 5, 3, 2) < 2 << 20 < \
        score_bytes(4, 5, 3, 2) + 5000 * cli._GRID_BYTES["figure2"]
    refuse_spec(monkeypatch)
    out = tmp_path / "out"
    assert main(["figure2", "--p", "3", "--draws", "2000", "--grid", "5000",
                 "--out", str(out)]) == 2
    assert "error: --grid = 5000 is too large" in capsys.readouterr().err
    assert not out.exists()


GRID_COMMANDS = [["figure1"], ["figure2"], ["figure3"], ["example2"],
                 ["example2", "--sigma2", "1,2,3,4,5,6,7,8"]]


@pytest.mark.parametrize("grid", [10 ** 6, sys.maxsize])
@pytest.mark.parametrize("argv", GRID_COMMANDS)
def test_grid_beyond_memory_exits_2_naming_the_flag(tmp_path, monkeypatch,
                                                    capsys, argv, grid):
    # 64 MiB of memory: a million points need 128 MB or more on every
    # command; the bytes are counted, and no grid is built
    monkeypatch.setattr(cli, "_physical_memory", lambda: 64 << 20)

    def refuse(*args, **kwargs):
        raise AssertionError("built a grid before the size check")
    monkeypatch.setattr(np, "linspace", refuse)
    out = tmp_path / "out"
    assert main(argv + ["--grid", str(grid), "--out", str(out)]) == 2
    assert f"error: --grid = {grid} is too large" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_p_is_not_held_to_the_figure2_bound(tmp_path, monkeypatch):
    # the figure2 bound, applied to the pairwise spec at p = 40, counts
    # 215 MiB, more than the 64 MiB set here: a study is not held to it
    monkeypatch.setattr(cli, "_physical_memory", lambda: 64 << 20)
    cfg = tmp_path / "study.cfg"
    cfg.write_text("model = emvn\np = 40\nrho = 0.3\nn = 50\n"
                   "replicates = 100\nspecs = pairwise\n")
    assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 0


def refuse_to_build(monkeypatch, *names):
    """Make building an EMVN, any spec or the identifiability check (each
    of ``names``) fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the size check")
    for name in names:
        if name == "specs":
            for spec in cli._SPEC_BUILDERS:
                monkeypatch.setitem(cli._SPEC_BUILDERS, spec, refuse)
        else:
            monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("key, sizes, memory", [
    # the identifiability check's forms: 19901 margins x 2 x 40201 floats
    # at p = 200, 12.8 GB
    ("p", {"p": 200}, 8 << 30),
    # a block of 5e6 rows of noise and the statistic's copy: 240 MB
    ("n", {"n": 5_000_000}, 64 << 20),
    # 1e6 statistics twice and two estimates each, their flags, norms and
    # text: 592 MB
    ("replicates", {"replicates": 1_000_000}, 64 << 20),
])
def test_simulate_sizes_beyond_memory_exit_2_naming_the_key(
        tmp_path, monkeypatch, capsys, key, sizes, memory):
    # integer arithmetic before any model, spec or form is built
    monkeypatch.setattr(cli, "_physical_memory", lambda: memory)
    values = {"p": 3, "n": 50, "replicates": 100, **sizes}
    cfg = tmp_path / "study.cfg"
    cfg.write_text("model = emvn\nrho = 0.3\nspecs = pairwise\n" + "".join(
        f"{name} = {value}\n" for name, value in values.items()))
    refuse_to_build(monkeypatch, "EMVN", "specs", "check_identified")
    with pytest.raises(ConfigError, match=f"key '{key}' = {values[key]} is "
                                          f"too large"):
        parse_sim_config(cfg)
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--out", str(out)]) == 2
    assert f"key '{key}' = {values[key]} is too large" in \
        capsys.readouterr().err
    assert not out.exists()


def test_newton_forms_of_a_chunk_are_counted_before_the_check(tmp_path,
                                                              monkeypatch):
    # full_conditional at p = 30 has no fast path: Newton builds the forms
    # of 31 margins at 2000 points, 923 MB; pairwise, on a fast path,
    # builds those of 436 margins once, 6.5 MB
    monkeypatch.setattr(cli, "_physical_memory", lambda: 256 << 20)
    cfg = tmp_path / "study.cfg"
    body = "model = emvn\np = 30\nrho = 0.3\nn = 50\nreplicates = 2000\n"
    cfg.write_text(body + "specs = pairwise, pairwise!sigma2\n")
    assert parse_sim_config(cfg).replicates == 2000
    cfg.write_text(body + "specs = pairwise, full_conditional\n")
    refuse_to_build(monkeypatch, "check_identified")
    with pytest.raises(ConfigError, match="key 'p' = 30 is too large"):
        parse_sim_config(cfg)


def test_simulate_summary_rows_are_computed_once(tmp_path, monkeypatch,
                                                 capsys):
    calls = []
    summary_rows = clik.montecarlo.SimResult.summary_rows

    def counted(self):
        calls.append(self)
        return summary_rows(self)
    monkeypatch.setattr(clik.montecarlo.SimResult, "summary_rows", counted)
    cfg = tmp_path / "study.cfg"
    cfg.write_text("model = emvn\nrho = 0.3\nn = 50\nreplicates = 100\n"
                   "specs = pairwise\n")
    assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    printed = capsys.readouterr().out
    written = (tmp_path / "simulate_summary.csv").read_text().splitlines()
    assert printed.splitlines() == written[1:]

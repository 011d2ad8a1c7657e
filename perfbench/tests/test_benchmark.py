"""Tests of the benchmark itself: BENCHMARK.json, seeded inputs, the
correctness gate and the traced run.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re

import numpy as np
import pytest

import clik
from clik import cli

import run
import tracing
import workloads as W

ROOT = run.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def bench():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def stored():
    with open(run.REFERENCE) as fh:
        return json.load(fh)


def test_benchmark_json_shape(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= len(bench["paths"]) <= 16
    for path in bench["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path
        assert (ROOT / path).is_dir()
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")


def test_benchmark_names_are_valid_and_unique(bench):
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))


def test_benchmark_names_match_the_code(bench):
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        tracing.LAYER_METRICS
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def _inputs_text(wl, seed, tmp_path):
    """A comparable rendering of a workload's inputs for one seed."""
    d = tmp_path / f"{wl.name}-{seed}-{len(os.listdir(tmp_path))}"
    d.mkdir()
    inputs = wl.make_inputs(seed, str(d))
    if isinstance(wl, W.SimWorkload):
        return [open(p).read() for p in inputs.configs]
    if isinstance(wl, W.InfoMonteCarlo):
        return list(inputs.argv[:-1])           # all but the output dir
    return [[t.values for t in c.thetas] for c in inputs]


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_seed_determines_the_inputs(name, tmp_path):
    wl = W.WORKLOADS[name]
    first = _inputs_text(wl, 1, tmp_path)
    assert first == _inputs_text(wl, 1, tmp_path)
    assert first != _inputs_text(wl, 2, tmp_path)


def test_sidak_limit():
    assert W.sidak_z(1) == pytest.approx(4.0, abs=1e-9)
    assert 4.0 < W.sidak_z(8) < W.sidak_z(48) < 5.0


@pytest.mark.parametrize("name", ["sim-pairwise", "sim-newton"])
def test_perturbed_estimate_trips_the_reference_gate(name, stored, tmp_path):
    wl = W.WORKLOADS[name]
    inputs = wl.make_inputs(W.REFERENCE_SEED, str(tmp_path), reference=True)
    outputs = wl.run_pass(inputs)
    assert W.compare_reference(name, wl.summaries(outputs), stored[name]) == []

    config = cli.parse_sim_config(inputs.configs[0])
    result = clik.SimResult(config)
    for label, (est, conv) in _by_label(config, outputs[0]).items():
        result.estimates[label], result.converged[label] = est, conv
    rebuilt = W.summary_entries(0, result.summary_rows())
    clean = {k: v for k, v in wl.summaries(outputs).items()
             if k.startswith("study0/")}
    assert rebuilt == clean

    label = config.runs[0].label
    result.estimates[label] = result.estimates[label].copy()
    result.estimates[label][7, 0] += 1e-3
    got = dict(wl.summaries(outputs))
    got.update(W.summary_entries(0, result.summary_rows()))
    problems = W.compare_reference(name, got, stored[name])
    assert any(f"study0/{label}/" in p for p in problems)


def _by_label(config, out_dir):
    """label -> (R x d estimates, converged) from a study's estimates CSV."""
    cols = W.SimWorkload.estimates(out_dir)
    out = {}
    for run_ in config.runs:
        names = config.free_names(run_)
        est = np.column_stack([cols[(run_.label, n)][0] for n in names])
        out[run_.label] = (est, cols[(run_.label, names[0])][1])
    return out


def test_exact_gate_catches_a_perturbed_triple(tmp_path):
    wl = W.WORKLOADS["exact-curves"]
    inputs = wl.make_inputs(3, reference=True)
    outputs = wl.run_pass(inputs)
    assert wl.check(inputs, outputs) == []
    triple, pv = outputs["multinomial4-pairwise"][4]
    bad = clik.InfoTriple(triple.param_names, triple.sensitivity * (1 + 1e-3),
                          triple.variability, triple.godambe, "analytic")
    outputs["multinomial4-pairwise"][4] = (bad, pv)
    problems = wl.check(inputs, outputs)
    assert len(problems) == 1 and "multinomial4-pairwise" in problems[0]


def test_traced_counts_repeat_and_wrappers_are_removed(tmp_path):
    wl = W.WORKLOADS["sim-newton"]
    originals = {(id(owner), attr): owner.__dict__[attr]
                 for places, _ in tracing.TARGETS.values()
                 for owner, attr in places}
    counts = []
    for k in range(2):
        d = tmp_path / str(k)
        d.mkdir()
        inputs = wl.make_inputs(5, str(d), reference=True)
        tracer = tracing.Tracer()
        with tracer.installed(0):
            assert clik.composite.composite_score is not \
                originals[(id(clik.composite), "composite_score")]
            wl.run_pass(inputs)
        metrics = tracing.layer_metrics(tracer, overhead_frac=0.0)
        assert list(metrics) == list(tracing.LAYER_METRICS)
        counts.append({n: v for n, v in metrics.items()
                       if tracing.LAYER_METRICS[n] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["estimators.fit.newton.calls"] == 400
    assert counts[0]["estimators.fit.closed_form.calls"] == 0
    for places, _ in tracing.TARGETS.values():
        for owner, attr in places:
            assert owner.__dict__[attr] is originals[(id(owner), attr)]


def test_worker_count_check_passes():
    assert W.worker_count_check(11) == []

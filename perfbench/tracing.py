"""Per-layer tracing for the benchmark's traced run.

Each wrapper replaces one public clik function under the name its caller
looks up (a module global or a class attribute) and records a span: name,
start, end, parent span and pass id.  Spans stay in memory, in flat arrays,
and are written out once at the end.  Wrappers exist only inside
``Tracer.installed()``; untraced passes run the program untouched.

A layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from array import array
from statistics import median

import numpy as np

import clik
from clik import (asymptotics, cli, composite, estimators, fileio, models,
                  montecarlo)


def _rows(args, kwargs, result):
    """Rows scored by ``margin_score(self, indices, Y, theta)``."""
    return float(np.shape(args[2])[0]) if np.ndim(args[2]) == 2 else 1.0


def _file_bytes(args, kwargs, result):
    return float(os.path.getsize(args[0]))


def _iterations(args, kwargs, result):
    return float(result.iterations)


def _converged(args, kwargs, result):
    return float(result.converged)


def _replicates(args, kwargs, result):
    return float(args[0].replicates)


#: span name -> (places the callers look it up, per-span value or None).
#: A span's value is recorded when the call returns; a call that raises
#: keeps the value 0 (for ``estimators.fit``: not converged).
TARGETS = {
    "cli.main": ([(cli, "main")], None),
    "montecarlo.run": ([(montecarlo, "run")], _replicates),
    "estimators.fit": ([(montecarlo, "fit")], _converged),
    "estimators.fit.closed_form": ([(estimators, "closed_form")], None),
    "estimators.fit.newton": ([(estimators, "mcle_newton")], _iterations),
    "models.sample": ([(models.GaussianModel, "sample"),
                       (models.Multinomial4, "sample")], None),
    "composite.composite_score": ([(estimators, "composite_score"),
                                   (composite, "composite_score")], None),
    "models.margin_score": ([(models.GaussianModel, "margin_score"),
                             (models.Multinomial4, "margin_score")], _rows),
    "matrixops.sym_invert": ([(models, "sym_invert")], None),
    "asymptotics.full_conditional_ratio_curve": (
        [(asymptotics, "full_conditional_ratio_curve")], None),
    "composite.info_monte_carlo": ([(asymptotics, "info_monte_carlo"),
                                    (composite, "info_monte_carlo")], None),
    "composite.info_exact": ([(clik, "info_exact"),
                              (composite, "info_exact")], None),
    "composite.partitioned_variance": ([(clik, "partitioned_variance"),
                                        (composite, "partitioned_variance")],
                                       None),
    "fileio.atomic_csv": ([(mod, "atomic_csv") for mod in
                           (fileio, montecarlo, asymptotics, composite, models,
                            cli)], _file_bytes),
}

#: per-layer metric -> unit, in the order the benchmark reports them.
LAYER_METRICS = {
    "estimators.fit.closed_form.calls": "count",
    "estimators.fit.closed_form.self_s": "s",
    "models.sample.calls": "count",
    "models.sample.self_s": "s",
    "montecarlo.run.self_s": "s",
    "montecarlo.run.overhead_us_per_replicate": "us",
    "models.margin_score.calls": "count",
    "models.margin_score.rows": "count",
    "models.margin_score.self_s": "s",
    "matrixops.sym_invert.calls": "count",
    "matrixops.sym_invert.self_s": "s",
    "composite.composite_score.calls": "count",
    "composite.composite_score.self_s": "s",
    "estimators.fit.newton.calls": "count",
    "estimators.fit.newton.self_s": "s",
    "estimators.newton.iterations": "count",
    "estimators.newton.score_calls_per_fit": "count",
    "estimators.fit.converged_ratio": "ratio",
    "composite.info_monte_carlo.self_s": "s",
    "asymptotics.full_conditional_ratio_curve.self_s": "s",
    "composite.info_exact.calls": "count",
    "composite.info_exact.self_s": "s",
    "composite.partitioned_variance.self_s": "s",
    "fileio.atomic_csv.calls": "count",
    "fileio.atomic_csv.bytes": "bytes",
    "fileio.atomic_csv.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names = list(TARGETS)
        self.span_name = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.stack = []

    def _wrap(self, name_id, fn, measure, pass_id):
        span_name, parent, passes = self.span_name, self.parent, self.pass_id
        start, end, value, stack = self.start, self.end, self.value, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            passes.append(pass_id)
            value.append(0.0)
            end.append(0.0)
            start.append(0.0)
            stack.append(idx)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if measure is not None:
                value[idx] = measure(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, pass_id: int):
        """Install every wrapper for one pass; restore the originals after."""
        saved = []
        try:
            for name_id, (name, (places, measure)) in enumerate(TARGETS.items()):
                wrappers = {}
                for owner, attr in places:
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    if id(original) not in wrappers:
                        wrappers[id(original)] = self._wrap(
                            name_id, original, measure, pass_id)
                    setattr(owner, attr, wrappers[id(original)])
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict:
        """Copies of the span columns (a view would pin the arrays)."""
        return {"name": np.array(self.span_name, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "pass_id": np.array(self.pass_id, dtype=np.int32),
                "start": np.array(self.start),
                "end": np.array(self.end),
                "value": np.array(self.value)}

    def write(self, path) -> None:
        """Write the spans (and the span-name table) as a compressed npz."""
        np.savez_compressed(path, names=np.array(self.names),
                            **self.arrays())

    def pass_stats(self) -> dict:
        """pass id -> {span name: (calls, self seconds, value sum)}, plus
        the number of composite_score calls made directly by Newton."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        k = len(self.names)
        newton = self.names.index("estimators.fit.newton")
        score = self.names.index("composite.composite_score")
        from_newton = np.zeros(dur.size, dtype=bool)
        from_newton[has_parent] = a["name"][a["parent"][has_parent]] == newton
        out = {}
        for p in np.unique(a["pass_id"]):
            sel = a["pass_id"] == p
            names = a["name"][sel]
            calls = np.bincount(names, minlength=k)
            selfs = np.bincount(names, weights=self_time[sel], minlength=k)
            vals = np.bincount(names, weights=a["value"][sel], minlength=k)
            stats = {n: (int(calls[i]), float(selfs[i]), float(vals[i]))
                     for i, n in enumerate(self.names)}
            stats["newton.score_calls"] = int(
                np.sum(from_newton[sel] & (names == score)))
            out[int(p)] = stats
        return out


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict:
    """Every per-layer metric: counts from the first traced pass (all
    passes repeat the same inputs, so counts agree; checked), times as the
    median over the traced passes."""
    per_pass = list(tracer.pass_stats().values())
    counts = [{n: (s[0], s[2]) for n, s in st.items() if n in TARGETS}
              for st in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        raise RuntimeError("per-layer counts differ between traced passes")
    first = per_pass[0]

    def self_s(name):
        return median(st[name][1] for st in per_pass)

    calls = {n: first[n][0] for n in TARGETS}
    value = {n: first[n][2] for n in TARGETS}
    replicates = value["montecarlo.run"]
    newton_fits = calls["estimators.fit.newton"]
    fits = calls["estimators.fit"]
    return {
        "estimators.fit.closed_form.calls": calls["estimators.fit.closed_form"],
        "estimators.fit.closed_form.self_s": self_s("estimators.fit.closed_form"),
        "models.sample.calls": calls["models.sample"],
        "models.sample.self_s": self_s("models.sample"),
        "montecarlo.run.self_s": self_s("montecarlo.run"),
        "montecarlo.run.overhead_us_per_replicate": (
            self_s("montecarlo.run") / replicates * 1e6 if replicates else 0.0),
        "models.margin_score.calls": calls["models.margin_score"],
        "models.margin_score.rows": int(value["models.margin_score"]),
        "models.margin_score.self_s": self_s("models.margin_score"),
        "matrixops.sym_invert.calls": calls["matrixops.sym_invert"],
        "matrixops.sym_invert.self_s": self_s("matrixops.sym_invert"),
        "composite.composite_score.calls": calls["composite.composite_score"],
        "composite.composite_score.self_s": self_s("composite.composite_score"),
        "estimators.fit.newton.calls": newton_fits,
        "estimators.fit.newton.self_s": self_s("estimators.fit.newton"),
        "estimators.newton.iterations": int(value["estimators.fit.newton"]),
        "estimators.newton.score_calls_per_fit": (
            first["newton.score_calls"] / newton_fits if newton_fits else 0.0),
        # no fits attempted means none failed
        "estimators.fit.converged_ratio": (
            value["estimators.fit"] / fits if fits else 1.0),
        "composite.info_monte_carlo.self_s": self_s("composite.info_monte_carlo"),
        "asymptotics.full_conditional_ratio_curve.self_s": self_s(
            "asymptotics.full_conditional_ratio_curve"),
        "composite.info_exact.calls": calls["composite.info_exact"],
        "composite.info_exact.self_s": self_s("composite.info_exact"),
        "composite.partitioned_variance.self_s": self_s(
            "composite.partitioned_variance"),
        "fileio.atomic_csv.calls": calls["fileio.atomic_csv"],
        "fileio.atomic_csv.bytes": int(value["fileio.atomic_csv"]),
        "fileio.atomic_csv.self_s": self_s("fileio.atomic_csv"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_frac": overhead_frac,
    }

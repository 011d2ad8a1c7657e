"""Replicate-level simulation studies.

Draws R independent datasets of size n (one deterministic RNG substream
per replicate, so results are identical no matter how replicates are
partitioned across workers), reduces each dataset to its
``Model.statistic``, fits each run in one batched solve over the stacked
statistics (a registered fast path, or lockstep Newton), and reports
empirical means, n-scaled covariances and batch-means standard errors.
Non-converged or failed fits are excluded from the moments but counted,
with a hard 1% failure budget.

Replicates are drawn and reduced in blocks of about ``BLOCK_BYTES`` of
draws: the substreams of a chunk are seeded in one vectorised pass, and
each block is sampled into one array, transformed in one call and reduced
by one ``Model.statistic`` call that every run reads.  Replicate ``r`` of
seed ``s`` is still drawn from its own stream, the one
``default_rng(SeedSequence(s, spawn_key=(r,)))`` gives.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import chain, islice, repeat

import numpy as np

from .composite import CompositeSpec, batch_se, batch_slices, sample_cov
from .errors import (ClikError, FailureBudgetExceeded, InvalidArgument,
                     UnsupportedSpec)
from .estimators import batch_route
from .estimators import fit  # noqa: F401  (perfbench/tracing.py wraps it here)
from .fileio import atomic_csv, fmt
from .models import Model, ParamVector, substreams

CSV_ESTIMATES_HEADER = ["spec", "replicate", "param", "estimate", "converged"]
CSV_SUMMARY_HEADER = ["spec", "param", "mean", "n_var", "std_err", "failures"]

MIN_N = 10
MIN_REPLICATES = 100
FAILURE_BUDGET = 0.01
DEFAULT_BATCHES = 20
#: Bytes of draws per block of replicates sampled and reduced together:
#: enough replicates to amortise the per-call cost of sampling and of the
#: statistic, few enough that a block's temporaries stay cache-sized.
BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class SpecRun:
    """One spec to fit per replicate, with optional fixed parameters."""

    spec: CompositeSpec
    fixed: tuple = ()            # ((name, value), ...) or a dict at init
    label: str = ""

    def __post_init__(self):
        fixed = self.fixed
        if isinstance(fixed, dict):
            fixed = tuple(sorted(fixed.items()))
        object.__setattr__(self, "fixed", tuple(fixed))
        if not self.label:
            suffix = "".join(f"!{name}" for name, _ in self.fixed)
            object.__setattr__(self, "label", self.spec.name + suffix)

    @property
    def fixed_dict(self) -> dict:
        return dict(self.fixed)


@dataclass(frozen=True)
class SimConfig:
    model: Model
    theta_true: ParamVector
    runs: tuple
    n: int
    replicates: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "runs", tuple(self.runs))
        if self.n < MIN_N:
            raise InvalidArgument(f"n must be >= {MIN_N}")
        if self.replicates < MIN_REPLICATES:
            raise InvalidArgument(f"replicates must be >= {MIN_REPLICATES}")
        if self.seed < 0:
            raise InvalidArgument("seed must be >= 0")
        labels = [r.label for r in self.runs]
        if len(set(labels)) != len(labels):
            raise InvalidArgument(f"duplicate run labels: {labels}")
        self.model.validate(self.theta_true)
        for run in self.runs:
            if not self.free_names(run):
                raise UnsupportedSpec(f"run {run.label!r} leaves no free "
                                      f"parameter to fit")

    def free_names(self, run: SpecRun) -> tuple:
        fixed = run.fixed_dict
        return tuple(n for n in self.theta_true.free_names if n not in fixed)


@dataclass
class SimResult:
    """Estimates keyed by run label; failed replicates hold NaN rows.

    ``score_norm`` is the absolute score (sup norm for Newton) that each
    replicate's solve reports at its estimate, as :func:`fit` reports it.
    """

    config: SimConfig
    estimates: dict = field(default_factory=dict)     # label -> (R, d)
    converged: dict = field(default_factory=dict)     # label -> (R,) bool
    score_norm: dict = field(default_factory=dict)    # label -> (R,)

    def labels(self):
        return [run.label for run in self.config.runs]

    def param_names(self, label: str) -> tuple:
        run = next(r for r in self.config.runs if r.label == label)
        return self.config.free_names(run)

    def failures(self, label: str) -> int:
        return int((~self.converged[label]).sum())

    def valid_rows(self, label: str) -> np.ndarray:
        return self.estimates[label][self.converged[label]]

    def mean(self, label: str) -> np.ndarray:
        return self.valid_rows(label).mean(axis=0)

    def ncov(self, label: str) -> np.ndarray:
        """n-scaled empirical covariance of the estimates."""
        return self.config.n * sample_cov(self.valid_rows(label))

    def ncov_se(self, label: str, batches: int = DEFAULT_BATCHES) -> np.ndarray:
        """Batch-means standard error of :meth:`ncov`."""
        rows = self.valid_rows(label)
        return batch_se([self.config.n * sample_cov(rows[sl])
                         for sl in batch_slices(rows.shape[0], batches)])

    def cross_ncov(self, label_a: str, col_a: int, label_b: str, col_b: int,
                   batches: int = DEFAULT_BATCHES):
        """n-scaled covariance between estimate columns of two runs, paired
        by replicate, with a batch-means standard error."""
        ok = self.converged[label_a] & self.converged[label_b]
        x = self.estimates[label_a][ok, col_a]
        y = self.estimates[label_b][ok, col_b]
        n = self.config.n
        bats = [n * sample_cov(x[sl], y[sl])
                for sl in batch_slices(x.size, batches)]
        return n * float(sample_cov(x, y)), float(batch_se(bats))

    # -- serialization -----------------------------------------------------

    def write_estimates_csv(self, path) -> None:
        """One row per replicate and free parameter, replicates in order;
        the columns are built whole (``repr`` of a float is :func:`fmt`)."""
        tables = []
        for label in self.labels():
            names = self.param_names(label)
            est = np.asarray(self.estimates[label], dtype=float)
            conv = np.asarray(self.converged[label], dtype=bool)
            reps, d = est.shape[0], len(names)
            tables.append(zip(repeat(label),
                              np.repeat(np.arange(reps), d).tolist(),
                              list(names) * reps,
                              map(repr, est.ravel().tolist()),
                              np.repeat(conv, d).astype(str).tolist()))
        atomic_csv(path, CSV_ESTIMATES_HEADER, chain.from_iterable(tables))

    def summary_rows(self) -> list:
        rows = []
        for label in self.labels():
            names = self.param_names(label)
            mean = self.mean(label)
            ncov = self.ncov(label)
            se = self.ncov_se(label)
            fails = self.failures(label)
            for j, name in enumerate(names):
                rows.append([label, name, fmt(mean[j]), fmt(ncov[j, j]),
                             fmt(se[j, j]), str(fails)])
        return rows

    def write_summary_csv(self, path) -> None:
        atomic_csv(path, CSV_SUMMARY_HEADER, self.summary_rows())


def _block_size(config: SimConfig) -> int:
    """Replicates per block: as many as ``BLOCK_BYTES`` of draws hold."""
    return max(1, BLOCK_BYTES // (8 * config.n * config.model.dim))


def _run_chunk(config: SimConfig, lo: int, hi: int) -> dict:
    """``label -> (estimates, converged, score_norm)`` of every run on
    replicates ``lo..hi-1``; deterministic in (seed, replicate).

    The sampler is set up and the substreams seeded once per chunk.  Each
    block of replicates is drawn in one sampler call and reduced by one
    ``Model.statistic`` call; each run is then solved in one batched call
    over the stacked statistics.
    """
    solves = {run.label: batch_route(config.model, run.spec,
                                     config.theta_true, run.fixed_dict)
              for run in config.runs}
    draw = config.model.sampler(config.theta_true)
    streams = substreams(config.seed, range(lo, hi))
    size = _block_size(config)
    stats = np.concatenate([
        config.model.statistic(draw(config.n, list(islice(streams, size))))
        for _ in range(lo, hi, size)])
    return {label: solve(stats).columns() for label, solve in solves.items()}


def worker_count(threads=None) -> int:
    """Resolve the worker count: explicit argument, else the CLIK_THREADS
    environment variable (0 means all cores), else serial."""
    if threads is None:
        raw = os.environ.get("CLIK_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ClikError(f"CLIK_THREADS={raw!r} is not an integer") from None
    if threads < 0:
        raise ClikError("worker count must be >= 0")
    if threads == 0:
        threads = os.cpu_count() or 1
    return threads


def run(config: SimConfig, threads=None) -> SimResult:
    """Run the study.  The result is identical for any worker count."""
    workers = worker_count(threads)
    R = config.replicates
    if workers <= 1:
        chunks = [_run_chunk(config, 0, R)]
    else:
        edges = np.linspace(0, R, workers * 4 + 1).astype(int)
        spans = [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]
        # imported here: multiprocessing adds about 15 ms to ``import clik``
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_chunk, [config] * len(spans),
                                   [a for a, _ in spans], [b for _, b in spans]))

    result = SimResult(config)
    for run_ in config.runs:
        est, conv, norm = (np.concatenate(parts) for parts in
                           zip(*(chunk[run_.label] for chunk in chunks)))
        result.estimates[run_.label] = est
        result.converged[run_.label] = conv
        result.score_norm[run_.label] = norm
        fails = int((~conv).sum())
        if fails > FAILURE_BUDGET * R:
            raise FailureBudgetExceeded(
                f"{run_.label}: {fails}/{R} replicates failed "
                f"(budget {FAILURE_BUDGET:.0%})")
    return result


# ---------------------------------------------------------------------------
# known-nuisance paradox diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParadoxReport:
    """Replicate covariances behind the known-nuisance efficiency reversal.

    The reversal can occur only when the jointly-estimated pair is
    asymptotically uncorrelated while the known-nuisance interest
    estimator stays correlated with the nuisance estimator.
    """

    interest: str
    nuisance: str
    n: int
    replicates: int
    ncov_joint: float               # n cov(psi_hat, lambda_hat)
    ncov_joint_se: float
    ncov_mixed: float               # n cov(psi_tilde, lambda_hat)
    ncov_mixed_se: float
    joint_uncorrelated: bool
    mixed_correlated: bool
    sigma: float

    @property
    def reversal_condition(self) -> bool:
        return self.joint_uncorrelated and self.mixed_correlated


def paradox_covariance_diagnostics(spec: CompositeSpec, model: Model,
                                   theta: ParamVector, n: int = 500,
                                   replicates: int = 2000, seed: int = 0,
                                   sigma: float = 3.0,
                                   threads=None) -> ParadoxReport:
    """Estimate the two estimator covariances by replicate simulation.

    ``theta`` must have exactly one interest and one nuisance parameter.
    Fits the spec twice per replicate (nuisance free, nuisance fixed at
    the truth) and reports the n-scaled covariances with batch errors.
    """
    if len(theta.interest_names) != 1 or len(theta.nuisance_names) != 1:
        raise InvalidArgument("diagnostics need exactly one interest and "
                              "one nuisance parameter")
    psi, lam = theta.interest_names[0], theta.nuisance_names[0]
    config = SimConfig(
        model, theta,
        (SpecRun(spec, (), "joint"), SpecRun(spec, {lam: theta[lam]}, "mixed")),
        n, replicates, seed)
    result = run(config, threads=threads)

    joint_names = result.param_names("joint")
    i_psi, i_lam = joint_names.index(psi), joint_names.index(lam)
    cov_joint, se_joint = result.cross_ncov("joint", i_psi, "joint", i_lam)
    mixed_names = result.param_names("mixed")
    cov_mixed, se_mixed = result.cross_ncov("mixed", mixed_names.index(psi),
                                            "joint", i_lam)
    return ParadoxReport(
        interest=psi, nuisance=lam, n=n, replicates=replicates,
        ncov_joint=cov_joint, ncov_joint_se=se_joint,
        ncov_mixed=cov_mixed, ncov_mixed_se=se_mixed,
        joint_uncorrelated=bool(abs(cov_joint) < sigma * se_joint),
        mixed_correlated=bool(abs(cov_mixed) > sigma * se_mixed),
        sigma=sigma,
    )

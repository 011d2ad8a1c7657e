"""The four benchmark workloads: inputs from a seed, one timed pass, and
the correctness gate on the pass's outputs.

Every workload drives clik only through ``clik.cli.main`` and the public
library functions.  A workload's inputs depend on the seed alone, and every
pass of one run repeats the same inputs, so per-pass counts repeat exactly.

Each workload also has a scaled-down *reference case* at a fixed seed whose
summaries are stored in ``reference.json`` (written once at the seed commit
with ``run.py --write-reference``) and compared on every run.

A workload object holds no run state: ``run_pass(inputs)`` returns the
pass's outputs and the other methods take them as arguments.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

import clik
from clik import cli

#: A Monte Carlo comparison passes when its z-score is below this value,
#: family-wise over all comparisons of one run (Sidak adjustment), so a run
#: with many comparisons raises a false alarm no more often than one z < 4
#: test does (probability 6.3e-5).
Z_LIMIT = 4.0

#: Relative tolerances of the reference comparison.  The fast-path
#: (closed-form) summaries are deterministic; Newton summaries may move
#: within the solver's convergence tolerance (score below 1e-8 per row);
#: finite-difference H amplifies rounding by about 1/step = 1e4.
REFERENCE_RTOL = {"sim-pairwise": 1e-12, "sim-newton": 1e-6,
                  "info-mc": 1e-8, "exact-curves": 1e-8}

#: Closed forms and exact moments agree to about 1e-8 at the seed commit.
EXACT_RTOL = 1e-6

#: The figure's ratio and the one implied by the H and J the check
#: recomputes differ only by rounding, amplified by the difference step.
RATIO_RTOL = 1e-7

#: Seed of the reference case of every workload.
REFERENCE_SEED = 20260810


def sidak_z(comparisons: int, z: float = Z_LIMIT) -> float:
    """Per-comparison z limit that holds ``comparisons`` two-sided tests to
    the family-wise false-alarm rate of a single test at ``z``."""
    alpha = 2.0 * (1.0 - NormalDist().cdf(z))
    per_test = -math.expm1(math.log1p(-alpha) / comparisons)
    return NormalDist().inv_cdf(1.0 - per_test / 2.0)


def z_failures(tests) -> list:
    """Messages for the ``(what, z, got, want)`` tests that fail the
    family-wise z limit."""
    limit = sidak_z(len(tests))
    return [f"{what}: {got:.6g} vs {want:.6g}, z={z:.2f} >= {limit:.2f}"
            for what, z, got, want in tests if not z < limit]


def derived_seed(seed: int, *index: int) -> int:
    """A 32-bit seed for one input stream of a workload."""
    return int(np.random.SeedSequence([seed, *index]).generate_state(1)[0])


def rel_gap(a, b) -> float:
    """Normwise relative gap ``max|a - b| / max|b|`` (0 when equal)."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    diff = float(np.max(np.abs(a - b)))
    return diff / float(np.max(np.abs(b))) if diff else 0.0


def compare_reference(name: str, got: dict, stored: dict) -> list:
    """Violations of the summaries ``got`` against the stored ones."""
    rtol = REFERENCE_RTOL[name]
    if sorted(got) != sorted(stored):
        return [f"reference keys differ: {sorted(set(got) ^ set(stored))}"]
    out = []
    for key, want in stored.items():
        gap = rel_gap(got[key], want)
        if not gap <= rtol:
            out.append(f"reference {key}: relative gap {gap:.3g} > {rtol:g}")
    return out


def run_cli(argv) -> None:
    """Run ``clik.cli.main`` with its printed output discarded; raise on a
    nonzero exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"clik {' '.join(argv)} exited with code {code}")


def read_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_text(path) -> str:
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# simulation studies through `clik simulate`
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Study:
    """One `clik simulate` config: model keys, spec list and sizes."""

    model: dict
    specs: tuple
    n: int
    replicates: int

    def config_text(self, seed: int) -> str:
        lines = [f"{k} = {v}" for k, v in self.model.items()]
        lines += [f"n = {self.n}", f"replicates = {self.replicates}",
                  f"seed = {seed}", f"specs = {', '.join(self.specs)}"]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SimInputs:
    configs: tuple          # config file per study
    outs: tuple             # output directory per study


class SimWorkload:
    """A set of `clik simulate` studies; one pass runs each study once and
    its outputs are the CSV files the studies write."""

    unit = "fits"

    def __init__(self, name, studies, reference_replicates=100):
        self.name = name
        self.studies = tuple(studies)
        self.reference_replicates = reference_replicates

    def make_inputs(self, seed, workdir, reference=False) -> SimInputs:
        configs, outs = [], []
        for i, study in enumerate(self.studies):
            if reference:
                study = Study(study.model, study.specs, study.n,
                              self.reference_replicates)
            path = os.path.join(workdir, f"study{i}.cfg")
            with open(path, "w") as fh:
                fh.write(study.config_text(derived_seed(seed, i)))
            out = os.path.join(workdir, f"study{i}")
            os.makedirs(out, exist_ok=True)
            configs.append(path)
            outs.append(out)
        return SimInputs(tuple(configs), tuple(outs))

    def parse_inputs(self, inputs):
        """The config parse `clik simulate` performs (part of set-up)."""
        return [cli.parse_sim_config(path) for path in inputs.configs]

    def work_items(self, inputs) -> int:
        return sum(len(c.runs) * c.replicates for c in self.parse_inputs(inputs))

    def run_pass(self, inputs):
        for cfg, out in zip(inputs.configs, inputs.outs):
            run_cli(["simulate", cfg, "--out", out])
        return inputs.outs

    def _summary(self, out_dir) -> list:
        return read_rows(os.path.join(out_dir, "simulate_summary.csv"))

    def fingerprint(self, outputs) -> str:
        """The pass's summaries, compared across the passes of one run."""
        return "".join(read_text(os.path.join(d, "simulate_summary.csv"))
                       for d in outputs)

    def summaries(self, outputs) -> dict:
        """Every number of every summary row, keyed for the reference."""
        out = {}
        for i, d in enumerate(outputs):
            out.update(summary_entries(i, self._summary(d)))
        return out

    def nonconverged(self, outputs) -> int:
        total = 0
        for d in outputs:
            total += sum({r["spec"]: int(r["failures"])
                          for r in self._summary(d)}.values())
        return total

    @staticmethod
    def estimates(out_dir) -> dict:
        """(spec, param) -> (estimates, converged) from the estimates CSV."""
        cols = {}
        for row in read_rows(os.path.join(out_dir, "simulate_estimates.csv")):
            est, conv = cols.setdefault((row["spec"], row["param"]), ([], []))
            est.append(float(row["estimate"]))
            conv.append(row["converged"] == "True")
        return {k: (np.array(v), np.array(c, dtype=bool))
                for k, (v, c) in cols.items()}

    def targets(self, config) -> dict:
        """(spec label, param) -> per-observation asymptotic variance."""
        raise NotImplementedError

    def check(self, inputs, outputs) -> list:
        """z-test each targeted n*var against its asymptotic value, with
        the standard error of a variance taken from the replicates' fourth
        central moment, and check the summary CSV against the estimates."""
        tests, problems = [], []
        for config, out in zip(self.parse_inputs(inputs), outputs):
            ests = self.estimates(out)
            summary = {(r["spec"], r["param"]): r for r in self._summary(out)}
            for (label, param), target in self.targets(config).items():
                what = f"{config.model!r} {config.theta_true.as_dict()} {label}"
                x, ok = ests[(label, param)]
                if (~ok).sum() > 0.01 * config.replicates:
                    problems.append(f"{what}: {(~ok).sum()} failed fits")
                x = x[ok]
                dev = x - x.mean()
                s2 = float(dev @ dev) / (x.size - 1)
                m4 = float(np.mean(dev ** 4))
                se = config.n * math.sqrt(max(m4 - s2 * s2, 0.0) / x.size)
                nvar = float(summary[(label, param)]["n_var"])
                if rel_gap(nvar, config.n * s2) > 1e-9:
                    problems.append(f"{what}: summary n_var {nvar!r} is not "
                                    f"n*var of the estimates {config.n * s2!r}")
                tests.append((f"{what} n*var", abs(nvar - target) / se,
                              nvar, target))
        return problems + z_failures(tests)


def summary_entries(study: int, rows) -> dict:
    """Reference entries of one study's summary rows, given as CSV dicts or
    as the lists ``SimResult.summary_rows`` returns."""
    out = {}
    for row in rows:
        if not isinstance(row, dict):
            row = dict(zip(clik.montecarlo.CSV_SUMMARY_HEADER, row))
        for col in ("mean", "n_var", "std_err", "failures"):
            out[f"study{study}/{row['spec']}/{row['param']}/{col}"] = \
                [float(row[col])]
    return out


class SimPairwise(SimWorkload):
    """Pairwise EMVN studies, checked against the two closed forms."""

    def targets(self, config):
        p, rho = config.model.p, config.theta_true["rho"]
        return {(run.label, "rho"): (clik.avar_rho_known_sigma(p, rho)
                                     if "sigma2" in run.fixed_dict
                                     else clik.avar_rho_free_sigma(p, rho))
                for run in config.runs}


class SimNewton(SimWorkload):
    """Studies on the Newton path, checked against the exact sandwich."""

    def targets(self, config):
        theta = config.theta_true
        interest = theta.interest_names[0]
        out = {}
        for run in config.runs:
            triple = clik.info_exact(run.spec, config.model, theta)
            if theta.nuisance_names:
                profile, known = clik.partitioned_variance(triple, [interest])
                avar = known if run.fixed else profile
                out[(run.label, interest)] = float(avar[0, 0])
            else:
                out[(run.label, interest)] = float(1.0 / triple.godambe[0, 0])
        return out


def worker_count_check(seed: int) -> list:
    """Untimed: one small study, fast-path and Newton specs, must give
    bit-identical estimates with 1 and with 2 workers."""
    model = clik.EMVN(3)
    theta = model.params(rho=0.3, sigma2=1.0)
    runs = (clik.SpecRun(clik.pairwise(3)),
            clik.SpecRun(clik.pairwise(3), {"sigma2": 1.0}),
            clik.SpecRun(clik.full_conditional(3)))
    config = clik.SimConfig(model, theta, runs, n=100, replicates=100,
                            seed=derived_seed(seed, 1000))
    one, two = clik.run(config, threads=1), clik.run(config, threads=2)
    return [f"worker-count check: {label} differs between 1 and 2 workers"
            for label in one.labels()
            if one.estimates[label].tobytes() != two.estimates[label].tobytes()
            or one.converged[label].tobytes() != two.converged[label].tobytes()]


# ---------------------------------------------------------------------------
# Monte Carlo information through `clik figure2`
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FigureInputs:
    argv: tuple
    out: str


class InfoMonteCarlo:
    """`clik figure2`: the full-conditional ratio curve from Monte Carlo
    information triples; its output is ``figure2.csv``."""

    unit = "draws"

    def __init__(self, name, p, grid, draws, reference_draws):
        self.name = name
        self.p = p
        self.grid = grid
        self.draws = draws
        self.reference_draws = reference_draws

    def make_inputs(self, seed, workdir, reference=False) -> FigureInputs:
        out = os.path.join(workdir, "figure2")
        draws = self.reference_draws if reference else self.draws
        argv = ("figure2", "--p", str(self.p), "--grid", str(self.grid),
                "--draws", str(draws), "--seed", str(derived_seed(seed, 0)),
                "--out", out)
        return FigureInputs(argv, out)

    def parse_inputs(self, inputs):
        return cli.build_parser().parse_args(list(inputs.argv))

    def work_items(self, inputs) -> int:
        args = self.parse_inputs(inputs)
        return args.grid * args.draws

    def run_pass(self, inputs):
        run_cli(inputs.argv)
        return os.path.join(inputs.out, "figure2.csv")

    def fingerprint(self, outputs) -> str:
        return read_text(outputs)

    def summaries(self, outputs) -> dict:
        curve = clik.EfficiencyCurve.from_csv(outputs)
        return {"rho": curve.x.tolist(),
                "ratio": curve.value("ratio").tolist(),
                "std_err": curve.value("std_err").tolist()}

    def nonconverged(self, outputs) -> int:
        return 0

    def check(self, inputs, outputs) -> list:
        """Recompute each grid point's H and J from the same draws, with
        per-draw standard errors, and z-test them against ``info_exact``;
        the figure's ratio must follow from the recomputed H and J."""
        args = self.parse_inputs(inputs)
        curve = clik.EfficiencyCurve.from_csv(outputs)
        model = clik.EMVN(args.p)
        spec = clik.full_conditional(args.p)
        tests, problems = [], []
        for i, (rho, ratio) in enumerate(zip(curve.x, curve.value("ratio"))):
            theta = model.params(rho=float(rho), sigma2=args.sigma2)
            Y = model.sample(theta, args.draws, clik.substream(args.seed, i))
            H, H_se, J, J_se = per_draw_info(spec, model, Y, theta)
            exact = clik.info_exact(spec, model, theta)
            for label, est, se, want in (("H", H, H_se, exact.sensitivity),
                                         ("J", J, J_se, exact.variability)):
                for a, b in ((0, 0), (0, 1), (1, 1)):
                    tests.append((f"rho={rho:.4f} {label}[{a},{b}]",
                                  abs(est[a, b] - want[a, b]) / se[a, b],
                                  est[a, b], want[a, b]))
            G = H @ np.linalg.solve(J, H)
            triple = clik.InfoTriple(theta.free_names, H, J, G, "monte-carlo")
            profile, known = clik.partitioned_variance(triple, ["rho"])
            implied = float(known[0, 0] / profile[0, 0])
            if rel_gap(ratio, implied) > RATIO_RTOL:
                problems.append(f"rho={rho:.4f}: figure ratio {ratio!r} does "
                                f"not follow from H and J ({implied!r})")
        return problems + z_failures(tests)


def per_draw_info(spec, model, Y, theta):
    """Monte Carlo H and J with standard errors from per-draw terms, using
    the central-difference step of ``info_monte_carlo``."""
    n = Y.shape[0]
    U = clik.composite_score(spec, model, Y, theta)
    dev = U - U.mean(axis=0)
    terms = dev[:, :, None] * dev[:, None, :]
    J = terms.sum(axis=0) / (n - 1)
    J_se = terms.std(axis=0, ddof=1) / math.sqrt(n)
    q = len(theta.free_names)
    H, H_se = np.empty((q, q)), np.empty((q, q))
    for b, name in enumerate(theta.free_names):
        h = clik.composite.FD_STEP_INFO * max(1.0, abs(theta[name]))
        up = clik.composite_score(spec, model, Y,
                                  theta.with_values(**{name: theta[name] + h}))
        dn = clik.composite_score(spec, model, Y,
                                  theta.with_values(**{name: theta[name] - h}))
        col = -(up - dn) / (2.0 * h)
        H[:, b] = col.mean(axis=0)
        H_se[:, b] = col.std(axis=0, ddof=1) / math.sqrt(n)
    return H, H_se, J, J_se


# ---------------------------------------------------------------------------
# exact information curves through the library
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Curve:
    label: str
    model: object
    spec: object
    interest: tuple          # () for one-parameter models
    thetas: tuple


def _stratified(rng, lo, hi, size):
    """One uniform point in each of ``size`` equal cells of (lo, hi)."""
    return lo + (hi - lo) * (np.arange(size) + rng.random(size)) / size


class ExactCurves:
    """`info_exact`, plus `partitioned_variance` where there is a nuisance
    block, along six parameter grids; the outputs are the triples."""

    unit = "triples"

    def __init__(self, name, points, reference_points):
        self.name = name
        self.points = points
        self.reference_points = reference_points

    def make_inputs(self, seed, workdir=None, reference=False) -> tuple:
        size = self.reference_points if reference else self.points
        rng = np.random.default_rng(derived_seed(seed, 0))
        emvn, tri, mult = clik.EMVN(3), clik.TriNormal(), clik.Multinomial4(5)
        emvn_rho = _stratified(rng, -0.48, 0.98, size)
        tri_rho = _stratified(rng, -0.95, 0.95, size)
        tri_mu, tri_s2 = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)
        mult_t = _stratified(rng, 0.01 * mult.theta_max,
                             0.99 * mult.theta_max, size)
        e = tuple(emvn.params(rho=float(r), sigma2=1.0) for r in emvn_rho)
        t = tuple(tri.params(mu=tri_mu, rho=float(r), sigma2=tri_s2)
                  for r in tri_rho)
        m = tuple(mult.params(float(x)) for x in mult_t)
        return (
            Curve("emvn3-pairwise", emvn, clik.pairwise(3), ("rho",), e),
            Curve("emvn3-full_conditional", emvn, clik.full_conditional(3),
                  ("rho",), e),
            Curve("trinormal-pairwise", tri, clik.pairwise(3), ("mu",), t),
            Curve("trinormal-chain", tri, clik.chain(3), ("mu",), t),
            Curve("multinomial4-pairwise", mult, clik.pairwise(3), (), m),
            Curve("multinomial4-independence", mult, clik.independence(3),
                  (), m),
        )

    def parse_inputs(self, inputs):
        return inputs

    def work_items(self, inputs) -> int:
        return sum(len(c.thetas) for c in inputs)

    def run_pass(self, inputs) -> dict:
        results = {}
        for c in inputs:
            rows = []
            for theta in c.thetas:
                triple = clik.info_exact(c.spec, c.model, theta)
                pv = (clik.partitioned_variance(triple, list(c.interest))
                      if c.interest else None)
                rows.append((triple, pv))
            results[c.label] = rows
        return results

    def fingerprint(self, outputs) -> str:
        return repr(self.summaries(outputs))

    def summaries(self, outputs) -> dict:
        out = {}
        for label, rows in outputs.items():
            for i, (triple, pv) in enumerate(rows):
                out[f"{label}/{i}/H"] = triple.sensitivity.ravel().tolist()
                out[f"{label}/{i}/J"] = triple.variability.ravel().tolist()
                if pv is not None:
                    out[f"{label}/{i}/avar"] = [float(pv[0][0, 0]),
                                                float(pv[1][0, 0])]
        return out

    def nonconverged(self, outputs) -> int:
        return 0

    def check(self, inputs, outputs) -> list:
        problems = []
        for c in inputs:
            for theta, (triple, pv) in zip(c.thetas, outputs[c.label]):
                for what, gap in closed_form_gaps(c, theta, triple, pv):
                    if not gap <= EXACT_RTOL:
                        problems.append(f"{c.label} at {theta.as_dict()}: "
                                        f"{what} relative gap {gap:.3g}")
        return problems


def emvn_fisher(p, rho, sigma2):
    """Fisher information of EMVN(p) in (rho, sigma2), from the eigenvalues
    1 + (p-1) rho (once) and 1 - rho (p-1 times) of the correlation matrix."""
    l1, l2 = 1.0 + (p - 1) * rho, 1.0 - rho
    i_rr = 0.5 * ((p - 1) ** 2 / l1 ** 2 + (p - 1) / l2 ** 2)
    i_rs = 0.5 * (p - 1) * (1.0 / l1 - 1.0 / l2) / sigma2
    i_ss = 0.5 * p / sigma2 ** 2
    return np.array([[i_rr, i_rs], [i_rs, i_ss]])


def trinormal_pairwise_forms(rho, s2):
    """(H, J) of the TriNormal pairwise likelihood in (mu, rho, sigma2).

    The third coordinate is independent of the pair, so the pairwise log
    likelihood is l(y1, y2) + l(y1) + l(y2) + 2 l(y3): both matrices are
    diagonal."""
    i_rho = (1.0 + rho ** 2) / (1.0 - rho ** 2) ** 2
    H = np.diag([2.0 / (1.0 + rho) + 2.0 + 2.0 / s2, i_rho, 1.0 / s2 ** 2])
    J = np.diag([2.0 * (2.0 + rho) ** 2 / (1.0 + rho) + 4.0 / s2, i_rho,
                 2.0 / s2 ** 2])
    return H, J


def trinormal_fisher(rho, s2):
    """Fisher information of TriNormal in (mu, rho, sigma2)."""
    return np.diag([2.0 / (1.0 + rho) + 1.0 / s2,
                    (1.0 + rho ** 2) / (1.0 - rho ** 2) ** 2, 0.5 / s2 ** 2])


def closed_form_gaps(curve, theta, triple, pv):
    """(what, relative gap) of one exact triple against closed forms."""
    H, J = triple.sensitivity, triple.variability
    if curve.label == "emvn3-pairwise":
        rho = theta["rho"]
        return [("avar free", rel_gap(pv[0], clik.avar_rho_free_sigma(3, rho))),
                ("avar known", rel_gap(pv[1], clik.avar_rho_known_sigma(3, rho)))]
    if curve.label == "emvn3-full_conditional":
        # the full conditionals recover the full score for this model, so
        # the Godambe information equals Fisher's
        fisher = emvn_fisher(3, theta["rho"], theta["sigma2"])
        return [("G", rel_gap(triple.godambe, fisher))]
    if curve.label == "trinormal-pairwise":
        H0, J0 = trinormal_pairwise_forms(theta["rho"], theta["sigma2"])
        return [("H", rel_gap(H, H0)), ("J", rel_gap(J, J0))]
    if curve.label == "trinormal-chain":
        # the chain factorises the joint density: H = J = Fisher
        fisher = trinormal_fisher(theta["rho"], theta["sigma2"])
        return [("H", rel_gap(H, fisher)), ("J", rel_gap(J, fisher))]
    info = clik.multinomial_info_scalars(theta["theta"], curve.model.k)
    if curve.label == "multinomial4-pairwise":
        return [("H", rel_gap(H[0, 0], info.h_pair)),
                ("J", rel_gap(J[0, 0], info.j_pair))]
    return [("H", rel_gap(H[0, 0], info.h_ind)),
            ("J", rel_gap(J[0, 0], info.j_ind))]


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


def _emvn(p, rho):
    return {"model": "emvn", "p": p, "rho": rho, "sigma2": 1.0}


WORKLOADS = {
    # The known-nuisance reversal study: closed-form root scans only.
    # rho = -0.45 crowds the root bracket against the domain boundary;
    # p = 6 doubles the sampling cost without changing the root scan.
    "sim-pairwise": SimPairwise("sim-pairwise", [
        Study(_emvn(p, rho), ("pairwise", "pairwise!sigma2"), 500, 2000)
        for p, rho in ((3, -0.45), (3, 0.0), (3, 0.6), (6, 0.3))]),
    # Specs with no registered fast path: every fit runs Newton.
    "sim-newton": SimNewton("sim-newton", [
        Study(_emvn(3, 0.5), ("full_conditional", "full_conditional!sigma2"),
              500, 500),
        Study({"model": "multinomial4", "k": 5.0, "theta": 0.2},
              ("pairwise", "independence"), 500, 500)]),
    # Per-row throughput of composite_score on 2e5-row samples.
    "info-mc": InfoMonteCarlo("info-mc", p=3, grid=8, draws=200_000,
                              reference_draws=20_000),
    # The exact moment route, which no other workload exercises much.
    "exact-curves": ExactCurves("exact-curves", points=150,
                                reference_points=15),
}

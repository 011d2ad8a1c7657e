"""End-to-end verification checks.

Each check pits an implementation route against an independent target:
closed forms against replicate simulations, Monte Carlo information
matrices against exact scalars, qualitative ordering claims against the
curves.  Monte Carlo comparisons are expressed as z-scores against
batch-means standard errors, so thresholds carry no tuned constants.

``run_all`` executes the whole suite and returns one result per check,
stamped with the wall time and seed of the check function behind it;
``write_report`` serializes them to CSV.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import asymptotics as asy
from . import composite as comp
from . import montecarlo as mc
from .errors import InvalidArgument
from .fileio import atomic_csv, fmt
from .models import EMVN, Multinomial4, TriNormal, substream

#: Additive tampering hook for the sensitivity matrix in the dominance
#: check; nonzero values must make those checks fail (negative control).
DEBUG_SENSITIVITY_OFFSET = 0.0


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    value: float
    threshold: float
    passed: bool
    detail: str = ""
    #: Wall time and seed of the check function that produced the result.
    wall_s: float = float("nan")
    seed: int | None = None


def write_report(results, path) -> None:
    rows = [[r.check_id, fmt(r.value), fmt(r.threshold), str(r.passed),
             r.detail, fmt(r.wall_s), "" if r.seed is None else str(r.seed)]
            for r in results]
    atomic_csv(path, ["check", "value", "threshold", "pass", "detail",
                      "wall_s", "seed"], rows)


def _level_params(level: str):
    if level == "full":
        return {"sigma": 3.0, "scale": 1}
    if level == "quick":
        return {"sigma": 4.0, "scale": 10}
    raise InvalidArgument(
        f"unknown level {level!r}; expected 'quick' or 'full'")


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def check_pairwise_variance_formulas(level="full", seed=101, threads=None):
    """Simulated n-scaled variances of the pairwise correlation estimator
    (variance free, then variance known) against the two closed forms."""
    p = _level_params(level)
    out = []
    model = EMVN(3)
    spec = comp.pairwise(3)
    for i, rho in enumerate((-0.3, 0.0, 0.3, 0.6)):
        theta = model.params(rho=rho, sigma2=1.0)
        config = mc.SimConfig(
            model, theta,
            (mc.SpecRun(spec, (), "free"), mc.SpecRun(spec, {"sigma2": 1.0}, "known")),
            n=500, replicates=max(200, 2000 // p["scale"]), seed=seed + i)
        result = mc.run(config, threads=threads)
        for label, target in (("free", asy.avar_rho_free_sigma(3, rho)),
                              ("known", asy.avar_rho_known_sigma(3, rho))):
            ridx = result.param_names(label).index("rho")
            nvar = result.ncov(label)[ridx, ridx]
            se = result.ncov_se(label)[ridx, ridx]
            z = abs(nvar - target) / se
            out.append(CheckResult(
                f"pairwise-nvar-sigma-{label}/rho={rho}", z, p["sigma"],
                bool(z < p["sigma"]),
                f"n*var={nvar:.5f} target={target:.5f} se={se:.5f}"))
    return out


def _bracketed_root(f, lo, hi):
    """Root of ``f`` inside ``(lo, hi)`` by bisection to width 1e-12, or
    None when ``f`` does not change sign across the bracket (NaN when ``f``
    gives NaN on the way)."""
    f_lo = f(lo)
    if not f_lo * f(hi) < 0.0:
        return None
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if np.isnan(f_mid):
            return float("nan")
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _exact_pairwise_ratio(rho):
    """Known-over-free variance ratio of the pairwise rho estimator at p=3
    from exact moments, independent of the closed forms."""
    model = EMVN(3)
    triple = comp.info_exact(comp.pairwise(3), model,
                             model.params(rho=rho, sigma2=1.0))
    profile, known = comp.partitioned_variance(triple, ["rho"])
    return float(known[0, 0] / profile[0, 0])


def check_pairwise_ratio_curve(level="full", seed=None, threads=None):
    """Sign structure of the known-over-free variance ratio at p=3: below 1
    on the positive side, a single crossing rho* of 1 on the negative side
    (located by the closed forms and again by exact moments), above 1 below
    rho* and below 1 above it, and divergence at the lower boundary."""
    curve = asy.pairwise_ratio_curve(3, asy.default_grid(-0.5, 1.0, 201))
    x, r = curve.x, curve.value("ratio")
    pos = r[(x > 0.01) & (x < 0.99)]
    strip = (x > -0.49) & (x < -0.01)
    xs, rs = x[strip], r[strip]
    r_low = float(asy.avar_rho_known_sigma(3, -0.49)
                  / asy.avar_rho_free_sigma(3, -0.49))

    lo, hi = -0.49, -0.05
    root = _bracketed_root(lambda t: float(asy.avar_rho_known_sigma(3, t)
                                           / asy.avar_rho_free_sigma(3, t))
                           - 1.0, lo, hi)
    root_exact = _bracketed_root(lambda t: _exact_pairwise_ratio(t) - 1.0,
                                 lo, hi)
    if root is None or root_exact is None:
        route = "closed-form" if root is None else "exact-moment"
        crossing = CheckResult(
            "pairwise-ratio-crossing", float("inf"), 1e-8, False,
            f"{route} ratio does not cross 1 on rho in ({lo}, {hi})")
    else:
        gap = abs(root - root_exact)
        crossing = CheckResult(
            "pairwise-ratio-crossing", gap, 1e-8, bool(gap <= 1e-8),
            f"rho*={root:.10f} closed form, {root_exact:.10f} exact moments")

    changes = int(np.sum(np.diff(np.sign(rs - 1.0)) != 0))
    if root is None:
        negative = CheckResult(
            "pairwise-ratio-negative-side", float("nan"), 0.0, False,
            f"no closed-form crossing; {changes} sign changes of ratio - 1 "
            "on rho in (-0.49, -0.01)")
    else:
        margin = float(np.min(np.where(xs < root, rs - 1.0, 1.0 - rs)))
        negative = CheckResult(
            "pairwise-ratio-negative-side", margin, 0.0,
            bool(margin > 0.0 and changes == 1),
            f"min of ratio - 1 below rho*={root:.7f} and 1 - ratio above it "
            f"on rho in (-0.49, -0.01); {changes} sign change(s)")

    return [
        CheckResult("pairwise-ratio-positive-side", float(pos.max()), 1.0,
                    bool(pos.max() < 1.0), "max ratio on rho in (0.01, 0.99)"),
        crossing,
        negative,
        CheckResult("pairwise-ratio-divergence", r_low, 10.0, bool(r_low > 10.0),
                    "ratio at rho=-0.49"),
    ]


def check_full_conditional_ratio(level="full", seed=301, threads=None):
    """The full-conditional known-variance estimator never loses to the
    free-variance one: ratio + sigma * se stays below 1 off independence."""
    p = _level_params(level)
    draws = max(20_000, 200_000 // p["scale"])
    grid = np.array([-0.45, 0.2, 0.5, 0.8])
    curve = asy.full_conditional_ratio_curve(3, grid, draws=draws, seed=seed)
    out = []
    for rho, ratio, se in curve.rows:
        bound = ratio + p["sigma"] * se
        out.append(CheckResult(
            f"fc-ratio-below-one/rho={rho}", float(bound), 1.0,
            bool(bound < 1.0), f"ratio={ratio:.4f} se={se:.4f}"))
    return out


def check_two_block(level="full", seed=401, threads=None):
    """Threshold correlation of the two-block model, exactly and in the
    large-variance limit, plus the simulated variance of the three-margin
    mean estimator."""
    p = _level_params(level)
    out = []
    t2 = asy.two_block_threshold(2.0)
    out.append(CheckResult("two-block-threshold-sigma2=2", abs(t2 + 5.0 / 9.0),
                           1e-12, bool(abs(t2 + 5.0 / 9.0) <= 1e-12),
                           f"rho*={t2!r}"))
    tbig = asy.two_block_threshold(1e6)
    out.append(CheckResult("two-block-threshold-sigma2=1e6", tbig, -0.5,
                           bool(-0.51 < tbig < -0.5),
                           "must lie in (-0.51, -0.5)"))
    v12, v123 = asy.two_block_mean_variances(2.0, rho=0.0)
    model = TriNormal()
    theta = model.params(mu=0.0, rho=0.0, sigma2=2.0)
    config = mc.SimConfig(
        model, theta,
        (mc.SpecRun(comp.singleton_margins([0, 1, 2]),
                    {"rho": 0.0, "sigma2": 2.0}, "mu123"),),
        n=500, replicates=max(200, 2000 // p["scale"]), seed=seed)
    result = mc.run(config, threads=threads)
    nvar = result.ncov("mu123")[0, 0]
    se = result.ncov_se("mu123")[0, 0]
    z = abs(nvar - v123) / se
    out.append(CheckResult("two-block-nvar-mu123", z, p["sigma"],
                           bool(z < p["sigma"]),
                           f"n*var={nvar:.5f} target={v123:.5f} se={se:.5f}"))
    return out


def check_multinomial(level="full", seed=501, threads=None):
    """Exact full efficiency at k=1, the variance ordering at k=5, and the
    Monte Carlo information against the exact scalars."""
    p = _level_params(level)
    out = []

    model1 = Multinomial4(1.0)
    grid = np.linspace(0.005, model1.theta_max - 0.005, 50)
    worst = 0.0
    for t in grid:
        info = asy.multinomial_info_scalars(float(t), 1.0)
        worst = max(worst,
                    abs(info.h_ind ** 2 / info.j_ind / info.fisher_full - 1.0),
                    abs(info.h_pair ** 2 / info.j_pair / info.fisher_full - 1.0))
    out.append(CheckResult("multinomial-full-efficiency-k1", worst, 1e-9,
                           bool(worst <= 1e-9),
                           "max relative gap of H^2/J vs Fisher, 50-point grid"))

    for t in (0.35, 0.40, 0.45):
        info = asy.multinomial_info_scalars(t, 5.0)
        margin = min(info.nvar_pair - info.nvar_ind,
                     info.nvar_ind - info.nvar_full)
        out.append(CheckResult(
            f"multinomial-ordering-k5/theta={t}", margin, 0.0,
            bool(margin > 0.0),
            f"nvar full={info.nvar_full:.5f} ind={info.nvar_ind:.5f} "
            f"pair={info.nvar_pair:.5f}"))

    model5 = Multinomial4(5.0)
    theta = model5.params(0.2)
    draws = max(20_000, 200_000 // p["scale"])
    exact = asy.multinomial_info_scalars(0.2, 5.0)
    targets = {"independence": (exact.h_ind, exact.j_ind),
               "pairwise": (exact.h_pair, exact.j_pair)}
    for name, (h_t, j_t) in targets.items():
        spec = comp.independence(3) if name == "independence" else comp.pairwise(3)
        triple = comp.info_monte_carlo(spec, model5, theta, draws, seed)
        seed += 1
        zH = abs(triple.sensitivity[0, 0] - h_t) / triple.sensitivity_se[0, 0]
        zJ = abs(triple.variability[0, 0] - j_t) / triple.variability_se[0, 0]
        out.append(CheckResult(f"multinomial-info-mc/{name}-H", zH, p["sigma"],
                               bool(zH < p["sigma"]),
                               f"mc={triple.sensitivity[0, 0]:.4f} exact={h_t:.4f}"))
        out.append(CheckResult(f"multinomial-info-mc/{name}-J", zJ, p["sigma"],
                               bool(zJ < p["sigma"]),
                               f"mc={triple.variability[0, 0]:.4f} exact={j_t:.4f}"))
    return out


def check_score_recovery(level="full", seed=601, threads=None):
    """The full score of the equicorrelated normal is a fixed linear
    transform of the pairwise score: residuals and the constant offset are
    zero to Monte Carlo precision."""
    p = _level_params(level)
    model = EMVN(3)
    theta = model.params(rho=0.4, sigma2=1.5)
    draws = max(2000, 10_000 // p["scale"])
    rep = comp.full_efficiency_check(comp.pairwise(3), model, theta,
                                     draws, seed, sigma=p["sigma"])
    bz = float(np.max(np.abs(rep.b_estimate) / rep.b_se))
    return [
        CheckResult("score-recovery-max-residual-z", rep.max_residual_z,
                    p["sigma"], bool(rep.max_residual_z < p["sigma"]),
                    "per-draw residual of u - H J^-1 u_c in propagated se units"),
        CheckResult("score-recovery-offset-z", bz, p["sigma"],
                    bool(bz < p["sigma"]),
                    f"b={np.array2string(rep.b_estimate, precision=5)}"),
        CheckResult("score-recovery-fully-efficient", rep.lambda_max,
                    p["sigma"] * rep.lambda_max_se, rep.fully_efficient,
                    "largest eigenvalue of the residual covariance"),
    ]


def check_chain_unbiasedness(level="full", seed=701, threads=None):
    """Conditional-chain specs are information-unbiased on every model, and
    their component scores are mutually uncorrelated."""
    p = _level_params(level)
    draws = max(10_000, 100_000 // p["scale"])
    cases = [
        ("emvn", EMVN(3), EMVN(3).params(rho=0.4, sigma2=1.2)),
        ("trinormal", TriNormal(), TriNormal().params(mu=0.3, rho=0.4, sigma2=2.0)),
        ("multinomial4", Multinomial4(5.0), Multinomial4(5.0).params(0.2)),
    ]
    out = []
    for i, (name, model, theta) in enumerate(cases):
        spec = comp.chain(model.dim)
        triple = comp.info_monte_carlo(spec, model, theta, draws, seed + i)
        z = comp.info_bias_zscore(triple)
        out.append(CheckResult(f"chain-info-unbiased/{name}", z, p["sigma"],
                               bool(z < p["sigma"]),
                               f"bias measure {comp.info_bias_measure(triple):.4f}"))

        Y = model.sample(theta, draws, substream(seed + i, 1))
        scores = comp.component_scores(spec, model, Y, theta)
        # 50 batches: with the max taken over many entries, the t-tails of
        # 20-batch standard errors are noticeably heavier than normal
        slices = comp.batch_slices(draws, 50)
        worst = 0.0
        for a in range(len(scores)):
            for b in range(a + 1, len(scores)):
                cross = comp.sample_cov(scores[a], scores[b])
                se = comp.batch_se([comp.sample_cov(scores[a][sl], scores[b][sl])
                                    for sl in slices])
                # entries with zero se come from score coordinates that are
                # identically zero; their cross-covariance must be exactly 0
                z = np.where(se > 0, np.abs(cross) / np.where(se > 0, se, 1.0),
                             np.where(np.abs(cross) > 1e-12, np.inf, 0.0))
                worst = max(worst, float(np.max(z)))
        out.append(CheckResult(f"chain-orthogonality/{name}", worst, p["sigma"],
                               bool(worst < p["sigma"]),
                               "max |cross-covariance| z over component pairs"))
    return out


def check_projection(level="full", seed=801, threads=None):
    """Projecting the pairwise score recovers the full score pointwise, and
    the projected score satisfies the second Bartlett identity."""
    p = _level_params(level)
    model = EMVN(3)
    theta = model.params(rho=0.4, sigma2=1.5)
    spec = comp.pairwise(3)
    exact = comp.info_exact(spec, model, theta)
    Y = model.sample(theta, 1000, seed)
    gap = float(np.max(np.abs(
        comp.project_score(exact, comp.composite_score(spec, model, Y, theta))
        - model.full_score(Y, theta))))
    draws = max(10_000, 100_000 // p["scale"])
    proj = comp.projected_info_monte_carlo(spec, model, theta, draws,
                                           seed + 1, exact)
    z = comp.info_bias_zscore(proj)
    return [
        CheckResult("projection-pointwise-match", gap, 1e-5, bool(gap < 1e-5),
                    "sup gap between projected pairwise score and full score"),
        CheckResult("projection-bartlett", z, p["sigma"], bool(z < p["sigma"]),
                    "H vs J of the projected score, Monte Carlo"),
    ]


def check_estimator_covariance(level="full", seed=901, threads=None):
    """Simulated covariance between the pairwise correlation and variance
    estimators against its closed form; it nearly vanishes close to the
    lower correlation boundary."""
    p = _level_params(level)
    model = EMVN(3)
    spec = comp.pairwise(3)
    out = []
    for i, rho in enumerate((0.5, -0.45)):
        theta = model.params(rho=rho, sigma2=1.0)
        rep = mc.paradox_covariance_diagnostics(
            spec, model, theta, n=500,
            replicates=max(200, 2000 // p["scale"]),
            seed=seed + i, sigma=p["sigma"], threads=threads)
        target = asy.pairwise_rho_sigma_acov(3, rho, 1.0)
        z = abs(rep.ncov_joint - target) / rep.ncov_joint_se
        out.append(CheckResult(
            f"pairwise-acov/rho={rho}", z, p["sigma"], bool(z < p["sigma"]),
            f"n*acov={rep.ncov_joint:.4f} target={target:.4f} "
            f"se={rep.ncov_joint_se:.4f}"))
    return out


_DOMINANCE_DESIGN = None


def _dominance_design():
    global _DOMINANCE_DESIGN
    if _DOMINANCE_DESIGN is None:
        emvn = EMVN(3)
        tri = TriNormal()
        mult5 = Multinomial4(5.0)
        mult1 = Multinomial4(1.0)
        tri_theta = tri.params(mu=0.3, rho=0.4, sigma2=2.0)
        tri_ind = tri_theta.with_roles(rho="known")
        # the independence likelihood of the equicorrelated model carries no
        # information about rho, so those rows treat rho as known
        emvn_ind_a = emvn.params(0.5, 1.0).with_roles(rho="known")
        emvn_ind_b = emvn.params(-0.3, 1.3).with_roles(rho="known")
        _DOMINANCE_DESIGN = [
            ("emvn-rho0.5-independence", emvn, emvn_ind_a, comp.independence(3)),
            ("emvn-rho0.5-pairwise", emvn, emvn.params(0.5, 1.0), comp.pairwise(3)),
            ("emvn-rho0.5-full-conditional", emvn, emvn.params(0.5, 1.0), comp.full_conditional(3)),
            ("emvn-rho0.5-chain", emvn, emvn.params(0.5, 1.0), comp.chain(3)),
            ("emvn-rho0.5-full", emvn, emvn.params(0.5, 1.0), comp.full_likelihood(3)),
            ("emvn-rho-0.3-independence", emvn, emvn_ind_b, comp.independence(3)),
            ("emvn-rho-0.3-pairwise", emvn, emvn.params(-0.3, 1.3), comp.pairwise(3)),
            ("trinormal-independence", tri, tri_ind, comp.independence(3)),
            ("trinormal-pairwise", tri, tri_theta, comp.pairwise(3)),
            ("trinormal-chain", tri, tri_theta, comp.chain(3)),
            ("multinomial4-k5-independence", mult5, mult5.params(0.2), comp.independence(3)),
            ("multinomial4-k5-pairwise", mult5, mult5.params(0.2), comp.pairwise(3)),
            ("multinomial4-k5-chain", mult5, mult5.params(0.2), comp.chain(3)),
            ("multinomial4-k1-pairwise", mult1, mult1.params(0.25), comp.pairwise(3)),
        ]
    return _DOMINANCE_DESIGN


def check_sandwich_dominance(level="full", seed=1001, threads=None):
    """The full likelihood dominates every composite spec: the smallest
    eigenvalue of I - G stays above minus sigma standard errors.

    ``DEBUG_SENSITIVITY_OFFSET`` shifts the estimated sensitivity before
    forming G; any nonzero value must break at least the exact-efficiency
    rows (negative control).
    """
    p = _level_params(level)
    draws = max(10_000, 100_000 // p["scale"])
    offset = DEBUG_SENSITIVITY_OFFSET
    out = []
    for i, (label, model, theta, spec) in enumerate(_dominance_design()):
        fisher = comp.info_exact(comp.full_likelihood(model.dim), model,
                                 theta).variability
        triple = comp.info_monte_carlo(spec, model, theta, draws, seed + i)
        eye = np.eye(triple.dim)

        def lam_min(H, J):
            G = comp._godambe(H + offset * eye, J)
            return float(np.min(np.linalg.eigvalsh(fisher - G)))

        lam = lam_min(triple.sensitivity, triple.variability)
        bats = [lam_min(hb, jb) for hb, jb in
                zip(triple.batch_sensitivity, triple.batch_variability)]
        se = float(comp.batch_se(bats))
        thresh = -p["sigma"] * se
        out.append(CheckResult(f"sandwich-dominance/{label}", lam, thresh,
                               bool(lam >= thresh),
                               f"lambda_min(I-G)={lam:.5f} se={se:.5f}"))
    return out


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

ALL_CHECKS = [
    check_pairwise_variance_formulas,
    check_pairwise_ratio_curve,
    check_full_conditional_ratio,
    check_two_block,
    check_multinomial,
    check_score_recovery,
    check_chain_unbiasedness,
    check_projection,
    check_estimator_covariance,
    check_sandwich_dominance,
]


def run_all(level: str = "full", seed: int = 20260810, threads=None,
            progress=None):
    """Run every check; returns the list of CheckResults, each stamped with
    the wall time and seed of the check function that produced it."""
    _level_params(level)
    results = []
    for i, fn in enumerate(ALL_CHECKS):
        check_seed = seed + 100 * i
        started = time.perf_counter()
        found = list(fn(level=level, seed=check_seed, threads=threads))
        wall_s = time.perf_counter() - started
        for res in found:
            res = replace(res, wall_s=wall_s, seed=check_seed)
            results.append(res)
            if progress is not None:
                progress(res)
    return results

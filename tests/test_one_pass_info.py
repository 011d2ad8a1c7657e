"""Monte Carlo information in one pass per parameter point, against the
per-row and per-batch arithmetic it replaced.

``models.affine_quadratic`` runs the score kernel
(``models.score_kernel``), whose columns are one matmul of
packed coefficients with the residuals and their distinct products; the
oracle (``oracles.parent_affine_quadratic``) multiplies and sums, so the
two agree to rounding, linear forms included.  J of a Monte
Carlo triple is pooled from the batch covariances and means; it must match
the covariance of all the rows to rounding.  The batch Godambe matrices,
the partitioned variances and the ratio curve's batch ratios are each one
stacked call, bit for bit equal to one call per batch.  The estimates CSV
is written from whole columns, byte for byte as the per-row writer
(``oracles.parent_estimates_csv``) wrote it.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import clik.asymptotics as asy
import clik.composite as comp
import clik.montecarlo as mc
from clik.models import (EMVN, Multinomial4, ParamBatch, TriNormal,
                         affine_quadratic, unpack_forms)
from oracles import (parent_affine_quadratic, parent_estimates_csv,
                     parent_partitioned)
from test_sensitivity_identity import SETTINGS, weighted_specs


@st.composite
def quadratic_cases(draw):
    """A model, a ParamVector or ParamBatch of 1 to 4 points, a random
    weighted spec and residual rows with the points' leading axis."""
    family = draw(st.sampled_from(["emvn", "trinormal", "multinomial"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.integers(0, 4))             # 0: a single ParamVector
    count = max(size, 1)
    if family == "emvn":
        model = EMVN(draw(st.integers(3, 6)))
        lo = -1.0 / (model.dim - 1)
        values = np.column_stack([rng.uniform(lo + 0.05, 0.95, count),
                                  rng.uniform(0.3, 3.0, count)])
        known = draw(st.lists(st.sampled_from(model.param_names),
                              unique=True, max_size=1))
    elif family == "trinormal":
        model = TriNormal()
        values = np.column_stack([rng.uniform(-2.0, 2.0, count),
                                  rng.uniform(-0.9, 0.9, count),
                                  rng.uniform(0.3, 3.0, count)])
        # mu stays free: its A is zero beside the nonzero A of rho, sigma2
        known = draw(st.lists(st.sampled_from(["rho", "sigma2"]),
                              unique=True))
    else:
        model = Multinomial4(draw(st.floats(0.5, 10.0)))
        values = rng.uniform(0.05, 0.95, (count, 1)) * model.theta_max
        known = []
    theta = model.params(*values[0])
    theta = theta.with_roles(**{name: "known" for name in known})
    lead = ()
    if size:
        theta = ParamBatch(theta.names, values, theta.roles)
        lead = (size,)
    n = draw(st.integers(1, 40))
    if family == "multinomial":
        rows = model.outcomes()[rng.integers(0, 4, lead + (n,))]
    else:
        rows = rng.normal(size=lead + (n, model.dim)) * rng.uniform(0.5, 3.0)
    resid = rows - model._mean(theta)[..., None, :]
    return model, theta, draw(weighted_specs(model.dim)), resid


@SETTINGS
@given(case=quadratic_cases())
def test_einsum_quadratic_matches_product_and_sum(case):
    model, theta, spec, resid = case
    c, B, A = unpack_forms(comp._spec_forms(spec, model, theta), model.dim)
    got = affine_quadratic(c, B, A, resid)
    want = parent_affine_quadratic(c, B, A, resid)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@SETTINGS
@given(n=st.integers(1000, 1500), batches=st.integers(10, 25),
       q=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_pooled_cov_matches_covariance_of_all_rows(n, batches, q, seed):
    rng = np.random.default_rng(seed)
    U = (rng.normal(size=(n, q)) @ rng.normal(size=(q, q))
         + 3.0 * rng.normal(size=q))
    slices = comp.batch_slices(n, batches)
    pooled = comp._pooled_cov(
        np.stack([comp.sample_cov(U[sl]) for sl in slices]),
        np.stack([U[sl].mean(axis=0) for sl in slices]),
        np.array([sl.stop - sl.start for sl in slices]))
    want = comp.sample_cov(U)
    assert np.array_equal(pooled, pooled.T)
    assert np.max(np.abs(pooled - want)) <= 1e-13 * np.max(np.abs(want))


def monte_carlo_triples():
    """Triples of EMVN(3) full-conditional (rho, sigma2) and TriNormal
    pairwise (mu, rho, sigma2), with draws not a multiple of batches."""
    emvn, tri = EMVN(3), TriNormal()
    yield (comp.full_conditional(3), emvn, emvn.params(rho=0.4, sigma2=1.3),
           ["rho"])
    yield (comp.pairwise(3), tri, tri.params(mu=0.7, rho=-0.3, sigma2=2.0),
           ["mu", "sigma2"])


@pytest.mark.parametrize("spec, model, theta, interest",
                         list(monte_carlo_triples()),
                         ids=["emvn-full_conditional", "trinormal-pairwise"])
def test_monte_carlo_triple_matches_per_batch_loops(spec, model, theta,
                                                    interest):
    draws, batches, seed = 2347, 20, 17
    triple = comp.info_monte_carlo(spec, model, theta, draws, seed, batches)
    U = comp.composite_score(spec, model, model.sample(theta, draws, seed),
                             theta)
    J = comp.sample_cov(U)
    assert np.max(np.abs(triple.variability - J)) <= 1e-13 * np.max(np.abs(J))

    Hb, Jb = triple.batches.sensitivity, triple.batches.variability
    Gb = comp._godambe(Hb, Jb)
    loop = np.stack([comp._godambe(h, j) for h, j in zip(Hb, Jb)])
    assert Gb.tobytes() == loop.tobytes()
    assert triple.batches.godambe.tobytes() == Gb.tobytes()
    assert triple.godambe_se.tobytes() == comp.batch_se(loop).tobytes()

    i_idx = [triple.param_names.index(name) for name in interest]
    n_idx = [k for k in range(triple.dim) if k not in i_idx]
    prof, known = comp.partitioned_variance(triple.batches, interest)
    for b in range(batches):
        want = parent_partitioned(Hb[b], Jb[b], Gb[b], i_idx, n_idx)
        assert prof[b].tobytes() == want[0].tobytes()
        assert known[b].tobytes() == want[1].tobytes()
    one = comp.partitioned_variance(triple, interest)
    want = parent_partitioned(triple.sensitivity, triple.variability,
                              triple.godambe, i_idx, n_idx)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(one, want))


def test_info_monte_carlo_solves_once_for_the_sample_and_once_for_the_batches(
        monkeypatch):
    calls = []
    real = comp.solve_sym

    def counted(m, rhs):
        calls.append(np.shape(m))
        return real(m, rhs)
    monkeypatch.setattr(comp, "solve_sym", counted)
    model = EMVN(3)
    comp.info_monte_carlo(comp.full_conditional(3), model,
                          model.params(rho=0.3), 2000, 7)
    assert calls == [(2, 2), (20, 2, 2)]


def test_info_monte_carlo_builds_forms_at_theta_and_the_2q_stencil_points(
        monkeypatch):
    model = EMVN(3)
    theta = model.params(rho=0.3)
    built = []
    real = model.margin_score_reps

    def counted(sets, points):
        built.append(np.array(points.values, ndmin=2))
        return real(sets, points)
    monkeypatch.setattr(model, "margin_score_reps", counted)
    comp.info_monte_carlo(comp.full_conditional(3), model, theta, 2000, 7)
    stencil, _ = comp._stencil(model, theta, comp.FD_STEP_INFO)
    assert len(built) == 2 and len(stencil) == 4
    np.testing.assert_array_equal(built[0], [theta.values])
    np.testing.assert_array_equal(built[1], stencil.values)


def test_ratio_curve_reads_the_batch_godambe_matrices(monkeypatch):
    # per grid point: the triple's two Godambe solves (sample, batch
    # stack), then one Schur solve each for the point and the batch stack
    calls = []
    real = comp.solve_sym

    def counted(m, rhs):
        calls.append(np.shape(m))
        return real(m, rhs)
    monkeypatch.setattr(comp, "solve_sym", counted)
    asy.full_conditional_ratio_curve(3, grid=[0.3], draws=2000, seed=7)
    assert calls == [(2, 2), (20, 2, 2), (1, 1), (20, 1, 1)]


def test_estimates_csv_is_byte_identical_to_per_row_writer(tmp_path):
    model = EMVN(3)
    theta = model.params(rho=0.5, sigma2=1.0)
    config = mc.SimConfig(model, theta,
                          (mc.SpecRun(comp.pairwise(3)),
                           mc.SpecRun(comp.pairwise(3), {"sigma2": 1.0}),
                           mc.SpecRun(comp.full_conditional(3))),
                          n=50, replicates=120, seed=4)
    result = mc.run(config)
    # failed replicates hold NaN rows; odd values exercise the formatting
    for label, rows in zip(result.labels(), ([0, 7, 119], [3], [5, 6])):
        result.estimates[label][rows] = np.nan
        result.converged[label][rows] = False
    est = result.estimates["pairwise"]
    est[10, 0], est[11, 1], est[12, 0], est[13, 1] = -0.0, 1e-300, 1.5e300, 0.1
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    result.write_estimates_csv(got)
    parent_estimates_csv(result, want)
    assert got.read_bytes() == want.read_bytes()
    assert b"nan" in got.read_bytes()

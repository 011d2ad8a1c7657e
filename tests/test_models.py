import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clik.composite import (Component, CompositeSpec, _spec_forms, chain,
                            composite_loglik, full_likelihood, info_exact)
from clik.errors import DimensionMismatch, DomainError, InvalidArgument
from clik.matrixops import cholesky_lower
from clik.models import (EMVN, Multinomial4, ParamBatch, ParamVector,
                         TriNormal, affine_quadratic, substream, substreams,
                         unpack_forms)
from oracles import conditional_moments, numeric_hessian

LOG_2PI = np.log(2 * np.pi)


def all_models():
    return [
        (EMVN(3), EMVN(3).params(rho=0.4, sigma2=1.3)),
        (TriNormal(), TriNormal().params(mu=0.5, rho=-0.3, sigma2=2.0)),
        (Multinomial4(5.0), Multinomial4(5.0).params(0.2)),
    ]


# -- ParamVector -------------------------------------------------------------


def test_param_vector_basics():
    pv = ParamVector(("rho", "sigma2"), (0.4, 1.0), ("interest", "nuisance"))
    assert pv["rho"] == 0.4
    assert pv.free_names == ("rho", "sigma2")
    assert pv.with_roles(sigma2="known").free_names == ("rho",)
    assert pv.with_values(rho=0.1)["rho"] == 0.1
    np.testing.assert_array_equal(pv.replace_free([0.2, 2.0]).free_values,
                                  [0.2, 2.0])
    with pytest.raises(ValueError):
        ParamVector(("a", "a"), (1.0, 2.0), ("interest", "interest"))
    with pytest.raises(ValueError):
        ParamVector(("a",), (1.0,), ("wat",))
    with pytest.raises(KeyError):
        pv.with_values(nope=1.0)
    with pytest.raises(DimensionMismatch):
        pv.replace_free([1.0])


def test_domain_boundaries_rejected():
    emvn = EMVN(3)
    with pytest.raises(DomainError):
        emvn.params(rho=-0.5)                     # exactly the lower bound
    with pytest.raises(DomainError):
        emvn.params(rho=-0.5 + 1e-12)             # within the 1e-8 margin
    with pytest.raises(DomainError):
        emvn.params(rho=1.0)
    with pytest.raises(DomainError):
        emvn.params(rho=0.2, sigma2=0.0)
    mult = Multinomial4(5.0)
    with pytest.raises(DomainError):
        mult.params(0.0)
    with pytest.raises(DomainError):
        mult.params(mult.theta_max)
    with pytest.raises(DomainError):
        TriNormal().params(rho=1.0)


# -- margins and conditionals -------------------------------------------------


def test_emvn_univariate_margin_is_standard_normal():
    model = EMVN(3)
    theta = model.params(rho=0.0, sigma2=1.0)
    y = np.zeros(3)
    assert model.margin_loglik((0,), y, theta) == pytest.approx(
        -0.5 * LOG_2PI, abs=1e-14)


def test_emvn_bivariate_margin_at_origin():
    model = EMVN(3)
    theta = model.params(rho=0.5, sigma2=1.0)
    val = model.margin_loglik((0, 1), np.zeros(3), theta)
    # bivariate normal density at the origin with unit variances, corr 0.5
    assert val == pytest.approx(-LOG_2PI - 0.5 * np.log(1 - 0.25), abs=1e-13)


def test_multinomial_margin_cell_probability():
    model = Multinomial4(5.0)
    theta = model.params(0.2)
    val = model.margin_loglik((2,), np.array([0.0, 0.0, 1.0]), theta)
    assert val == pytest.approx(np.log(0.04), abs=1e-13)


def conditional(target, given):
    """The spec of one conditional component."""
    return CompositeSpec("conditional",
                         [Component("conditional", (target,), given)])


def test_conditional_equals_marginal_under_independence():
    model = EMVN(3)
    theta = model.params(rho=0.0, sigma2=1.7)
    y = np.array([0.3, -1.2, 0.8])
    for target in range(3):
        given = tuple(j for j in range(3) if j != target)
        assert composite_loglik(conditional(target, given), model, y,
                                theta) == \
            pytest.approx(model.margin_loglik((target,), y, theta), abs=1e-12)


def test_emvn_conditional_variance_formula():
    model = EMVN(3)
    theta = model.params(rho=0.5, sigma2=1.0)
    _, _, var = conditional_moments(model, 0, (1, 2), theta)
    # partitioned-covariance arithmetic: (1-rho)(1+2 rho)/(1+rho)
    assert var == pytest.approx(2.0 / 3.0, abs=1e-12)

    # Monte Carlo residual-variance cross-check
    Y = model.sample(theta, 100_000, 314)
    icpt, w, _ = conditional_moments(model, 0, (1, 2), theta)
    resid = Y[:, 0] - (icpt + Y[:, 1:] @ w)
    assert resid.var(ddof=1) == pytest.approx(2.0 / 3.0, abs=0.01)


def test_chain_rule_identity_all_models():
    rng = np.random.default_rng(4)
    for model, theta in all_models():
        Y = model.sample(theta, 40, rng.integers(2**32))
        total = composite_loglik(chain(model.dim), model, Y, theta)
        np.testing.assert_allclose(total, model.loglik(Y, theta),
                                   rtol=0, atol=1e-10)


def test_conditional_rejects_target_in_given():
    with pytest.raises(ValueError):
        conditional(1, (1, 2))


def test_margin_index_validation():
    model = EMVN(3)
    theta = model.params(rho=0.2)
    with pytest.raises(ValueError):
        model.margin_loglik((), np.zeros(3), theta)
    with pytest.raises(DimensionMismatch):
        model.margin_loglik((3,), np.zeros(3), theta)
    with pytest.raises(DimensionMismatch):
        model.margin_loglik((0,), np.zeros(4), theta)


# -- samplers ------------------------------------------------------------------


def test_sampler_determinism():
    for model, theta in all_models():
        a = model.sample(theta, 100, 9)
        b = model.sample(theta, 100, 9)
        np.testing.assert_array_equal(a, b)


def test_substreams_differ_and_are_deterministic():
    a = substream(5, 0).standard_normal(4)
    b = substream(5, 1).standard_normal(4)
    a2 = substream(5, 0).standard_normal(4)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, a2)


@pytest.mark.parametrize("model, theta", [
    (EMVN(4), EMVN(4).params(rho=0.3, sigma2=2.0)),
    (TriNormal(), TriNormal().params(mu=0.5, rho=-0.4, sigma2=3.0)),
    (Multinomial4(5.0), Multinomial4(5.0).params(0.2)),
])
def test_sampler_draws_are_sample_bits(model, theta):
    # one sampler serves many draws; each equals a one-call sample
    draw = model.sampler(theta)
    for r, n in enumerate((1, 17, 300)):
        a = draw(n, [substream(41, r)])[0]
        b = model.sample(theta, n, substream(41, r))
        assert a.shape == (n, model.dim)
        assert a.tobytes() == b.tobytes()
    # a block: dataset k is what generator k draws alone
    block = draw(17, list(substreams(41, range(3, 8))))
    assert block.shape == (5, 17, model.dim)
    for k, r in enumerate(range(3, 8)):
        b = model.sample(theta, 17, substream(41, r))
        assert block[k].tobytes() == b.tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(sizes=st.lists(st.integers(2, 400), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("model, theta", all_models() + [
    (EMVN(6), EMVN(6).params(rho=-0.1, sigma2=0.5))])
def test_consecutive_draws_from_one_generator_are_one_sample(model, theta,
                                                             sizes, seed):
    # the Monte Carlo pass draws its batches one at a time from one
    # generator; in order they are the rows of one sample.  A batch has at
    # least two rows (``batch_slices``): one Gaussian row is a
    # vector-matrix product, which rounds differently from the same row
    # inside a matrix product
    draw, rng = model.sampler(theta), substream(seed)
    chunks = [draw(k, [rng])[0] for k in sizes]
    assert np.concatenate(chunks).tobytes() == \
        model.sample(theta, sum(sizes), seed).tobytes()


def test_gaussian_sampler_adds_the_mean_bit_for_bit():
    # TriNormal's mean is nonzero: each dataset is its standard normal
    # noise times the covariance factor, plus the mean
    model = TriNormal()
    theta = model.params(mu=0.7, rho=-0.3, sigma2=2.0)
    assert np.all(model._mean(theta) != 0)
    factor = cholesky_lower(model._cov(theta)).T
    block = model.sampler(theta)(17, list(substreams(41, range(5))))
    noise = np.stack([rng.standard_normal((17, 3))
                      for rng in substreams(41, range(5))])
    want = noise @ factor + model._mean(theta)
    assert block.tobytes() == want.tobytes()


def _numpy_stream(seed, index=None):
    ss = (np.random.SeedSequence(seed) if index is None
          else np.random.SeedSequence(seed, spawn_key=(index,)))
    return np.random.default_rng(ss)


def _assert_same_stream(rng, ref):
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()
    assert rng.random(3).tobytes() == ref.random(3).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**160),
       indices=st.lists(st.integers(0, 2**40), min_size=1, max_size=6))
def test_substreams_are_numpy_seed_sequence_streams(seed, indices):
    # the vectorised hash seeds exactly what numpy's SeedSequence seeds,
    # for seeds and indices of one or several 32-bit words
    _assert_same_stream(substream(seed), _numpy_stream(seed))
    streams = substreams(seed, indices)
    for i in indices:
        _assert_same_stream(next(streams), _numpy_stream(seed, i))
        _assert_same_stream(substream(seed, i), _numpy_stream(seed, i))
    assert next(streams, None) is None


def test_substreams_reject_negative_seeds_and_indices():
    for seed, index in ((-1, None), (-1, 0), (2**40, -3)):
        with pytest.raises(ValueError):
            substream(seed, index)
    with pytest.raises(ValueError):
        substreams(-1, [0, 1])
    with pytest.raises(TypeError):
        substream(1.5, 0)


def test_substreams_reject_indices_that_are_not_integers():
    # numpy's SeedSequence refuses a fractional spawn key; so do substreams,
    # rather than truncate it to another stream
    for index in (2.5, [1, 2], "x", np.float64(3.0)):
        with pytest.raises(InvalidArgument):
            substream(1, index)
    for indices in ([1.5], 5, [[0, 1]], ["a"], [0, None]):
        with pytest.raises(InvalidArgument):
            substreams(1, indices)
    assert list(substreams(1, [])) == []
    _assert_same_stream(substream(1, np.int64(7)), _numpy_stream(1, 7))
    _assert_same_stream(next(substreams(1, np.array([2**40], dtype=np.uint64))),
                        _numpy_stream(1, 2**40))


def test_sampler_validates_once_at_set_up():
    model = EMVN(3)
    bad = model.params(rho=0.2).with_values(rho=-0.6)
    with pytest.raises(DomainError):
        model.sampler(bad)
    with pytest.raises(DomainError):
        model.sample(bad, 0, 1)          # the domain is checked before n
    with pytest.raises(ValueError, match="n must be"):
        model.sample(model.params(rho=0.2), 0, 1)


def test_multinomial_sampler_mean_band():
    model = Multinomial4(5.0)
    theta = model.params(0.2)
    n = 100_000
    Y = model.sample(theta, n, 11)
    band = 3 * np.sqrt(0.2 * 0.8 / n)
    assert abs(Y[:, 0].mean() - 0.2) < band
    assert abs(Y[:, 1].mean() - 0.2) < band
    assert abs(Y[:, 2].mean() - 0.04) < 3 * np.sqrt(0.04 * 0.96 / n)
    model.check_data(Y)


def test_emvn_sampler_covariance_band():
    model = EMVN(3)
    theta = model.params(rho=0.5, sigma2=1.0)
    n = 100_000
    Y = model.sample(theta, n, 12)
    emp = np.cov(Y.T, ddof=1)
    cov = model._cov(theta)
    for i in range(3):
        for j in range(3):
            se = np.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n)
            assert abs(emp[i, j] - cov[i, j]) < 3 * se


def test_trinormal_sampler_matches_structure():
    model = TriNormal()
    theta = model.params(mu=0.7, rho=-0.4, sigma2=2.5)
    Y = model.sample(theta, 100_000, 13)
    assert abs(Y.mean() - 0.7) < 0.02
    assert abs(np.corrcoef(Y[:, 0], Y[:, 1])[0, 1] + 0.4) < 0.01
    assert abs(np.cov(Y[:, 0], Y[:, 2])[0, 1]) < 0.02
    assert abs(Y[:, 2].var(ddof=1) - 2.5) < 0.05


def test_multinomial_check_data_rejects_bad_rows():
    model = Multinomial4(2.0)
    with pytest.raises(ValueError):
        model.check_data(np.array([[1.0, 1.0, 0.0]]))
    with pytest.raises(ValueError):
        model.check_data(np.array([[0.5, 0.0, 0.0]]))


def test_multinomial_cells_sum_to_one():
    for k in (0.5, 1.0, 5.0, 100.0):
        model = Multinomial4(k)
        for t in np.linspace(0.01, model.theta_max - 0.01, 7):
            assert model.cell_probs(model.params(t)).sum() == pytest.approx(
                1.0, abs=1e-12)


def outcome_covariance(model, theta):
    """``sum_k w_k (o_k - m)(o_k - m)'`` over the four outcomes ``o_k`` and
    cell probabilities ``w_k``, with ``m = sum_k w_k o_k``."""
    w, outcomes = model.cell_probs(theta), model.outcomes()
    dev = outcomes - w @ outcomes
    return np.einsum("k,ki,kj->ij", w, dev, dev)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=st.floats(0.5, 10.0), fracs=st.lists(st.floats(0.05, 0.95),
                                              min_size=1, max_size=5))
def test_multinomial_covariance_is_the_outcome_sum(k, fracs):
    model = Multinomial4(k)
    points = [model.params(f * model.theta_max) for f in fracs]
    batch = ParamBatch.stack(points)
    stacked = model._cov(batch)
    assert stacked.shape == (len(points), 3, 3)
    for theta, got in zip(points, stacked):
        want = outcome_covariance(model, theta)
        np.testing.assert_allclose(model._cov(theta), want, rtol=0.0,
                                   atol=1e-14 * np.max(np.abs(want)))
        np.testing.assert_array_equal(got, model._cov(theta))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(k=st.floats(0.5, 10.0), fracs=st.lists(st.floats(0.05, 0.95),
                                              min_size=2, max_size=5))
def test_multinomial_batch_scores_have_the_bits_of_each_point(k, fracs):
    # the cell probabilities of a batch are C-ordered, so its residual rows
    # meet the score forms in the same matmul as one point's rows do
    model = Multinomial4(k)
    points = [model.params(f * model.theta_max) for f in fracs]
    batch = ParamBatch.stack(points)
    assert model.cell_probs(batch).flags.c_contiguous
    spec = full_likelihood(3)
    outcomes = model.outcomes()

    def scores(theta):
        c, B, A = unpack_forms(_spec_forms(spec, model, theta), 3)
        return affine_quadratic(c, B, A,
                                outcomes - model._mean(theta)[..., None, :])
    stacked = scores(batch)
    for i in range(len(points)):
        one = scores(ParamBatch.stack([points[i]]))[0]
        assert stacked[i].tobytes() == one.tobytes()


# -- scores ---------------------------------------------------------------------


def _fd_full_score(model, y, theta):
    free = theta.free_names
    out = np.empty(len(free))
    for a, name in enumerate(free):
        h = 1e-5 * max(1.0, abs(theta[name]))
        up = model.loglik(y, theta.with_values(**{name: theta[name] + h}))
        dn = model.loglik(y, theta.with_values(**{name: theta[name] - h}))
        out[a] = (up - dn) / (2 * h)
    return out


def test_full_score_matches_finite_differences():
    rng = np.random.default_rng(5)
    for model, theta in all_models():
        Y = model.sample(theta, 10, rng.integers(2**32))
        scores = model.full_score(Y, theta)
        for i in range(10):
            fd = _fd_full_score(model, Y[i], theta)
            np.testing.assert_allclose(scores[i], fd, rtol=1e-6, atol=1e-8)


def test_multinomial_score_zero_at_mle():
    model = Multinomial4(5.0)
    theta = model.params(0.2)
    Y = model.sample(theta, 4000, 17)
    theta_hat = model.params(Y.mean(axis=0).sum() / (2 + 1 / 5.0))
    total = model.full_score(Y, theta_hat).sum(axis=0)
    assert abs(total[0]) < 1e-8 * Y.shape[0]


def test_score_unbiasedness():
    for model, theta in all_models():
        Y = model.sample(theta, 100_000, 19)
        U = model.full_score(Y, theta)
        se = U.std(axis=0, ddof=1) / np.sqrt(U.shape[0])
        assert np.all(np.abs(U.mean(axis=0)) < 4 * se)


# -- Fisher information ------------------------------------------------------------


def fisher(model, theta):
    """Per-observation Fisher information: J of the full likelihood."""
    triple = info_exact(full_likelihood(model.dim), model, theta)
    assert triple.provenance == "analytic"
    return triple.variability


def test_multinomial_fisher_exact_value():
    model = Multinomial4(5.0)
    info = fisher(model, model.params(0.2))
    # reciprocal of theta/(2 + 1/k) - theta^2 at theta = 0.2, k = 5
    assert info[0, 0] == pytest.approx(1 / (0.2 / 2.2 - 0.04), rel=1e-12)
    assert info[0, 0] == pytest.approx(19.642857142857, rel=1e-12)


def test_trinormal_mu_information_independent_case():
    model = TriNormal()
    theta = model.params(mu=0.0, rho=0.0, sigma2=2.0,
                         roles={"rho": "known", "sigma2": "known"})
    # sum of reciprocal variances: 1 + 1 + 1/2
    assert fisher(model, theta)[0, 0] == pytest.approx(2.5, rel=1e-12)


def test_emvn_fisher_matches_numeric_hessian_oracle():
    model = EMVN(3)
    theta = model.params(rho=0.4, sigma2=1.3)

    def cov(rho, sigma2):
        return sigma2 * ((1 - rho) * np.eye(3) + rho * np.ones((3, 3)))

    true_cov = cov(theta["rho"], theta["sigma2"])

    def expected_loglik(x):
        # E log f(y; x) under theta, up to a constant
        sx = cov(*x)
        return -0.5 * (np.linalg.slogdet(sx)[1]
                       + np.trace(np.linalg.solve(sx, true_cov)))

    hess = -numeric_hessian(expected_loglik, theta.free_values, h=1e-4)
    np.testing.assert_allclose(fisher(model, theta), hess, rtol=1e-6)

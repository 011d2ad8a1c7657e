"""Monte Carlo information in one blocked pass over the draws, against the
whole-sample route it replaced.

``composite._info_from_sample`` takes the draws as the batches of
``batch_slices`` and makes one call per batch of the score kernel
(``models.score_kernel``, which ``affine_quadratic`` runs too).  The
kernel builds the batch's feature rows once (``models.residual_features``:
the residuals ``r`` and their distinct products, ``_KERNEL_ROWS`` rows at
a time, in one scratch buffer that every batch reuses) and fills the
scores from them, a contiguous feature-major block reduced to its mean and
covariance while it is in cache, so each block is that batch's
``composite_score`` bit for bit; the batch statistic behind H is the row
sums of the features (``models.feature_statistic``).  The oracle
(``oracles.parent_info_from_sample``) scores all the draws in one
``composite_score`` call, takes ``sample_cov`` of each batch and
``Model.statistic`` of each batch's rows.  The two round differently, so
J, its batch values, the batch means and the scores agree to rounding, and
H, its batch values and its standard errors to the rounding of a central
difference (within 1e-10 of the largest entry of H); a multinomial
batch G moves with its batch H, within 1e-10 of its own largest entry.  A
linear score column (TriNormal ``mu``, every multinomial column) is a row
of the same matmul as a quadratic one, so it too agrees to rounding, and
the multinomial's J and G, like every other model's J, agree to rounding.
Neither route writes to the caller's draws, the pass calls neither
``Model.statistic`` nor ``affine_quadratic``, and the kernel's scratch
does not grow with the number of rows.

The projected score ``u @ M`` is a fixed linear map of the score, so its
triple is the plain one projected after the pass (``composite._projected``:
``M' H`` and ``M' J M``, symmetrized, batch by batch).  The oracle
projects every score row instead: J and its batch values agree to
rounding, and H and its batch values are the oracle's less
``symmetrize(M' A)``, within the bound above, ``A`` the antisymmetric part
of the plain stencil Jacobian, which the oracle projects and the pass
symmetrizes away first.

``info_monte_carlo`` draws each batch of the sampler's noise from one
generator when the pass reaches it, so it holds one batch at a time: its
triple is that of the pass over the whole sample's noise under the
sampler's noise map, bit for bit, and its memory does not grow with the
draws at a fixed batch size.  The multinomial's map is the identity, so
there the triple is also that of the pass over ``model.sample``'s rows,
bit for bit.  A Gaussian pass scores the noise through forms mapped by
the covariance factor, so against the pass over the rows J and its batch
values agree to rounding (within 1e-12 of their largest entry), and H and
its batch values to the rounding of a central difference (within 1e-10
of max|H|).  ``projected_info_monte_carlo`` is the plain triple
projected, bit for bit.
"""

import dataclasses
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import clik.composite as comp
import clik.models as models
from clik.errors import ClikError, InvalidArgument, SingularMatrix
from clik.matrixops import symmetrize
from clik.models import (EMVN, Model, Multinomial4, ParamBatch, TriNormal,
                         affine_quadratic, unpack_forms)
from oracles import parent_info_from_sample
from test_sensitivity_identity import (SETTINGS, cases, interior_points,
                                       weighted_specs)


def rounding_case():
    """A Multinomial4 case whose J and G differ in the last bit between the
    two routes (at 10 batches of 40 draws, one extra, seed 0): its batch
    means differ by 2.8e-17."""
    model = Multinomial4(1.686592290745729)
    spec = comp.CompositeSpec("random",
                              [comp.Component("margin", (0,), (), 0.1)])
    return model, model.params(0.06929951082467593), spec


def near_singular_batch_case():
    """A Multinomial4 case (at 10 batches of 40 draws, one extra, seed 0)
    with one batch whose G is 19.09 against a full G of 1.33."""
    model = Multinomial4(6.0)
    spec = comp.CompositeSpec(
        "random", [comp.Component("conditional", (2,), (1,), 0.75)])
    return model, model.params(0.23076923076923078), spec


def projection_case(p, spec):
    """An EMVN(p) case with both parameters free whose projection ``J^-1
    H`` is not symmetric, so ``M' H`` and ``M H`` differ: the drawn cases
    that reach the projection have one free parameter or a symmetric
    ``J^-1 H``."""
    model = EMVN(p)
    return model, model.params(rho=0.4, sigma2=1.3), spec


def batches_of(Y, batches):
    """The batches of ``batch_slices`` over the rows of ``Y``."""
    return (Y[sl] for sl in comp.batch_slices(len(Y), batches))


def blocked(spec, model, Y, theta, batches, M=None):
    """``(triple, scores, batch_means)`` of the blocked pass over the
    batches of ``Y``, its triple projected by ``M`` after the pass
    (``composite._projected``) when ``M`` is given: the scores are the
    batch blocks the pass hands to ``sample_cov``, stacked, and the batch
    means those it hands to ``_pooled_cov``."""
    with mock.patch.object(comp, "_pooled_cov",
                           wraps=comp._pooled_cov) as pooled, \
            mock.patch.object(comp, "sample_cov",
                              wraps=comp.sample_cov) as cov:
        triple = comp._info_from_sample(spec, model, batches_of(Y, batches),
                                        theta)
    if M is not None:
        triple = comp._projected(triple, M)
    scores = np.concatenate([call.args[0] for call in cov.call_args_list])
    return triple, scores, pooled.call_args.args[1]


def antisymmetric(H):
    """The antisymmetric part ``(H - H') / 2`` of a matrix or a stack."""
    return (H - np.swapaxes(H, -1, -2)) / 2.0


@SETTINGS
@given(case=cases(), batches=st.integers(10, 25), per=st.integers(40, 80),
       extra=st.integers(1, 9), project=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(case=rounding_case(), batches=10, per=40, extra=1, project=False,
         seed=0)
@example(case=near_singular_batch_case(), batches=10, per=40, extra=1,
         project=False, seed=0)
@example(case=projection_case(3, comp.pairwise(3)), batches=10, per=40,
         extra=1, project=True, seed=0)
@example(case=projection_case(4, comp.full_conditional(4)), batches=12,
         per=60, extra=5, project=True, seed=3)
def test_blocked_pass_matches_whole_sample_route(case, batches, per, extra,
                                                 project, seed):
    model, theta, spec = case
    n = per * batches + extra            # never a multiple of batches
    try:
        if project:
            M = comp.projection_matrix(comp.info_exact(spec, model, theta))
        Y = model.sample(theta, n, seed)
        got, scores, means = blocked(spec, model, Y, theta, batches)
    except (SingularMatrix, InvalidArgument):
        assume(False)       # the spec carries no information on a parameter
    want, U0, want_means, jacobians = parent_info_from_sample(
        spec, model, Y, theta, batches, jacobian=True)

    tol = 1e-12 * np.max(np.abs(want.variability))
    assert np.max(np.abs(got.variability - want.variability)) <= tol
    assert np.max(np.abs(got.batches.variability
                         - want.batches.variability)) <= tol
    assert np.max(np.abs(means - want_means)) <= tol
    assert scores.shape == U0.shape
    assert np.max(np.abs(scores - U0)) <= tol

    htol = 1e-10 * np.max(np.abs(want.sensitivity))
    for a, b in ((got.sensitivity, want.sensitivity),
                 (got.batches.sensitivity, want.batches.sensitivity),
                 (got.sensitivity_se, want.sensitivity_se)):
        assert np.max(np.abs(a - b)) <= htol
    if isinstance(model, Multinomial4):
        gtol = 1e-12 * np.max(np.abs(want.godambe))
        for a, b, bound in (
                (got.variability_se, want.variability_se, tol),
                (got.godambe, want.godambe, gtol)):
            assert np.max(np.abs(a - b)) <= bound
        # a batch G moves with its batch H, so each is held to H's bound
        # on its own scale: a batch whose H is near zero has a G many
        # orders of magnitude above the rest of the stack
        gap = np.abs(got.batches.godambe - want.batches.godambe)
        scale = np.abs(want.batches.godambe)
        assert np.all(np.max(gap, axis=(-2, -1))
                      <= 1e-10 * np.max(scale, axis=(-2, -1)))
        assert np.max(np.abs(got.godambe_se - want.godambe_se)) \
            <= 1e-10 * np.max(np.abs(want.godambe_se))
    if project:
        assert_projection_matches_the_row_route(
            spec, model, Y, theta, batches, M, (scores, means), jacobians)


def assert_projection_matches_the_row_route(spec, model, Y, theta, batches,
                                            M, plain, jacobians):
    """The pass projected after it ends against the oracle that projects
    every score row: the pass hands ``sample_cov`` and ``_pooled_cov`` the
    plain scores and means; J and its batch values agree to rounding, and
    H and its batch values differ by ``-symmetrize(M' A)``, ``A`` the
    antisymmetric part of the plain stencil Jacobian, which the oracle
    projects and the projected triple never sees."""
    got, scores, means = blocked(spec, model, Y, theta, batches, M)
    for a, b in zip((scores, means), plain):
        assert a.tobytes() == b.tobytes()
    want = parent_info_from_sample(spec, model, Y, theta, batches, M)[0]

    tol = 1e-12 * np.max(np.abs(want.variability))
    for a, b in ((got.variability, want.variability),
                 (got.batches.variability, want.batches.variability),
                 (got.variability_se, want.variability_se)):
        assert np.max(np.abs(a - b)) <= tol
    htol = 1e-10 * np.max(np.abs(want.sensitivity))
    for a, b, jac in ((got.sensitivity, want.sensitivity, jacobians[0]),
                      (got.batches.sensitivity, want.batches.sensitivity,
                       jacobians[1])):
        moved = symmetrize(M.T @ antisymmetric(jac))
        assert np.max(np.abs(a - (b - moved))) <= htol


@st.composite
def stream_cases(draw):
    """A model (EMVN(3) to EMVN(6), TriNormal or Multinomial4), an interior
    point with some parameters known, and a random weighted spec."""
    model = draw(st.sampled_from([EMVN(3), EMVN(4), EMVN(5), EMVN(6),
                                  TriNormal(), Multinomial4(5.0)]))
    names = model.param_names
    known = draw(st.lists(st.sampled_from(names), unique=True,
                          max_size=len(names) - 1))
    theta = draw(interior_points(model)).with_roles(
        **{name: "known" for name in known})
    return model, theta, draw(weighted_specs(model.dim))


def assert_same_bits(got, want):
    """Every field of two triples, and of their batch stacks, bit for bit."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, comp.InfoTriple):
            assert_same_bits(a, b)
        elif isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b and type(a) is type(b), field.name


def noise_pass(spec, model, theta, draws, seed, batches):
    """The pass over the batches of the whole sample's noise, one sampler
    call of ``draws`` rows, under the sampler's noise map."""
    draw = model.sampler(theta)
    noise = draw.noise(draws, [models.substream(seed)])[0]
    return comp._info_from_sample(spec, model, batches_of(noise, batches),
                                  theta, draw.noise_map)


def row_pass(spec, model, theta, draws, seed, batches):
    """The pass over the batches of ``model.sample``'s rows."""
    return comp._info_from_sample(
        spec, model, batches_of(model.sample(theta, draws, seed), batches),
        theta)


@SETTINGS
@given(case=stream_cases(), batches=st.integers(10, 25),
       per=st.integers(100, 160), extra=st.integers(1, 9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_streamed_triples_are_the_whole_sample_pass(case, batches, per,
                                                    extra, seed):
    model, theta, spec = case
    draws = per * batches + extra        # never a multiple of batches
    try:
        base = comp.info_exact(spec, model, theta)
        got = comp.info_monte_carlo(spec, model, theta, draws, seed, batches)
        got_p = comp.projected_info_monte_carlo(spec, model, theta, draws,
                                                seed + 1, base, batches)
    except (SingularMatrix, InvalidArgument):
        assume(False)       # the spec carries no information on a parameter
    want = noise_pass(spec, model, theta, draws, seed, batches)
    want_p = comp._projected(
        noise_pass(spec, model, theta, draws, seed + 1, batches),
        comp.projection_matrix(base))
    assert got.draws == draws
    assert_same_bits(got, want)
    assert_same_bits(got_p, want_p)
    if isinstance(model, Multinomial4):     # the identity map: the rows
        assert_same_bits(got, row_pass(spec, model, theta, draws, seed,
                                       batches))


@SETTINGS
@given(case=stream_cases(), batches=st.integers(10, 25),
       per=st.integers(100, 160), extra=st.integers(1, 9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_noise_pass_is_the_row_pass_to_rounding(case, batches, per, extra,
                                                seed):
    model, theta, spec = case
    draws = per * batches + extra
    try:
        got = comp.info_monte_carlo(spec, model, theta, draws, seed, batches)
    except (SingularMatrix, InvalidArgument):
        assume(False)       # the spec carries no information on a parameter
    want = row_pass(spec, model, theta, draws, seed, batches)
    htol = 1e-10 * np.max(np.abs(want.sensitivity))
    for a, b in ((got.sensitivity, want.sensitivity),
                 (got.batches.sensitivity, want.batches.sensitivity)):
        assert np.max(np.abs(a - b)) <= htol
    for a, b in ((got.variability, want.variability),
                 (got.batches.variability, want.batches.variability)):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@SETTINGS
@given(case=stream_cases(), batches=st.integers(10, 25),
       seed=st.integers(0, 2 ** 32 - 1))
def test_projected_triple_is_the_plain_triple_projected(case, batches, seed):
    # the projected route is the plain triple of the same draws projected
    # after the pass, and the projection of a stack is that of each of its
    # triples, bit for bit
    model, theta, spec = case
    try:
        base = comp.info_exact(spec, model, theta)
        got = comp.projected_info_monte_carlo(spec, model, theta, 3000,
                                              seed, base, batches)
    except (SingularMatrix, InvalidArgument):
        assume(False)       # the spec carries no information on a parameter
    M = comp.projection_matrix(base)
    plain = comp.info_monte_carlo(spec, model, theta, 3000, seed, batches)
    assert_same_bits(got, comp._projected(plain, M))
    stack = plain.batches
    for b in range(batches):
        one = comp._projected(comp.InfoTriple(
            stack.param_names, stack.sensitivity[b], stack.variability[b],
            stack.godambe[b], stack.provenance), M)
        for field in ("sensitivity", "variability", "godambe"):
            assert getattr(got.batches, field)[b].tobytes() \
                == getattr(one, field).tobytes()


def test_linear_forms_keep_their_bits_in_any_layout():
    # residuals laid out as broadcasting leaves them (the rows less a batch
    # of means), row-major, column-major and broadcast along the batch:
    # every column, linear or quadratic, has the same bytes in each layout
    multi, tri, emvn = Multinomial4(5.0), TriNormal(), EMVN(3)
    cases = [
        (multi, [multi.params(t) for t in (0.2, 0.2001, 0.1999)],
         multi.outcomes()),
        (tri, [tri.params(mu=0.7, rho=r, sigma2=2.0) for r in (-0.3, 0.5)],
         tri.sample(tri.params(mu=0.7, rho=-0.3, sigma2=2.0), 37, 4)),
        (emvn, [emvn.params(rho=r, sigma2=1.3) for r in (0.4, -0.2)],
         emvn.sample(emvn.params(rho=0.4, sigma2=1.3), 37, 5)),
    ]
    for model, points, rows in cases:
        points = ParamBatch.stack(points)
        c, B, A = unpack_forms(comp._spec_forms(comp.pairwise(3), model,
                                                points), model.dim)
        resid = rows - model._mean(points)[:, None, :]
        want = affine_quadratic(c, B, A, resid)
        for layout in (np.asfortranarray(resid), np.ascontiguousarray(resid)):
            assert affine_quadratic(c, B, A, layout).tobytes() \
                == want.tobytes()
        shared = np.broadcast_to(resid[0], resid.shape)
        assert affine_quadratic(c, B, A, shared).tobytes() \
            == affine_quadratic(c, B, A, shared.copy()).tobytes()
        # and it is c + r @ B' plus the quadratic term to rounding
        exact = (c[..., None, :] + resid @ np.swapaxes(B, -1, -2)
                 + 0.5 * np.einsum("...na,...qab,...nb->...nq",
                                   resid, A, resid))
        assert np.max(np.abs(want - exact)) <= 1e-13 * np.max(np.abs(exact))


# -- the caller's draws are never written ------------------------------------


def write_cases():
    """EMVN full-conditional (every column quadratic), TriNormal pairwise
    (mixed) and Multinomial4 pairwise (linear)."""
    emvn, tri, multi = EMVN(3), TriNormal(), Multinomial4(5.0)
    yield comp.full_conditional(3), emvn, emvn.params(rho=0.4, sigma2=1.3)
    yield comp.pairwise(3), tri, tri.params(mu=0.7, rho=-0.3, sigma2=2.0)
    yield comp.pairwise(3), multi, multi.params(0.2)


WRITE_IDS = ["emvn", "trinormal", "multinomial"]


@pytest.mark.parametrize("spec, model, theta", list(write_cases()),
                         ids=WRITE_IDS)
@pytest.mark.parametrize("n", [1, 2347])
def test_score_kernels_leave_the_rows_unchanged(spec, model, theta, n):
    Y = model.sample(theta, n, 3)
    before = Y.tobytes()
    rows = [Y, Y[0]] if n == 1 else [Y, Y[:1], Y[5:6]]
    c, B, A = unpack_forms(comp._spec_forms(spec, model, theta), model.dim)
    for y in rows:
        comp.composite_score(spec, model, y, theta)
        resid = np.atleast_2d(y) - model._mean(theta)
        kept = resid.tobytes()
        affine_quadratic(c, B, A, resid)
        affine_quadratic(c, B, A, resid.T.copy().T)     # feature-major rows
        assert resid.tobytes() == kept
    assert Y.tobytes() == before


@pytest.mark.parametrize("spec, model, theta", list(write_cases()),
                         ids=WRITE_IDS)
@pytest.mark.parametrize("n", [1, 15, 2347])
def test_blocked_pass_leaves_the_draws_unchanged(spec, model, theta, n):
    # n = 15 cuts 10 batches of one and two rows; n = 1 leaves nine empty
    Y = model.sample(theta, n, 3)
    before = Y.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            comp._info_from_sample(spec, model, batches_of(Y, 10), theta)
        except ClikError:
            assert n < 20       # a batch of one row has no covariance
    assert Y.tobytes() == before


# -- the pass and composite_score share one kernel ---------------------------


@pytest.mark.parametrize("spec, model, theta", list(write_cases()),
                         ids=WRITE_IDS)
@pytest.mark.parametrize("per", [234, models._KERNEL_ROWS + 5000])
def test_pass_scores_are_composite_scores_of_each_batch(spec, model, theta,
                                                        per):
    # the pass and composite_score run the one score kernel on the same
    # rows, so each batch block is that batch's composite_score, bit for
    # bit, batches longer than the kernel's rows included
    Y = model.sample(theta, 10 * per + 7, 17)
    with mock.patch.object(comp, "sample_cov", wraps=comp.sample_cov) as cov:
        comp._info_from_sample(spec, model, batches_of(Y, 10), theta)
    blocks = [call.args[0] for call in cov.call_args_list]
    assert len(blocks) == 10
    for block, sl in zip(blocks, comp.batch_slices(len(Y), 10)):
        want = comp.composite_score(spec, model, Y[sl], theta)
        assert block.shape == want.shape
        assert block.tobytes() == want.tobytes()


# -- memory ------------------------------------------------------------------


def _traced_peak(spec, model, theta, draws, batches):
    """Peak traced bytes of one ``info_monte_carlo`` triple."""
    tracemalloc.start()
    try:
        comp.info_monte_carlo(spec, model, theta, draws, 5, batches)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blocked_pass_holds_no_whole_sample_temporary():
    model = EMVN(3)
    theta = model.params(rho=0.4, sigma2=1.3)
    spec = comp.full_conditional(3)
    peak = _traced_peak(spec, model, theta, 200_000, 20)
    # one whole-sample score array is 3.2 MB and the draws 4.8 MB; the
    # streamed pass, draws included, holds less than the scores alone
    scores = comp.composite_score(spec, model,
                                  model.sample(theta, 200_000, 5), theta)
    assert scores.shape == (200_000, 2)
    assert peak < scores.nbytes


@pytest.mark.parametrize("spec, model, theta", list(write_cases()),
                         ids=WRITE_IDS)
def test_streamed_pass_memory_does_not_grow_with_the_draws(spec, model,
                                                           theta):
    # twice the draws in twice the batches: the same 20,000-row batches,
    # where a whole-sample array of the draws alone would add 9.6 MB
    small = _traced_peak(spec, model, theta, 400_000, 20)
    large = _traced_peak(spec, model, theta, 800_000, 40)
    assert large < small + 0.5e6


def _scratch(model, Y, theta):
    """Peak bytes that ``model.full_score`` holds beyond its residual rows
    and its result."""
    tracemalloc.start()
    try:
        U = model.full_score(Y, theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - Y.nbytes - U.nbytes


def test_whole_sample_kernel_scratch_does_not_grow_with_the_sample():
    # the feature buffer of affine_quadratic covers _KERNEL_ROWS rows at a
    # time; a per-column (n, m) product would add 7.2 MB from n to 4n here
    model = EMVN(3)
    theta = model.params(rho=0.4, sigma2=1.3)
    small, large = (_scratch(model, model.sample(theta, n, 5), theta)
                    for n in (100_000, 400_000))
    assert large < small + 1e6


def test_kernel_rows_do_not_change_the_scores():
    # one row past the chunks must not be a chunk of its own, which numpy
    # multiplies as a vector and rounds differently
    model = TriNormal()
    theta = model.params(mu=0.7, rho=-0.3, sigma2=2.0)
    c, B, A = unpack_forms(comp._spec_forms(comp.pairwise(3), model, theta),
                           model.dim)
    for extra in (123, 1):
        resid = model.sample(theta, 2 * models._KERNEL_ROWS + extra, 9) \
            - model._mean(theta)
        chunked = affine_quadratic(c, B, A, resid)
        with mock.patch.object(models, "_KERNEL_ROWS", resid.shape[0]):
            whole = affine_quadratic(c, B, A, resid)
        assert chunked.tobytes() == whole.tobytes()


def test_feature_sums_give_the_batch_statistic():
    # the statistic the pass builds from the row sums of its feature rows,
    # about the model mean, is Model.statistic of the same rows
    for spec, model, theta in write_cases():
        Y = model.sample(theta, 5000, 11)
        mean = model._mean(theta)
        sums = sum(feats.sum(axis=-1)
                   for _, feats in models.residual_features(Y, mean))
        got = models.feature_statistic(len(Y), sums, mean)
        want = Model.statistic(Y)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_monte_carlo_pass_reads_each_batch_once(monkeypatch):
    # scores, J and the statistic behind H all come from the one feature
    # pass: neither the per-row kernel nor the statistic runs on a batch
    statistic = mock.Mock(wraps=Model.statistic)
    kernel = mock.Mock(wraps=affine_quadratic)
    monkeypatch.setattr(Model, "statistic", staticmethod(statistic))
    for module in (comp, models):
        monkeypatch.setattr(module, "affine_quadratic", kernel)
    for spec, model, theta in write_cases():
        comp.info_monte_carlo(spec, model, theta, 2000, 7)
        comp.projected_info_monte_carlo(
            spec, model, theta, 2000, 8,
            comp.info_exact(spec, model, theta))
    assert statistic.call_count == 0 and kernel.call_count == 0


def test_batches_longer_than_the_kernel_rows_match_the_oracle():
    # 20 batches of 40,000 rows: each batch takes three kernel chunks, all
    # in the one scratch buffer, which never holds more than _KERNEL_ROWS
    # rows of features
    model = EMVN(3)
    theta = model.params(rho=0.4, sigma2=1.3)
    spec = comp.full_conditional(3)
    Y = model.sample(theta, 800_000, 13)
    chunks = []
    real = models.residual_features

    def recorded(rows, mean, scratch):
        chunks.append(scratch)
        for cols, feats in real(rows, mean, scratch):
            assert np.shares_memory(feats, scratch)
            chunks.append(feats.shape)
            yield cols, feats
    with mock.patch.object(models, "residual_features", recorded):
        got, scores, means = blocked(spec, model, Y, theta, 20)
    want, U0, want_means = parent_info_from_sample(spec, model, Y, theta, 20)

    scratches = [c for c in chunks if isinstance(c, np.ndarray)]
    shapes = [c for c in chunks if isinstance(c, tuple)]
    assert all(c is scratches[0] for c in scratches) and len(scratches) == 20
    width = model.dim + model.dim * (model.dim + 1) // 2
    assert scratches[0].size == width * models._KERNEL_ROWS
    assert len(shapes) == 60
    assert all(s[0] == width and s[1] <= models._KERNEL_ROWS for s in shapes)

    tol = 1e-12 * np.max(np.abs(want.variability))
    assert np.max(np.abs(got.variability - want.variability)) <= tol
    assert np.max(np.abs(got.batches.variability
                         - want.batches.variability)) <= tol
    assert np.max(np.abs(means - want_means)) <= tol
    assert np.max(np.abs(scores - U0)) <= tol
    htol = 1e-10 * np.max(np.abs(want.sensitivity))
    for a, b in ((got.sensitivity, want.sensitivity),
                 (got.batches.sensitivity, want.batches.sensitivity),
                 (got.sensitivity_se, want.sensitivity_se)):
        assert np.max(np.abs(a - b)) <= htol

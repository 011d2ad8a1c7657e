"""The sampler's noise map: draws as noise plus an affine map, and scores
read from the noise.

Every family draws noise ``z`` and maps it to rows ``y = shift + z @
factor`` (``models.NoiseMap``): a Gaussian's standard normal noise by its
mean and ``cholesky_lower(cov).T``, the multinomial's outcome rows by the
identity.  ``Model.sample`` is that map applied, bit for bit.  A score
``c + B r + r' A r / 2`` in ``r = y - mean`` is, with ``r = (z - z0) F``,
the form ``(c, B F', F A F')`` in the noise about the noise point ``z0``
of the mean, so a kernel built from the mapped forms and filled on the
noise gives the scores of the rows to rounding.  The statistic ``[n,
zbar, W_z]`` of the noise maps to that of its rows, ``[n, shift + zbar
F, F' W_z F]`` (``NoiseMap.statistic``), each dataset with the same bits
in a stack of any length: the simulation engine maps it per block, and a
Monte Carlo pass maps the one that the kernel's feature sums give.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import clik.composite as comp
import clik.montecarlo as mc
from clik.matrixops import cholesky_lower
from clik.models import (EMVN, Model, Multinomial4, TriNormal,
                         affine_quadratic, feature_scratch,
                         feature_statistic, residual_features, score_kernel,
                         substream, substreams, unpack_forms)
from test_montecarlo import STATISTIC_RTOL
from test_sensitivity_identity import (SETTINGS, interior_points,
                                       weighted_specs)

GAUSSIANS = [EMVN(p) for p in range(2, 7)] + [TriNormal()]


@st.composite
def noise_cases(draw, models):
    """A model of ``models``, an interior point, a sample size of at least
    two rows (one Gaussian row is a vector product, which rounds
    differently) and a seed."""
    model = draw(st.sampled_from(models))
    return (model, draw(interior_points(model)), draw(st.integers(2, 3000)),
            draw(st.integers(0, 2 ** 32 - 1)))


def noise_and_rows(model, theta, n, seed):
    """``(noise_map, noise, rows)`` of one draw of ``n`` rows at ``theta``:
    the noise as the sampler draws it and the rows of ``model.sample``."""
    draw = model.sampler(theta)
    noise = draw.noise(n, [substream(seed)])[0]
    return draw.noise_map, noise, model.sample(theta, n, seed)


@SETTINGS
@given(case=noise_cases(GAUSSIANS))
def test_sample_is_the_shift_plus_the_noise_times_the_factor(case):
    model, theta, n, seed = case
    noise_map, noise, rows = noise_and_rows(model, theta, n, seed)
    assert noise_map.shift.tobytes() == model._mean(theta).tobytes()
    assert noise_map.factor.tobytes() == \
        cholesky_lower(model._cov(theta)).T.tobytes()
    want = noise_map.shift + noise @ noise_map.factor
    assert rows.tobytes() == want.tobytes()


@SETTINGS
@given(case=noise_cases(GAUSSIANS + [Multinomial4(5.0)]), data=st.data())
def test_mapped_forms_on_the_noise_score_the_rows(case, data):
    model, theta, n, seed = case
    spec = data.draw(weighted_specs(model.dim))
    noise_map, noise, rows = noise_and_rows(model, theta, n, seed)
    forms = unpack_forms(comp._spec_forms(spec, model, theta), model.dim)
    want = affine_quadratic(*forms, rows - model._mean(theta))
    got = np.empty(want.shape[::-1])
    score_kernel(*noise_map.forms(*forms))(
        noise, noise_map.point(model._mean(theta)), got,
        feature_scratch(model.dim))
    assert np.max(np.abs(got.T - want)) <= 1e-12 * np.max(np.abs(want))
    if isinstance(model, Multinomial4):        # the identity keeps its bits
        assert got.T.tobytes() == want.tobytes()


@SETTINGS
@given(case=noise_cases(GAUSSIANS + [Multinomial4(5.0)]))
def test_mapped_statistic_of_the_noise_feature_sums_is_that_of_the_rows(case):
    model, theta, n, seed = case
    noise_map, noise, rows = noise_and_rows(model, theta, n, seed)
    center = noise_map.point(model._mean(theta))
    sums = sum(feats.sum(axis=-1) for _, feats in
               residual_features(noise, center))
    got = noise_map.statistic(feature_statistic(n, sums, center))
    want = Model.statistic(rows)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@st.composite
def noise_stacks(draw, models):
    """A model of ``models`` at an interior point (a TriNormal mean of 0.1
    to 100 in size, so that the map's shift is not zero) and the noise of
    1 to 4 datasets of 1 to 300 rows."""
    model = draw(st.sampled_from(models))
    theta = draw(interior_points(model))
    if isinstance(model, TriNormal):
        theta = theta.with_values(mu=draw(st.sampled_from([-1.0, 1.0]))
                                  * draw(st.floats(0.1, 100.0)))
    draw_ = model.sampler(theta)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rngs = list(substreams(seed, range(draw(st.integers(1, 4)))))
    return draw_.noise_map, draw_.noise(draw(st.integers(1, 300)), rngs)


@SETTINGS
@given(case=noise_stacks([EMVN(p) for p in range(2, 10)] + [TriNormal()]))
def test_mapped_noise_statistic_is_the_statistic_of_the_rows(case):
    noise_map, noise = case
    got = noise_map.statistic(Model.statistic(noise))
    want = Model.statistic(noise_map.apply(noise))
    assert got.shape == want.shape
    dim = noise.shape[-1]
    for block in (slice(0, 1), slice(1, dim + 1), slice(dim + 1, None)):
        scale = np.abs(want[:, block]).max(axis=1, keepdims=True)
        assert np.all(np.abs(got[:, block] - want[:, block])
                      <= STATISTIC_RTOL * scale)


@SETTINGS
@given(case=noise_stacks([Multinomial4(k) for k in (0.5, 5.0, 20.0)]))
def test_identity_map_keeps_the_statistic_bit_for_bit(case):
    noise_map, noise = case
    got = noise_map.statistic(Model.statistic(noise))
    assert got.tobytes() == Model.statistic(noise_map.apply(noise)).tobytes()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(model=st.sampled_from([EMVN(3), EMVN(5), TriNormal()]),
       data=st.data(), n=st.integers(100, 400),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mapped_statistic_has_its_bits_in_blocks_of_every_length(model, data,
                                                                 n, seed):
    # every block length the engine can cut, one replicate included
    theta = data.draw(interior_points(model))
    config = mc.SimConfig(model, theta,
                          (mc.SpecRun(comp.pairwise(model.dim)),), n=n,
                          replicates=100, seed=seed)
    size = mc._block_size(config)
    draw = model.sampler(theta)
    stats = Model.statistic(draw.noise(n, list(substreams(seed,
                                                          range(size)))))
    whole = draw.noise_map.statistic(stats)
    for length in range(1, size + 1):
        start = data.draw(st.integers(0, size - length))
        block = draw.noise_map.statistic(stats[start:start + length])
        assert block.tobytes() == whole[start:start + length].tobytes()

"""Metamorphic relations that hold exactly for the benchmarked models.

Scaling every feature by a power of two is exact in binary floating point, and every
constant that sees the scale is relative to the data (the LDA ridge, the naive Bayes
smoothing, the SVM's default ``gamma``, the networks' standardization, tree midpoints), so
each model must predict the same labels.  A constant column has no cut and adds +0.0 to a
squared distance last, so trees and k-NN must ignore it.  An absolute epsilon slipped into
a model breaks these relations and the failing case names the model.
"""

import numpy as np
import pytest

from wallfollow import evaluation as ev
from wallfollow.dataset import shuffle_split, standardize
from wallfollow.rng import derive_seed
from wallfollow.serialize import encode_model
from wallfollow.stat_models import fit_gnb, fit_lda, lda_decision_scores

# Small enough to keep the matrix fast; the relations hold for any count.
_REDUCED = {"n_trees": 5, "n_stages": 5, "epochs": 2}


def _predictions(tag, ds, change):
    """Fit ``tag`` on a seed-1 split of ``ds`` with ``change`` applied to the train and test
    rows, and predict the test rows, as ``run_iteration`` does."""
    seed = derive_seed(1, 0)
    split = shuffle_split(ds, seed)
    train_x = change(ds.features[split.train_indices])
    test_x = change(ds.features[split.test_indices])
    if tag in ev.NEURAL_TAGS:
        train_x, test_x, _ = standardize(train_x, test_x)
    entry = ev.MODELS[tag]
    hp = {k: _REDUCED.get(k, v) for k, v in entry.defaults.items()}
    model = entry.fit(train_x, ds.labels[split.train_indices], hp, derive_seed(seed, 1))
    return entry.predict(model, test_x)


@pytest.fixture(params=[24, 4])
def ds(request, synth_full, synth_d4):
    return synth_full if request.param == 24 else synth_d4


@pytest.mark.parametrize("tag", ev.ALL_TAGS)
def test_power_of_two_scaling_leaves_every_prediction(tag, ds):
    expected = _predictions(tag, ds, lambda x: x)
    for scale in (2.0, 0.5, 1024.0):
        assert np.array_equal(_predictions(tag, ds, lambda x: scale * x), expected), scale


@pytest.mark.parametrize("tag", ["dt", "gbc", "knn"])
def test_a_constant_column_leaves_tree_and_knn_predictions(tag, ds):
    expected = _predictions(tag, ds, lambda x: x)
    appended = _predictions(tag, ds, lambda x: np.column_stack([x, np.full(len(x), 3.0)]))
    assert np.array_equal(appended, expected)


# The relations above hold on predictions, which a small enough absolute epsilon (an LDA
# ridge of 1e-8, a naive Bayes smoothing of 1e-9) or a tree node that cuts a constant column
# sending every row one way leaves unchanged.  The fitted values show them.

def _train_rows(ds):
    """The train rows and labels of the seed-1 split of ``ds``, and its test rows."""
    split = shuffle_split(ds, derive_seed(1, 0))
    return (ds.features[split.train_indices], ds.labels[split.train_indices],
            ds.features[split.test_indices])


@pytest.mark.parametrize("scale", [2.0, 0.5, 1024.0])
def test_power_of_two_scaling_scales_the_lda_coefficients_exactly(ds, scale):
    x, y, test_x = _train_rows(ds)
    plain, scaled = fit_lda(x, y), fit_lda(scale * x, y)
    assert np.array_equal(scaled.coef * scale, plain.coef)
    assert np.array_equal(scaled.intercept, plain.intercept)
    assert np.array_equal(lda_decision_scores(scaled, scale * test_x),
                          lda_decision_scores(plain, test_x))


@pytest.mark.parametrize("scale", [2.0, 0.5, 1024.0])
def test_power_of_two_scaling_scales_the_naive_bayes_moments_exactly(ds, scale):
    x, y, _ = _train_rows(ds)
    plain, scaled = fit_gnb(x, y), fit_gnb(scale * x, y)
    assert np.array_equal(scaled.priors, plain.priors)
    assert np.array_equal(scaled.means, scale * plain.means)
    assert np.array_equal(scaled.variances, scale * scale * plain.variances)


@pytest.mark.parametrize("tag", ["dt", "gbc"])
def test_a_constant_column_leaves_the_fitted_trees(tag, ds):
    x, y, _ = _train_rows(ds)
    entry = ev.MODELS[tag]
    hp = {**entry.defaults, "n_stages": 4} if tag == "gbc" else entry.defaults
    appended = np.column_stack([x, np.full(len(x), 3.0)])
    assert (encode_model(entry.fit(appended, y, hp, 0))["payload"]
            == encode_model(entry.fit(x, y, hp, 0))["payload"])

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

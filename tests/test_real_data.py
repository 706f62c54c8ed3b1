"""Checks that only make sense against the published dataset files.

Skipped when the files are absent; see README for how to fetch them.
"""

import numpy as np
import pytest

from conftest import DT_PARAMS, real_data_dir
from wallfollow import tree_models as tm
from wallfollow.dataset import Width, load_dataset, shuffle_split
from wallfollow.evaluation import CVConfig, accuracy
from wallfollow.rng import derive_seed

DATA_DIR = real_data_dir()
needs_data = pytest.mark.skipif(
    DATA_DIR is None,
    reason="published dataset files not present (set WALLFOLLOW_DATA or ./data)",
)


@needs_data
@pytest.mark.parametrize("name,width", [
    ("sensor_readings_24.data", Width.FULL24),
    ("sensor_readings_4.data", Width.SIMPLIFIED4),
    ("sensor_readings_2.data", Width.SIMPLIFIED2),
])
def test_published_files_have_5456_rows(name, width):
    ds = load_dataset(DATA_DIR / name, width)
    assert ds.n == 5456


@needs_data
def test_every_split_is_4910_546():
    ds = load_dataset(DATA_DIR / "sensor_readings_24.data", Width.FULL24)
    for i in range(50):
        pair = shuffle_split(ds, derive_seed(1, i))
        assert pair.train_indices.size == 4910
        assert pair.test_indices.size == 546


@needs_data
def test_dt_restricted_to_front_left_is_still_perfect():
    # the 4-sensor solution needs only the front and left features, columns 0 and 1
    ds = load_dataset(DATA_DIR / "sensor_readings_4.data", Width.SIMPLIFIED4)
    front_left = ds.features[:, :2]
    means = []
    for i in range(50):
        pair = shuffle_split(ds, derive_seed(1, i))
        root = tm.fit_decision_tree(
            front_left[pair.train_indices], ds.labels[pair.train_indices], DT_PARAMS)
        predicted = tm.predict_tree(root, front_left[pair.test_indices])
        means.append(accuracy(predicted, ds.labels[pair.test_indices]))
    assert np.mean(means) == 1.0

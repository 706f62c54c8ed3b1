import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SYNTH_ARCS, TOKENS, synth_full_dataset, write_dataset_file
from wallfollow import dataset as dsm
from wallfollow.dataset import (
    ArcCalibrationError,
    ArcMap,
    DataFormatError,
    Dataset,
    Width,
    calibrate_arc_map,
    check_training_set,
    derive_simplified2,
    derive_simplified4,
    load_dataset,
    shuffle_split,
    standardize,
    train_size_for,
)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def test_load_round_trip(tmp_path, synth_full):
    path = tmp_path / "full.data"
    write_dataset_file(synth_full, path)
    loaded = load_dataset(path, Width.FULL24)
    assert loaded.n == synth_full.n
    assert np.array_equal(loaded.features, synth_full.features)
    assert np.array_equal(loaded.labels, synth_full.labels)


def test_load_preserves_row_order(tmp_path):
    lines = [f"{i}.0,{i}.5,{TOKENS[i % 4]}" for i in range(10)]
    path = tmp_path / "ordered.data"
    path.write_text("\n".join(lines) + "\n")
    ds = load_dataset(path, Width.SIMPLIFIED2)
    assert np.array_equal(ds.features[:, 0], np.arange(10, dtype=float))
    assert np.array_equal(ds.labels, np.arange(10) % 4)


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.data"
    path.write_text("")
    with pytest.raises(DataFormatError, match="empty dataset"):
        load_dataset(path, Width.FULL24)


def test_load_wrong_field_count_names_line(tmp_path):
    path = tmp_path / "bad.data"
    good = ",".join(["1.0"] * 24) + ",Move-Forward"
    bad = ",".join(["1.0"] * 23) + ",Move-Forward"
    path.write_text(good + "\n" + bad + "\n")
    with pytest.raises(DataFormatError, match=r"bad\.data:2"):
        load_dataset(path, Width.FULL24)


def test_load_unparsable_number(tmp_path):
    path = tmp_path / "nan.data"
    path.write_text("1.0,abc,Move-Forward\n")
    with pytest.raises(DataFormatError, match=r"nan\.data:1"):
        load_dataset(path, Width.SIMPLIFIED2)


def test_load_unknown_label_token(tmp_path):
    path = tmp_path / "tok.data"
    path.write_text("1.0,2.0,Reverse\n")
    with pytest.raises(DataFormatError, match="unknown label token 'Reverse'"):
        load_dataset(path, Width.SIMPLIFIED2)


def test_dataset_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(np.array([[np.inf, 1.0]]), np.array([0]), Width.SIMPLIFIED2)


@pytest.mark.parametrize("features, labels, match", [
    pytest.param(np.ones(3), np.zeros(3, dtype=np.int64), "2-D matrix", id="features-1d"),
    pytest.param(np.ones((3, 2)), np.zeros((3, 1), dtype=np.int64), "vector", id="labels-2d"),
    pytest.param(np.ones((3, 2)), np.array([0, 1, 4]), r"0\.\.3", id="label-above"),
    pytest.param(np.ones((3, 2)), np.zeros(4, dtype=np.int64),
                 "labels has 4 rows but features has 3", id="row-mismatch"),
])
def test_check_training_set_names_the_fault(features, labels, match):
    with pytest.raises(ValueError, match=match):
        check_training_set(features, labels)
    with pytest.raises(ValueError, match=match):
        Dataset(features, labels, Width.SIMPLIFIED2)


def test_dataset_width_mismatch():
    with pytest.raises(ValueError, match="expects 4 columns"):
        Dataset(np.ones((3, 2)), np.zeros(3, dtype=np.int64), Width.SIMPLIFIED4)


# ---------------------------------------------------------------------------
# arc calibration and derivation
# ---------------------------------------------------------------------------

def test_calibrate_recovers_planted_arcs(synth_full, synth_d4):
    assert calibrate_arc_map(synth_full, synth_d4) == SYNTH_ARCS


def test_calibrate_constant_dataset_is_ambiguous():
    features = np.full((30, 24), 1.7)
    labels = np.zeros(30, dtype=np.int64)
    full = Dataset(features, labels, Width.FULL24)
    d4 = Dataset(np.full((30, 4), 1.7), labels, Width.SIMPLIFIED4)
    with pytest.raises(ArcCalibrationError, match="ambiguous"):
        calibrate_arc_map(full, d4)


def test_calibrate_mismatched_labels(synth_full, synth_d4):
    rolled = Dataset(synth_d4.features, np.roll(synth_d4.labels, 1), Width.SIMPLIFIED4)
    with pytest.raises(ValueError, match="label sequences differ"):
        calibrate_arc_map(synth_full, rolled)


def test_calibrate_unreproducible_column(synth_full, synth_d4):
    shifted = Dataset(synth_d4.features + 0.5, synth_d4.labels, Width.SIMPLIFIED4)
    with pytest.raises(ArcCalibrationError, match="front"):
        calibrate_arc_map(synth_full, shifted)


def test_arcmap_rejects_non_contiguous():
    with pytest.raises(ValueError, match="consecutive"):
        ArcMap(front=(0, 2, 4), left=(4, 5), right=(8, 9), back=(12, 13))


def test_arcmap_rejects_wide_window():
    with pytest.raises(ValueError, match="consecutive"):
        ArcMap(front=(0, 1, 2, 3, 4, 5), left=(6, 7), right=(8, 9), back=(12, 13))


def test_derive4_constant_row():
    features = np.full((1, 24), 1.7)
    ds = Dataset(features, np.array([0]), Width.FULL24)
    out = derive_simplified4(ds, SYNTH_ARCS)
    assert np.array_equal(out.features, np.full((1, 4), 1.7))


def test_derive4_takes_arc_minimum():
    features = np.full((1, 24), 9.0)
    features[0, list(SYNTH_ARCS.left)] = [0.5, 1.2, 0.8, 2.0, 3.0]
    ds = Dataset(features, np.array([1]), Width.FULL24)
    out = derive_simplified4(ds, SYNTH_ARCS)
    assert out.features[0, 1] == 0.5  # column order (front, left, right, back)


def test_derive2_column_order(synth_d4):
    d2 = derive_simplified2(synth_d4)
    assert d2.width is Width.SIMPLIFIED2
    assert np.array_equal(d2.features[:, 0], synth_d4.features[:, 0])  # front
    assert np.array_equal(d2.features[:, 1], synth_d4.features[:, 1])  # left
    assert d2.n == synth_d4.n


def test_round_trip_matches_published_files(published_like_dir):
    full = load_dataset(published_like_dir / "sensor_readings_24.data", Width.FULL24)
    pub4 = load_dataset(published_like_dir / "sensor_readings_4.data", Width.SIMPLIFIED4)
    pub2 = load_dataset(published_like_dir / "sensor_readings_2.data", Width.SIMPLIFIED2)
    arcs = calibrate_arc_map(full, pub4)
    derived4 = derive_simplified4(full, arcs)
    assert (derived4.features == pub4.features).all()
    derived2 = derive_simplified2(derived4)
    assert (derived2.features == pub2.features).all()


# ---------------------------------------------------------------------------
# shuffle/split
# ---------------------------------------------------------------------------

def test_split_sizes_at_published_count():
    assert train_size_for(5456) == 4910
    features = np.arange(5456 * 2, dtype=float).reshape(5456, 2)
    ds = Dataset(features, np.zeros(5456, dtype=np.int64), Width.SIMPLIFIED2)
    pair = shuffle_split(ds, 42)
    assert pair.train_indices.size == 4910
    assert pair.test_indices.size == 546


def test_split_deterministic(synth_d2):
    a = shuffle_split(synth_d2, 99)
    b = shuffle_split(synth_d2, 99)
    assert np.array_equal(a.train_indices, b.train_indices)
    assert np.array_equal(a.test_indices, b.test_indices)


def test_split_too_small():
    ds = Dataset(np.ones((10, 2)), np.zeros(10, dtype=np.int64), Width.SIMPLIFIED2)
    with pytest.raises(ValueError, match="too small for 10:1"):
        shuffle_split(ds, 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=11, max_value=300), st.integers(min_value=0, max_value=2**64 - 1))
def test_split_is_bijection(n, seed):
    features = np.zeros((n, 2))
    ds = Dataset(features, np.zeros(n, dtype=np.int64), Width.SIMPLIFIED2)
    pair = shuffle_split(ds, seed)
    merged = np.concatenate([pair.train_indices, pair.test_indices])
    assert np.array_equal(np.sort(merged), np.arange(n))
    assert pair.train_indices.size == train_size_for(n)


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

def test_standardize_train_moments(synth_full):
    out, _, _ = standardize(synth_full.features)
    assert np.abs(out.mean(axis=0)).max() < 1e-9
    assert np.abs(out.std(axis=0, ddof=1) - 1.0).max() < 1e-9


def test_standardize_constant_column():
    train = np.column_stack([np.full(5, 3.3), np.arange(5, dtype=float)])
    out, _, stats = standardize(train)
    assert (out[:, 0] == 0.0).all()
    assert stats.std[0] == dsm.STD_FLOOR


def test_standardize_hand_example():
    # train column (1, 2, 4): mean 7/3, sample variance 7/3
    mean = Fraction(7, 3)
    var = Fraction(7, 3)
    train = np.array([[1.0], [2.0], [4.0]])
    test = np.array([[3.0]])
    _, test_out, stats = standardize(train, test)
    expected = (3.0 - float(mean)) / math.sqrt(float(var))
    assert abs(test_out[0, 0] - expected) < 1e-12
    assert abs(stats.mean[0] - float(mean)) < 1e-15


def test_standardize_no_leakage(synth_full):
    train = synth_full.features[:200]
    other_a = synth_full.features[200:300]
    other_b = synth_full.features[300:400]
    train_a, _, stats_a = standardize(train, other_a)
    train_b, _, stats_b = standardize(train, other_b)
    assert np.array_equal(train_a, train_b)
    assert np.array_equal(stats_a.mean, stats_b.mean)
    assert np.array_equal(stats_a.std, stats_b.std)


def test_standardize_column_mismatch():
    with pytest.raises(ValueError, match="column count"):
        standardize(np.ones((4, 3)), np.ones((4, 2)))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10**6))
def test_standardize_finite_output(rows, seed):
    from wallfollow.rng import XoshiroLanes

    data = XoshiroLanes(seed).uniform(-50, 50, (rows, 3))
    data[:, 2] = 1.25  # constant column goes through the floor
    out, _, _ = standardize(data)
    assert np.isfinite(out).all()

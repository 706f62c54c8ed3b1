import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SYNTH_ARCS, TOKENS, synth_full_dataset, write_dataset_file
from wallfollow import dataset as dsm
from wallfollow.dataset import (
    DEFAULT_LABEL_TOKENS,
    ArcCalibrationError,
    ArcMap,
    DataFormatError,
    Dataset,
    Width,
    calibrate_arc_map,
    check_paired,
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
    assert ds.width is Width.SIMPLIFIED2
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


# The loader before it parsed each file in one numpy pass, kept verbatim as the
# oracle: every file it reads must load to the same bits, and every file it
# refuses must raise the same message.
def _reference_load_dataset(path, width: Width) -> Dataset:
    """Parse one comma-separated sensor file into a Dataset.

    Each line must hold ``width`` numeric fields followed by one label token.
    Row order is preserved.  Malformed lines are reported with their 1-based
    line number.
    """
    d = int(width)
    path = Path(path)
    rows: list[list[float]] = []
    labels: list[int] = []
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != d + 1:
                raise DataFormatError(
                    f"{path.name}:{lineno}: expected {d} numeric fields plus a label, "
                    f"got {len(fields)} fields"
                )
            try:
                values = [float(f) for f in fields[:d]]
            except ValueError as exc:
                raise DataFormatError(f"{path.name}:{lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in values):
                raise DataFormatError(f"{path.name}:{lineno}: non-finite sensor value")
            token = fields[d]
            if token not in DEFAULT_LABEL_TOKENS:
                raise DataFormatError(f"{path.name}:{lineno}: unknown label token {token!r}")
            rows.append(values)
            labels.append(DEFAULT_LABEL_TOKENS[token])
    if not rows:
        raise DataFormatError(f"{path.name}: empty dataset")
    return Dataset(
        features=np.array(rows, dtype=np.float64),
        labels=np.array(labels, dtype=np.int64),
    )


# Numerals the old loader read with float() and np.loadtxt refuses.
_UNREAD_NUMERALS = ("1_0", "1e1_0", "\u0661\u0662", "\uff11")

_NUMERAL_STYLES = (
    lambda v: "%.3f" % v,
    repr,
    lambda v: "%e" % v,
    lambda v: "%.17E" % v,
    lambda v: "%+.4f" % v,
    lambda v: "%+g" % v,
)

_PADDING = ("", " ", "  ", "\t", "\xa0")

_BLANK_LINES = ("", " ", "\t \t", "\x0c")

_FAULTS = ("hash", "nan", "inf", "empty-field", "trailing-comma", "too-few", "too-many",
           "unknown-token")


def _apply_fault(draw, fault: str, fields: list[str]) -> list[str]:
    """``fields`` (numerals, then a token) with one record fault written in."""
    # earlier faults on the record may have left fewer than d numerals, or none
    k = draw(st.integers(0, max(len(fields) - 2, 0)))
    if fault == "hash":
        line = ",".join(fields)
        at = draw(st.integers(0, len(line)))
        return (line[:at] + "#" + line[at:]).split(",")
    if fault in ("nan", "inf"):
        fields[k] = draw(st.sampled_from(("nan", "-nan", "NaN")) if fault == "nan"
                         else st.sampled_from(("inf", "-inf", "Infinity", "1e999")))
    elif fault == "empty-field":
        fields[k] = draw(st.sampled_from(_PADDING))
    elif fault == "trailing-comma":
        fields.append("")
    elif fault == "too-few":
        del fields[k]
    elif fault == "too-many":
        fields.insert(k, "1.0")
    else:
        fields[-1] = draw(st.sampled_from(("Reverse", "move-forward", "Move Forward", "0")))
    return fields


@st.composite
def _sensor_files(draw):
    """(width, file text): numerals in several styles, blank lines, mixed line endings
    and, in most files, record faults, up to three and possibly on one line."""
    d = draw(st.sampled_from((2, 4, 24)))
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False) | st.sampled_from(
        (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308))
    records = []
    for _ in range(draw(st.integers(1, 5))):
        fields = []
        for v in draw(st.lists(values, min_size=d, max_size=d)):
            pad = draw(st.sampled_from(_PADDING))
            fields.append(pad + draw(st.sampled_from(_NUMERAL_STYLES))(v) + pad)
        fields.append(draw(st.sampled_from(_PADDING)) + draw(st.sampled_from(TOKENS)))
        records.append(fields)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(records) - 1))
        records[i] = _apply_fault(draw, draw(st.sampled_from(_FAULTS)), records[i])
    lines = [",".join(fields) for fields in records]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BLANK_LINES)))
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(("\n", "\r\n", "\r")))
    if draw(st.booleans()):
        text = text[:-2] if text.endswith("\r\n") else text[:-1]
    return d, text


def _outcome(load, path, width):
    """The loaded Dataset, or the text of the DataFormatError that ``load`` raised."""
    try:
        return load(path, width)
    except DataFormatError as exc:
        return str(exc)


@given(case=_sensor_files())
@settings(max_examples=400, deadline=None)
def test_load_matches_reference_loader(tmp_path_factory, case):
    d, text = case
    path = tmp_path_factory.getbasetemp() / "oracle.data"
    path.write_bytes(text.encode("utf-8"))
    want = _outcome(_reference_load_dataset, path, Width(d))
    got = _outcome(load_dataset, path, Width(d))
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, Dataset), got
    assert got.features.dtype == np.float64 and got.features.shape == want.features.shape
    assert np.array_equal(got.features.view(np.uint64), want.features.view(np.uint64))
    assert got.labels.dtype == np.int64
    assert np.array_equal(got.labels, want.labels)


@pytest.mark.parametrize("numeral", _UNREAD_NUMERALS)
def test_load_refuses_numerals_float_reads(tmp_path, numeral):
    path = tmp_path / "digits.data"
    path.write_text(f"1.0,2.0,Move-Forward\n\n2.0,{numeral},Move-Forward\n", encoding="utf-8")
    assert _reference_load_dataset(path, Width.SIMPLIFIED2).n == 2
    with pytest.raises(DataFormatError, match=(
            rf"^digits\.data:3: could not convert string to float: '{numeral}' "
            r"\(digit-group underscores and non-ASCII digits are not read\)$")):
        load_dataset(path, Width.SIMPLIFIED2)


def test_load_hash_is_not_a_comment(tmp_path):
    path = tmp_path / "hash.data"
    path.write_text("1.0,2.0#3,Move-Forward\n", encoding="utf-8")
    with pytest.raises(DataFormatError,
                       match=r"^hash\.data:1: could not convert string to float: '2\.0#3'$"):
        load_dataset(path, Width.SIMPLIFIED2)


def test_load_names_the_first_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "bom.data"
    path.write_bytes(b"1.0,2.0,Move-Forward\n\xff\xfe3.0,4.0,Move-Forward\n")
    with pytest.raises(DataFormatError,
                       match=r"^bom\.data: byte 21 is not UTF-8: invalid start byte$"):
        load_dataset(path, Width.SIMPLIFIED2)


def test_dataset_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(np.array([[np.inf, 1.0]]), np.array([0]))


@pytest.mark.parametrize("features, labels, match", [
    pytest.param(np.ones(3), np.zeros(3, dtype=np.int64),
                 r"^features must hold finite real numbers in shape \(any, any\), "
                 r"got float64 in shape \(3,\)$", id="features-1d"),
    pytest.param(np.ones((3, 2)), np.zeros((3, 1), dtype=np.int64), "vector", id="labels-2d"),
    pytest.param(np.ones((3, 2)), np.array([0, 1, 4]), r"0\.\.3", id="label-above"),
    pytest.param(np.ones((3, 2)), np.zeros(4, dtype=np.int64),
                 "labels has 4 rows but features has 3", id="row-mismatch"),
    pytest.param(np.ones((3, 2)), np.array([0.0, 1.5, 2.0]),
                 "^labels must be integers, got dtype float64$", id="labels-float"),
])
def test_check_training_set_names_the_fault(features, labels, match):
    with pytest.raises(ValueError, match=match):
        check_training_set(features, labels)
    with pytest.raises(ValueError, match=match):
        Dataset(features, labels)


def test_dataset_width_is_read_from_the_columns():
    assert [f.name for f in dataclasses.fields(Dataset)] == ["features", "labels"]
    for width in Width:
        assert Dataset(np.zeros((4, int(width))), np.arange(4)).width is width
    assert derive_simplified2(Dataset(np.zeros((4, 4)), np.arange(4))).width is Width.SIMPLIFIED2


def test_dataset_rejects_width_that_is_not_a_width():
    with pytest.raises(ValueError, match="^a dataset has 24, 4 or 2 feature columns, got 3$"):
        Dataset(np.zeros((4, 3)), np.arange(4))


# ---------------------------------------------------------------------------
# arc calibration and derivation
# ---------------------------------------------------------------------------

def test_calibrate_recovers_planted_arcs(synth_full, synth_d4):
    assert calibrate_arc_map(synth_full, synth_d4) == SYNTH_ARCS


def test_calibrate_constant_dataset_is_ambiguous():
    features = np.full((30, 24), 1.7)
    labels = np.zeros(30, dtype=np.int64)
    full = Dataset(features, labels)
    d4 = Dataset(np.full((30, 4), 1.7), labels)
    with pytest.raises(ArcCalibrationError, match="ambiguous"):
        calibrate_arc_map(full, d4)


@pytest.mark.parametrize("check, reduced", [(calibrate_arc_map, "synth_d4"),
                                             (check_paired, "synth_d2")], ids=["4", "2"])
def test_calibrate_mismatched_labels(synth_full, request, check, reduced):
    reduced = request.getfixturevalue(reduced)
    rolled = Dataset(reduced.features, np.roll(reduced.labels, 1))
    with pytest.raises(ArcCalibrationError, match="label sequences differ between the full and "
                                                  f"{reduced.width.value}-sensor files"):
        check(synth_full, rolled)


def test_calibrate_unreproducible_column(synth_full, synth_d4):
    shifted = Dataset(synth_d4.features + 0.5, synth_d4.labels)
    with pytest.raises(ArcCalibrationError, match="front"):
        calibrate_arc_map(synth_full, shifted)


def test_arcmap_rejects_non_contiguous():
    with pytest.raises(ValueError, match="consecutive"):
        ArcMap(front=(0, 2, 4), left=(4, 5), right=(8, 9), back=(12, 13))


def test_arcmap_rejects_three_sensor_window():
    with pytest.raises(ValueError, match="consecutive"):
        dataclasses.replace(SYNTH_ARCS, right=(16, 17, 18))


def test_arcmap_rejects_reordered_window():
    with pytest.raises(ValueError, match="consecutive"):
        dataclasses.replace(SYNTH_ARCS, front=(2, 1, 0, 23, 22))


def test_arcmap_rejects_wide_window():
    with pytest.raises(ValueError, match="consecutive"):
        ArcMap(front=(0, 1, 2, 3, 4, 5), left=(6, 7), right=(8, 9), back=(12, 13))


def test_derive4_constant_row():
    features = np.full((1, 24), 1.7)
    ds = Dataset(features, np.array([0]))
    out = derive_simplified4(ds, SYNTH_ARCS)
    assert np.array_equal(out.features, np.full((1, 4), 1.7))


def test_derive4_takes_arc_minimum():
    features = np.full((1, 24), 9.0)
    features[0, list(SYNTH_ARCS.left)] = [0.5, 1.2, 0.8, 2.0, 3.0]
    ds = Dataset(features, np.array([1]))
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
    ds = Dataset(features, np.zeros(5456, dtype=np.int64))
    pair = shuffle_split(ds, 42)
    assert pair.train_indices.size == 4910
    assert pair.test_indices.size == 546


def test_split_deterministic(synth_d2):
    a = shuffle_split(synth_d2, 99)
    b = shuffle_split(synth_d2, 99)
    assert np.array_equal(a.train_indices, b.train_indices)
    assert np.array_equal(a.test_indices, b.test_indices)


def test_split_too_small():
    ds = Dataset(np.ones((10, 2)), np.zeros(10, dtype=np.int64))
    with pytest.raises(ValueError, match="too small for 10:1"):
        shuffle_split(ds, 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=11, max_value=300), st.integers(min_value=0, max_value=2**64 - 1))
def test_split_is_bijection(n, seed):
    features = np.zeros((n, 2))
    ds = Dataset(features, np.zeros(n, dtype=np.int64))
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

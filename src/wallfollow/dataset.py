"""Loading, re-derivation and splitting of the wall-following sensor dataset.

The published data comes in three widths: the full 24-sensor readings, a
4-feature reduction (minimum reading within a 60-degree arc facing front,
left, right and back) and a 2-feature reduction (front and left only).
Rather than hard-coding which sensors form each arc, ``calibrate_arc_map``
recovers the mapping by exact-match search against the published 4-sensor
file; ``derive_simplified4`` / ``derive_simplified2`` then rebuild the
reduced widths from the full one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import Xoshiro256StarStar

N_CLASSES = 4
N_SENSORS = 24

# Variance floor used when standardizing features.
STD_FLOOR = 1e-8


# Tokens as they appear in the published files, mapped to class indices.
# Ingest refuses anything outside this table.
DEFAULT_LABEL_TOKENS = {
    "Move-Forward": 0,
    "Slight-Right-Turn": 1,
    "Sharp-Right-Turn": 2,
    "Slight-Left-Turn": 3,
}

CLASS_NAMES = ("MoveForward", "SlightRightTurn", "SharpRightTurn", "SlightLeftTurn")


def one_hot(labels: np.ndarray) -> np.ndarray:
    """(n, N_CLASSES) float64 indicator matrix of class indices ``labels``."""
    return (labels[:, None] == np.arange(N_CLASSES)[None, :]).astype(np.float64)


def check_count(name: str, value, minimum: int) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is an integer >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


def check_finite(name: str, value, shape: tuple) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` holds finite real numbers (not
    bools) in ``shape``: ``()`` for a scalar, ``None`` for an axis of any length.  Every number
    a model stores passes here, as JSON also admits ``NaN``, ``null``, strings and any list."""
    if shape == ():
        if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) or (
                isinstance(value, (float, np.floating)) and math.isfinite(value))):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
        return
    array = np.asarray(value)
    fits = (array.dtype.kind in "iuf" and array.ndim == len(shape)
            and all(n in (None, m) for n, m in zip(shape, array.shape)))
    if not (fits and np.isfinite(array).all()):
        raise ValueError(f"{name} must hold finite real numbers in shape "
                         f"{str(shape).replace('None', 'any')}, got "
                         f"{'non-finite values' if fits else array.dtype} in shape {array.shape}")


def check_positive(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a finite real number > 0."""
    check_finite(name, value, ())
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_training_set(features: np.ndarray, labels: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``features`` is a matrix of finite real numbers with at
    least one row and one column and ``labels`` holds one class in ``0..N_CLASSES-1`` per
    row.  ``Dataset`` and every model's fit apply this one training-set contract.
    """
    check_finite("features", features, (None, None))
    if features.shape[0] == 0:
        raise ValueError("empty training set")
    if features.shape[1] == 0:
        raise ValueError("features has no columns")
    if labels.ndim != 1:
        raise ValueError(f"labels must be a vector, got shape {labels.shape}")
    if labels.dtype.kind not in ("i", "u"):
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.shape[0] != features.shape[0]:
        raise ValueError(f"labels has {labels.shape[0]} rows but features has {features.shape[0]}")
    if labels.min() < 0 or labels.max() >= N_CLASSES:
        raise ValueError(f"labels must lie in 0..{N_CLASSES - 1}")


def check_paired(full: Dataset, reduced: Dataset) -> None:
    """Raise ``ArcCalibrationError`` unless ``reduced`` has the row count and labels of ``full``."""
    if full.n != reduced.n:
        raise ArcCalibrationError(f"row counts differ: {full.n} vs {reduced.n}")
    if not np.array_equal(full.labels, reduced.labels):
        raise ArcCalibrationError(
            f"label sequences differ between the full and {int(reduced.width)}-sensor files")


class Width(enum.IntEnum):
    """Dataset width tag; the value is the feature count."""

    FULL24 = 24
    SIMPLIFIED4 = 4
    SIMPLIFIED2 = 2


class DataFormatError(ValueError):
    """A dataset file violates the expected record format."""


class ArcCalibrationError(ValueError):
    """Reduced and full data do not pair up, or no unique arc map reproduces the 4-sensor data."""


ARC_DIRECTIONS = ("front", "left", "right", "back")

# The windows an arc may cover: every circular run of 4, then of 5,
# consecutive sensors in ascending order (60 degrees at 15-degree spacing).
ARC_WINDOWS = tuple(tuple((start + k) % N_SENSORS for k in range(length))
                    for length in (4, 5) for start in range(N_SENSORS))


@dataclass(frozen=True)
class ArcMap:
    """Sensor indices whose minimum forms each simplified feature."""

    front: tuple[int, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    back: tuple[int, ...]

    def __post_init__(self):
        for name in ARC_DIRECTIONS:
            window = getattr(self, name)
            if window not in ARC_WINDOWS:
                raise ValueError(
                    f"arc '{name}' must be 4 or 5 consecutive sensors in ascending "
                    f"circular order, got {window}"
                )

    def windows(self) -> tuple[tuple[int, ...], ...]:
        return (self.front, self.left, self.right, self.back)


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix plus direction labels; the column count is the width."""

    features: np.ndarray  # (n, d) float64, d one of 24, 4, 2
    labels: np.ndarray  # (n,) int64, values in 0..3

    def __post_init__(self):
        check_training_set(self.features, self.labels)
        if self.features.shape[1] not in tuple(Width):
            raise ValueError(
                f"a dataset has 24, 4 or 2 feature columns, got {self.features.shape[1]}"
            )
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def width(self) -> Width:
        return Width(self.features.shape[1])

    @property
    def n(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class SplitPair:
    """One Monte-Carlo iteration's disjoint train/test index sets."""

    train_indices: np.ndarray
    test_indices: np.ndarray


@dataclass(frozen=True)
class StandardizationStats:
    """Training-fold feature means and (floored) standard deviations."""

    mean: np.ndarray
    std: np.ndarray  # already floored at STD_FLOOR


def load_dataset(path, width: Width) -> Dataset:
    """Parse one comma-separated sensor file into a Dataset.

    Each line must hold ``width`` numeric fields followed by one label token.
    Blank lines are skipped and row order is preserved.  The file is parsed
    in one pass: one ``np.loadtxt`` call reads the numerals, giving the
    values ``float()`` gives, and the field counts, finiteness and tokens are
    checked for all lines at once.  When a check fails, ``_first_fault``
    names the first malformed line by its 1-based number.  A file that is
    not UTF-8 is named with the offset of its first undecodable byte.
    """
    d = int(width)
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path.name}: byte {exc.start} is not UTF-8: {exc.reason}") from None
    lines = [line for line in map(str.strip, text.split("\n")) if line]
    if not lines:
        raise DataFormatError(f"{path.name}: empty dataset")
    try:
        # "#" is a numeral error, not a comment
        features = np.loadtxt(lines, delimiter=",", usecols=range(d), comments=None, ndmin=2,
                              dtype=np.float64)
    except ValueError:
        raise _first_fault(path.name, text, d) from None
    labels = np.array([DEFAULT_LABEL_TOKENS.get(line.rpartition(",")[2].strip(), -1)
                       for line in lines], dtype=np.int64)
    commas = np.array([line.count(",") for line in lines])
    if (commas != d).any() or not np.isfinite(features).all() or labels.min() < 0:
        raise _first_fault(path.name, text, d)
    return Dataset(features=features, labels=labels)


def _first_fault(name: str, text: str, d: int) -> DataFormatError:
    """The error naming the first line of ``text`` that breaks a record rule.

    Within a line the rules are checked in this order: field count, numerals,
    finiteness, label token.  ``np.loadtxt`` refuses two kinds of numeral
    that ``float()`` reads, digit-group underscores and non-ASCII digits, so
    those are faults too.
    """
    for lineno, line in enumerate(map(str.strip, text.split("\n")), start=1):
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != d + 1:
            return DataFormatError(
                f"{name}:{lineno}: expected {d} numeric fields plus a label, "
                f"got {len(fields)} fields"
            )
        values = []
        for field in fields[:d]:
            try:
                values.append(float(field))
            except ValueError as exc:
                return DataFormatError(f"{name}:{lineno}: {exc}")
            if not field.isascii() or "_" in field:
                return DataFormatError(
                    f"{name}:{lineno}: could not convert string to float: {field!r} "
                    f"(digit-group underscores and non-ASCII digits are not read)"
                )
        if not all(math.isfinite(v) for v in values):
            return DataFormatError(f"{name}:{lineno}: non-finite sensor value")
        token = fields[d]
        if token not in DEFAULT_LABEL_TOKENS:
            return DataFormatError(f"{name}:{lineno}: unknown label token {token!r}")
    # reached only if np.loadtxt refused a numeral that the rules above accept
    return DataFormatError(f"{name}: unreadable sensor values")


def calibrate_arc_map(full: Dataset, published4: Dataset) -> ArcMap:
    """Recover which sensor windows produce the published 4-sensor file.

    For every direction the search covers ``ARC_WINDOWS``, the circular runs
    of 4 or 5 sensors.  A window matches when its per-row minimum equals the
    published column exactly; each direction must match exactly one window.
    """
    if full.width is not Width.FULL24 or published4.width is not Width.SIMPLIFIED4:
        raise ArcCalibrationError("calibrate_arc_map needs a FULL24 and a SIMPLIFIED4 dataset")
    check_paired(full, published4)

    mins = np.stack([full.features[:, w].min(axis=1) for w in ARC_WINDOWS])
    assigned = []
    for j, direction in enumerate(ARC_DIRECTIONS):
        column = published4.features[:, j]
        matches = [w for w, m in zip(ARC_WINDOWS, mins) if np.array_equal(m, column)]
        if not matches:
            raise ArcCalibrationError(
                f"no 4- or 5-sensor window reproduces the '{direction}' column"
            )
        if len(matches) > 1:
            raise ArcCalibrationError(
                f"ambiguous '{direction}' column: windows {matches} all match exactly"
            )
        assigned.append(matches[0])
    return ArcMap(*assigned)


def derive_simplified4(full: Dataset, arc_map: ArcMap) -> Dataset:
    """Rebuild the 4-sensor dataset (front, left, right, back) from the full one."""
    if full.width is not Width.FULL24:
        raise ValueError("derive_simplified4 needs a FULL24 dataset")
    columns = [full.features[:, w].min(axis=1) for w in arc_map.windows()]
    return Dataset(features=np.column_stack(columns), labels=full.labels.copy())


def derive_simplified2(four: Dataset) -> Dataset:
    """Keep only (front, left) from the 4-sensor dataset."""
    if four.width is not Width.SIMPLIFIED4:
        raise ValueError("derive_simplified2 needs a SIMPLIFIED4 dataset")
    return Dataset(features=four.features[:, :2].copy(), labels=four.labels.copy())


def train_size_for(n: int) -> int:
    """Training-set size under the shuffle-and-split protocol.

    One tenth of the rows (rounded up) is held out for testing, which gives
    the published 4910/546 sizes at n=5456.
    """
    return n - math.ceil(n / 10)


def shuffle_split(ds: Dataset, seed: int) -> SplitPair:
    """Seeded Fisher-Yates shuffle of row indices, then a 10%-holdout split."""
    n = ds.n
    if n < 11:
        raise ValueError("dataset too small for 10:1 split")
    indices = list(range(n))
    Xoshiro256StarStar(seed).shuffle(indices)
    cut = train_size_for(n)
    return SplitPair(
        train_indices=np.array(indices[:cut], dtype=np.int64),
        test_indices=np.array(indices[cut:], dtype=np.int64),
    )


def standardize(
    train_features: np.ndarray, other_features: np.ndarray | None = None
):
    """Column-wise (x - mean) / max(std, eps) using training statistics only.

    Returns ``(train_out, other_out, stats)``.  ``other_features`` (e.g. the
    test fold) is transformed with the training stats and contributes nothing
    to them.  Standard deviation is the sample (n-1) estimate, floored at
    ``STD_FLOOR`` so constant columns map to zeros.
    """
    if other_features is not None and other_features.shape[1] != train_features.shape[1]:
        raise ValueError("matrices must share the column count")
    mean = train_features.mean(axis=0)
    if train_features.shape[0] > 1:
        std = train_features.std(axis=0, ddof=1)
    else:
        std = np.zeros(train_features.shape[1])
    std = np.maximum(std, STD_FLOOR)
    stats = StandardizationStats(mean=mean, std=std)
    train_out = (train_features - mean) / std
    other_out = None if other_features is None else (other_features - mean) / std
    return train_out, other_out, stats

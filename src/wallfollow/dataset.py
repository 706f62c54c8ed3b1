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


def check_training_set(features: np.ndarray, labels: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``features`` is a finite matrix with at least one row and
    one column and ``labels`` holds one class in ``0..N_CLASSES-1`` per row.  ``Dataset``
    and every model's fit apply this one training-set contract.
    """
    if features.ndim != 2:
        raise ValueError(f"features must be a 2-D matrix, got {features.ndim} dimensions")
    if features.shape[0] == 0:
        raise ValueError("empty training set")
    if features.shape[1] == 0:
        raise ValueError("features has no columns")
    if not np.isfinite(features).all():
        raise ValueError("features contain non-finite values")
    if labels.ndim != 1:
        raise ValueError(f"labels must be a vector, got shape {labels.shape}")
    if labels.shape[0] != features.shape[0]:
        raise ValueError(f"labels has {labels.shape[0]} rows but features has {features.shape[0]}")
    if labels.min() < 0 or labels.max() >= N_CLASSES:
        raise ValueError(f"labels must lie in 0..{N_CLASSES - 1}")


class Width(enum.IntEnum):
    """Dataset width tag; the value is the feature count."""

    FULL24 = 24
    SIMPLIFIED4 = 4
    SIMPLIFIED2 = 2


class DataFormatError(ValueError):
    """A dataset file violates the expected record format."""


class ArcCalibrationError(ValueError):
    """The 24- and 4-sensor data do not pair up, or no unique arc map reproduces the latter."""


ARC_DIRECTIONS = ("front", "left", "right", "back")


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
            if not window:
                raise ValueError(f"arc '{name}' is empty")
            if any(not 0 <= i < N_SENSORS for i in window):
                raise ValueError(f"arc '{name}' has an index outside 0..{N_SENSORS - 1}")
            if not _is_circular_run(window) or len(window) > 5:
                raise ValueError(
                    f"arc '{name}' must be at most 5 consecutive sensors (60 degrees "
                    f"at 15-degree spacing), got {window}"
                )

    def windows(self) -> tuple[tuple[int, ...], ...]:
        return (self.front, self.left, self.right, self.back)


def _is_circular_run(window: tuple[int, ...]) -> bool:
    need = set(window)
    if len(need) != len(window):
        return False
    for start in range(N_SENSORS):
        if need == {(start + k) % N_SENSORS for k in range(len(window))}:
            return True
    return False


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix plus direction labels for one width."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64, values in 0..3
    width: Width

    def __post_init__(self):
        check_training_set(self.features, self.labels)
        if self.features.shape[1] != int(self.width):
            raise ValueError(
                f"width {self.width.name} expects {int(self.width)} columns, "
                f"got {self.features.shape[1]}"
            )
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

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
        width=width,
    )


def _candidate_windows() -> list[tuple[int, ...]]:
    windows = []
    for length in (4, 5):
        for start in range(N_SENSORS):
            windows.append(tuple((start + k) % N_SENSORS for k in range(length)))
    return windows


def calibrate_arc_map(full: Dataset, published4: Dataset) -> ArcMap:
    """Recover which sensor windows produce the published 4-sensor file.

    For every direction the search covers contiguous windows of 4 or 5
    sensors (circular).  A window matches when its per-row minimum equals the
    published column exactly; each direction must match exactly one window.
    """
    if full.width is not Width.FULL24 or published4.width is not Width.SIMPLIFIED4:
        raise ArcCalibrationError("calibrate_arc_map needs a FULL24 and a SIMPLIFIED4 dataset")
    if full.n != published4.n:
        raise ArcCalibrationError(f"row counts differ: {full.n} vs {published4.n}")
    if not np.array_equal(full.labels, published4.labels):
        raise ArcCalibrationError("label sequences differ between the full and 4-sensor files")

    windows = _candidate_windows()
    mins = np.stack([full.features[:, w].min(axis=1) for w in windows])
    assigned = []
    for j, direction in enumerate(ARC_DIRECTIONS):
        column = published4.features[:, j]
        matches = [windows[i] for i in range(len(windows)) if np.array_equal(mins[i], column)]
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
    return Dataset(
        features=np.column_stack(columns),
        labels=full.labels.copy(),
        width=Width.SIMPLIFIED4,
    )


def derive_simplified2(four: Dataset) -> Dataset:
    """Keep only (front, left) from the 4-sensor dataset."""
    if four.width is not Width.SIMPLIFIED4:
        raise ValueError("derive_simplified2 needs a SIMPLIFIED4 dataset")
    return Dataset(
        features=four.features[:, :2].copy(),
        labels=four.labels.copy(),
        width=Width.SIMPLIFIED2,
    )


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

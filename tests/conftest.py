import os
from pathlib import Path

import numpy as np
import pytest

from wallfollow import dataset as dsm
from wallfollow import evaluation as ev
from wallfollow import tree_models as tm
from wallfollow.rng import Xoshiro256StarStar, XoshiroLanes, derive_seed

# The benchmarked hyperparameters, which the fit functions require: a test
# that fits a model as the benchmark does passes these.
DT_PARAMS = tm.TreeParams(**ev.MODELS["dt"].defaults)
GBC_HP = ev.MODELS["gbc"].defaults
SVM_HP = ev.MODELS["svm"].defaults
NET_HP = ev.MODELS["dfnn_ws"].defaults

# Planted arc geometry for synthetic data: the calibration search must
# recover exactly these windows.
SYNTH_ARCS = dsm.ArcMap(
    front=(22, 23, 0, 1, 2),
    left=(4, 5, 6, 7, 8),
    right=(16, 17, 18, 19),
    back=(10, 11, 12, 13, 14),
)

TOKENS = list(dsm.DEFAULT_LABEL_TOKENS)

DATA_FILES = ("sensor_readings_24.data", "sensor_readings_4.data", "sensor_readings_2.data")


def synth_full_dataset(n: int, seed: int = 1234) -> dsm.Dataset:
    """Random 24-sensor data with labels decided by front/left arc minima."""
    rng = XoshiroLanes(seed)
    features = 0.3 + 4.7 * rng.doubles((n, 24))
    front = features[:, SYNTH_ARCS.front].min(axis=1)
    left = features[:, SYNTH_ARCS.left].min(axis=1)
    labels = np.where(
        front < 1.2,
        np.where(left < 1.0, 2, 1),
        np.where(left < 2.2, 0, 3),
    ).astype(np.int64)
    return dsm.Dataset(features, labels)


def contract_set(ds: dsm.Dataset) -> tuple[np.ndarray, np.ndarray]:
    """32 rows of ``ds``, eight of each class, so that every model can fit them."""
    rows = np.concatenate([np.flatnonzero(ds.labels == k)[:8] for k in range(4)])
    return ds.features[rows], ds.labels[rows]


def forest_bootstrap_rows(n: int, seed: int, tree: int) -> np.ndarray:
    """The ``n`` rows that tree ``tree`` of ``fit_random_forest(..., seed=seed)`` grows on."""
    rng = Xoshiro256StarStar(derive_seed(derive_seed(seed, tree), 0))
    return np.array([rng.below(n) for _ in range(n)], dtype=np.int64)


def write_dataset_file(ds: dsm.Dataset, path: Path) -> None:
    lines = [
        ",".join(repr(float(v)) for v in row) + "," + TOKENS[label]
        for row, label in zip(ds.features, ds.labels)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_trio(full: dsm.Dataset, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    d4 = dsm.derive_simplified4(full, SYNTH_ARCS)
    d2 = dsm.derive_simplified2(d4)
    for ds, name in zip((full, d4, d2), DATA_FILES):
        write_dataset_file(ds, directory / name)


@pytest.fixture(scope="session")
def synth_full() -> dsm.Dataset:
    return synth_full_dataset(400)


@pytest.fixture(scope="session")
def synth_d4(synth_full) -> dsm.Dataset:
    return dsm.derive_simplified4(synth_full, SYNTH_ARCS)


@pytest.fixture(scope="session")
def synth_d2(synth_d4) -> dsm.Dataset:
    return dsm.derive_simplified2(synth_d4)


@pytest.fixture(scope="session")
def published_like_dir(tmp_path_factory) -> Path:
    """Synthetic trio with the published row count, written as data files."""
    directory = tmp_path_factory.mktemp("synthdata")
    write_trio(synth_full_dataset(5456, seed=20240915), directory)
    return directory


def real_data_dir() -> Path | None:
    """Directory with the three published files, if available."""
    candidates = []
    env = os.environ.get("WALLFOLLOW_DATA")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for cand in candidates:
        if all((cand / name).exists() for name in DATA_FILES):
            return cand
    return None

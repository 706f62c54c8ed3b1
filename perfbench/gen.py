"""Seeded synthetic wall-following trio in the published file format.

The published sensor files are not part of the repository, so every workload
runs on data drawn here: 5456 rows of 24 ultrasound readings with three
decimals, as in ``sensor_readings_24.data``, plus the 4- and 2-sensor files
derived from planted arcs (the minimum reading inside each arc).  Labels are
decided by the front and left arc minima, so every class is present and the
data is learnable.  The generator uses numpy's PCG64 stream and nothing from
the package under test, so a change to the package never changes its inputs.

    python3 perfbench/gen.py --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

ROWS = 5456
SENSORS = 24

# Sensor windows whose minima form the front, left, right and back columns of
# the 4-sensor file; ``data derive`` has to recover exactly these.
ARCS = ((22, 23, 0, 1, 2), (4, 5, 6, 7, 8), (16, 17, 18, 19), (10, 11, 12, 13, 14))

TOKENS = ("Move-Forward", "Slight-Right-Turn", "Sharp-Right-Turn", "Slight-Left-Turn")

FILE_NAMES = ("sensor_readings_24.data", "sensor_readings_4.data", "sensor_readings_2.data")


def synth_readings(seed: int, rows: int = ROWS) -> tuple[np.ndarray, np.ndarray]:
    """Readings in metres (three decimals) and class indices for ``seed``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    readings = np.round(0.3 + 4.7 * rng.random((rows, SENSORS)), 3)
    front = readings[:, ARCS[0]].min(axis=1)
    left = readings[:, ARCS[1]].min(axis=1)
    labels = np.where(front < 1.2, np.where(left < 1.0, 2, 1), np.where(left < 2.2, 0, 3))
    return readings, labels


def _lines(columns: np.ndarray, labels: np.ndarray) -> str:
    text = [",".join(f"{v:.3f}" for v in row) + "," + TOKENS[k]
            for row, k in zip(columns.tolist(), labels.tolist())]
    return "\n".join(text) + "\n"


def write_trio(seed: int, directory: Path, rows: int = ROWS) -> None:
    """Write the three data files for ``seed`` into ``directory``."""
    readings, labels = synth_readings(seed, rows)
    four = np.column_stack([readings[:, arc].min(axis=1) for arc in ARCS])
    directory.mkdir(parents=True, exist_ok=True)
    for columns, name in zip((readings, four, four[:, :2]), FILE_NAMES):
        (directory / name).write_text(_lines(columns, labels), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    write_trio(args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

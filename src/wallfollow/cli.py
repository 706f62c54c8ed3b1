"""Command-line entry point: fetch/verify/derive data, benchmark, export trees.

Exit codes: 0 success, 2 usage error, 3 data or file error, 4 execution
error.  Everything except ``data fetch`` runs offline from local files, and
every command is deterministic given its flags and seed.
"""

from __future__ import annotations

import argparse
import http.client
import os
import sys
import urllib.request
from pathlib import Path

from . import evaluation, tree_models
from .dataset import (
    ArcCalibrationError,
    DataFormatError,
    Width,
    calibrate_arc_map,
    derive_simplified2,
    derive_simplified4,
    load_dataset,
    shuffle_split,
)
from .evaluation import CVConfig, accuracy, run_table1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_EXEC = 4

PUBLISHED_ROWS = 5456
DATA_FILES = {
    Width.FULL24: "sensor_readings_24.data",
    Width.SIMPLIFIED4: "sensor_readings_4.data",
    Width.SIMPLIFIED2: "sensor_readings_2.data",
}
DEFAULT_BASE_URL = (
    "https://archive.ics.uci.edu/ml/machine-learning-databases/00194"
)

ARC_NAMES = ("front", "left", "right", "back")


def read_config_file(path: str) -> dict:
    """key=value lines; '#' starts a comment; keys match long flag names."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _pick(args_value, config: dict, key: str, default, convert=str):
    if args_value is not None:
        return args_value
    if key in config:
        return convert(config[key])
    return default


def _parse_widths(text: str) -> list[Width]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if token not in ("24", "4", "2"):
            raise ValueError(f"unknown width {token!r} (expected 24, 4 or 2)")
        out.append(Width(int(token)))
    return out


def _parse_models(text: str) -> list[str]:
    tags = [t.strip().lower() for t in text.split(",") if t.strip()]
    for tag in tags:
        if tag not in evaluation.ALL_TAGS:
            raise ValueError(
                f"unknown model tag {tag!r} (expected one of {', '.join(evaluation.ALL_TAGS)})"
            )
    return tags


def _load_width(data_dir: Path, width: Width):
    path = data_dir / DATA_FILES[width]
    if not path.exists():
        raise DataFormatError(f"missing data file {path}")
    return load_dataset(path, width)


def _download(url: str, path: Path) -> int:
    """Copy ``url`` to ``path`` through a temp file beside it; returns the size.

    The temp file is renamed over ``path`` only once the whole download has
    arrived, so a failure leaves neither a truncated file nor the temp file.
    """
    with urllib.request.urlopen(url) as response:
        payload = response.read()  # raises IncompleteRead on a short body
    part = path.with_name(path.name + ".part")
    try:
        part.write_bytes(payload)
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)
    return len(payload)


def cmd_data(args, config: dict) -> int:
    data_dir = Path(_pick(args.data_dir, config, "data_dir", "data"))
    if args.subcommand == "fetch":
        base = _pick(args.base_url, config, "base_url", DEFAULT_BASE_URL)
        data_dir.mkdir(parents=True, exist_ok=True)
        for name in DATA_FILES.values():
            url = f"{base.rstrip('/')}/{name}"
            print(f"fetching {url}")
            try:
                size = _download(url, data_dir / name)
            except (OSError, http.client.HTTPException) as exc:
                print(f"error: download failed for {url}: {exc}", file=sys.stderr)
                return EXIT_DATA
            print(f"wrote {data_dir / name} ({size} bytes)")
        return EXIT_OK

    if args.subcommand == "verify":
        status = EXIT_OK
        for width, name in DATA_FILES.items():
            path = data_dir / name
            try:
                ds = _load_width(data_dir, width)
            except DataFormatError as exc:
                print(f"error: {exc}", file=sys.stderr)
                status = EXIT_DATA
                continue
            size = path.stat().st_size
            if ds.n != PUBLISHED_ROWS:
                print(f"error: {name}: {ds.n} rows, expected {PUBLISHED_ROWS}",
                      file=sys.stderr)
                status = EXIT_DATA
            else:
                print(f"{name}: {ds.n} rows ({size} bytes) OK")
        return status

    if args.subcommand == "derive":
        try:
            full = _load_width(data_dir, Width.FULL24)
            published4 = _load_width(data_dir, Width.SIMPLIFIED4)
            published2 = _load_width(data_dir, Width.SIMPLIFIED2)
            arc_map = calibrate_arc_map(full, published4)
        except (DataFormatError, ArcCalibrationError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA
        for name, window in zip(ARC_NAMES, arc_map.windows()):
            print(f"arc {name}: sensors {list(window)}")
        derived4 = derive_simplified4(full, arc_map)
        derived2 = derive_simplified2(derived4)
        status = EXIT_OK
        for derived, published, label in (
            (derived4, published4, "4-sensor"),
            (derived2, published2, "2-sensor"),
        ):
            if (derived.features == published.features).all():
                print(f"{label}: exact match")
            else:
                bad = int((derived.features != published.features).sum())
                print(f"error: {label}: {bad} mismatched cells", file=sys.stderr)
                status = EXIT_DATA
        return status

    raise AssertionError(args.subcommand)


def cmd_bench(args, config: dict) -> int:
    data_dir = Path(_pick(args.data_dir, config, "data_dir", "data"))
    seed = _pick(args.seed, config, "seed", 0, int)
    iters = _pick(args.iters, config, "iters", 50, int)
    jobs = _pick(args.jobs, config, "jobs", 1, int)
    out_dir = Path(_pick(args.out, config, "out", "results"))
    try:
        models = _parse_models(_pick(args.models, config, "models",
                                     ",".join(evaluation.ALL_TAGS)))
        widths = _parse_widths(_pick(args.widths, config, "widths", "24,4,2"))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        datasets = {w: _load_width(data_dir, w) for w in widths}
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    cfg = CVConfig(iterations=iters, master_seed=seed)
    report = run_table1(datasets, cfg, models, widths, jobs,
                        progress=lambda text: print(f"running {text}", file=sys.stderr))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "results.csv").write_text(evaluation.report_csv(report), encoding="utf-8")
    table1 = evaluation.render_table1(report)
    (out_dir / "table1.md").write_text(table1, encoding="utf-8")
    wrote = ["results.csv", "table1.md"]
    if all((tag, w) in report.cells and report.cells[(tag, w)].error is None
           for w, tag in evaluation.TABLE2_OURS.items()):
        (out_dir / "table2.md").write_text(evaluation.render_table2(report),
                                           encoding="utf-8")
        wrote.append("table2.md")
    print(table1)
    for (tag, width), cell in sorted(report.cells.items()):
        if cell.error is None:
            secs = float(cell.seconds.sum())
            print(f"{tag}/{width}: mean {100.0 * cell.mean:.2f}% "
                  f"+/- {100.0 * cell.std:.2f} over {cell.accuracies.size} iterations "
                  f"({secs:.1f}s)")
        else:
            print(f"{tag}/{width}: FAILED: {cell.error}")
    print(f"wrote {', '.join(wrote)} to {out_dir}")
    return EXIT_EXEC if any(c.error is not None for c in report.cells.values()) else EXIT_OK


def _parse_restrict(text: str, width: Width) -> list[int]:
    name_map = {}
    if width is Width.SIMPLIFIED4:
        name_map = {name: i for i, name in enumerate(ARC_NAMES)}
    elif width is Width.SIMPLIFIED2:
        name_map = {"front": 0, "left": 1}
    out = []
    for token in text.split(","):
        token = token.strip().lower()
        if token in name_map:
            out.append(name_map[token])
        elif token.isdigit() and int(token) < int(width):
            out.append(int(token))
        else:
            raise ValueError(f"cannot restrict to feature {token!r} at width {int(width)}")
    return sorted(set(out))


def cmd_export_tree(args, config: dict) -> int:
    data_dir = Path(_pick(args.data_dir, config, "data_dir", "data"))
    seed = _pick(args.seed, config, "seed", 0, int)
    out_path = Path(_pick(args.out, config, "out", "tree.dot"))
    try:
        width = _parse_widths(args.width)[0]
        restrict = _parse_restrict(args.restrict, width) if args.restrict else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        ds = _load_width(data_dir, width)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    split = shuffle_split(ds, seed)
    root = tree_models.fit_decision_tree(
        ds.features[split.train_indices], ds.labels[split.train_indices],
        allowed_features=restrict,
    )
    predicted = tree_models.predict_tree(root, ds.features[split.test_indices])
    test_accuracy = accuracy(predicted, ds.labels[split.test_indices])
    names = [f"X_{i}" for i in range(int(width))]
    text = tree_models.export_tree_text(root, names)
    try:
        out_path.write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_DATA
    print(f"wrote {out_path}")
    print(f"test accuracy (seed {seed}): {100.0 * test_accuracy:.2f}%")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wallfollow",
        description="Classifier benchmark on the wall-following robot sensor data",
    )
    parser.add_argument("--config", help="key=value file presetting any flag")
    sub = parser.add_subparsers(dest="command", required=True)

    data = sub.add_parser("data", help="fetch, verify or re-derive the dataset files")
    data.add_argument("subcommand", choices=("fetch", "verify", "derive"))
    data.add_argument("--data-dir", help="directory holding the three .data files")
    data.add_argument("--base-url", help="download base URL (fetch only)")

    bench = sub.add_parser("bench", help="run the Monte-Carlo benchmark")
    bench.add_argument("--data-dir")
    bench.add_argument("--seed", type=int, help="master seed (default 0)")
    bench.add_argument("--iters", type=int, help="Monte-Carlo iterations (default 50)")
    bench.add_argument("--models", help="comma-separated model tags (default: all)")
    bench.add_argument("--widths", help="comma-separated widths out of 24,4,2")
    bench.add_argument("--jobs", type=int, help="parallel workers (default 1)")
    bench.add_argument("--out", help="output directory (default results/)")

    export = sub.add_parser("export-tree", help="train one decision tree and dump DOT")
    export.add_argument("--data-dir")
    export.add_argument("--width", required=True, help="24, 4 or 2")
    export.add_argument("--seed", type=int)
    export.add_argument("--out", help="output .dot path (default tree.dot)")
    export.add_argument("--restrict",
                        help="comma-separated feature names/indices the tree may use")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    config = {}
    if args.config:
        try:
            config = read_config_file(args.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        if args.command == "data":
            return cmd_data(args, config)
        if args.command == "bench":
            return cmd_bench(args, config)
        if args.command == "export-tree":
            return cmd_export_tree(args, config)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXEC
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())

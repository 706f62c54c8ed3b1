"""Command-line entry point: fetch/verify/derive data, benchmark, export trees.

Exit codes: 0 success, 2 usage error (a bad flag, config value or config key,
found before any data is read), 3 data or file error (including a failed
download or output write), 4 execution error.  Everything except ``data fetch``
runs offline from local files, and every command is deterministic given its
flags and seed.
"""

from __future__ import annotations

import argparse
import os
import sys
import urllib.parse
from pathlib import Path

from . import evaluation, tree_models
from .dataset import (
    ARC_DIRECTIONS,
    ArcCalibrationError,
    DataFormatError,
    Width,
    calibrate_arc_map,
    check_paired,
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


class UsageError(Exception):
    """A flag, config value or config key that argparse cannot check on its own (exit 2)."""


def exit_code(exc: Exception) -> int:
    """The exit code of a command that raised ``exc``."""
    # an ArgumentTypeError here is the list rule (``_list_of``) applied after argparse
    if isinstance(exc, (UsageError, argparse.ArgumentTypeError)):
        return EXIT_USAGE
    if isinstance(exc, (DataFormatError, ArcCalibrationError, OSError)):
        return EXIT_DATA
    return EXIT_EXEC


def read_config_file(path: str) -> dict:
    """key=value lines; '#' starts a comment; keys match long flag names (``--config``'s type)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    values, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise argparse.ArgumentTypeError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in lines:  # a later line would silently win
            raise argparse.ArgumentTypeError(
                f"{path}: lines {lines[key]} and {lineno} both set {key!r}")
        values[key], lines[key] = value.strip(), lineno
    return values


def _list_of(parse, what: str):
    """An argparse ``type`` for a comma list: ``parse`` reads each stripped, lower-cased entry;
    an empty entry, no entry at all, or an entry repeated once read is a usage error."""
    def parse_list(text: str) -> list:
        entries = [entry.strip().lower() for entry in text.split(",")]
        if "" in entries:  # "no width in ','", or "empty width in '4,'"
            raise argparse.ArgumentTypeError(
                f"{'empty' if any(entries) else 'no'} {what} in {text!r}")
        items = [parse(entry) for entry in entries]
        if len(set(items)) < len(items):
            raise argparse.ArgumentTypeError(f"repeated {what} in {text!r}")
        return items
    return parse_list


def _parse_width(text: str) -> Width:
    if text.strip() not in ("24", "4", "2"):
        raise argparse.ArgumentTypeError(f"unknown width {text.strip()!r} (expected 24, 4 or 2)")
    return Width(int(text))


def _parse_model(tag: str) -> str:
    if tag not in evaluation.ALL_TAGS:
        raise argparse.ArgumentTypeError(
            f"unknown model tag {tag!r} (expected one of {', '.join(evaluation.ALL_TAGS)})")
    return tag


def _parse_base_url(text: str) -> str:
    """``text`` if ``urlsplit`` reads it as an http or https URL with a host, or a file URL."""
    try:
        url = urllib.parse.urlsplit(text)
        url.port  # a port that is not a number in range raises ValueError
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad URL {text!r}: {exc}") from exc
    if not (url.scheme == "file" or url.scheme in ("http", "https") and url.netloc):
        raise argparse.ArgumentTypeError(f"not an http, https or file URL: {text!r}")
    return text


def _load_width(data_dir: Path, width: Width):
    path = data_dir / DATA_FILES[width]
    if not path.exists():
        raise DataFormatError(f"missing data file {path}")
    return load_dataset(path, width)


def _write_files(files: dict) -> None:
    """Write each ``{path: bytes}`` entry to ``<name>.part``, then rename every part over its
    path: a failed write replaces no file, and only the parts made here are removed."""
    made = []
    try:
        for path, data in files.items():
            part = path.with_name(path.name + ".part")
            with open(part, "wb") as handle:
                made.append(part)
                handle.write(data)
        for part, path in zip(made, files):
            os.replace(part, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    finally:
        for part in made:
            part.unlink(missing_ok=True)


def _download(url: str, path: Path) -> int:
    """Copy ``url`` to ``path`` once the whole body has arrived; returns the size."""
    # loaded here: no other command needs the network modules (and ssl behind them)
    import http.client
    import urllib.request

    try:
        with urllib.request.urlopen(url) as response:
            payload = response.read()  # raises IncompleteRead on a short body
    except (OSError, http.client.HTTPException) as exc:
        raise OSError(f"download failed for {url}: {exc}") from exc
    _write_files({path: payload})
    return len(payload)


def cmd_data(args) -> int:
    if args.subcommand == "fetch":
        args.data_dir.mkdir(parents=True, exist_ok=True)
        for name in DATA_FILES.values():
            url = f"{args.base_url.rstrip('/')}/{name}"
            print(f"fetching {url}")
            size = _download(url, args.data_dir / name)
            print(f"wrote {args.data_dir / name} ({size} bytes)")
        return EXIT_OK

    if args.subcommand == "verify":
        status = EXIT_OK
        for width, name in DATA_FILES.items():
            try:
                ds = _load_width(args.data_dir, width)
            except DataFormatError as exc:
                print(f"error: {exc}", file=sys.stderr)
                status = EXIT_DATA
                continue
            size = (args.data_dir / name).stat().st_size
            if ds.n != PUBLISHED_ROWS:
                print(f"error: {name}: {ds.n} rows, expected {PUBLISHED_ROWS}",
                      file=sys.stderr)
                status = EXIT_DATA
            else:
                print(f"{name}: {ds.n} rows ({size} bytes) OK")
        return status

    # derive: rebuild the 4- and 2-sensor files from the 24-sensor one
    full = _load_width(args.data_dir, Width.FULL24)
    published4 = _load_width(args.data_dir, Width.SIMPLIFIED4)
    published2 = _load_width(args.data_dir, Width.SIMPLIFIED2)
    arc_map = calibrate_arc_map(full, published4)
    for name, window in zip(ARC_DIRECTIONS, arc_map.windows()):
        print(f"arc {name}: sensors {list(window)}")
    print("4-sensor: exact match")  # calibration matched every 4-sensor cell exactly
    check_paired(full, published2)
    derived2 = derive_simplified2(derive_simplified4(full, arc_map))
    bad = int((derived2.features != published2.features).sum())
    if bad:
        print(f"error: 2-sensor: {bad} mismatched cells", file=sys.stderr)
        return EXIT_DATA
    print("2-sensor: exact match")
    return EXIT_OK


def cmd_bench(args) -> int:
    for flag, value in (("--iters", args.iters), ("--jobs", args.jobs)):
        if value < 1:
            raise UsageError(f"{flag} must be at least 1, got {value}")
    datasets = {w: _load_width(args.data_dir, w) for w in args.widths}
    args.out.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before the grid runs
    cfg = CVConfig(iterations=args.iters, master_seed=args.seed)
    report = run_table1(datasets, cfg, args.models, args.widths, args.jobs,
                        progress=lambda text: print(f"running {text}", file=sys.stderr))
    table1 = evaluation.render_table1(report)
    files = {"results.csv": evaluation.report_csv(report), "table1.md": table1}
    if all((tag, w) in report.cells and report.cells[(tag, w)].error is None
           for w, tag in evaluation.TABLE2_OURS.items()):
        files["table2.md"] = evaluation.render_table2(report)
    _write_files({args.out / name: text.encode("utf-8") for name, text in files.items()})
    if "table2.md" not in files:  # an earlier run's table2.md would not match this run
        (args.out / "table2.md").unlink(missing_ok=True)
    print(table1)
    for (tag, width), cell in report.ordered_cells():
        if cell.error is None:
            secs = float(cell.seconds.sum())
            print(f"{tag}/{width}: mean {100.0 * cell.mean:.2f}% "
                  f"+/- {100.0 * cell.std:.2f} over {cell.accuracies.size} iterations "
                  f"({secs:.1f}s)")
        else:
            print(f"{tag}/{width}: FAILED: {cell.error}")
    print(f"wrote {', '.join(files)} to {args.out}")
    return EXIT_EXEC if any(c.error is not None for c in report.cells.values()) else EXIT_OK


def _parse_restrict(text: str, width: Width) -> list[int]:
    names = () if width is Width.FULL24 else ARC_DIRECTIONS[:width]
    def feature(token: str) -> int:
        if token in names:
            return names.index(token)
        if token.isascii() and token.isdigit() and int(token) < int(width):
            return int(token)
        raise UsageError(f"cannot restrict to feature {token!r} at width {int(width)}")
    return sorted(_list_of(feature, "feature")(text))


def cmd_export_tree(args) -> int:
    if args.width is None:
        raise UsageError("export-tree needs --width (24, 4 or 2)")
    # the tree grows on the chosen columns only, and its labels keep their file indices
    columns = (list(range(int(args.width))) if args.restrict is None
               else _parse_restrict(args.restrict, args.width))
    ds = _load_width(args.data_dir, args.width)
    split = shuffle_split(ds, args.seed)
    root = tree_models.fit_decision_tree(
        ds.features[split.train_indices][:, columns], ds.labels[split.train_indices],
        tree_models.TreeParams(**evaluation.MODELS["dt"].defaults),
    )
    predicted = tree_models.predict_tree(root, ds.features[split.test_indices][:, columns])
    test_accuracy = accuracy(predicted, ds.labels[split.test_indices])
    text = tree_models.export_tree_text(root, [f"X_{i}" for i in columns])
    _write_files({args.out: text.encode("utf-8")})
    print(f"wrote {args.out}")
    print(f"test accuracy (seed {args.seed}): {100.0 * test_accuracy:.2f}%")
    return EXIT_OK


def build_parser(config: dict) -> argparse.ArgumentParser:
    """The parser, with ``config`` as every command's defaults, so argparse checks its values
    like flags and flags override them.  A key that names no flag is a ``UsageError``.
    """
    parser = argparse.ArgumentParser(
        prog="wallfollow",
        description="Classifier benchmark on the wall-following robot sensor data",
    )
    parser.add_argument("--config", type=read_config_file,
                        help="key=value file presetting any flag")
    sub = parser.add_subparsers(dest="command", required=True)

    data = sub.add_parser("data", help="fetch, verify or re-derive the dataset files")
    data.add_argument("subcommand", choices=("fetch", "verify", "derive"))
    data.add_argument("--data-dir", type=Path, default="data",
                      help="directory holding the three .data files")
    data.add_argument("--base-url", type=_parse_base_url, default=DEFAULT_BASE_URL,
                      help="download base URL (fetch only)")

    bench = sub.add_parser("bench", help="run the Monte-Carlo benchmark")
    bench.add_argument("--data-dir", type=Path, default="data")
    bench.add_argument("--seed", type=int, default=0, help="master seed (default %(default)s)")
    bench.add_argument("--iters", type=int, default=50,
                       help="Monte-Carlo iterations (default %(default)s)")
    bench.add_argument("--models", type=_list_of(_parse_model, "model tag"),
                       default=",".join(evaluation.ALL_TAGS),
                       help="comma-separated model tags (default: all)")
    bench.add_argument("--widths", type=_list_of(_parse_width, "width"), default="24,4,2",
                       help="comma-separated widths out of 24,4,2")
    bench.add_argument("--jobs", type=int, default=1,
                       help="parallel workers (default %(default)s)")
    bench.add_argument("--out", type=Path, default="results",
                       help="output directory (default %(default)s/)")

    export = sub.add_parser("export-tree", help="train one decision tree and dump DOT")
    export.add_argument("--data-dir", type=Path, default="data")
    export.add_argument("--width", type=_parse_width, help="24, 4 or 2 (required)")
    export.add_argument("--seed", type=int, default=0)
    export.add_argument("--out", type=Path, default="tree.dot",
                        help="output .dot path (default %(default)s)")
    export.add_argument("--restrict",
                        help="comma-separated feature names/indices the tree may use")

    commands = {data: cmd_data, bench: cmd_bench, export: cmd_export_tree}
    flags = {a.dest for c in commands for a in c._actions if a.option_strings} - {"help"}
    for key in config:
        if key not in flags:
            raise UsageError(f"unknown config key {key!r}: it names no flag of any command")
    for command, run in commands.items():
        command.set_defaults(run=run, **config)
    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit code."""
    try:
        args = build_parser({}).parse_args(argv)
        if args.config:
            args = build_parser(args.config).parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # argparse: a usage error, or after --help
        return int(exc.code) if exc.code else EXIT_OK
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())

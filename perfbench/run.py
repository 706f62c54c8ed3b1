"""Layered benchmark of the wallfollow Monte-Carlo grid.

    python3 perfbench/run.py --workload classic24 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
Each run writes a seeded synthetic data trio (``gen.py``), times loading and
validating it through ``wallfollow data verify`` and ``data derive``
(``setup_s``), then times the workload's grid the way ``wallfollow bench``
runs it: ``run_table1`` followed by writing ``results.csv`` and ``table1.md``
(``grid_s``).  Whole grids repeat while they fit in ``--seconds``; times are
medians over the repeats.

With ``--trace 1`` the run also replays the grid call by call (``replay.py``)
and prints the per-layer metrics instead; the spans go to
``.perfbench/spans-<workload>-<seed>.jsonl``.

Every run checks its outputs: an iteration fails if its cell failed, it
carries the ``unconverged`` flag or its accuracy is not finite; at the
default seed the ``results.csv`` SHA-256 must equal the digest pinned in
``baseline.json``, else the whole run fails.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so that timings do not depend on
# how many cores the machine has idle.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"

@dataclass(frozen=True)
class Workload:
    tags: tuple[str, ...]
    widths: tuple[int, ...]


# One hyperparameter table for every workload: the ensembles and networks are
# shortened so that a whole grid fits in one run; every other value is the
# package default.
OVERRIDES = {
    "rfc": {"n_trees": 20},
    "gbc": {"n_stages": 20},
    "dfnn_ws": {"epochs": 20},
    "dfnn3": {"epochs": 20},
    "fnn1": {"epochs": 20},
}

# Each workload loads different modules, so a change to one is predicted to
# move one workload and leave the other alone.  Both run serially: with two
# pool workers on a small shared machine, each cell waits for whichever worker
# the machine slowed, and grid_s no longer repeats.
WORKLOADS = {
    # Wide layout: tree split search and the SVM Gram build and SMO.  No
    # neural work.
    "classic24": Workload(("dt", "rfc", "gbc", "lda", "gnb", "knn", "svm"), (24,)),
    # Neural training only: lane generation for 576-wide dropout masks at
    # width 24, per-batch forward, backward and Adadelta overhead at width 4.
    "neural": Workload(("dfnn_ws", "dfnn3", "fnn1"), (24, 4)),
}

# Monte-Carlo iterations per cell: one already makes a grid of 12-20 s.
ITERATIONS = 1

END_TO_END = {"setup_s": "s", "grid_s": "s", "peak_rss_mb": "MB"}

# Set-ups per run, all before the grid as a user runs them; setup_s is their
# median.
SETUP_REPEATS = 10


@dataclass
class GridRun:
    """One untraced grid: the report, its CSV and where the time went."""

    report: object
    csv: str
    seconds: float
    render_s: float
    cell_seconds: list[float]
    tag_seconds: dict[str, float]


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process, which runs the whole grid."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(cli, tracer, data_dir: Path) -> tuple[float, bool]:
    """``data verify`` then ``data derive``, repeated; (median seconds, all passed)."""
    times = []
    ok = True
    for _ in range(SETUP_REPEATS):
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            with tracer.span("cli.data_verify"):
                ok &= cli.main(["data", "verify", "--data-dir", str(data_dir)]) == 0
            with tracer.span("cli.data_derive"):
                ok &= cli.main(["data", "derive", "--data-dir", str(data_dir)]) == 0
        times.append(time.perf_counter() - start)
        text = out.getvalue()
        ok &= "4-sensor: exact match" in text and "2-sensor: exact match" in text
    return statistics.median(times), ok


def run_grid(evaluation, datasets, workload: Workload, seed: int, out_dir: Path) -> GridRun:
    """``run_table1``, then the CSV and table files as ``wallfollow bench`` writes them."""
    stamps = []
    start = time.perf_counter()
    report = evaluation.run_table1(
        datasets, evaluation.CVConfig(iterations=ITERATIONS, master_seed=seed),
        list(workload.tags), list(datasets), jobs=1,
        progress=lambda text: stamps.append(time.perf_counter()), overrides=OVERRIDES)
    grid_end = time.perf_counter()
    csv = write_outputs(evaluation, report, out_dir)
    end = time.perf_counter()
    stamps.append(grid_end)
    tag_seconds: dict[str, float] = {}
    for (tag, _), cell in report.cells.items():
        tag_seconds[tag] = tag_seconds.get(tag, 0.0) + float(cell.seconds.sum())
    return GridRun(report, csv, end - start, end - grid_end,
                   [b - a for a, b in zip(stamps, stamps[1:])], tag_seconds)


def write_outputs(evaluation, report, out_dir: Path) -> str:
    csv = evaluation.report_csv(report)
    (out_dir / "results.csv").write_text(csv, encoding="utf-8")
    (out_dir / "table1.md").write_text(evaluation.render_table1(report), encoding="utf-8")
    return csv


def count_failures(report) -> tuple[int, int]:
    """(attempted, failed) iterations of one grid."""
    attempted = failed = 0
    for cell in report.cells.values():
        attempted += report.iterations
        if cell.error is not None:
            failed += report.iterations
            continue
        failed += sum(1 for acc, flag in zip(cell.accuracies, cell.flags)
                      if flag or not math.isfinite(acc))
    return attempted, failed


def digest_check(workload: str, seed: int, csv: str) -> bool | None:
    """True/False against the pinned digest at the default seed, None elsewhere."""
    pinned = json.loads(BASELINE.read_text(encoding="utf-8"))
    digest = hashlib.sha256(csv.encode("utf-8")).hexdigest()
    if seed != pinned["default_seed"]:
        print(f"results.csv sha256 {digest} (not pinned for seed {seed})")
        return None
    expected = pinned["results_csv_sha256"].get(workload)
    print(f"results.csv sha256 {digest} (pinned {expected})")
    return digest == expected


def print_metric(name: str, value: float, unit: str) -> None:
    print(f"{name} {value!r} {unit}")


def run(args, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import gen
    import replay
    from wallfollow import cli, evaluation
    from wallfollow.dataset import Width, calibrate_arc_map, load_dataset

    workload = WORKLOADS[args.workload]
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    data_dir, out_dir = work / "data", work / "out"
    out_dir.mkdir(parents=True)
    gen.write_trio(args.seed, data_dir)

    tracer = replay.Tracer()
    tracer.trace_id = "setup"
    setup_s, setup_ok = measure_setup(cli, tracer, data_dir)
    loaded = {w: tracer.call("dataset.load_dataset", load_dataset, data_dir / name, w)
              for w, name in zip((Width.FULL24, Width.SIMPLIFIED4, Width.SIMPLIFIED2),
                                 gen.FILE_NAMES)}
    datasets = {Width(w): loaded[Width(w)] for w in workload.widths}
    attempted = 1  # the set-up
    failed = int(not setup_ok)

    grids: list[GridRun] = []
    start = time.perf_counter()
    while True:
        grid = run_grid(evaluation, datasets, workload, args.seed, out_dir)
        grids.append(grid)
        a, f = count_failures(grid.report)
        attempted, failed = attempted + a, failed + f
        if grid.csv != grids[0].csv:
            failed += a
        spent = time.perf_counter() - start
        if args.trace or spent + grid.seconds > args.seconds:
            break
    first = grids[0]
    digest_ok = digest_check(args.workload, args.seed, first.csv)
    if digest_ok is False:
        failed = attempted

    tag_seconds = {tag: statistics.median(g.tag_seconds[tag] for g in grids)
                   for tag in first.tag_seconds}
    for tag, seconds in tag_seconds.items():
        print_metric(f"tag_s.{tag}", seconds, "s")

    if not args.trace:
        metrics = {
            "setup_s": setup_s,
            "grid_s": statistics.median(g.seconds for g in grids),
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        tracer.call("dataset.calibrate_arc_map", calibrate_arc_map,
                    loaded[Width.FULL24], loaded[Width.SIMPLIFIED4])
        metrics, checks, mismatches = traced_metrics(args, tracer, datasets, first,
                                                     work / "traced")
        attempted += checks
        failed += mismatches
        write_spans(tracer, env, ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl")

    units = END_TO_END if not args.trace else replay.LAYER_METRICS
    for name, value in metrics.items():
        print_metric(name, value, units[name])
    print_metric("failed_frac", failed / attempted, "fraction")
    return {
        "correct": failed == 0 and digest_ok is not False,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def traced_metrics(args, tracer, datasets, grid: GridRun, out_dir: Path):
    """Replay the grid, its first epochs and its scalar draws under ``tracer``.

    Returns (per-layer metrics, checks made, checks failed): every replayed
    iteration must reproduce ``grid``'s accuracy, every replayed epoch
    ``train_network``'s weights and every replayed shuffle ``shuffle_split``.
    """
    import replay
    from wallfollow import evaluation

    workload = WORKLOADS[args.workload]
    cfg = evaluation.CVConfig(iterations=ITERATIONS, master_seed=args.seed)
    out_dir.mkdir()
    start = time.perf_counter()
    report, counters = replay.replay_grid(tracer, datasets, workload.tags, list(datasets), cfg,
                                          OVERRIDES)
    with tracer.span("evaluation.render"):
        csv = write_outputs(evaluation, report, out_dir)
    traced_grid_s = time.perf_counter() - start
    checks = sum(len(cell.seeds) for cell in report.cells.values())
    failed = sum(int((grid.report.cells[key].accuracies != cell.accuracies).sum())
                 for key, cell in report.cells.items())
    if csv != grid.csv:
        print("error: the replayed grid's results.csv differs from run_table1's",
              file=sys.stderr)
        failed = max(failed, 1)

    epochs = []
    for (tag, width), cell in report.cells.items():
        if cell.spec.is_neural:
            tracer.trace_id = f"epoch:{tag}/{width}"
            epochs.append(replay.replay_epoch(tracer, cell.spec, datasets[cell.spec.width],
                                              cell.seeds[0]))
    checks += len(epochs)
    if not all(same for same, _, _ in epochs):
        print("error: a replayed epoch's weights differ from train_network's", file=sys.stderr)
        failed += sum(not same for same, _, _ in epochs)

    tracer.trace_id = "rng"
    # Every width has the same rows, so one dataset's shuffles stand for all.
    draws, shuffles_same = replay.replay_scalar_draws(
        tracer, next(iter(datasets.values())),
        [seed for cell in report.cells.values() for seed in cell.seeds],
        [seed for (tag, _), cell in report.cells.items() if tag == "rfc" for seed in cell.seeds],
        OVERRIDES["rfc"]["n_trees"])
    checks += 1
    if not shuffles_same:
        print("error: the replayed split shuffles differ from shuffle_split's", file=sys.stderr)
        failed += 1
    metrics = replay.layer_metrics(tracer.spans, counters, epochs, draws, grid, traced_grid_s)
    return metrics, checks, failed


def write_spans(tracer, env: dict, path: Path) -> None:
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({"env": env}) + "\n")
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    print(f"wrote {len(tracer.spans)} spans to {path.relative_to(ROOT)}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Layered benchmark of the wallfollow grid")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="grids repeat while they fit in this many seconds (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wallfollow" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

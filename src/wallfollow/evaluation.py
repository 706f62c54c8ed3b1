"""Monte-Carlo cross-validation harness and benchmark report generation.

Every (model, width) cell repeats one iteration: shuffle-and-split 10:1 with
the iteration's seed (``splitmix64(master_seed ^ iteration)``), fit on the
training fold and score accuracy on the held-out fold; the cell reports the
mean and sample standard deviation.  ``run_table1`` runs the whole grid's
``(spec, iteration, seed)`` tasks, one list per cell, in turn or in one process
pool; it builds each cell from its rows in task order, so results are identical
regardless of worker count or scheduling, and stops a cell at its first failure.
"""

from __future__ import annotations

import math
import time
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import neural, stat_models, tree_models
from .dataset import Dataset, Width, check_count, shuffle_split, standardize
from .rng import derive_seed

PRESET_BY_TAG = {"dfnn_ws": "DFNN_WS", "dfnn3": "DFNN3", "fnn1": "FNN1"}


@dataclass(frozen=True)
class Model:
    """One benchmarked model: display name, default hyperparameters, fit and predict.

    ``fit(x, y, hp, seed)`` returns the fitted model (the object that
    ``serialize.save_model`` stores) and ``predict(model, x)`` its labels.
    """

    name: str
    defaults: dict
    fit: Callable
    predict: Callable


def _fit_network(tag: str, x, y, hp: dict, seed: int) -> neural.Network:
    net = neural.build_preset(PRESET_BY_TAG[tag], x.shape[1], dropout=hp["dropout"],
                              init_seed=derive_seed(seed, 0))
    config = neural.TrainConfig(batch_size=hp["batch_size"], epochs=hp["epochs"],
                                dropout=hp["dropout"], seed=derive_seed(seed, 1))
    return neural.train_network(net, x, y, config)


def _tree_params(hp: dict) -> tree_models.TreeParams:
    return tree_models.TreeParams(hp["max_depth"], hp["min_samples_split"])


_NETWORK = {"epochs": 200, "batch_size": 32, "dropout": 0.1}
_TREE = {"max_depth": None, "min_samples_split": 2}

# Row order is the order of the rendered tables and of results.csv.
MODELS = {
    "dfnn_ws": Model("DFNN with Weight Sharing", _NETWORK,
                     partial(_fit_network, "dfnn_ws"), neural.Network.predict),
    "dfnn3": Model("DFNN (3 Hidden Layers)", _NETWORK,
                   partial(_fit_network, "dfnn3"), neural.Network.predict),
    "fnn1": Model("FNN (1 Hidden Layer)", _NETWORK,
                  partial(_fit_network, "fnn1"), neural.Network.predict),
    "dt": Model("Decision Tree (DT)", _TREE,
                lambda x, y, hp, seed: tree_models.fit_decision_tree(x, y, _tree_params(hp)),
                tree_models.predict_tree),
    "gbc": Model("Gradient Boost Classifier (GBC)",
                 {"n_stages": 100, "learning_rate": 0.1, "max_depth": 3},
                 lambda x, y, hp, seed: tree_models.fit_gradient_boost(
                     x, y, hp["n_stages"], hp["learning_rate"], hp["max_depth"]),
                 tree_models.predict_boost),
    "rfc": Model("Random Forest Classifier (RFC)", {"n_trees": 100, **_TREE},
                 lambda x, y, hp, seed: tree_models.fit_random_forest(
                     x, y, hp["n_trees"], _tree_params(hp), seed),
                 tree_models.predict_forest),
    "lda": Model("Linear Discriminant Analysis (LDA)", {},
                 lambda x, y, hp, seed: stat_models.fit_lda(x, y),
                 stat_models.predict_lda),
    "svm": Model("Support Vector Machine (SVM)",
                 {"c": 1.0, "gamma": None, "tol": 1e-3, "max_passes": 2000},
                 lambda x, y, hp, seed: stat_models.fit_svm(
                     x, y, hp["c"], hp["gamma"], hp["tol"], hp["max_passes"], seed),
                 stat_models.predict_svm),
    "knn": Model("K-Nearest Neighbour (KNN)", {"k": 5},
                 lambda x, y, hp, seed: stat_models.fit_knn(x, y, hp["k"]),
                 stat_models.predict_knn_batch),
    "gnb": Model("Gaussian Naive Bayes (GNB)", {},
                 lambda x, y, hp, seed: stat_models.fit_gnb(x, y),
                 stat_models.predict_gnb),
}

ALL_TAGS = tuple(MODELS)
NEURAL_TAGS = tuple(PRESET_BY_TAG)
CLASSIC_TAGS = tuple(tag for tag in ALL_TAGS if tag not in PRESET_BY_TAG)

# Sequence models whose per-sample windowing is unspecified; rendered as
# out-of-scope rows rather than benchmarked.
OUT_OF_SCOPE_ROWS = ("Gated Recurrent Unit (GRU)", "Long Short Term Memory (LSTM)")


@dataclass
class ModelSpec:
    """Algorithm tag, sensor width and (possibly overridden) hyperparameters."""

    algorithm: str
    width: Width
    hyperparams: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in ALL_TAGS:
            raise ValueError(f"unknown algorithm tag {self.algorithm!r}")
        merged = dict(MODELS[self.algorithm].defaults)
        unknown = set(self.hyperparams) - set(merged)
        if unknown:
            raise ValueError(f"unknown hyperparameters for {self.algorithm}: {sorted(unknown)}")
        merged.update(self.hyperparams)
        self.hyperparams = merged

    @property
    def is_neural(self) -> bool:
        return self.algorithm in NEURAL_TAGS


@dataclass
class CVConfig:
    """Monte-Carlo protocol settings: iteration count and master seed.

    The split ratio is fixed by the protocol (one tenth held out, the
    4910/546 counts at n=5456).
    """

    iterations: int
    master_seed: int

    def __post_init__(self):
        check_count("iterations", self.iterations, 1)
        check_count("master_seed", self.master_seed, -math.inf)  # an integer of any sign


@dataclass
class CellResult:
    """Accuracy series for one (model, width) benchmark cell."""

    spec: ModelSpec
    seeds: list[int]
    accuracies: np.ndarray
    seconds: np.ndarray
    flags: list[str]
    error: str | None = None

    @property
    def mean(self) -> float:
        return float(self.accuracies.mean())

    @property
    def std(self) -> float:
        if self.accuracies.size < 2:
            return 0.0
        return float(self.accuracies.std(ddof=1))


@dataclass
class BenchmarkReport:
    cells: dict  # (algorithm, int(width)) -> CellResult
    iterations: int
    master_seed: int
    version: str

    def ordered_cells(self) -> list:
        """``((tag, width), cell)`` pairs in ``ALL_TAGS`` order, widest first."""
        return sorted(self.cells.items(), key=lambda kv: (ALL_TAGS.index(kv[0][0]), -kv[0][1]))


def accuracy(predicted, true) -> float:
    """Fraction of exact label matches."""
    predicted = np.asarray(predicted)
    true = np.asarray(true)
    if predicted.shape != true.shape:
        raise ValueError("prediction/label length mismatch")
    if predicted.size == 0:
        raise ValueError("empty input")
    return float((predicted == true).mean())


def run_iteration(spec: ModelSpec, ds: Dataset, seed: int):
    """One Monte-Carlo iteration: split, (standardize,) fit, score.

    Returns (accuracy, elapsed_seconds, flag).
    """
    start = time.perf_counter()
    split = shuffle_split(ds, seed)
    train_x = ds.features[split.train_indices]
    train_y = ds.labels[split.train_indices]
    test_x = ds.features[split.test_indices]
    test_y = ds.labels[split.test_indices]
    if spec.is_neural:
        train_x, test_x, _ = standardize(train_x, test_x)
    entry = MODELS[spec.algorithm]
    model = entry.fit(train_x, train_y, spec.hyperparams, derive_seed(seed, 1))
    predicted = entry.predict(model, test_x)
    flag = ""
    if spec.algorithm == "svm" and not all(m.converged for m in model.machines):
        flag = "unconverged"
    return accuracy(predicted, test_y), time.perf_counter() - start, flag


def _task_error(task, exc) -> str:
    spec, index, seed = task
    return f"{spec.algorithm}/{int(spec.width)} failed at iteration {index} (seed {seed}): {exc}"


def _run_task(datasets: dict, task):
    """One ``(spec, iteration, seed)`` task: ``(accuracy, seconds, flag, error or None)``."""
    spec, _, seed = task
    try:
        return (*run_iteration(spec, datasets[spec.width], seed), None)
    except Exception as exc:
        return 0.0, 0.0, "", _task_error(task, exc)


_POOL_DATASETS: dict = {}  # Width -> Dataset, set once in each pool worker


def _pool_init(datasets: dict) -> None:
    _POOL_DATASETS.update(datasets)


def _pool_task(task):
    return _run_task(_POOL_DATASETS, task)


def _future_row(task, future):
    from concurrent.futures.process import BrokenProcessPool

    try:
        return future.result()
    except BrokenProcessPool as exc:
        return 0.0, 0.0, "", _task_error(task, exc)


def _until_failure(rows) -> list:
    """``rows`` up to and including the first one with an error."""
    out = []
    for row in rows:
        out.append(row)
        if row[3] is not None:
            break
    return out


def _cell_rows(datasets: dict, cells: list, jobs: int):
    """Each cell's rows in task order, through its first failure; a dead worker fails what it
    lost.  In turn, no later task of a failed cell runs; in the pool, those not started are
    cancelled.
    """
    if jobs == 1:
        for tasks in cells:
            yield _until_failure(map(partial(_run_task, datasets), tasks))
        return
    # loaded here so that a serial run never imports multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    pool = ProcessPoolExecutor(min(jobs, sum(map(len, cells))),
                               initializer=_pool_init, initargs=(datasets,))
    try:
        futures = [[pool.submit(_pool_task, task) for task in tasks] for tasks in cells]
        for tasks, cell in zip(cells, futures):
            rows = _until_failure(map(_future_row, tasks, cell))
            for future in cell[len(rows):]:
                future.cancel()
            yield rows
    finally:  # an abandoned run (Ctrl-C) must not wait for the queued tasks
        pool.shutdown(cancel_futures=True)


def run_table1(datasets: dict, cfg: CVConfig, algorithms=None, widths=None,
               jobs: int = 1, progress=None, overrides=None) -> BenchmarkReport:
    """Benchmark the selected models on every applicable width.

    ``datasets`` maps Width -> Dataset.  ``overrides`` maps an algorithm tag
    to hyperparameter overrides for its cells; a repeated tag or width is an
    error.  A cell fails with the message of its first failing iteration and
    stops there; other cells still run.
    """
    from . import __version__

    check_count("jobs", jobs, 1)
    algorithms = list(ALL_TAGS) if algorithms is None else list(algorithms)
    widths = sorted(datasets, key=int, reverse=True) if widths is None else list(widths)
    for what, items in (("algorithm tag", algorithms), ("width", [int(w) for w in widths])):
        if len(set(items)) < len(items):
            raise ValueError(f"repeated {what} in {items}")
    overrides = overrides or {}
    for tag, hp in overrides.items():  # ModelSpec's rules, whether or not the tag runs
        ModelSpec(tag, Width.FULL24, dict(hp))
    for width in widths:
        if width not in datasets:
            raise ValueError(f"no dataset loaded for width {int(width)}")
        if datasets[width].width != width:
            raise ValueError(f"dataset width {datasets[width].width.name} is not "
                             f"{Width(width).name}")
    specs = [ModelSpec(t, w, dict(overrides.get(t, {}))) for t in algorithms for w in widths]
    seeds = [derive_seed(cfg.master_seed, i) for i in range(cfg.iterations)]
    tasks = [[(spec, i, seed) for i, seed in enumerate(seeds)] for spec in specs]
    cells = {}
    with closing(_cell_rows(datasets, tasks, jobs)) as rows:
        for spec in specs:
            if progress is not None:
                progress(f"{spec.algorithm} / {int(spec.width)} sensors")
            accuracies, seconds, flags, errors = zip(*next(rows))
            error = errors[-1]
            cells[(spec.algorithm, int(spec.width))] = (
                CellResult(spec, list(seeds), np.array(accuracies), np.array(seconds),
                           list(flags)) if error is None else
                CellResult(spec, [], np.zeros(0), np.zeros(0), [], error=error))
    return BenchmarkReport(cells=cells, iterations=cfg.iterations,
                           master_seed=cfg.master_seed, version=__version__)


def _format_cell(report: BenchmarkReport, tag: str, width: int) -> str:
    cell = report.cells.get((tag, width))
    if cell is None:
        return "-"
    if cell.error is not None:
        return "failed"
    text = f"{100.0 * cell.mean:.2f}%"
    if cell.accuracies.size > 1:
        text += f" +/- {100.0 * cell.std:.2f}"
    if any(cell.flags):
        text += " (unconverged)"
    return text


def render_table1(report: BenchmarkReport) -> str:
    """Markdown table mirroring the benchmark layout (models x widths)."""
    header = "| Model | Mean Accuracy (24 Sensors) | Mean Accuracy (4 Sensors) | Mean Accuracy (2 Sensors) |"
    rule = "|---|---|---|---|"
    lines = [
        "# Machine learning and deep learning model accuracy",
        "",
        f"Monte-Carlo cross-validation: {report.iterations} iterations, 10:1 split, "
        f"master seed {report.master_seed} (wallfollow {report.version})",
        "",
    ]
    for section, tags, out_of_scope in (("Deep learning models", NEURAL_TAGS, OUT_OF_SCOPE_ROWS),
                                        ("Machine learning models", CLASSIC_TAGS, ())):
        lines += [f"## {section}", "", header, rule]
        for tag in tags:
            cells = [_format_cell(report, tag, w) for w in (24, 4, 2)]
            lines.append(f"| {MODELS[tag].name} | {cells[0]} | {cells[1]} | {cells[2]} |")
        for name in out_of_scope:
            lines.append(f"| {name} | out of scope | out of scope | out of scope |")
        lines.append("")
    lines += ["## Configuration echo", ""]
    for (tag, width), cell in report.ordered_cells():
        hp = " ".join(f"{k}={v}" for k, v in sorted(cell.spec.hyperparams.items()))
        lines.append(f"- {tag}/{width}: {hp if hp else '(no hyperparameters)'}")
    return "\n".join(lines) + "\n"


# Previously published results on the same data, keyed by sensor width:
# (model description, accuracy percent or None for "< 80", used train/test split)
PRIOR_RESULTS = {
    2: (
        ("Particle swarm optimization", "98.8%", "yes"),
        ("Multi Layer Perceptron (Neural Network)", "97.59%", "no"),
        ("Elman Recurrent", "96.42%", "no"),
        ("Shallow Neural Network", "92.67%", "no"),
    ),
    4: (
        ("Bayesian Network", "93.3%", "yes"),
        ("Adaptive Resonance Theory-1", "86.69%", "yes"),
        ("Shallow Neural Network", "81.32%", "no"),
    ),
    24: (
        ("Probabilistic Neural Network", "99.63%", "yes"),
        ("Adaptive Resonance Theory-1", "99.59%", "yes"),
        ("Particle swarm optimization", "< 80%", "yes"),
        ("Shallow Neural Network", "69.72%", "no"),
    ),
}

TABLE2_OURS = {2: "dt", 4: "dt", 24: "gbc"}


def render_table2(report: BenchmarkReport) -> str:
    """This run's headline cells next to previously published results."""
    for width, tag in TABLE2_OURS.items():
        cell = report.cells.get((tag, width))
        if cell is None or cell.error is not None:
            raise ValueError(f"comparison table needs a successful {tag}/{width} cell")
    lines = ["# Comparison with previously proposed models", ""]
    for width in (2, 4, 24):
        tag = TABLE2_OURS[width]
        cell = report.cells[(tag, width)]
        lines += [
            f"## {width} sensors dataset",
            "",
            "| Source | Model description | Accuracy | Train/test split |",
            "|---|---|---|---|",
            f"| this run | {MODELS[tag].name} | {100.0 * cell.mean:.2f}% | yes |",
        ]
        for description, acc, split in PRIOR_RESULTS[width]:
            lines.append(f"| published | {description} | {acc} | {split} |")
        lines.append("")
    return "\n".join(lines) + "\n"


def report_csv(report: BenchmarkReport) -> str:
    """Machine-readable per-iteration results, one line per (cell, iteration)."""
    lines = ["model,width,iteration,seed,accuracy"]
    for (tag, width), cell in report.ordered_cells():
        if cell.error is not None:
            continue
        for i, (seed, acc) in enumerate(zip(cell.seeds, cell.accuracies)):
            lines.append(f"{tag},{width},{i},{seed},{float(acc)!r}")
    return "\n".join(lines) + "\n"

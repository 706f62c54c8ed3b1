"""Monte-Carlo cross-validation harness and benchmark report generation.

Every benchmark cell repeats the same loop: derive an iteration seed from the
master seed, shuffle-and-split 10:1, fit the model on the training fold, and
score accuracy on the held-out fold; the cell reports the mean and sample
standard deviation over the iterations.  Iteration seeds are derived up
front (``splitmix64(master_seed ^ iteration)``), so results are identical
regardless of worker count or scheduling.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import neural, stat_models, tree_models
from .dataset import Dataset, Width, shuffle_split, standardize
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
                lambda x, y, hp, seed: tree_models.fit_decision_tree(
                    x, y, _tree_params(hp), seed),
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

    iterations: int = 50
    master_seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


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


_WORKER_STATE: dict = {}


def _worker_init(spec: ModelSpec, ds: Dataset) -> None:
    _WORKER_STATE["spec"] = spec
    _WORKER_STATE["ds"] = ds


def _run_in_context(spec: ModelSpec, ds: Dataset, index: int, seed: int):
    """``run_iteration``, with cell, iteration and seed added to any failure."""
    try:
        return run_iteration(spec, ds, seed)
    except Exception as exc:
        raise RuntimeError(
            f"{spec.algorithm}/{int(spec.width)} failed at iteration {index} "
            f"(seed {seed}): {exc}"
        ) from exc


def _worker_run(task):
    index, seed = task
    return (index, *_run_in_context(_WORKER_STATE["spec"], _WORKER_STATE["ds"], index, seed))


def monte_carlo(spec: ModelSpec, ds: Dataset, cfg: CVConfig, jobs: int = 1) -> CellResult:
    """Run the full iteration loop for one cell; order-independent results."""
    if ds.width is not spec.width:
        raise ValueError(f"dataset width {ds.width.name} does not match spec "
                         f"width {spec.width.name}")
    seeds = [derive_seed(cfg.master_seed, i) for i in range(cfg.iterations)]
    accuracies = np.zeros(cfg.iterations)
    seconds = np.zeros(cfg.iterations)
    flags = [""] * cfg.iterations
    if jobs <= 1:
        for i, seed in enumerate(seeds):
            accuracies[i], seconds[i], flags[i] = _run_in_context(spec, ds, i, seed)
    else:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_worker_init,
                                 initargs=(spec, ds)) as pool:
            for index, acc, secs, flag in pool.map(_worker_run, list(enumerate(seeds))):
                accuracies[index] = acc
                seconds[index] = secs
                flags[index] = flag
    return CellResult(spec=spec, seeds=seeds, accuracies=accuracies,
                      seconds=seconds, flags=flags)


def run_table1(datasets: dict, cfg: CVConfig, algorithms=None, widths=None,
               jobs: int = 1, progress=None, overrides=None) -> BenchmarkReport:
    """Benchmark the selected models on every applicable width.

    ``datasets`` maps Width -> Dataset.  ``overrides`` maps an algorithm tag
    to hyperparameter overrides for its cells.  A failing cell is recorded
    with its error message; remaining cells are still produced.
    """
    from . import __version__

    algorithms = list(ALL_TAGS) if algorithms is None else list(algorithms)
    widths = sorted(datasets, key=int, reverse=True) if widths is None else list(widths)
    overrides = overrides or {}
    for tag in algorithms:
        if tag not in ALL_TAGS:
            raise ValueError(f"unknown algorithm tag {tag!r}")
    cells = {}
    for tag in algorithms:
        for width in widths:
            if width not in datasets:
                raise ValueError(f"no dataset loaded for width {int(width)}")
            spec = ModelSpec(tag, width, dict(overrides.get(tag, {})))
            if progress is not None:
                progress(f"{tag} / {int(width)} sensors")
            try:
                cells[(tag, int(width))] = monte_carlo(spec, datasets[width], cfg, jobs)
            except Exception as exc:
                cells[(tag, int(width))] = CellResult(
                    spec=spec, seeds=[], accuracies=np.zeros(0),
                    seconds=np.zeros(0), flags=[], error=str(exc),
                )
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
        "## Deep learning models",
        "",
        header,
        rule,
    ]
    for tag in NEURAL_TAGS:
        cells = [_format_cell(report, tag, w) for w in (24, 4, 2)]
        lines.append(f"| {MODELS[tag].name} | {cells[0]} | {cells[1]} | {cells[2]} |")
    for name in OUT_OF_SCOPE_ROWS:
        lines.append(f"| {name} | out of scope | out of scope | out of scope |")
    lines += ["", "## Machine learning models", "", header, rule]
    for tag in CLASSIC_TAGS:
        cells = [_format_cell(report, tag, w) for w in (24, 4, 2)]
        lines.append(f"| {MODELS[tag].name} | {cells[0]} | {cells[1]} | {cells[2]} |")
    lines += ["", "## Configuration echo", ""]
    for (tag, width), cell in sorted(report.cells.items(),
                                     key=lambda kv: (ALL_TAGS.index(kv[0][0]), -kv[0][1])):
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
    for (tag, width), cell in sorted(report.cells.items(),
                                     key=lambda kv: (ALL_TAGS.index(kv[0][0]), -kv[0][1])):
        if cell.error is not None:
            continue
        for i, (seed, acc) in enumerate(zip(cell.seeds, cell.accuracies)):
            lines.append(f"{tag},{width},{i},{seed},{float(acc)!r}")
    return "\n".join(lines) + "\n"

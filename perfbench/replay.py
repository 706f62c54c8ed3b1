"""Traced replay of the Monte-Carlo grid through the package's public calls.

The package has no tracing of its own, so the traced run re-executes every
iteration of a workload here, one public call at a time, and records a span
around each call.  A replay only counts if it measures the same program as
the harness: ``replay_grid`` must reproduce ``run_table1``'s accuracies bit
for bit, and ``replay_epoch`` must leave a network with the same weights as
one ``train_network`` epoch.  ``run.py`` fails the traced run otherwise.

A span is ``[name, start, end, parent index, trace id]``; the first dotted
part of the name is the package module (the layer) that the call enters, and
the trace id names the iteration (``tag/width/iteration``) or phase.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

import wallfollow
from wallfollow import evaluation, neural, stat_models, tree_models
from wallfollow.dataset import N_CLASSES, shuffle_split, standardize, train_size_for
from wallfollow.rng import Xoshiro256StarStar, XoshiroLanes, derive_seed

LAYERS = ("dataset", "rng", "tree_models", "stat_models", "neural", "evaluation", "cli")

# Per-layer metrics of a traced run, with units.  A metric of a layer or tag
# that the workload does not run reads 0.
LAYER_METRICS = {
    "dataset.load_s": "s",
    "dataset.calibrate_s": "s",
    "cli.data_verify_s": "s",
    "cli.data_derive_s": "s",
    "dataset.split_s": "s",
    "dataset.standardize_s": "s",
    "rng.scalar_draws": "count",
    "rng.scalar_s": "s",
    "tree_models.fit_s.dt": "s",
    "tree_models.fit_s.rfc": "s",
    "tree_models.fit_s.gbc": "s",
    "tree_models.predict_s.dt": "s",
    "tree_models.predict_s.rfc": "s",
    "tree_models.predict_s.gbc": "s",
    "tree_models.nodes.dt": "count",
    "tree_models.nodes.rfc": "count",
    "tree_models.nodes.gbc": "count",
    "tree_models.depth.dt": "count",
    "stat_models.svm.kernel_s": "s",
    "stat_models.svm.kernel_bytes": "bytes",
    "stat_models.svm.smo_s": "s",
    "stat_models.svm.smo_passes": "count",
    "stat_models.svm.support_vectors": "count",
    "stat_models.svm.converged_frac": "fraction",
    "stat_models.svm.predict_s": "s",
    "stat_models.knn.predict_s": "s",
    "stat_models.lda.fit_s": "s",
    "stat_models.gnb.fit_s": "s",
    "neural.epoch_s.dfnn_ws": "s",
    "neural.epoch_s.dfnn3": "s",
    "neural.epoch_s.fnn1": "s",
    "neural.forward_s": "s",
    "neural.backward_s": "s",
    "neural.optimizer_s": "s",
    "neural.batches": "count",
    "neural.predict_s": "s",
    "rng.lanes_values": "count",
    "rng.lanes_s": "s",
    "evaluation.iteration_s": "s",
    "evaluation.cell_s": "s",
    "evaluation.worker_busy_frac": "fraction",
    "evaluation.render_s": "s",
    "evaluation.trace_overhead_s": "s",
    **{f"evaluation.tag_s.{tag}": "s" for tag in evaluation.ALL_TAGS},
    **{f"self_s.{layer}": "s" for layer in LAYERS},
}

# Metric -> the span names whose durations it sums.
SPAN_SUMS = {
    "dataset.load_s": ("dataset.load_dataset",),
    "dataset.calibrate_s": ("dataset.calibrate_arc_map",),
    "dataset.split_s": ("dataset.shuffle_split",),
    "dataset.standardize_s": ("dataset.standardize",),
    "rng.scalar_s": ("rng.shuffle", "rng.bootstrap"),
    "tree_models.fit_s.dt": ("tree_models.fit_decision_tree",),
    "tree_models.fit_s.rfc": ("tree_models.fit_random_forest",),
    "tree_models.fit_s.gbc": ("tree_models.fit_gradient_boost",),
    "tree_models.predict_s.dt": ("tree_models.predict_tree",),
    "tree_models.predict_s.rfc": ("tree_models.predict_forest",),
    "tree_models.predict_s.gbc": ("tree_models.predict_boost",),
    "stat_models.svm.kernel_s": ("stat_models.rbf_kernel_symmetric",),
    "stat_models.svm.smo_s": ("stat_models.smo_solve",),
    "stat_models.svm.predict_s": ("stat_models.predict_svm",),
    "stat_models.knn.predict_s": ("stat_models.predict_knn_batch",),
    "stat_models.lda.fit_s": ("stat_models.fit_lda",),
    "stat_models.gnb.fit_s": ("stat_models.fit_gnb",),
    "neural.forward_s": ("neural.forward",),
    "neural.backward_s": ("neural.backward",),
    "neural.optimizer_s": ("neural.adadelta_step",),
    "neural.predict_s": ("neural.predict",),
    "rng.lanes_s": ("rng.doubles", "rng.permutation"),
}


class Tracer:
    """Spans kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.trace_id = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.trace_id])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


class EpochLog:
    """``train_network`` log sink that timestamps each epoch's line."""

    def __init__(self):
        self.stamps = [time.perf_counter()]

    def write(self, text: str) -> None:
        self.stamps.append(time.perf_counter())

    def epoch_seconds(self) -> list[float]:
        return [b - a for a, b in zip(self.stamps, self.stamps[1:])]


class TimedLanes:
    """Stands in for the ``XoshiroLanes`` of one training run; times bulk draws."""

    def __init__(self, tracer: Tracer, lanes: XoshiroLanes):
        self._tracer = tracer
        self._lanes = lanes
        self.values = 0

    def doubles(self, shape) -> np.ndarray:
        out = self._tracer.call("rng.doubles", self._lanes.doubles, shape)
        self.values += out.size
        return out

    def permutation(self, n: int) -> np.ndarray:
        self.values += n
        return self._tracer.call("rng.permutation", self._lanes.permutation, n)


def tree_size(root) -> tuple[int, int]:
    """(node count, depth) of a classification or regression tree."""
    nodes = depth = 0
    stack = [(root, 0)]
    while stack:
        node, level = stack.pop()
        nodes += 1
        depth = max(depth, level)
        if node.feature is not None:
            stack += [(node.left, level + 1), (node.right, level + 1)]
    return nodes, depth


def _tree_params(hp: dict) -> tree_models.TreeParams:
    return tree_models.TreeParams(hp["max_depth"], hp["min_samples_split"])


def _replay_dt(tracer, hp, seed, x, y, test_x, counters):
    root = tracer.call("tree_models.fit_decision_tree", tree_models.fit_decision_tree,
                       x, y, _tree_params(hp), seed)
    counters["nodes"], counters["depth"] = tree_size(root)
    return tracer.call("tree_models.predict_tree", tree_models.predict_tree, root, test_x)


def _replay_rfc(tracer, hp, seed, x, y, test_x, counters):
    model = tracer.call("tree_models.fit_random_forest", tree_models.fit_random_forest,
                        x, y, hp["n_trees"], _tree_params(hp), seed)
    counters["nodes"] = sum(tree_size(tree)[0] for tree in model.trees)
    return tracer.call("tree_models.predict_forest", tree_models.predict_forest, model, test_x)


def _replay_gbc(tracer, hp, seed, x, y, test_x, counters):
    model = tracer.call("tree_models.fit_gradient_boost", tree_models.fit_gradient_boost,
                        x, y, hp["n_stages"], hp["learning_rate"], hp["max_depth"], seed)
    counters["nodes"] = sum(tree_size(tree)[0] for stage in model.stages for tree in stage)
    return tracer.call("tree_models.predict_boost", tree_models.predict_boost, model, test_x)


def _replay_lda(tracer, hp, seed, x, y, test_x, counters):
    model = tracer.call("stat_models.fit_lda", stat_models.fit_lda, x, y)
    return tracer.call("stat_models.predict_lda", stat_models.predict_lda, model, test_x)


def _replay_gnb(tracer, hp, seed, x, y, test_x, counters):
    model = tracer.call("stat_models.fit_gnb", stat_models.fit_gnb, x, y)
    return tracer.call("stat_models.predict_gnb", stat_models.predict_gnb, model, test_x)


def _replay_knn(tracer, hp, seed, x, y, test_x, counters):
    model = tracer.call("stat_models.fit_knn", stat_models.fit_knn, x, y, hp["k"])
    return tracer.call("stat_models.predict_knn_batch", stat_models.predict_knn_batch,
                       model, test_x)


def _replay_svm(tracer, hp, seed, x, y, test_x, counters):
    """``fit_svm`` spelled out: gamma, one Gram matrix, four SMO solves."""
    gamma = hp["gamma"]
    if gamma is None:
        gamma = tracer.call("stat_models.scale_gamma", stat_models.scale_gamma, x)
    gram = tracer.call("stat_models.rbf_kernel_symmetric", stat_models.rbf_kernel_symmetric,
                       x, gamma)
    counters.update(kernel_bytes=gram.nbytes, smo_passes=0, support_vectors=0,
                    machines=N_CLASSES, converged=0)
    machines = []
    for k in range(N_CLASSES):
        yk = np.where(y == k, 1.0, -1.0)
        result = tracer.call("stat_models.smo_solve", stat_models.smo_solve, yk, gram,
                             hp["c"], hp["tol"], hp["max_passes"], derive_seed(seed, k))
        support = np.nonzero(result.alpha > 0)[0]
        machines.append(stat_models.BinaryMachine(
            support_vectors=x[support].copy(),
            dual_coef=result.alpha[support] * yk[support],
            bias=result.bias,
            converged=result.converged,
        ))
        counters["smo_passes"] += result.passes
        counters["support_vectors"] += int(support.size)
        counters["converged"] += int(result.converged)
    model = stat_models.SVMModel(machines=machines, gamma=gamma, c=hp["c"])
    return tracer.call("stat_models.predict_svm", stat_models.predict_svm, model, test_x)


CLASSIC_REPLAYS = {
    "dt": _replay_dt, "rfc": _replay_rfc, "gbc": _replay_gbc, "lda": _replay_lda,
    "gnb": _replay_gnb, "knn": _replay_knn, "svm": _replay_svm,
}


def _network(spec: evaluation.ModelSpec, model_seed: int) -> neural.Network:
    return neural.build_preset(evaluation.PRESET_BY_TAG[spec.algorithm], int(spec.width),
                               dropout=spec.hyperparams["dropout"],
                               init_seed=derive_seed(model_seed, 0))


def _train_config(spec: evaluation.ModelSpec, model_seed: int, epochs: int) -> neural.TrainConfig:
    hp = spec.hyperparams
    return neural.TrainConfig(batch_size=hp["batch_size"], epochs=epochs,
                              dropout=hp["dropout"], seed=derive_seed(model_seed, 1))


def replay_iteration(tracer: Tracer, spec: evaluation.ModelSpec, ds, seed: int):
    """``run_iteration`` through public calls: returns (accuracy, flag, counters)."""
    counters: dict = {}
    flag = ""
    with tracer.span("evaluation.iteration"):
        split = tracer.call("dataset.shuffle_split", shuffle_split, ds, seed)
        train_x = ds.features[split.train_indices]
        train_y = ds.labels[split.train_indices]
        test_x = ds.features[split.test_indices]
        test_y = ds.labels[split.test_indices]
        model_seed = derive_seed(seed, 1)
        if spec.is_neural:
            train_x, test_x, _ = tracer.call("dataset.standardize", standardize, train_x, test_x)
            net = tracer.call("neural.build_preset", _network, spec, model_seed)
            log = EpochLog()
            tracer.call("neural.train_network", neural.train_network, net, train_x, train_y,
                        _train_config(spec, model_seed, spec.hyperparams["epochs"]), log=log)
            counters["epoch_seconds"] = log.epoch_seconds()
            predicted = tracer.call("neural.predict", net.predict, test_x)
        else:
            predicted = CLASSIC_REPLAYS[spec.algorithm](tracer, spec.hyperparams, model_seed,
                                                        train_x, train_y, test_x, counters)
            if counters.get("converged", N_CLASSES) < N_CLASSES:
                flag = "unconverged"
        acc = evaluation.accuracy(predicted, test_y)
    return acc, flag, counters


def _replay_cell(tracer, spec, ds, seeds):
    """(accuracy, seconds, flag, counters) per iteration of one cell."""
    cell_id = tracer.trace_id
    results = []
    for i, seed in enumerate(seeds):
        tracer.trace_id = f"{cell_id}/{i}"
        start = time.perf_counter()
        acc, flag, counters = replay_iteration(tracer, spec, ds, seed)
        results.append((acc, time.perf_counter() - start, flag, counters))
    tracer.trace_id = cell_id
    return results


def replay_grid(tracer: Tracer, datasets: dict, tags, widths, cfg: evaluation.CVConfig,
                overrides: dict):
    """``run_table1`` cell by cell through ``replay_iteration``.

    Returns the report and a ``(tag, counters)`` pair per iteration.
    """
    seeds = [derive_seed(cfg.master_seed, i) for i in range(cfg.iterations)]
    cells = {}
    counters = []
    for tag in tags:
        for width in widths:
            spec = evaluation.ModelSpec(tag, width, dict(overrides.get(tag, {})))
            tracer.trace_id = f"{tag}/{int(width)}"
            with tracer.span("evaluation.cell"):
                results = _replay_cell(tracer, spec, datasets[width], seeds)
            cells[(tag, int(width))] = evaluation.CellResult(
                spec=spec, seeds=seeds,
                accuracies=np.array([r[0] for r in results]),
                seconds=np.array([r[1] for r in results]),
                flags=[r[2] for r in results],
            )
            counters += [(tag, r[3]) for r in results]
    report = evaluation.BenchmarkReport(cells=cells, iterations=cfg.iterations,
                                        master_seed=cfg.master_seed,
                                        version=wallfollow.__version__)
    return report, counters


def _state(net: neural.Network) -> list[np.ndarray]:
    running = [a for layer in net.layers if isinstance(layer, neural.BatchNorm)
               for a in (layer.running_mean, layer.running_var)]
    return net.parameters() + running


def replay_epoch(tracer: Tracer, spec: evaluation.ModelSpec, ds, seed: int):
    """Epoch one of iteration ``seed``'s training, by hand, checked against ``train_network``.

    Calls ``Network.forward``, every layer's ``backward`` and ``adadelta_step``
    in ``train_network``'s order, with a ``TimedLanes`` as the generator.
    Returns (weights equal, batches, lane values drawn).
    """
    split = shuffle_split(ds, seed)
    features, _, _ = standardize(ds.features[split.train_indices])
    labels = ds.labels[split.train_indices]
    model_seed = derive_seed(seed, 1)
    config = _train_config(spec, model_seed, 1)
    reference = neural.train_network(_network(spec, model_seed), features, labels, config)

    net = _network(spec, model_seed)
    for layer in net.layers:
        if isinstance(layer, neural.Dropout):
            layer.rate = config.dropout
    n = features.shape[0]
    onehot = (labels[:, None] == np.arange(N_CLASSES)[None, :]).astype(np.float64)
    rng = TimedLanes(tracer, XoshiroLanes(config.seed))
    state = neural.AdadeltaState(shapes=[p.shape for p in net.parameters()])
    has_bn = any(isinstance(layer, neural.BatchNorm) for layer in net.layers)
    batches = 0
    with tracer.span("neural.epoch"):
        perm = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            if idx.shape[0] == 1 and has_bn and n > 1:
                continue
            probs = tracer.call("neural.forward", net.forward, features[idx], True, rng)
            grad = (probs - onehot[idx]) / idx.shape[0]
            with tracer.span("neural.backward"):
                for layer in reversed(net.layers):
                    grad = layer.backward(grad)
            with tracer.span("neural.adadelta_step"):
                for p, delta in zip(net.parameters(),
                                    neural.adadelta_step(state, net.gradients())):
                    p += delta
            batches += 1
    same = all(np.array_equal(a, b) for a, b in zip(_state(reference), _state(net)))
    return same, batches, rng.values


def replay_scalar_draws(tracer: Tracer, ds, seeds, rfc_seeds, n_trees: int):
    """The split shuffles and RFC bootstrap draws through ``Xoshiro256StarStar``.

    ``seeds`` holds one iteration seed per (cell, iteration) of the grid and
    ``rfc_seeds`` the iteration seeds of the RFC cells.  Returns (draws, the
    replayed shuffles all equal ``shuffle_split``'s).
    """
    n = ds.n
    cut = train_size_for(n)
    draws = 0
    same = True
    for seed in seeds:
        items = list(range(n))
        tracer.call("rng.shuffle", Xoshiro256StarStar(seed).shuffle, items)
        draws += n - 1
        same &= np.array_equal(items[:cut], shuffle_split(ds, seed).train_indices)
    for seed in rfc_seeds:
        model_seed = derive_seed(seed, 1)
        for t in range(n_trees):
            rng = Xoshiro256StarStar(derive_seed(derive_seed(model_seed, t), 0))
            with tracer.span("rng.bootstrap"):
                for _ in range(cut):
                    rng.below(cut)
            draws += cut
    return draws, same


def span_seconds(spans, *names) -> float:
    return sum((end - start for name, start, end, _, _ in spans if name in names), 0.0)


def self_seconds(spans) -> dict[str, float]:
    """Per layer, span time not covered by the span's children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = dict.fromkeys(LAYERS, 0.0)
    for (name, start, end, _, _), child in zip(spans, covered):
        out[name.split(".")[0]] += end - start - child
    return out


def layer_metrics(spans, counters, epochs, scalar_draws, grid,
                  traced_grid_s: float) -> dict[str, float]:
    """Every ``LAYER_METRICS`` value of one traced run.

    ``counters`` are ``replay_grid``'s, ``epochs`` the ``replay_epoch``
    results and ``grid`` the untraced ``run.GridRun`` of the same run.
    """
    m = {name: span_seconds(spans, *names) for name, names in SPAN_SUMS.items()}
    for name in ("cli.data_verify", "cli.data_derive"):
        m[f"{name}_s"] = statistics.median(end - start for n, start, end, _, _ in spans
                                           if n == name)
    m["rng.scalar_draws"] = scalar_draws
    for tag in ("dt", "rfc", "gbc"):
        m[f"tree_models.nodes.{tag}"] = sum(c["nodes"] for t, c in counters if t == tag)
    m["tree_models.depth.dt"] = max((c["depth"] for t, c in counters if t == "dt"), default=0)
    svm = [c for t, c in counters if t == "svm"]
    for key in ("kernel_bytes", "smo_passes", "support_vectors"):
        m[f"stat_models.svm.{key}"] = sum(c[key] for c in svm)
    machines = sum(c["machines"] for c in svm)
    m["stat_models.svm.converged_frac"] = (
        sum(c["converged"] for c in svm) / machines if machines else 0.0)
    for tag in evaluation.NEURAL_TAGS:
        seconds = [s for t, c in counters if t == tag for s in c["epoch_seconds"]]
        m[f"neural.epoch_s.{tag}"] = sum(seconds) / len(seconds) if seconds else 0.0
    m["neural.batches"] = sum(batches for _, batches, _ in epochs)
    m["rng.lanes_values"] = sum(values for _, _, values in epochs)
    iteration_s = sum(float(cell.seconds.sum()) for cell in grid.report.cells.values())
    cell_s = sum(grid.cell_seconds)
    m["evaluation.iteration_s"] = iteration_s
    m["evaluation.cell_s"] = cell_s
    m["evaluation.worker_busy_frac"] = iteration_s / cell_s
    m["evaluation.render_s"] = grid.render_s
    m["evaluation.trace_overhead_s"] = traced_grid_s - grid.seconds
    for tag in evaluation.ALL_TAGS:
        m[f"evaluation.tag_s.{tag}"] = grid.tag_seconds.get(tag, 0.0)
    for layer, seconds in self_seconds(spans).items():
        m[f"self_s.{layer}"] = seconds
    return {name: m[name] for name in LAYER_METRICS}

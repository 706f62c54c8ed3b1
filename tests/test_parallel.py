"""``fork_map``: the SVM's solves and the forest's trees give the same bits forked or in turn,
a failure in a worker fails only its cell, and no worker outlives a fit.  ``made_ahead``: a
network trains to the same bits with its lane draws made in a forked worker or in turn,
forks only when the run draws dropout masks, and no draw worker, file descriptor or shared
mapping outlives a training run."""

import contextlib
import gc
import hashlib
import io
import json
import multiprocessing
import os
import pickle
import re
import threading
import time

import numpy as np
import pytest

from conftest import DT_PARAMS, SVM_HP, deep_tree_rows
from wallfollow import evaluation as ev
from wallfollow import neural as nn
from wallfollow import parallel
from wallfollow import serialize as sz
from wallfollow import stat_models as sm
from wallfollow import tree_models as tm
from wallfollow.dataset import Width
from wallfollow.parallel import fork_map
from wallfollow.rng import LANES, XoshiroLanes, derive_seed

pytestmark = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="fork_map forks only where the platform can")


def _digest(model) -> str:
    return hashlib.sha256(json.dumps(sz.encode_model(model), sort_keys=True)
                          .encode("utf-8")).hexdigest()


def _depth(root) -> int:
    deepest, stack = 0, [(root, 0)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        if not node.is_leaf:
            stack += [(node.left, level + 1), (node.right, level + 1)]
    return deepest


def test_fork_map_keeps_item_order_and_forks_only_where_it_may(fit_path):
    here = os.getpid()

    def part(i):  # a worker's own fork_map runs in that worker
        return i * i, os.getpid(), fork_map(lambda _: os.getpid(), range(2))

    fit_path(True)
    out = fork_map(part, range(5))
    assert [square for square, _, _ in out] == [0, 1, 4, 9, 16]
    assert all(pid != here and inner == [pid, pid] for _, pid, inner in out)
    assert fork_map(lambda _: os.getpid(), [7]) == [here]  # one item
    assert multiprocessing.active_children() == []
    fit_path(False)
    assert fork_map(lambda _: os.getpid(), range(3)) == [here] * 3


def _wait_for(done, seconds=30.0):
    deadline = time.monotonic() + seconds
    while not done() and time.monotonic() < deadline:
        time.sleep(0.01)


def test_a_second_thread_runs_its_fork_map_in_turn(fit_path, tmp_path):
    # a second call while the first call's workers run would fork as many again
    fit_path(True)
    release = tmp_path / "release"  # a file, which the forked workers see appear
    first = []

    def held(i):
        _wait_for(release.exists)
        return i

    thread = threading.Thread(target=lambda: first.append(fork_map(held, range(2))))
    thread.start()
    try:
        _wait_for(parallel._WORK_LOCK.locked)
        assert fork_map(lambda _: os.getpid(), range(2)) == [os.getpid()] * 2
    finally:
        release.touch()
        thread.join(30)
    assert not thread.is_alive() and first == [[0, 1]]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("model", ["svm", "rfc"])
@pytest.mark.parametrize("data", ["synth_full", "synth_d4", "synth_d2"])
def test_forked_and_serial_fits_are_identical(request, fit_path, model, data):
    ds = request.getfixturevalue(data)

    def fit():
        if model == "svm":
            return sm.fit_svm(ds.features, ds.labels, **SVM_HP, seed=5)
        return tm.fit_random_forest(ds.features, ds.labels, 6, DT_PARAMS, seed=5)

    fit_path(True)
    forked = _digest(fit())
    fit_path(False)
    assert forked == _digest(fit())


def test_forest_trees_deeper_than_pickle_reach_cross_as_lists(fit_path):
    # each row of the 1200-deep layout 20 times, so that a bootstrap misses none of
    # the first 700 values and every tree stays hundreds of levels deep
    features, labels = deep_tree_rows()
    rows = np.repeat(np.arange(700), 20)
    x, y = features[rows, :1], labels[rows]
    fit_path(True)
    forked = tm.fit_random_forest(x, y, 2, DT_PARAMS, seed=0)
    deepest = max(forked.trees, key=_depth)
    with pytest.raises(RecursionError):  # so a pickled TreeNode could not come back
        pickle.dumps(deepest)
    fit_path(False)
    assert _digest(forked) == _digest(tm.fit_random_forest(x, y, 2, DT_PARAMS, seed=0))


def _grid(synth_d2):
    cfg = ev.CVConfig(iterations=2, master_seed=3)
    report = ev.run_table1({Width.SIMPLIFIED2: synth_d2}, cfg, ["dt", "svm", "lda"])
    assert multiprocessing.active_children() == []
    assert [tag for (tag, _), cell in report.cells.items() if cell.error] == ["svm"]
    return report.cells[("svm", 2)].error


def test_a_dead_solver_worker_fails_only_the_svm_cell(synth_d2, monkeypatch, fit_path):
    def exit_worker(*args):
        os._exit(1)

    monkeypatch.setattr(sm, "smo_solve", exit_worker)
    fit_path(True)
    error = _grid(synth_d2)
    assert re.fullmatch(rf"svm/2 failed at iteration 0 \(seed {derive_seed(3, 0)}\): .+", error)


def test_a_raising_solver_keeps_the_serial_message(synth_d2, monkeypatch, fit_path):
    def raising(y, kernel, c, tol, max_passes, seed):
        raise ValueError(f"solver diverged at seed {seed}")

    monkeypatch.setattr(sm, "smo_solve", raising)
    fit_path(True)
    forked = _grid(synth_d2)
    fit_path(False)
    assert forked == _grid(synth_d2)
    seed = derive_seed(3, 0)
    assert forked == (f"svm/2 failed at iteration 0 (seed {seed}): solver diverged at seed "
                      f"{derive_seed(derive_seed(seed, 1), 0)}")


# ---------------------------------------------------------------------------
# a network's lane draws, made ahead in a forked worker
# ---------------------------------------------------------------------------

@pytest.fixture
def forks(monkeypatch):
    """The ``os.fork`` calls this process makes from here on, counted."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _rows(n, width, seed=0):
    rng = XoshiroLanes(1000 + width + seed)
    return rng.uniform(-2, 2, (n, width)), (rng.doubles(n) * 4).astype(np.int64)


def _no_batch_norm_net(width):
    """Dense -> relu -> dropout -> dense: dropout masks, and a singleton batch that trains."""
    net = nn.Network([nn.Dense(width, 8), nn.Relu(), nn.Dropout(0.1), nn.Dense(8, 4)])
    net.init_params(2)
    return net


def _state(net):
    running = [a for layer in net.layers if isinstance(layer, nn.BatchNorm)
               for a in (layer.running_mean, layer.running_var)]
    return net.parameters() + running


def _train_both_ways(fit_path, forks, build, features, labels, config):
    """The trained state and log of ``build()`` with the draws forced into a worker, then
    forced in process, and the forks each made."""
    runs = []
    for fork in (True, False):
        fit_path(fork)
        before = len(forks)
        log = io.StringIO()
        net = nn.train_network(build(), features, labels, config, log=log)
        assert multiprocessing.active_children() == []
        runs.append((_state(net), log.getvalue(), len(forks) - before))
    (forked, forked_log, forked_forks), (serial, serial_log, serial_forks) = runs
    assert len(forked) == len(serial)
    assert all(np.array_equal(a, b) for a, b in zip(forked, serial))
    assert forked_log == serial_log
    assert len(forked_log.splitlines()) == config.epochs
    assert serial_forks == 0
    return forked_forks


@pytest.mark.parametrize("width", [24, 4, 2])
@pytest.mark.parametrize("preset", nn.PRESET_NAMES)
def test_draws_made_ahead_train_the_same_network(fit_path, forks, preset, width):
    features, labels = _rows(75, width)  # two full batches and an 11-row tail
    config = nn.TrainConfig(batch_size=32, epochs=2, dropout=0.1, seed=17)
    made = _train_both_ways(fit_path, forks,
                            lambda: nn.build_preset(preset, width, 0.1, init_seed=6),
                            features, labels, config)
    # only DFNN_WS has dropout layers: DFNN3 and FNN1 draw one permutation an epoch
    assert made == (preset == "DFNN_WS")


@pytest.mark.parametrize("rows, batch_size, epochs, dropout", [
    (75, 32, 2, 0.0),  # no mask
    (75, 32, 0, 0.1),  # no draw at all
    (75, 32, 1, 0.1),
    (65, 32, 2, 0.1),  # a one-row remainder batch
    (9, 4, 3, 0.5),
])
@pytest.mark.parametrize("batch_norm", [True, False])
def test_draws_made_ahead_train_the_same_network_in_every_plan(
        fit_path, forks, rows, batch_size, epochs, dropout, batch_norm):
    features, labels = _rows(rows, 4, seed=rows)
    config = nn.TrainConfig(batch_size=batch_size, epochs=epochs, dropout=dropout, seed=3)
    if batch_norm:  # skips the singleton batch
        def build():
            return nn.build_preset("DFNN_WS", 4, 0.1, init_seed=5)
    else:  # trains on it, with a one-row mask
        def build():
            return _no_batch_norm_net(4)
    made = _train_both_ways(fit_path, forks, build, features, labels, config)
    assert made == (epochs > 0 and dropout > 0)


def test_a_dead_draw_worker_fails_the_training_run(fit_path, monkeypatch):
    def exit_worker(*args):
        os._exit(1)

    monkeypatch.setattr(parallel, "_make_ahead", exit_worker)
    features, labels = _rows(75, 4)
    fit_path(True)
    with pytest.raises(ValueError, match=r"^the draw worker exited \(code 1\) before making "
                                         r"block 1$"):
        nn.train_network(nn.build_preset("DFNN_WS", 4, 0.1), features, labels,
                         nn.TrainConfig(batch_size=32, epochs=2, dropout=0.1, seed=1))
    assert multiprocessing.active_children() == []


def test_a_dead_draw_worker_fails_only_its_grid_cell(synth_d2, fit_path, monkeypatch):
    def exit_worker(*args):
        os._exit(1)

    monkeypatch.setattr(parallel, "_make_ahead", exit_worker)
    fit_path(True)
    cfg = ev.CVConfig(iterations=2, master_seed=3)
    report = ev.run_table1({Width.SIMPLIFIED2: synth_d2}, cfg, ["dt", "dfnn_ws", "fnn1"],
                           overrides={"dfnn_ws": {"epochs": 1}, "fnn1": {"epochs": 1}})
    assert multiprocessing.active_children() == []
    assert [tag for (tag, _), cell in report.cells.items() if cell.error] == ["dfnn_ws"]
    assert re.fullmatch(rf"dfnn_ws/2 failed at iteration 0 \(seed {derive_seed(3, 0)}\): "
                        r"the draw worker exited \(code 1\) .+",
                        report.cells[("dfnn_ws", 2)].error)


def _overflowing_dense_init(self, rng):
    # weights so large that the second dense layer overflows to inf
    self.weight = 1e200 * rng.uniform(-1, 1, (self.n_out, self.n_in))
    self.bias = np.zeros(self.n_out)


@pytest.mark.parametrize("fork", [True, False])
def test_a_diverging_run_keeps_its_message_and_leaves_no_worker(fit_path, forks, monkeypatch,
                                                                fork):
    monkeypatch.setattr(nn.Dense, "init_params", _overflowing_dense_init)
    features, labels = _rows(75, 4)
    fit_path(fork)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="non-finite weights after epoch 1$"):
        nn.train_network(_no_batch_norm_net(4), features, labels,
                         nn.TrainConfig(batch_size=8, epochs=3, dropout=0.1, seed=1))
    assert len(forks) == fork  # the worker was still drawing epochs 2 and 3
    assert multiprocessing.active_children() == []


def _held():
    """This process's open file descriptors and anonymous shared mappings (a ring is
    one), counted once garbage is collected."""
    gc.collect()
    with open("/proc/self/maps", encoding="utf-8") as maps:
        fields = [line.split(maxsplit=5) for line in maps]
    shared = sum(1 for f in fields
                 if f[1].endswith("s") and f[5:] in ([], ["/dev/zero (deleted)\n"]))
    return len(os.listdir("/proc/self/fd")), shared


def _normally(monkeypatch):
    return contextlib.nullcontext()


def _diverging(monkeypatch):
    monkeypatch.setattr(nn.Dense, "init_params", _overflowing_dense_init)
    return pytest.raises(ValueError, match="non-finite weights after epoch 1$")


def _dying(monkeypatch):
    monkeypatch.setattr(parallel, "_make_ahead", lambda *args: os._exit(1))
    return pytest.raises(ValueError, match=r"^the draw worker exited \(code 1\)")


# a guard: no forked training run has been seen to leave either behind
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc/self")
@pytest.mark.parametrize("ending", [_normally, _diverging, _dying])
def test_a_forked_training_run_leaves_no_descriptor_or_mapping(fit_path, forks, monkeypatch,
                                                               ending):
    features, labels = _rows(75, 4)
    fit_path(True)
    expect = ending(monkeypatch)
    before = _held()
    with np.errstate(over="ignore", invalid="ignore"), expect:
        nn.train_network(_no_batch_norm_net(4), features, labels,
                         nn.TrainConfig(batch_size=8, epochs=3, dropout=0.1, seed=1))
    del expect  # its traceback holds the run's frames; the grid keeps only the message
    assert len(forks) == 1 and multiprocessing.active_children() == []
    assert _held() == before


BLOCK = 3 * LANES  # values in each block of the ring tests


def test_made_ahead_wraps_its_ring_and_keeps_the_order(fit_path, forks):
    fit_path(True)
    lanes = XoshiroLanes(5)
    with parallel.made_ahead(lambda: lanes.doubles(BLOCK), BLOCK) as blocks:
        forked = [next(blocks).copy() for _ in range(3 * parallel.RING_SLOTS + 1)]
    assert len(forks) == 1 and multiprocessing.active_children() == []
    lanes = XoshiroLanes(5)
    assert all(np.array_equal(block, lanes.doubles(BLOCK)) for block in forked)


def test_a_reader_that_stops_early_leaves_no_worker(fit_path):
    fit_path(True)
    lanes = XoshiroLanes(5)
    with parallel.made_ahead(lambda: lanes.doubles(BLOCK), BLOCK) as blocks:
        first = next(blocks).copy()
    assert multiprocessing.active_children() == []
    assert np.array_equal(first, XoshiroLanes(5).doubles(BLOCK))


def test_a_draw_worker_that_dies_midway_fails_the_next_slot(fit_path):
    made = []

    def dies_at_ten():  # in the worker: its own copy of ``made``
        made.append(1)
        if len(made) == 10:
            os._exit(3)
        return np.full(BLOCK, float(len(made)))

    fit_path(True)
    read = []
    with pytest.raises(ValueError, match=r"^the draw worker exited \(code 3\) before making "
                                         r"block 10$"):
        with parallel.made_ahead(dies_at_ten, BLOCK) as blocks:
            for block in blocks:
                read.append(block[0])
    assert read == list(range(1, 10)) and made == []
    assert multiprocessing.active_children() == []

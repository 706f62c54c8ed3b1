"""``fork_map``: the SVM's solves and the forest's trees give the same bits forked or in turn,
a failure in a worker fails only its cell, and no worker outlives a fit."""

import hashlib
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
from wallfollow import parallel
from wallfollow import serialize as sz
from wallfollow import stat_models as sm
from wallfollow import tree_models as tm
from wallfollow.dataset import Width
from wallfollow.parallel import fork_map
from wallfollow.rng import derive_seed

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
    # the workers of the first call read its (fn, items); a second call must not replace them
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

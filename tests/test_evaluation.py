import concurrent.futures.process
import inspect
import multiprocessing
import os
import re
import time

import numpy as np
import pytest

from conftest import contract_set
from wallfollow import evaluation as ev
from wallfollow import neural as nn
from wallfollow import stat_models as sm
from wallfollow import tree_models as tm
from wallfollow.dataset import Dataset, Width, shuffle_split
from wallfollow.rng import derive_seed


def test_accuracy_basics():
    assert ev.accuracy([0, 1, 2, 3], [0, 1, 2, 3]) == 1.0
    assert ev.accuracy([0, 0, 0], [1, 1, 1]) == 0.0
    assert ev.accuracy([0, 1, 2, 2], [0, 1, 2, 3]) == 0.75


def test_accuracy_errors():
    with pytest.raises(ValueError, match="mismatch"):
        ev.accuracy([0, 1], [0, 1, 2])
    with pytest.raises(ValueError, match="empty"):
        ev.accuracy([], [])


@pytest.mark.parametrize("tag, hp", [("dt", {}), ("rfc", {"n_trees": 2}),
                                     ("gbc", {"n_stages": 2}), ("svm", {}),
                                     ("dfnn3", {"epochs": 1})],
                         ids=["dt", "rfc", "gbc", "svm", "dfnn3"])
def test_prediction_refuses_a_non_finite_input(synth_d4, tag, hp):
    # a NaN row used to get a class: 3 from DT, 0 from the SVM and DFNN3
    entry = ev.MODELS[tag]
    model = entry.fit(synth_d4.features, synth_d4.labels, entry.defaults | hp, 1)
    x = synth_d4.features[:5].copy()
    x[2, 1] = np.nan
    width = "any" if tag in _WIDTH_FREE else "4"
    with pytest.raises(ValueError, match=rf"^features must hold finite real numbers in shape "
                                         rf"\(any, {width}\), got non-finite values in shape "
                                         r"\(5, 4\)$"):
        entry.predict(model, x)


def test_model_spec_defaults_and_overrides():
    spec = ev.ModelSpec("knn", Width.SIMPLIFIED2)
    assert spec.hyperparams["k"] == 5
    spec = ev.ModelSpec("knn", Width.SIMPLIFIED2, {"k": 3})
    assert spec.hyperparams["k"] == 3
    with pytest.raises(ValueError, match="unknown algorithm"):
        ev.ModelSpec("mlp", Width.SIMPLIFIED2)
    with pytest.raises(ValueError, match="unknown hyperparameters"):
        ev.ModelSpec("knn", Width.SIMPLIFIED2, {"neighbours": 3})


# The package callables that each model's fit hands its hyperparameters to.
_NETWORK_FIT = (nn.build_preset, nn.TrainConfig, nn.train_network)
_FIT_PATHS = {
    "dfnn_ws": _NETWORK_FIT, "dfnn3": _NETWORK_FIT, "fnn1": _NETWORK_FIT,
    "dt": (tm.fit_decision_tree, tm.TreeParams),
    "gbc": (tm.fit_gradient_boost, tm.TreeParams),
    "rfc": (tm.fit_random_forest, tm.TreeParams),
    "lda": (sm.fit_lda,),
    "svm": (sm.fit_svm, sm.smo_solve),
    "knn": (sm.fit_knn,),
    "gnb": (sm.fit_gnb,),
}


@pytest.mark.parametrize("tag", ev.ALL_TAGS)
def test_hyperparameter_defaults_live_only_in_models(tag):
    # a default written again on the fit path would not follow an edit to MODELS
    names = set(ev.MODELS[tag].defaults)
    if tm.TreeParams in _FIT_PATHS[tag]:
        names.add("params")
    for fn in _FIT_PATHS[tag]:
        defaulted = {name for name, p in inspect.signature(fn).parameters.items()
                     if p.default is not p.empty}
        assert not defaulted & names, fn.__qualname__


# Hyperparameters that keep every fit on 32 rows well under a second.
_SMALL_HP = {"n_trees": 2, "n_stages": 2, "epochs": 1, "max_passes": 20}


def _with(a, index, value):
    a = a.copy()
    a[index] = value
    return a


# Each malformed training set, made from a valid (x, y), with the message the
# contract gives it.  A network meets a zero-column set in ``build_preset``.
_MALFORMED = {
    "nan-feature": (lambda x, y: (_with(x, (3, 1), np.nan), y),
                    r"^features must hold finite real numbers in shape \(any, any\), "
                    r"got non-finite values in shape \(32, 4\)$"),
    # used to raise numpy's TypeError "ufunc 'isfinite' not supported"
    "string-features": (lambda x, y: (x.astype(str), y),
                        r"^features must hold finite real numbers in shape \(any, any\), "
                        r"got <U\d+ in shape \(32, 4\)$"),
    "label-4": (lambda x, y: (x, _with(y, 0, 4)), r"labels must lie in 0\.\.3"),
    "label-minus-1": (lambda x, y: (x, _with(y, 0, -1)), r"labels must lie in 0\.\.3"),
    "one-label-too-few": (lambda x, y: (x, y[:-1]), "labels has 31 rows but features has 32"),
    "zero-rows": (lambda x, y: (x[:0], y[:0]), "empty"),
    "zero-columns": (lambda x, y: (x[:, :0], y), "no columns|input_width must be >= 1"),
}


def _small_hp(tag):
    defaults = ev.MODELS[tag].defaults
    return {**defaults, **{k: v for k, v in _SMALL_HP.items() if k in defaults}}


@pytest.mark.parametrize("case", _MALFORMED)
@pytest.mark.parametrize("tag", ev.ALL_TAGS)
def test_every_model_rejects_a_malformed_training_set(synth_d4, tag, case):
    # the one contract, dataset.check_training_set, applies to all ten fits
    make, match = _MALFORMED[case]
    x, y = make(*contract_set(synth_d4))
    with pytest.raises(ValueError, match=match):
        ev.MODELS[tag].fit(x, y, _small_hp(tag), 0)


def test_cv_config_validation():
    with pytest.raises(ValueError):
        ev.CVConfig(iterations=0, master_seed=0)
    with pytest.raises(ValueError, match="^iterations must be an integer, got 2.5$"):
        ev.CVConfig(iterations=2.5, master_seed=0)


@pytest.mark.parametrize("seed", [True, 1.5, "1"], ids=["bool", "float", "string"])
def test_cv_config_master_seed_must_be_an_integer(seed):
    # True used to run and print "master seed True"; 1.5 failed later, inside run_table1
    with pytest.raises(ValueError, match=f"^master_seed must be an integer, got {seed!r}$"):
        ev.CVConfig(iterations=1, master_seed=seed)
    assert ev.CVConfig(iterations=1, master_seed=-1).master_seed == -1  # as --seed -1 gives


# Models that store no input width: a tree reads only its split features.
_WIDTH_FREE = ("dt", "rfc", "gbc")


@pytest.mark.parametrize("tag", ev.ALL_TAGS)
def test_every_model_that_stores_a_width_refuses_other_widths_alike(synth_d4, tag):
    # a network used to fail inside numpy, the SVM with a message of its own
    model = ev.MODELS[tag].fit(synth_d4.features, synth_d4.labels, _small_hp(tag), 1)
    x = synth_d4.features[:5]
    wide = np.hstack([x, x[:, :2]])
    if tag in _WIDTH_FREE:
        assert np.array_equal(ev.MODELS[tag].predict(model, wide),
                              ev.MODELS[tag].predict(model, x))
        return
    for rows in (x[:, :3], wide):
        with pytest.raises(ValueError, match=r"^features must hold finite real numbers in "
                                             rf"shape \(any, 4\), got float64 in shape "
                                             rf"\(5, {rows.shape[1]}\)$"):
            ev.MODELS[tag].predict(model, rows)


def _cell(ds, tag, cfg, jobs=1, overrides=None):
    report = ev.run_table1({ds.width: ds}, cfg, [tag], jobs=jobs, overrides=overrides)
    return report.cells[(tag, int(ds.width))]


def test_monte_carlo_deterministic(synth_d2):
    cfg = ev.CVConfig(iterations=4, master_seed=7)
    a = _cell(synth_d2, "dt", cfg)
    b = _cell(synth_d2, "dt", cfg)
    assert np.array_equal(a.accuracies, b.accuracies)
    assert a.seeds == b.seeds
    assert (a.accuracies >= 0).all() and (a.accuracies <= 1).all()


def test_monte_carlo_parallel_equals_serial(synth_d2):
    cfg = ev.CVConfig(iterations=6, master_seed=3)
    serial = _cell(synth_d2, "dt", cfg, jobs=1)
    parallel = _cell(synth_d2, "dt", cfg, jobs=4)
    assert np.array_equal(serial.accuracies, parallel.accuracies)
    assert serial.seeds == parallel.seeds


def test_parallel_failure_names_cell_iteration_and_seed(synth_d2):
    # class 3 keeps two rows, so LDA fails on every split that holds one out
    rows = np.sort(np.concatenate([np.flatnonzero(synth_d2.labels != 3),
                                   np.flatnonzero(synth_d2.labels == 3)[:2]]))
    ds = Dataset(synth_d2.features[rows], synth_d2.labels[rows])
    rare = np.flatnonzero(ds.labels == 3)

    def first_failure(master_seed):
        for i in range(4):
            seed = derive_seed(master_seed, i)
            if np.isin(rare, shuffle_split(ds, seed).test_indices).any():
                return i, seed
        return None

    # a master seed whose first failing iteration is not the first one
    candidates = ((m, first_failure(m)) for m in range(500))
    master, (index, seed) = next((m, f) for m, f in candidates if f is not None and f[0] > 0)
    cfg = ev.CVConfig(iterations=4, master_seed=master)
    report = ev.run_table1({Width.SIMPLIFIED2: ds}, cfg, algorithms=["lda"], jobs=2)
    error = report.cells[("lda", 2)].error
    assert error.startswith(f"lda/2 failed at iteration {index} (seed {seed}): ")
    assert "class 3 has fewer than 2 training rows" in error
    assert _cell(ds, "lda", cfg, jobs=1).error == error


def test_run_table1_starts_one_pool_of_at_most_one_worker_per_task(synth_d2, monkeypatch):
    workers = []

    class CountingPool(concurrent.futures.process.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", CountingPool)
    cfg = ev.CVConfig(iterations=2, master_seed=1)
    datasets = {Width.SIMPLIFIED2: synth_d2}
    serial = ev.run_table1(datasets, cfg, ["dt", "gnb"], jobs=1)
    assert workers == []
    parallel = ev.run_table1(datasets, cfg, ["dt", "gnb"], jobs=2)
    assert workers == [2]
    assert ev.report_csv(parallel) == ev.report_csv(serial)
    ev.run_table1(datasets, ev.CVConfig(iterations=1, master_seed=0), ["dt"], jobs=2)
    assert workers == [2, 1]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="monkeypatch reaches pool workers only when they are forked")
def test_dead_worker_fails_the_cells_it_lost_with_context(synth_d2, monkeypatch):
    def exit_worker(x, y, hp, seed):
        os._exit(1)

    monkeypatch.setitem(ev.MODELS, "gnb", ev.Model("exits", {}, exit_worker, None))
    cfg = ev.CVConfig(iterations=3, master_seed=4)
    report = ev.run_table1({Width.SIMPLIFIED2: synth_d2}, cfg, ["dt", "gnb", "lda"], jobs=2)
    assert report.cells[("gnb", 2)].error is not None
    for (tag, _), cell in report.cells.items():
        if cell.error is None:
            assert cell.seeds == [derive_seed(4, i) for i in range(3)]
            assert cell.accuracies.shape == cell.seconds.shape == (3,)
            assert np.isfinite(cell.accuracies).all() and len(cell.flags) == 3
        else:
            found = re.fullmatch(rf"{tag}/2 failed at iteration (\d+) \(seed (\d+)\): .+",
                                 cell.error)
            assert found and int(found[2]) == derive_seed(4, int(found[1]))
            assert cell.seeds == [] and cell.accuracies.size == cell.seconds.size == 0


def test_failed_cell_runs_no_iteration_after_its_first_failure(synth_d2, monkeypatch):
    seeds = []

    def failing_fit(x, y, hp, seed):
        seeds.append(seed)
        raise RuntimeError("diverged")

    monkeypatch.setitem(ev.MODELS, "gnb", ev.Model("fails", {}, failing_fit, None))
    cell = _cell(synth_d2, "gnb", ev.CVConfig(iterations=5, master_seed=2))
    assert cell.error == f"gnb/2 failed at iteration 0 (seed {derive_seed(2, 0)}): diverged"
    assert len(seeds) == 1


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="monkeypatch reaches pool workers only when they are forked")
def test_failed_cell_cancels_its_tasks_not_started(synth_d2, monkeypatch, tmp_path):
    # iteration 0 fails at once and every other one takes 0.5 s, so the two
    # workers have started only a few of the 24 tasks when the failure is read
    first_seed = derive_seed(2, 0)
    log = tmp_path / "fit-calls"

    def slow_failing_fit(x, y, hp, seed):
        with open(log, "a") as f:
            f.write(f"{seed}\n")
        if seed != first_seed:
            time.sleep(0.5)
        raise RuntimeError("diverged")

    monkeypatch.setitem(ev.MODELS, "gnb", ev.Model("fails", {}, slow_failing_fit, None))
    cell = _cell(synth_d2, "gnb", ev.CVConfig(iterations=24, master_seed=2), jobs=2)
    assert cell.error == f"gnb/2 failed at iteration 0 (seed {first_seed}): diverged"
    assert len(log.read_text().splitlines()) < 24


def test_monte_carlo_summary_stats(synth_d4):
    cell = _cell(synth_d4, "gnb", ev.CVConfig(iterations=5, master_seed=1))
    assert cell.mean == pytest.approx(float(np.mean(cell.accuracies)), abs=1e-12)
    assert cell.std == pytest.approx(float(np.std(cell.accuracies, ddof=1)), abs=1e-12)
    assert cell.std >= 0.0
    assert len(cell.seeds) == 5
    assert cell.seconds.shape == (5,)


def test_monte_carlo_width_mismatch(synth_d2):
    with pytest.raises(ValueError, match="width"):
        ev.run_table1({Width.SIMPLIFIED4: synth_d2}, ev.CVConfig(iterations=1, master_seed=0),
                      ["dt"])


def test_run_table1_takes_plain_int_widths(synth_d2):
    cfg = ev.CVConfig(iterations=1, master_seed=0)
    expected = ev.run_table1({Width.SIMPLIFIED2: synth_d2}, cfg, ["dt"])
    for datasets, widths in (({Width.SIMPLIFIED2: synth_d2}, [2]), ({2: synth_d2}, None)):
        report = ev.run_table1(datasets, cfg, ["dt"], widths)
        assert np.array_equal(report.cells[("dt", 2)].accuracies,
                              expected.cells[("dt", 2)].accuracies)
    with pytest.raises(ValueError, match="^dataset width SIMPLIFIED2 is not SIMPLIFIED4$"):
        ev.run_table1({4: synth_d2}, cfg, ["dt"])


def test_different_master_seeds_use_different_splits(synth_d2):
    first = shuffle_split(synth_d2, derive_seed(1, 0))
    second = shuffle_split(synth_d2, derive_seed(2, 0))
    assert not np.array_equal(first.train_indices, second.train_indices)


def test_iteration_seed_derivation_matches_contract(synth_d2):
    cfg = ev.CVConfig(iterations=3, master_seed=42)
    expected = [derive_seed(42, i) for i in range(3)]
    cell = _cell(synth_d2, "dt", cfg)
    assert cell.seeds == expected


def test_neural_spec_through_monte_carlo(synth_d2):
    cell = _cell(synth_d2, "fnn1", ev.CVConfig(iterations=2, master_seed=9),
                 overrides={"fnn1": {"epochs": 2}})
    assert cell.accuracies.shape == (2,)
    assert (cell.accuracies > 0.2).all()  # better than chance on 4 classes


def test_run_table1_restricted_model_list(synth_full, synth_d4, synth_d2):
    datasets = {Width.FULL24: synth_full, Width.SIMPLIFIED4: synth_d4,
                Width.SIMPLIFIED2: synth_d2}
    report = ev.run_table1(datasets, ev.CVConfig(iterations=2, master_seed=3), ["dt"])
    assert len(report.cells) == 3
    assert set(report.cells) == {("dt", 24), ("dt", 4), ("dt", 2)}


def test_run_table1_rejects_unknown_tag(synth_d2):
    with pytest.raises(ValueError, match="unknown algorithm"):
        ev.run_table1({Width.SIMPLIFIED2: synth_d2}, ev.CVConfig(iterations=1, master_seed=0),
                      ["xgb"])


@pytest.mark.parametrize("overrides, message", [
    ({"dtt": {"max_depth": 1}}, "unknown algorithm tag 'dtt'"),
    ({"rfc": {"n_tree": 5}}, "unknown hyperparameters for rfc: ['n_tree']"),
], ids=["unknown-tag", "unknown-hyperparameter"])
def test_run_table1_checks_every_override(synth_d2, overrides, message):
    # each used to be dropped: dt ran with its defaults, and rfc was not in the run
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _cell(synth_d2, "dt", ev.CVConfig(iterations=1, master_seed=0), overrides=overrides)


def test_run_table1_rejects_repeated_tags_and_widths(synth_d2):
    # the report keys cells by (tag, width), so a repeat would run cells it cannot report
    datasets, cfg = {Width.SIMPLIFIED2: synth_d2}, ev.CVConfig(iterations=1, master_seed=0)
    with pytest.raises(ValueError, match=r"^repeated algorithm tag in \['dt', 'gnb', 'dt'\]$"):
        ev.run_table1(datasets, cfg, ["dt", "gnb", "dt"])
    with pytest.raises(ValueError, match=r"^repeated width in \[2, 2\]$"):
        ev.run_table1(datasets, cfg, ["dt"], [Width.SIMPLIFIED2, 2])


@pytest.mark.parametrize("jobs", [0, -1, 1.5, True])
def test_run_table1_checks_jobs(synth_d2, jobs):
    # 0 and -1 used to fail inside the process pool, naming no option
    datasets, cfg = {Width.SIMPLIFIED2: synth_d2}, ev.CVConfig(iterations=1, master_seed=0)
    with pytest.raises(ValueError, match=r"^jobs must be (an integer|>= 1), got "):
        ev.run_table1(datasets, cfg, ["dt"], jobs=jobs)


def test_run_table1_marks_failed_cells(synth_d2):
    # knn with k larger than any training fold must fail; dt must survive
    datasets = {Width.SIMPLIFIED2: synth_d2}
    cfg = ev.CVConfig(iterations=1, master_seed=0)
    report = ev.run_table1(datasets, cfg, ["dt", "knn"], widths=[Width.SIMPLIFIED2],
                           overrides={"knn": {"k": 10**6}})
    assert report.cells[("dt", 2)].error is None
    failed = report.cells[("knn", 2)]
    assert failed.error is not None and "iteration 0" in failed.error
    assert "failed" in ev.render_table1(report)


def test_run_table1_fails_batch_norm_cell_with_batch_size_one(synth_d2):
    report = ev.run_table1({Width.SIMPLIFIED2: synth_d2},
                           ev.CVConfig(iterations=1, master_seed=0),
                           ["dfnn_ws"], overrides={"dfnn_ws": {"batch_size": 1, "epochs": 1}})
    error = report.cells[("dfnn_ws", 2)].error
    assert error is not None and "batch size 1" in error


def test_run_table1_names_cell_and_epoch_of_diverged_training(synth_d2, monkeypatch):
    # weights large enough that the second dense layer overflows to inf
    def overflowing_init(self, rng):
        self.weight = 1e200 * rng.uniform(-1, 1, (self.n_out, self.n_in))
        self.bias = np.zeros(self.n_out)

    monkeypatch.setattr(nn.Dense, "init_params", overflowing_init)
    cfg = ev.CVConfig(iterations=1, master_seed=3)
    with np.errstate(over="ignore", invalid="ignore"):
        report = ev.run_table1({Width.SIMPLIFIED2: synth_d2}, cfg, ["dfnn3"],
                               overrides={"dfnn3": {"epochs": 2}})
    error = report.cells[("dfnn3", 2)].error
    assert error == (f"dfnn3/2 failed at iteration 0 (seed {derive_seed(3, 0)}): "
                     "training diverged: non-finite weights after epoch 1")


def test_render_table1_layout(synth_d2):
    report = ev.run_table1({Width.SIMPLIFIED2: synth_d2},
                           ev.CVConfig(iterations=2, master_seed=1), ["dt"],
                           widths=[Width.SIMPLIFIED2])
    text = ev.render_table1(report)
    assert "| Decision Tree (DT) |" in text
    assert "Gated Recurrent Unit (GRU) | out of scope" in text
    assert "Long Short Term Memory (LSTM) | out of scope" in text
    assert "Mean Accuracy (24 Sensors)" in text
    assert "master seed 1" in text
    # percentages carry two decimals
    assert any("%" in line and "." in line for line in text.splitlines()
               if "Decision Tree" in line)


def test_render_table2_contents(synth_full, synth_d4, synth_d2):
    datasets = {Width.FULL24: synth_full, Width.SIMPLIFIED4: synth_d4,
                Width.SIMPLIFIED2: synth_d2}
    cfg = ev.CVConfig(iterations=2, master_seed=5)
    report = ev.run_table1(datasets, cfg, ["dt", "gbc"])
    text = ev.render_table2(report)
    assert "98.8%" in text  # best prior on 2 sensors
    assert "93.3%" in text  # best prior on 4 sensors
    assert "99.63%" in text  # best prior on 24 sensors
    assert "< 80%" in text
    assert "this run" in text
    assert text.count("## ") == 3


def test_render_table2_requires_cells(synth_d2):
    report = ev.run_table1({Width.SIMPLIFIED2: synth_d2},
                           ev.CVConfig(iterations=1, master_seed=0), ["dt"],
                           widths=[Width.SIMPLIFIED2])
    with pytest.raises(ValueError, match="needs a successful"):
        ev.render_table2(report)


def test_report_csv_format_and_determinism(synth_d2):
    cfg = ev.CVConfig(iterations=3, master_seed=11)
    a = ev.run_table1({Width.SIMPLIFIED2: synth_d2}, cfg, ["dt", "gnb"],
                      widths=[Width.SIMPLIFIED2])
    b = ev.run_table1({Width.SIMPLIFIED2: synth_d2}, cfg, ["dt", "gnb"],
                      widths=[Width.SIMPLIFIED2])
    csv_a, csv_b = ev.report_csv(a), ev.report_csv(b)
    assert csv_a == csv_b
    lines = csv_a.strip().splitlines()
    assert lines[0] == "model,width,iteration,seed,accuracy"
    assert len(lines) == 1 + 2 * 3
    first = lines[1].split(",")
    assert first[0] in ("dt", "gnb")
    assert first[1] == "2"
    float(first[4])
    int(first[3])

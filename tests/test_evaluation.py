import numpy as np
import pytest

from wallfollow import evaluation as ev
from wallfollow import neural as nn
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


def test_model_spec_defaults_and_overrides():
    spec = ev.ModelSpec("knn", Width.SIMPLIFIED2)
    assert spec.hyperparams["k"] == 5
    spec = ev.ModelSpec("knn", Width.SIMPLIFIED2, {"k": 3})
    assert spec.hyperparams["k"] == 3
    with pytest.raises(ValueError, match="unknown algorithm"):
        ev.ModelSpec("mlp", Width.SIMPLIFIED2)
    with pytest.raises(ValueError, match="unknown hyperparameters"):
        ev.ModelSpec("knn", Width.SIMPLIFIED2, {"neighbours": 3})


def test_cv_config_validation():
    with pytest.raises(ValueError):
        ev.CVConfig(iterations=0)


def test_monte_carlo_deterministic(synth_d2):
    spec = ev.ModelSpec("dt", Width.SIMPLIFIED2)
    cfg = ev.CVConfig(iterations=4, master_seed=7)
    a = ev.monte_carlo(spec, synth_d2, cfg)
    b = ev.monte_carlo(spec, synth_d2, cfg)
    assert np.array_equal(a.accuracies, b.accuracies)
    assert a.seeds == b.seeds
    assert (a.accuracies >= 0).all() and (a.accuracies <= 1).all()


def test_monte_carlo_parallel_equals_serial(synth_d2):
    spec = ev.ModelSpec("dt", Width.SIMPLIFIED2)
    cfg = ev.CVConfig(iterations=6, master_seed=3)
    serial = ev.monte_carlo(spec, synth_d2, cfg, jobs=1)
    parallel = ev.monte_carlo(spec, synth_d2, cfg, jobs=4)
    assert np.array_equal(serial.accuracies, parallel.accuracies)
    assert serial.seeds == parallel.seeds


def test_parallel_failure_names_cell_iteration_and_seed(synth_d2):
    # class 3 keeps two rows, so LDA fails on every split that holds one out
    rows = np.sort(np.concatenate([np.flatnonzero(synth_d2.labels != 3),
                                   np.flatnonzero(synth_d2.labels == 3)[:2]]))
    ds = Dataset(synth_d2.features[rows], synth_d2.labels[rows], Width.SIMPLIFIED2)
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
    with pytest.raises(RuntimeError) as serial:
        ev.monte_carlo(ev.ModelSpec("lda", Width.SIMPLIFIED2), ds, cfg, jobs=1)
    assert str(serial.value) == error


def test_monte_carlo_summary_stats(synth_d4):
    spec = ev.ModelSpec("gnb", Width.SIMPLIFIED4)
    cell = ev.monte_carlo(spec, synth_d4, ev.CVConfig(iterations=5, master_seed=1))
    assert cell.mean == pytest.approx(float(np.mean(cell.accuracies)), abs=1e-12)
    assert cell.std == pytest.approx(float(np.std(cell.accuracies, ddof=1)), abs=1e-12)
    assert cell.std >= 0.0
    assert len(cell.seeds) == 5
    assert cell.seconds.shape == (5,)


def test_monte_carlo_width_mismatch(synth_d2):
    spec = ev.ModelSpec("dt", Width.SIMPLIFIED4)
    with pytest.raises(ValueError, match="width"):
        ev.monte_carlo(spec, synth_d2, ev.CVConfig(iterations=1))


def test_different_master_seeds_use_different_splits(synth_d2):
    first = shuffle_split(synth_d2, derive_seed(1, 0))
    second = shuffle_split(synth_d2, derive_seed(2, 0))
    assert not np.array_equal(first.train_indices, second.train_indices)


def test_iteration_seed_derivation_matches_contract(synth_d2):
    cfg = ev.CVConfig(iterations=3, master_seed=42)
    expected = [derive_seed(42, i) for i in range(3)]
    cell = ev.monte_carlo(ev.ModelSpec("dt", Width.SIMPLIFIED2), synth_d2, cfg)
    assert cell.seeds == expected


def test_neural_spec_through_monte_carlo(synth_d2):
    spec = ev.ModelSpec("fnn1", Width.SIMPLIFIED2, {"epochs": 2})
    cell = ev.monte_carlo(spec, synth_d2, ev.CVConfig(iterations=2, master_seed=9))
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
        ev.run_table1({Width.SIMPLIFIED2: synth_d2}, ev.CVConfig(iterations=1), ["xgb"])


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
    report = ev.run_table1({Width.SIMPLIFIED2: synth_d2}, ev.CVConfig(iterations=1),
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
                           ev.CVConfig(iterations=1), ["dt"],
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

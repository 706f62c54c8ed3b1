"""Tests of the benchmark itself: inputs, replay fidelity and the JSON schema.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
from wallfollow import cli, evaluation, stat_models  # noqa: E402
from wallfollow.dataset import Width, load_dataset  # noqa: E402

SMALL_OVERRIDES = {
    "rfc": {"n_trees": 3},
    "gbc": {"n_stages": 3},
    "dfnn_ws": {"epochs": 2},
    "dfnn3": {"epochs": 2},
    "fnn1": {"epochs": 2},
}
WIDTHS = (Width.FULL24, Width.SIMPLIFIED4, Width.SIMPLIFIED2)


@pytest.fixture(scope="module")
def small_trio(tmp_path_factory) -> dict:
    directory = tmp_path_factory.mktemp("trio")
    gen.write_trio(3, directory, rows=600)
    return {w: load_dataset(directory / name, w) for w, name in zip(WIDTHS, gen.FILE_NAMES)}


def test_generator_is_a_function_of_the_seed(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        gen.write_trio(seed, tmp_path / name, rows=300)
    for file_name in gen.FILE_NAMES:
        same = (tmp_path / "a" / file_name).read_bytes()
        assert same == (tmp_path / "b" / file_name).read_bytes()
        assert same != (tmp_path / "c" / file_name).read_bytes()


def test_generated_trio_passes_verify_and_derive(tmp_path, capsys):
    gen.write_trio(11, tmp_path)
    assert cli.main(["data", "verify", "--data-dir", str(tmp_path)]) == 0
    assert cli.main(["data", "derive", "--data-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "4-sensor: exact match" in out and "2-sensor: exact match" in out
    first = (tmp_path / gen.FILE_NAMES[0]).read_text().splitlines()[0].split(",")
    assert len(first) == 25 and first[-1] in gen.TOKENS


def _harness(datasets, tags, iterations):
    cfg = evaluation.CVConfig(iterations=iterations, master_seed=9)
    report = evaluation.run_table1(datasets, cfg, list(tags), list(datasets),
                                   overrides=SMALL_OVERRIDES)
    return cfg, report


def test_replayed_grid_equals_run_table1(small_trio):
    tags = evaluation.ALL_TAGS
    cfg, report = _harness(small_trio, tags, 2)
    tracer = replay.Tracer()
    replayed, counters = replay.replay_grid(tracer, small_trio, tags, list(small_trio), cfg,
                                            SMALL_OVERRIDES)
    for key, cell in report.cells.items():
        assert cell.error is None
        assert cell.accuracies.tobytes() == replayed.cells[key].accuracies.tobytes(), key
    assert evaluation.report_csv(replayed) == evaluation.report_csv(report)
    assert len(counters) == len(tags) * len(WIDTHS) * 2
    names = {span[0] for span in tracer.spans}
    assert "evaluation.iteration" in names and "stat_models.smo_solve" in names


def test_replayed_svm_fit_equals_fit_svm(small_trio, monkeypatch):
    ds = small_trio[Width.SIMPLIFIED4]
    x, y = ds.features[:300], ds.labels[:300]
    hp = evaluation.ModelSpec("svm", Width.SIMPLIFIED4).hyperparams
    captured = {}
    monkeypatch.setattr(replay.stat_models, "predict_svm",
                        lambda model, features: captured.setdefault("model", model))
    replay._replay_svm(replay.Tracer(), hp, 77, x, y, x, {})
    expected = stat_models.fit_svm(x, y, hp["c"], hp["gamma"], hp["tol"], hp["max_passes"], 77)
    assert captured["model"].gamma == expected.gamma
    for got, want in zip(captured["model"].machines, expected.machines, strict=True):
        assert np.array_equal(got.support_vectors, want.support_vectors)
        assert np.array_equal(got.dual_coef, want.dual_coef)
        assert (got.bias, got.converged) == (want.bias, want.converged)


@pytest.mark.parametrize("tag,width", [("dfnn_ws", Width.FULL24), ("dfnn3", Width.SIMPLIFIED4),
                                       ("fnn1", Width.SIMPLIFIED2)])
def test_replayed_epoch_equals_train_network(small_trio, tag, width):
    spec = evaluation.ModelSpec(tag, width, dict(SMALL_OVERRIDES[tag]))
    tracer = replay.Tracer()
    same, batches, values = replay.replay_epoch(tracer, spec, small_trio[width], 12345)
    assert same
    assert batches == -(-540 // 32)
    assert values >= 540
    assert {"neural.forward", "neural.backward", "neural.adadelta_step",
            "rng.permutation"} <= {span[0] for span in tracer.spans}


def test_replayed_scalar_draws_match_shuffle_split(small_trio):
    tracer = replay.Tracer()
    draws, same = replay.replay_scalar_draws(tracer, small_trio[Width.SIMPLIFIED2], [1, 2], [1],
                                             n_trees=2)
    assert same
    assert draws == 2 * 599 + 2 * 540


def test_self_seconds_subtracts_child_spans():
    spans = [
        ["evaluation.cell", 0.0, 10.0, -1, ""],
        ["evaluation.iteration", 1.0, 4.0, 0, ""],
        ["evaluation.iteration", 5.0, 9.0, 0, ""],
        ["tree_models.fit_decision_tree", 5.5, 8.0, 2, ""],
    ]
    self_s = replay.self_seconds(spans)
    assert self_s["evaluation"] == pytest.approx(3.0 + 3.0 + 1.5)
    assert self_s["tree_models"] == pytest.approx(2.5)


def test_failures_count_errors_flags_and_non_finite_accuracies(small_trio):
    _, report = _harness({Width.SIMPLIFIED2: small_trio[Width.SIMPLIFIED2]}, ("dt", "lda"), 3)
    assert run.count_failures(report) == (6, 0)
    report.cells[("dt", 2)].flags[0] = "unconverged"
    report.cells[("lda", 2)].accuracies[1] = np.nan
    assert run.count_failures(report) == (6, 2)
    report.cells[("lda", 2)].error = "boom"
    assert run.count_failures(report) == (6, 4)


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_benchmark():
    path = HERE.parent / "BENCHMARK.json"
    assert path.stat().st_size <= 64 * 1024
    spec = json.loads(path.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    metrics = spec["end_to_end"] + spec["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for metric in metrics:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] == "lower" and 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == replay.LAYER_METRICS
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert metric["better"] in ("lower", "higher")


def test_baseline_pins_every_workload_and_maps_known_metrics():
    pinned = json.loads(run.BASELINE.read_text())
    assert set(pinned["results_csv_sha256"]) == set(run.WORKLOADS)
    for digest in pinned["results_csv_sha256"].values():
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
    for row in pinned["layer_map"]:
        assert set(row["metrics"]) <= set(replay.LAYER_METRICS)
        assert set(row["on"]) <= set(run.WORKLOADS)

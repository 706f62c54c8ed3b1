"""Golden fingerprints: byte-level pins of the benchmark outputs and model documents.

A refactor that claims unchanged behaviour must leave every digest here as
it is.  A change that moves a result on purpose updates the digest together
with a rebaseline entry in CHANGES.md that says which output moved and why.
The document digests pin floats produced by matrix products, so a numpy
build with a different BLAS may round them differently.
"""

import hashlib
import json

import pytest

from wallfollow import cli
from wallfollow import dataset as dsm
from wallfollow import evaluation as ev
from wallfollow import neural as nn
from wallfollow import serialize as sz
from wallfollow import stat_models as sm
from wallfollow import tree_models as tm

from conftest import DT_PARAMS, GBC_HP, NET_HP, SVM_HP, SYNTH_ARCS, synth_full_dataset

GRID_OVERRIDES = {
    "rfc": {"n_trees": 3},
    "gbc": {"n_stages": 3},
    "dfnn_ws": {"epochs": 2},
    "dfnn3": {"epochs": 2},
    "fnn1": {"epochs": 2},
}

RESULTS_CSV_SHA256 = "27bb788d3a9f3a24a3991feca6a15945d20c26cce260be6e1ac8cebb4b6200b9"
TABLE1_SHA256 = "b216b4068f4292aac9d6c564e843fcfbf556a788971a771512ffd5579d64f3b6"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module", params=[1, 2], ids=["jobs1", "jobs2"])
def grid_report(request):
    full = synth_full_dataset(600)
    four = dsm.derive_simplified4(full, SYNTH_ARCS)
    two = dsm.derive_simplified2(four)
    datasets = {ds.width: ds for ds in (full, four, two)}
    return ev.run_table1(datasets, ev.CVConfig(iterations=2, master_seed=11),
                         overrides=GRID_OVERRIDES, jobs=request.param)


def test_grid_results_csv_fingerprint(grid_report):
    assert all(cell.error is None for cell in grid_report.cells.values())
    assert len(grid_report.cells) == 30
    assert _sha256(ev.report_csv(grid_report)) == RESULTS_CSV_SHA256


def test_grid_table1_fingerprint(grid_report):
    assert _sha256(ev.render_table1(grid_report)) == TABLE1_SHA256


def _document_sha256(model) -> str:
    return _sha256(json.dumps(sz.encode_model(model), sort_keys=True))


def test_decision_tree_document_fingerprint(synth_d4):
    model = tm.fit_decision_tree(synth_d4.features, synth_d4.labels, DT_PARAMS)
    assert _document_sha256(model) == (
        "d1afd426d0429e462d4d81b731eda78c9163e0da88c1313c82f75dbdacfd430b")


def test_random_forest_document_fingerprint(synth_d4):
    model = tm.fit_random_forest(synth_d4.features, synth_d4.labels, 4, DT_PARAMS, seed=2)
    assert _document_sha256(model) == (
        "fe286dc4da78a6700f0dfba8dbbdb63bf54954985ef8c6bab4ef38ce330c6068")


def test_gradient_boost_document_fingerprint(synth_d4):
    model = tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, **(GBC_HP | {"n_stages": 4}))
    assert _document_sha256(model) == (
        "a6406e9cdca03f4f466f19ef76d1565452937c2837556ebb74bc781c781f2f0c")


def test_lda_document_fingerprint(synth_full):
    model = sm.fit_lda(synth_full.features, synth_full.labels)
    assert _document_sha256(model) == (
        "4c8ee06de9f9bbda9c0ff0d2e375bbb6fb3f14a388dc5040643607388caa8c01")


def test_gnb_document_fingerprint(synth_full):
    model = sm.fit_gnb(synth_full.features, synth_full.labels)
    assert _document_sha256(model) == (
        "9f0c9c655314201c3e7f69669f92b8913d37c4349dfafceaa2fd101468b24af9")


def test_knn_document_fingerprint(synth_d2):
    model = sm.fit_knn(synth_d2.features, synth_d2.labels, k=5)
    assert _document_sha256(model) == (
        "0e1b0be7f7a01875a6137d2f672c1ba659ad5629eda77f5c3b4676b1f079447d")


def test_svm_document_fingerprint(synth_d4):
    model = sm.fit_svm(synth_d4.features[:150], synth_d4.labels[:150], **SVM_HP, seed=1)
    assert _document_sha256(model) == (
        "14be9121c061e6704eee07ab04644d91fae9b2620b860a20c14fce6a55c9ad17")


def test_network_document_fingerprint(synth_d4):
    features, _, _ = dsm.standardize(synth_d4.features)
    net = nn.build_preset("DFNN_WS", 4, NET_HP["dropout"], init_seed=9)
    nn.train_network(net, features, synth_d4.labels,
                     nn.TrainConfig(batch_size=32, epochs=2, dropout=0.1, seed=3))
    assert _document_sha256(net) == (
        "3fc4f714e478227c3929dd87c80a029a7bdc676fba5f8a6d057f8afd5cd1f706")


@pytest.mark.parametrize("width, restrict, digest", [
    ("4", ["--restrict", "front,left"],
     "55198bcf1987b7d02aaa7abe364e2557d44aedf03c8bb7bc7ab388fd1e5f8cb0"),
    ("24", ["--restrict", "0,5,11,23"],
     "d517597209a92df05eac369978a1c1ccacb604b0f7dff02c771f8a205fef6cdc"),
    # the same tree as front,left at width 4: the 2-sensor file holds those two columns
    ("2", [], "55198bcf1987b7d02aaa7abe364e2557d44aedf03c8bb7bc7ab388fd1e5f8cb0"),
], ids=["4-front-left", "24-restricted", "2"])
def test_export_tree_dot_fingerprint(published_like_dir, tmp_path, width, restrict, digest):
    out = tmp_path / "tree.dot"
    assert cli.main(["export-tree", "--data-dir", str(published_like_dir), "--width", width,
                     *restrict, "--out", str(out)]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

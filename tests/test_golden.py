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

from wallfollow import dataset as dsm
from wallfollow import evaluation as ev
from wallfollow import neural as nn
from wallfollow import serialize as sz
from wallfollow import stat_models as sm
from wallfollow import tree_models as tm

from conftest import SYNTH_ARCS, synth_full_dataset

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
    model = tm.fit_decision_tree(synth_d4.features, synth_d4.labels)
    assert _document_sha256(model) == (
        "33dad251700a86afa0997f8297b21f98b3e07dedb50e08d1063944e9c8477508")


def test_random_forest_document_fingerprint(synth_d4):
    model = tm.fit_random_forest(synth_d4.features, synth_d4.labels, n_trees=4, seed=2)
    assert _document_sha256(model) == (
        "e46fa4c54e3be8029aaea0f2047851fa453cae3382c717ad7455947992539b20")


def test_gradient_boost_document_fingerprint(synth_d4):
    model = tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, n_stages=4)
    assert _document_sha256(model) == (
        "908b9c121cff40ca7a0e6a5fc0f2cb4b4d78fc903237198c4ab55560890f64a3")


def test_lda_document_fingerprint(synth_full):
    model = sm.fit_lda(synth_full.features, synth_full.labels)
    assert _document_sha256(model) == (
        "1c99fa14799490b205402f54085bea38385711c32baa8019471b3a0f3170e837")


def test_gnb_document_fingerprint(synth_full):
    model = sm.fit_gnb(synth_full.features, synth_full.labels)
    assert _document_sha256(model) == (
        "38435e5d7dbee8b6d2223086635dbcffb6ed62bf52a53e6c7d8861d8a7e4aab8")


def test_knn_document_fingerprint(synth_d2):
    model = sm.fit_knn(synth_d2.features, synth_d2.labels, k=5)
    assert _document_sha256(model) == (
        "694d430cc74ff3e0233db316ef8e850aa914bf11b6c4f4d9d5bc52ad6968cdf8")


def test_svm_document_fingerprint(synth_d4):
    model = sm.fit_svm(synth_d4.features[:150], synth_d4.labels[:150], seed=1)
    assert _document_sha256(model) == (
        "249a090f41dccdd2fbb9e89b32f907474c4750e97ad9957403cf0b820a0f13f8")


def test_network_document_fingerprint(synth_d4):
    features, _, _ = dsm.standardize(synth_d4.features)
    net = nn.build_preset("DFNN_WS", 4, init_seed=9)
    nn.train_network(net, features, synth_d4.labels,
                     nn.TrainConfig(batch_size=32, epochs=2, dropout=0.1, seed=3))
    assert _document_sha256(net) == (
        "543468204aa6443961d41cf5016db85f10d23c21ad959984266cbd092bd5c4ee")

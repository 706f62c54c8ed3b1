import copy
import inspect
import json
import random
import re
import typing

import numpy as np
import pytest

from conftest import DT_PARAMS, GBC_HP, NET_HP, SVM_HP, contract_set
from wallfollow import neural as nn
from wallfollow import serialize as sz
from wallfollow import stat_models as sm
from wallfollow import tree_models as tm
from wallfollow.rng import XoshiroLanes


# the load error's text for an array of the wrong dtype, shape or finiteness
REAL = "must hold finite real numbers in shape"


def _round_trip(model, tmp_path):
    path = tmp_path / "model.json"
    sz.save_model(model, path)
    assert json.loads(path.read_text())["version"] == 3
    loaded = sz.load_model(path)
    assert type(loaded) is type(model)
    return loaded


def _deep_tree_rows():
    """1200 rows whose labels alternate along one rising sensor: a DT of depth 1199,
    deeper than the recursion limit."""
    features = np.zeros((1200, 4))
    features[:, 0] = np.arange(1200)
    return features, np.arange(1200) % 2


def test_decision_tree_round_trip(tmp_path, synth_d4):
    for features, labels in ((synth_d4.features, synth_d4.labels), _deep_tree_rows()):
        model = tm.fit_decision_tree(features, labels, DT_PARAMS)
        loaded = _round_trip(model, tmp_path)
        assert np.array_equal(tm.predict_tree(loaded, features),
                              tm.predict_tree(model, features))
        names = ["a", "b", "c", "d"]
        assert tm.export_tree_text(loaded, names) == tm.export_tree_text(model, names)


def test_random_forest_round_trip(tmp_path, synth_d4):
    model = tm.fit_random_forest(synth_d4.features, synth_d4.labels, 5, DT_PARAMS, seed=2)
    loaded = _round_trip(model, tmp_path)
    assert np.array_equal(tm.predict_forest(loaded, synth_d4.features),
                          tm.predict_forest(model, synth_d4.features))


def test_gradient_boost_round_trip(tmp_path, synth_d4):
    model = tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, **(GBC_HP | {"n_stages": 6}))
    loaded = _round_trip(model, tmp_path)
    assert np.array_equal(
        tm.boost_raw_scores(loaded, synth_d4.features),
        tm.boost_raw_scores(model, synth_d4.features),
    )


def test_lda_round_trip(tmp_path, synth_full):
    model = sm.fit_lda(synth_full.features, synth_full.labels)
    loaded = _round_trip(model, tmp_path)
    assert np.array_equal(
        sm.lda_decision_scores(loaded, synth_full.features),
        sm.lda_decision_scores(model, synth_full.features),
    )


def test_gnb_round_trip(tmp_path, synth_full):
    model = sm.fit_gnb(synth_full.features, synth_full.labels)
    loaded = _round_trip(model, tmp_path)
    assert np.array_equal(
        sm.gnb_log_posteriors(loaded, synth_full.features),
        sm.gnb_log_posteriors(model, synth_full.features),
    )


def test_knn_round_trip(tmp_path, synth_d2):
    # fit_knn accepts a numpy integer k; the document stores it as a number
    model = sm.fit_knn(synth_d2.features, synth_d2.labels, k=np.int64(5))
    loaded = _round_trip(model, tmp_path)
    assert loaded.k == 5
    queries = synth_d2.features[:60]
    assert np.array_equal(sm.predict_knn_batch(loaded, queries),
                          sm.predict_knn_batch(model, queries))


def test_svm_round_trip(tmp_path, synth_d4):
    rows = np.arange(150)
    model = sm.fit_svm(synth_d4.features[rows], synth_d4.labels[rows], **SVM_HP, seed=1)
    loaded = _round_trip(model, tmp_path)
    queries = synth_d4.features[150:200]
    assert (sm.svm_decision_values(loaded, queries).tobytes()
            == sm.svm_decision_values(model, queries).tobytes())
    assert loaded.gamma == model.gamma


def test_network_round_trip(tmp_path):
    rng = XoshiroLanes(4)
    features = rng.uniform(-1, 1, (40, 4))
    labels = (rng.doubles(40) * 4).astype(np.int64)
    net = nn.build_preset("DFNN_WS", 4, NET_HP["dropout"], init_seed=9)
    nn.train_network(net, features, labels,
                     nn.TrainConfig(batch_size=8, epochs=2, dropout=0.1, seed=3))
    loaded = _round_trip(net, tmp_path)
    assert np.array_equal(loaded.forward(features), net.forward(features))


def test_network_with_numpy_widths_round_trips(tmp_path):
    # a numpy integer width used to stop the save: "Object of type int64 is not JSON
    # serializable"
    for preset, width in (("FNN1", np.int64(4)), ("DFNN_WS", np.int64(2))):
        net = nn.build_preset(preset, width, np.float64(0.1), init_seed=1)
        loaded = _round_trip(net, tmp_path)
        features = XoshiroLanes(2).uniform(-1, 1, (10, int(width)))
        assert np.array_equal(loaded.forward(features), net.forward(features))


@pytest.mark.parametrize("rate, message", [
    (False, "must be a finite number, got False"),
    ("0.5", "must be a finite number, got '0.5'"),
    (float("nan"), "must be a finite number, got nan"),
    (1, "must be in [0, 1), got 1"),
    (-0.25, "must be in [0, 1), got -0.25"),
], ids=["bool", "string", "nan", "one", "negative"])
def test_one_dropout_rate_rule(rate, message):
    # a network trained with TrainConfig(dropout=False) used to save and then fail to load
    document = sz.encode_model(nn.Network([nn.Dense(2, 4), nn.Dropout(0.5)]))
    document["payload"]["layers"][1]["rate"] = rate
    pattern = "^" + re.escape("dropout layer's 'rate' " + message) + "$"
    for refuse in (lambda: nn.Dropout(rate), lambda: sz.decode_model(document),
                   lambda: nn.TrainConfig(**(NET_HP | {"dropout": rate}))):
        with pytest.raises(ValueError, match=pattern):
            refuse()


@pytest.mark.parametrize("layers", [[], [{"type": "relu"}]], ids=["empty", "relu"])
def test_network_document_without_a_4_wide_output_fails(layers):
    # each used to load and predict the argmax of its input columns
    document = sz.encode_model(nn.Network([nn.Dense(2, 4)]))
    document["payload"]["layers"] = layers
    with pytest.raises(ValueError, match="^a network's last dense, shared or batchnorm layer "
                                         "must be 4 wide, got None$"):
        sz.decode_model(document)


def test_network_document_whose_layers_do_not_chain_fails():
    # used to load, and then fail in numpy's matmul at predict
    document = sz.encode_model(nn.build_preset("DFNN3", 4, NET_HP["dropout"], init_seed=1))
    second = document["payload"]["layers"][2]
    assert (second["type"], second["n_in"], second["n_out"]) == ("dense", 16, 8)
    second["n_in"], second["weight"] = 8, [[0.0] * 8] * 8
    with pytest.raises(ValueError, match="^dense layer 2 reads 8 values, but gets 16$"):
        sz.decode_model(document)


def test_empty_forest_document_fails(synth_d4):
    # it used to load and predict class 0 for every row
    model = tm.fit_random_forest(synth_d4.features, synth_d4.labels, 2, DT_PARAMS, seed=2)
    document = sz.encode_model(model)
    document["payload"]["trees"] = []
    with pytest.raises(ValueError, match=r"^n_trees must be >= 1, got 0$"):
        sz.decode_model(document)


# One layer of each serialized type: a factory, its output width on a 5-wide
# input, and the PARAMS it must declare.
LAYER_CASES = {
    "shared": (lambda: nn.SharedInputLayer(5), 25, ("w", "b")),
    "dense": (lambda: nn.Dense(5, 6), 6, ("weight", "bias")),
    "batchnorm": (lambda: nn.BatchNorm(5), 5, ("gamma", "beta")),
    "relu": (nn.Relu, 5, ()),
    "dropout": (lambda: nn.Dropout(0.25), 5, ()),
}


@pytest.mark.parametrize("kind", sorted(sz.LAYERS))
def test_layer_params_match_gradients_and_survive_round_trip(tmp_path, kind):
    make, width, params = LAYER_CASES[kind]
    layer = make()
    assert type(layer) is sz.LAYERS[kind]
    assert layer.PARAMS == params
    net = nn.Network([nn.Dense(3, 5), layer, nn.Dense(width, 4)])
    net.init_params(4)
    x = XoshiroLanes(5).uniform(-2, 2, (6, 3))
    y = np.eye(4)[np.array([0, 1, 2, 3, 0, 1])]
    _, grads = nn.backprop(net, x, y, rng=XoshiroLanes(6))
    named = [(owner, name) for owner in net.layers for name in owner.PARAMS]
    assert [name for _, name in named] == ["weight", "bias", *params, "weight", "bias"]
    parameters = net.parameters()
    assert len(parameters) == len(grads) == len(named)
    for (owner, name), p, g in zip(named, parameters, grads):
        assert p is getattr(owner, name)
        assert g is getattr(owner, "d" + name)
        assert g.shape == p.shape
    loaded = _round_trip(net, tmp_path)
    for a, b in zip(net.parameters(), loaded.parameters(), strict=True):
        assert np.array_equal(a, b)
    for name in sz.LAYERS[kind].STATE:
        assert np.array_equal(getattr(loaded.layers[1], name), getattr(layer, name))


def test_document_shape(tmp_path, synth_d2):
    model = tm.fit_decision_tree(synth_d2.features, synth_d2.labels, DT_PARAMS)
    path = tmp_path / "m.json"
    sz.save_model(model, path)
    doc = json.loads(path.read_text())
    assert doc["format"] == "wallfollow-model"
    assert doc["version"] == 3
    assert doc["kind"] == "decision_tree"
    # five preorder lists; a leaf has feature, left and right -1
    tree = doc["payload"]
    assert sorted(tree) == ["feature", "left", "right", "threshold", "value"]
    assert len({len(column) for column in tree.values()}) == 1
    for feature, left, right, value in zip(tree["feature"], tree["left"], tree["right"],
                                           tree["value"]):
        if feature == -1:
            assert left == right == -1 and sum(value) > 0
        else:
            assert value == [0, 0, 0, 0]


def test_rejects_foreign_documents(synth_d2):
    with pytest.raises(ValueError, match="not a wallfollow model"):
        sz.decode_model({"format": "something-else"})
    with pytest.raises(ValueError, match="not a wallfollow model"):
        sz.decode_model(["wallfollow-model", 2])
    with pytest.raises(ValueError, match="version"):
        sz.decode_model({"format": "wallfollow-model", "version": 99})
    # version 1 nested one object per tree level; version 2 stored unshrunk boosting
    # leaves and would predict wrongly; no reader for either is kept
    for version in (1, 2):
        old = {"format": "wallfollow-model", "version": version, "kind": "decision_tree",
               "payload": {"root": {"counts": [1, 0, 0, 0]}}}
        with pytest.raises(ValueError, match=f"^unsupported model format version {version}$"):
            sz.decode_model(old)
    with pytest.raises(ValueError, match="model document lacks 'kind'"):
        sz.decode_model({"format": "wallfollow-model", "version": sz.FORMAT_VERSION})
    with pytest.raises(ValueError, match="LDAModel lacks 'coef'"):
        sz.decode_model({"format": "wallfollow-model", "version": sz.FORMAT_VERSION,
                         "kind": "lda", "payload": {}})
    document = sz.encode_model(tm.fit_decision_tree(synth_d2.features, synth_d2.labels, DT_PARAMS))
    assert document["payload"]["left"][0] == 1
    # a fraction or float used to fail with a TypeError from indexing, a string with one
    # from "<", and true to load as node 1
    for child in (0, -1, len(document["payload"]["left"]), 1.5, 1.0, "1", True):
        bad = json.loads(json.dumps(document))
        bad["payload"]["left"][0] = child
        with pytest.raises(ValueError, match=f"^tree node 0 has children {child!r} and "):
            sz.decode_model(bad)
    # a node with two parents, and the nodes no parent reaches, used to load; export then
    # wrote the shared subtree twice
    bad = json.loads(json.dumps(document))
    bad["payload"]["right"][0] = 1
    with pytest.raises(ValueError, match="^every tree node but node 0 must be the child of "
                                         "exactly one node$"):
        sz.decode_model(bad)
    # -1 marks a leaf; any other negative index would read columns from the right
    for feature in (-3, 1.5, True, "0", None):
        bad = json.loads(json.dumps(document))
        bad["payload"]["feature"][0] = feature
        with pytest.raises(ValueError, match=f"^tree node 0 has feature {feature!r}; "):
            sz.decode_model(bad)
    bad = json.loads(json.dumps(document))
    bad["payload"]["value"].pop()
    with pytest.raises(ValueError, match="lists must be non-empty and of one length"):
        sz.decode_model(bad)
    # a NaN threshold used to send every row right, a string one to fail at predict
    for threshold, message in ((float("nan"), "nan"), ("0.5", "'0.5'"), (True, "True")):
        bad = json.loads(json.dumps(document))
        bad["payload"]["threshold"][0] = threshold
        with pytest.raises(ValueError, match=f"^tree node 0's threshold must be a finite "
                                             f"number, got {message}$"):
            sz.decode_model(bad)
    leaf = document["payload"]["feature"].index(-1)
    for counts, message in (([1, 0, 0], r"class counts must be a list of 4 integers, "
                                        r"got \[1, 0, 0\]"),
                            ([1, 0, 0, 1.5], "class count must be an integer, got 1.5"),
                            ([1, 0, -2, 0], "class count must be >= 0, got -2"),
                            # used to raise an OverflowError, converting to int64
                            ([1, 0, 10**30, 0],
                             f"class count {10**30} is beyond the int64 range"),
                            # a scalar leaf used to load and predict class 0 for every row
                            (0.5, r"class counts must be a list of 4 integers, got 0\.5")):
        bad = json.loads(json.dumps(document))
        bad["payload"]["value"][leaf] = counts
        with pytest.raises(ValueError, match=f"^tree node {leaf}'s {message}$"):
            sz.decode_model(bad)
    # a NaN boosting leaf used to load and shift its class's scores to NaN, and a
    # class-count leaf to load and fail at predict with an unnamed broadcast error
    boost = sz.encode_model(tm.fit_gradient_boost(synth_d2.features, synth_d2.labels,
                                                  **(GBC_HP | {"n_stages": 2})))
    for value, message in ((float("nan"), "nan"), ([1, 0, 0, 0], r"\[1, 0, 0, 0\]")):
        bad = json.loads(json.dumps(boost))
        tree = bad["payload"]["stages"][1][1]
        leaf = tree["feature"].index(-1)
        tree["value"][leaf] = value
        with pytest.raises(ValueError, match=f"^tree node {leaf}'s value must be a finite "
                                             f"number, got {message}$"):
            sz.decode_model(bad)


@pytest.mark.parametrize("fit, predict, first_tree", [
    (lambda x, y: tm.fit_decision_tree(x, y, DT_PARAMS), tm.predict_tree,
     lambda payload: payload),
    (lambda x, y: tm.fit_random_forest(x, y, 2, DT_PARAMS, seed=1), tm.predict_forest,
     lambda payload: payload["trees"][0]),
    (lambda x, y: tm.fit_gradient_boost(x, y, **(GBC_HP | {"n_stages": 2})), tm.predict_boost,
     lambda payload: payload["stages"][0][0]),
], ids=["dt", "rfc", "gbc"])
def test_tree_feature_beyond_the_input_width_fails_by_name(synth_d4, fit, predict, first_tree):
    # the decoder does not know the input width, so prediction checks it
    document = sz.encode_model(fit(synth_d4.features, synth_d4.labels))
    tree = first_tree(document["payload"])
    assert tree["feature"][0] >= 0
    tree["feature"][0] = 7
    model = sz.decode_model(document)
    with pytest.raises(ValueError, match="^a tree node splits on feature 7, but the input "
                                         "rows have 4 features$"):
        predict(model, synth_d4.features)
    assert predict(model, np.hstack([synth_d4.features] * 2)).shape == (synth_d4.n,)


def test_rejects_unknown_model_type():
    with pytest.raises(TypeError, match="cannot serialize"):
        sz.encode_model(object())


def test_rejects_unknown_layers():
    with pytest.raises(TypeError, match="cannot serialize object"):
        sz.encode_model(nn.Network([nn.Dense(2, 4), object()]))
    document = sz.encode_model(nn.Network([nn.Dense(2, 4)]))
    document["payload"]["layers"][0]["type"] = "conv"
    with pytest.raises(ValueError, match="unknown layer type 'conv'"):
        sz.decode_model(document)


@pytest.mark.parametrize("kind", [["dense"], {"dense": 1}], ids=["list", "object"])
def test_layer_type_must_be_a_layer_name(kind):
    # used to fail with "TypeError: unhashable type"
    document = sz.encode_model(nn.Network([nn.Dense(2, 4)]))
    document["payload"]["layers"][0]["type"] = kind
    with pytest.raises(ValueError, match=f"^unknown layer type {re.escape(repr(kind))}$"):
        sz.decode_model(document)


def test_every_layer_class_declares_its_stored_form():
    # ``serialize`` keeps no layer table of its own: each class holds its stored form
    classes = typing.get_args(nn.Layer)
    for cls in classes:
        for name in ("KIND", "ARGS", "PARAMS", "STATE"):
            assert name in vars(cls), f"{cls.__name__} lacks {name}"
        assert isinstance(cls.KIND, str)
        assert cls.ARGS == tuple(inspect.signature(cls).parameters)
        assert all(isinstance(names, tuple) for names in (cls.PARAMS, cls.STATE))
    kinds = [cls.KIND for cls in classes]
    assert len(set(kinds)) == len(kinds)
    assert sorted(sz.LAYERS) == sorted(kinds)
    assert all(sz.LAYERS[cls.KIND] is cls for cls in classes)


def _dense_document():
    # every layer type that stores arrays; the shared layer maps 2 values to 4 outputs
    return sz.encode_model(nn.Network([nn.Dense(4, 16), nn.BatchNorm(16), nn.Dense(16, 2),
                                       nn.SharedInputLayer(2)]))


@pytest.mark.parametrize("layer, key, value, shapes", [
    # n_in disagrees with a well-formed 16x4 weight
    (0, "n_in", 5, rf"'weight' {REAL} \(16, 5\), got float64 in shape \(16, 4\)"),
    # a 16x3 weight would otherwise fail only later, in predict's matmul
    (0, "weight", [[0.0] * 3] * 16, rf"'weight' {REAL} \(16, 4\), got float64 in shape \(16, 3\)"),
    (0, "bias", [0.0] * 15, rf"'bias' {REAL} \(16,\), got float64 in shape \(15,\)"),
    (1, "running_var", [1.0] * 4, rf"'running_var' {REAL} \(16,\), got float64 in shape \(4,\)"),
    # each of these used to load and predict one class for every row
    (0, "weight", [[0.0] * 4] * 15 + [[0.0, float("inf"), 0.0, 0.0]],
     rf"'weight' {REAL} \(16, 4\), got non-finite values in shape \(16, 4\)"),
    (1, "running_mean", [0.0] * 15 + [float("nan")],
     rf"'running_mean' {REAL} \(16,\), got non-finite values in shape \(16,\)"),
    (3, "b", [0.0, float("nan")], rf"'b' {REAL} \(2,\), got non-finite values in shape \(2,\)"),
    (1, "running_var", [1.0] * 15 + [-1.0], "'running_var' must be >= 0"),
    # a null used to load and fail only at predict, with a TypeError
    (2, "bias", [0.0, None], rf"'bias' {REAL} \(2,\), got object in shape \(2,\)"),
], ids=["dense-n_in", "dense-weight", "dense-bias", "batchnorm-running_var", "dense-weight-inf",
        "batchnorm-running_mean-nan", "shared-b-nan", "batchnorm-running_var-negative",
        "dense-bias-null"])
def test_layer_arrays_must_have_the_constructed_shapes(layer, key, value, shapes):
    document = _dense_document()
    assert sz.decode_model(document).predict(np.zeros((3, 4))).shape == (3,)
    document["payload"]["layers"][layer][key] = value
    kind = document["payload"]["layers"][layer]["type"]
    with pytest.raises(ValueError, match=f"^{kind} layer's {shapes}$"):
        sz.decode_model(document)


@pytest.mark.parametrize("layer, key, value, message", [
    # these used to raise a TypeError, or numpy's unnamed "negative dimensions"
    (0, "n_in", "4", "dense layer's 'n_in' must be an integer, got '4'"),
    (2, "n_out", 2.5, "dense layer's 'n_out' must be an integer, got 2.5"),
    (0, "n_in", -1, "dense layer's 'n_in' must be >= 1, got -1"),
    (1, "units", 0, "batchnorm layer's 'units' must be >= 1, got 0"),
    (3, "d", True, "shared layer's 'd' must be an integer, got True"),
    (3, "d", -1, "shared layer's 'd' must be >= 1, got -1"),
    (4, "rate", "0.5", "dropout layer's 'rate' must be a finite number, got '0.5'"),
    (4, "rate", float("nan"), "dropout layer's 'rate' must be a finite number, got nan"),
    (4, "rate", 1, "dropout layer's 'rate' must be in [0, 1), got 1"),
    (4, "rate", -0.25, "dropout layer's 'rate' must be in [0, 1), got -0.25"),
], ids=["n_in-string", "n_out-fraction", "n_in-negative", "units0", "d-bool", "d-negative",
        "rate-string", "rate-nan", "rate1", "rate-negative"])
def test_layer_arguments_are_checked_by_name(layer, key, value, message):
    document = sz.encode_model(nn.Network([nn.Dense(4, 16), nn.BatchNorm(16), nn.Dense(16, 2),
                                           nn.SharedInputLayer(2), nn.Dropout(0.5)]))
    assert sz.decode_model(document).predict(np.zeros((3, 4))).shape == (3,)
    document["payload"]["layers"][layer][key] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sz.decode_model(document)


@pytest.mark.parametrize("kind, edit, field", [
    # each of these used to fail in np.array with a message that named no field
    ("lda", lambda payload: payload["coef"][1].pop(), "coef"),
    ("svm", lambda payload: payload["machines"][2]["support_vectors"][0].append(0.5),
     "support_vectors"),
    ("network", lambda payload: payload["layers"][0]["weight"][3].pop(),
     "dense layer's 'weight'"),
], ids=["lda-coef", "svm-support_vectors", "dense-weight"])
def test_ragged_arrays_fail_by_field_name(synth_d4, kind, edit, field):
    x, y = synth_d4.features[:200], synth_d4.labels[:200]
    model = {"lda": lambda: sm.fit_lda(x, y),
             "svm": lambda: sm.fit_svm(x, y, **SVM_HP, seed=1),
             "network": lambda: nn.Network([nn.Dense(4, 16), nn.Relu(), nn.Dense(16, 4)])}[kind]()
    document = sz.encode_model(model)
    edit(document["payload"])
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be a rectangular array, "
                                         "got nested lists of unequal lengths$"):
        sz.decode_model(document)


@pytest.mark.parametrize("edit, message", [
    (lambda payload: payload["init_scores"].pop(),
     rf"^init_scores {REAL} \(4,\), got float64 in shape \(3,\)$"),
    (lambda payload: payload["stages"][0].pop(), "^stage 0 must hold 4 trees, got 3$"),
    # used to load and predict class 0 for every row
    (lambda payload: payload["init_scores"].__setitem__(2, float("nan")),
     rf"^init_scores {REAL} \(4,\), got non-finite values in shape \(4,\)$"),
], ids=["init_scores", "stage", "init_scores-nan"])
def test_boost_document_with_three_classes_fails_at_load(synth_d4, edit, message):
    document = sz.encode_model(tm.fit_gradient_boost(synth_d4.features, synth_d4.labels,
                                                      **(GBC_HP | {"n_stages": 2})))
    edit(document["payload"])
    with pytest.raises(ValueError, match=message):
        sz.decode_model(document)


@pytest.mark.parametrize("edit, message", [
    (lambda payload: payload.update(k=0), "^k must be >= 1, got 0$"),
    (lambda payload: payload.update(k=2.5), "^k must be an integer, got 2.5$"),
    (lambda payload: payload["train_labels"].__setitem__(0, 7), r"^labels must lie in 0\.\.3$"),
    (lambda payload: payload["train_labels"].pop(), "^labels has 59 rows but features has 60$"),
    (lambda payload: payload["train_labels"].__setitem__(0, 1.5),
     "^labels must be integers, got dtype float64$"),
    # used to raise numpy's TypeError "ufunc 'isfinite' not supported"
    (lambda payload: payload["train_features"][3].__setitem__(1, "1"),
     rf"^features {REAL} \(any, any\), got <U\d+ in shape \(60, 2\)$"),
], ids=["k0", "k-fraction", "label7", "label-missing", "label-fraction", "feature-string"])
def test_knn_document_is_checked_as_a_fit(synth_d2, edit, message):
    document = sz.encode_model(sm.fit_knn(synth_d2.features[:60], synth_d2.labels[:60], 5))
    edit(document["payload"])
    with pytest.raises(ValueError, match=message):
        sz.decode_model(document)


@pytest.mark.parametrize("edit, message", [
    (lambda payload: payload["priors"].pop(),
     rf"^priors {REAL} \(4,\), got float64 in shape \(3,\)$"),
    # a negative prior used to load and win every row, a zero one to never win
    *((lambda payload, p=p: payload["priors"].__setitem__(1, p), f"^{message}$")
      for p, message in ((-0.5, r"priors must be finite and in \(0, 1\]"),
                         (0.0, r"priors must be finite and in \(0, 1\]"),
                         (float("nan"),
                          rf"priors {REAL} \(4,\), got non-finite values in shape \(4,\)"),
                         (1.5, r"priors must be finite and in \(0, 1\]"))),
    (lambda payload: payload["means"].pop(),
     rf"^means {REAL} \(4, any\), got float64 in shape \(3, 2\)$"),
    (lambda payload: payload.update(variances=[row[:1] for row in payload["variances"]]),
     rf"^variances {REAL} \(4, 2\), got float64 in shape \(4, 1\)$"),
    (lambda payload: payload["variances"][0].__setitem__(0, 0.0),
     "^variances must be finite and > 0$"),
    (lambda payload: payload["variances"][3].__setitem__(1, -1.0),
     "^variances must be finite and > 0$"),
    # used to load and predict class 1 for every row
    (lambda payload: payload["means"][2].__setitem__(0, float("nan")),
     rf"^means {REAL} \(4, any\), got non-finite values in shape \(4, 2\)$"),
], ids=["priors", "prior-negative", "prior0", "prior-nan", "prior-above-1", "means",
        "variances", "variance0", "variance-negative", "means-nan"])
def test_gnb_document_is_checked_at_load(synth_d2, edit, message):
    document = sz.encode_model(sm.fit_gnb(synth_d2.features, synth_d2.labels))
    edit(document["payload"])
    with pytest.raises(ValueError, match=message):
        sz.decode_model(document)


def _svm_document(synth_d4):
    rows = np.arange(200)
    return sz.encode_model(sm.fit_svm(synth_d4.features[rows], synth_d4.labels[rows],
                                      **SVM_HP, seed=1))


@pytest.mark.parametrize("edit, message", [
    # each of these used to load and predict silently wrong
    *((lambda payload, g=g: payload.update(gamma=g), f"^{message}$")
      for g, message in ((-1.0, "gamma must be > 0, got -1.0"),
                         (0, "gamma must be > 0, got 0"),
                         (float("nan"), "gamma must be a finite number, got nan"),
                         (float("inf"), "gamma must be a finite number, got inf"))),
    (lambda payload: payload["machines"][2].update(bias=float("nan")),
     "^bias must be a finite number, got nan$"),
    (lambda payload: payload["machines"].pop(),
     "^an SVM has 4 one-vs-rest machines, got 3$"),
    # these used to fail only at predict, with an unnamed numpy error
    (lambda payload: payload["machines"][0]["dual_coef"].pop(),
     rf"^dual_coef {REAL} \(\d+,\), got float64 in shape \(\d+,\)$"),
    (lambda payload: payload["machines"][1].update(
        support_vectors=sum(payload["machines"][1]["support_vectors"], [])),
     rf"^support_vectors {REAL} \(any, any\), got float64 in shape \(\d+,\)$"),
    (lambda payload: payload["machines"][3]["dual_coef"].__setitem__(0, float("inf")),
     rf"^dual_coef {REAL} \(\d+,\), got non-finite values in shape \(\d+,\)$"),
    (lambda payload: payload["machines"][0].update(
        support_vectors=[row[:3] for row in payload["machines"][0]["support_vectors"]]),
     rf"^machine 0's support_vectors {REAL} \(any, 4\), got float64 in shape \(\d+, 3\)$"),
    # a string flag used to load, and the grid then read the machine as converged
    (lambda payload: payload["machines"][1].update(converged="no"),
     "^converged must be true or false, got 'no'$"),
    (lambda payload: payload["machines"][0].update(converged=1),
     "^converged must be true or false, got 1$"),
    # nothing reads c, but every number a model stores passes the one rule
    (lambda payload: payload.update(c="abc"), "^c must be a finite number, got 'abc'$"),
    (lambda payload: payload.update(c=float("nan")), "^c must be a finite number, got nan$"),
    (lambda payload: payload.update(c=0.0), "^c must be > 0, got 0.0$"),
], ids=["gamma-negative", "gamma0", "gamma-nan", "gamma-inf", "bias-nan", "three-machines",
        "dual_coef-short", "support_vectors-flat", "dual_coef-inf", "support_vectors-width",
        "converged-string", "converged-int", "c-string", "c-nan", "c0"])
def test_svm_document_is_checked_at_load(synth_d4, edit, message):
    document = _svm_document(synth_d4)
    edit(document["payload"])
    with pytest.raises(ValueError, match=message):
        sz.decode_model(document)


def test_svm_input_width_fails_by_name(synth_d4):
    # used to fail with an unnamed numpy broadcast error
    model = sz.decode_model(_svm_document(synth_d4))
    with pytest.raises(ValueError, match=r"^features must hold finite real numbers in shape "
                                         r"\(any, 4\), got float64 in shape \(400, 3\)$"):
        sm.predict_svm(model, synth_d4.features[:, :3])


def test_svm_machine_without_support_vectors_round_trips(tmp_path, synth_d4):
    # an empty (0, d) matrix is stored as [] and loads with shape (0,); prediction then
    # reads only the machine's bias
    model = sz.decode_model(_svm_document(synth_d4))
    model.machines[0] = sm.BinaryMachine(np.zeros((0, 4)), np.zeros(0), -5.0, True)
    loaded = _round_trip(model, tmp_path)
    queries = synth_d4.features[:50]
    assert np.array_equal(sm.svm_decision_values(loaded, queries),
                          sm.svm_decision_values(model, queries))


@pytest.mark.parametrize("edit, message", [
    # a NaN intercept used to claim every row for its class
    (lambda payload: payload["intercept"].__setitem__(1, float("nan")),
     rf"^intercept {REAL} \(4,\), got non-finite values in shape \(4,\)$"),
    (lambda payload: payload["coef"][2].__setitem__(0, float("-inf")),
     rf"^coef {REAL} \(4, any\), got non-finite values in shape \(4, 4\)$"),
    # a short intercept or coef used to fail only at predict
    (lambda payload: payload["intercept"].pop(),
     rf"^intercept {REAL} \(4,\), got float64 in shape \(3,\)$"),
    (lambda payload: payload["coef"].pop(),
     rf"^coef {REAL} \(4, any\), got float64 in shape \(3, 4\)$"),
    # bools used to load as numbers, a string to fail with a TypeError
    (lambda payload: payload.update(intercept=[True, False, True, True]),
     rf"^intercept {REAL} \(4,\), got bool in shape \(4,\)$"),
    (lambda payload: payload["intercept"].__setitem__(0, "1.5"),
     rf"^intercept {REAL} \(4,\), got <U\d+ in shape \(4,\)$"),
], ids=["intercept-nan", "coef-inf", "intercept-short", "coef-short", "intercept-bool",
        "intercept-string"])
def test_lda_document_is_checked_at_load(synth_d4, edit, message):
    document = sz.encode_model(sm.fit_lda(synth_d4.features, synth_d4.labels))
    edit(document["payload"])
    with pytest.raises(ValueError, match=message):
        sz.decode_model(document)


# ---------------------------------------------------------------------------
# seeded mutations: a malformed document fails with ValueError or works
# ---------------------------------------------------------------------------

# One small model of each kind, 2 features wide (the network untrained), and its prediction.
FUZZ_MODELS = {
    "decision_tree": (lambda x, y: tm.fit_decision_tree(x, y, DT_PARAMS), tm.predict_tree),
    "random_forest": (lambda x, y: tm.fit_random_forest(x, y, 2, DT_PARAMS, seed=1),
                      tm.predict_forest),
    "gradient_boost": (lambda x, y: tm.fit_gradient_boost(x, y, **(GBC_HP | {"n_stages": 2})),
                       tm.predict_boost),
    "lda": (sm.fit_lda, sm.predict_lda),
    "gnb": (sm.fit_gnb, sm.predict_gnb),
    "knn": (lambda x, y: sm.fit_knn(x, y, 5), sm.predict_knn_batch),
    "svm": (lambda x, y: sm.fit_svm(x, y, **SVM_HP, seed=1), sm.predict_svm),
    "network": (lambda x, y: nn.build_preset("DFNN_WS", 2, NET_HP["dropout"], init_seed=1),
                lambda net, x: net.predict(x)),
}

# What a mutation writes in place of a value; a ragged list, and a key deleted, besides.
FUZZ_VALUES = (True, 0, -1, 2.5, 1e308, 10**30, "1", [], {}, [[1.0], [1.0, 2.0]], None)


def _value_paths(value, path=()):
    """The key path of every value nested in ``value``, a JSON document."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from _value_paths(item, path + (key,))


def _mutate(document, paths, rng):
    """A copy of ``document`` with one or two of its ``paths`` replaced or deleted."""
    bad = copy.deepcopy(document)
    for path in rng.sample(paths, rng.choice((1, 2))):
        parent = bad
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # the first mutation replaced or deleted a step of this path
        if not isinstance(parent, (dict, list)):
            continue  # the first mutation put a string on the path
        if rng.random() < 0.1:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(rng.choice(FUZZ_VALUES))
    return bad


@pytest.mark.parametrize("kind", sorted(FUZZ_MODELS))
def test_mutated_documents_fail_with_value_error_or_predict(synth_d2, kind):
    fit, predict = FUZZ_MODELS[kind]
    x, y = contract_set(synth_d2)
    document = sz.encode_model(fit(x, y))
    paths = list(_value_paths(document))
    rng = random.Random(0)
    for _ in range(200):
        bad = _mutate(document, paths, rng)
        try:
            with np.errstate(all="ignore"):  # a finite 1e308 may overflow on the way
                predicted = predict(sz.decode_model(bad), x)
        except ValueError:
            continue
        except Exception as exc:
            raise AssertionError(f"{type(exc).__name__} from {bad}") from exc
        assert predicted.shape == y.shape and set(predicted.tolist()) <= set(range(4)), bad

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wallfollow import neural as nn
from wallfollow.rng import XoshiroLanes


# ---------------------------------------------------------------------------
# shared input layer
# ---------------------------------------------------------------------------

def _forward_one(layer, x):
    """The (d, d) activation map of one sample."""
    return layer.forward(x[None, :], train=False, rng=None).reshape(layer.d, layer.d)


def test_shared_zero_input_identity_activation():
    layer = nn.SharedInputLayer(4)
    layer.b = np.array([1.0, 2.0, 3.0, 4.0])
    out = _forward_one(layer, np.zeros(4))
    assert out.shape == (4, 4)
    for i in range(4):
        assert (out[i] == layer.b[i]).all()


def test_shared_unit_weights_reproduce_input():
    layer = nn.SharedInputLayer(5)
    layer.w = np.ones(5)
    x = np.array([0.1, -0.5, 2.0, 3.5, -1.0])
    out = _forward_one(layer, x)
    for i in range(5):
        assert np.array_equal(out[i], x)


def test_shared_matches_formula_oracle():
    rng = XoshiroLanes(42)
    layer = nn.SharedInputLayer(6, activation="relu")
    layer.w = rng.uniform(-2, 2, 6)
    layer.b = rng.uniform(-1, 1, 6)
    x = rng.uniform(-3, 3, 6)
    out = _forward_one(layer, x)
    for i in range(6):
        for j in range(6):
            expected = max(layer.w[i] * x[j] + layer.b[i], 0.0)
            assert abs(out[i, j] - expected) <= 1e-12


def test_shared_batch_flatten_order():
    layer = nn.SharedInputLayer(3)
    layer.w = np.array([1.0, 2.0, 3.0])
    x = np.array([[1.0, 10.0, 100.0]])
    flat = layer.forward(x, train=False, rng=None)
    # row-major over (neuron i, position j)
    assert flat[0].tolist() == [1.0, 10.0, 100.0, 2.0, 20.0, 200.0, 3.0, 30.0, 300.0]


# ---------------------------------------------------------------------------
# softmax / cross-entropy
# ---------------------------------------------------------------------------

def test_softmax_constant_logits_uniform():
    assert nn.softmax(np.array([3.3, 3.3, 3.3, 3.3])).tolist() == [0.25] * 4


def test_softmax_shift_invariance_exact():
    logits = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(nn.softmax(logits), nn.softmax(logits + 5.0))


def test_softmax_formula_oracle():
    logits = np.array([1.0, 2.0, 3.0, 4.0])
    exp = [math.exp(v) for v in logits]
    expected = [v / sum(exp) for v in exp]
    assert nn.softmax(logits) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-700, max_value=700), min_size=4, max_size=4))
def test_softmax_sums_to_one(logits):
    probs = nn.softmax(np.array(logits))
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert (probs >= 0).all()


def test_cross_entropy_certain_prediction():
    assert nn.cross_entropy(np.array([0.0, 1.0, 0.0, 0.0]), np.eye(4)[1]) == 0.0


def test_cross_entropy_uniform():
    assert nn.cross_entropy(np.full(4, 0.25), np.eye(4)[2]) == pytest.approx(math.log(4))


def test_cross_entropy_frozen_value():
    probs = np.array([0.3, 0.5, 0.1, 0.1])
    assert nn.cross_entropy(probs, np.eye(4)[0]) == pytest.approx(1.2039728043259361, abs=1e-12)


def test_cross_entropy_floor():
    probs = np.array([0.0, 1.0, 0.0, 0.0])
    assert nn.cross_entropy(probs, np.eye(4)[0]) == pytest.approx(-math.log(1e-12))


# ---------------------------------------------------------------------------
# batch norm
# ---------------------------------------------------------------------------

def test_batch_norm_constant_column_becomes_beta():
    layer = nn.BatchNorm(2)
    layer.beta = np.array([0.7, -0.2])
    batch = np.column_stack([np.full(8, 5.0), np.arange(8, dtype=float)])
    out = layer.forward(batch, train=True, rng=None)
    assert out[:, 0] == pytest.approx(np.full(8, 0.7), abs=1e-9)


def test_batch_norm_train_moments():
    rng = XoshiroLanes(3)
    layer = nn.BatchNorm(4)
    layer.gamma = np.array([1.0, 2.0, 0.5, -1.5])
    layer.beta = np.array([0.0, 1.0, -1.0, 0.25])
    batch = rng.uniform(-4, 4, (256, 4))
    out = layer.forward(batch, train=True, rng=None)
    assert out.mean(axis=0) == pytest.approx(layer.beta, abs=1e-6)
    assert out.std(axis=0) == pytest.approx(np.abs(layer.gamma), abs=1e-3)


def test_batch_norm_batch_of_one_rejected():
    layer = nn.BatchNorm(3)
    with pytest.raises(ValueError, match="batch of >= 2"):
        layer.forward(np.ones((1, 3)), train=True, rng=None)


def test_batch_norm_infer_deterministic_and_uses_running_stats():
    layer = nn.BatchNorm(2)
    rng = XoshiroLanes(9)
    for _ in range(10):
        layer.forward(rng.uniform(0, 2, (32, 2)), train=True, rng=None)
    query = rng.uniform(0, 2, (5, 2))
    a = layer.forward(query, train=False, rng=None)
    b = layer.forward(query, train=False, rng=None)
    assert np.array_equal(a, b)
    # infer mode must not depend on the query batch statistics
    c = layer.forward(query[:2], train=False, rng=None)
    assert np.array_equal(a[:2], c)


@pytest.mark.parametrize("units", [1, 4, 16, 576])
@pytest.mark.parametrize("rows", [2, 3, 7, 32, 33, 129])
def test_batch_norm_train_bitwise_equal_to_numpy_moments(units, rows):
    # forward computes the variance from its centred batch; it must equal
    # x.var(axis=0), and the output the formula on numpy's moments, bit for bit
    rng = XoshiroLanes(rows * 1000 + units)
    batch = 50.0 + 1e3 * rng.uniform(-1, 1, (rows, units)) ** 3
    layer = nn.BatchNorm(units, momentum=0.0)  # running stats = batch stats
    layer.gamma = rng.uniform(-2, 2, units)
    layer.beta = rng.uniform(-1, 1, units)
    out = layer.forward(batch, train=True, rng=None)
    mu, var = batch.mean(axis=0), batch.var(axis=0)
    assert np.array_equal(layer.running_var, var)
    assert np.array_equal(layer.running_mean, mu)
    expected = layer.gamma * ((batch - mu) * (1.0 / np.sqrt(var + layer.eps))) + layer.beta
    assert np.array_equal(out, expected)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

def test_dropout_rate_zero_is_identity():
    batch = XoshiroLanes(1).uniform(-1, 1, (6, 5))
    out = nn.Dropout(0.0).forward(batch, train=True, rng=XoshiroLanes(3))
    assert np.array_equal(out, batch)


def test_dropout_infer_is_identity():
    batch = XoshiroLanes(2).uniform(-1, 1, (6, 5))
    out = nn.Dropout(0.9).forward(batch, train=False, rng=XoshiroLanes(3))
    assert np.array_equal(out, batch)


def test_dropout_preserves_expectation():
    batch = np.ones((1000, 1000))
    out = nn.Dropout(0.1).forward(batch, train=True, rng=XoshiroLanes(12))
    assert out.mean() == pytest.approx(1.0, abs=0.01)
    kept = out[out != 0]
    assert kept == pytest.approx(np.full(kept.shape, 1.0 / 0.9), abs=1e-12)


def test_dropout_rate_validation():
    with pytest.raises(ValueError):
        nn.Dropout(1.0)


# ---------------------------------------------------------------------------
# adadelta
# ---------------------------------------------------------------------------

def test_adadelta_zero_gradient_gives_zero_delta():
    state = nn.AdadeltaState(shapes=[(3,)])
    state.grad_sq[:] = 0.4
    state.delta_sq[:] = 0.1
    deltas = nn.adadelta_step(state, [np.zeros(3)])
    assert (deltas[0] == 0.0).all()
    assert state.grad_sq == pytest.approx(np.full(3, 0.95 * 0.4))
    assert state.delta_sq == pytest.approx(np.full(3, 0.95 * 0.1))


def test_adadelta_first_step_opposes_gradient():
    state = nn.AdadeltaState(shapes=[(4,)])
    grad = np.array([0.5, -1.0, 2.0, -0.01])
    deltas = nn.adadelta_step(state, [grad])
    assert (np.sign(deltas[0]) == -np.sign(grad)).all()


def test_adadelta_first_step_scalar_formula():
    state = nn.AdadeltaState(shapes=[(1,)])
    g = 0.3
    delta = nn.adadelta_step(state, [np.array([g])])[0][0]
    expected = -math.sqrt(1e-6) / math.sqrt(0.05 * g * g + 1e-6) * g
    assert delta == pytest.approx(expected, abs=1e-15)


def _reference_adadelta_step(acc_grad, acc_delta, gradients, rho=0.95, eps=1e-6):
    """The original per-parameter Adadelta loop, updating the lists in place."""
    deltas = []
    for i, g in enumerate(gradients):
        acc_grad[i] = rho * acc_grad[i] + (1 - rho) * g * g
        delta = -np.sqrt(acc_delta[i] + eps) / np.sqrt(acc_grad[i] + eps) * g
        acc_delta[i] = rho * acc_delta[i] + (1 - rho) * delta * delta
        deltas.append(delta)
    return deltas


def test_adadelta_bitwise_equal_to_per_parameter_loop():
    shapes = [(3,), (16, 24), (1,), (4, 4), (576,), (2, 3)]
    rng = XoshiroLanes(31)
    state = nn.AdadeltaState(shapes=shapes)
    acc_grad = [np.zeros(s) for s in shapes]
    acc_delta = [np.zeros(s) for s in shapes]
    for step in range(6):
        # gradients spanning many magnitudes, some exactly zero
        grads = [rng.uniform(-1, 1, s) * 10.0 ** (step - 3) for s in shapes]
        grads[2][:] = 0.0
        deltas = nn.adadelta_step(state, grads)
        expected = _reference_adadelta_step(acc_grad, acc_delta, grads)
        for i, shape in enumerate(shapes):
            assert deltas[i].shape == shape
            assert np.array_equal(deltas[i], expected[i])
        assert np.array_equal(state.grad_sq, np.concatenate([a.reshape(-1) for a in acc_grad]))
        assert np.array_equal(state.delta_sq, np.concatenate([a.reshape(-1) for a in acc_delta]))


# ---------------------------------------------------------------------------
# backprop and presets
# ---------------------------------------------------------------------------

def _finite_difference_check(net, x, y, seed, h=1e-4, rtol=1e-4):
    def loss_at():
        probs = net.forward(x, train=True, rng=XoshiroLanes(seed))
        return nn.cross_entropy(probs, y)

    _, grads = nn.backprop(net, x, y, rng=XoshiroLanes(seed))
    for array, grad in zip(net.parameters(), grads):
        flat, gflat = array.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            plus = loss_at()
            flat[i] = original - h
            minus = loss_at()
            flat[i] = original
            fd = (plus - minus) / (2 * h)
            assert gflat[i] == pytest.approx(fd, rel=rtol, abs=1e-7)


def test_gradients_every_layer_type():
    d = 3
    layers = [
        nn.SharedInputLayer(d), nn.BatchNorm(d * d), nn.Relu(), nn.Dropout(0.25),
        nn.Dense(d * d, 5), nn.BatchNorm(5), nn.Relu(), nn.Dropout(0.25),
        nn.Dense(5, 4),
    ]
    net = nn.Network(layers)
    net.init_params(3)
    x = XoshiroLanes(8).uniform(-2, 2, (3, d))
    y = np.eye(4)[np.array([0, 2, 3])]
    _finite_difference_check(net, x, y, seed=11)


def test_gradients_relu_shared_layer():
    net = nn.Network([nn.SharedInputLayer(3, activation="relu"), nn.Dense(9, 4)])
    net.init_params(5)
    x = XoshiroLanes(6).uniform(-2, 2, (3, 3))
    y = np.eye(4)[np.array([1, 0, 2])]
    _finite_difference_check(net, x, y, seed=7)


def test_zero_network_uniform_probs_and_bias_gradient():
    net = nn.build_preset("FNN1", 4, init_seed=1)
    for p in net.parameters():
        p[:] = 0.0
    x = XoshiroLanes(4).uniform(-1, 1, (6, 4))
    y = np.eye(4)[np.array([0, 1, 2, 3, 0, 1])]
    probs = net.forward(x, train=True, rng=XoshiroLanes(0))
    assert probs == pytest.approx(np.full((6, 4), 0.25))
    _, grads = nn.backprop(net, x, y, rng=XoshiroLanes(0))
    output_bias_grad = grads[-1]
    expected = (np.full((6, 4), 0.25) - y).mean(axis=0)
    assert output_bias_grad == pytest.approx(expected, abs=1e-12)


def test_duplicated_batch_leaves_mean_gradients_unchanged():
    net = nn.build_preset("DFNN3", 4, init_seed=2)
    x = XoshiroLanes(9).uniform(-1, 1, (5, 4))
    y = np.eye(4)[np.array([0, 1, 2, 3, 1])]
    _, grads_single = nn.backprop(net, x, y)
    _, grads_double = nn.backprop(net, np.vstack([x, x]), np.vstack([y, y]))
    for a, b in zip(grads_single, grads_double):
        assert a == pytest.approx(b, abs=1e-12)


def test_preset_dfnn_ws_shapes():
    net = nn.build_preset("DFNN_WS", 24, init_seed=7)
    shared = net.layers[0]
    assert isinstance(shared, nn.SharedInputLayer)
    assert shared.w.size + shared.b.size == 48
    first_dense = next(l for l in net.layers if isinstance(l, nn.Dense))
    assert first_dense.n_in == 576
    dense_sizes = [l.n_out for l in net.layers if isinstance(l, nn.Dense)]
    assert dense_sizes == [16, 8, 4, 4]
    assert sum(isinstance(l, nn.BatchNorm) for l in net.layers) == 4
    assert sum(isinstance(l, nn.Dropout) for l in net.layers) == 4


def test_preset_dfnn_ws_generalizes_to_narrow_widths():
    net = nn.build_preset("DFNN_WS", 4, init_seed=7)
    assert net.layers[0].d == 4
    first_dense = next(l for l in net.layers if isinstance(l, nn.Dense))
    assert first_dense.n_in == 16


def test_preset_fnn1_width2():
    net = nn.build_preset("FNN1", 2, init_seed=0)
    dense = [l for l in net.layers if isinstance(l, nn.Dense)]
    assert [(d.n_in, d.n_out) for d in dense] == [(2, 16), (16, 4)]


def test_preset_dfnn3_hidden_sizes():
    net = nn.build_preset("DFNN3", 24, init_seed=0)
    dense = [l for l in net.layers if isinstance(l, nn.Dense)]
    assert [d.n_out for d in dense] == [16, 8, 4, 4]


def test_preset_unknown_name():
    with pytest.raises(ValueError, match="unknown preset"):
        nn.build_preset("CNN", 24)


# float64 softmax rounds a confident row to exactly 1.0: the DFNN_WS/4 nets of
# seeds 2052 and 2159 and the DFNN3/4 net of seed 2072 do so
@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
@example(2052)
@example(2159)
@example(2072)
def test_forward_produces_probability_vector(seed):
    rng = XoshiroLanes(seed)
    for preset, width in (("FNN1", 2), ("DFNN3", 4), ("DFNN_WS", 4)):
        net = nn.build_preset(preset, width, init_seed=seed)
        x = rng.uniform(-5, 5, (3, width))
        probs = net.forward(x)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9
        assert (probs > 0).all() and (probs <= 1).all()


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _toy_clusters(n_per_class=6, seed=21):
    rng = XoshiroLanes(seed)
    centers = np.array([[2.0, 2.0], [-2.0, 2.0], [-2.0, -2.0], [2.0, -2.0]])
    rows, labels = [], []
    for k, center in enumerate(centers):
        rows.append(center + 0.3 * rng.uniform(-1, 1, (n_per_class, 2)))
        labels += [k] * n_per_class
    features = np.vstack(rows)
    features = (features - features.mean(axis=0)) / features.std(axis=0, ddof=1)
    return features, np.array(labels, dtype=np.int64)


def test_memorizes_ten_samples_in_200_epochs():
    features, labels = _toy_clusters(n_per_class=6)
    keep = np.arange(0, 24, 3)[:10]
    net = nn.build_preset("FNN1", 2, init_seed=4)
    config = nn.TrainConfig(batch_size=32, epochs=200, dropout=0.0, seed=5)
    nn.train_network(net, features[keep], labels[keep], config)
    assert (net.predict(features[keep]) == labels[keep]).all()


def test_training_is_bit_deterministic():
    features, labels = _toy_clusters()
    nets = []
    for _ in range(2):
        net = nn.build_preset("DFNN_WS", 2, init_seed=10)
        config = nn.TrainConfig(batch_size=8, epochs=3, dropout=0.1, seed=77)
        nn.train_network(net, features, labels, config)
        nets.append(net)
    for a, b in zip(nets[0].parameters(), nets[1].parameters()):
        assert np.array_equal(a, b)
    bn = [l for l in nets[0].layers if isinstance(l, nn.BatchNorm)]
    bn2 = [l for l in nets[1].layers if isinstance(l, nn.BatchNorm)]
    for a, b in zip(bn, bn2):
        assert np.array_equal(a.running_mean, b.running_mean)
        assert np.array_equal(a.running_var, b.running_var)


def test_loss_non_increasing_first_five_steps_on_fixed_batch():
    features, labels = _toy_clusters()
    onehot = np.eye(4)[labels]
    net = nn.build_preset("FNN1", 2, init_seed=3)
    state = nn.AdadeltaState(shapes=[p.shape for p in net.parameters()])
    losses = [nn.cross_entropy(net.forward(features), onehot)]
    for _ in range(5):
        _, grads = nn.backprop(net, features, onehot)
        for p, delta in zip(net.parameters(), nn.adadelta_step(state, grads)):
            p += delta
        losses.append(nn.cross_entropy(net.forward(features), onehot))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_inference_is_stateless():
    features, labels = _toy_clusters()
    net = nn.build_preset("DFNN_WS", 2, init_seed=1)
    nn.train_network(net, features, labels,
                     nn.TrainConfig(batch_size=8, epochs=2, dropout=0.1, seed=3))
    a = net.forward(features[:5])
    b = net.forward(features[:5])
    assert np.array_equal(a, b)


def test_training_log_lines():
    features, labels = _toy_clusters()
    net = nn.build_preset("FNN1", 2, init_seed=0)
    log = io.StringIO()
    nn.train_network(net, features, labels,
                     nn.TrainConfig(batch_size=8, epochs=3, dropout=0.0, seed=1), log=log)
    lines = log.getvalue().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("epoch=1 loss=")
    assert "acc=" in lines[0]


def test_train_rejects_empty():
    net = nn.build_preset("FNN1", 2, init_seed=0)
    with pytest.raises(ValueError, match="empty"):
        nn.train_network(net, np.zeros((0, 2)), np.zeros(0, dtype=np.int64),
                         nn.TrainConfig())


@pytest.mark.parametrize("name", nn.PRESET_NAMES)
def test_build_preset_rejects_zero_input_width(name):
    with pytest.raises(ValueError, match="input_width must be >= 1"):
        nn.build_preset(name, 0, init_seed=0)


def test_train_rejects_batch_size_one_with_batch_norm():
    # every batch would be a singleton that batch norm cannot train on
    features, labels = _toy_clusters()
    net = nn.build_preset("DFNN_WS", 2, init_seed=0)
    config = nn.TrainConfig(batch_size=1, epochs=1, dropout=0.1, seed=1)
    for log in (None, io.StringIO()):
        with pytest.raises(ValueError, match="batch size 1.*batch norm"):
            nn.train_network(net, features, labels, config, log=log)
    # without batch norm, single-row batches still train
    plain = nn.build_preset("FNN1", 2, init_seed=0)
    before = [p.copy() for p in plain.parameters()]
    nn.train_network(plain, features, labels, config)
    assert any(not np.array_equal(a, b) for a, b in zip(before, plain.parameters()))


def test_train_config_validation():
    with pytest.raises(ValueError):
        nn.TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        nn.TrainConfig(dropout=1.0)
    # a negative count used to train nothing and return the initial weights
    with pytest.raises(ValueError, match="^epochs must"):
        nn.TrainConfig(epochs=-3)
    assert nn.TrainConfig(epochs=0).epochs == 0


def _reference_train(model, features, labels, config, log=None):
    """The original training loop: per-parameter Adadelta, ``p += delta``."""
    n = features.shape[0]
    has_bn = any(isinstance(layer, nn.BatchNorm) for layer in model.layers)
    for layer in model.layers:
        if isinstance(layer, nn.Dropout):
            layer.rate = config.dropout
    onehot = (labels[:, None] == np.arange(4)[None, :]).astype(np.float64)
    rng = XoshiroLanes(config.seed)
    params = model.parameters()
    acc_grad = [np.zeros(p.shape) for p in params]
    acc_delta = [np.zeros(p.shape) for p in params]
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        loss_sum = 0.0
        hits = 0
        seen = 0
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            if idx.shape[0] == 1 and has_bn and n > 1:
                continue
            x, y = features[idx], onehot[idx]
            probs = model.forward(x, train=True, rng=rng)
            loss_sum += nn.cross_entropy(probs, y) * idx.shape[0]
            hits += int((probs.argmax(axis=1) == labels[idx]).sum())
            seen += idx.shape[0]
            grad = (probs - y) / idx.shape[0]
            for layer in reversed(model.layers):
                grad = layer.backward(grad)
            deltas = _reference_adadelta_step(acc_grad, acc_delta, model.gradients())
            for p, delta in zip(params, deltas):
                p += delta
        if log is not None:
            log.write(f"epoch={epoch + 1} loss={loss_sum / seen:.6f} acc={hits / seen:.4f}\n")
    return model


def _network_state(net):
    running = [a for layer in net.layers if isinstance(layer, nn.BatchNorm)
               for a in (layer.running_mean, layer.running_var)]
    return net.parameters() + running


@pytest.mark.parametrize("preset,width", [("FNN1", 2), ("DFNN3", 4), ("DFNN_WS", 4),
                                          ("DFNN_WS", 24)])
@pytest.mark.parametrize("with_log", [False, True])
def test_training_bitwise_equal_to_per_parameter_loop(preset, width, with_log):
    rng = XoshiroLanes(width)
    features = rng.uniform(-2, 2, (75, width))  # 75 = two full batches and a tail
    labels = (rng.doubles(75) * 4).astype(np.int64)
    config = nn.TrainConfig(batch_size=32, epochs=3, dropout=0.1, seed=17)
    logs = [io.StringIO() if with_log else None for _ in range(2)]
    net = nn.build_preset(preset, width, init_seed=6)
    reference = _reference_train(nn.build_preset(preset, width, init_seed=6),
                                 features, labels, config, log=logs[0])
    assert nn.train_network(net, features, labels, config, log=logs[1]) is net
    for a, b in zip(_network_state(reference), _network_state(net), strict=True):
        assert np.array_equal(a, b)
    if with_log:
        assert logs[1].getvalue() == logs[0].getvalue()
    x = rng.uniform(-2, 2, (9, width))
    assert np.array_equal(net.forward(x), reference.forward(x))


def test_training_rebinds_parameters_to_one_buffer():
    features, labels = _toy_clusters()
    net = nn.build_preset("DFNN3", 2, init_seed=3)
    before = net.parameters()
    copies = [p.copy() for p in before]
    nn.train_network(net, features, labels,
                     nn.TrainConfig(batch_size=8, epochs=2, dropout=0.0, seed=4))
    # arrays fetched before training keep their values ...
    assert all(np.array_equal(a, b) for a, b in zip(before, copies))
    # ... while the trained weights are views of one flat buffer
    after = net.parameters()
    assert len({id(p.base) for p in after}) == 1
    assert any(not np.array_equal(a, b) for a, b in zip(copies, after))


def _overflowing_dense_init(self, rng):
    # weights so large that a second dense layer overflows to inf
    self.weight = 1e200 * rng.uniform(-1, 1, (self.n_out, self.n_in))
    self.bias = np.zeros(self.n_out)


def test_train_raises_naming_epoch_when_weights_diverge(monkeypatch):
    features, labels = _toy_clusters()
    monkeypatch.setattr(nn.Dense, "init_params", _overflowing_dense_init)
    config = nn.TrainConfig(batch_size=8, epochs=3, dropout=0.0, seed=1)
    for log in (None, io.StringIO()):
        net = nn.build_preset("DFNN3", 2, init_seed=0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite weights after epoch 1$"):
            nn.train_network(net, features, labels, config, log=log)

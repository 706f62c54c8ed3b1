"""Versioned, lossless serialization for every trained model.

Models are stored as a single JSON document: ``{"format": "wallfollow-model",
"version": 1, "kind": ..., "payload": ...}``.  The model is what a ``fit_*``
function returns, or a ``neural.Network``.  A fitted-model dataclass is
encoded field by field, driven by its type annotations: arrays become nested
lists, nested dataclasses become objects and tree nodes use one compact node
codec.  Floats survive the round trip bit-for-bit (shortest-repr encoding),
so reloaded models predict identically to the originals.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from pathlib import Path

import numpy as np

from . import neural, stat_models, tree_models

FORMAT_NAME = "wallfollow-model"
FORMAT_VERSION = 1


# The payload of each kind is its class's fields, except that a decision tree
# is wrapped as {"root": node} and a network holds its layer list.
KINDS = {
    "decision_tree": tree_models.TreeNode,
    "random_forest": tree_models.ForestModel,
    "gradient_boost": tree_models.BoostModel,
    "lda": stat_models.LDAModel,
    "gnb": stat_models.GNBModel,
    "knn": stat_models.KNNModel,
    "svm": stat_models.SVMModel,
    "network": neural.Network,
}
_KIND_OF = {cls: kind for kind, cls in KINDS.items()}


def _node_to_dict(node: tree_models.TreeNode) -> dict:
    """Internal nodes as {"f", "t", "l", "r"}; leaves as {"counts"} or {"v"}."""
    if node.is_leaf:
        if isinstance(node.value, np.ndarray):
            return {"counts": [int(c) for c in node.value]}
        return {"v": node.value}
    return {"f": node.feature, "t": node.threshold,
            "l": _node_to_dict(node.left), "r": _node_to_dict(node.right)}


def _node_from_dict(data: dict) -> tree_models.TreeNode:
    if "f" in data:
        return tree_models.TreeNode(data["f"], data["t"], _node_from_dict(data["l"]),
                                    _node_from_dict(data["r"]))
    if "counts" in data:
        return tree_models.TreeNode(value=np.array(data["counts"], dtype=np.int64))
    return tree_models.TreeNode(value=data["v"])


# Network layers: type -> (class, constructor arguments, arrays stored beyond
# the class's PARAMS); a layer's object lists "type", then the arguments, then
# PARAMS, then the extra arrays.
LAYERS = {
    "shared": (neural.SharedInputLayer, ("d", "activation"), ()),
    "dense": (neural.Dense, ("n_in", "n_out"), ()),
    "batchnorm": (neural.BatchNorm, ("units", "momentum", "eps"),
                  ("running_mean", "running_var")),
    "relu": (neural.Relu, (), ()),
    "dropout": (neural.Dropout, ("rate",), ()),
}
_LAYER_TYPE_OF = {cls: kind for kind, (cls, _, _) in LAYERS.items()}


def _layer_to_dict(layer) -> dict:
    kind = _LAYER_TYPE_OF.get(type(layer))
    if kind is None:
        raise TypeError(f"cannot serialize layer {type(layer).__name__}")
    cls, args, extra = LAYERS[kind]
    return {"type": kind, **{a: getattr(layer, a) for a in args},
            **{a: getattr(layer, a).tolist() for a in cls.PARAMS + extra}}


def _layer_from_dict(data: dict):
    kind = data["type"]
    if kind not in LAYERS:
        raise ValueError(f"unknown layer type {kind!r}")
    cls, args, extra = LAYERS[kind]
    layer = cls(*(data[a] for a in args))
    for a in cls.PARAMS + extra:
        setattr(layer, a, np.array(data[a]))
    return layer


def _encode(value):
    if isinstance(value, tree_models.TreeNode):
        return _node_to_dict(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def _decode(hint, data):
    """Rebuild a value of the annotated type ``hint`` from its JSON form."""
    if hint is tree_models.TreeNode:
        return _node_from_dict(data)
    if hint is np.ndarray:
        return np.array(data)
    origin = typing.get_origin(hint)
    if origin in (list, tuple):
        item = typing.get_args(hint)[0]
        return origin(_decode(item, v) for v in data)
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return hint(**{f.name: _decode(hints[f.name], data[f.name])
                       for f in dataclasses.fields(hint)})
    return data


def encode_model(model) -> dict:
    kind = _KIND_OF.get(type(model))
    if kind is None:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    if kind == "decision_tree":
        payload = {"root": _node_to_dict(model)}
    elif kind == "network":
        payload = {"name": model.name,
                   "layers": [_layer_to_dict(layer) for layer in model.layers]}
    else:
        payload = _encode(model)
    return {"format": FORMAT_NAME, "version": FORMAT_VERSION, "kind": kind,
            "payload": payload}


def decode_model(document: dict):
    if document.get("format") != FORMAT_NAME:
        raise ValueError("not a wallfollow model document")
    if document.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {document.get('version')}")
    kind = document["kind"]
    payload = document["payload"]
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if kind == "decision_tree":
        return _node_from_dict(payload["root"])
    if kind == "network":
        return neural.Network([_layer_from_dict(d) for d in payload["layers"]],
                              name=payload["name"])
    return _decode(KINDS[kind], payload)


def save_model(model, path) -> None:
    Path(path).write_text(
        json.dumps(encode_model(model), allow_nan=False), encoding="utf-8"
    )


def load_model(path):
    return decode_model(json.loads(Path(path).read_text(encoding="utf-8")))

"""Versioned, lossless serialization for every trained model.

Models are stored as a single JSON document: ``{"format": "wallfollow-model",
"version": 3, "kind": ..., "payload": ...}``.  The model is what a ``fit_*``
function returns, or a ``neural.Network``.  One encoder, driven by type
annotations, handles every kind: dataclasses become objects field by field,
arrays nested lists, a layer an object of the ``KIND``, ``ARGS``, ``PARAMS``
and ``STATE`` its class declares, and a tree the five flat preorder lists of
``tree_models.tree_to_lists``, so a tree of any depth can be saved.  The
decoder builds each value through the constructor that checks it.  Floats
round-trip bit-for-bit (shortest repr), so reloaded models predict identically.
"""

from __future__ import annotations

import dataclasses
import json
import typing
import warnings
from pathlib import Path

import numpy as np

from . import neural, stat_models, tree_models

FORMAT_NAME = "wallfollow-model"
FORMAT_VERSION = 3


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

# Network layers by their "type" in a document
LAYERS = {cls.KIND: cls for cls in typing.get_args(neural.Layer)}


def _fields(data, keys, what: str) -> dict:
    """``data`` if it is an object holding every key; otherwise a ``ValueError``."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")
    return data


def _array(what: str, data) -> np.ndarray:
    """``np.array(data)``, or a ``ValueError`` naming ``what`` if its nested lists are ragged."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy < 1.24 warns and builds an object array
        try:
            return np.array(data)
        except (ValueError, Warning) as exc:
            raise ValueError(f"{what} must be a rectangular array, got nested lists of "
                             f"unequal lengths") from exc


def _encode(value):
    if isinstance(value, tree_models.TreeNode):
        return tree_models.tree_to_lists(value)
    if type(value) in LAYERS.values():
        names = value.ARGS + value.PARAMS + value.STATE
        return {"type": value.KIND, **{a: _encode(getattr(value, a)) for a in names}}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if value is None or isinstance(value, (str, int, float)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _decode(hint, data):
    """Rebuild a value of the annotated type ``hint`` from its JSON form."""
    if hint in (tree_models.TreeNode, tree_models.RegressionTree):
        return tree_models.tree_from_lists(_fields(data, tree_models.TREE_KEYS, "tree"),
                                           regression=hint == tree_models.RegressionTree)
    if hint is neural.Layer:
        kind = _fields(data, ("type",), "layer")["type"]
        if not isinstance(kind, str) or kind not in LAYERS:
            raise ValueError(f"unknown layer type {kind!r}")
        cls = LAYERS[kind]
        _fields(data, cls.ARGS + cls.PARAMS + cls.STATE, f"{kind} layer")
        layer = cls(*(data[a] for a in cls.ARGS))  # the constructor checks its arguments
        for a in cls.PARAMS + cls.STATE:  # and ``Network`` the arrays
            setattr(layer, a, _array(f"{kind} layer's {a!r}", data[a]))
        return layer
    origin = typing.get_origin(hint)
    if origin in (list, tuple):
        if not isinstance(data, list):
            raise ValueError(f"expected a JSON list, got {type(data).__name__}")
        item = typing.get_args(hint)[0]
        return origin(_decode(item, v) for v in data)
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint, include_extras=True)
        names = [f.name for f in dataclasses.fields(hint)]
        _fields(data, names, hint.__name__)
        return hint(**{name: _array(name, data[name]) if hints[name] is np.ndarray
                       else _decode(hints[name], data[name]) for name in names})
    return data


def encode_model(model) -> dict:
    kind = _KIND_OF.get(type(model))
    if kind is None:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    return {"format": FORMAT_NAME, "version": FORMAT_VERSION, "kind": kind,
            "payload": _encode(model)}


def decode_model(document: dict):
    if not isinstance(document, dict) or document.get("format") != FORMAT_NAME:
        raise ValueError("not a wallfollow model document")
    if document.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {document.get('version')}")
    kind = _fields(document, ("kind", "payload"), "model document")["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    return _decode(KINDS[kind], document["payload"])


def save_model(model, path) -> None:
    Path(path).write_text(
        json.dumps(encode_model(model), allow_nan=False), encoding="utf-8"
    )


def load_model(path):
    return decode_model(json.loads(Path(path).read_text(encoding="utf-8")))

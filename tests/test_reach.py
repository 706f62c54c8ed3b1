"""Every function in ``src/wallfollow`` is either run by the CLI or listed here with a reason.

The test runs ``cli.main`` in-process on a small synthetic trio under a ``sys.settrace``
tracer that records only ``call`` events, and compares the package functions never entered
with ``UNREACHED``.  A new function that only tests reach fails it, and so does a listed
function that starts to run, which must then leave the list.
"""

import ast
import sys
from pathlib import Path

import wallfollow
from wallfollow import cli

from conftest import synth_full_dataset, write_trio

PACKAGE = Path(wallfollow.__file__).parent  # unresolved, as the code objects name their files

_PUBLIC_SAVE_LOAD = "the public save/load API, which no CLI command calls"

# Package functions that no traced command enters, each with the reason.
UNREACHED = {
    "cli._download": "network fetch (`data fetch`)",
    "evaluation._pool_init": "the `--jobs` pool, whose workers run in other processes",
    "evaluation._pool_task": "the `--jobs` pool, whose workers run in other processes",
    "evaluation._future_row": "the `--jobs` pool, whose workers run in other processes",
    "evaluation._task_error": "the error text of a cell whose fit or prediction raised",
    "neural.adadelta_step": "called only by perfbench/replay.py, whose epoch replay times it",
    "neural.cross_entropy": "runs only when `train_network` gets a `log=`",
    **dict.fromkeys(
        [f"serialize.{name}" for name in ("_fields", "_array", "_encode", "_decode",
                                          "encode_model", "decode_model", "save_model",
                                          "load_model")]
        + ["tree_models.tree_from_lists", "tree_models._leaf_value"],
        _PUBLIC_SAVE_LOAD),
}


def _defs(node, prefix):
    """(first line counting decorators, name, ``prefix.outer.name``) of every ``def`` under
    ``node``, methods and nested functions too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield first, child.name, f"{prefix}.{child.name}"
        scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _defs(child, f"{prefix}.{child.name}" if scope else prefix)


def _inventory() -> dict:
    """Every package function keyed as its code object is: (file, ``co_firstlineno``,
    ``co_name``); the value is its dotted name."""
    return {(str(path), first, name): dotted
            for path in sorted(PACKAGE.glob("*.py"))
            for first, name, dotted in _defs(ast.parse(path.read_text(encoding="utf-8")),
                                             path.stem)}


def _traced_cli_runs(tmp_path) -> set:
    """The inventory keys of the functions the CLI commands below enter."""
    data, bad = tmp_path / "data", tmp_path / "bad"
    full = synth_full_dataset(120, seed=1)  # every class has at least 4 rows, so every cell fits
    write_trio(full, data)
    write_trio(full, bad)
    (bad / "sensor_readings_4.data").write_text("1.0,2.0,Move-Forward\n", encoding="utf-8")
    config = tmp_path / "bench.cfg"
    config.write_text(f"data-dir = {data}\nout = {tmp_path / 'config-run'}\n", encoding="utf-8")
    runs = [
        (["data", "verify", "--data-dir", str(data)], cli.EXIT_DATA),  # 120 rows, not 5456
        (["data", "derive", "--data-dir", str(data)], cli.EXIT_OK),
        # width 4, where a forest draws 2 of 4 candidate features by `sample_indices`
        (["--config", str(config), "bench", "--iters", "1", "--widths", "4"], cli.EXIT_OK),
        (["bench", "--data-dir", str(data), "--out", str(tmp_path / "table2-run"), "--iters",
          "1", "--models", "dt,gbc"], cli.EXIT_OK),  # every cell of table 2
        (["export-tree", "--data-dir", str(data), "--out", str(tmp_path / "tree.dot"),
          "--width", "4", "--restrict", "front,left"], cli.EXIT_OK),
        (["data", "verify", "--data-dir", str(bad)], cli.EXIT_DATA),
        (["bench", "--data-dir", str(data), "--iters", "0"], cli.EXIT_USAGE),
    ]
    entered = set()
    outer = sys.gettrace()

    def record(frame, event, arg):  # the global tracer sees only "call" events
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))
        return outer(frame, event, arg) if outer else None  # an outer tracer keeps its lines

    codes = []
    sys.settrace(record)
    try:
        for argv, _ in runs:
            codes.append(cli.main(argv))
    finally:
        sys.settrace(outer)
    assert codes == [code for _, code in runs]
    return entered


def test_every_package_function_runs_in_the_cli_or_is_listed_with_a_reason(tmp_path):
    assert all(isinstance(reason, str) and reason for reason in UNREACHED.values())
    inventory = _inventory()
    entered = _traced_cli_runs(tmp_path)
    never = {name for key, name in inventory.items() if key not in entered}
    assert sorted(never - UNREACHED.keys()) == [], "reached only by tests: move to tests/ or list"
    assert sorted(UNREACHED.keys() - never) == [], "listed, but runs or is gone: unlist"

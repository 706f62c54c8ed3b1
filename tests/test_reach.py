"""Every function in ``src/wallfollow`` is either run by the CLI or listed here with a reason.

The test runs ``cli.main`` in-process on a small synthetic trio under a ``sys.settrace``
tracer that records only ``call`` events, and compares the package functions never entered
with ``UNREACHED``.  A new function that only tests reach fails it, and so does a listed
function that starts to run, which must then leave the list.  The fits that ``fork_map``
spreads over forked workers, and the blocks of lane draws that ``made_ahead``'s worker
makes, run there unseen, so the runs take both paths: forked, and in turn as on one usable
CPU.
"""

import ast
import sys
from pathlib import Path

import wallfollow
from wallfollow import cli

from conftest import synth_full_dataset, write_trio

PACKAGE = Path(wallfollow.__file__).parent  # unresolved, as the code objects name their files

_PUBLIC_SAVE_LOAD = "the public save/load API, which no CLI command calls"
_IN_WORKERS = "runs only in pool workers, which are other processes"

# Package functions that no traced command enters, each with the reason.
UNREACHED = {
    "cli._download": "network fetch (`data fetch`)",
    "parallel._set_work": _IN_WORKERS,
    "parallel._fork_task": _IN_WORKERS,
    "parallel._make_ahead": _IN_WORKERS,
    "evaluation._future_row": "the `--jobs` pool, whose workers run in other processes",
    "evaluation._task_error": "the error text of a cell whose fit or prediction raised",
    "neural.adadelta_step": "called only by perfbench/replay.py, whose epoch replay times it",
    "neural.cross_entropy": "runs only when `train_network` gets a `log=`",
    **dict.fromkeys(
        [f"serialize.{name}" for name in ("_fields", "_array", "_encode", "_decode",
                                          "encode_model", "decode_model", "save_model",
                                          "load_model")],
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


def _traced_cli_runs(tmp_path, fit_path) -> list[set]:
    """The inventory keys of the functions each CLI command below enters."""
    data, bad = tmp_path / "data", tmp_path / "bad"
    full = synth_full_dataset(120, seed=1)  # every class has at least 4 rows, so every cell fits
    write_trio(full, data)
    write_trio(full, bad)
    (bad / "sensor_readings_4.data").write_text("1.0,2.0,Move-Forward\n", encoding="utf-8")
    config = tmp_path / "bench.cfg"
    config.write_text(f"data-dir = {data}\nout = {tmp_path / 'config-run'}\n", encoding="utf-8")
    # width 4, where a forest draws 2 of 4 candidate features by `sample_indices`
    every_model = ["--config", str(config), "bench", "--iters", "1", "--widths", "4"]
    runs = [  # (argv, exit code, whether fork_map and made_ahead fork)
        (["data", "verify", "--data-dir", str(data)], cli.EXIT_DATA, True),  # 120 rows, not 5456
        (["data", "derive", "--data-dir", str(data)], cli.EXIT_OK, True),
        (every_model, cli.EXIT_OK, True),
        (every_model, cli.EXIT_OK, False),
        (["bench", "--data-dir", str(data), "--out", str(tmp_path / "table2-run"), "--iters",
          "1", "--models", "dt,gbc"], cli.EXIT_OK, True),  # every cell of table 2
        (["export-tree", "--data-dir", str(data), "--out", str(tmp_path / "tree.dot"),
          "--width", "4", "--restrict", "front,left"], cli.EXIT_OK, True),
        (["data", "verify", "--data-dir", str(bad)], cli.EXIT_DATA, True),
        (["bench", "--data-dir", str(data), "--iters", "0"], cli.EXIT_USAGE, True),
    ]
    entered = []
    outer = sys.gettrace()

    def record(frame, event, arg):  # the global tracer sees only "call" events
        code = frame.f_code
        entered[-1].add((code.co_filename, code.co_firstlineno, code.co_name))
        return outer(frame, event, arg) if outer else None  # an outer tracer keeps its lines

    codes = []
    sys.settrace(record)
    try:
        for argv, _, fork in runs:
            entered.append(set())
            fit_path(fork)
            codes.append(cli.main(argv))
    finally:
        sys.settrace(outer)
    assert codes == [code for _, code, _ in runs]
    return entered


def test_every_package_function_runs_in_the_cli_or_is_listed_with_a_reason(tmp_path, fit_path):
    assert all(isinstance(reason, str) and reason for reason in UNREACHED.values())
    inventory = _inventory()
    runs = _traced_cli_runs(tmp_path, fit_path)
    entered = set().union(*runs)
    never = {name for key, name in inventory.items() if key not in entered}
    assert sorted(never - UNREACHED.keys()) == [], "reached only by tests: move to tests/ or list"
    assert sorted(UNREACHED.keys() - never) == [], "listed, but runs or is gone: unlist"
    # the every-model bench: DFNN_WS reads its draws from made-ahead blocks on both
    # paths; only the forked run reads the blocks from the worker's ring
    forked, serial = ({inventory[key] for key in run if key in inventory} for run in runs[2:4])
    made = {"rng.LaneReader.doubles", "rng.XoshiroLanes.permutation", "parallel.made_ahead"}
    assert made <= forked & serial
    assert "parallel._ring_blocks" in forked - serial
    assert "rng.XoshiroLanes.u64" in serial

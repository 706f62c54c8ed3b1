import os
import random
import re
import subprocess
import sys
import threading
from functools import partial
from http.server import BaseHTTPRequestHandler, HTTPServer, SimpleHTTPRequestHandler
from pathlib import Path

import numpy as np
import pytest

from conftest import DATA_FILES, synth_full_dataset, write_trio
from wallfollow import cli


def run_cli(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# data verify / derive
# ---------------------------------------------------------------------------

def crlf_copy(directory, tmp_path):
    """The data files of ``directory`` with every line ended by CR LF."""
    crlf = tmp_path / "crlf"
    crlf.mkdir()
    for name in DATA_FILES:
        lf = (directory / name).read_bytes()
        assert b"\r" not in lf
        (crlf / name).write_bytes(lf.replace(b"\n", b"\r\n"))
    assert (crlf / DATA_FILES[2]).read_bytes().count(b"\r\n") == 5456
    return crlf


def test_verify_intact_files(published_like_dir, tmp_path, capsys):
    assert run_cli("data", "verify", "--data-dir", str(published_like_dir)) == 0
    out = capsys.readouterr().out
    for name in DATA_FILES:
        assert f"{name}: 5456 rows" in out
    # a CRLF file is one byte longer per line, so only the byte counts may differ
    crlf = crlf_copy(published_like_dir, tmp_path)
    assert run_cli("data", "verify", "--data-dir", str(crlf)) == 0
    assert (re.sub(r" \(\d+ bytes\)", "", capsys.readouterr().out)
            == re.sub(r" \(\d+ bytes\)", "", out))


def test_verify_truncated_file(published_like_dir, tmp_path, capsys):
    for name in DATA_FILES:
        (tmp_path / name).write_text((published_like_dir / name).read_text())
    truncated = (tmp_path / "sensor_readings_4.data").read_text().splitlines()[:100]
    (tmp_path / "sensor_readings_4.data").write_text("\n".join(truncated) + "\n")
    assert run_cli("data", "verify", "--data-dir", str(tmp_path)) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "sensor_readings_4.data" in err


def test_verify_file_that_is_not_utf8(published_like_dir, tmp_path, capsys):
    for name in DATA_FILES:
        (tmp_path / name).write_bytes((published_like_dir / name).read_bytes())
    two = tmp_path / "sensor_readings_2.data"
    two.write_bytes(b"\xff\xfe" + two.read_bytes())
    assert run_cli("data", "verify", "--data-dir", str(tmp_path)) == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert "error: sensor_readings_2.data: byte 0 is not UTF-8" in captured.err
    assert "sensor_readings_24.data: 5456 rows" in captured.out


def test_verify_missing_file(tmp_path, capsys):
    assert run_cli("data", "verify", "--data-dir", str(tmp_path)) == cli.EXIT_DATA
    assert "missing data file" in capsys.readouterr().err


def test_derive_exact_match(published_like_dir, tmp_path, capsys):
    assert run_cli("data", "derive", "--data-dir", str(published_like_dir)) == 0
    out = capsys.readouterr().out
    assert out.count("exact match") == 2
    assert "arc front" in out
    crlf = crlf_copy(published_like_dir, tmp_path)
    assert run_cli("data", "derive", "--data-dir", str(crlf)) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("field, edit, message", [
    (0, lambda value: repr(float(value) + 0.25), "error: 2-sensor: 1 mismatched cells"),
    (2, lambda token: "Sharp-Right-Turn" if token == "Move-Forward" else "Move-Forward",
     "error: label sequences differ between the full and 2-sensor files"),
], ids=["cell", "label"])
def test_derive_detects_corruption(published_like_dir, tmp_path, capsys, field, edit, message):
    for name in DATA_FILES:
        (tmp_path / name).write_text((published_like_dir / name).read_text())
    path = tmp_path / "sensor_readings_2.data"
    lines = path.read_text().splitlines()
    fields = lines[0].split(",")
    fields[field] = edit(fields[field])
    lines[0] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert run_cli("data", "derive", "--data-dir", str(tmp_path)) == cli.EXIT_DATA
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("width", [4, 2])
def test_derive_rejects_files_of_different_lengths(published_like_dir, tmp_path, capsys, width):
    for name in DATA_FILES:
        (tmp_path / name).write_text((published_like_dir / name).read_text())
    path = tmp_path / f"sensor_readings_{width}.data"
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    assert run_cli("data", "derive", "--data-dir", str(tmp_path)) == cli.EXIT_DATA
    assert capsys.readouterr().err == "error: row counts differ: 5456 vs 5455\n"


# Every kind of damage a data file may take; ``mutated_trio`` applies one to the 120-row trio.
MUTATIONS = ("drop", "duplicate", "swap", "flip", "delete", "double-comma", "truncate",
             "bad-token", "nan", "1e999", "blank", "crlf", "bom", "empty", "swap-files",
             "extra-column")


@pytest.fixture(scope="module")
def small_trio(tmp_path_factory):
    """The bytes of each file of a 120-row synthetic trio."""
    directory = tmp_path_factory.mktemp("small")
    write_trio(synth_full_dataset(120, seed=1), directory)
    return {name: (directory / name).read_bytes() for name in DATA_FILES}


def mutated_trio(files: dict, kind: str, rng: random.Random) -> dict:
    """``files`` with one file (two for ``swap-files``) damaged by ``kind``."""
    files = dict(files)
    name = rng.choice(DATA_FILES)
    data = files[name]
    lines = data.split(b"\n")[:-1]  # every line ends with a newline
    i = rng.randrange(len(lines))
    fields = lines[i].split(b",")
    field = rng.randrange(len(fields) - 1)  # a number, not the label
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = rng.choice([j for j in range(len(lines)) if lines[j] != lines[i]])
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "blank":
        lines.insert(i, b"")
    elif kind == "extra-column":
        lines[i] += b",1.0"
    elif kind in ("bad-token", "nan", "1e999"):
        token = {"bad-token": b"Move-Sideways", "nan": b"nan", "1e999": b"1e999"}[kind]
        fields[rng.choice([field, -1]) if kind == "bad-token" else field] = token
        lines[i] = b",".join(fields)
    if kind in ("drop", "duplicate", "swap", "blank", "bad-token", "nan", "1e999",
                "extra-column"):
        data = b"".join(line + b"\n" for line in lines)
    at = rng.randrange(len(data))
    if kind == "flip":
        data = data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1:]
    elif kind == "delete":
        data = data[:at] + data[at + 1:]
    elif kind == "double-comma":
        comma = data.index(b",", at) if b"," in data[at:] else data.index(b",")
        data = data[:comma] + b"," + data[comma:]
    elif kind == "truncate":
        data = data[:at]
    elif kind == "crlf":
        data = data.replace(b"\n", b"\r\n")
    elif kind == "bom":
        data = b"\xef\xbb\xbf" + data
    elif kind == "empty":
        data = b""
    files[name] = data
    if kind == "swap-files":
        other = rng.choice([other for other in DATA_FILES if other != name])
        files[name], files[other] = files[other], files[name]
    return files


@pytest.mark.parametrize("case", range(40))
def test_a_damaged_data_file_is_a_data_error_never_an_execution_error(small_trio, tmp_path,
                                                                       capsys, case):
    # exit 0 (the damage is harmless, as CRLF line ends are) or 3, with the reason
    kind = MUTATIONS[case % len(MUTATIONS)]
    for name, data in mutated_trio(small_trio, kind, random.Random(case)).items():
        (tmp_path / name).write_bytes(data)
    for command in ("verify", "derive"):
        status = run_cli("data", command, "--data-dir", str(tmp_path))
        err = capsys.readouterr().err
        assert status in (cli.EXIT_OK, cli.EXIT_DATA), f"{kind}: data {command}: {err}"
        assert (status == cli.EXIT_OK) == (err == ""), f"{kind}: data {command}: {err}"


# ---------------------------------------------------------------------------
# data fetch (exercised against a local HTTP server)
# ---------------------------------------------------------------------------

def test_fetch_downloads_three_files(published_like_dir, tmp_path):
    handler = partial(SimpleHTTPRequestHandler, directory=str(published_like_dir))
    server = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = f"http://127.0.0.1:{server.server_port}"
        dest = tmp_path / "fetched"
        assert run_cli("data", "fetch", "--data-dir", str(dest), "--base-url", base) == 0
        for name in DATA_FILES:
            assert (dest / name).read_bytes() == (published_like_dir / name).read_bytes()
    finally:
        server.shutdown()
        server.server_close()


def test_fetch_reports_failure(tmp_path, capsys):
    rc = run_cli("data", "fetch", "--data-dir", str(tmp_path),
                 "--base-url", "http://127.0.0.1:1/missing")
    assert rc == cli.EXIT_DATA
    assert "download failed" in capsys.readouterr().err


def test_fetch_failure_leaves_no_partial_file(published_like_dir, tmp_path, capsys):
    # a file:// mirror without the second file: the first download lands,
    # the failed one neither truncates the existing copy nor leaves a temp file
    mirror = tmp_path / "mirror"
    mirror.mkdir()
    for name in (DATA_FILES[0], DATA_FILES[2]):
        (mirror / name).write_bytes((published_like_dir / name).read_bytes())
    dest = tmp_path / "data"
    dest.mkdir()
    (dest / DATA_FILES[1]).write_text("previous copy\n")
    rc = run_cli("data", "fetch", "--data-dir", str(dest), "--base-url", mirror.as_uri())
    assert rc == cli.EXIT_DATA
    assert "download failed" in capsys.readouterr().err
    assert sorted(p.name for p in dest.iterdir()) == sorted(DATA_FILES[:2])
    assert (dest / DATA_FILES[0]).read_bytes() == (mirror / DATA_FILES[0]).read_bytes()
    assert (dest / DATA_FILES[1]).read_text() == "previous copy\n"

class _ShortBodyHandler(BaseHTTPRequestHandler):
    """Announces 100 more bytes than it sends, then closes the connection."""

    def do_GET(self):
        body = b"1.0,2.0,Move-Forward\n" * 50
        self.send_response(200)
        self.send_header("Content-Length", str(len(body) + 100))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_fetch_truncated_transfer_reports_failure(tmp_path, capsys):
    server = HTTPServer(("127.0.0.1", 0), _ShortBodyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        rc = run_cli("data", "fetch", "--data-dir", str(tmp_path),
                     "--base-url", f"http://127.0.0.1:{server.server_port}")
    finally:
        server.shutdown()
        server.server_close()
    assert rc == cli.EXIT_DATA
    assert "download failed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_import_loads_neither_network_nor_process_pool_modules(published_like_dir):
    # only `data fetch` needs the network modules and only `--jobs` > 1 the pool;
    # a fresh interpreter shows what importing the command line and `data verify` load
    unused = ("ssl", "http.client", "urllib.request", "email", "multiprocessing",
              "concurrent.futures.process")
    probe = ("import sys, wallfollow.cli\n"
             "status = wallfollow.cli.main(['data', 'verify', '--data-dir', sys.argv[1]])\n"
             f"print(status, [m for m in {unused!r} if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe, str(published_like_dir)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines()[-1] == "0 []"

# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_single_cell(published_like_dir, tmp_path, capsys):
    out = tmp_path / "results"
    rc = run_cli("bench", "--data-dir", str(published_like_dir), "--models", "dt",
                 "--widths", "2", "--iters", "3", "--seed", "42", "--out", str(out))
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "dt/2: mean" in stdout
    assert "%" in stdout
    csv = (out / "results.csv").read_text().splitlines()
    assert csv[0] == "model,width,iteration,seed,accuracy"
    assert len(csv) == 4
    assert (out / "table1.md").exists()


def test_bench_repeat_runs_byte_identical(published_like_dir, tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ("bench", "--data-dir", str(published_like_dir), "--models", "dt,gnb",
            "--widths", "2,4", "--iters", "2", "--seed", "7")
    assert run_cli(*args, "--out", str(out_a)) == 0
    capsys.readouterr()
    assert run_cli(*args, "--out", str(out_b)) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    assert (out_a / "table1.md").read_bytes() == (out_b / "table1.md").read_bytes()
    # the per-cell summary lists the cells in results.csv order
    rows = (out_b / "results.csv").read_text().splitlines()[1:]
    csv_cells = list(dict.fromkeys("/".join(row.split(",")[:2]) for row in rows))
    summary = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
               if ": mean " in line]
    assert csv_cells == ["dt/4", "dt/2", "gnb/4", "gnb/2"]
    assert summary == csv_cells


def test_bench_parallel_matches_serial(published_like_dir, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ("bench", "--data-dir", str(published_like_dir), "--models", "dt",
            "--widths", "2", "--iters", "4", "--seed", "3")
    assert run_cli(*args, "--out", str(out_a), "--jobs", "1") == 0
    assert run_cli(*args, "--out", str(out_b), "--jobs", "2") == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


def test_bench_refuses_an_unusable_out_before_the_grid_runs(published_like_dir, tmp_path,
                                                            capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    rc = run_cli("bench", "--data-dir", str(published_like_dir), "--models", "dt",
                 "--widths", "2", "--iters", "2", "--out", str(taken))
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "File exists" in err and "running" not in err


def test_bench_unknown_model_tag(published_like_dir, tmp_path, capsys):
    rc = run_cli("bench", "--data-dir", str(published_like_dir), "--models", "xgboost",
                 "--out", str(tmp_path / "r"))
    assert rc == cli.EXIT_USAGE
    assert "unknown model tag" in capsys.readouterr().err


def test_bench_missing_data(tmp_path, capsys):
    rc = run_cli("bench", "--data-dir", str(tmp_path / "nowhere"),
                 "--models", "dt", "--out", str(tmp_path / "r"))
    assert rc == cli.EXIT_DATA


def test_bench_writes_table2_when_cells_present(published_like_dir, tmp_path):
    out = tmp_path / "results"
    rc = run_cli("bench", "--data-dir", str(published_like_dir), "--models", "dt,gbc",
                 "--widths", "24,4,2", "--iters", "1", "--seed", "5", "--out", str(out))
    assert rc == 0
    for name in ("results.csv", "table1.md", "table2.md"):
        assert (out / name).stat().st_size > 0
    table2 = (out / "table2.md").read_text()
    assert "98.8%" in table2 and "99.63%" in table2
    # a narrower run into the same directory must not leave the old table2.md
    rc = run_cli("bench", "--data-dir", str(published_like_dir), "--models", "dt",
                 "--widths", "2", "--iters", "1", "--seed", "5", "--out", str(out))
    assert rc == 0
    assert sorted(path.name for path in out.iterdir()) == ["results.csv", "table1.md"]
    assert (out / "results.csv").read_text().splitlines()[1].startswith("dt,2,0,")


def test_bench_whose_write_fails_replaces_no_earlier_output(tmp_path, capsys):
    # a directory at table1.md.part stands in for a full disk while table1.md is written
    data, out = tmp_path / "data", tmp_path / "results"
    write_trio(synth_full_dataset(120, seed=1), data)
    args = ("bench", "--data-dir", str(data), "--models", "dt,gbc", "--iters", "1",
            "--out", str(out))
    assert run_cli(*args, "--seed", "1") == 0
    names = ["results.csv", "table1.md", "table2.md"]
    before = {name: (out / name).read_bytes() for name in names}
    (out / "table1.md.part").mkdir()
    capsys.readouterr()
    assert run_cli(*args, "--seed", "2") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.endswith(f"error: cannot write {out / 'table1.md'}: "
                        f"[Errno 21] Is a directory: '{out / 'table1.md.part'}'\n")
    assert {name: (out / name).read_bytes() for name in names} == before
    assert sorted(path.name for path in out.iterdir()) == sorted(names + ["table1.md.part"])


BENCH_USAGE_ERRORS = [
    *(pytest.param(source, f"jobs={jobs}", "--jobs must be at least 1", id=f"{jobs}-{source}")
      for jobs in (0, -1) for source in ("flag", "config")),
    *(pytest.param(source, "iters=0", "--iters must be at least 1", id=f"iters0-{source}")
      for source in ("flag", "config")),
    pytest.param("config", "seed=x", "argument --seed: invalid int value: 'x'",
                 id="seed-x-config"),
    pytest.param("config", "iterations=3", "unknown config key 'iterations'",
                 id="unknown-key-config"),
    # a repeated key used to run with its last value and exit 0
    pytest.param("config", "seed=1\nseed=2", "lines 1 and 2 both set 'seed'",
                 id="repeated-key-config"),
    pytest.param("config", "data-dir=a\n# a comment\ndata_dir=b",
                 "lines 1 and 3 both set 'data_dir'", id="repeated-spelling-config"),
    *(pytest.param(source, setting, message, id=f"{name}-{source}")
      for name, setting, message in (
          ("no-models", "models=,", "no model tag in ','"),
          ("repeated-model", "models=dt,dt", "repeated model tag in 'dt,dt'"),
          ("repeated-width", "widths=2,2", "repeated width in '2,2'"))
      for source in ("flag", "config")),
]


@pytest.mark.parametrize("source, setting, message", BENCH_USAGE_ERRORS)
def test_bench_rejects_jobs_below_one(tmp_path, capsys, source, setting, message):
    # the data directory is missing too: the usage error must come first
    args = ["bench", "--data-dir", str(tmp_path / "nowhere"), "--out", str(tmp_path / "r")]
    if source == "flag":
        args.append(f"--{setting}")
    else:
        config = tmp_path / "bench.cfg"
        config.write_text(setting.replace("=", " = ") + "\n")
        args = ["--config", str(config), *args]
    assert run_cli(*args) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_config_file_presets_flags(published_like_dir, tmp_path, capsys):
    config = tmp_path / "bench.cfg"
    config.write_text(
        f"data-dir = {published_like_dir}\n"
        "models = dt\n"
        "widths = 2\n"
        "iters = 2\n"
        f"out = {tmp_path / 'cfg_out'}\n"
        "# comment line\n"
    )
    assert run_cli("--config", str(config), "bench") == 0
    assert (tmp_path / "cfg_out" / "results.csv").exists()
    # flags override the file
    assert run_cli("--config", str(config), "bench", "--iters", "1",
                   "--out", str(tmp_path / "cfg_out2")) == 0
    lines = (tmp_path / "cfg_out2" / "results.csv").read_text().splitlines()
    assert len(lines) == 2
    # the same file presets export-tree's --restrict, and then its --width too
    config.write_text(config.read_text() + "restrict = front\n")
    tree = tmp_path / "front.dot"
    assert run_cli("--config", str(config), "export-tree", "--width", "4",
                   "--out", str(tree)) == 0
    splits = [line for line in tree.read_text().splitlines() if "<=" in line]
    assert splits and all("X_0" in line for line in splits)
    config.write_text(config.read_text() + "width = 4\n")
    assert run_cli("--config", str(config), "export-tree", "--out", str(tmp_path / "t.dot")) == 0
    assert (tmp_path / "t.dot").read_bytes() == tree.read_bytes()


# ---------------------------------------------------------------------------
# export-tree
# ---------------------------------------------------------------------------

def assert_splits_only_on_x0_x1(text):
    # a one-leaf tree has no split line at all, so at least one is required
    splits = [line for line in text.splitlines() if "<=" in line]
    assert splits
    assert all(re.search(r'label="X_[01] <= ', line) for line in splits), splits


def test_export_tree_width2_uses_both_features(published_like_dir, tmp_path, capsys):
    out = tmp_path / "tree.dot"
    rc = run_cli("export-tree", "--data-dir", str(published_like_dir), "--width", "2",
                 "--seed", "1", "--out", str(out))
    assert rc == 0
    text = out.read_text()
    assert text.startswith("digraph tree {")
    assert_splits_only_on_x0_x1(text)
    assert "test accuracy" in capsys.readouterr().out


def test_export_tree_restrict_front_left(published_like_dir, tmp_path, capsys):
    out = tmp_path / "tree4.dot"
    rc = run_cli("export-tree", "--data-dir", str(published_like_dir), "--width", "4",
                 "--restrict", "front,left", "--out", str(out))
    assert rc == 0
    assert_splits_only_on_x0_x1(out.read_text())  # front=X_0, left=X_1
    assert "test accuracy" in capsys.readouterr().out


def test_export_tree_unwritable_output(published_like_dir, tmp_path, capsys):
    rc = run_cli("export-tree", "--data-dir", str(published_like_dir), "--width", "2",
                 "--out", str(tmp_path / "no_such_dir" / "tree.dot"))
    assert rc == cli.EXIT_DATA
    assert "cannot write" in capsys.readouterr().err


def test_export_tree_bad_restrict(published_like_dir, tmp_path, capsys):
    rc = run_cli("export-tree", "--data-dir", str(published_like_dir), "--width", "2",
                 "--restrict", "back", "--out", str(tmp_path / "t.dot"))
    assert rc == cli.EXIT_USAGE
    # digits that are not ASCII, which int() rejects ('²') or reads ('١', Arabic-Indic one)
    for token in ("\u00b2", "\u0661"):
        capsys.readouterr()
        rc = run_cli("export-tree", "--data-dir", str(published_like_dir), "--width", "4",
                     "--restrict", token, "--out", str(tmp_path / "t.dot"))
        assert rc == cli.EXIT_USAGE
        assert f"cannot restrict to feature {token!r} at width 4" in capsys.readouterr().err
    assert not (tmp_path / "t.dot").exists()


def test_export_tree_empty_restrict_is_a_usage_error(published_like_dir, tmp_path, capsys):
    config = tmp_path / "export.cfg"
    config.write_text("restrict =\n", encoding="utf-8")
    for argv in (["--restrict", ""], ["--restrict", " , "]):
        rc = run_cli("export-tree", "--data-dir", str(published_like_dir), "--width", "4", *argv,
                     "--out", str(tmp_path / "t.dot"))
        assert rc == cli.EXIT_USAGE
        assert f"no feature in {argv[1]!r}" in capsys.readouterr().err
    rc = run_cli("--config", str(config), "export-tree", "--data-dir", str(published_like_dir),
                 "--width", "4", "--out", str(tmp_path / "t.dot"))
    assert rc == cli.EXIT_USAGE
    assert "no feature in ''" in capsys.readouterr().err
    assert not (tmp_path / "t.dot").exists()


def test_export_tree_repeated_restrict_is_a_usage_error(published_like_dir, tmp_path, capsys):
    # a name and an index of one feature repeat it too, as --widths 4,4 repeats a width
    for token in ("1,1", "front,0", "left, LEFT"):
        rc = run_cli("export-tree", "--data-dir", str(published_like_dir), "--width", "4",
                     "--restrict", token, "--out", str(tmp_path / "t.dot"))
        assert rc == cli.EXIT_USAGE
        assert f"repeated feature in {token!r}" in capsys.readouterr().err
    assert not (tmp_path / "t.dot").exists()


# A malformed value of each flag, given as a flag and as a config value: usage errors
# (exit 2) before any line is printed or any file or directory is made.
MALFORMED = [
    ("data fetch", "base-url=notaurl", "not an http, https or file URL: 'notaurl'"),
    ("data fetch", "base-url=", "not an http, https or file URL: ''"),
    ("data fetch", "base-url=http://[::1", "bad URL 'http://[::1': Invalid IPv6 URL"),
    ("data fetch", "base-url=ftp://127.0.0.1:1/data", "not an http, https or file URL"),
    ("bench", "widths=8", "unknown width '8' (expected 24, 4 or 2)"),
    ("bench", "widths=4,", "empty width in '4,'"),
    ("bench", "models=x", "unknown model tag 'x'"),
    ("bench", "models=dt,", "empty model tag in 'dt,'"),
    ("bench", "seed=1.5", "argument --seed: invalid int value: '1.5'"),
    ("bench", "iters=0", "--iters must be at least 1"),
    ("export-tree", "width=4 restrict=9", "cannot restrict to feature '9' at width 4"),
    ("export-tree", "width=4 restrict=front,,left", "empty feature in 'front,,left'"),
    ("export-tree", "width=4 seed=1.5", "argument --seed: invalid int value: '1.5'"),
    ("export-tree", "width=8", "unknown width '8' (expected 24, 4 or 2)"),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, settings, message", MALFORMED,
                         ids=[f"{c.split()[-1]}-{s}" for c, s, _ in MALFORMED])
def test_a_malformed_value_is_a_usage_error_before_anything_runs(tmp_path, capsys, command,
                                                                 settings, message, source):
    args = [*command.split(), "--data-dir", str(tmp_path / "data")]
    if command != "data fetch":
        args += ["--out", str(tmp_path / "out")]
    pairs = [setting.split("=", 1) for setting in settings.split()]
    if source == "flag":
        args += [part for key, value in pairs for part in (f"--{key}", value)]
    else:
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{key} = {value}\n" for key, value in pairs))
        args = ["--config", str(config), *args]
    assert run_cli(*args) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert "running" not in captured.err and "fetching" not in captured.err
    assert [path.name for path in tmp_path.iterdir()] == (["run.cfg"] if source == "config"
                                                          else [])


def test_usage_error_exit_code(tmp_path, capsys):
    assert run_cli("no-such-command") == cli.EXIT_USAGE
    assert run_cli() == cli.EXIT_USAGE
    assert run_cli("--config", str(tmp_path / "missing.cfg"), "bench") == cli.EXIT_USAGE

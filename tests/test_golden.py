"""Byte-for-byte checks of CLI outputs against checked-in files.

``tests/data/golden/`` holds the ``index_table.csv`` of a four-culture
``table --manifest`` at 30x30 (2 samples, seed 18, every index), the
``index --seed 0`` CSVs of ``tests/data/city_small.pb`` and of
``tests/data/district_utf8.pb`` (every index; the second file has
non-ASCII project ids, extra non-ASCII columns and vote tokens padded
with no-break and ideographic spaces), the ``index --seed 0`` CSV of
``tests/data/city_over_caps.pb`` (1200 seeded voters in three groups,
each approving up to 8 projects of its own third of 240 and up to 2
others, so ``index`` subsamples it to 1000x200; every index but
``out_div``), and
the ``map_features.csv`` and ``map_embedding.csv`` of a three-entry
``map --manifest`` (seed 19), and the ``resampling_<index>.csv`` grids of
``resample --m 20 --n 20 --samples 1 --seed 5`` for ``pcc_pol`` and
``cntr_div``.  The map entries have 956-1000 distinct ballots, so their
spectral k-means runs up to its 50-round cap; the subsampled file
clusters 1000 voters, the other goldens never more than about 60, and the grids' phi = 0 column holds
identity elections, whose one distinct ballot stops k-means++ seeding
after its first pick.  A rewrite that moves any printed digit of any index
fails here.  The two manifests also run under both BLAS thread counts, in
process (the CLI's one-thread block and a thread variable that overrides
it) and in fresh processes, and with ``approvaldap._solvers`` falling
back to the public scipy functions.  In process, every command scores its
items in two worker processes, and the goldens of many items run again
in one, the plain loop; an ``index`` of one file takes the plain loop at
any count (``tests/test_cli.py`` also compares one and two workers byte
for byte on small inputs).

``tests/data/golden/paper/`` pins the paper's own commands at full size:
the ``index_table.csv`` of ``table --compass`` (14 cultures at 60x60), the
``resampling_pair_agr.csv`` of ``resample --index pair_agr --seed 0``, and
the ``index --seed 0`` CSV of every index on the 1000-voter election of
``generate --family p_ic --m 100 --n 1000 --p 0.3 --seed 0``, which covers
``out_div``'s 5000-draw matching.  ``map --synthetic`` is pinned from
acceptance criterion 09's run (``tests/test_acceptance.py::
test_synthetic_map_matches_golden``): ``map_features.csv``,
``map_embedding.csv`` and ``map.svg`` byte for byte, and a SHA-256 of
``map_distances.csv``.

Every golden pins the floating-point kernels of numpy 2.4.6 and scipy
1.17.1 (their bundled OpenBLAS and LAPACK); another release may move a
last digit without any change here.
"""

import functools
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from approvaldap import cli
from approvaldap.cli import main
from approvaldap.experiments import (
    INDEX_NAMES,
    SYNTHETIC_MAP_SEED,
    compass_specs,
    synthetic_map_entries,
)

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
TABLE_LABELS = ("1/3-ID", "2-Party", "N(2-Party,0.6)", "1/4-IC")
# 0.3-IC, a resampling election and a 2D-Euclidean (variant 5) one, all 100x1000
MAP_ENTRIES = (16, 35, 236)
MAP_FILES = ("map_features.csv", "map_embedding.csv")


def write_table_manifest(path: Path) -> None:
    specs = [s.to_dict() for s in compass_specs(30, 30) if s.label in TABLE_LABELS]
    assert [s["label"] for s in specs] == list(TABLE_LABELS)
    path.write_text(json.dumps({"seed": 18, "samples": 2, "specs": specs}))


def write_map_manifest(path: Path) -> None:
    corpus = synthetic_map_entries(SYNTHETIC_MAP_SEED)
    entries = [corpus[i].to_dict() for i in MAP_ENTRIES]
    assert [en["spec"]["n"] for en in entries] == [1000, 1000, 1000]
    path.write_text(json.dumps({"seed": 19, "entries": entries}))


@pytest.fixture(autouse=True)
def two_workers(monkeypatch):
    monkeypatch.setattr(cli, "_worker_count", lambda: 2)


# (command, manifest writer, golden files) of the runs repeated under other BLAS settings
MANIFEST_RUNS = (
    ("table", write_table_manifest, ("index_table.csv",)),
    ("map", write_map_manifest, MAP_FILES),
)


def test_table_manifest_matches_golden(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    write_table_manifest(path)
    assert main(["table", "--manifest", str(path), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    expected = (GOLDEN / "index_table.csv").read_bytes()
    assert (tmp_path / "index_table.csv").read_bytes() == expected


def test_index_city_small_matches_golden(monkeypatch, capsys):
    # the CSV names the file as given, so run from its directory
    monkeypatch.chdir(DATA)
    assert main(["index", "--seed", "0", "city_small.pb"]) == 0
    expected = (GOLDEN / "index_city_small.csv").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


def test_index_district_utf8_matches_golden(monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    assert main(["index", "--seed", "0", "district_utf8.pb"]) == 0
    expected = (GOLDEN / "index_district_utf8.csv").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


def test_index_over_both_caps_matches_golden(monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    indices = ",".join(name for name in INDEX_NAMES if name != "out_div")
    assert main(["index", "--seed", "0", "--indices", indices, "city_over_caps.pb"]) == 0
    out, err = capsys.readouterr()
    assert out.encode("utf-8") == (GOLDEN / "index_city_over_caps.csv").read_bytes()
    assert err == "notice: city_over_caps.pb: subsampled 1200x240 -> 1000x200 (use --full to keep all)\n"


def test_map_manifest_matches_golden(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    write_map_manifest(path)
    assert main(["map", "--manifest", str(path), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in MAP_FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("index", ["pcc_pol", "cntr_div"])
def test_resample_matches_golden(tmp_path, capsys, index):
    argv = ["--m", "20", "--n", "20", "--samples", "1", "--seed", "5", "--out-dir", str(tmp_path)]
    assert main(["resample", "--index", index, *argv]) == 0
    capsys.readouterr()
    name = f"resampling_{index}.csv"
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


# -- the paper's own commands, at full size (tests/data/golden/paper/) -------
PAPER = GOLDEN / "paper"


def test_compass_table_matches_golden(tmp_path, capsys):
    assert main(["table", "--compass", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "index_table.csv").read_bytes() == (PAPER / "index_table.csv").read_bytes()


def test_resample_pair_agr_matches_golden(tmp_path, capsys):
    assert main(["resample", "--index", "pair_agr", "--seed", "0", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    name = "resampling_pair_agr.csv"
    assert (tmp_path / name).read_bytes() == (PAPER / name).read_bytes()


def test_index_every_index_at_the_voter_cap_matches_golden(tmp_path, monkeypatch, capsys):
    # 1000 voters: out_div matches 5000 draws; dense ballots keep it cheap
    monkeypatch.chdir(tmp_path)
    argv = ["--family", "p_ic", "--m", "100", "--n", "1000", "--p", "0.3", "--seed", "0"]
    assert main(["generate", *argv, "--out", "p_ic.json"]) == 0
    capsys.readouterr()
    assert main(["index", "--seed", "0", "p_ic.json"]) == 0
    out, err = capsys.readouterr()
    assert out.encode("utf-8") == (PAPER / "index_p_ic_1000.csv").read_bytes()
    assert err == ""


def test_manifest_goldens_in_process_at_two_blas_threads(blas_threads, tmp_path, monkeypatch, capsys):
    # a thread variable leaves the libraries at the two threads the fixture
    # set; the tests above run the same manifests on the CLI's one thread
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    for command, write_manifest, names in MANIFEST_RUNS:
        path = tmp_path / f"{command}.json"
        write_manifest(path)
        assert main([command, "--manifest", str(path), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        for name in names:
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_goldens_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS reads its thread count when it loads, so each setting runs
    # the CLI in a fresh process
    pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": pythonpath}
        for command, write_manifest, names in MANIFEST_RUNS:
            path = tmp_path / f"{command}.json"
            write_manifest(path)
            out_dir = tmp_path / f"{command}-{threads}"
            argv = ["--manifest", str(path), "--out-dir", str(out_dir)]
            subprocess.run(
                [sys.executable, "-m", "approvaldap.cli", command, *argv],
                env=env, capture_output=True, check=True, timeout=300,
            )
            for name in names:
                got = (out_dir / name).read_bytes()
                assert got == (GOLDEN / name).read_bytes(), (threads, name)


@pytest.mark.parametrize(
    "golden",
    [
        test_table_manifest_matches_golden,
        test_map_manifest_matches_golden,
        functools.partial(test_resample_matches_golden, index="pcc_pol"),
        functools.partial(test_resample_matches_golden, index="cntr_div"),
        test_compass_table_matches_golden,
        test_resample_pair_agr_matches_golden,
    ],
    ids=["table", "map", "resample_pcc_pol", "resample_cntr_div", "compass", "resample_pair_agr"],
)
def test_goldens_at_one_worker(golden, tmp_path, monkeypatch, capsys):
    # the plain loop: the library's default, and the path on a one-CPU host
    monkeypatch.setattr(cli, "_worker_count", lambda: 1)
    fixtures = {"tmp_path": tmp_path, "monkeypatch": monkeypatch, "capsys": capsys}
    wanted = inspect.signature(golden).parameters
    golden(**{name: fixture for name, fixture in fixtures.items() if name in wanted})


# Run in a fresh process: with no extension suffix to try, _solvers finds
# neither compiled module's file and imports the public scipy functions
FALLBACK_RUN = """
import importlib.machinery, sys
importlib.machinery.EXTENSION_SUFFIXES[:] = []
from approvaldap import _solvers, cli
import scipy.linalg, scipy.optimize
assert _solvers.eigh is scipy.linalg.eigh
assert _solvers.linear_sum_assignment is scipy.optimize.linear_sum_assignment
sys.exit(cli.main(sys.argv[1:]))
"""


def test_goldens_from_the_public_scipy_solvers(tmp_path):
    pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": pythonpath}
    for command, write_manifest, names in MANIFEST_RUNS:
        path = tmp_path / f"{command}.json"
        write_manifest(path)
        argv = [command, "--manifest", str(path), "--out-dir", str(tmp_path)]
        subprocess.run(
            [sys.executable, "-c", FALLBACK_RUN, *argv],
            env=env, capture_output=True, check=True, timeout=300,
        )
        for name in names:
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name

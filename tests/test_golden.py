"""Byte-for-byte checks of CLI outputs against checked-in files.

``tests/data/golden/`` holds the ``index_table.csv`` of a four-culture
``table --manifest`` at 30x30 (2 samples, seed 18, every index), the
``index --seed 0`` CSV of ``tests/data/city_small.pb`` (every index), and
the ``map_features.csv`` and ``map_embedding.csv`` of a three-entry
``map --manifest`` (seed 19).  The map entries have 956-1000 distinct
ballots, so their spectral k-means runs up to its 50-round cap; the other
two goldens never cluster more than about 60 points.  A rewrite that moves
any printed digit of any index fails here.
"""

import json
from pathlib import Path

from approvaldap.cli import main
from approvaldap.experiments import SYNTHETIC_MAP_SEED, compass_specs, synthetic_map_entries

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
TABLE_LABELS = ("1/3-ID", "2-Party", "N(2-Party,0.6)", "1/4-IC")
# 0.3-IC, a resampling election and a 2D-Euclidean (variant 5) one, all 100x1000
MAP_ENTRIES = (16, 35, 236)


def test_table_manifest_matches_golden(tmp_path, capsys):
    specs = [s.to_dict() for s in compass_specs(30, 30) if s.label in TABLE_LABELS]
    assert [s["label"] for s in specs] == list(TABLE_LABELS)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"seed": 18, "samples": 2, "specs": specs}))
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


def test_map_manifest_matches_golden(tmp_path, capsys):
    corpus = synthetic_map_entries(SYNTHETIC_MAP_SEED)
    entries = [corpus[i].to_dict() for i in MAP_ENTRIES]
    assert [en["spec"]["n"] for en in entries] == [1000, 1000, 1000]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"seed": 19, "entries": entries}))
    assert main(["map", "--manifest", str(path), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in ("map_features.csv", "map_embedding.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name

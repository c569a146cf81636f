"""Byte-for-byte checks of two CLI outputs against checked-in files.

``tests/data/golden/`` holds the ``index_table.csv`` of a four-culture
``table --manifest`` at 30x30 (2 samples, seed 18, every index) and the
``index --seed 0`` CSV of ``tests/data/city_small.pb`` (every index).  A
rewrite that moves any printed digit of any index fails here.
"""

import json
from pathlib import Path

from approvaldap.cli import main
from approvaldap.experiments import compass_specs

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
TABLE_LABELS = ("1/3-ID", "2-Party", "N(2-Party,0.6)", "1/4-IC")


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

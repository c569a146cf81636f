import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from approvaldap import cli
from approvaldap.cli import main
from approvaldap.io import read_native

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_p_ic(tmp_path, capsys):
    out = tmp_path / "e.json"
    code, stdout, _ = run(
        capsys, "generate", "--family", "p_ic", "--p", "0.5", "--m", "60", "--n", "60",
        "--seed", "1", "--out", str(out),
    )
    assert code == 0
    e = read_native(out.read_text())
    assert abs(e.ballot_lengths().mean() / 60 - 0.5) < 0.1
    assert "satr=" in stdout and str(out) in stdout


def test_generate_diagonal_and_seed_notice(tmp_path, capsys):
    out = tmp_path / "diag.json"
    code, stdout, stderr = run(capsys, "generate", "--family", "diagonal", "--m", "60", "--out", str(out))
    assert code == 0
    assert "notice: no --seed" in stderr
    e = read_native(out.read_text())
    assert e.total_approvals() == 60  # satr = 1/60


def test_generate_rejects_invalid_probability(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "generate", "--family", "p_ic", "--p", "1.5", "--m", "10", "--n", "10",
        "--seed", "0", "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "error" in stderr


def test_generate_requires_family_params(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "generate", "--family", "k_party", "--m", "10", "--n", "10",
        "--seed", "0", "--out", str(tmp_path / "x.json"),
    )
    assert code == 2 and "--k" in stderr


def test_index_identity_file(tmp_path, capsys):
    out = tmp_path / "id.json"
    run(capsys, "generate", "--family", "p_id", "--p", "0.33", "--m", "30", "--n", "30",
        "--seed", "0", "--out", str(out))
    code, stdout, _ = run(capsys, "index", str(out), "--seed", "1")
    assert code == 0
    header, row = stdout.strip().splitlines()
    cols = header.split(",")
    vals = row.split(",")
    for name in ("av_agr", "cntr_agr", "pair_agr", "pcc_agr", "jacc_agr", "pccplus_agr"):
        assert float(vals[cols.index(name)]) == 1.0


def test_index_pabulib_and_missing_file(capsys):
    code, stdout, stderr = run(
        capsys, "index", str(DATA / "city_small.pb"), "/no/such/file.json",
        "--indices", "satr,pair_agr", "--seed", "0",
    )
    assert code == 1
    assert "/no/such/file.json" in stderr
    lines = stdout.strip().splitlines()
    assert len(lines) == 2  # header plus the one parsed file
    assert float(lines[1].split(",")[2]) < 0.5  # sparse approvals


def test_index_reports_a_directory_and_keeps_the_other_rows(tmp_path, capsys):
    adir = tmp_path / "adir"
    adir.mkdir()
    good = str(DATA / "city_small.pb")
    code, stdout, stderr = run(
        capsys, "index", good, str(adir), good, "--indices", "satr,pair_agr", "--seed", "0",
    )
    assert code == 1
    assert f"error: {adir}: " in stderr
    lines = stdout.strip().splitlines()
    assert len(lines) == 3  # header plus the two readable files
    assert lines[1].split(",")[2:] == lines[2].split(",")[2:]


def test_index_rejects_unknown_index(capsys):
    code, _, stderr = run(capsys, "index", "whatever.json", "--indices", "bogus", "--seed", "0")
    assert code == 2 and "bogus" in stderr


def test_index_rejects_an_empty_index_list(tmp_path, capsys):
    # a table manifest with "indices": [] is refused too
    out = tmp_path / "ic.json"
    run(capsys, "generate", "--family", "p_ic", "--p", "0.5", "--m", "8", "--n", "8",
        "--seed", "0", "--out", str(out))
    for indices in (",", " , ,"):
        code, stdout, stderr = run(capsys, "index", str(out), "--indices", indices, "--seed", "0")
        assert code == 2 and "no index named" in stderr
        assert stdout == ""


def test_resample_command(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "resample", "--index", "pair_agr", "--m", "10", "--n", "10",
        "--samples", "1", "--seed", "3", "--out-dir", str(tmp_path),
    )
    assert code == 0
    csv_lines = (tmp_path / "resampling_pair_agr.csv").read_text().splitlines()
    assert len(csv_lines) == 10
    for line in csv_lines[1:]:
        assert float(line.split(",")[1]) == 1.0  # phi = 0 column
    assert (tmp_path / "resampling_pair_agr.svg").read_text().startswith("<svg")


def test_table_command(tmp_path, capsys):
    manifest = {
        "seed": 5,
        "samples": 2,
        "specs": [
            {"family": "p_id", "m": 10, "n": 10, "seed": 0, "params": {"p": 0.5}, "label": "id"},
            {"family": "p_ic", "m": 10, "n": 10, "seed": 0, "params": {"p": 0.5}, "label": "ic"},
        ],
        "indices": ["satr", "pair_agr", "pcc_agr"],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, stdout, _ = run(capsys, "table", "--manifest", str(path), "--out-dir", str(tmp_path))
    assert code == 0
    table = (tmp_path / "index_table.csv").read_text().splitlines()
    assert table[0] == "label,satr_mean,satr_std,pair_agr_mean,pair_agr_std,pcc_agr_mean,pcc_agr_std"
    assert table[1].startswith("id,0.5,0,1,0,1,0")


def test_table_manifest_requires_seed(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"specs": [{"family": "p_id", "m": 5, "n": 5, "params": {"p": 0.5}}]}))
    code, _, stderr = run(capsys, "table", "--manifest", str(path), "--out-dir", str(tmp_path))
    assert code == 2 and "/seed" in stderr


def test_table_manifest_spec_pointer(tmp_path, capsys):
    doc = {"seed": 1, "specs": [{"family": "p_id", "m": 5, "n": 5, "seed": 0, "params": {"p": 0.5}}, {"m": 5}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, _, stderr = run(capsys, "table", "--manifest", str(path), "--out-dir", str(tmp_path))
    assert code == 2 and "/specs/1" in stderr
    # family parameters and n = m are checked before any sampling starts
    for spec, message in (
        ({"family": "p_ic", "m": 6, "n": 6, "seed": 0, "params": {}}, "needs parameter(s) p"),
        ({"family": "diagonal", "m": 6, "n": 7, "seed": 0}, "require n = m"),
    ):
        path.write_text(json.dumps({"seed": 1, "samples": 1, "specs": [spec]}))
        code, _, stderr = run(capsys, "table", "--manifest", str(path), "--out-dir", str(tmp_path))
        assert code == 2 and "/specs/0" in stderr and message in stderr


@pytest.mark.parametrize(
    "field, value, pointer",
    [
        ("m", 5.9, "/specs/0/m"),
        ("n", "5", "/specs/0/n"),
        ("seed", True, "/specs/0/seed"),
        ("params", {"p": "0.5"}, "/specs/0/params/p"),
    ],
)
def test_table_manifest_checks_spec_types(tmp_path, capsys, field, value, pointer):
    spec = {"family": "p_ic", "m": 5, "n": 5, "seed": 0, "params": {"p": 0.5}, field: value}
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"seed": 1, "samples": 1, "specs": [spec]}))
    code, _, stderr = run(capsys, "table", "--manifest", str(path), "--out-dir", str(tmp_path))
    assert code == 2 and f"error: {pointer}: must be" in stderr
    assert not (tmp_path / "index_table.csv").exists()


IC = {"family": "p_ic", "m": 5, "n": 5, "seed": 0, "params": {"p": 0.5}}
PARTY = {"family": "k_party", "m": 5, "n": 6, "seed": 0, "params": {"k": 2}}


@pytest.mark.parametrize(
    "command, doc, pointer",
    [
        ("table", "{", "/"),
        ("table", [], "/"),
        ("table", {"seed": "1", "specs": [IC]}, "/seed"),
        ("table", {"seed": 1, "samples": 0, "specs": [IC]}, "/samples"),
        ("table", {"seed": 1}, "/specs"),
        ("table", {"seed": 1, "specs": {}}, "/specs"),
        ("table", {"seed": 1, "specs": []}, "/specs"),
        ("table", {"seed": 1, "specs": [IC, "p_ic"]}, "/specs/1"),
        ("table", {"seed": 1, "specs": [{k: v for k, v in IC.items() if k != "seed"}]}, "/specs/0/seed"),
        ("table", {"seed": 1, "specs": [{**IC, "family": "martian"}]}, "/specs/0"),
        # the sampler refuses k > m; index_table would draw it only later
        ("table", {"seed": 1, "specs": [IC, {**PARTY, "params": {"k": 9}}]}, "/specs/1"),
        ("table", {"seed": 1, "specs": [IC], "indices": []}, "/indices"),
        ("table", {"seed": 1, "specs": [IC], "indices": "satr"}, "/indices"),
        ("table", {"seed": 1, "specs": [IC], "indices": ["satr", "bogus"]}, "/indices/1"),
        ("map", [], "/"),
        ("map", {"entries": [{"spec": IC}, {"spec": PARTY}]}, "/seed"),
        ("map", {"seed": 1, "entries": {}}, "/entries"),
        ("map", {"seed": 1, "entries": [{"spec": IC}, {"group": "x"}]}, "/entries/1"),
        ("map", {"seed": 1, "entries": [{"spec": IC}, {"spec": {**IC, "m": 0}}]}, "/entries/1/spec"),
        ("map", {"seed": 1, "entries": [{"spec": IC}], "files": "a.pb"}, "/files"),
        ("map", {"seed": 1, "entries": [{"spec": IC}], "files": [{"file": "a.pb"}]}, "/files/0"),
        ("map", {"seed": 1, "entries": [{"spec": IC}]}, "/"),
        ("map", {"seed": 1}, "/"),
        # field types: a group or a path that is not a string, a spec label
        ("map", {"seed": 1, "entries": [{"spec": IC}, {"spec": PARTY, "group": ["x"]}]}, "/entries/1/group"),
        ("map", {"seed": 1, "entries": [{"spec": IC, "group": 3}, {"spec": PARTY}]}, "/entries/0/group"),
        ("map", {"seed": 1, "entries": [{"spec": IC}], "files": [{"path": 3}]}, "/files/0/path"),
        ("map", {"seed": 1, "entries": [{"spec": IC}], "files": [{"path": "a.pb", "group": None}]}, "/files/0/group"),
        ("map", {"seed": 1, "entries": [{"spec": IC}, {"spec": {**PARTY, "label": ["x"]}}]}, "/entries/1/spec/label"),
        ("table", {"seed": 1, "specs": [{**IC, "label": ["x"]}]}, "/specs/0/label"),
    ],
)
def test_manifest_refusals_name_their_pointer(tmp_path, capsys, command, doc, pointer):
    path = tmp_path / "m.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, stdout, stderr = run(capsys, command, "--manifest", str(path), "--out-dir", str(tmp_path))
    assert code == 2 and stdout == ""
    assert stderr.startswith(f"error: {pointer}: ") and stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]


def test_generate_noisy_from_a_base_file(tmp_path, capsys):
    from approvaldap.generators import gen_noisy

    base, out = tmp_path / "base.json", tmp_path / "noisy.json"
    run(capsys, "generate", "--family", "k_party", "--k", "3", "--m", "12", "--n", "20",
        "--seed", "0", "--out", str(base))
    argv = ["generate", "--family", "noisy", "--base", str(base), "--m", "12", "--seed", "4"]
    code, stdout, _ = run(capsys, *argv, "--phi", "0.4", "--out", str(out), "--label", "n")
    assert code == 0 and f"-> {out}" in stdout
    want = gen_noisy(read_native(base.read_text()), 0.4, seed=4)
    got = read_native(out.read_text())
    assert np.array_equal(got.matrix, want.matrix) and got.label == "n"
    code, _, _ = run(capsys, *argv, "--phi", "0", "--out", str(out))
    assert code == 0
    assert np.array_equal(read_native(out.read_text()).matrix, read_native(base.read_text()).matrix)
    code, _, stderr = run(capsys, *argv, "--out", str(out))  # no --phi
    assert code == 2 and "needs --base" in stderr
    code, _, stderr = run(capsys, *argv[:3], *argv[5:], "--phi", "0.4", "--out", str(out))
    assert code == 2 and "needs --base" in stderr


@pytest.mark.parametrize(
    "shape, refusal",
    [
        ([], None),
        (["--m", "12"], None),
        (["--n", "20"], None),
        (["--m", "12", "--n", "20"], None),
        (["--m", "99", "--n", "5"], "not m=99 n=5"),
        (["--m", "20"], "not m=20 n=20"),
        (["--n", "12"], "not m=12 n=12"),
    ],
)
def test_generate_noisy_keeps_the_base_shape(tmp_path, capsys, shape, refusal):
    base, out = tmp_path / "base.json", tmp_path / "noisy.json"
    run(capsys, "generate", "--family", "k_party", "--k", "3", "--m", "12", "--n", "20",
        "--seed", "0", "--out", str(base))
    code, _, stderr = run(capsys, "generate", "--family", "noisy", "--base", str(base), *shape,
                          "--phi", "0.4", "--seed", "4", "--out", str(out))
    if refusal is None:
        assert code == 0 and read_native(out.read_text()).matrix.shape == (20, 12)
    else:
        assert code == 2 and not out.exists()
        assert stderr == f"error: the noisy family keeps the base's shape m=12 n=20, {refusal}\n"


def test_generate_requires_m_except_for_noisy(tmp_path, capsys):
    out = tmp_path / "e.json"
    code, _, stderr = run(capsys, "generate", "--family", "p_ic", "--p", "0.5", "--n", "10",
                          "--seed", "0", "--out", str(out))
    assert code == 2 and stderr == "error: the p_ic family needs --m\n" and not out.exists()


def test_generate_iam_refuses_nan_probability(tmp_path, capsys):
    out = tmp_path / "e.json"
    code, _, stderr = run(
        capsys, "generate", "--family", "iam", "--m", "3", "--probs", "0.5,nan,0.5",
        "--seed", "1", "--out", str(out),
    )
    assert code == 2 and "[0, 1]" in stderr and not out.exists()


def test_map_command(tmp_path, capsys):
    manifest = {
        "seed": 6,
        "entries": [
            {"group": "id", "spec": {"family": "p_id", "m": 12, "n": 12, "seed": 0, "params": {"p": 0.5}}},
            {"group": "party", "spec": {"family": "k_party", "m": 12, "n": 12, "seed": 0, "params": {"k": 2}}},
            {"group": "ic", "spec": {"family": "p_ic", "m": 12, "n": 12, "seed": 2, "params": {"p": 0.5}}},
        ],
        "files": [str(DATA / "city_small.pb")],
    }
    path = tmp_path / "map.json"
    path.write_text(json.dumps(manifest))
    code, stdout, _ = run(capsys, "map", "--manifest", str(path), "--out-dir", str(tmp_path))
    assert code == 0
    for name in ("map_features.csv", "map_distances.csv", "map_embedding.csv", "map.svg"):
        assert (tmp_path / name).exists()
    assert "mean multiplicative distortion:" in stdout
    features = (tmp_path / "map_features.csv").read_text().splitlines()
    assert len(features) == 5


def test_map_manifest_missing_file(tmp_path, capsys):
    doc = {"seed": 1, "entries": [], "files": ["/definitely/not/here.pb"]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, _, stderr = run(capsys, "map", "--manifest", str(path), "--out-dir", str(tmp_path))
    assert code == 2 and "/files/0" in stderr
    # the wording of ``index`` for a missing file, under the manifest pointer
    assert stderr == "error: /files/0/path: /definitely/not/here.pb: No such file or directory\n"
    party = {"family": "k_party", "m": 6, "n": 6, "seed": 0, "params": {"k": 2}}
    doc = {"seed": 1, "entries": [{"spec": party}, {"spec": {**party, "params": {}}}]}
    path.write_text(json.dumps(doc))
    code, _, stderr = run(capsys, "map", "--manifest", str(path), "--out-dir", str(tmp_path))
    assert code == 2 and "/entries/1/spec" in stderr and "needs parameter(s) k" in stderr


def test_map_manifest_names_a_spec_the_sampler_refuses(tmp_path, capsys):
    party = {"family": "k_party", "m": 5, "n": 6, "seed": 0, "params": {"k": 2}}
    doc = {"seed": 1, "entries": [{"spec": party}, {"spec": {**party, "params": {"k": 9}}}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, _, stderr = run(capsys, "map", "--manifest", str(path), "--out-dir", str(tmp_path))
    assert code == 2
    assert stderr.startswith("error: /entries/1/spec: ") and "party count must satisfy" in stderr


def test_map_manifest_names_a_bad_file_and_its_pointer(tmp_path, capsys):
    party = {"family": "k_party", "m": 6, "n": 6, "seed": 0, "params": {"k": 2}}
    bad = DATA / "unknown_project.pb"
    doc = {"seed": 1, "entries": [{"spec": party}], "files": [str(DATA / "city_small.pb"), str(bad)]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, _, stderr = run(capsys, "map", "--manifest", str(path), "--out-dir", str(tmp_path))
    assert code == 2
    assert f"/files/1/path: {bad}: " in stderr and "undeclared project" in stderr
    doc["files"] = [str(tmp_path)]  # a directory
    path.write_text(json.dumps(doc))
    code, _, stderr = run(capsys, "map", "--manifest", str(path), "--out-dir", str(tmp_path))
    assert code == 2 and f"/files/0/path: {tmp_path}: " in stderr


def test_bundled_synthetic_manifest_loads():
    # `map --synthetic` draws this corpus under this seed
    from approvaldap.experiments import SYNTHETIC_MAP_SEED, synthetic_map_entries

    assert SYNTHETIC_MAP_SEED == 20260809
    entries = synthetic_map_entries(SYNTHETIC_MAP_SEED)
    assert len(entries) == 244
    labels = {en.spec.label for en in entries if en.group == "compass"}
    assert {"1/3-ID", "2-Party", "1/2-IC"} <= labels


def test_index_subsamples_oversized_files(tmp_path, capsys):
    import numpy as np

    from approvaldap.core import Election
    from approvaldap.io import write_native

    rng = np.random.default_rng(4)
    big = Election((rng.random((1500, 8)) < 0.4).astype(np.uint8))
    path = tmp_path / "big.json"
    path.write_text(write_native(big))
    code, stdout, stderr = run(capsys, "index", str(path), "--indices", "satr,pair_agr", "--seed", "2")
    assert code == 0
    assert stderr == f"notice: {path}: subsampled 1500x8 -> 1000x8 (use --full to keep all)\n"
    code_full, stdout_full, stderr_full = run(
        capsys, "index", str(path), "--indices", "satr,pair_agr", "--seed", "2", "--full"
    )
    assert code_full == 0
    assert stderr_full == ""
    sampled = float(stdout.strip().splitlines()[1].split(",")[2])
    full = float(stdout_full.strip().splitlines()[1].split(",")[2])
    assert abs(sampled - full) < 0.05  # statistics agree, computed on 1000 of 1500 ballots


def use_workers(monkeypatch, count):
    """Run the CLI's commands in ``count`` processes, whatever the CPU count."""
    monkeypatch.setattr(cli, "_worker_count", lambda: count)


def k_party_files(tmp_path, monkeypatch):
    """A 4-voter and a 40-voter file, and a cap that refuses out_div of the second."""
    from approvaldap import divpol
    from approvaldap.generators import gen_k_party
    from approvaldap.io import write_native

    small, big = tmp_path / "small.json", tmp_path / "big.json"
    small.write_text(write_native(gen_k_party(10, 4, 2)))
    big.write_text(write_native(gen_k_party(10, 40, 2)))
    # 20 draws fit densely (8 * 20 * (20 + 2) = 3520 bytes); 200 draws fit
    # neither densely (323200 bytes) nor as an LP (1200 * 2 * 200 bytes)
    monkeypatch.setattr(divpol, "_MATCHING_MAX_BYTES", 1 << 12)
    return small, big


def assert_out_div_refusal(code, stdout, stderr, small, big):
    assert code == 2
    assert [line.split(",")[0] for line in stdout.strip().splitlines()] == ["file", str(small)]
    assert f"error: {big}: out_div of 40 voters needs a 200x200 cost matrix" in stderr


def test_index_refuses_out_div_beyond_memory_cap(tmp_path, capsys, monkeypatch):
    from approvaldap import experiments

    small, big = k_party_files(tmp_path, monkeypatch)
    use_workers(monkeypatch, 1)  # the spy sees every call
    evaluated = []
    evaluate = experiments.evaluate_index

    def recording(name, e, seed):
        evaluated.append(e.num_voters)
        return evaluate(name, e, seed)

    monkeypatch.setattr(experiments, "evaluate_index", recording)
    argv = ["index", str(big), str(small), "--indices", "satr,out_div", "--seed", "1"]
    code, stdout, stderr = run(capsys, *argv)
    assert_out_div_refusal(code, stdout, stderr, small, big)
    assert evaluated == [4, 4]  # nothing was computed on the refused file


def test_index_refuses_out_div_beyond_memory_cap_in_two_workers(tmp_path, capsys, monkeypatch):
    small, big = k_party_files(tmp_path, monkeypatch)
    argv = ["index", str(big), str(small), "--indices", "satr,out_div", "--seed", "1"]
    runs = []
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        runs.append(run(capsys, *argv))
    assert_out_div_refusal(*runs[1], small, big)
    assert runs[1] == runs[0]


def test_index_refuses_out_div_draws_beyond_memory_cap(tmp_path, capsys, monkeypatch):
    from approvaldap import divpol
    from approvaldap.generators import gen_k_party
    from approvaldap.io import write_native

    wide = gen_k_party(200, 4, 2)
    path = tmp_path / "wide.json"
    path.write_text(write_native(wide))
    # 20 draws fit densely (3200 bytes), but not their 20 x 200 uniforms
    # (9 * 4000 bytes) nor the Hamming factors (8 * (2 + 2 * 20) * 202 bytes)
    monkeypatch.setattr(divpol, "_MATCHING_MAX_BYTES", 1 << 14)
    drawn = []
    monkeypatch.setattr(divpol, "seeded_streams", drawn.append)
    code, stdout, stderr = run(
        capsys, "index", "--full", str(path), "--indices", "out_div", "--seed", "1"
    )
    assert code == 2 and stdout.strip() == "file,label,out_div"
    assert stderr == (
        f"error: {path}: out_div of 4 voters needs 0.0 GiB for its 20 draws of 200 "
        "candidates, over the 0.0 GiB limit; use fewer voters or candidates\n"
    )
    with pytest.raises(ValueError, match="for its 20 draws of 200 candidates"):
        divpol.out_div(wide, seed=1)
    assert drawn == []  # refused before any draw


def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    # the ballot matrix of 10^6 x 10^6 is refused by the allocator; stand in
    # for that refusal so that nothing large is allocated here
    import tracemalloc

    from approvaldap import generators

    def refuse(master, voters, m, draws, approve):
        raise MemoryError(
            f"Unable to allocate 931. GiB for an array with shape ({len(voters)}, {m}) "
            "and data type uint8"
        )

    monkeypatch.setattr(generators, "_voter_rows", refuse)
    out = tmp_path / "e.json"
    tracemalloc.start()
    try:
        code, stdout, stderr = run(
            capsys, "generate", "--family", "p_ic", "--m", "1000000", "--n", "1000000",
            "--p", "0.5", "--seed", "0", "--out", str(out),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert stderr.splitlines() == [
        "error: out of memory: Unable to allocate 931. GiB for an array with shape "
        "(1000000, 1000000) and data type uint8"
    ]
    assert stdout == "" and not out.exists()
    assert peak < 1 << 24


def test_table_compass_manifest_loads():
    # `table --compass` tabulates these cultures with this seed and sample count
    from approvaldap.experiments import COMPASS_SAMPLES, COMPASS_SEED, compass_specs

    assert COMPASS_SEED == 42 and COMPASS_SAMPLES == 10
    specs = compass_specs()
    assert len(specs) == 14
    assert {"1/3-ID", "2-Party", "Triangle", "Lin-IC"} <= {spec.label for spec in specs}


def test_manifest_commands_repeat_their_outputs(tmp_path, capsys):
    # a second run of each manifest command writes the same bytes
    spec = {"m": 70, "n": 24, "seed": 0}
    table = {
        "seed": 5,
        "samples": 2,
        "specs": [
            {**spec, "family": "p_ic", "params": {"p": 0.3}, "label": "ic"},
            {**spec, "family": "resampling", "params": {"p": 0.4, "phi": 0.5}, "label": "res"},
            {**spec, "family": "euclidean", "params": {"variant": 2}, "label": "euc"},
        ],
    }
    groups = [
        ("ic", "p_ic", {"p": 0.5}),
        ("party", "k_party", {"k": 3}),
        ("res", "resampling", {"p": 0.3, "phi": 0.2}),
    ]
    entries = [
        {"group": group, "spec": {**spec, "seed": seed, "family": family, "params": params}}
        for seed, (group, family, params) in enumerate(groups * 2)
    ]
    manifests = {"table": table, "map": {"seed": 6, "entries": entries}}
    outputs = {}
    for attempt in ("first", "second"):
        for command, manifest in manifests.items():
            out_dir = tmp_path / f"{command}-{attempt}"
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(manifest))
            code, stdout, _ = run(capsys, command, "--manifest", str(path), "--out-dir", str(out_dir))
            assert code == 0
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            outputs.setdefault(command, []).append((stdout.replace(str(out_dir), "OUT"), files))
    assert set(outputs["table"][0][1]) == {"index_table.csv"}
    assert len(outputs["map"][0][1]) == 4
    for command, (first, second) in outputs.items():
        assert first == second, command


# Importing these costs the CLI's start-up about 0.3 s (scipy.stats alone
# 0.4 s more): the two compiled solvers come from their extension files,
# scipy.stats only from experiments.correlations, the LP's packages only
# from divpol._transport, and numpy.ma from no numpy call the commands make;
# worker processes are forked with os.fork, not from multiprocessing (about
# 30 ms to import and start a pool)
HEAVY_MODULES = (
    "scipy.stats", "scipy.linalg", "scipy.optimize", "scipy.sparse", "numpy.ma", "multiprocessing"
)
SMALL_SPECS = [
    {"family": "k_party", "m": 12, "n": 12, "seed": 0, "params": {"k": 2}},
    {"family": "p_ic", "m": 12, "n": 12, "seed": 1, "params": {"p": 0.5}},
]


@pytest.mark.parametrize("command", ["import", "table", "map", "index"])
def test_cli_leaves_heavy_modules_unloaded(tmp_path, command):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    manifest = tmp_path / "manifest.json"
    if command == "table":
        manifest.write_text(json.dumps({"seed": 1, "samples": 1, "specs": SMALL_SPECS}))
    elif command == "map":
        entries = [{"group": f"g{i}", "spec": spec} for i, spec in enumerate(SMALL_SPECS)]
        manifest.write_text(json.dumps({"seed": 1, "entries": entries}))
    argv = {
        "import": None,
        "table": ["table", "--manifest", str(manifest), "--out-dir", str(tmp_path)],
        "map": ["map", "--manifest", str(manifest), "--out-dir", str(tmp_path)],
        # every valid file but the 1200-voter one, whose 6000x6000 matching
        # takes seconds; out_div solves each as an assignment
        "index": ["index", "--seed", "0", "--indices", "out_div,pcc_div,cntr_div"]
        + [str(p) for p in sorted(DATA.glob("*.pb")) if p.name != "city_over_caps.pb"],
    }[command]
    # at one worker: this process's modules are then all that the command loaded
    code = (
        "import sys, approvaldap.cli\n"
        "approvaldap.cli._worker_count = lambda: 1\n"
        f"argv = {argv!r}\n"
        "code = None if argv is None else approvaldap.cli.main(argv)\n"
        f"print(code, [m for m in {HEAVY_MODULES!r} if m in sys.modules])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    # index exits 1: four of the files are refused, and the others still run
    want = {"import": "None", "table": "0", "map": "0", "index": "1"}[command]
    assert out.stdout.splitlines()[-1] == f"{want} []"


# -- items scored in worker processes ------------------------------------------


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_and_two_workers_write_the_same_bytes(tmp_path, capsys, monkeypatch):
    small, big = k_party_files(tmp_path, monkeypatch)
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"seed": 1, "samples": 2, "specs": SMALL_SPECS}))
    entries = [{"group": f"g{i}", "spec": spec} for i, spec in enumerate(SMALL_SPECS * 2)]
    map_manifest = tmp_path / "map.json"
    map_manifest.write_text(json.dumps({"seed": 1, "entries": entries}))
    # good, refused (out_div over the cap; the 1200-voter file is subsampled
    # first), unreadable and missing files
    paths = [small, big, DATA / "city_over_caps.pb", DATA / "malformed_row.pb", tmp_path / "none.pb", small]
    commands = {
        "table": ["table", "--manifest", str(table)],
        "map": ["map", "--manifest", str(map_manifest)],
        "resample": ["resample", "--index", "pcc_pol", "--m", "12", "--n", "12", "--samples", "2"],
        "index": ["index", "--indices", "satr,pcc_agr,out_div", *map(str, paths)],
    }
    outputs = {}
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        for command, argv in commands.items():
            out_dir = tmp_path / f"{command}-{workers}"
            extra = [] if command == "index" else ["--out-dir", str(out_dir)]
            code, stdout, stderr = run(capsys, *argv, *extra)
            files = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))}
            outputs.setdefault(command, []).append(
                (code, stdout.replace(str(out_dir), "OUT"), stderr, files)
            )
        assert_no_child_left()
    assert outputs["index"][0][0] == 2 and outputs["index"][0][2].count("error:") == 4
    assert len(outputs["map"][0][3]) == 4
    for command, (one, two) in outputs.items():
        assert one == two, command


def table_with_refusals(tmp_path, monkeypatch, refuse):
    """A four-culture table manifest whose index evaluation calls
    ``refuse(r, t)`` on every sample t of the cultures r >= 1."""
    from approvaldap import experiments

    table = tmp_path / "table.json"
    manifest = {"seed": 3, "samples": 2, "specs": SMALL_SPECS * 2, "indices": ["satr", "pcc_div"]}
    table.write_text(json.dumps(manifest))
    cells = {experiments.derive_seed(3, "table", r, t): (r, t) for r in range(4) for t in range(2)}
    evaluate = experiments.evaluate_index

    def refusing(name, e, seed):
        r, t = cells[seed]
        if r >= 1:
            refuse(r, t)
        return evaluate(name, e, seed)

    monkeypatch.setattr(experiments, "evaluate_index", refusing)
    return ["table", "--manifest", str(table), "--out-dir", str(tmp_path)]


def test_workers_raise_the_lowest_failing_item_like_one_worker(tmp_path, capsys, monkeypatch):
    def refuse(r, t):
        raise cli.ManifestError(f"/specs/{r}", f"sample {t} refused")

    argv = table_with_refusals(tmp_path, monkeypatch, refuse)
    runs = []
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        runs.append(run(capsys, *argv))
        assert_no_child_left()
    assert runs[0] == (2, "", "error: /specs/1: sample 0 refused\n")
    assert runs[1] == runs[0]


@pytest.mark.parametrize(
    "how, message",
    [
        ("exit", "exited with code 3"),
        ("kill", "was killed by SIGKILL"),
    ],
)
def test_a_worker_that_dies_fails_the_command(tmp_path, capsys, monkeypatch, how, message):
    import signal
    import time

    parent = os.getpid()

    def die(r, t):
        if os.getpid() == parent:
            time.sleep(0.1)  # so that the child takes an item
        elif how == "exit":
            os._exit(3)
        else:
            os.kill(os.getpid(), signal.SIGKILL)

    argv = table_with_refusals(tmp_path, monkeypatch, die)
    use_workers(monkeypatch, 2)
    affinity = os.sched_getaffinity(0)
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1 and stdout == ""
    assert stderr == f"error: a worker process {message} before returning its items\n"
    assert os.sched_getaffinity(0) == affinity
    assert_no_child_left()


def test_index_prints_a_failing_file_lines_before_its_error(tmp_path, capsys, monkeypatch):
    # the subsampled file's notice, the failing file's own notice, then the error
    from approvaldap import experiments
    from approvaldap.generators import gen_k_party
    from approvaldap.io import write_native

    small, wide = tmp_path / "small.json", tmp_path / "wide.json"
    small.write_text(write_native(gen_k_party(10, 4, 2)))
    wide.write_text(write_native(gen_k_party(210, 4, 2)))
    evaluate = experiments.evaluate_index

    def failing(name, e, seed):
        if e.num_voters == 4 and e.num_candidates == 200:
            raise RuntimeError("scoring failed")
        return evaluate(name, e, seed)

    monkeypatch.setattr(experiments, "evaluate_index", failing)
    paths = [small, DATA / "city_over_caps.pb", wide, small]
    argv = ["index", "--seed", "0", "--indices", "satr", *map(str, paths)]
    runs = []
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        runs.append(run(capsys, *argv))
        assert_no_child_left()
    assert runs[0] == (
        1,
        "",
        f"notice: {paths[1]}: subsampled 1200x240 -> 1000x200 (use --full to keep all)\n"
        f"notice: {wide}: subsampled 4x210 -> 4x200 (use --full to keep all)\n"
        "error: scoring failed\n",
    )
    assert runs[1] == runs[0]


@pytest.mark.parametrize(
    "indices, full, want",
    [("satr,out_div", False, 4), ("satr,out_div", True, 1), ("satr,pcc_div", True, 6)],
)
def test_index_runs_out_div_in_as_many_workers_as_fit_its_memory_limit(
    tmp_path, capsys, monkeypatch, indices, full, want
):
    # subsampled to at most 1000 voters, out_div needs up to 240 MB a file;
    # under --full one file may take the whole 1 GiB
    from approvaldap import experiments

    seen = []
    map_items = experiments._map_items

    def spy(fn, count, workers=1):
        seen.append(workers)
        return map_items(fn, count, workers)

    monkeypatch.setattr(experiments, "_map_items", spy)
    use_workers(monkeypatch, 6)
    argv = ["index", "--seed", "0", "--indices", indices, str(DATA / "city_small.pb")]
    code, _, _ = run(capsys, *argv, *(["--full"] if full else []))
    assert code == 0 and seen == [want]


@pytest.mark.parametrize("call", ["sched_getaffinity", "fork"])
def test_commands_run_as_a_plain_loop_without_fork_or_affinity(tmp_path, capsys, monkeypatch, call):
    monkeypatch.delattr(os, call)
    assert cli._worker_count() == 1
    out = tmp_path / "e.json"
    argv = ["--family", "p_ic", "--p", "0.5", "--m", "12", "--n", "12", "--seed", "1"]
    assert run(capsys, "generate", *argv, "--out", str(out))[0] == 0
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"seed": 1, "samples": 2, "specs": SMALL_SPECS}))
    code, _, _ = run(capsys, "table", "--manifest", str(table), "--out-dir", str(tmp_path))
    assert code == 0 and (tmp_path / "index_table.csv").exists()


def test_worker_count_keeps_to_the_cgroup_cpu_quota(tmp_path, monkeypatch):
    import math

    assert cli._cpu_quota(str(tmp_path)) == math.inf  # no cgroup files
    v1 = tmp_path / "cpu"
    v1.mkdir()
    (v1 / "cpu.cfs_period_us").write_text("100000\n")
    for quota, want in (("-1\n", math.inf), ("50000\n", 1), ("150000\n", 2)):
        (v1 / "cpu.cfs_quota_us").write_text(quota)
        assert cli._cpu_quota(str(tmp_path)) == want
    for line, want in (("max 100000\n", math.inf), ("200000 100000\n", 2), ("bad\n", math.inf)):
        (tmp_path / "cpu.max").write_text(line)  # cgroup v2, read first
        assert cli._cpu_quota(str(tmp_path)) == want
    monkeypatch.setattr(cli, "_cpu_quota", lambda: 1)
    assert cli._worker_count() == 1

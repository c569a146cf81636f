from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approvaldap.core import Election
from approvaldap.io import (
    ParseError,
    parse_pabulib,
    read_native,
    threshold_scores,
    write_csv_matrix,
    write_native,
    write_svg_heatmap,
    write_svg_scatter,
)

from conftest import make_random_election

DATA = Path(__file__).parent / "data"


def read(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


def test_parse_basic_pabulib_file():
    e = parse_pabulib(read("city_small.pb"))
    assert e.num_candidates == 5
    assert e.matrix.tolist() == [
        [1, 0, 1, 0, 0],
        [0, 1, 0, 0, 0],
        [1, 1, 1, 0, 0],
        [0, 0, 0, 0, 0],  # empty vote field
    ]
    assert e.label == "Small district election"


def test_parse_three_project_vote_pattern():
    text = (
        "META\nkey;value\ndescription;tiny\n"
        "PROJECTS\nproject_id\np1\np2\np3\n"
        "VOTES\nvoter_id;vote\n1;p1,p3\n"
    )
    e = parse_pabulib(text)
    assert e.matrix.tolist() == [[1, 0, 1]]


def test_parse_is_section_order_insensitive():
    e = parse_pabulib(read("reordered_sections.pb"))
    assert e.num_candidates == 2
    assert e.matrix.tolist() == [[0, 1], [1, 1]]


def test_parse_collapses_duplicate_ids_in_vote():
    e = parse_pabulib(read("duplicate_votes.pb"))
    assert e.matrix.tolist() == [[1, 0, 1], [0, 1, 0]]


def test_parse_handles_crlf_and_trailing_whitespace():
    e = parse_pabulib(read("crlf_endings.pb"))
    assert e.matrix.tolist() == [[1, 0], [1, 1]]


def test_parse_rejects_unknown_project_with_line_number():
    with pytest.raises(ParseError) as err:
        parse_pabulib(read("unknown_project.pb"))
    assert "p9" in str(err.value)
    assert err.value.line == 10


def test_parse_reports_the_row_of_the_first_undeclared_project():
    votes = ["p1", "p2, p1", "p1,p7", "p8", "p2"]
    text = (
        "PROJECTS\nproject_id;cost\np1;1\np2;2\nVOTES\nvoter_id;vote\n"
        + "".join(f"{i};{v}\n" for i, v in enumerate(votes, start=1))
    )
    with pytest.raises(ParseError, match="'p7'") as err:
        parse_pabulib(text)
    assert err.value.line == 9


def test_parse_rejects_missing_votes_section():
    with pytest.raises(ParseError, match="missing VOTES"):
        parse_pabulib(read("missing_votes.pb"))


def test_parse_rejects_malformed_row():
    with pytest.raises(ParseError) as err:
        parse_pabulib(read("malformed_row.pb"))
    assert err.value.line == 11


def test_parse_rejects_non_approval_files():
    with pytest.raises(ParseError, match="approval"):
        parse_pabulib(read("cumulative_type.pb"))


def test_parse_rejects_garbage_without_crashing():
    for blob in (b"", b"\x00\xff\xfe", b"META\nkey;value", b"PROJECTS\nproject_id\np1\n"):
        with pytest.raises(ParseError):
            parse_pabulib(blob)


def test_parse_accepts_bytes_and_bom():
    text = "﻿META\nkey;value\nPROJECTS\nproject_id\na\nVOTES\nvoter_id;vote\n1;a\n"
    assert parse_pabulib(text.encode("utf-8")).num_candidates == 1


def test_threshold_scores():
    scores = [[3.5, 4.0, 5.0], [1.0, 4.5, 3.9]]
    e = threshold_scores(scores, 4.0)
    assert e.matrix.tolist() == [[0, 1, 1], [0, 1, 0]]
    assert not threshold_scores(scores, 6.0).matrix.any()
    assert threshold_scores(scores, 1.0).matrix.all()
    with pytest.raises(ValueError):
        threshold_scores([[1, 2], [1]], 1.5)
    for flat in ([1, 2, 3], np.array([1.0, 2.0]), 5, np.array(5.0)):
        with pytest.raises(ValueError, match="must be two-dimensional"):
            threshold_scores(flat, 1.5)


def test_native_round_trip(rng):
    for _ in range(100):
        e = make_random_election(rng, max_m=12, max_n=12)
        e.label = "round trip"
        assert read_native(write_native(e)) == e
    labeled = read_native(write_native(Election([[1, 0]], label="x")))
    assert labeled.label == "x"


def test_read_native_errors():
    with pytest.raises(ParseError):
        read_native("{not json")
    with pytest.raises(ParseError):
        read_native("[1, 2]")
    with pytest.raises(ParseError):
        read_native('{"num_candidates": 2, "ballots": [[5]]}')
    with pytest.raises(ParseError):
        read_native('{"num_candidates": 2, "ballots": "zap"}')


def test_csv_matrix():
    assert write_csv_matrix([], ["a", "b"]) == "a,b\r\n"
    out = write_csv_matrix([[1.23456789, 'say "hi", ok'], [7, "plain"]], ["x", "y"])
    lines = out.split("\r\n")
    assert lines[0] == "x,y"
    assert lines[1] == '1.23457,"say ""hi"", ok"'
    assert lines[2] == "7,plain"


def test_svg_scatter_has_one_circle_per_point():
    svg = write_svg_scatter([(0, 0), (1, 1)], ["alpha", "beta"], title="demo")
    assert svg.count("<circle") == 2
    assert "alpha" in svg and "beta" in svg and svg.startswith("<svg")
    with pytest.raises(ValueError):
        write_svg_scatter([(0, 0)], ["a", "b"])


def test_svg_heatmap_dimensions():
    values = np.linspace(0, 1, 6).reshape(2, 3)
    svg = write_svg_heatmap(values, ["r1", "r2"], ["c1", "c2", "c3"], title="grid")
    assert svg.count("<rect") >= 6
    assert "scale: black=0, white=1" in svg
    with pytest.raises(ValueError):
        write_svg_heatmap(values, ["r1"], ["c1", "c2", "c3"])


def test_fuzz_parser_smoke(rng):
    # quick mutation fuzz; the long-running variant lives in the acceptance suite
    corpus = [read("city_small.pb").encode(), read("reordered_sections.pb").encode()]
    for _ in range(300):
        blob = bytearray(corpus[int(rng.integers(len(corpus)))])
        for _ in range(int(rng.integers(1, 8))):
            pos = int(rng.integers(len(blob)))
            blob[pos] = int(rng.integers(256))
        try:
            parse_pabulib(bytes(blob))
        except ParseError:
            pass


def test_read_native_rejects_non_integer_indices():
    with pytest.raises(ParseError):
        read_native('{"num_candidates": 2, "ballots": [[0.5]]}')
    with pytest.raises(ParseError):
        read_native('{"num_candidates": 2, "ballots": [[true]]}')
    with pytest.raises(ParseError):
        read_native('{"num_candidates": 2, "ballots": [["a"]]}')


def test_read_native_rejects_non_integer_candidate_counts():
    # int() would read these as 2, 1 and 3
    for count in ("2.7", "true", '"3"'):
        with pytest.raises(ParseError):
            read_native(f'{{"num_candidates": {count}, "ballots": [[0]]}}')
    with pytest.raises(ParseError):
        read_native('{"num_candidates": 0, "ballots": [[]]}')
    assert read_native('{"num_candidates": 3, "ballots": [[2]]}').num_candidates == 3


# -- the one-pass token mapping against the per-token parser ------------------


def parse_pabulib_oracle(text: str) -> Election:
    """The per-token Pabulib parser on well-formed files: each vote's ids are
    looked up one at a time into a set, and the first undeclared id raises
    with its row's line number."""
    meta, projects, votes = {}, [], []
    section, header = None, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line in ("META", "PROJECTS", "VOTES"):
            section, header = line, []
            continue
        fields = line.split(";")
        if not header:
            header = [f.strip() for f in fields]
        elif section == "META":
            meta[fields[0].strip()] = fields[1].strip()
        elif section == "PROJECTS":
            projects.append(fields[header.index("project_id")].strip())
        else:
            votes.append((lineno, fields[header.index("vote")].strip()))
    index = {pid: j for j, pid in enumerate(projects)}
    ballots = []
    for lineno, vote in votes:
        approved = set()
        if vote:
            for token in vote.split(","):
                pid = token.strip()
                if not pid:
                    continue
                if pid not in index:
                    raise ParseError(f"vote references undeclared project {pid!r}", lineno)
                approved.add(index[pid])
        ballots.append(sorted(approved))
    label = meta.get("description") or meta.get("unit")
    return Election.from_approval_sets(len(projects), ballots, label=label)


_PAD = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def pabulib_texts(draw):
    """Approval files with numeric or non-numeric project ids, padded and
    empty tokens, repeated ids, empty votes, the vote column anywhere, any
    section order, LF or CRLF endings, and now and then an undeclared id."""
    numeric = draw(st.booleans())
    id_text = st.integers(0, 999).map(str) if numeric else st.text("abxyz019-_.é", min_size=1, max_size=4)
    ids = draw(st.lists(id_text, min_size=1, max_size=6, unique=True))
    columns = draw(st.permutations(["voter_id", "vote", "age"]))
    votes = draw(st.lists(st.lists(st.sampled_from([*ids, ""]), max_size=6), min_size=1, max_size=12))
    if draw(st.integers(0, 3)) == 0:
        vote = votes[draw(st.integers(0, len(votes) - 1))]
        vote.insert(draw(st.integers(0, len(vote))), "#" + draw(id_text))

    def padded(tok):
        return draw(_PAD) + tok + draw(_PAD)

    rows = []
    for i, vote in enumerate(votes):
        cells = {"voter_id": str(i + 1), "age": "30", "vote": ",".join(padded(t) for t in vote)}
        rows.append(";".join(cells[c] for c in columns))
    sections = {
        "META": ["key;value", f"description;{draw(st.sampled_from(['city', 'Ville é']))}", "vote_type;approval"],
        "PROJECTS": ["project_id;cost;name", *(f"{pid};{10 * j + 5};project {j}" for j, pid in enumerate(ids))],
        "VOTES": [";".join(columns), *rows],
    }
    lines = []
    for name in draw(st.permutations(list(sections))):
        lines += [name, *sections[name]]
        if draw(st.booleans()):
            lines.append("")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@settings(max_examples=400, deadline=None)
@given(pabulib_texts())
def test_parse_matches_per_token_oracle(text):
    try:
        want = parse_pabulib_oracle(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_pabulib(text)
        assert str(err.value) == str(exc)
        assert err.value.line == exc.line
        return
    got = parse_pabulib(text)
    assert got.matrix.dtype == want.matrix.dtype
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert got.matrix.shape == want.matrix.shape
    assert got.label == want.label

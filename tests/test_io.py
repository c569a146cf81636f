import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approvaldap import pabulib
from approvaldap.core import Election
from approvaldap.io import (
    ParseError,
    parse_pabulib,
    read_native,
    write_csv_matrix,
    write_native,
    write_svg_heatmap,
    write_svg_scatter,
)

from conftest import make_random_election
from oracles import parse_pabulib_lines

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


def test_native_round_trip(rng):
    for _ in range(100):
        e = make_random_election(rng, max_m=12, max_n=12)
        e.label = "round trip"
        assert np.array_equal(read_native(write_native(e)).matrix, e.matrix)
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
    for doc, message in (
        ('{"ballots": [[0]]}', "missing field: 'num_candidates'"),
        ('{"num_candidates": 2}', "missing field: 'ballots'"),
        ('{"num_candidates": 2, "ballots": [[0]], "label": 3}', "label must be a string or null"),
    ):
        with pytest.raises(ParseError, match=message):
            read_native(doc)


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


# -- the array parser against the line-by-line parser --------------------------

# str.splitlines breaks besides "\n", the characters str.strip() removes that
# break no line, and lines that look like section names, or that are made of
# A-Z and non-ASCII letters and are not
_BREAKS = ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_WIDE_BLANKS = ["\xa0", "\u1680", *map(chr, range(0x2000, 0x200B)), "\u202f", "\u205f", "\u3000"]
_BLANKS = [" ", "\t", "\x1f", *_WIDE_BLANKS]
_NAMES = [
    "META", "PROJECTS", "VOTES", "VOTES  ", "VOTES\xa0", "VOTES\u3000", "XYZ", "Votes", "  VOTES", "ÉTÉ",
    "É中", "é", "Été", "中文", "ÉTÉ\u2003é",
]


def test_wide_blanks_are_the_non_ascii_blanks_of_str_strip():
    chars = map(chr, range(0x80, sys.maxunicode + 1))
    blanks = [c for c in chars if c.isspace() and len(f"a{c}b".splitlines()) == 1]
    assert sorted(pabulib._WIDE_BLANKS) == blanks == _WIDE_BLANKS


def _same_parse(doc):
    """The array parser gives the line-by-line parser's election or error."""
    try:
        want = parse_pabulib_lines(doc)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_pabulib(doc)
        assert str(err.value) == str(exc)
        assert err.value.line == exc.line
        return
    got = parse_pabulib(doc)
    assert got.matrix.dtype == want.matrix.dtype
    assert got.matrix.shape == want.matrix.shape
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert got.label == want.label


@pytest.mark.parametrize(
    "line",
    ["é", "ü,\u2009é", "ÉTÉ", "É中\u3000", "Été", "中文", "ÉTÉ\u2003é", "\u3000\xa0", "VOTES\u2007", "é;ü"],
)
def test_parse_reads_non_ascii_lines_among_votes_as_the_line_reader_does(line):
    # "é" and "ü" are project ids, so a row of them is a ballot; other lines
    # of A-Z and non-ASCII letters are section names or undeclared ids
    doc = f"PROJECTS\nproject_id\né\nü\nVOTES\nvote\n\u3000ü\xa0\n{line}\né\n"
    _same_parse(doc)
    _same_parse(doc.encode())


@st.composite
def mutated_pabulib_texts(draw):
    """:func:`pabulib_texts` files with stray or repeated section names, a
    section after VOTES, wrong field counts, blank and padded lines, odd line
    breaks and non-ASCII ids, then byte flips, inserts and deletes, given as
    text or as UTF-8 bytes."""
    lines = draw(pabulib_texts()).split("\n")
    votes = next(i for i, line in enumerate(lines) if line.rstrip("\r") == "VOTES")
    for _ in range(draw(st.integers(0, 4))):
        # mostly inside VOTES, whose rows follow its header line
        i = draw(st.integers(votes + 1, len(lines)) | st.integers(0, len(lines)))
        kind = draw(st.integers(0, 7))
        if kind == 0:
            lines.insert(i, draw(st.sampled_from(_NAMES)))
        elif kind == 1:
            lines += ["META", "key;value", "unit;after votes"]
        elif kind == 2 and i < len(lines):
            lines[i] = lines[i] + ";x" if draw(st.booleans()) else lines[i].replace(";", "", 1)
        elif kind == 3:
            lines.insert(i, "".join(draw(st.lists(st.sampled_from(_BLANKS), max_size=3))))
        elif kind in (4, 5) and i < len(lines):
            noise = draw(st.sampled_from(_BREAKS + _BLANKS + ["é", "À", ",", ";", "\x00"]))
            pos = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:pos] + noise + lines[i][pos:]
        elif kind == 6 and i < len(lines):
            lines[i] = lines[i].replace(",", "\xa0,", 1) + "\xa0"
        elif kind == 7:
            lines.insert(i, f"{len(lines)};{draw(st.sampled_from(['é', 'ab', '0', '1,é', '']))}")
    doc = "\n".join(lines).encode()
    if draw(st.booleans()):
        blob = bytearray(doc)
        for _ in range(draw(st.integers(1, 6))):
            action = draw(st.integers(0, 2))
            pos = draw(st.integers(0, len(blob)))
            if action == 0 and pos < len(blob):
                blob[pos] = draw(st.integers(0, 255))
            elif action == 1:
                blob.insert(pos, draw(st.integers(0, 255)))
            elif pos < len(blob):
                del blob[pos]
        doc = bytes(blob)
    return doc if draw(st.booleans()) else doc.decode("utf-8", "surrogateescape")


@settings(max_examples=600, deadline=None)
@given(pabulib_texts() | mutated_pabulib_texts())
def test_parse_matches_line_by_line_oracle(doc):
    _same_parse(doc)


@st.composite
def long_id_texts(draw):
    """Files whose ids differ in length, share long prefixes and hold NULs,
    voted with those ids, near misses and tokens longer than any id."""
    stem = st.text("ab\x00-é7", min_size=1, max_size=20)
    stems = draw(st.lists(stem, min_size=1, max_size=40, unique=True))
    prefix = draw(st.sampled_from(["", "p", "project-", "participatory-budget-"]))
    ids = list(dict.fromkeys(prefix + stem for stem in stems))
    near = [pid[:-1] for pid in ids] + [pid + "x" for pid in ids] + ["x" * 30]
    token = st.sampled_from(ids + near) | st.sampled_from(ids)
    rows = draw(st.lists(st.lists(token, max_size=8), min_size=1, max_size=30))
    undeclared = draw(st.booleans())
    lines = ["PROJECTS", "project_id;cost", *(f"{pid};1" for pid in ids), "VOTES", "voter_id;vote"]
    for i, row in enumerate(rows):
        lines.append(f"{i};{','.join(row if undeclared else [t for t in row if t in ids])}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(long_id_texts())
def test_parse_matches_oracle_on_long_ids(doc):
    _same_parse(doc)
    _same_parse(doc.encode("utf-8", "surrogateescape"))


def test_parse_finds_every_id_of_thousands():
    # 3000 ids of 1 to 12 bytes, each voted once
    ids = [format(j, "x").rjust(1 + j % 12, "0") for j in range(3000)]
    lines = ["PROJECTS", "project_id", *ids, "VOTES", "voter_id;vote"]
    lines += [f"{i};{','.join(ids[i::300])}" for i in range(300)]
    e = parse_pabulib("\n".join(lines))
    assert e.matrix.sum() == 3000
    assert np.array_equal(e.matrix, parse_pabulib_lines("\n".join(lines)).matrix)


def _write_pb(path, ballots, description):
    """A Pabulib file laid out as the benchmark writes its inputs."""
    n, m = ballots.shape
    ids = np.array([str(j + 1) for j in range(m)])
    lines = [
        "META", "key;value", f"description;{description}", "vote_type;approval",
        f"num_projects;{m}", f"num_votes;{n}",
        "PROJECTS", "project_id;cost;name",
        *(f"{j + 1};{1000 * (j % 7 + 1)};project {j + 1}" for j in range(m)),
        "VOTES", "voter_id;vote",
        *(f"{i + 1};{','.join(ids[row.astype(bool)])}" for i, row in enumerate(ballots)),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_parse_peak_memory_is_below_the_line_by_line_parser(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "city.pb"
    _write_pb(path, (rng.random((60_000, 120)) < 0.05).astype(np.uint8), "memory guard")
    blob = path.read_bytes()
    peaks = {}
    for parse in (parse_pabulib_lines, parse_pabulib):
        tracemalloc.start()
        try:
            e = parse(blob)
            peaks[parse] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert e.matrix.shape == (60_000, 120)
        del e
    assert peaks[parse_pabulib] < peaks[parse_pabulib_lines]

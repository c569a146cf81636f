"""Reading Pabulib participatory-budgeting files (approval files only).

:class:`ParseError` is also what :func:`approvaldap.io.read_native` raises;
:mod:`approvaldap.io` re-exports both public names.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import Election

__all__ = ["ParseError", "parse_pabulib"]

_PABULIB_SECTIONS = ("META", "PROJECTS", "VOTES")
# the str.splitlines breaks other than "\n", UTF-8 encoded; "\r\n" comes first
# so that it stays one break
_LINE_BREAKS = tuple(
    brk.encode() for brk in ("\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
)
# the first k bytes of a little-endian 8-byte word are ``word & _LOW[k]``, and
# ``_PAD[k]`` fills the other 8 - k bytes with "\n", which no token holds
_LOW = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_PAD = np.array([int.from_bytes(b"\n" * (8 - k), "little") << 8 * k for k in range(9)], dtype=np.uint64)
# Fibonacci hashing: a table slot is the top bits of key * 2^64 / golden ratio
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)
# the non-ASCII characters that str.strip() removes and that do not break a
# line; UTF-8 is self-synchronising, so their bytes are found as byte strings
_WIDE_BLANKS = "\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u202f\u205f\u3000"
# the byte classes the array reading needs: a blank is a byte of a character
# that str.strip() removes and that does not break a line, and a name byte is
# one of A-Z or any non-ASCII byte, the bytes a section name can hold
_NEWLINE, _BLANK, _NAME, _SEMICOLON, _COMMA = range(1, 6)
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[ord("\n")] = _NEWLINE
_BYTE_CLASS[[ord(" "), ord("\t"), 0x1F]] = _BLANK
_BYTE_CLASS[ord("A") : ord("Z") + 1] = _NAME
_BYTE_CLASS[0x80:] = _NAME
_BYTE_CLASS[ord(";")] = _SEMICOLON
_BYTE_CLASS[ord(",")] = _COMMA


class ParseError(ValueError):
    """Structured parse failure; carries the 1-based input line if known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def parse_pabulib(text: str) -> Election:
    """Parse a Pabulib ``.pb`` file into an election.

    Candidates are the declared projects in file order; each VOTES row
    becomes one ballot approving the project ids in its ``vote`` field
    (duplicates collapsed, empty field allowed).  Costs and all metadata
    are ignored, except that files declaring a non-approval ``vote_type``
    are rejected.  Sections may appear in any order; trailing whitespace
    is insignificant.

    The file is read as one byte array whose lines end at the breaks of
    ``str.splitlines``.  The META and PROJECTS lines, the blank lines and
    the lines made only of A-Z and non-ASCII characters (the only lines
    that may be section names) are read one at a time as text.  Every
    VOTES row is read by array operations over the whole file: semicolon
    counts check its fields, semicolon and comma positions cut its vote
    into tokens, the bytes of the characters ``str.strip`` removes are
    stripped from each token, and a hash table of the project ids maps
    each token to its column.  Every error is the one a line-by-line
    reading raises first, with its line; an undeclared project id is
    reported after the other checks, at the first row that names one.  The
    array set-up costs a fixed fraction of a millisecond, so the reading
    gains on large files, not on small ones.
    """
    raw = _Bytes(_pabulib_bytes(text))
    # line i is raw.data[starts[i]:ends[i]], and ends at a "\n"
    ends = raw.at[_NEWLINE]
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    rends = raw.rstrip(ends.copy())  # the ends after str.rstrip()
    # read as text: blank lines, which the reading skips, and lines of name
    # bytes, which may be section names, known or not
    name = raw.at[_NAME]
    as_text = np.searchsorted(name, rends) - np.searchsorted(name, starts) == rends - starts

    reader = _SectionReader()
    try:
        reader.read(raw, starts, ends, as_text)
        failure = None
    except ParseError as exc:  # the rows read as arrays all come before it
        failure = exc
    rows = np.concatenate([np.arange(a, b, dtype=raw.offset) for a, b in reader.row_spans] or [ends[:0]])
    semis = raw.at[_SEMICOLON]
    first_semi = np.searchsorted(semis, starts[rows])
    n_fields = np.searchsorted(semis, ends[rows]) - first_semi + 1
    wrong = np.flatnonzero(n_fields != reader.vote_width)
    if wrong.size:
        row = wrong[0]
        raise ParseError(
            f"VOTES row has {n_fields[row]} fields, header has {reader.vote_width}", int(rows[row]) + 1
        )
    if failure is not None:
        raise failure

    meta = reader.meta
    vote_type = meta.get("vote_type", "approval").strip().lower()
    if vote_type != "approval":
        raise ParseError(f"only approval ballots are supported, file declares {vote_type!r}")
    if "VOTES" not in reader.seen:
        raise ParseError("missing VOTES section")
    if not reader.projects:
        raise ParseError("no projects declared")
    if not rows.size:
        raise ParseError("VOTES section has no ballots")

    col = reader.vote_col
    lo = starts[rows] if col == 0 else semis[first_semi + col - 1] + 1
    hi = ends[rows] if col == reader.vote_width - 1 else semis[first_semi + col]
    del semis, first_semi, n_fields, starts, ends, rends
    n_tokens, tok_lo, tok_hi = raw.tokens(lo, hi)
    del lo, hi
    cols = _project_columns(raw, tok_lo, tok_hi - tok_lo, reader.projects)
    bad = np.flatnonzero(cols == -2)
    if bad.size:
        row = np.searchsorted(np.cumsum(n_tokens), bad[0], side="right")
        pid = raw.text(tok_lo[bad[0]], tok_hi[bad[0]])
        raise ParseError(f"vote references undeclared project {pid!r}", int(rows[row]) + 1)
    del tok_lo, tok_hi

    ballot = np.repeat(np.arange(rows.size), n_tokens)  # the row of each token
    mat = np.zeros((rows.size, len(reader.projects)), dtype=np.uint8)
    approved = cols >= 0
    flat = ballot[approved] * mat.shape[1]
    flat += cols[approved]
    mat.reshape(-1)[flat] = 1  # repeated ids collapse
    label = meta.get("description") or meta.get("unit")
    return Election._owning(mat, label=label)


def _pabulib_bytes(text) -> bytes:
    """The UTF-8 bytes of a Pabulib file, checked, with leading byte-order
    marks dropped and each ``str.splitlines`` break written as one ``"\n"``,
    then eight ``"\n"`` so that an 8-byte word can be read at any offset."""
    if isinstance(text, bytes):
        try:
            decoded = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}") from None
        data = text[3 * (len(decoded) - len(decoded.lstrip("\ufeff"))) :]
        del decoded
    else:
        data = text.lstrip("\ufeff").encode("utf-8", "surrogatepass")
    for brk in _LINE_BREAKS:
        if brk[:1] in data:  # one memchr scan
            data = data.replace(brk, b"\n")
    return data + b"\n" * 8


class _Bytes:
    """The bytes of :func:`_pabulib_bytes` and the positions of each byte
    class in them.  No run of blanks crosses a line break or a separator."""

    def __init__(self, data: bytes):
        self.data = data
        self.offset = np.int32 if len(data) < 2**31 else np.int64
        self.arr = np.frombuffer(data, dtype=np.uint8)
        self.kind = _BYTE_CLASS.take(self.arr)
        if not data.isascii():  # the bytes of each wide blank are blanks too
            high = np.flatnonzero(self.arr >= 0x80)
            lead = self.arr[high]
            for blank in _WIDE_BLANKS:
                seq = blank.encode()
                at = high[lead == seq[0]]
                for k in range(1, len(seq)):
                    at = at[self.arr[at + k] == seq[k]]
                self.kind[at[:, None] + np.arange(len(seq))] = _BLANK
        pos = np.flatnonzero(self.kind)
        kinds = self.kind[pos]
        pos = pos.astype(self.offset)
        # the sorted positions of the bytes of each class
        self.at = {kind: pos[kinds == kind] for kind in range(_NEWLINE, _COMMA + 1)}
        blanks = self.at[_BLANK]
        gap = blanks[1:] != blanks[:-1] + 1
        self.run_first = np.concatenate((blanks[:1], blanks[1:][gap]))
        self.run_past = np.concatenate((blanks[:-1][gap], blanks[-1:])) + 1

    def text(self, lo, hi) -> str:
        return self.data[lo:hi].decode("utf-8", "surrogatepass")

    def rstrip(self, hi: np.ndarray) -> np.ndarray:
        """Move each span end back over the blanks before it, in place."""
        if not self.run_first.size:
            return hi
        at = np.flatnonzero(self.kind[hi - 1] == _BLANK)
        hi[at] = self.run_first[np.searchsorted(self.run_first, hi[at] - 1, side="right") - 1]
        return hi

    def lstrip(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Move each span start past the blanks it starts with, in place."""
        if not self.run_first.size:
            return lo
        at = np.flatnonzero((self.kind[lo] == _BLANK) & (lo < hi))
        lo[at] = self.run_past[np.searchsorted(self.run_first, lo[at], side="right") - 1]
        return lo

    def tokens(self, lo: np.ndarray, hi: np.ndarray):
        """The comma-separated, stripped tokens of the fields ``[lo, hi)``, in
        order: ``(tokens per field, token starts, token ends)``."""
        commas = self.at[_COMMA]
        first_comma = np.searchsorted(commas, lo)
        n_commas = np.searchsorted(commas, hi) - first_comma
        # the commas inside the fields: runs first_comma[i] + (0 .. n_commas[i] - 1)
        start = np.cumsum(n_commas) - n_commas
        inner = np.repeat((first_comma - start).astype(self.offset), n_commas)
        inner += np.arange(inner.size, dtype=self.offset)
        inner = commas[inner]
        del first_comma, start
        # the fields do not overlap, so sorting interleaves them in order
        tok_hi = np.sort(np.concatenate((inner, hi)))
        inner += 1
        tok_lo = np.sort(np.concatenate((lo, inner)))
        del inner
        return n_commas + 1, self.lstrip(tok_lo, self.rstrip(tok_hi)), tok_hi


def _chunks(data: bytes, lo: np.ndarray, size: np.ndarray, width: int) -> list[np.ndarray]:
    """The bytes of each span ``data[lo:lo + size]``, no longer than ``width``
    and holding no "\n", as ``ceil(width / 8)`` little-endian 8-byte words
    padded with "\n": equal lists for equal spans only.  ``data`` ends with
    eight bytes that no span reaches."""
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    chunks = []
    for c in range(0, width, 8):
        rest = np.minimum(np.maximum(size - c, 0), 8)
        word = words[np.minimum(lo + c, words.size - 1)]  # take() would copy all words
        word &= _LOW.take(rest)
        word |= _PAD.take(rest)
        chunks.append(word)
        del rest
    return chunks


def _project_columns(raw: _Bytes, lo: np.ndarray, size: np.ndarray, projects: list[str]) -> np.ndarray:
    """The index in ``projects`` of each token ``[lo, lo + size)`` of ``raw``:
    -1 if it is empty and -2 if no project id equals it.  The ids'
    :func:`_chunks` are hashed into a table less than 1/16 full,
    and each token is looked up in it by linear probing."""
    pids = [pid.encode("utf-8", "surrogatepass") for pid in projects]
    lengths = np.array([len(pid) for pid in pids])
    width = int(lengths.max())
    pid = _chunks(b"\n".join(pids) + b"\n" * 8, np.cumsum(lengths + 1) - lengths - 1, lengths, width)
    bits = (16 * len(pids)).bit_length()

    def home(chunks):
        key = chunks[0]
        for chunk in chunks[1:]:
            key = key * _FIBONACCI ^ chunk
        key = key * _FIBONACCI
        key >>= np.uint64(64 - bits)
        return key

    table = [-1] * (1 << bits)
    for j, slot in enumerate(home(pid).tolist()):
        while table[slot] >= 0:
            slot = (slot + 1) % len(table)
        table[slot] = j
    table = np.array(table, dtype=np.int32)

    cols = np.full(size.size, -1, dtype=np.int32)
    cols[size > 0] = -2
    todo = np.flatnonzero((size > 0) & (size <= width))
    tok = _chunks(raw.data, lo[todo], size[todo], width)
    slot = home(tok)
    while todo.size:
        j = table[slot]
        hit = j >= 0
        for t, p in zip(tok, pid):
            hit &= t == p[j]
        cols[todo[hit]] = j[hit]
        probe = (j >= 0) & ~hit  # a slot holding another id: try the next
        todo, slot = todo[probe], (slot[probe] + 1) % len(table)
        tok = [t[probe] for t in tok]
    return cols


class _SectionReader:
    """The line-by-line reading of a Pabulib file, which sees every line but
    the VOTES rows between two lines read ``as_text``.  It records where
    the VOTES rows are, those it sees included, as ``row_spans``, and
    :func:`parse_pabulib` reads them all as arrays."""

    def __init__(self):
        self.meta: dict[str, str] = {}
        self.projects: list[str] = []
        self.project_seen: set[str] = set()
        self.seen: set[str] = set()
        self.section: Optional[str] = None
        self.header: list[str] = []
        self.id_col = -1
        self.vote_col = -1
        self.vote_width = 0  # the fields of the VOTES header
        self.row_spans: list[tuple[int, int]] = []  # line index ranges of the VOTES rows

    def read(self, raw: _Bytes, starts, ends, as_text) -> None:
        """Feed the lines in order, except that past the VOTES header the lines
        between two read ``as_text`` are recorded as ``row_spans``."""
        stops = np.flatnonzero(as_text)
        texts = map(raw.text, starts[stops].tolist(), ends[stops].tolist())
        lo = 0
        for stop, text in zip([*stops.tolist(), len(ends)], [*texts, None]):
            for i in range(lo, stop):
                if self.section == "VOTES" and self.header:
                    self.row_spans.append((i, stop))
                    break
                self.feed(i + 1, raw.text(starts[i], ends[i]))
            if text is not None:
                self.feed(stop + 1, text)
            lo = stop + 1

    def feed(self, lineno: int, raw: str) -> None:
        line = raw.rstrip()
        if not line:
            return
        if line in _PABULIB_SECTIONS:
            if line in self.seen:
                raise ParseError(f"duplicate section {line}", lineno)
            self.seen.add(line)
            self.section = line
            self.header = []
            return
        if line.isupper() and line.isalpha():
            raise ParseError(f"unknown section {line!r}", lineno)
        if self.section is None:
            raise ParseError("content before any section header", lineno)

        if self.section == "VOTES" and self.header:
            self.row_spans.append((lineno - 1, lineno))
            return
        fields = line.split(";")
        if not self.header:
            self.header = [f.strip() for f in fields]
            if self.section == "PROJECTS":
                try:
                    self.id_col = self.header.index("project_id")
                except ValueError:
                    raise ParseError("PROJECTS header lacks a project_id column", lineno) from None
            elif self.section == "VOTES":
                try:
                    self.vote_col = self.header.index("vote")
                except ValueError:
                    raise ParseError("VOTES header lacks a vote column", lineno) from None
                self.vote_width = len(self.header)
            return

        if self.section == "META":
            if len(fields) < 2:
                raise ParseError("META row needs key;value", lineno)
            self.meta[fields[0].strip()] = fields[1].strip()
        elif self.section == "PROJECTS":
            if len(fields) != len(self.header):
                raise ParseError(
                    f"PROJECTS row has {len(fields)} fields, header has {len(self.header)}", lineno
                )
            pid = fields[self.id_col].strip()
            if not pid:
                raise ParseError("empty project id", lineno)
            if pid in self.project_seen:
                raise ParseError(f"duplicate project id {pid!r}", lineno)
            self.project_seen.add(pid)
            self.projects.append(pid)

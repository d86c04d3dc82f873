"""Ranking file formats, JSON helpers, and reproducible run manifests.

A ranking file is plain text, one complete ranking per row, items numbered
1..n.  Two row conventions exist in the wild and both are supported:

* ``ordering`` — the row lists item ids, most preferred first (how complete
  preference datasets are usually distributed); this is the canonical format.
* ``ranks`` — the j-th field is the rank assigned to item j.

Fields are separated by commas or whitespace (auto-detected on read).  When a
sample carries labels, the writer prepends a header row and appends a final
``label`` column, so unlabeled consumers can simply ignore the extra column.
"""

from __future__ import annotations

import codecs
import hashlib
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import RankingParseError, RejectedInputError
from .perms import RankingSample, inverse_rows


#: Rows formatted together by ``write_rankings``.
_BLOCK_ROWS = 4096

#: Bytes of one parse block of ``load_rankings``, which ends each block at a line
#: end, and of one read of ``sha256_of``.
_BLOCK_BYTES = 65536

#: Bytes a ranking body may hold for ``load_rankings``' byte parse.
_PLAIN_BYTES = b"0123456789, \t\n"

#: Neither a blank nor a line end: the first one is on the header line.
_NOT_BLANK = re.compile(rb"[^ \t\n]")

#: A field, as the byte parse reads one.
_DIGIT_RUN = re.compile(rb"[0-9]+")


class RankingFileFormat(str, Enum):
    ORDERING = "ordering"
    RANKS = "ranks"


def _as_format(fmt) -> RankingFileFormat:
    if isinstance(fmt, RankingFileFormat):
        return fmt
    try:
        return RankingFileFormat(str(fmt).lower())
    except ValueError:
        names = ", ".join(f.value for f in RankingFileFormat)
        raise RejectedInputError(
            f"unknown ranking file format {fmt!r}; expected one of {names}"
        )


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _split_row(line: str, delimiter: str | None) -> list[str]:
    if delimiter is None:
        delimiter = "," if "," in line else "whitespace"
    if delimiter == "whitespace":
        return line.split()
    return [t.strip() for t in line.split(delimiter)]


def _scan_rows(data, delimiter, labeled: bool) -> tuple[list[list[int]], list[str]]:
    """Check rows one at a time; raises RankingParseError at the first bad row."""
    vals_rows: list[list[int]] = []
    raw_labels: list[str] = []
    n: int | None = None
    for row_no, line in data:
        tokens = _split_row(line, delimiter)
        if labeled:
            if len(tokens) < 2:
                raise RankingParseError("labeled row needs at least 2 fields", row=row_no)
            raw_labels.append(tokens[-1])
            tokens = tokens[:-1]
        bad = [t for t in tokens if not _is_int(t)]
        if bad:
            raise RankingParseError(f"non-integer field {bad[0]!r}", row=row_no)
        vals = [int(t) for t in tokens]
        if n is None:
            n = len(vals)
        elif len(vals) != n:
            raise RankingParseError(
                f"expected {n} ranking fields, found {len(vals)}", row=row_no
            )
        if sorted(vals) != list(range(1, n + 1)):
            raise RankingParseError(
                f"fields {vals} are not a permutation of 1..{n}", row=row_no
            )
        vals_rows.append(vals)
    return vals_rows, raw_labels


def _labels(raw: list[str]) -> tuple:
    # numeric-looking labels come back as ints so component ids round-trip
    try:
        return tuple(map(int, raw))
    except ValueError:
        return tuple(raw)


def _header(line: str, delimiter) -> tuple[bool, bool]:
    """Whether a file's first non-blank line is a header, and whether it ends in ``label``."""
    head = _split_row(line.strip(), delimiter)
    has_header = not all(_is_int(t) for t in head)
    return has_header, has_header and head[-1].strip().lower() == "label"


def _canonical(block: np.ndarray, comma: bool) -> np.ndarray:
    """A block of digits and separators rewritten with one separator between fields.

    A comma block loses every blank; ValueError if that joins two digit
    runs, as then a field held a blank. A whitespace block loses each blank
    followed by a separator, which joins no runs, so only a comma block is
    checked. Both then lose each line end followed by another, so no line
    is empty, and each blank right after a line end. The block still starts
    and ends with a line end.
    """
    drop = (block == 32) | (block == 9)
    if not comma:
        drop[:-1] &= block[1:] < 48
    if drop.any():
        kept = block.compress(~drop)  # many blanks go: faster than a boolean index
        if comma and _digit_runs(kept) != _digit_runs(block):
            raise ValueError("a comma-separated field holds a blank")
        block = kept
    end = block == 10
    drop = end & np.append(end[1:], False)
    drop[1:] |= end[:-1] & ((block[1:] == 32) | (block[1:] == 9))
    return block[~drop] if drop.any() else block  # few line ends go: a boolean index is faster


def _block_fields(raw: bytes, width: int, comma: bool) -> np.ndarray:
    """The rows of ``width`` values in a block of digits and separators.

    The block starts with a line end. A separator right after a digit
    closes a field, and each field is read from its last digits back, one
    gather per digit. Unless every separator closes a field, the block's
    canonical form is read instead.
    """
    block = np.frombuffer(raw, dtype=np.uint8)
    # a blank in a comma block separates no fields, so that block is rewritten first
    for rewrite in (comma and (b" " in raw or b"\t" in raw), True):
        if rewrite:
            block = _canonical(block, comma)
        seps = np.flatnonzero(block < 48)[1:]
        last = block[seps - 1]
        if (last >= 48).all():
            break
    else:
        raise ValueError("an empty comma-separated field")
    # rows·width fields, a line end closing every width-th one, leave no
    # line end to close any other
    lines = int(np.count_nonzero(block == 10)) - 1
    if len(seps) != lines * width or (block[seps[width - 1 :: width]] != 10).any():
        raise ValueError("rows hold different numbers of fields")
    return _field_values(block, seps, last, width)


def _field_values(block: np.ndarray, seps: np.ndarray, last: np.ndarray, width: int) -> np.ndarray:
    """The values of the fields that end before ``seps``, whose last digits are ``last``."""
    vals = last.astype(np.int32) - 48
    more = np.ones(len(seps), dtype=bool)
    at = seps - 1
    for scale in (10**k for k in range(1, 10)):
        at -= 1
        # at < 0 clips to the block's first byte, a line end
        digit = block.take(at, mode="clip")
        more &= digit >= 48
        if not more.any():
            break
        if scale == 10**9:  # beyond int32; the scanner reads it
            raise ValueError("a field of more than 9 digits")
        vals += (digit.astype(np.int32) - 48) * more * scale
    return vals.reshape(-1, width)


def _digit_runs(block: np.ndarray) -> int:
    """The digit runs in a block that ends with a line end."""
    digit = block >= 48
    return int(np.count_nonzero(digit[:-1] > digit[1:]))


def _body_blocks(raw: bytes, start: int):
    """The lines of ``raw[start:]`` in blocks of about ``_BLOCK_BYTES``, cut at line ends.

    Each block is a copy that starts with a line end and ends with one.
    """
    while start < len(raw):
        end = raw.rfind(b"\n", start, start + _BLOCK_BYTES) + 1
        if end <= start:
            end = raw.find(b"\n", start) + 1 or len(raw)
        tail = b"" if raw[end - 1] == 10 else b"\n"
        yield b"".join((b"\n", memoryview(raw)[start:end], tail))
        start = end


def _parse_bytes(raw: bytes, delimiter, ordering: bool) -> tuple[np.ndarray, tuple | None]:
    """The int32 0-based ranks and the labels of a ranking file.

    Decodes only the first non-blank line, which decides the header as the
    scanner does. Takes a body whose ranking fields are ASCII digits under
    one delimiter: a comma if any row has one, else whitespace. A comma
    delimiter allows blanks around each field, and whitespace takes digit
    runs as fields; lines without fields are skipped. Labels that are not
    plain digits are split off each row's last field first. Raises
    ValueError on any other file, valid or not, and unless every other
    line holds the same number of fields of at most 9 digits; the caller
    then scans it row by row.

    The body is read in blocks, and each block's rows are checked and
    written into the result, inverted for the ``ordering`` format, so no
    other array of the whole file is made.
    """
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    first = _NOT_BLANK.search(raw)
    if first is None:
        raise ValueError("no ranking rows")
    start = raw.rfind(b"\n", 0, first.start()) + 1
    end = raw.find(b"\n", start)
    end = len(raw) if end < 0 else end
    line = raw[start:end].decode("utf-8")
    if line.splitlines() != [line] or not line.strip():
        raise ValueError("str.splitlines reads the first line otherwise")
    has_header, labeled = _header(line, delimiter)
    if has_header:
        start = end + 1
    if delimiter is None:
        delimiter = "," if raw.find(b",", start) >= 0 else "whitespace"
    if delimiter not in (",", "whitespace"):
        raise ValueError("not a plain delimiter")
    comma = delimiter == ","
    # bytes outside _PLAIN_BYTES, all of them on the header line
    plain = len(raw.translate(None, _PLAIN_BYTES)) == len(raw[:start].translate(None, _PLAIN_BYTES))
    if not (plain or labeled):
        raise ValueError("ranking fields are not plain digits")
    split = not plain  # labels that are not digits come off each line as text
    sep = "," if comma else None
    labels: list = []
    out, done, width = None, 0, None
    for block in _body_blocks(raw, start):
        if split:
            rows = [ln.rsplit(sep, 1) for ln in block.decode("utf-8").splitlines() if ln.strip()]
            if any(len(parts) != 2 for parts in rows):
                raise ValueError("a labeled row has one field")
            labels += [label.strip() for _, label in rows]
            block = "\n".join(["", *(rest for rest, _ in rows), ""]).encode("utf-8")
            if block.translate(None, _PLAIN_BYTES):
                raise ValueError("ranking fields are not plain digits")
        if not comma and b"," in block:
            raise ValueError("a comma in a whitespace-separated body")
        if width is None:
            # a line whose blanks join digit runs is refused below, so the
            # first line's digit runs are its fields
            digit = _DIGIT_RUN.search(block)
            if digit is None:
                if (split and rows) or (comma and b"," in block):
                    raise ValueError("a row without ranking fields")
                continue
            width = len(_DIGIT_RUN.findall(block, digit.start(), block.find(b"\n", digit.start())))
            # a row is a line, and holds width digits and width separators
            size = raw.count(b"\n", start) + (not raw.endswith(b"\n"))
            size = min(size, (len(raw) - start + 2) // (2 * width))
            out = np.empty((size, width - (labeled and not split)), dtype=np.int32)
        vals = _block_fields(block, width, comma)
        if split and len(vals) != len(rows):
            raise ValueError("a labeled row has no ranking fields")
        if labeled and not split:
            labels += vals[:, -1].tolist()
            vals = vals[:, :-1]
        vals -= 1
        inv = inverse_rows(vals)
        if vals.shape[1] == 0 or (inv < 0).any():
            raise ValueError("rows are not all permutations of 1..n")
        out[done : done + len(vals)] = inv if ordering else vals
        done += len(vals)
    if out is None:
        raise ValueError("no ranking rows")
    if done < len(out):
        out.resize((done, out.shape[1]), refcheck=False)  # in place; no view of out exists
    if not labeled:
        return out, None
    return out, _labels(labels) if split else tuple(labels)


def _decode(raw: bytes) -> str:
    """A ranking file's bytes as UTF-8 text."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte's row, counting lines as str.splitlines does
        row = len((raw[: exc.start].decode("utf-8") + "x").splitlines())
        raise RankingParseError(f"invalid UTF-8 byte {raw[exc.start]:#04x}", row=row) from None


def load_rankings(path, format="ordering", delimiter: str | None = None) -> RankingSample:
    """Parse a ranking file; raises RankingParseError with the offending row.

    ``delimiter`` is ``","``, ``"whitespace"``, or None to auto-detect per
    row.  A first row containing any non-integer field is treated as a
    header; the sample is labeled iff that header's last column is ``label``.
    The file is UTF-8, and a leading byte-order mark is skipped.
    """
    fmt = _as_format(format)
    raw = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        ranks, labels = _parse_bytes(raw, delimiter, fmt is RankingFileFormat.ORDERING)
    except ValueError:
        lines = _decode(raw).splitlines()
        first = next((k for k, ln in enumerate(lines) if ln.strip()), None)
        if first is None:
            raise RankingParseError(f"{path}: no ranking rows found")
        has_header, labeled = _header(lines[first], delimiter)
        start = first + 1 if has_header else first
        data = [(no + 1, ln.strip()) for no, ln in enumerate(lines[start:], start) if ln.strip()]
        if not data:
            raise RankingParseError(f"{path}: no ranking rows after the header")
        rows_vals, raw_labels = _scan_rows(data, delimiter, labeled)
        vals = np.array(rows_vals, dtype=np.int32) - 1
        # an ordering row lists items by rank, so its inverse permutation is the ranks
        ranks = inverse_rows(vals) if fmt is RankingFileFormat.ORDERING else vals
        labels = _labels(raw_labels) if labeled else None
    # both parsers checked every row, so the sample is not checked again
    return RankingSample._trusted(ranks, labels)


def _byte_table(texts) -> np.ndarray:
    """Each text's UTF-8 bytes as one item of a 1-d array, padded to one width with 0xFF.

    UTF-8 never holds the byte 0xFF, so deleting it from gathered items
    leaves their texts.
    """
    encoded = [t.encode("utf-8") for t in texts]
    width = max(map(len, encoded))
    width = next((w for w in (1, 2, 4, 8) if w >= width), width)
    flat = np.frombuffer(b"".join(e.ljust(width, b"\xff") for e in encoded), dtype=np.uint8)
    return flat.view(f"u{width}" if width <= 8 else f"V{width}")


def write_rankings(sample: RankingSample, path, format="ordering", delimiter=",") -> None:
    """Write a sample as UTF-8 text, one ``_BLOCK_ROWS`` block of rows at a time.

    A block's rows are gathered from byte tables of the fields, each with
    its separator or line end, and of the block's distinct labels.
    """
    fmt = _as_format(format)
    sep = " " if delimiter == "whitespace" else str(delimiter)
    n, labels = sample.n, sample.labels
    labeled = labels is not None
    ranks = sample.ranks_matrix
    # value k (0-based) with its separator at k, and with its line end at n + k
    end = sep if labeled else "\n"
    fields = _byte_table([f"{k}{sep}" for k in range(1, n + 1)] + [f"{k}{end}" for k in range(1, n + 1)])
    last = np.zeros(n, dtype=np.int32)
    last[-1] = n
    with open(path, "wb") as fh:
        if labeled:
            stem = "item" if fmt is RankingFileFormat.ORDERING else "rank"
            fh.write((sep.join([f"{stem}_{k + 1}" for k in range(n)] + ["label"]) + "\n").encode("utf-8"))
        for start in range(0, len(ranks), _BLOCK_ROWS):
            block = ranks[start : start + _BLOCK_ROWS]
            if fmt is RankingFileFormat.ORDERING:
                block = inverse_rows(block)
            cells = fields.take(block + last).view(np.uint8).reshape(len(block), -1)
            if labeled:
                distinct: dict[str, int] = {}
                codes = [distinct.setdefault(str(v), len(distinct)) for v in labels[start : start + _BLOCK_ROWS]]
                tags = _byte_table([f"{v}\n" for v in distinct]).take(codes)
                cells = np.hstack([cells, tags.view(np.uint8).reshape(len(block), -1)])
            fh.write(cells.tobytes().translate(None, b"\xff"))


# --- JSON + digests -------------------------------------------------------------


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise RejectedInputError(f"{path}: not a text file: {exc}") from exc
    except RecursionError as exc:
        raise RejectedInputError(f"{path}: JSON nested too deeply") from exc


def write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def sha256_of(path) -> str:
    """Hex SHA-256 of a file, read _BLOCK_BYTES at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_BLOCK_BYTES):
            digest.update(block)
    return digest.hexdigest()


# --- run manifests ----------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a CLI run and check it did reproduce.

    The data outputs of a run are a pure function of (command, config,
    inputs); wall times and work counters (``eval``'s transport pivots, say)
    are recorded here precisely so they never have to appear inside an output
    file, keeping reruns byte-identical.
    """

    command: str
    argv: tuple[str, ...]
    seed: int | None
    config: dict
    inputs: dict
    outputs: dict
    wall_times: dict
    counters: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        """The manifest document; ``counters`` appears only when there are any."""
        obj = {
            "command": self.command,
            "argv": list(self.argv),
            "seed": self.seed,
            "config": dict(self.config),
            "inputs": dict(self.inputs),
            "outputs": dict(self.outputs),
            "wall_times": dict(self.wall_times),
        }
        if self.counters:
            obj["counters"] = dict(self.counters)
        return obj


def write_manifest(manifest: RunManifest, path) -> None:
    write_json(manifest.to_json_obj(), path)

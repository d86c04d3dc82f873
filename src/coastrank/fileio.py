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
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import RankingParseError, RejectedInputError
from .perms import RankingSample, inverse_rows


#: Rows formatted together by ``write_rankings``.
_BLOCK_ROWS = 65536

#: Bytes a ranking body may hold for ``load_rankings``' one-call parse.
_PLAIN_BYTES = b"0123456789, \t\n"


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


def _plain(lines: list[str]) -> bool:
    body = "\n".join(lines)
    return body.isascii() and not body.encode("ascii").translate(None, _PLAIN_BYTES)


def _parse_plain(
    lines: list[str], delimiter, labeled: bool
) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """0-based field values, their row inverses and the labels of the data lines.

    The values are parsed by one np.loadtxt call. Takes a body whose ranking
    fields are ASCII digits under one delimiter: a comma if any row has one,
    else whitespace. Labels that are not plain digits are split off each
    row's last field first. Raises ValueError on any other body, valid or
    not; the caller then scans it row by row.
    """
    lines = [ln for ln in lines if ln.strip()]
    if delimiter is None:
        delimiter = "," if any("," in ln for ln in lines) else "whitespace"
    if not lines or delimiter not in (",", "whitespace"):
        raise ValueError("no plain rows")
    sep = None if delimiter == "whitespace" else ","
    labels, plain = None, _plain(lines)
    if labeled and not plain:
        split = [ln.rsplit(sep, 1) for ln in lines]
        if any(len(parts) != 2 for parts in split):
            raise ValueError("a labeled row has one field")
        lines = [rest for rest, _ in split]
        labels = _labels([label.strip() for _, label in split])
        plain = _plain(lines)
    if not plain:
        raise ValueError("ranking fields are not plain digits")
    # int32 halves the array; a field beyond its range raises, it does not wrap
    vals = np.loadtxt(lines, dtype=np.int32, delimiter=sep, comments=None, ndmin=2)
    if len(vals) != len(lines):  # loadtxt skipped a row left blank by its label
        raise ValueError("a labeled row has no ranking fields")
    if labeled and labels is None:
        labels = tuple(vals[:, -1].tolist())
        vals = vals[:, :-1]
    vals -= 1
    inv = inverse_rows(vals)
    if vals.shape[1] == 0 or (inv < 0).any():
        raise ValueError("rows are not all permutations of 1..n")
    return np.ascontiguousarray(vals), inv, labels


def _decode(raw: bytes) -> str:
    """A ranking file's bytes as UTF-8 text, without a leading byte-order mark."""
    raw = raw.removeprefix(codecs.BOM_UTF8)
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
    lines = _decode(Path(path).read_bytes()).splitlines()
    first = next((k for k, ln in enumerate(lines) if ln.strip()), None)
    if first is None:
        raise RankingParseError(f"{path}: no ranking rows found")
    head = _split_row(lines[first].strip(), delimiter)
    has_header = not all(_is_int(t) for t in head)
    labeled = has_header and head[-1].strip().lower() == "label"
    start = first + 1 if has_header else first

    try:
        vals, inv, labels = _parse_plain(lines[start:], delimiter, labeled)
    except ValueError:
        data = [(no + 1, ln.strip()) for no, ln in enumerate(lines[start:], start) if ln.strip()]
        if not data:
            raise RankingParseError(f"{path}: no ranking rows after the header")
        rows_vals, raw_labels = _scan_rows(data, delimiter, labeled)
        vals = np.array(rows_vals, dtype=np.int32) - 1
        inv = inverse_rows(vals)
        labels = _labels(raw_labels) if labeled else None
    # an ordering row lists items by rank, so its inverse permutation is the ranks;
    # both parsers checked every row, so the sample is not checked again
    ranks = inv if fmt is RankingFileFormat.ORDERING else vals
    return RankingSample._trusted(ranks, labels)


def write_rankings(sample: RankingSample, path, format="ordering", delimiter=",") -> None:
    fmt = _as_format(format)
    sep = " " if delimiter == "whitespace" else str(delimiter)
    n, labels = sample.n, sample.labels
    labeled = labels is not None
    ranks = sample.ranks_matrix
    vals = inverse_rows(ranks) if fmt is RankingFileFormat.ORDERING else ranks
    # every field is a string from a table, its separator or line end
    # included, and each block of rows is one join
    end = sep if labeled else "\n"
    with_sep = np.array([f"{k}{sep}" for k in range(1, n + 1)], dtype=object)
    with_end = np.array([f"{k}{end}" for k in range(1, n + 1)], dtype=object)
    with open(path, "w") as fh:
        if labeled:
            stem = "item" if fmt is RankingFileFormat.ORDERING else "rank"
            fh.write(sep.join([f"{stem}_{k + 1}" for k in range(n)] + ["label"]) + "\n")
        for start in range(0, len(vals), _BLOCK_ROWS):
            block = vals[start : start + _BLOCK_ROWS]
            cells = np.empty((len(block), n + labeled), dtype=object)
            cells[:, : n - 1] = with_sep[block[:, :-1]]
            cells[:, n - 1] = with_end[block[:, -1]]
            if labeled:
                cells[:, n] = [str(v) + "\n" for v in labels[start : start + _BLOCK_ROWS]]
            fh.write("".join(cells.ravel().tolist()))


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
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RunManifest":
        try:
            return cls(
                command=str(obj["command"]),
                argv=tuple(str(a) for a in obj["argv"]),
                seed=None if obj.get("seed") is None else int(obj["seed"]),
                config=dict(obj["config"]),
                inputs=dict(obj["inputs"]),
                outputs=dict(obj["outputs"]),
                wall_times=dict(obj["wall_times"]),
                counters=dict(obj.get("counters", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RejectedInputError(f"malformed run manifest: {exc}") from exc


def write_manifest(manifest: RunManifest, path) -> None:
    write_json(manifest.to_json_obj(), path)

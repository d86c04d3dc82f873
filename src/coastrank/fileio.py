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

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import RankingParseError, RejectedInputError
from .perms import RankingSample, inverse_rows, non_permutation_rows


#: Rows split and converted together by ``load_rankings``.
_BLOCK_ROWS = 1024


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


def _parse_all(data, delimiter, labeled: bool) -> tuple[np.ndarray, list[str]]:
    """0-based field values of every row, split and checked a block at a time.

    Blocks bound the number of field strings alive at once. Raises
    ValueError or OverflowError on any bad row without saying which; the
    caller then rescans row by row to report it.
    """
    sep = None if delimiter == "whitespace" else delimiter
    blocks, raw_labels = [], []
    for start in range(0, len(data), _BLOCK_ROWS):
        lines = [line for _, line in data[start : start + _BLOCK_ROWS]]
        if delimiter is None:
            tokens = [ln.split(",") if "," in ln else ln.split() for ln in lines]
        else:
            tokens = [ln.split(sep) for ln in lines]
        if labeled:
            raw_labels += [t.pop().strip() for t in tokens]
        # converts each field as int() does; a ragged or non-integer row raises
        block = np.array(tokens, dtype=np.int64) - 1
        if block.shape[1] == 0 or non_permutation_rows(block).size:
            raise ValueError("rows are not all permutations of 1..n")
        blocks.append(block.astype(np.int32))
    return np.concatenate(blocks), raw_labels  # raises if blocks differ in width


def load_rankings(path, format="ordering", delimiter: str | None = None) -> RankingSample:
    """Parse a ranking file; raises RankingParseError with the offending row.

    ``delimiter`` is ``","``, ``"whitespace"``, or None to auto-detect per
    row.  A first row containing any non-integer field is treated as a
    header; the sample is labeled iff that header's last column is ``label``.
    """
    fmt = _as_format(format)
    lines = Path(path).read_text().splitlines()
    rows = [(no + 1, ln.strip()) for no, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise RankingParseError(f"{path}: no ranking rows found")
    head = _split_row(rows[0][1], delimiter)
    has_header = not all(_is_int(t) for t in head)
    labeled = has_header and head[-1].strip().lower() == "label"
    data = rows[1:] if has_header else rows
    if not data:
        raise RankingParseError(f"{path}: no ranking rows after the header")

    try:
        vals, raw_labels = _parse_all(data, delimiter, labeled)
    except (ValueError, OverflowError):
        rows_vals, raw_labels = _scan_rows(data, delimiter, labeled)
        vals = np.array(rows_vals, dtype=np.int32) - 1
    # an ordering row lists items by rank, so its inverse permutation is the ranks
    ranks = inverse_rows(vals) if fmt is RankingFileFormat.ORDERING else vals

    labels = None
    if labeled:
        # numeric-looking labels come back as ints so component ids round-trip
        try:
            labels = tuple(map(int, raw_labels))
        except ValueError:
            labels = tuple(raw_labels)
    return RankingSample.from_ranks(ranks, labels)


def write_rankings(sample: RankingSample, path, format="ordering", delimiter=",") -> None:
    fmt = _as_format(format)
    sep = " " if delimiter == "whitespace" else str(delimiter)
    labels = sample.labels
    out: list[str] = []
    if labels is not None:
        stem = "item" if fmt is RankingFileFormat.ORDERING else "rank"
        out.append(sep.join([f"{stem}_{k + 1}" for k in range(sample.n)] + ["label"]))
    ranks = sample.ranks_matrix
    vals = inverse_rows(ranks) if fmt is RankingFileFormat.ORDERING else ranks
    for i, row_vals in enumerate((vals + 1).tolist()):
        row = [str(v) for v in row_vals]
        if labels is not None:
            row.append(str(labels[i]))
        out.append(sep.join(row))
    Path(path).write_text("\n".join(out) + "\n")


# --- JSON + digests -------------------------------------------------------------


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --- run manifests ----------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a CLI run and check it did reproduce.

    The data outputs of a run are a pure function of (command, config,
    inputs); wall times are recorded here precisely so they never have to
    appear inside an output file, keeping reruns byte-identical.
    """

    command: str
    argv: tuple[str, ...]
    seed: int | None
    config: dict
    inputs: dict
    outputs: dict
    wall_times: dict

    def to_json_obj(self) -> dict:
        return {
            "command": self.command,
            "argv": list(self.argv),
            "seed": self.seed,
            "config": dict(self.config),
            "inputs": dict(self.inputs),
            "outputs": dict(self.outputs),
            "wall_times": dict(self.wall_times),
        }

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
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RejectedInputError(f"malformed run manifest: {exc}") from exc


def write_manifest(manifest: RunManifest, path) -> None:
    write_json(manifest.to_json_obj(), path)

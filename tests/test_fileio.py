"""Ranking file parsing/writing and run manifests."""

import hashlib
import json
import re

import numpy as np
import pytest

from coastrank.errors import RankingParseError, RejectedInputError
from coastrank.fileio import (
    RankingFileFormat,
    RunManifest,
    load_rankings,
    read_json,
    sha256_of,
    write_manifest,
    write_rankings,
)
from coastrank.perms import Permutation, RankingSample

from conftest import random_sample
from oracles import load_rankings_by_rows, manifest_from_json_obj


def test_ordering_row_semantics(tmp_path):
    # "3 1 2" means: item 3 first, item 1 second, item 2 third
    path = tmp_path / "r.txt"
    path.write_text("3 1 2\n")
    s = load_rankings(path, format="ordering")
    assert len(s) == 1
    assert s.rankings[0].ranks == (1, 2, 0)


def test_ranks_row_identity(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("1 2 3\n")
    s = load_rankings(path, format="ranks")
    assert s.rankings[0] == Permutation.identity(3)


def test_ordering_vs_ranks_same_row_differ(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("2 3 1\n")
    as_ordering = load_rankings(path, format="ordering").rankings[0]
    as_ranks = load_rankings(path, format="ranks").rankings[0]
    assert as_ordering.ranks == (2, 0, 1)
    assert as_ranks.ranks == (1, 2, 0)


@pytest.mark.parametrize("fmt", ["ordering", "ranks"])
@pytest.mark.parametrize("delim", [",", "whitespace"])
@pytest.mark.parametrize("labeled", [False, True])
def test_round_trip(tmp_path, rng, fmt, delim, labeled):
    base = random_sample(rng, 5, 20)
    labels = tuple(int(v) for v in rng.integers(0, 3, size=20)) if labeled else None
    sample = RankingSample(base.rankings, labels)
    path = tmp_path / "sample.txt"
    write_rankings(sample, path, format=fmt, delimiter=delim)
    back = load_rankings(path, format=fmt)
    assert back.rankings == sample.rankings
    assert back.labels == sample.labels


def test_string_labels_round_trip(tmp_path):
    sample = RankingSample(
        (Permutation.identity(3), Permutation((1, 0, 2))), labels=("good", "bad")
    )
    path = tmp_path / "s.csv"
    write_rankings(sample, path)
    back = load_rankings(path)
    assert back.labels == ("good", "bad")


def test_duplicate_item_reports_row(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("1 2 3\n1 1 3\n")
    with pytest.raises(RankingParseError) as err:
        load_rankings(path)
    assert err.value.row == 2
    assert "row 2" in str(err.value)


def test_out_of_range_item_rejected(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("0 1 2\n")
    with pytest.raises(RankingParseError) as err:
        load_rankings(path)
    assert err.value.row == 1


def test_inconsistent_width_reports_row(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("2 1 3\n1 2\n2 3 1\n")
    with pytest.raises(RankingParseError) as err:
        load_rankings(path)
    assert err.value.row == 2


def test_non_integer_field_reports_row(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("1 2 3\n1 x 3\n")
    with pytest.raises(RankingParseError) as err:
        load_rankings(path)
    assert err.value.row == 2 and "'x'" in str(err.value)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("\n\n")
    with pytest.raises(RankingParseError):
        load_rankings(path)


def test_header_only_rejected(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("item_1,item_2,label\n")
    with pytest.raises(RankingParseError):
        load_rankings(path)


def test_header_without_label_column(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("item_1,item_2,item_3\n3,1,2\n")
    s = load_rankings(path)
    assert s.labels is None
    assert len(s) == 1


def test_delimiter_autodetect(tmp_path):
    comma = tmp_path / "c.txt"
    comma.write_text("2,1,3\n")
    space = tmp_path / "w.txt"
    space.write_text("2 1 3\n")
    assert load_rankings(comma).rankings == load_rankings(space).rankings


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("\n1 2 3\n\n3 2 1\n\n")
    assert len(load_rankings(path)) == 2


def test_bad_format_name(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("1 2 3\n")
    with pytest.raises(RejectedInputError):
        load_rankings(path, format="sideways")
    assert RankingFileFormat("ordering") is RankingFileFormat.ORDERING


def test_sha256_of(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"hello\n")
    assert sha256_of(path) == hashlib.sha256(b"hello\n").hexdigest()


def test_sha256_of_reads_a_large_file_in_blocks(tmp_path):
    import tracemalloc

    from coastrank import fileio

    data = np.random.default_rng(3).bytes(20 * fileio._BLOCK_BYTES + 123)
    path = tmp_path / "big.bin"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        got = sha256_of(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == hashlib.sha256(data).hexdigest()
    assert peak < 3 * fileio._BLOCK_BYTES  # the whole file is 20 blocks


def test_manifest_round_trip(tmp_path):
    manifest = RunManifest(
        command="fit",
        argv=("fit", "--input", "a.csv"),
        seed=7,
        config={"epsilon": 0.25, "rule": "min-distortion"},
        inputs={"rankings": "ab" * 32},
        outputs={"tree": "cd" * 32},
        wall_times={"total": 0.125},
    )
    path = tmp_path / "run.manifest.json"
    write_manifest(manifest, path)
    doc = read_json(path)
    assert manifest_from_json_obj(doc) == manifest
    # the manifest file itself is valid JSON with the documented keys
    raw = json.loads(path.read_text())
    assert set(raw) == {
        "command", "argv", "seed", "config", "inputs", "outputs", "wall_times"
    }
    with pytest.raises(RejectedInputError):
        manifest_from_json_obj({"command": "fit"})


def test_manifest_counters_round_trip_and_default_to_empty(tmp_path):
    fields = dict(command="eval", argv=("eval",), seed=None, config={}, inputs={},
                  outputs={"report": "ef" * 32}, wall_times={"total": 0.5})
    manifest = RunManifest(**fields, counters={"distinct_cells": 3, "steps": [{"pivots": 4}]})
    path = tmp_path / "eval.manifest.json"
    write_manifest(manifest, path)
    assert manifest_from_json_obj(read_json(path)) == manifest
    assert json.loads(path.read_text())["counters"]["steps"] == [{"pivots": 4}]
    bare = RunManifest(**fields).to_json_obj()
    assert "counters" not in bare
    assert manifest_from_json_obj(bare).counters == {}
    with pytest.raises(RejectedInputError):
        manifest_from_json_obj(dict(bare, counters=7))


@pytest.mark.parametrize("seed", [7.5, True, "7"])
def test_manifest_seed_must_be_an_integer(seed):
    doc = RunManifest(command="fit", argv=("fit",), seed=7, config={}, inputs={}, outputs={},
                      wall_times={}).to_json_obj()
    with pytest.raises(RejectedInputError, match="manifest seed must be an integer"):
        manifest_from_json_obj(dict(doc, seed=seed))


def _mixed_rows(rng, n, count, labeled):
    """Ordering rows alternating comma and whitespace fields, with their ranks."""
    lines, ranks = [], []
    for k in range(count):
        order = [int(v) + 1 for v in rng.permutation(n)]
        fields = [str(v) for v in order] + ([f"c{k % 3}"] if labeled else [])
        lines.append(", ".join(fields) if k % 2 else " ".join(fields))
        ranks.append(Permutation.from_ordering([v - 1 for v in order]).ranks)
    return lines, ranks


@pytest.mark.parametrize("header", [None, "item_1,item_2,item_3,item_4,item_5", "a b c d e label"])
def test_mixed_delimiters_parse_like_single_rows(tmp_path, rng, header):
    labeled = header is not None and header.endswith("label")
    lines, ranks = _mixed_rows(rng, 5, 300, labeled)
    path = tmp_path / "r.txt"
    path.write_text("\n".join(([header] if header else []) + lines) + "\n")
    s = load_rankings(path)
    assert [p.ranks for p in s.rankings] == ranks
    assert s.labels == (tuple(f"c{k % 3}" for k in range(300)) if labeled else None)


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("1 2 x 4 5", "non-integer field 'x'"),
        ("1, 2, 3.0, 4, 5", "non-integer field '3.0'"),
        ("1 2 3 4", "expected 5 ranking fields, found 4"),
        ("1, 2, 3, 4, 5, 6", "expected 5 ranking fields, found 6"),
        ("1 2 2 4 5", "fields [1, 2, 2, 4, 5] are not a permutation of 1..5"),
        ("0, 1, 2, 3, 4", "fields [0, 1, 2, 3, 4] are not a permutation of 1..5"),
        ("1 2 3 4 99999999999999999999", "are not a permutation of 1..5"),
    ],
)
@pytest.mark.parametrize("labeled", [False, True])
def test_bad_row_deep_in_file_is_reported(tmp_path, rng, bad_row, message, labeled):
    lines, _ = _mixed_rows(rng, 5, 400, labeled)
    if labeled:
        bad_row += ", c9" if "," in bad_row else " c9"
    lines[250] = bad_row
    header = "item_1,item_2,item_3,item_4,item_5" + (",label" if labeled else "")
    path = tmp_path / "r.txt"
    # a blank line before the bad row: row numbers count every line of the file
    path.write_text("\n".join([header] + lines[:100] + [""] + lines[100:]) + "\n")
    with pytest.raises(RankingParseError) as err:
        load_rankings(path)
    assert err.value.row == 253
    assert str(err.value).startswith("row 253: ") and message in str(err.value)


def test_labeled_row_without_ranking_fields_reported(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("item_1,item_2,label\n1,2,a\n2,1,b\nc\n")
    with pytest.raises(RankingParseError) as err:
        load_rankings(path)
    assert err.value.row == 4 and "at least 2 fields" in str(err.value)


# --- the byte parse against a row-by-row oracle ---------------------------------

_FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")

#: Edits of one field: valid spellings of an integer, and one that is not.
_FIELD_EDITS = {
    "leading zero": lambda v: "0" + v,
    "plus sign": lambda v: "+" + v,
    "underscore": lambda v: v[0] + "_" + v[1:] if len(v) > 1 else v,
    "fullwidth": lambda v: v.translate(_FULLWIDTH),
    "decimal": lambda v: v + ".0",
}


def _random_ranking_file(rng, items=(1, 2, 3, 5, 12), label_bound=4) -> tuple[bytes, str, bool]:
    """A seeded ranking file, its format, and whether it keeps to the documented conventions.

    ``n`` is drawn from ``items`` and integer labels from ``range(label_bound)``.
    """
    n = int(rng.choice(list(items)))
    size = int(rng.choice([0, 1, 2, 7, 30])) if rng.random() < 0.1 else int(rng.integers(1, 30))
    fmt = str(rng.choice(["ordering", "ranks"]))
    faults = ["edit", "trailing comma", "ragged", "duplicate", "mixed", "blank", "byte"]
    fault = str(rng.choice(["none"] * 4 + faults))
    # only a plain comma leaves the blank fault's blank between two digits
    sep = "," if fault == "blank" else str(rng.choice([",", ", ", " ,", " , ", " ", "\t", "  ", " \t"]))
    eol = "\r\n" if rng.random() < 0.3 else "\n"
    kind = str(rng.choice(["none", "header", "int", "str", "decimal"]))
    comma = "," in sep
    rows = []
    for _ in range(size):
        fields = [str(int(v) + 1) for v in rng.permutation(n)]
        if kind in ("int", "decimal"):
            fields.append(str(int(rng.integers(0, label_bound))))
        elif kind == "str":
            fields.append(str(rng.choice(["a", "b c" if comma else "bc", "ü", "x.y"])))
        rows.append(fields)
    if kind == "decimal" and rows:
        rows[int(rng.integers(len(rows)))][-1] = "1.0"
    stem = "item" if fmt == "ordering" else "rank"
    header = [f"{stem}_{k + 1}" for k in range(n)] + (["label"] if kind not in ("none", "header") else [])
    lines = [sep.join(r) for r in rows]
    conventional = True
    if fault != "none" and rows:
        conventional = False
        k = int(rng.integers(len(rows)))
        if fault == "edit":
            edit = _FIELD_EDITS[str(rng.choice(list(_FIELD_EDITS)))]
            j = int(rng.integers(n))
            rows[k][j] = edit(rows[k][j])
            lines[k] = sep.join(rows[k])
        elif fault == "trailing comma":
            lines[k] += ","
        elif fault == "ragged":
            lines[k] = sep.join(rows[k][1:])
        elif fault == "duplicate" and n > 1:
            rows[k][0] = rows[k][1]
            lines[k] = sep.join(rows[k])
        elif fault == "mixed":
            lines[k] = (" " if comma else ",").join(rows[k])
        elif fault == "blank" and "," in lines[k]:  # one comma of the row becomes a blank
            commas = [i for i, ch in enumerate(lines[k]) if ch == ","]
            at = commas[int(rng.integers(len(commas)))]
            lines[k] = lines[k][:at] + str(rng.choice([" ", "\t"])) + lines[k][at + 1 :]
    for _ in range(int(rng.integers(0, 4))):
        lines.insert(int(rng.integers(len(lines) + 1)), str(rng.choice(["", "  ", "\t", " \t "])))
    if kind != "none":
        lines.insert(0, (sep if sep.strip() else " ").join(header))
    data = (eol.join(lines) + (eol if rng.random() < 0.8 else "")).encode("utf-8")
    if fault == "byte" and rows:
        at = data.rfind(eol.encode(), 0, max(1, len(data) - 2)) + len(eol)
        data = data[:at] + b"\xff" + data[at:]
    if rng.random() < 0.1:
        data = b"\xef\xbb\xbf" + data
    return data, fmt, conventional and size > 0


def _outcome(load):
    try:
        got = load()
    except RankingParseError as exc:
        return "error", str(exc), exc.row
    if isinstance(got, RankingSample):
        return "ok", [tuple(r) for r in got.ranks_matrix.tolist()], got.labels
    return ("ok",) + got


@pytest.mark.parametrize("seed", range(6))
def test_loader_matches_row_oracle(tmp_path, monkeypatch, seed):
    import coastrank.fileio as fileio

    scans = []
    scan = fileio._scan_rows

    def counting(*args):
        scans.append(1)
        return scan(*args)

    monkeypatch.setattr(fileio, "_scan_rows", counting)
    rng = np.random.default_rng([20260307, seed])
    for k in range(80):
        data, fmt, conventional = _random_ranking_file(rng)
        path = tmp_path / f"{k}.rnk"
        path.write_bytes(data)
        scans.clear()
        got = _outcome(lambda: load_rankings(path, format=fmt))
        assert got == _outcome(lambda: load_rankings_by_rows(path, format=fmt)), data
        if conventional:  # a documented convention takes the one-call parse
            assert got[0] == "ok" and not scans, data


def _like_oracle(tmp_path, monkeypatch, cases):
    """Each case's load against the row oracle; returns whether each one reached ``_scan_rows``."""
    import coastrank.fileio as fileio

    scans = []
    scan = fileio._scan_rows

    def counting(*args):
        scans.append(1)
        return scan(*args)

    monkeypatch.setattr(fileio, "_scan_rows", counting)
    scanned = []
    for k, (data, fmt) in enumerate(cases):
        path = tmp_path / f"edge{k}.rnk"
        path.write_bytes(data)
        scans.clear()
        got = _outcome(lambda: load_rankings(path, format=fmt))
        assert got == _outcome(lambda: load_rankings_by_rows(path, format=fmt)), data
        scanned.append(bool(scans))
    return scanned


@pytest.mark.parametrize("seed", range(3))
def test_wide_fields_and_large_labels_match_row_oracle(tmp_path, monkeypatch, seed):
    rng = np.random.default_rng([20260419, seed])
    files = [_random_ranking_file(rng, items=(20, 120), label_bound=10**6 + 1) for _ in range(40)]
    scanned = _like_oracle(tmp_path, monkeypatch, [(data, fmt) for data, fmt, _ in files])
    for (data, _, conventional), scan in zip(files, scanned):
        if conventional:
            assert not scan, data


@pytest.mark.parametrize(
    "text, scanned, error",
    [
        (b"3,000000001,2\n", False, None),  # 9 digits, the most the byte parse reads
        (b"item_1,item_2,label\n2,1,999999999\n1,2,7\n", False, None),
        (b"3 1 0000000002\n", True, None),  # 10 digits: the scanner reads them
        (b"item_1,item_2,label\n2,1,1000000000\n", True, None),
        (b"3,1,1000000002\n", True, "row 1: fields [3, 1, 1000000002] are not a permutation"),
    ],
)
def test_int32_edge_fields_match_row_oracle(tmp_path, monkeypatch, text, scanned, error):
    assert _like_oracle(tmp_path, monkeypatch, [(text, "ordering")]) == [scanned]
    if error is not None:
        with pytest.raises(RankingParseError, match=re.escape(error)):
            load_rankings(tmp_path / "edge0.rnk")


@pytest.mark.parametrize(
    "text",
    [
        b"2,3,1\n1,2,3",  # no final line end
        b"item_1,item_2,item_3,label\n2,3,1,x",
        b"3 1 2",  # one row
        b"item_1 item_2 label\n2 1 5\n",
        b"2,3,1\r1,2,3\r\r3,1,2\r",  # \r line ends only
        b"item_1\titem_2\tlabel\r2\t1\tb\r\r1\t2\ta",
    ],
)
def test_short_bodies_and_bare_carriage_returns_take_the_byte_parse(tmp_path, monkeypatch, text):
    assert _like_oracle(tmp_path, monkeypatch, [(text, "ordering"), (text, "ranks")]) == [False] * 2


@pytest.mark.parametrize(
    "text, row",
    [
        (b"12,1,2,3,4,5,6,7,8,9,10,11\n1 2,1,2,3,4,5,6,7,8,9,10,11\n", 2),  # 1 2 is no 12
        (b"1,2\n1\n2\n2,1\n", 2),  # ragged rows whose fields regroup into permutations
        (b"1,2\n\n1\n2,2,1\n", 3),  # the same after a blank line
        (b"1 2 \n1\n2 2 1\n", 2),  # and after a trailing blank
        (b"2,1\n1 2,1\n", 2),  # 1 2 read from its last digit would pass as 2
        (b"1, 2\n1, 2, 1\n2\n", 2),  # ragged rows, with blanks, that regroup
        (b"1,2,3\n1 2,3\n", 2),  # a blank for a comma: the field is 1 2
        (b"1,2,3\n3 1,2\n2,1,3\n", 2),
        (b"1,2,3\n1\t2,3\n", 2),
        (b"1,2,3,4\n1 2,3,4\n", 2),
    ],
)
def test_rows_that_would_regroup_are_refused_like_the_row_oracle(tmp_path, monkeypatch, text, row):
    assert _like_oracle(tmp_path, monkeypatch, [(text, "ordering")]) == [True]
    with pytest.raises(RankingParseError) as err:
        load_rankings(tmp_path / "edge0.rnk")
    assert err.value.row == row


@pytest.mark.parametrize("brk", ["\x0b", "\x1c", "\x85", "\u2028"])
def test_header_line_that_splitlines_breaks_is_scanned(tmp_path, monkeypatch, brk):
    text = f"item_1,item_2{brk}2,1\n1,2\n".encode()  # str.splitlines makes 2,1 a data row
    assert _like_oracle(tmp_path, monkeypatch, [(text, "ordering")]) == [True]
    assert len(load_rankings(tmp_path / "edge0.rnk")) == 2


@pytest.mark.parametrize("block_bytes", [1, 3, 7, 20])
@pytest.mark.parametrize("sep", [",", ", ", " ", "\t ", "  "])
def test_rows_straddling_parse_blocks_match_row_oracle(tmp_path, monkeypatch, block_bytes, sep):
    import coastrank.fileio as fileio

    monkeypatch.setattr(fileio, "_BLOCK_BYTES", block_bytes)  # blocks end mid-row
    rng = np.random.default_rng(block_bytes)
    rows = [sep.join(str(int(v) + 1) for v in rng.permutation(12)) for _ in range(30)]
    labels = [str(int(v)) for v in rng.integers(0, 1000, 30)]
    header = sep.join([f"item_{k + 1}" for k in range(12)] + ["label"])
    labeled = [header] + [row + sep + label for row, label in zip(rows, labels)]
    bad = list(rows)
    bad[17] = sep.join(bad[17].split(sep.strip() or None)[1:])  # a short row deep in the file
    cases = [
        ("\n".join(rows) + "\n", False),
        ("\n".join(rows[:9] + ["", " \t"] + rows[9:]), False),  # blank lines, no final line end
        ("\r\n".join(labeled) + "\r\n", False),
        ("\n".join(bad) + "\n", True),
    ]
    scanned = _like_oracle(tmp_path, monkeypatch, [(text.encode(), "ordering") for text, _ in cases])
    assert scanned == [scan for _, scan in cases]


def test_odd_integer_spellings_load_through_the_scanner(tmp_path, monkeypatch):
    rng = np.random.default_rng(10)
    rows = [[str(int(v) + 1) for v in rng.permutation(10)] for _ in range(3)]
    odd = [list(row) for row in rows]
    for row, value, spelling in zip(odd, ["10", "3", "3"], ["1_0", "+3", "３"]):
        row[row.index(value)] = spelling
    texts = ["".join(",".join(row) + "\n" for row in table).encode() for table in (rows, odd)]
    assert _like_oracle(tmp_path, monkeypatch, [(text, "ordering") for text in texts]) == [False, True]
    plain, spelled = (load_rankings(tmp_path / f"edge{k}.rnk").ranks_matrix for k in (0, 1))
    assert spelled.tolist() == plain.tolist()


@pytest.mark.parametrize(
    "text, row, message",
    [
        (b"item_1,item_2,label\n1,2,0\n2,\xff1,1\n", 3, "invalid UTF-8 byte 0xff"),
        (b"\xfe1 2\n2 1\n", 1, "invalid UTF-8 byte 0xfe"),
        (b"1 2\r\n\r\n2 1\r\n\xe2\x80\n", 4, "invalid UTF-8 byte 0xe2"),
    ],
)
def test_undecodable_byte_reports_row(tmp_path, text, row, message):
    path = tmp_path / "r.txt"
    path.write_bytes(text)
    with pytest.raises(RankingParseError) as err:
        load_rankings(path)
    assert err.value.row == row and message in str(err.value)


def test_byte_order_mark_is_skipped(tmp_path):
    path = tmp_path / "r.txt"
    path.write_bytes(b"\xef\xbb\xbf1,2\n2,1\n")
    assert [p.ranks for p in load_rankings(path).rankings] == [(0, 1), (1, 0)]
    path.write_bytes(b"\xef\xbb\xbfitem_1,item_2,label\n1,2,a\n")
    assert load_rankings(path).labels == ("a",)


@pytest.mark.parametrize("fmt", ["ordering", "ranks"])
@pytest.mark.parametrize("labels", [None, "int", "str", "non-ascii"])
def test_written_bytes_match_a_per_value_writer(tmp_path, monkeypatch, fmt, labels):
    import coastrank.fileio as fileio

    monkeypatch.setattr(fileio, "_BLOCK_ROWS", 7)  # several blocks and a partial one
    rng = np.random.default_rng(len(fmt))
    path = tmp_path / "s.txt"
    # three-digit fields at n = 120, and a delimiter of several characters
    for n, delim in [(1, ","), (2, "whitespace"), (12, ","), (12, "\t"), (120, ","), (12, " ¦ ")]:
        base = random_sample(rng, n, 30)
        values = rng.integers(0, 3, 30)
        spell = {"str": "c{}", "non-ascii": "ç{}-é"}.get(labels, "{}").format
        tags = None if labels is None else [int(v) if labels == "int" else spell(v) for v in values]
        sample = RankingSample(base.rankings, tags)
        write_rankings(sample, path, format=fmt, delimiter=delim)
        sep = " " if delim == "whitespace" else delim
        rows = [p.ordering() if fmt == "ordering" else p.ranks for p in sample.rankings]
        lines = [[str(v + 1) for v in row] for row in rows]
        if sample.labels is not None:
            stem = "item" if fmt == "ordering" else "rank"
            lines = [[f"{stem}_{k + 1}" for k in range(n)] + ["label"]] + [
                fields + [str(label)] for fields, label in zip(lines, sample.labels)
            ]
        text = "".join(sep.join(fields) + "\n" for fields in lines)
        assert path.read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("fmt", ["ordering", "ranks"])
@pytest.mark.parametrize("labeled", [False, True])
def test_bad_row_in_a_later_parse_block_reports_the_row_oracle_error(tmp_path, monkeypatch, fmt, labeled):
    import coastrank.fileio as fileio

    monkeypatch.setattr(fileio, "_BLOCK_BYTES", 64)
    rng = np.random.default_rng(19)
    rows = [",".join(str(int(v) + 1) for v in rng.permutation(6)) for _ in range(60)]
    rows[47] = "1,1,3,4,5,6"  # a duplicate in a row many blocks in
    if labeled:
        header = ",".join([f"item_{k + 1}" for k in range(6)] + ["label"])
        rows = [header] + [f"{r},{k % 3}" for k, r in enumerate(rows)]
    path = tmp_path / "bad.rnk"
    text = "\n".join(rows) + "\n"
    path.write_text(text)
    assert text.index("1,1,3") > 5 * fileio._BLOCK_BYTES
    with pytest.raises(RankingParseError) as err:
        load_rankings(path, format=fmt)
    with pytest.raises(RankingParseError) as want:
        load_rankings_by_rows(path, format=fmt)
    assert (str(err.value), err.value.row) == (str(want.value), want.value.row)
    assert err.value.row == 48 + labeled


@pytest.mark.parametrize("block_bytes", [1, 8])
@pytest.mark.parametrize("rows", [",x\n", ",x\n,y\n", " ,x\n"])
def test_first_parse_block_of_label_only_rows_reports_the_row_oracle_error(tmp_path, monkeypatch, block_bytes, rows):
    # once the labels are split off, the first block holds rows but no field
    import coastrank.fileio as fileio

    monkeypatch.setattr(fileio, "_BLOCK_BYTES", block_bytes)
    path = tmp_path / "bad.rnk"
    path.write_text("item_1,item_2,label\n" + rows + "1,2,a\n")
    with pytest.raises(RankingParseError) as err:
        load_rankings(path)
    with pytest.raises(RankingParseError) as want:
        load_rankings_by_rows(path)
    assert (str(err.value), err.value.row) == (str(want.value), want.value.row) == ("row 2: non-integer field ''", 2)


def test_ranking_file_path_peaks_within_its_result_the_file_and_a_block(tmp_path):
    # each step holds its result, the file's bytes (load only) and temporaries
    # of a fixed size, whatever N is; an inverse that scattered all rows at
    # once would take twice the result in int64 slots
    import sys
    import tracemalloc

    from coastrank.models import MallowsParams, MixtureSpec, sample_mixture
    from coastrank.perms import inverse_rows

    n, size, budget = 20, 200_000, 4 << 20
    rng = np.random.default_rng(5)
    centers = [Permutation(tuple(rng.permutation(n).tolist())) for _ in range(4)]
    spec = MixtureSpec(n, 5, tuple((MallowsParams(c, 0.5), 0.25) for c in centers))
    path = tmp_path / "s.rnk"

    def traced(step):
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            result = step()
            return result, tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()

    sample, peak = traced(lambda: sample_mixture(spec, size))
    labels = sys.getsizeof(sample.labels)
    # the displacement draws take one byte per entry until they are decoded
    assert peak < sample.ranks_matrix.nbytes + size * n + 2 * labels + budget
    inv, peak = traced(lambda: inverse_rows(sample.ranks_matrix))
    assert peak < inv.nbytes + budget
    _, peak = traced(lambda: write_rankings(sample, path))
    assert peak < budget
    back, peak = traced(lambda: load_rankings(path))
    assert peak < back.ranks_matrix.nbytes + 2 * labels + path.stat().st_size + budget
    assert np.array_equal(back.ranks_matrix, sample.ranks_matrix) and back.labels == sample.labels

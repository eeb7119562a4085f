"""The CSV reader against a csv-module loop over the whole file.

``read_sample_csv`` opens a file once, reads plain blocks of whole lines in
bulk and hands the first other block, and the rest of the file, to
``_read_rows``, the csv-module loop. A plain block is read by the kernel's
scan (``gibbs._scan_block``), or by numpy and ``float()`` where the kernel is
absent (``gibbs._kernel = None``) or declines it. Every input must give the
same groups, bit for bit, or the same error as ``read_rows_reference`` on
both paths, and the csv loop must take over at the same line.
"""

import csv
import math
import random
import struct

import numpy as np
import pytest
from _oracles import read_rows_reference

from mixtt import gibbs, reports


def _outcome(read, path):
    """The groups' bytes, or the error's type and text."""
    try:
        sample = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return sample.group1.dtype, sample.group1.tobytes(), sample.group2.tobytes()


def _read_recording(monkeypatch, path):
    """:func:`_outcome` of ``read_sample_csv``, and the first line the csv loop read, or None.

    The file is read on the kernel path and on the Python path, which must agree.
    """
    assert gibbs._loaded_kernel() is not None
    results = []
    for kernel in (gibbs._kernel, None):
        firsts = []
        read_rows = reports._read_rows

        def recording(path, lines, lineno, groups):
            firsts.append(lineno)
            return read_rows(path, lines, lineno, groups)

        with monkeypatch.context() as m:
            m.setattr(reports, "_read_rows", recording)
            m.setattr(gibbs, "_kernel", kernel)
            outcome = _outcome(reports.read_sample_csv, path)
        assert len(firsts) <= 1
        results.append((outcome, (firsts or [None])[0]))
    assert results[0] == results[1]
    return results[0]


def _lines(rows, end="\n"):
    return "".join(f"{v},{g}{end}" for v, g in rows)


def _rows(rows, end="\n"):
    return "value,group" + end + _lines(rows, end)


def _spread(n):
    return [(f"{i * 0.37 - 5:.6f}", "ab"[i % 2]) for i in range(n)]


def _past_block():
    """Rows of 20 chars filling more than one read block, whose first block ends inside a row."""
    rows = [(f"{i * 0.125:017.6f}", "a" if i % 3 else "b") for i in range(reports._BLOCK_CHARS // 20 + 50)]
    assert reports._BLOCK_CHARS % 20 != 0
    return rows


# the number of the first line after the first read block of a file of _past_block() rows
SECOND_BLOCK = 2 + -(-reports._BLOCK_CHARS // 20)

# (id, file bytes, the first line the csv loop reads, or None where the bulk pass reads every row)
CASES = [
    ("plain", _rows(_spread(12)).encode(), None),
    ("no-trailing-newline", _rows(_spread(6))[:-1].encode(), None),
    ("crlf", _rows(_spread(8), "\r\n").encode(), 2),
    ("quoted", b'value,group\n"1.5","a"\n2,b\n" 2.5 ",a\n3,"b"\n', 2),
    ("bom", ("\ufeff" + _rows(_spread(6))).encode(), None),
    ("blank-lines", b"value,group\n1,a\n\n2,b\n   \n3,a\n4,b\n", 2),
    ("trailing-blank-line", b"value,group\n1,a\n2,b\n3,a\n\n", 2),
    ("header-spaces-and-case", b" Value , GROUP \n1,a\n2,b\n3,a\n", None),
    ("label-spaces", b"value,group\n1, a\n2,b \n3,a\n4, b \n", None),
    ("label-underscores", b"value,group\n1,_x_\n2,y_1\n3,_x_\n4,y_1\n", None),
    ("non-ascii-labels", "value,group\n1,κοντρόλ\n2,処置\n3,κοντρόλ\n4,処置\n".encode(), None),
    ("unicode-digits", "value,group\n١٢,a\n１２.５,b\n٣,a\n4,b\n".encode(), None),
    ("odd-values", b"value,group\n+1e-300,a\n 2.5 ,b\n0,a\n-0,b\n4.9e-324,a\n1e50,b\n", None),
    ("numeric-labels", b"value,group\n1.0,2\n5,3\n2.0,2\n6,3\n", None),
    ("one-label", b"value,group\n1,a\n2,a\n3, a\n", None),
    ("row-split-at-block-boundary", _rows(_past_block()).encode(), None),
    ("empty-file", b"", None),
    ("bad-header", b"amount,arm\n1,a\n2,b\n", None),
    ("header-third-column", b"value,group,note\n1,a\n2,b\n", None),
    ("header-only", b"value,group\n", None),
    ("extra-column", b"value,group\n1,a\n2,b,junk\n3,a\n", 2),
    ("missing-column", b"value,group\n1,a\n2\n3,b\n", 2),
    ("misaligned-comma-numeric-labels", b"value,group\n5\n1.0,2,3\n", 2),
    ("not-a-number", b"value,group\n1,a\nx,b\n", 2),
    ("underscore-value", b"value,group\n1,a\n1_0,b\n", 2),
    ("nan", b"value,group\n1,a\nnan,b\n", 2),
    ("inf", b"value,group\n1,a\n-Infinity,b\n", 2),
    ("overflowing-literal", b"value,group\n1,a\n1e400,b\n", 2),
    ("empty-label", b"value,group\n1,a\n2,\n3,b\n", 2),
    ("blank-label", b"value,group\n1,a\n2,  \n3,b\n", 2),
    ("third-label", b"value,group\n1,a\n2,b\n3,c\n", 2),
    ("third-label-after-first-block", _rows(_past_block() + [("7", "c")]).encode(), SECOND_BLOCK),
    ("bad-value-after-first-block", _rows(_past_block() + [("x", "a")]).encode(), SECOND_BLOCK),
    ("nul", b"value,group\n1,a\n2\x00,b\n3,b\n", 2),
    ("overflowing-squares", b"value,group\n1e300,a\n-1e300,a\n2,b\n3,b\n", None),
    ("undecodable", b"value,group\n1,a\n2,\xffb\n3,b\n", None),
    ("field-over-csv-limit", b"value,group\n1,a\n2,b\n0." + b"0" * 131072 + b"1,a\n", 2),
    ("header-over-csv-limit", b"value,group" + b"p" * 131072 + b"\n1,a\n2,b\n", None),
    ("quoted-header", b'"value"," group"\n1,a\n2,b\n3,a\n', None),
    ("header-spanning-two-lines", b'"value\n",group\n1,a\nx,b\n', 2),
    ("blank-line-after-first-block", (_rows(_past_block()) + "\n" + _lines(_spread(8))).encode(), SECOND_BLOCK),
    ("trailing-blank-line-after-first-block", (_rows(_past_block()) + "\n").encode(), SECOND_BLOCK),
    ("crlf-after-first-block", (_rows(_past_block()) + _lines(_spread(8), "\r\n")).encode(), SECOND_BLOCK),
]


@pytest.mark.parametrize("data, first", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_bulk_reader_matches_the_row_loop(tmp_path, monkeypatch, data, first):
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    assert _read_recording(monkeypatch, path) == (_outcome(read_rows_reference, path), first)


def test_bulk_reader_matches_the_row_loop_on_seeded_files(tmp_path, monkeypatch):
    # small files mixing every feature the bulk reader must take or decline
    rng = random.Random(26)
    values = ["1", "-2.5", " 3 ", "+1e-300", "0", "١٢", "4e1", "1_0", "x", "nan", "", '"5"', "1e999"]
    labels = ["a", "b", " a", "b ", "c", "", " ", '"a"', "é"]
    path = tmp_path / "in.csv"
    taken = 0
    for _ in range(300):
        lines = ["value,group"]
        for _ in range(rng.randint(0, 8)):
            kind = rng.random()
            if kind < 0.05:
                lines.append(rng.choice(["", "  "]))
            elif kind < 0.1:
                lines.append(rng.choice(["1", "1,a,b", "5\n1.0,2,3"]))
            else:
                lines.append(f"{rng.choice(values[:7] * 8 + values)},{rng.choice(labels[:2] * 12 + labels)}")
        end = rng.choice(["\n"] * 8 + ["\r\n"])
        text = end.join(lines) + rng.choice([end, ""])
        path.write_bytes(text.encode())
        outcome, first = _read_recording(monkeypatch, path)
        assert outcome == _outcome(read_rows_reference, path), text
        taken += first is None
    assert 50 < taken < 250  # both readers ran


def test_bulk_reader_matches_the_row_loop_on_seeded_multi_block_files(tmp_path, monkeypatch):
    # files of a few blocks with up to two features the bulk pass declines, anywhere in the file
    rng = random.Random(27)
    features = ["", "  ", '"1.5",a', "1,c", "x,a", "1_0,b", "1,a,b", "1\r", "1,\0a"]
    path = tmp_path / "in.csv"
    firsts = []
    for _ in range(10):
        lines = _lines(_past_block()).splitlines() + _lines(_spread(rng.randint(0, 3000))).splitlines()
        for _ in range(rng.randint(0, 2)):
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(features))
        path.write_bytes(("value,group\n" + "\n".join(lines) + rng.choice(["\n", "", "\n\n"])).encode())
        outcome, first = _read_recording(monkeypatch, path)
        assert outcome == _outcome(read_rows_reference, path)
        firsts.append(first)
    assert None in firsts and 2 in firsts and max(f for f in firsts if f) > 2


def _with_bad_label(rows, line, end="\n"):
    """``_rows(rows, end)`` as bytes, with the label on line ``line`` replaced by the byte 0xff."""
    lines = _rows(rows, end).encode().split(end.encode())
    lines[line - 1] = lines[line - 1][:-1] + b"\xff"
    return end.encode().join(lines)


# _past_block() * 2 is 6,652 rows of 20 bytes: with LF ends, line k starts at file offset 12 + 20 * (k - 2)
# (id, file bytes, the message after the path, the first line the csv loop reads, or None)
UNDECODABLE = [
    ("header", b"val\xffue,group\n1,a\n2,b\n",
     "line 1: can't decode byte 0xff at file offset 3: invalid start byte", None),
    ("first-block", _with_bad_label(_past_block() * 2, 1001),
     "line 1001: can't decode byte 0xff at file offset 20010: invalid start byte", None),
    ("after-the-row-loop-took-over", b"value,group\n\n" + _with_bad_label(_past_block() * 2, 5000)[12:],
     "line 5001: can't decode byte 0xff at file offset 99991: invalid start byte", 2),
    ("after-a-bom", b"\xef\xbb\xbf" + _with_bad_label(_past_block() * 2, 1001),
     "line 1001: can't decode byte 0xff at file offset 20013: invalid start byte", None),
    ("cut-at-end-of-file", b"value,group\n1,a\n2,b\xc3",
     "line 3: can't decode byte 0xc3 at file offset 19: unexpected end of data", None),
    ("crlf", _with_bad_label(_past_block() * 2, 4000, "\r\n"),
     "line 4000: can't decode byte 0xff at file offset 83989: invalid start byte", 2),
    ("lone-cr", _with_bad_label(_past_block() * 2, 4000, "\r"),
     "line 4000: can't decode byte 0xff at file offset 79990: invalid start byte", 2),
]


@pytest.mark.parametrize("data, message, first", [case[1:] for case in UNDECODABLE],
                         ids=[case[0] for case in UNDECODABLE])
def test_undecodable_text_names_its_line_and_file_offset(tmp_path, monkeypatch, data, message, first):
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    assert _read_recording(monkeypatch, path) == ((ValueError, f"{path}: {message}"), first)
    assert _outcome(read_rows_reference, path) == (ValueError, f"{path}: {message}")


def _scan(strings, labels=("a",)):
    """``gibbs._scan_block`` of one line per string, labelled in turn from ``labels``."""
    text = "".join(f"{s},{labels[i % len(labels)]}\n" for i, s in enumerate(strings)).encode()
    return gibbs._scan_block(text, csv.field_size_limit())


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


HARD_NUMBERS = [
    "9007199254740993",  # 2^53 + 1, halfway between two doubles
    "9007199254740993." + "0" * 780 + "1",  # just past that halfway point
    "2.2250738585072011e-308",  # just below the smallest normal
    "4.9406564584124654e-324", "2.4703282292062328e-324",  # the smallest subnormal, and just past half of it
    "1.7976931348623157e308", "1.7976931348623158e308",  # both round to the largest double
    "1e-400", "-1e-400",  # ±0.0
    "+.5", "5.", "-0", "007", "1E+05", "0e0", ".0e-0",
    "0." + "1234567890" * 80,  # 800 digits
    "9" * 800 + "e-800",
]


def test_the_kernel_scan_reads_hard_numbers_as_float_does():
    values, codes, labels = _scan(HARD_NUMBERS, ["a", " b", "a"])
    assert _bits(values) == _bits([float(s) for s in HARD_NUMBERS])
    assert math.copysign(1.0, values[HARD_NUMBERS.index("-1e-400")]) == -1.0
    assert codes.tolist() == [[0, 1, 0][i % 3] for i in range(len(HARD_NUMBERS))]
    assert labels == ["a", " b"]


def _fuzzed_numbers(rng, count):
    """Decimal strings of every shape the scan takes: reprs, %e and %f forms, and digit runs with exponents."""
    def digits(lo, hi):
        return "".join(rng.choice("0123456789") for _ in range(rng.randint(lo, hi)))

    strings = []
    while len(strings) < count:
        x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        kind = rng.randrange(4)
        if kind < 3 and not math.isfinite(x):
            continue
        if kind == 0:
            strings.append(repr(x))
        elif kind == 1:
            strings.append(f"%.{rng.randint(0, 25)}e" % x)
        elif kind == 2:
            strings.append(f"%.{rng.randint(0, 25)}f" % math.ldexp(math.frexp(x)[0], rng.randint(-80, 70)))
        else:
            mantissa = rng.choice([digits(1, 30), digits(1, 20) + "." + digits(0, 20), "." + digits(1, 30)])
            exponent = rng.choice(["", f"{rng.choice('eE')}{rng.choice(['', '+', '-'])}{rng.randint(0, 400)}"])
            strings.append(rng.choice(["", "+", "-"]) + mantissa + exponent)
    return strings


def test_the_kernel_scan_reads_fuzzed_numbers_as_float_does():
    strings = _fuzzed_numbers(random.Random(29), 20_000)
    finite = [s for s in strings if math.isfinite(float(s))]
    overflowing = [s for s in strings if not math.isfinite(float(s))]
    assert 0 < len(overflowing) < 1_000  # digit runs with large exponents
    values, codes, labels = _scan(finite)
    assert _bits(values) == _bits([float(s) for s in finite])
    assert codes.tolist() == [0] * len(finite) and labels == ["a"]
    for s in overflowing:
        assert _scan([s]) is None, s


DECLINED = [
    " 2.5", "2.5 ", "١٢", "inf", "nan", "0x1p3", "1_0", "1e", ".", "1.7976931348623159e308",
    "1,5", "", "+", "-.e1", "1e+", "1.5e3.2", "0.0" + "0" * 131_072 + "1",
]


@pytest.mark.parametrize("value", DECLINED, ids=range(len(DECLINED)))
def test_the_kernel_scan_declines_other_values_and_the_file_reads_as_before(tmp_path, monkeypatch, value):
    assert _scan(["1", value, "2"]) is None
    path = tmp_path / "in.csv"
    path.write_bytes(f"value,group\n1,a\n{value},b\n2,a\n3,b\n".encode())
    assert _read_recording(monkeypatch, path)[0] == _outcome(read_rows_reference, path)


@pytest.mark.parametrize("rows", [
    [("1", "a"), ("2", " a"), ("3", "a "), ("4", " a "), ("5", "b")],  # five raw labels, two groups
    [("0." + "1" * 70_000, "b" * 70_000), ("2", "a")],  # a line over the field size limit, no field over it
], ids=["more-raw-labels-than-the-scan-holds", "line-over-the-field-size-limit"])
def test_the_kernel_scan_declines_other_blocks_and_the_file_reads_as_before(tmp_path, monkeypatch, rows):
    assert _scan([v for v, _ in rows], [g for _, g in rows]) is None
    path = tmp_path / "in.csv"
    path.write_bytes(_rows(rows * 2).encode())
    outcome, first = _read_recording(monkeypatch, path)
    assert outcome == _outcome(read_rows_reference, path)
    assert outcome[0] is np.dtype(float)  # the split or the csv loop reads it


def test_plain_blocks_are_split_only_without_the_kernel(tmp_path, monkeypatch):
    path = tmp_path / "in.csv"
    path.write_bytes(_rows(_past_block() * 3).encode())
    splits = []
    split_block = reports._split_block

    def recording(*args):
        splits.append(args)
        return split_block(*args)

    monkeypatch.setattr(reports, "_split_block", recording)
    kernel = reports.read_sample_csv(path)
    assert splits == []
    monkeypatch.setattr(gibbs, "_kernel", None)
    python = reports.read_sample_csv(path)
    assert len(splits) > 3  # one per block
    assert kernel.group1.tobytes() == python.group1.tobytes() and kernel.group2.tobytes() == python.group2.tobytes()

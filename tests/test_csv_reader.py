"""The bulk CSV reader against the row loop it falls back to.

``read_sample_csv`` reads plain files in blocks of whole lines and hands any
other file to ``_read_rows``, the csv-module loop. Every input must give
the same groups, bit for bit, or the same error, whichever reader runs.
"""

import random

import pytest

from mixtt import reports


def _outcome(read, path):
    try:
        sample = read(path)
    except Exception as exc:  # csv.Error and UnicodeDecodeError too: the row loop raises them today
        return type(exc), str(exc)
    return sample.group1.dtype, sample.group1.tobytes(), sample.group2.tobytes()


def _rows(rows, end="\n"):
    return "value,group" + end + "".join(f"{v},{g}{end}" for v, g in rows)


def _spread(n):
    return [(f"{i * 0.37 - 5:.6f}", "ab"[i % 2]) for i in range(n)]


def _past_block():
    """Rows of 20 chars filling more than one read block, whose first block ends inside a row."""
    rows = [(f"{i * 0.125:017.6f}", "a" if i % 3 else "b") for i in range(reports._BLOCK_CHARS // 20 + 50)]
    assert reports._BLOCK_CHARS % 20 != 0
    return rows


# (id, file bytes, whether the bulk reader takes the file)
CASES = [
    ("plain", _rows(_spread(12)).encode(), True),
    ("no-trailing-newline", _rows(_spread(6))[:-1].encode(), True),
    ("crlf", _rows(_spread(8), "\r\n").encode(), False),
    ("quoted", b'value,group\n"1.5","a"\n2,b\n" 2.5 ",a\n3,"b"\n', False),
    ("bom", ("\ufeff" + _rows(_spread(6))).encode(), True),
    ("blank-lines", b"value,group\n1,a\n\n2,b\n   \n3,a\n4,b\n", False),
    ("trailing-blank-line", b"value,group\n1,a\n2,b\n3,a\n\n", False),
    ("header-spaces-and-case", b" Value , GROUP \n1,a\n2,b\n3,a\n", True),
    ("label-spaces", b"value,group\n1, a\n2,b \n3,a\n4, b \n", True),
    ("label-underscores", b"value,group\n1,_x_\n2,y_1\n3,_x_\n4,y_1\n", True),
    ("non-ascii-labels", "value,group\n1,κοντρόλ\n2,処置\n3,κοντρόλ\n4,処置\n".encode(), True),
    ("unicode-digits", "value,group\n١٢,a\n１２.５,b\n٣,a\n4,b\n".encode(), True),
    ("odd-values", b"value,group\n+1e-300,a\n 2.5 ,b\n0,a\n-0,b\n4.9e-324,a\n1e50,b\n", True),
    ("numeric-labels", b"value,group\n1.0,2\n5,3\n2.0,2\n6,3\n", True),
    ("one-label", b"value,group\n1,a\n2,a\n3, a\n", True),
    ("row-split-at-block-boundary", _rows(_past_block()).encode(), True),
    ("empty-file", b"", False),
    ("bad-header", b"amount,arm\n1,a\n2,b\n", False),
    ("header-third-column", b"value,group,note\n1,a\n2,b\n", False),
    ("header-only", b"value,group\n", False),
    ("extra-column", b"value,group\n1,a\n2,b,junk\n3,a\n", False),
    ("missing-column", b"value,group\n1,a\n2\n3,b\n", False),
    ("misaligned-comma-numeric-labels", b"value,group\n5\n1.0,2,3\n", False),
    ("not-a-number", b"value,group\n1,a\nx,b\n", False),
    ("underscore-value", b"value,group\n1,a\n1_0,b\n", False),
    ("nan", b"value,group\n1,a\nnan,b\n", False),
    ("inf", b"value,group\n1,a\n-Infinity,b\n", False),
    ("overflowing-literal", b"value,group\n1,a\n1e400,b\n", False),
    ("empty-label", b"value,group\n1,a\n2,\n3,b\n", False),
    ("blank-label", b"value,group\n1,a\n2,  \n3,b\n", False),
    ("third-label", b"value,group\n1,a\n2,b\n3,c\n", False),
    ("third-label-after-first-block", _rows(_past_block() + [("7", "c")]).encode(), False),
    ("bad-value-after-first-block", _rows(_past_block() + [("x", "a")]).encode(), False),
    ("nul", b"value,group\n1,a\n2\x00,b\n3,b\n", False),
    ("overflowing-squares", b"value,group\n1e300,a\n-1e300,a\n2,b\n3,b\n", True),
    ("undecodable", b"value,group\n1,a\n2,\xffb\n3,b\n", False),
    ("field-over-csv-limit", b"value,group\n1,a\n2,b\n0." + b"0" * 131072 + b"1,a\n", False),
]


@pytest.mark.parametrize("data, taken", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_bulk_reader_matches_the_row_loop(tmp_path, data, taken):
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    assert _outcome(reports.read_sample_csv, path) == _outcome(reports._read_rows, path)
    assert (reports._read_blocks(path) is not None) == taken


def test_bulk_reader_matches_the_row_loop_on_seeded_files(tmp_path):
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
        assert _outcome(reports.read_sample_csv, path) == _outcome(reports._read_rows, path), text
        taken += reports._read_blocks(path) is not None
    assert 50 < taken < 250  # both readers ran

"""The shared CSV writer against the per-row csv.writer reference."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgclutter._export import BLOCK_ROWS, write_csv

NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
SPECIAL = [0.0, -0.0, np.nan, NAN_PAYLOAD, np.inf, -np.inf, 5e-324, -5e-324]


def reference(header, columns):
    f = io.StringIO()
    w = csv.writer(f, lineterminator="\n")
    w.writerow(header)
    for row in zip(*columns):
        w.writerow([f"{v:.17g}" for v in row])
    return f.getvalue()


def written(header, columns):
    f = io.StringIO()
    write_csv(f, header, *columns)
    return f.getvalue()


def assert_same(got, want):
    # report the first differing line: pytest's diff of two long strings
    # takes minutes, and Hypothesis builds one per failing shrink step
    pairs = enumerate(zip(got.split("\n"), want.split("\n")))
    first = next(((i, a, b) for i, (a, b) in pairs if a != b), None)
    assert first is None and len(got) == len(want), first


@st.composite
def column_sets(draw):
    """1-4 columns, each a cycle of (value, run length) pairs cut to a shared
    length, so long runs, adjacent 0.0/-0.0 and the special values occur."""
    k = draw(st.integers(1, 4))
    n = draw(st.sampled_from([0, 1, BLOCK_ROWS, BLOCK_ROWS + 1]) | st.integers(0, 64))
    value = st.sampled_from([0.0, -0.0]) | st.sampled_from(SPECIAL) | st.floats()
    run = st.integers(1, 3) | st.integers(1, 2 * BLOCK_ROWS)
    columns = []
    for _ in range(k):
        runs = draw(st.lists(st.tuples(value, run), min_size=1, max_size=8))
        cycle = np.repeat([v for v, _ in runs], [r for _, r in runs])
        columns.append(np.resize(cycle, n))
    return [f"c{i}" for i in range(k)], columns


@settings(max_examples=200, deadline=None)
@given(column_sets())
def test_matches_csv_writer(case):
    header, columns = case
    assert_same(written(header, columns), reference(header, columns))


def test_signed_zeros_and_specials_kept_apart():
    col = np.array([0.0, -0.0, -0.0, 0.0, np.nan, NAN_PAYLOAD, np.inf, -np.inf,
                    5e-324, 5e-324, -5e-324])
    assert_same(written(["x"], [col]), reference(["x"], [col]))
    assert written(["x"], [col]).split("\n")[1:5] == ["0", "-0", "-0", "0"]


def test_integer_column_prints_as_str():
    ns = [0, 1, 170, 10**6, 2**53 - 1]
    assert written(["n"], [ns]) == "n\n" + "".join(f"{n}\n" for n in ns)


def test_unequal_columns_rejected():
    with pytest.raises(ValueError, match="equal lengths"):
        written(["a", "b"], [[1.0, 2.0], [1.0]])

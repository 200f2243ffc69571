"""The shared CSV writer against the per-row csv.writer reference."""

import csv
import io
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgclutter import _export
from cgclutter._export import BLOCK_VALUES, write_csv

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
    rows = BLOCK_VALUES // k  # rows per block
    n = draw(st.sampled_from([0, 1, rows, rows + 1]) | st.integers(0, 64))
    value = st.sampled_from([0.0, -0.0]) | st.sampled_from(SPECIAL) | st.floats()
    run = st.integers(1, 3) | st.integers(1, 2 * rows)
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


def cpus(monkeypatch, k):
    """Make the writer see k usable CPUs, on Linux and on macOS."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: k)


@pytest.mark.parametrize("k", [1, 2, 8])
def test_blocks_written_in_order_whatever_the_cpu_count(k, monkeypatch):
    # more blocks than 8 workers hold in flight, and a short last block
    n = (8 + 3) * (BLOCK_VALUES // 4) + 5
    scale = 10.0 ** np.array([-5, 1, 7, 13])[:, None]  # positional and exponent form
    columns = list(np.random.default_rng(k).standard_normal((4, n)) * scale)
    header = ["a", "b", "c", "d"]
    cpus(monkeypatch, k)
    assert_same(written(header, columns), reference(header, columns))


@pytest.mark.parametrize("k", [1, 2])
def test_at_most_one_block_more_than_workers_in_flight(k, monkeypatch):
    started = []
    block_text = _export._block_text
    monkeypatch.setattr(_export, "_block_text", lambda *a: started.append(1) or block_text(*a))

    class SlowFile(io.StringIO):
        # slow, so the workers would run ahead if they were let
        started_at = []  # blocks started by the end of each write

        def write(self, s):
            time.sleep(0.01)
            self.started_at.append(len(started))
            return super().write(s)

    f = SlowFile()
    cpus(monkeypatch, k)
    write_csv(f, ["x"], np.arange(20 * BLOCK_VALUES, dtype=float))
    # the header, then 20 blocks; block j is in flight from its start until
    # its write, so at that write blocks j..started_at[j] are
    assert f.started_at[0] == 0 and len(f.started_at) == 21
    assert max(s - j + 1 for j, s in enumerate(f.started_at[1:], 1)) <= k + 1


def test_failed_write_raises_and_stops_the_workers(monkeypatch):
    class Failing(io.StringIO):
        calls = 0

        def write(self, s):
            self.calls += 1
            if self.calls == 3:
                raise error
            return super().write(s)

    error = OSError("disk full")
    cpus(monkeypatch, 2)
    before = threading.active_count()
    with pytest.raises(OSError) as exc:
        write_csv(Failing(), ["x"], np.arange(10 * BLOCK_VALUES, dtype=float))
    assert exc.value is error
    assert threading.active_count() == before


def test_one_cpu_formats_on_the_calling_thread(monkeypatch):
    n = 3 * (BLOCK_VALUES // 2) + 7
    columns = list(np.random.default_rng(5).standard_normal((2, n)) * [[1e-6], [1e9]])
    cpus(monkeypatch, 2)
    want = written(["a", "b"], columns)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was made on one CPU")

    monkeypatch.setattr(_export, "_workers", lambda: 1)
    monkeypatch.setattr(_export, "ThreadPoolExecutor", no_pool)
    assert written(["a", "b"], columns) == want


def test_unequal_columns_rejected():
    with pytest.raises(ValueError, match="equal lengths"):
        written(["a", "b"], [[1.0, 2.0], [1.0]])


def test_header_and_columns_must_match():
    with pytest.raises(ValueError, match="header names 2 columns, but 1 are given"):
        written(["a", "b"], [[1.0, 2.0]])
    with pytest.raises(ValueError, match="at least one column"):
        written([], [])


ROWS = BLOCK_VALUES // 2  # rows per block of a two-column table


def with_time(tau):
    """A texture-like table: a t column with no repeats beside tau."""
    return ["t", "tau"], [np.arange(len(tau)) * 0.1, np.asarray(tau, dtype=float)]


def test_runs_across_block_boundaries():
    # runs ending one row before, at and one row after a block boundary,
    # and one run over more than two whole blocks
    lengths = [ROWS - 1, 2, ROWS - 2, 1, 2 * ROWS + 3, 5]
    tau = np.repeat(np.random.default_rng(3).gamma(2.0, 0.5, len(lengths)), lengths)
    assert_same(written(*with_time(tau)), reference(*with_time(tau)))


def test_runs_of_percent_route_values():
    values = [np.nan, NAN_PAYLOAD, -np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
              1e-5, -1e-5, 1e20, -1e20, np.inf, 1e-5]
    lengths = [3, 2, 1, ROWS, 4, 7, 1, ROWS + 1, 2, 3, 5, 2]
    tau = np.repeat(values, lengths)
    assert_same(written(*with_time(tau)), reference(*with_time(tau)))


def test_alternating_signed_zeros():
    # a run never joins 0.0 and -0.0, whose bits differ
    for tau in (np.resize([0.0, -0.0], 2 * ROWS + 3),
                np.repeat([0.0, -0.0, 0.0, -0.0], [ROWS, 3, ROWS, 2])):
        got = written(*with_time(tau))
        assert_same(got, reference(*with_time(tau)))
        assert [line.split(",")[1] for line in got.split("\n")[1:5]] == [
            "-0" if np.signbit(v) else "0" for v in tau[:4]]


@pytest.mark.parametrize("k", [1, 2])
def test_constant_column_over_three_blocks(k, monkeypatch):
    tau = np.full(3 * ROWS, 0.73105857863000487)
    cpus(monkeypatch, k)
    assert_same(written(*with_time(tau)), reference(*with_time(tau)))


def test_each_run_formatted_once_per_block(monkeypatch):
    # a run is formatted once in each block it reaches, so a column of k
    # runs over b blocks puts at most k + b values through the digits
    lengths = np.random.default_rng(4).integers(1, 3000, 200)
    col = np.repeat(np.random.default_rng(5).standard_normal(len(lengths)), lengths)
    blocks = -(-len(col) // BLOCK_VALUES)
    assert blocks > 1
    seen = []
    digits = _export._digits
    monkeypatch.setattr(_export, "_digits", lambda x: seen.append(len(x)) or digits(x))
    got = written(["x"], [col])
    assert_same(got, reference(["x"], [col]))
    assert len(lengths) <= sum(seen) <= len(lengths) + blocks


def differential_sample():
    """Fixed-seed values at the edges of the numpy digit kernel: its range
    ends, decimal-exponent boundaries, rounding ties and the special values
    that must take the `%` route."""
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2**64, 60_000, dtype=np.uint64).view(np.float64)
    near = [c + rng.integers(-2**20, 2**20, 20_000) * np.spacing(c) for c in (1e-4, 1e16, 1e17)]
    tens = 10.0 ** np.arange(-30, 31)
    powers = np.concatenate([np.nextafter(tens, 0), tens, np.nextafter(tens, np.inf)])
    n, j = rng.integers(0, 10**8, 20_000), rng.integers(0, 17, 20_000)
    near_ties = (n + 0.5) / 10.0 ** j
    # m + 0.25 for m in [1e15, 2e15) has 18 significant digits ending in 5:
    # an exact tie at the 17th
    ties = rng.integers(10**15, 2 * 10**15, 10_000) + 0.25
    ints = rng.integers(0, 2 ** rng.integers(1, 54, 20_000)).astype(np.float64)
    subnormal = rng.integers(1, 2**52, 1_000, dtype=np.uint64).view(np.float64)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                     0x7FF0000000000001], dtype=np.uint64).view(np.float64)
    special = np.concatenate([[0.0, -0.0, np.inf, -np.inf], nans, subnormal, -subnormal])
    values = np.concatenate([bits, *near, powers, near_ties, ties, ints, special])
    return np.concatenate([values, -values])


def test_matches_percent_17g():
    x = differential_sample()
    want = "x\n" + "".join(["%.17g\n" % v for v in x.tolist()])
    assert_same(written(["x"], [x]), want)


def test_only_exponent_form_and_non_finite_take_percent():
    # no double in [1e-4, 1e17) has 17 digits that round up to 1e17: the
    # doubles next to a power of ten lie more than half a unit in the 17th
    # digit from it, so the numpy digits serve that whole range
    x = differential_sample()
    a = np.abs(x)
    _, _, exact = _export._digits(x)
    np.testing.assert_array_equal(~exact, ~np.isfinite(x) | ((a != 0) & ((a < 1e-4) | (a >= 1e17))))


def test_log10_rounding_down_takes_percent(monkeypatch):
    # a log10 one ulp low at a power of ten gives a k one too small and 18
    # digits: the guard sends those values to `%`, and nothing else changes
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), -np.inf))
    x = np.array([1e16, -1e16, 1e3, 100.0, 1.0, 1e-3, 1e-4, 123.5, 0.1])
    assert_same(written(["x"], [x]), reference(["x"], [x]))

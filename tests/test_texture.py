import json
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgclutter import (
    ArrivalBudgetError,
    BernsteinModel,
    SimConfig,
    TexturePath,
    make_builtin_finite,
    make_builtin_infinite,
    poisson_arrivals,
    sample_on_grid,
    simulate,
    windowed_process,
)
from cgclutter import texture
from cgclutter.texture import _grid_length


class TestSimConfig:
    def test_nu(self):
        cfg = SimConfig(gamma=0.25, window=8.0, duration=100.0, dt=0.1, seed=1)
        assert cfg.nu == 2.0

    def test_json_roundtrip(self):
        cfg = SimConfig(gamma=0.5, window=4.0, duration=50.0, dt=0.05, seed=9,
                        mode="infinite-approx", kappa=120.0)
        assert SimConfig(**json.loads(json.dumps(cfg.to_dict()))) == cfg

    @pytest.mark.parametrize("kw", [
        {"gamma": 0.0}, {"window": -1.0}, {"duration": 0.0}, {"dt": 0.0},
        {"dt": 8.0},  # dt must be < window
        {"mode": "bogus"},
        {"kappa": 0.0}, {"kappa": -1.0}, {"kappa": np.inf}, {"kappa": np.nan},
    ])
    def test_rejects_bad_values(self, kw):
        base = dict(gamma=0.25, window=8.0, duration=100.0, dt=0.1, seed=1)
        base.update(kw)
        with pytest.raises(ValueError):
            SimConfig(**base)

    # each factor is positive and finite, and their product is not
    @pytest.mark.parametrize("gamma, window, dt", [(1e200, 1e200, 0.1), (1e-200, 1e-200, 1e-201)],
                             ids=["overflow", "underflow"])
    def test_rejects_nu_that_is_not_positive_and_finite(self, gamma, window, dt):
        with pytest.raises(ValueError, match="nu = gamma \\* window must be positive and finite"):
            SimConfig(gamma=gamma, window=window, duration=100.0, dt=dt, seed=1)


class TestPoissonArrivals:
    def test_count_and_range(self):
        rng = np.random.default_rng(0)
        a = poisson_arrivals(2.0, 50_000.0, rng)
        assert np.all((a > 0) & (a <= 50_000.0))
        assert np.all(np.diff(a) > 0)
        assert len(a) == pytest.approx(100_000, rel=0.02)

    def test_empty_span(self):
        rng = np.random.default_rng(0)
        assert len(poisson_arrivals(1.0, -1.0, rng)) == 0

    def test_budget_guard(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ArrivalBudgetError):
            poisson_arrivals(1e6, 1e6, rng)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 1.0, np.random.default_rng(0))

    def test_rejects_nan_span(self):
        with pytest.raises(ValueError, match="NaN"):
            poisson_arrivals(1.0, np.nan, np.random.default_rng(0))

    def test_later_blocks_continue_the_running_sum(self):
        # gaps of 0.25 at rate 1: the first block of 176 gaps ends at t = 44,
        # short of t_end, so later blocks carry the sum on
        sizes = []

        class FixedGaps:
            def exponential(self, scale, size):
                sizes.append(size)
                return np.full(size, 0.25)

        a = poisson_arrivals(1.0, 100.0, FixedGaps())
        want = np.cumsum(np.full(sum(sizes), 0.25))
        assert len(sizes) > 1
        assert_bitwise_equal(a, want[want <= 100.0])

    def test_memory_per_arrival(self):
        # one block of gaps summed in place: the block is the output
        rng = np.random.default_rng(0)
        peak, a = traced_peak(poisson_arrivals, 1.25, 8e5, rng)
        assert len(a) > 9e5
        assert peak / len(a) < 12


def traced_peak(f, *args):
    """Peak bytes that f(*args) allocates, and its result."""
    tracemalloc.start()
    try:
        out = f(*args)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def reference_window_sweep(arrivals, marks, window, duration):
    """The sweep as first written: an active-count array beside the sums,
    and a boolean mask for (0, duration]."""
    n = len(arrivals)
    times = np.concatenate([arrivals - window, arrivals])
    deltas = np.concatenate([marks, -marks])
    steps = np.concatenate([np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64)])
    order = np.argsort(times, kind="stable")
    times = times[order]
    vals = np.cumsum(deltas[order])
    active = np.cumsum(steps[order])
    vals[active == 0] = 0.0
    vals = np.maximum(vals, 0.0)

    i0 = np.searchsorted(times, 0.0, side="right") - 1
    v0 = vals[i0] if i0 >= 0 else 0.0
    keep = (times > 0.0) & (times <= duration)
    ct = np.concatenate([[0.0], times[keep]])
    cv = np.concatenate([[v0], vals[keep]])
    last = np.ones(len(ct), dtype=bool)
    last[:-1] = ct[1:] != ct[:-1]
    return ct[last], cv[last]


@contextmanager
def sweep_block(size):
    """Run the window sweep in blocks of `size` arrivals."""
    saved = texture.SWEEP_BLOCK
    texture.SWEEP_BLOCK = size
    try:
        yield
    finally:
        texture.SWEEP_BLOCK = saved


def tie_heavy_case(data):
    """Arrivals, marks, window and duration drawn from a pool with points a
    window apart, so enters tie with leaves, reaching before 0 and past
    duration."""
    window = data.draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.01, 4.0))
    duration = data.draw(st.sampled_from([1.0, 5.0]) | st.floats(0.5, 12.0))
    base = data.draw(st.lists(st.floats(-window, duration + window), min_size=1,
                              max_size=6))
    pool = base + [b + window for b in base] + [b - window for b in base] + [
        0.0, window, duration, duration + window]
    a = np.sort(data.draw(st.lists(st.sampled_from(pool), max_size=30)))
    mark = st.floats(0.0, 10.0) | st.integers(0, 5).map(float)
    m = np.array(data.draw(st.lists(mark, min_size=len(a), max_size=len(a))), dtype=float)
    return a, m, window, duration


class TestWindowedProcess:
    def test_hand_worked_example(self):
        # window T=2; arrival 3 (mark 5) occupies [1, 3); arrival 4 (mark 7)
        # occupies [2, 4).  Worked by hand:
        #   [0,1): 0   [1,2): 5   [2,3): 12   [3,4): 7   [4,..): 0
        path = windowed_process([3.0, 4.0], [5.0, 7.0], window=2.0, duration=6.0)
        np.testing.assert_array_equal(path.change_times, [0.0, 1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(path.values, [0.0, 5.0, 12.0, 7.0, 0.0])

    def test_value_at_origin_from_straddling_mark(self):
        # arrival at 0.5 with T=2 occupies [-1.5, 0.5): value 3 at t=0
        path = windowed_process([0.5], [3.0], window=2.0, duration=4.0)
        assert path.change_times[0] == 0.0
        assert path.values[0] == 3.0

    def test_exact_zero_between_bursts(self):
        rng = np.random.default_rng(42)
        a = poisson_arrivals(0.2, 500.0, rng)
        m = rng.exponential(1.0, size=len(a))
        path = windowed_process(a, m, window=1.0, duration=400.0)
        zeros = path.values == 0.0
        assert zeros.sum() > 0  # sparse arrivals must leave exact-zero stretches

    def test_coincident_events_collapse(self):
        # two arrivals at the same instant produce one change point
        path = windowed_process([2.0, 2.0], [1.0, 4.0], window=1.0, duration=5.0)
        assert np.all(np.diff(path.change_times) > 0)
        vals = sample_on_grid(path, 0.25)
        assert vals[5] == 5.0  # t = 1.25, inside [1, 2)

    def test_rejects_misaligned_marks(self):
        with pytest.raises(ValueError):
            windowed_process([1.0, 2.0], [1.0], 1.0, 5.0)

    @pytest.mark.parametrize("a", [[2.0, 1.0]])
    def test_rejects_unsorted_arrivals(self, a):
        with pytest.raises(ValueError, match="sorted"):
            windowed_process(a, [1.0, 1.0], 1.0, 5.0)

    @pytest.mark.parametrize("a", [[np.nan], [1.0, np.nan], [np.nan, 1.0], [1.0, np.nan, 0.5]])
    def test_rejects_nan_arrivals(self, a):
        with pytest.raises(ValueError, match="NaN"):
            windowed_process(a, np.ones(len(a)), 1.0, 5.0)

    @pytest.mark.parametrize("window", [-1.0, 0.0, np.inf, np.nan])
    def test_rejects_window_not_positive_and_finite(self, window):
        with pytest.raises(ValueError, match="window"):
            windowed_process([3.0, 4.0], [5.0, 7.0], window, 6.0)

    @pytest.mark.parametrize("duration", [-1.0, 0.0, np.inf, np.nan])
    def test_rejects_duration_not_positive_and_finite(self, duration):
        with pytest.raises(ValueError, match="duration"):
            windowed_process([3.0, 4.0], [5.0, 7.0], 2.0, duration)

    @pytest.mark.parametrize("m", [[5.0, -1.0], [5.0, np.nan], [-1, 7]])
    def test_rejects_negative_or_nan_marks(self, m):
        with pytest.raises(ValueError, match="marks"):
            windowed_process([3.0, 4.0], m, 2.0, 6.0)

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_matches_reference_sweep(self, data):
        a, m, window, duration = tie_heavy_case(data)
        path = windowed_process(a, m, window, duration)
        ct, cv = reference_window_sweep(a, m, window, duration)
        assert_bitwise_equal(path.change_times, ct)
        assert_bitwise_equal(path.values, cv)

    @settings(max_examples=500, deadline=None)
    @given(st.data(), st.integers(1, 8))
    def test_matches_reference_sweep_across_blocks(self, data, block):
        a, m, window, duration = tie_heavy_case(data)
        # whole marks may go in as integers, as simulate passes them
        whole = np.all(m == np.round(m)) and data.draw(st.booleans())
        with sweep_block(block):
            path = windowed_process(a, m.astype(np.int64) if whole else m, window, duration)
        ct, cv = reference_window_sweep(a, m, window, duration)
        assert_bitwise_equal(path.change_times, ct)
        assert_bitwise_equal(path.values, cv)

    def test_blocks_match_one_block_on_a_million_arrivals(self):
        rng = np.random.default_rng(2)
        a = poisson_arrivals(1.25, 8e5, rng)
        m = rng.logseries(150 / 151, len(a))
        path = windowed_process(a, m, 8.0, 8e5 - 8.0)
        assert len(a) > 8 * texture.SWEEP_BLOCK
        with sweep_block(len(a)):
            one = windowed_process(a, m, 8.0, 8e5 - 8.0)
        assert_bitwise_equal(path.change_times, one.change_times)
        assert_bitwise_equal(path.values, one.values)

    def test_memory_per_arrival(self):
        rng = np.random.default_rng(1)
        a = poisson_arrivals(1.25, 8e5, rng)
        m = rng.logseries(150 / 151, len(a))
        peak, path = traced_peak(windowed_process, a, m, 8.0, 8e5 - 8.0)
        assert len(path.change_times) > 1e6
        # the path holds two float64 per event and two events per arrival,
        # 32 B per arrival; the sweep needs under 16 B per arrival beyond it
        assert (peak - 32 * len(a)) / len(a) < 16

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_brute_force_window_sum(self, data):
        window = data.draw(st.floats(0.5, 4.0))
        duration = data.draw(st.floats(1.0, 12.0))
        # arrivals from a small pool, so coincident arrivals are common; the
        # pool reaches past both ends, so marks straddle 0 and duration
        edges = st.sampled_from([0.0, window, duration, duration + window])
        pool = data.draw(st.lists(st.floats(0.0, duration + window) | edges,
                                  min_size=1, max_size=12))
        a = np.sort(data.draw(st.lists(st.sampled_from(pool), max_size=25)))
        mark = st.floats(0.0, 10.0) | st.integers(0, 5).map(float)
        m = np.array(data.draw(st.lists(mark, min_size=len(a), max_size=len(a))))
        path = windowed_process(a, m, window, duration)

        # every event time, the midpoints between them and random times
        ts = np.concatenate([[0.0, duration], a, a - window])
        ts = np.unique(ts[(ts >= 0.0) & (ts <= duration)])
        ts = np.concatenate([ts, (ts[1:] + ts[:-1]) / 2,
                             data.draw(st.lists(st.floats(0.0, duration), max_size=5))])
        for t in ts:
            active = (a - window <= t) & (t < a)  # a mark counts on [a - T, a)
            got = path.values[np.searchsorted(path.change_times, t, side="right") - 1]
            if not active.any():
                assert got == 0.0, t  # pinned to an exact zero
            else:
                assert got == pytest.approx(m[active].sum(), rel=1e-9, abs=1e-9 * m.sum()), t


class TestTexturePath:
    @pytest.mark.parametrize("ct", [[0.0, np.nan, 3.0], [np.nan, 1.0, 3.0],
                                    [-np.inf, 1.0, 3.0], []])
    def test_rejects_missing_nan_or_unbounded_change_times(self, ct):
        with pytest.raises(ValueError, match="change_times"):
            TexturePath(np.array(ct), np.ones(len(ct)), 5.0)

    def test_rejects_misaligned_arrays(self):
        with pytest.raises(ValueError, match="align"):
            TexturePath(np.array([0.0, 1.0]), np.ones(3), 5.0)

    def test_rejects_nan_values(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TexturePath(np.array([0.0, 1.0, 3.0]), np.array([1.0, np.nan, 2.0]), 5.0)


def search_every_grid_point(path, dt):
    """Reference: a binary search for each grid time i*dt."""
    t = np.arange(_grid_length(path.duration, dt)) * dt
    return path.values[np.clip(np.searchsorted(path.change_times, t, "right") - 1, 0, None)]


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestSampleOnGrid:
    def test_right_continuous_sampling(self):
        path = TexturePath(np.array([0.0, 1.0, 2.5]), np.array([1.0, 4.0, 2.0]), 5.0)
        got = sample_on_grid(path, 0.5)
        np.testing.assert_array_equal(got, [1, 1, 4, 4, 4, 2, 2, 2, 2, 2, 2])

    def test_grid_length(self):
        path = TexturePath(np.array([0.0]), np.array([1.0]), 10.0)
        assert len(sample_on_grid(path, 0.1)) == 101

    @pytest.mark.parametrize("dt", [0.0, -0.1, np.nan])
    def test_rejects_nonpositive_dt(self, dt):
        path = TexturePath(np.array([0.0]), np.array([1.0]), 10.0)
        with pytest.raises(ValueError, match="dt must be positive"):
            sample_on_grid(path, dt)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_right_continuous_at_random_change_times(self, data):
        dt = data.draw(st.sampled_from([0.1, 0.25, 0.3, 1.0]))
        n = data.draw(st.integers(2, 60))
        grid = np.arange(n) * dt
        # change times on grid points (where right-continuity decides the
        # sample) and between them
        on = data.draw(st.lists(st.integers(1, n - 1), max_size=n))
        off = data.draw(st.lists(st.floats(0.0, grid[-1], exclude_min=True), max_size=10))
        ct = np.unique(np.concatenate([[0.0], grid[on], off]))
        vals = np.arange(1.0, len(ct) + 1)  # distinct, so a wrong pick shows
        got = sample_on_grid(TexturePath(ct, vals, grid[-1]), dt)
        want = [vals[np.flatnonzero(ct <= t)[-1]] for t in grid]
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_search_per_grid_point(self, data):
        dt = data.draw(st.floats(1e-3, 2.0))
        n = data.draw(st.integers(1, 200))
        grid = np.arange(n) * dt
        # change times on grid points and one ulp either side, where the
        # product i*dt decides the sample, plus a first time either side of 0
        on = grid[data.draw(st.lists(st.integers(0, n - 1), max_size=20))]
        ct = np.unique(np.concatenate([
            [data.draw(st.floats(-3.0, 3.0)) * dt],
            on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf),
            data.draw(st.lists(st.floats(-dt, grid[-1] + dt), max_size=10)),
        ]))
        duration = data.draw(st.floats(0.0, 2.0)) * grid[-1]  # shorter and longer
        for d in (grid[-1], duration):
            path = TexturePath(ct, np.arange(1.0, len(ct) + 1), d)
            assert_bitwise_equal(sample_on_grid(path, dt), search_every_grid_point(path, dt))

    @settings(max_examples=5, deadline=None)
    @given(st.floats(1e-3, 2.0), st.integers(0, 2 ** 32 - 1))
    def test_matches_search_on_a_million_points(self, dt, seed):
        rng = np.random.default_rng(seed)
        n = 10 ** 6 - int(rng.integers(0, 10))
        grid = np.arange(n) * dt
        end = grid[-4:]  # changes at and around the last grid points
        ct = np.unique(np.concatenate([
            [0.0], rng.uniform(0.0, grid[-1], 1000),
            end, np.nextafter(end, -np.inf), np.nextafter(end, np.inf), [grid[-1] + dt],
        ]))
        path = TexturePath(ct, rng.random(len(ct)), grid[-1])
        assert_bitwise_equal(sample_on_grid(path, dt),
                             search_every_grid_point(path, dt))


class TestSimulate:
    def test_finite_exact_moments(self):
        model = make_builtin_finite()
        cfg = SimConfig(gamma=0.25, window=8.0, duration=50_000.0, dt=0.1, seed=3)
        tau = sample_on_grid(simulate(model, cfg), cfg.dt)
        assert tau.mean() == pytest.approx(1.0, abs=0.05)
        assert tau.var() == pytest.approx(1.0, abs=0.12)  # Var = -h2/nu = 1

    def test_infinite_approx_moments(self):
        model = make_builtin_infinite()
        cfg = SimConfig(gamma=0.25, window=8.0, duration=50_000.0, dt=0.1, seed=3,
                        mode="infinite-approx", kappa=150.0)
        tau = sample_on_grid(simulate(model, cfg), cfg.dt)
        assert tau.mean() == pytest.approx(1.0, abs=0.05)
        assert tau.var() == pytest.approx(0.5, abs=0.08)  # Var = -h2/nu = 1/2

    def test_discrete_windowed_counts_are_integers(self):
        model = make_builtin_finite()
        cfg = SimConfig(gamma=0.25, window=8.0, duration=5_000.0, dt=0.1, seed=3,
                        mode="discrete-windowed", kappa=9.0,)
        path = simulate(model, cfg)
        assert np.all(path.values == np.round(path.values))

    def test_same_seed_same_path(self):
        model = make_builtin_finite()
        cfg = SimConfig(gamma=0.25, window=8.0, duration=1_000.0, dt=0.1, seed=77)
        p1, p2 = simulate(model, cfg), simulate(model, cfg)
        np.testing.assert_array_equal(p1.change_times, p2.change_times)
        np.testing.assert_array_equal(p1.values, p2.values)

    def test_kappa_guards(self):
        model = make_builtin_infinite()
        cfg = SimConfig(gamma=0.25, window=8.0, duration=1_000.0, dt=0.1, seed=1,
                        mode="infinite-approx", kappa=9.0)
        with pytest.raises(ValueError):
            simulate(model, cfg)
        cfg2 = SimConfig(gamma=0.25, window=8.0, duration=1_000.0, dt=0.1, seed=1,
                         mode="infinite-approx", kappa=50.0)
        with pytest.warns(UserWarning, match="kappa below 100"):
            simulate(model, cfg2)

    def test_finite_exact_refuses_model_before_arrivals(self):
        # at 1e12 time units the arrival budget would trip first; a model
        # without continuous mixing is refused before any arrival is drawn
        cfg = SimConfig(gamma=0.25, window=8.0, duration=1e12, dt=0.1, seed=1)
        with pytest.raises(ValueError, match="finite-activity"):
            simulate(make_builtin_infinite(), cfg)
        bare = BernsteinModel(lambda z: z / (z + 1.0), h1=1.0, h2=-2.0, C=1.0)
        with pytest.raises(ValueError, match="fit_bernstein"):
            simulate(bare, cfg)


class TestExports:
    def test_events_csv(self, tmp_path):
        path = TexturePath(np.array([0.0, 1.5]), np.array([0.0, 2.25]), 3.0)
        f = tmp_path / "ev.csv"
        path.export_events_csv(f)
        lines = f.read_bytes().split(b"\n")
        assert lines[0] == b"change_time,value"
        assert lines[1] == b"0,0"
        assert lines[2] == b"1.5,2.25"

    def test_grid_csv(self, tmp_path):
        path = TexturePath(np.array([0.0, 1.0]), np.array([1.0, 3.0]), 2.0)
        f = tmp_path / "grid.csv"
        path.export_grid_csv(f, 0.5)
        rows = f.read_text().strip().split("\n")
        assert rows[0] == "t,tau"
        assert len(rows) == 6  # header + t in {0, .5, 1, 1.5, 2}

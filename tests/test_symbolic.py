import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcutter import (CookieMap, DepthCapError, DomainError, FlowEngine,
                        Locus, PointBatch, ScaledPoint, Word, basic_interval,
                        decompose_blocks, enumerate_intervals, interval_J,
                        interval_table, inverse_branch)
from flowcutter.cookie import LN3
from flowcutter.scaled import _pow3_batch
from flowcutter.symbolic import (WIDTH_NODES, WIDTH_RULE_MAX, WIDTH_WEIGHTS,
                                 IntervalSet, word_levels)

words = st.text(alphabet="01", min_size=0, max_size=40)


# ----------------------------------------------------------------------
# words and block decompositions
# ----------------------------------------------------------------------

def test_word_basics():
    w = Word("0010")
    assert len(w) == 4 and list(w) == [0, 0, 1, 0]
    assert Word("0") < Word("1")
    assert Word.from_index(5, 4) == Word("0101")
    with pytest.raises(Exception):
        Word("012")


@pytest.mark.parametrize("index,length", [(4, 2), (1, 0), (-1, 3), (8, 3),
                                          (True, 2), (1.0, 2), (0, -1)])
def test_word_from_index_rejects_indices_outside_its_length(index, length):
    with pytest.raises(DomainError, match="word index"):
        Word.from_index(index, length)


def test_word_from_index_enumerates_every_word_of_a_length():
    assert Word.from_index(0, 0) == Word("")
    for length in range(1, 6):
        words = [Word.from_index(i, length) for i in range(1 << length)]
        assert all(len(w) == length for w in words)
        assert words == sorted(set(words))


def test_block_examples():
    d = decompose_blocks("001101")
    assert d.blocks == ((2, 2), (1, 1))
    assert d.tails == (4, 1)
    assert decompose_blocks("111").blocks == ((0, 3),)
    assert decompose_blocks("00").blocks == ((2, 0),)


@given(words)
@settings(max_examples=300, deadline=None)
def test_block_round_trip(bits):
    d = decompose_blocks(bits)
    assert d.rebuild() == Word(bits)
    tails = d.tails
    assert all(a > b for a, b in zip(tails, tails[1:]))
    # interior runs are nonempty
    for j, (m, n) in enumerate(d.blocks):
        if j > 0:
            assert m > 0
        if j < len(d.blocks) - 1:
            assert n > 0


# ----------------------------------------------------------------------
# inverse branches
# ----------------------------------------------------------------------

def test_right_branch_fixed_point(cmap):
    one = ScaledPoint.from_raw(1.0)
    assert inverse_branch(cmap, 1, one) == one


def test_left_branch_from_right_window(cmap):
    p = ScaledPoint.from_raw(0.8)          # in J_0
    q = inverse_branch(cmap, 0, p)
    assert q.locus is Locus.INJ and q.n == 1
    t = cmap.schedule.flow_time(1)
    assert q.u == pytest.approx(cmap.engine.flow_position(-t, 0.8 * 3 - 2),
                                abs=1e-12)


def test_round_trip_bulk(cmap):
    # the batched pull-back is a right inverse of the scalar forward map
    rng = np.random.default_rng(17)
    xs = rng.uniform(0.0, 1.0, 10_000)
    batch = PointBatch.from_raw(xs)
    for symbol in (0, 1):
        pre, _ = cmap.inverse_batch(symbol, batch)
        for i in range(0, xs.size, 97):
            assert abs(cmap.apply(pre.point(i)).raw - xs[i]) < 1e-11


def _branch_probe_points():
    rng = np.random.default_rng(41)
    points = [ScaledPoint.zero(), ScaledPoint.from_raw(0.5),
              ScaledPoint(Locus.GAP, 1, 0.45), ScaledPoint(Locus.GAP, 7, 0.6),
              ScaledPoint.from_raw(0.8), ScaledPoint.in_window(0, 0.0),
              ScaledPoint.in_window(0, 1.0)]
    for n in (1, 2, 5, 16, 33, 40, 200):
        points += [ScaledPoint.in_window(n, float(u))
                   for u in (0.0, 1.0, *rng.uniform(0.0, 1.0, 6))]
    return points


def test_inverse_branch_is_a_batch_of_one(cmap):
    # ZERO, HOLE, GAP, J_0 and deep window points, bitwise against the
    # batch kernel
    points = _branch_probe_points()
    assert {p.locus for p in points} == set(Locus)
    for symbol in (0, 1):
        for p in points:
            pre, extra = cmap.inverse_batch(symbol, PointBatch.from_points([p]))
            assert inverse_branch(cmap, symbol, p) == pre.point(0), (symbol, p)
            point, increment = cmap.inverse_point(symbol, p)
            assert point == pre.point(0), (symbol, p)
            assert type(increment) is float
            assert increment.hex() == float(extra[0]).hex(), (symbol, p)


def test_inverse_branch_rejects_other_symbols(cmap):
    p = ScaledPoint.from_raw(0.8)
    with pytest.raises(DomainError):
        inverse_branch(cmap, 2, p)
    with pytest.raises(DomainError):
        cmap.inverse_batch(2, PointBatch.from_points([p]))


@pytest.mark.parametrize("symbol", [True, np.True_, 1.0, np.array(True),
                                    False, 0.0, np.float64(0.0), -1, "0"])
def test_branch_symbol_is_an_integer_zero_or_one(cmap, symbol):
    # one rule on every path: the point and the batch kernel
    p = ScaledPoint.from_raw(0.1)
    batches = [PointBatch.from_points([p]),
               PointBatch.from_raw(np.linspace(0.05, 0.95, 9))]
    with pytest.raises(DomainError, match="branch symbol"):
        inverse_branch(cmap, symbol, p)
    with pytest.raises(DomainError, match="branch symbol"):
        cmap.inverse_point(symbol, p)
    for b in batches:
        with pytest.raises(DomainError, match="branch symbol"):
            cmap.inverse_batch(symbol, b)


@pytest.mark.parametrize("symbol", [np.int8(1), np.int64(0), np.array(1)])
def test_numpy_integer_symbols_are_symbols(cmap, symbol):
    p = ScaledPoint.from_raw(0.1)
    assert inverse_branch(cmap, symbol, p) == inverse_branch(cmap, int(symbol), p)
    b = PointBatch.from_raw(np.linspace(0.05, 0.95, 9))
    got, extra = cmap.inverse_batch(symbol, b)
    want, want_extra = cmap.inverse_batch(int(symbol), b)
    assert got.u.tobytes() == want.u.tobytes()
    assert extra.tobytes() == want_extra.tobytes()


def test_round_trip_scalar_points(cmap):
    for raw in (0.0, 0.31, 0.5, 0.77, 1.0):
        p = ScaledPoint.from_raw(raw)
        for s in (0, 1):
            q = inverse_branch(cmap, s, p)
            assert q.in_domain
            back = cmap.apply(q)
            assert abs(back.raw - raw) < 1e-11


# ----------------------------------------------------------------------
# basic intervals
# ----------------------------------------------------------------------

def test_depth_one_intervals(cmap):
    iv0 = basic_interval(cmap, "0")
    assert iv0.left.locus is Locus.ZERO
    assert iv0.right.raw == pytest.approx(1.0 / 3.0, abs=1e-16)
    assert iv0.log_size == pytest.approx(-LN3, rel=1e-15)
    iv1 = basic_interval(cmap, "1")
    assert iv1.left.raw == pytest.approx(2.0 / 3.0, abs=1e-16)
    assert iv1.right.raw == 1.0


@pytest.mark.parametrize("n", range(1, 13))
def test_window_addresses_are_exact(cmap, n):
    iv = basic_interval(cmap, "0" * n + "1")
    lo, hi = interval_J(n)
    assert iv.left == lo and iv.right == hi     # bitwise endpoint match
    assert iv.log_size == pytest.approx(-(n + 1) * LN3, rel=1e-13)


def test_address_01_is_second_window(cmap):
    iv = basic_interval(cmap, "01")
    assert iv.left.raw == pytest.approx(2.0 / 9.0, abs=1e-16)
    assert iv.right.raw == pytest.approx(1.0 / 3.0, abs=1e-16)


def test_pulled_back_points_are_interval_ends(cmap):
    # the point 0 pulled back through w is the left end of I_w, bitwise,
    # and the right end of J_0 lands in the window of I_w's right end: the
    # points verify-lemmas reads without building an interval
    rng = np.random.default_rng(20240817)
    for _ in range(300):
        w = "".join(rng.choice(["0", "1"], size=int(rng.integers(0, 16))))
        iv = basic_interval(cmap, w)
        left, right = ScaledPoint.zero(), ScaledPoint.in_window(0, 1.0)
        for symbol in reversed(w):
            left = inverse_branch(cmap, int(symbol), left)
            right = inverse_branch(cmap, int(symbol), right)
        assert ((left.locus, left.n, left.u.hex())
                == (iv.left.locus, iv.left.n, iv.left.u.hex())), w
        assert (right.locus, right.n) == (iv.right.locus, iv.right.n), w
        assert abs(right.u - iv.right.u) <= 1e-14, w


def test_all_zero_words(cmap):
    # I_(0^k) = [0, 3^-k] is the chart row (k, -2, 3): exact endpoints, and
    # the log size is log(3) - (k + 1) ln 3 as log_sizes computes it.
    # Level k of the walk is interval_table(cmap, k), and its row 0 is 0^k.
    walk = word_levels(IntervalSet.root(), cmap, 20)
    for k, table in enumerate(walk, 1):
        want = (ScaledPoint.zero(), ScaledPoint.in_window(k, 1.0))
        log_size = math.log(3.0) + -(k + 1.0) * LN3
        iv = basic_interval(cmap, "0" * k)
        assert table.endpoints(0) == want and (iv.left, iv.right) == want
        assert table.log_sizes()[0] == log_size == iv.log_size, k
        assert log_size == pytest.approx(-k * LN3, rel=1e-14)


def test_enumeration_depth_two(cmap):
    ivs = list(enumerate_intervals(cmap, 2))
    assert [str(iv.word) for iv in ivs] == ["00", "01", "10", "11"]
    rights = [iv.right.raw for iv in ivs]
    lefts = [iv.left.raw for iv in ivs]
    # spatially ordered and separated by gaps
    for i in range(3):
        assert rights[i] < lefts[i + 1]


def test_lex_order_is_spatial_order(cmap):
    ivs = list(enumerate_intervals(cmap, 8))
    mids = [0.5 * (iv.left.raw + iv.right.raw) for iv in ivs]
    assert all(a < b for a, b in zip(mids, mids[1:]))
    # pairwise disjoint, separated by genuine gaps
    for a, b in zip(ivs, ivs[1:]):
        assert a.right.raw < b.left.raw


def test_nesting(cmap):
    rng = np.random.default_rng(23)
    for _ in range(20):
        k = int(rng.integers(1, 7))
        bits = "".join(rng.choice(["0", "1"]) for _ in range(k))
        outer = basic_interval(cmap, bits)
        for s in "01":
            inner = basic_interval(cmap, bits + s)
            assert outer.left.raw <= inner.left.raw + 1e-15
            assert inner.right.raw <= outer.right.raw + 1e-15


def test_cover_length_decreases(cmap):
    prev = math.inf
    for k in range(1, 9):
        total = sum(math.exp(ls)
                    for ls in interval_table(cmap, k).log_sizes())
        assert total < prev
        prev = total


def test_iterates_stretch_onto_unit_interval(cmap):
    # F^k maps I_w onto [0, 1]: points 1e-9 inside either end, pulled back
    # through w, lie in I_w and iterate back to within 1e-9 of where they
    # started (the exact ends ride on the branch junctions, where roundoff
    # may drop an orbit into the hole)
    rng = np.random.default_rng(29)
    for _ in range(12):
        k = int(rng.integers(1, 12))
        bits = "".join(rng.choice(["0", "1"]) for _ in range(k))
        iv = basic_interval(cmap, bits)
        for s in (1e-9, 1.0 - 1e-9):
            p = ScaledPoint.from_raw(s)
            for symbol in reversed(bits):
                p = inverse_branch(cmap, int(symbol), p)
            assert iv.left.raw <= p.raw <= iv.right.raw
            assert abs(cmap.iterate(p, k).point.raw - s) <= 1e-9


def test_log_size_matches_raw_difference(cmap):
    rng = np.random.default_rng(31)
    for _ in range(20):
        k = int(rng.integers(1, 13))
        bits = "".join(rng.choice(["0", "1"]) for _ in range(k))
        iv = basic_interval(cmap, bits)
        raw_width = iv.right.raw - iv.left.raw
        assert iv.log_size == pytest.approx(math.log(raw_width), abs=1e-9)
        assert iv.size == math.exp(iv.log_size)


@pytest.mark.parametrize("bits", ["1" * 700, "1" + "0" * 646, "10" * 330],
                         ids=["1^700", "10^646", "(10)^330"])
def test_words_whose_width_underflows_raise(cmap, bits):
    # the last 1-pull-back's raw width falls below the smallest normal float
    with pytest.raises(DomainError, match="word too long"):
        basic_interval(cmap, bits)


@pytest.mark.parametrize("bits,threes", [("1" + "0" * 600, 601),
                                         ("1" * 600, 600)],
                         ids=["10^600", "1^600"])
def test_long_words_keep_their_size(cmap, bits, threes):
    iv = basic_interval(cmap, bits)
    assert iv.log_size == pytest.approx(-threes * LN3, rel=1e-15)


def test_membership_of_one_run_words(cmap):
    # words starting with 1 stay inside the right branch piece
    for bits in ("10", "110", "1011"):
        iv = basic_interval(cmap, bits)
        assert iv.left.raw >= 2.0 / 3.0 - 1e-15
        assert iv.right.raw <= 1.0


def test_depth_cap(cmap):
    with pytest.raises(DepthCapError):
        list(enumerate_intervals(cmap, 21))


def test_table_row_order_matches_words(cmap):
    table = interval_table(cmap, 5)
    assert table.size == 32
    for i in (0, 7, 19, 31):
        iv = basic_interval(cmap, Word.from_index(i, 5))
        left, right = table.endpoints(i)
        assert abs(left.raw - iv.left.raw) <= 1e-13
        assert abs(right.raw - iv.right.raw) <= 1e-13


# ----------------------------------------------------------------------
# interval widths on the tables against the pair-flow ODE
# ----------------------------------------------------------------------

def _ode_pull_back(state, cmap):
    """The 0-branch pull-back with every row inside its window on the pair
    flow evolve_interval; the rows 0^j only take n + 1."""
    t = -cmap.schedule.flow_times(state.n + 1)
    u_lo, d = state.u_lo.copy(), state.d.copy()
    inside = state.u_lo >= 0.0
    if inside.any():
        u_lo[inside], d[inside] = cmap.engine.evolve_interval(
            t[inside], state.u_lo[inside], state.d[inside])
    return IntervalSet((state.n + 1).astype(np.int32), u_lo, d)


def _common_rows(n, u_lo, d):
    return IntervalSet(np.asarray(n, dtype=np.int32),
                       np.asarray(u_lo, dtype=np.float64),
                       np.asarray(d, dtype=np.float64))


def _take(state, index):
    return IntervalSet(*(getattr(state, key)[index]
                         for key in IntervalSet.__slots__))


def _concatenate(a, b):
    """The rows of a followed by the rows of b."""
    return IntervalSet(*(np.concatenate([getattr(a, key), getattr(b, key)])
                         for key in IntervalSet.__slots__))


def test_table_widths_match_high_precision_ode(cmap):
    oracle = CookieMap(cmap.constants, FlowEngine(tol=1e-14))
    want = IntervalSet.root()
    for _ in range(16):
        want = _concatenate(_ode_pull_back(want, oracle),
                            want.pull_back(oracle, 1))
    got = interval_table(cmap, 16)
    dev = float(np.max(np.abs(got.log_sizes() - want.log_sizes())))
    print(f"depth 16: max |d log|I_w|| = {dev:.2e} against the tol-1e-14 ODE")
    # the tol-1e-13 pair flow itself deviates by 3.2e-14 here
    assert dev <= 3.2e-14

    # rows on both sides of the rule's threshold, in several windows
    n = np.repeat([0, 1, 5, 40], 3)
    u_lo = np.tile([0.02, 0.5, 0.97], 4)
    for w in (WIDTH_RULE_MAX * (1 - 1e-9), WIDTH_RULE_MAX * (1 + 1e-9)):
        rows = _common_rows(n, u_lo, np.full(n.size, w))
        dev = np.max(np.abs(np.log(rows.pull_back(cmap, 0).d)
                            - np.log(_ode_pull_back(rows, oracle).d)))
        print(f"w = {w:.9e}: max |d log w| = {dev:.2e}")
        assert dev <= 3.2e-14

    # a width far below the float spacing at x: phi_t' times w
    w = 1e-18
    got = _common_rows(n, u_lo, np.full(n.size, w)).pull_back(cmap, 0).d
    t = -cmap.schedule.flow_times(n + 1)
    _, slope = oracle.engine.evolve(t, u_lo, order=1)
    assert got == pytest.approx(w * slope, rel=1e-13)


def _pull_back_by_masks(state, cmap, symbol):
    # IntervalSet.pull_back as it was, before its one kernel: the 0-branch
    # gathers and scatters the rows inside their window through masks
    if symbol == 1:
        pow3 = _pow3_batch(state.n + 1)
        return IntervalSet(np.zeros(state.size, dtype=np.int32),
                           (state.u_lo + 2.0) / pow3, state.d / pow3)
    inside = state.u_lo >= 0.0
    k = cmap.schedule.blocks(state.n + 1)
    u_lo, d = state.u_lo.copy(), state.d.copy()
    if inside.any():
        u_lo[inside] = cmap.block_flow(k[inside], state.u_lo[inside])[0]
    narrow = inside & (state.d <= WIDTH_RULE_MAX)
    if narrow.any():
        x, w = state.u_lo[narrow], state.d[narrow]
        mean = np.zeros_like(w)
        for node, weight in zip(WIDTH_NODES, WIDTH_WEIGHTS):
            _, log_slope = cmap.block_flow(k[narrow], x + node * w)
            mean += weight * np.exp(log_slope)
        d[narrow] = w * mean
    wide = inside & ~narrow
    if wide.any():
        t = -cmap.schedule.flow_times(state.n[wide] + 1)
        _, d[wide] = cmap.engine.evolve_interval(t, state.u_lo[wide],
                                                 state.d[wide])
    return IntervalSet((state.n + 1).astype(np.int32), u_lo, d)


def _level_by_masks(state, cmap):
    return _concatenate(_pull_back_by_masks(state, cmap, 0),
                        _pull_back_by_masks(state, cmap, 1))


def _assert_same_rows(got, want):
    for key in IntervalSet.__slots__:
        assert getattr(got, key).dtype == getattr(want, key).dtype, key
        assert getattr(got, key).tobytes() == getattr(want, key).tobytes(), key


def _fresh_recorded_maps(cmap, monkeypatch):
    """Two fresh maps, and per map the bytes of every (t, x_lo, width)
    batch its engine hands evolve_interval."""
    maps, handed = [], []
    for _ in range(2):
        fresh, batches = CookieMap(cmap.constants), []

        def recorded(t, x_lo, width, solve=fresh.engine.evolve_interval,
                     batches=batches):
            batches.append(b"|".join(np.asarray(a, dtype=np.float64).tobytes()
                                     for a in (t, x_lo, width)))
            return solve(t, x_lo, width)

        monkeypatch.setattr(fresh.engine, "evolve_interval", recorded)
        maps.append(fresh)
        handed.append(batches)
    return maps, handed


def test_interval_levels_match_the_masked_pull_backs(cmap, monkeypatch):
    """Every level of a depth-15 walk, bitwise the masked pull-backs
    stacked, with the same tables built level by level on fresh engines
    and the same wide-row batches handed to the pair flow. The 0-half of
    the last level reads 2^14 rows, two row blocks."""
    (walked, masked), handed = _fresh_recorded_maps(cmap, monkeypatch)
    want = IntervalSet.root()
    for depth, got in enumerate(
            word_levels(IntervalSet.root(), walked, 15), 1):
        want = _level_by_masks(want, masked)
        _assert_same_rows(got, want)
        assert (list(walked.engine._table_rows)
                == list(masked.engine._table_rows)), depth
    assert got.size == 1 << 15
    assert handed[0] == handed[1] and handed[0]


_FAMILIES = {
    # no row in a window: no lookup, so no table
    "only 0^j": ([0, 3, 7], [-2.0, -2.0, -2.0], [3.0, 3.0, 3.0]),
    # the 0^j row's own block (k = 2) is not the live row's (k = 5)
    "0^j beside n = 40": ([5, 40], [-2.0, 0.3], [3.0, 1e-5]),
    # widths on both sides of the rule's threshold, in four windows
    "threshold": (np.repeat([0, 1, 5, 40], 6), np.tile([0.02, 0.5, 0.97], 8),
                  np.tile(np.repeat(WIDTH_RULE_MAX * np.array(
                      [1.0 - 1e-9, 1.0 + 1e-9]), 3), 4)),
}


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_hand_made_rows_match_the_masked_pull_backs(cmap, monkeypatch,
                                                    family):
    rows = _common_rows(*_FAMILIES[family])
    (new, old), handed = _fresh_recorded_maps(cmap, monkeypatch)
    (level,) = word_levels(rows, new, 1)
    _assert_same_rows(level, _level_by_masks(rows, old))
    for symbol in (0, 1):
        _assert_same_rows(rows.pull_back(new, symbol),
                          _pull_back_by_masks(rows, old, symbol))
    assert list(new.engine._table_rows) == list(old.engine._table_rows)
    assert handed[0] == handed[1]
    if family == "only 0^j":
        assert not new.engine._table_rows
    else:
        assert new.engine._table_rows
    if family == "threshold":
        assert handed[0]


def test_pull_back_writes_into_given_rows(cmap):
    rows = _common_rows(*_FAMILIES["threshold"])
    for symbol in (0, 1):
        out = IntervalSet(np.zeros(rows.size, dtype=np.int32),
                          np.zeros(rows.size), np.zeros(rows.size))
        assert rows.pull_back(cmap, symbol, out=out) is out
        _assert_same_rows(out, rows.pull_back(cmap, symbol))
    for size in (rows.size - 1, rows.size + 1):
        with pytest.raises(DomainError, match="rows"):
            rows.pull_back(cmap, 0, out=rows.empty(size))


def test_interval_level_pulls_back_through_pull_back(cmap, monkeypatch):
    # each half of a level is one pull_back call, so a wrapper of
    # IntervalSet.pull_back sees every row of the walk
    calls, pull_back = [], IntervalSet.pull_back

    def recorded(state, cmap, symbol, **kwargs):
        out = pull_back(state, cmap, symbol, **kwargs)
        calls.append((symbol, out.size))
        return out

    monkeypatch.setattr(IntervalSet, "pull_back", recorded)
    rows = _common_rows(*_FAMILIES["threshold"])
    (level,) = word_levels(rows, cmap, 1)
    assert calls == [(0, rows.size), (1, rows.size)]
    assert level.size == 2 * rows.size


def test_interval_level_peaks_below_its_new_rows(cmap):
    *_, level = word_levels(IntervalSet.root(), cmap, 16)
    assert level.size == 1 << 16
    next(word_levels(level, cmap, 1))  # builds every table the level reads
    tracemalloc.start()
    try:
        new = next(word_levels(level, cmap, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sum(getattr(new, key).nbytes for key in IntervalSet.__slots__)
    # 1.43 times; the masked pull-backs, stacked, peaked at 2.43 times
    assert peak < 1.6 * size


def test_narrow_width_pull_back_is_batch_independent(cmap):
    rng = np.random.default_rng(37)
    size = 300
    d = WIDTH_RULE_MAX * 10.0 ** rng.uniform(-15.0, 0.0, size)
    rows = _common_rows(rng.integers(0, 200, size),
                        rng.uniform(0.0, 1.0, size) * (1.0 - d), d)
    whole = rows.pull_back(cmap, 0)
    back = slice(None, None, -1)
    rev = _take(rows, back).pull_back(cmap, 0)
    for key in ("u_lo", "d"):
        assert np.array_equal(getattr(whole, key), getattr(rev, key)[back])
    for i in range(size):
        one = _take(rows, slice(i, i + 1)).pull_back(cmap, 0)
        for key in ("u_lo", "d"):
            assert getattr(one, key)[0] == getattr(whole, key)[i]


def test_right_pull_back_divides_by_rounded_powers_of_three(cmap):
    # the interval table and the point path place a pulled-back endpoint
    # on the same float: both divide by the correctly rounded 3^(n+1)
    for n in range(601):
        for u in (0.0, 0.37, 1.0):
            row = _common_rows([n], [u], [0.0]).pull_back(cmap, 1)
            raw = ScaledPoint.in_window(n, u).raw
            _, right = row.endpoints(0)
            assert row.u_lo[0] == raw and right.u == raw, (n, u)
        width = _common_rows([n], [0.0], [0.37]).pull_back(cmap, 1).d[0]
        assert width == 0.37 / float(3 ** (n + 1)), n

import importlib
import math
import signal
import tracemalloc

import numpy as np
import pytest

from flowcutter import (CookieMap, DomainError, SizeBoundReport, ScaledPoint, bd_sweep,
                        distortion, audit_interval_sizes, sbd_profile, sbd_witness,
                        theoretical_bound)
from flowcutter.cookie import LN3
from flowcutter.distortion import (DEFAULT_GRID, _PointGrid, _compose_extras,
                                   _grid_extrema, _positions, _refine_extrema,
                                   _window_spreads, _SPREAD_BLOCK_ROWS)
from flowcutter import flow as flow_module
from flowcutter.optimize import golden_max, golden_min
from flowcutter.scaled import Locus, PointBatch
from flowcutter.symbolic import IntervalSet, Word, word_levels

# the package re-exports the function distortion under the module's name
distortion_module = importlib.import_module("flowcutter.distortion")


def test_affine_words_have_unit_distortion(cmap):
    for k in (1, 3, 6):
        assert distortion(cmap, "1" * k) == 1.0


def test_window_word_matches_direct_flow_ratio(cmap):
    # over 0^n 1 the slope is 3^(n+1) phi'_{s_n}(A_n x); the power cancels
    for n in (1, 2, 4):
        got = distortion(cmap, "0" * n + "1", grid=257)
        s_n = cmap.schedule.cumulative_time(n)
        # the ODE oracle: phi'_{s_n} from the first variational equation
        f = lambda u: cmap.engine.evolve(s_n, u, order=1)[1]
        axis = np.linspace(0.0, 1.0, 513)
        # the scan only brackets the extrema for the golden searches; 50
        # steps shrink a two-cell bracket (2/512) below 1e-13
        vals = f(axis)
        _, hi = golden_max(f, axis[vals.argmax()] - 1 / 512,
                           min(1.0, axis[vals.argmax()] + 1 / 512), 50)
        _, lo = golden_min(f, max(0.0, axis[vals.argmin()] - 1 / 512),
                           min(1.0, axis[vals.argmin()] + 1 / 512), 50)
        assert got == pytest.approx(float(hi) / float(lo), rel=1e-9)


def test_grid_refinement_stabilizes(cmap):
    for bits in ("00001", "0101"):
        a = distortion(cmap, bits, grid=257)
        b = distortion(cmap, bits, grid=513)
        assert a == pytest.approx(b, rel=1e-4)


def test_grid_precondition(cmap):
    with pytest.raises(DomainError):
        distortion(cmap, "01", grid=8)


def test_theoretical_bound_is_finite_product():
    m = 0.5
    direct = 1.0
    for i in range(200):
        direct *= 1.0 + 27.0 * m * 2.0 ** (-i - 2)
    assert theoretical_bound(m) == pytest.approx(direct, rel=1e-12)
    assert theoretical_bound(1.0) > theoretical_bound(0.5) > 1.0
    assert theoretical_bound(0.0) == 1.0


@pytest.mark.parametrize("m", [math.nan, math.inf, -1.0])
def test_theoretical_bound_rejects_bad_curvature(m):
    # the product loop never ends for nan or inf: an alarm turns a hang
    # into a failure
    def hang(signum, frame):
        raise AssertionError(f"theoretical_bound({m}) did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(DomainError):
            theoretical_bound(m)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_sweep_small_depth(cmap):
    reports = bd_sweep(cmap, 5, grid=129, refine_iters=12)
    cs = [r.c_k for r in reports]
    assert all(b >= a - 1e-12 for a, b in zip(cs, cs[1:]))   # nondecreasing
    assert all(r.c_k <= r.c_theory for r in reports)
    assert all(r.per_word.size == 2 ** r.depth for r in reports)
    assert reports[0].c_k == pytest.approx(
        distortion(cmap, "0", grid=129, refine_iters=12), rel=1e-12)
    # the pure right branch is affine, so depth 1 is decided by word 0
    assert str(reports[0].argmax_word) == "0"


def test_sweep_matches_single_word_evaluations(cmap):
    reports = bd_sweep(cmap, 3, grid=65, refine_iters=10)
    for rep in reports:
        for i in range(2 ** rep.depth):
            bits = format(i, f"0{rep.depth}b")
            solo = distortion(cmap, bits, grid=65, refine_iters=10)
            assert rep.per_word[i] == solo


def _level_rows(monkeypatch, rows, grid):
    """Let a word-tree level of the sweeps hold `rows` rows of `grid` points.

    At depth k_max the walk then runs unsplit when 2^k_max <= rows, and
    otherwise breadth-first to the depth d of the largest 2^d <= rows and
    then in groups of B rows of depth d, B the largest power of two with
    B 2^(k_max - d) <= rows, or 1 (a single group, the root, when rows is 1).
    """
    monkeypatch.setattr(distortion_module, "_LEVEL_POINTS", rows * grid)


def _walks(monkeypatch):
    """Record each word_levels call of the sweeps as (seed rows, levels)."""
    calls = []

    def recorded(state, cmap, levels):
        calls.append((state.extra.shape[0], levels))
        return word_levels(state, cmap, levels)

    monkeypatch.setattr(distortion_module, "word_levels", recorded)
    return calls


# (rows a level holds, the word_levels calls it makes) at k_max = 6: one
# group below d = 0, one-row groups below d = 2, four-row groups below
# d = 4, and one group that walks no level below d = 6
LAYOUTS_AT_6 = {"d = 0": (1, [(1, 0), (1, 6)]),
                "one-row groups": (4, [(1, 2)] + [(1, 4)] * 4),
                "multi-row groups": (16, [(1, 4)] + [(4, 2)] * 4),
                "no split": (64, [(1, 6), (64, 0)])}


@pytest.mark.parametrize("layout", LAYOUTS_AT_6)
def test_sweep_thread_count_does_not_change_bits(cmap, monkeypatch, layout):
    rows, walks = LAYOUTS_AT_6[layout]
    _level_rows(monkeypatch, rows, 65)
    calls = _walks(monkeypatch)
    a = bd_sweep(cmap, 6, grid=65, refine_iters=8, threads=1)
    b = bd_sweep(cmap, 6, grid=65, refine_iters=8, threads=3)
    assert calls == walks + walks
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.per_word, rb.per_word)
        assert ra.c_k == rb.c_k


@pytest.mark.parametrize("threads", [0, -3])
def test_sweep_rejects_nonpositive_threads(cmap, threads):
    with pytest.raises(DomainError):
        bd_sweep(cmap, 2, grid=33, threads=threads)


def test_sweep_sharding_covers_all_depths(cmap, monkeypatch):
    # rows 1: d = 0, one group; 2 and 4: one-row groups; 8 and 12: groups
    # of 2 rows below d = 3; 16: two groups of 8; 32: no split, the groups
    # walk no level
    k_max = 5
    for refine_iters in (0, 8):
        _level_rows(monkeypatch, 2 ** k_max, 65)
        plain = bd_sweep(cmap, k_max, grid=65, refine_iters=refine_iters)
        for rows in (1, 2, 3, 4, 8, 12, 16, 32):
            _level_rows(monkeypatch, rows, 65)
            sharded = bd_sweep(cmap, k_max, grid=65,
                               refine_iters=refine_iters)
            for ra, rb in zip(plain, sharded):
                assert np.array_equal(ra.per_word, rb.per_word), rows


def test_sweep_refines_once(cmap, monkeypatch):
    _level_rows(monkeypatch, 1, 65)
    plain = bd_sweep(cmap, 6, grid=65, refine_iters=8)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].shape[0])
        return _refine_extrema(*args, **kwargs)

    _level_rows(monkeypatch, 16, 65)
    monkeypatch.setattr(distortion_module, "_refine_extrema", counted)
    sharded = bd_sweep(cmap, 6, grid=65, refine_iters=8)
    # one call over every word of every depth
    assert calls == [2 ** 7 - 2]
    for ra, rb in zip(plain, sharded):
        assert np.array_equal(ra.per_word, rb.per_word)


def test_chunked_refine_matches_one_chunk(cmap, monkeypatch):
    whole = bd_sweep(cmap, 6, grid=33)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].shape[0])
        return _refine_extrema(*args, **kwargs)

    monkeypatch.setattr(distortion_module, "_REFINE_CHUNK_WORDS", 16)
    monkeypatch.setattr(distortion_module, "_refine_extrema", counted)
    chunked = bd_sweep(cmap, 6, grid=33)
    # the 2^7 - 2 words of depths 1..6 in chunks of 16, the last one short
    assert calls == [16] * 7 + [14]
    for ra, rb in zip(whole, chunked, strict=True):
        assert ra.c_k.hex() == rb.c_k.hex()
        assert ra.argmax_word == rb.argmax_word
        assert ra.per_word.tobytes() == rb.per_word.tobytes()


@pytest.mark.parametrize("short", ["one group a level", "every group a level",
                                   "one group a row"])
@pytest.mark.parametrize("rows, walks", [(4, [2, 3, 3, 3, 3]),
                                         (8, [3, 2, 2, 2, 2])],
                         ids=["one-row groups", "two-row groups"])
def test_merge_rejects_a_short_shard(cmap, monkeypatch, short, rows, walks):
    # the top walk is the first word_levels call, the groups the next four
    _level_rows(monkeypatch, rows, 33)
    calls = []

    def shortened(state, cmap, levels):
        calls.append(levels)
        out = list(word_levels(state, cmap, levels))
        if len(calls) == 1 or (short.startswith("one") and len(calls) != 3):
            return out
        if short.endswith("level"):
            return out[:-1]
        return out[:-1] + [_PointGrid(*(getattr(out[-1], k)[:-1]
                                        for k in _PointGrid.__slots__))]

    monkeypatch.setattr(distortion_module, "word_levels", shortened)
    with pytest.raises(ValueError):
        bd_sweep(cmap, 5, grid=33, refine_iters=0)
    # the merge raises, after the top walk and all four groups
    assert calls == walks


@pytest.mark.parametrize("grid", [33, 65, 257])
@pytest.mark.parametrize("threads", [1, 2])
def test_walk_holds_its_level_budget(cmap, monkeypatch, grid, threads):
    # 2^13 points: a one-row group's deepest level fits up to k_max = 8 at
    # grid 257; the kept extras, transposed, put each row in its word's
    # column, so the merge must return the breadth-first walk's levels
    budget = 1 << 13
    monkeypatch.setattr(distortion_module, "_LEVEL_POINTS", budget)
    walked = []

    def watched(state, cmap, levels):
        for level in word_levels(state, cmap, levels):
            walked.append(level.extra.size)
            yield level

    def keep(extra):
        kept.append(extra.size)
        return (extra.T,)

    monkeypatch.setattr(distortion_module, "word_levels", watched)
    levels = list(word_levels(_PointGrid.root(grid), cmap, 8))
    for k_max in range(1, 9):
        walked, kept = [], []
        columns, = distortion_module._run_shards(cmap, k_max, grid, keep,
                                                 threads)
        assert max(walked) <= budget and max(kept) <= budget, k_max
        assert sum(kept) == sum(walked) == (2 ** (k_max + 1) - 2) * grid
        want = np.concatenate([level.extra.T for level in levels[:k_max]],
                              axis=1)
        assert np.array_equal(columns, want), k_max


@pytest.mark.parametrize("rows, workers", [(1, None), (64, None), (2, 2),
                                           (4, 3), (16, 3)],
                         ids=["d = 0", "no split", "two groups",
                              "four one-row groups", "four four-row groups"])
def test_pool_starts_only_for_two_groups(cmap, monkeypatch, rows, workers):
    pools = []

    class Recorded(distortion_module.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(distortion_module, "ThreadPoolExecutor", Recorded)
    _level_rows(monkeypatch, rows, 33)
    bd_sweep(cmap, 6, grid=33, refine_iters=0, threads=3)
    assert pools == ([] if workers is None else [workers])


def test_long_words_compose_through_every_symbol(cmap):
    # the affine prefix 1^m adds exactly 0.0 to every extra, at any length;
    # the words are the benchmark's fixed lemmas words
    for w in ("0001", "0000000001", "1010101010", "0110100110"):
        alone = distortion(cmap, w)
        assert distortion(cmap, "1" * 64 + w) == alone, w
        assert distortion(cmap, "1" * 300 + w) == alone, w


@pytest.mark.parametrize("rows", [1, 4, 8, 32],
                         ids=["d = 0", "one-row groups", "multi-row groups",
                              "no split"])
def test_single_word_distortion_is_its_sweep_entry(cmap, rows, monkeypatch):
    # every result is a pure per-point function, so neither the batch nor
    # the group a word is swept in moves a bit
    _level_rows(monkeypatch, rows, DEFAULT_GRID)
    reports = bd_sweep(cmap, 5)
    for rep in reports:
        for i in range(2 ** rep.depth):
            bits = format(i, f"0{rep.depth}b")
            assert rep.per_word[i] == distortion(cmap, bits), bits


def test_mixed_depth_refine_matches_per_depth_refine(cmap):
    # one lockstep refine over every depth against one refine per depth
    grid, iters = 65, 12
    reports = bd_sweep(cmap, 7, grid=grid, refine_iters=iters)
    levels = word_levels(_PointGrid.root(grid), cmap, 7)
    for rep, state in zip(reports, levels):
        symbols = np.array([list(Word.from_index(i, rep.depth))
                            for i in range(2 ** rep.depth)], dtype=np.int8)
        cells, values = _grid_extrema(state.extra)
        hi, lo = _refine_extrema(cmap, symbols, cells, values, grid, iters)
        assert np.array_equal(rep.per_word, np.exp(hi - lo))
        assert np.all(rep.per_word >= np.exp(values[0] - values[1]))


def _vstack(grids):
    return _PointGrid(*(np.vstack([getattr(g, k) for g in grids])
                        for k in _PointGrid.__slots__))


def _every_locus_grid(cmap):
    """The 65-point root grid above the rows of the depth-3 words: 0, the
    hole, gaps and windows from J_0 down, each locus present."""
    root = _PointGrid.root(65)
    *_, level = word_levels(root, cmap, 3)
    state = _vstack([root, level])
    assert set(state.locus.ravel().tolist()) == set(map(int, Locus))
    return state


def _window_grid(cmap):
    """Rows of uniform grids on J_0, J_1, J_5 and J_40: windows only."""
    return _vstack([_PointGrid.window(n, 65) for n in (0, 1, 5, 40)])


@pytest.mark.parametrize("make", [_every_locus_grid, _window_grid])
def test_level_matches_the_stacked_pull_backs(cmap, make):
    """One word_levels level, both pull-backs written into one new level,
    against the two pull-backs stacked: bitwise, and on fresh engines the
    same tables built."""
    state = make(cmap)
    walked, stacked = CookieMap(cmap.constants), CookieMap(cmap.constants)
    (got,) = word_levels(state, walked, 1)
    halves = [state.pull_back(stacked, s) for s in (0, 1)]
    want = _vstack(halves)
    for k in _PointGrid.__slots__:
        assert getattr(got, k).dtype == getattr(want, k).dtype
        assert getattr(got, k).tobytes() == getattr(want, k).tobytes(), k
    assert set(walked.engine._table_rows) == set(stacked.engine._table_rows)
    assert walked.engine._table_rows


def test_point_levels_pull_back_through_inverse_batch(cmap, monkeypatch):
    # each half of a level is one CookieMap.inverse_batch call, so a
    # wrapper of it (the bench tracer's) sees every point of the walk
    calls, inverse_batch = [], CookieMap.inverse_batch

    def recorded(self, symbol, b, **kwargs):
        out = inverse_batch(self, symbol, b, **kwargs)
        calls.append((symbol, out[0].size))
        return out

    monkeypatch.setattr(CookieMap, "inverse_batch", recorded)
    for level in word_levels(_PointGrid.root(65), cmap, 3):
        pass
    halves = [(s, 65 << j) for j in range(3) for s in (0, 1)]
    assert calls == halves and level.extra.shape == (8, 65)
    # 4-row levels: two levels from the root, then four one-row groups
    # of two levels each
    calls.clear()
    _level_rows(monkeypatch, 4, 65)
    distortion_module._run_shards(cmap, 4, 65, lambda extra: (extra[:, 0],),
                                  threads=1)
    assert calls == halves[:4] * 5


def test_point_grid_refuses_out_of_another_shape(cmap):
    root = _PointGrid.root(65)
    for out in (root.empty(2), _PointGrid.window(3, 33)):
        with pytest.raises(DomainError, match="shape"):
            root.pull_back(cmap, 0, out=out)


def _compose_extras_by_masks(cmap, symbols, s):
    # _compose_extras as it was, with two masked pull-backs per position
    b = PointBatch.from_raw(s)
    extra = np.zeros(s.shape)
    for col in range(symbols.shape[1] - 1, -1, -1):
        sym = symbols[:, col]
        for value in (0, 1):
            m = sym == value
            if not m.any():
                continue
            sub = PointBatch(b.locus[m], b.n[m], b.u[m])
            child, delta = cmap.inverse_batch(value, sub)
            b.locus[m] = child.locus
            b.n[m] = child.n
            b.u[m] = child.u
            extra[m] += delta
    return extra


def test_padding_symbols_leave_a_word_untouched(cmap):
    s = np.linspace(0.0, 1.0, 33)
    word = np.array([0, 1, 1, 0, 1], dtype=np.int8)
    alone = _compose_extras(cmap, _positions(np.tile(word, (s.size, 1))), s)
    padded = np.tile(np.concatenate([np.full(3, -1, dtype=np.int8), word]),
                     (s.size, 1))
    mixed = _compose_extras(cmap, _positions(padded), s)
    assert alone.tobytes() == mixed.tobytes()
    assert mixed.tobytes() == _compose_extras_by_masks(cmap, padded, s).tobytes()
    assert np.any(alone != 0.0)


def test_mixed_symbol_pull_back_matches_two_masked_calls(cmap):
    # whole compositions of mixed lengths, on a grid through every locus
    rng = np.random.default_rng(29)
    s = np.concatenate([[0.0, 0.15, 0.25, 0.5, 0.7, 1.0],
                        rng.uniform(0.0, 1.0, 60)])
    assert set(PointBatch.from_raw(s).locus.tolist()) >= {
        int(Locus.ZERO), int(Locus.GAP), int(Locus.HOLE), int(Locus.INJ)}
    words = rng.integers(-1, 2, (s.size, 6)).astype(np.int8)
    words[:, :3] = np.where(words[:, :3] == 1, -1, words[:, :3])
    got = _compose_extras(cmap, _positions(words), s)
    assert got.tobytes() == _compose_extras_by_masks(cmap, words, s).tobytes()
    assert np.any(got != 0.0)


def test_positions_list_each_symbol_innermost_first():
    words = np.array([[-1, 0, 1], [1, 1, 0], [-1, -1, 0]], dtype=np.int8)
    got = [tuple(i.tolist() for i in parts) for parts in _positions(words)]
    assert got == [([1, 2], [0]), ([0], [1]), ([], [1])]


def test_inverse_batch_rejects_bad_symbol_arrays(cmap):
    # one branch symbol per call: every array of them, a valid one
    # included, on the point route (2 points) and the block route (5
    # points) alike
    for raw in ([0.1, 0.5], [0.1, 0.2, 0.5, 0.8, 0.9]):
        b = PointBatch.from_raw(np.array(raw))
        for bad in (np.zeros(len(raw), int), np.ones(len(raw), np.int8),
                    np.array([0, 1] + [0] * (len(raw) - 2)),
                    np.zeros(1, int), np.zeros((len(raw), 1), int),
                    np.full(len(raw), -1), np.array([0.0] * len(raw))):
            with pytest.raises(DomainError, match="branch symbol"):
                cmap.inverse_batch(bad, b)
        for bad in (-1, 2, 1.0, True):
            with pytest.raises(DomainError, match="branch symbol"):
                cmap.inverse_batch(bad, b)


# ----------------------------------------------------------------------
# the witness family
# ----------------------------------------------------------------------

def test_witness_order_two(cmap):
    w = sbd_witness(cmap, 2)
    assert w.domain[0].n == 7 and w.image[0].n == 3
    assert w.image_log_size == -4 * math.log(3.0)
    assert w.measured_ratio == pytest.approx(w.limit_ratio, rel=1e-9)
    assert w.limit_ratio > 1.1            # derived, must be clearly above 1
    assert w.margin > 0.05


def test_witness_scale_invariance(cmap):
    w2 = sbd_witness(cmap, 2)
    w4 = sbd_witness(cmap, 4)
    assert w4.measured_ratio == pytest.approx(w2.measured_ratio, rel=1e-8)
    assert w4.image_log_size == -16 * math.log(3.0)
    # every block, odd ones flowing by -T, pins the same limit: the field
    # is symmetric about 1/2
    for k in range(7):
        w = sbd_witness(cmap, k)
        assert abs(w.measured_ratio - w.limit_ratio) <= 1e-12, k
        assert abs(w.limit_ratio - w2.limit_ratio) <= 1e-14, k


def test_witness_flows_at_the_block_sum(cmap, same_sign_schedule):
    # on a second law the witness limit is the distortion of phi at the
    # block sum (T/4^k 2^k = T/2^k), not at t_1 = T
    law = CookieMap(cmap.constants)
    law.schedule = same_sign_schedule(cmap.constants.T)
    for k in (2, 4):
        w = sbd_witness(law, k)
        t = law.schedule.block_sum(k)
        want = (law.engine.flow_derivative(t, w.alpha)
                / law.engine.flow_derivative(t, w.beta))
        assert abs(w.limit_ratio - want) <= 1e-12, k
        assert abs(w.measured_ratio - w.limit_ratio) <= 1e-12, k


def test_witness_extremizers(cmap):
    w = sbd_witness(cmap, 2)
    da = cmap.engine.flow_derivative(cmap.constants.T, w.alpha)
    db = cmap.engine.flow_derivative(cmap.constants.T, w.beta)
    assert w.limit_ratio == pytest.approx(da / db, rel=1e-12)
    # extremizers beat a fine grid scan
    axis = np.linspace(0.0, 1.0, 2049)
    _, v = cmap.engine.evolve(cmap.constants.T, axis, order=1)
    assert da >= v.max() - 1e-12
    assert db <= v.min() + 1e-12


def test_iterate_and_witness_are_pure(cmap, monkeypatch):
    # a fresh map has an engine with no tables built; its orbits and
    # witnesses must repeat the shared, warmed map's bits in either order
    p = ScaledPoint.in_window(20, 0.37)

    def run(m):
        return (*(sbd_witness(m, k) for k in (1, 2, 3, 4)),
                m.iterate(p, 20))

    fresh_first = run(CookieMap(cmap.constants))
    warm = run(cmap)
    fresh_last = run(CookieMap(cmap.constants))
    assert fresh_first == warm == fresh_last
    for w in warm[:4]:
        assert type(w.alpha) is float and type(w.beta) is float
    # once their tables exist, neither starts an ODE solve
    def no_solve(*args, **kwargs):
        raise AssertionError("ODE solve on the table path")

    monkeypatch.setattr(flow_module, "integrate_unit_interval", no_solve)
    assert run(cmap) == warm


def test_witness_builds_only_the_tables_it_reads(cmap):
    # the order-6 orbit reads the forward table of block 6 (t = T/64) and
    # the witness scan that of the block sum t = T; block 5 (t = -T/32) is
    # never read
    T = cmap.constants.T
    fresh = CookieMap(cmap.constants)
    got = sbd_witness(fresh, 6)
    assert -T / 32 not in fresh.engine._table_rows
    assert got == sbd_witness(cmap, 6)
    # an odd block flows by its sum -T: the order-5 witness reads only the
    # -T table and its orbit's -T/32, never +T
    odd = CookieMap(cmap.constants)
    assert sbd_witness(odd, 5) == sbd_witness(cmap, 5)
    assert set(odd.engine._table_rows) == {-T, -T / 32}
    # a sparse set of block indices builds only its own tables and reads
    # the same values as on a map that holds every table
    k = np.array([6, 2, 6, 0, 2])
    u = np.linspace(0.1, 0.9, k.size)
    dense = [cmap.schedule.flow_time(1 << j) for j in range(7)]
    cmap.engine.table_flow(dense, np.arange(7), np.full(7, 0.5))
    want = cmap.engine.table_flow(dense, k, u)
    for a, b in zip(fresh.engine.table_flow(dense, k, u), want):
        assert np.array_equal(a, b)
    assert set(fresh.engine._table_rows) == {dense[0], dense[2], dense[6]}


def test_witness_validation(cmap):
    for k in (-1, 7, 8, 2.0, True, "2"):
        with pytest.raises(DomainError):
            sbd_witness(cmap, k)
    assert sbd_witness(cmap, 3).k == 3
    got = sbd_witness(cmap, np.int64(3))
    assert type(got.k) is int and got == sbd_witness(cmap, 3)


def test_scale_cancellation_identity(cmap):
    # the distortion of F^4 over J_7 is the distortion of phi_T on [0,1]
    w = sbd_witness(cmap, 2)
    ratio = distortion(cmap, "0" * 7 + "1", grid=513)
    # 0^7 1 addresses J_7 but under F^8; restricting to F^4 the comparison
    # is against the raw flow ratio instead
    rx = cmap.iterate(ScaledPoint.in_window(7, w.alpha), 4)
    ry = cmap.iterate(ScaledPoint.in_window(7, w.beta), 4)
    assert math.exp(rx.log_extra - ry.log_extra) == pytest.approx(
        w.limit_ratio, rel=1e-8)
    assert ratio > 1.0


# ----------------------------------------------------------------------
# profile search
# ----------------------------------------------------------------------

def _filter_spread(extra, window_cells):
    ndimage = pytest.importorskip("scipy.ndimage")
    size = window_cells + 1
    hi = ndimage.maximum_filter1d(extra, size=size, axis=1, mode="nearest")
    lo = ndimage.minimum_filter1d(extra, size=size, axis=1, mode="nearest")
    return np.max(hi - lo, axis=1)


@pytest.mark.parametrize("size", [1, 2, 3, 29, 86, 300])
def test_window_spread_matches_scipy_filters(cmap, size):
    rng = np.random.default_rng(size)
    rows = [rng.standard_normal((5, 257)), rng.standard_normal((3, 40)),
            rng.integers(-3, 4, (4, 257)).astype(np.float64),
            np.cumsum(rng.random((2, 257)), axis=1)]
    levels = word_levels(_PointGrid.root(257), cmap, 6)
    rows.append(list(levels)[-1].extra)
    for extra in rows:
        assert np.array_equal(_window_spreads(extra, [size - 1]),
                              [_filter_spread(extra, size - 1)])


def _single_span_spread(extra, window_cells):
    # one doubling pyramid over the whole array per span, the form that
    # _window_spreads replaced
    size = min(window_cells + 1, extra.shape[1])
    hi = lo = extra
    span = 1
    while 2 * span <= size:
        hi = np.maximum(hi[:, :-span], hi[:, span:])
        lo = np.minimum(lo[:, :-span], lo[:, span:])
        span *= 2
    shift = size - span
    hi = np.maximum(hi[:, :hi.shape[1] - shift], hi[:, shift:])
    lo = np.minimum(lo[:, :lo.shape[1] - shift], lo[:, shift:])
    return np.max(hi - lo, axis=1)


def test_blocked_spreads_match_one_pyramid_per_span(cmap):
    block = _SPREAD_BLOCK_ROWS
    tall = 2 * block + 3
    rng = np.random.default_rng(13)
    level = list(word_levels(_PointGrid.root(257), cmap, 6))[-1].extra
    sources = {
        "random": rng.standard_normal((tall, 257)),
        "integer": rng.integers(-3, 4, (tall, 257)).astype(np.float64),
        "monotone": np.cumsum(rng.random((tall, 257)), axis=1),
        "level": np.tile(level, (-(-tall // level.shape[0]), 1))[:tall],
    }
    # unsorted, with duplicates, and 299 longer than a row
    spans = [85, 0, 299, 2, 28, 85, 256, 1, 0]
    for name, source in sources.items():
        for rows in (1, block - 1, block, block + 1, tall):
            extra = source[:rows]
            want = [_single_span_spread(extra, c) for c in spans]
            assert np.array_equal(_window_spreads(extra, spans), want), (
                name, rows)


def test_blocked_spreads_stay_below_one_copy_of_a_level():
    extra = np.random.default_rng(5).standard_normal((2048, 257))
    cells = [int(256 // r) for r in (1.0, 3.0, 9.0, 27.0, 81.0)]
    tracemalloc.start()
    try:
        _window_spreads(extra, cells)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < extra.nbytes / 2


def test_profile_unit_scale_equals_sweep_max(cmap):
    k_max = 5
    prof = sbd_profile(cmap, k_max, scales=(1.0,), grid=129)
    sweep = bd_sweep(cmap, k_max, grid=129, refine_iters=0)
    assert prof[0].beta_hat == pytest.approx(sweep[-1].c_k, rel=1e-12)


def test_profile_does_not_decay(cmap):
    # only the witness row reaches image scale 3^-40
    prof = sbd_profile(cmap, 6, scales=(1.0, 3.0, 9.0, 81.0, 3.0 ** 40),
                       grid=129)
    w = sbd_witness(cmap, 2)
    floor = 1.0 + w.margin / 2.0
    for entry in prof:
        assert entry.beta_hat >= floor
    by_r = {p.r: p.beta_hat for p in prof}
    assert by_r[81.0] >= w.measured_ratio * (1.0 - 1e-4)


def test_profile_solves_no_ode_once_its_tables_exist(cmap, monkeypatch):
    warm = sbd_profile(cmap, 4, grid=65)

    def no_solve(*args, **kwargs):
        raise AssertionError("ODE solve in the profile")

    monkeypatch.setattr(flow_module, "integrate_unit_interval", no_solve)
    assert sbd_profile(cmap, 4, grid=65) == warm


def test_profile_monotone_in_scale(cmap):
    prof = sbd_profile(cmap, 5, scales=(1.0, 3.0, 27.0), grid=129)
    vals = [p.beta_hat for p in prof]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_profile_validation(cmap):
    for r in (0.5, math.nan):
        with pytest.raises(DomainError):
            sbd_profile(cmap, 3, scales=(r,))
    for grid in (0, 1, 32):
        with pytest.raises(DomainError):
            sbd_profile(cmap, 3, grid=grid)


def test_profile_rejects_scales_beyond_the_witness_row(cmap):
    # a 257-point witness row of block 6 spans 256 3^64 image widths: at
    # larger scales no window holds a pair and beta_hat would read 1
    reach = 256 * 3.0 ** 64
    for r in (257 * 3.0 ** 64, 1e40, 3.0 ** 100, math.inf):
        with pytest.raises(DomainError):
            sbd_profile(cmap, 2, scales=(1.0, r))
    prof = sbd_profile(cmap, 2, scales=(3.0 ** 64, reach))
    assert prof[0].beta_hat > prof[1].beta_hat > 1.0


@pytest.mark.parametrize("layout", LAYOUTS_AT_6)
def test_profile_thread_count_does_not_change_bits(consts, monkeypatch,
                                                   layout):
    # each run on a fresh engine, so that the threads race to build the
    # flow tables on first use
    rows, walks = LAYOUTS_AT_6[layout]
    _level_rows(monkeypatch, rows, 65)
    calls = _walks(monkeypatch)
    runs = [sbd_profile(CookieMap(consts), 6,
                        scales=(1.0, 3.0, 27.0), grid=65, threads=threads)
            for threads in (1, 3)]
    assert calls == walks + walks
    assert runs[0] == runs[1]


@pytest.mark.parametrize("threads", [0, -3])
def test_profile_rejects_nonpositive_threads(cmap, threads):
    with pytest.raises(DomainError):
        sbd_profile(cmap, 2, grid=33, threads=threads)


# ----------------------------------------------------------------------
# interval size audit
# ----------------------------------------------------------------------

def test_size_bound_small(cmap):
    audit = audit_interval_sizes(cmap, 5, 6)
    assert isinstance(audit, SizeBoundReport)
    assert audit.ok
    assert audit.min_slack_factor >= 1.5
    # families: all (n, k) with n <= 5, k <= 6
    assert audit.checked == sum(2 ** k for n in range(6) for k in range(7))


def test_size_bound_shallow_examples(cmap):
    # |I_1| = 1/3 against 3/4; |J_1| = 1/9 against 1/4
    audit = audit_interval_sizes(cmap, 1, 0)
    assert audit.ok
    assert audit.min_slack_factor == pytest.approx(2.25, rel=1e-9)


def test_size_bound_combined_cap(cmap):
    audit = audit_interval_sizes(cmap, 10, 10, combined_cap=8)
    assert audit.ok
    assert audit.checked == sum(2 ** k for n in range(11) for k in range(11)
                                if n + 1 + k <= 8)


@pytest.mark.parametrize("cap", [0, -2])
def test_size_bound_rejects_a_cap_below_one(cmap, cap):
    # a cap below 1 leaves no family to check, which must not read as a pass
    with pytest.raises(DomainError):
        audit_interval_sizes(cmap, 3, 3, combined_cap=cap)


def test_size_bound_cap_guard(cmap):
    with pytest.raises(Exception):
        audit_interval_sizes(cmap, 30, 30)


def _breadth_first_audit(cmap, n_max, k_max, combined_cap):
    """The audit as one breadth-first pass: every family a slice of a
    whole level, violations in the order the pass meets them."""
    ln2 = distortion_module.LN2
    cap = n_max + 1 + k_max
    if combined_cap is not None:
        cap = min(cap, combined_cap)
    tolerance = math.log1p(1e-9)
    checked = 0
    min_slack = math.inf
    violations = []
    levels = word_levels(IntervalSet.root(), cmap, cap)
    for depth, table in enumerate(levels, 1):
        logs = table.log_sizes()
        for k in range(0, min(k_max, depth - 1) + 1):
            n = depth - 1 - k
            if n > n_max:
                continue
            family = logs[1 << k: 1 << (k + 1)]
            bound = (1.0 - n) * LN3 - (k + 2) * ln2
            slack = bound - family
            min_slack = min(min_slack, float(slack.min()))
            checked += family.size
            bad = np.flatnonzero(family > bound + tolerance)
            violations.extend((n, Word.from_index(int(i), k)) for i in bad)
    return SizeBoundReport(checked=checked, violations=violations,
                           min_slack_factor=math.exp(min_slack))


# (n_max, k_max, combined_cap, LN2 or None): 1.08, 1.1 and 1.15 in place
# of ln 2 make 2, 5 960 and 8 178 of the 8 178 words of (11, 11, 12) fail
_AUDIT_CASES = [(9, 9, 10, None, 0), (6, 9, 10, None, 0),
                (9, 4, 10, None, 0), (3, 3, None, None, 0),
                (11, 11, 12, None, 0), (11, 11, 12, 1.08, 2),
                (11, 11, 12, 1.1, 5960), (11, 11, 12, 1.15, 8178)]


@pytest.mark.parametrize("budget", [1, 2, 8, 64, 1024])
def test_grouped_audit_matches_the_breadth_first_audit(cmap, monkeypatch,
                                                       budget):
    # groups split the wide rows' pair-flow batches at budgets this small,
    # which moves a width by about 1e-15 (the batch dependence of
    # evolve_interval), so the slack is compared to 1e-14
    monkeypatch.setattr(distortion_module, "_LEVEL_POINTS", budget)
    for n_max, k_max, cap, ln2, failing in _AUDIT_CASES:
        if ln2 is not None:
            monkeypatch.setattr(distortion_module, "LN2", ln2)
        want = _breadth_first_audit(cmap, n_max, k_max, cap)
        got = audit_interval_sizes(cmap, n_max, k_max, combined_cap=cap)
        case = (n_max, k_max, cap, ln2)
        assert len(want.violations) == failing, case
        assert got.checked == want.checked, case
        assert got.violations == want.violations, case
        assert got.min_slack_factor == pytest.approx(want.min_slack_factor,
                                                     rel=1e-14, abs=0), case


def test_audit_holds_its_level_budget(cmap, monkeypatch):
    # 64 rows: depth 6 fits, and a one-row group's deepest level fits up
    # to cap 12; with every word failing, the violations list each audited
    # word once, so every word of every depth must be there once, in order
    budget = 64
    monkeypatch.setattr(distortion_module, "_LEVEL_POINTS", budget)
    monkeypatch.setattr(distortion_module, "LN2", 10.0)
    walked = []

    def watched(state, cmap, levels):
        for level in word_levels(state, cmap, levels):
            walked.append(len(level))
            yield level

    monkeypatch.setattr(distortion_module, "word_levels", watched)
    for cap in range(1, 13):
        walked.clear()
        audit = audit_interval_sizes(cmap, cap, cap, combined_cap=cap)
        assert max(walked) <= budget, cap
        assert sum(walked) == 2 ** (cap + 1) - 2, cap
        every = [(depth - 1 - k, Word.from_index(i, k))
                 for depth in range(1, cap + 1)
                 for k in range(depth) for i in range(1 << k)]
        assert audit.violations == every, cap
        assert audit.checked == len(every), cap


def test_deep_audit_holds_its_working_set(cmap):
    # the combined-depth-20 audit of the intervals benchmark: a walk of
    # whole levels peaked at 44 MiB, the budget holds it near 15 MiB
    audit_interval_sizes(cmap, 17, 17, combined_cap=18)   # every table
    tracemalloc.start()
    try:
        audit = audit_interval_sizes(cmap, 19, 19, combined_cap=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert audit.ok and audit.checked == 2 ** 21 - 22
    assert peak < 16 * 2 ** 20

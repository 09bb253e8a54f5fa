"""Distortion of iterates over basic intervals; the two headline experiments.

The positive experiment (bd_sweep): the worst derivative ratio of F^k over
any depth-k interval stays below the block-product bound built from the
certified curvature constant M, at every depth, with shrinking increments.

The negative experiment (sbd_witness / sbd_profile): the windows
J_{2^(k+1)-1} map onto J_{2^k-1} under F^(2^k) with every affine factor
cancelling, leaving exactly the distortion of the flow at block k's sum
of times, TimeSchedule.block_sum(k). The image size shrinks like
3^(-2^k) while that sum, and so the distortion, does not move, so the
distortion bound cannot improve toward 1 at small image scales.
sbd_profile takes one such pair as one more row of its search: a uniform
grid on J_{2^k-1} pulled back through 0^(2^k).

All sweeps run on (words x grid) arrays, walked by symbolic.word_levels
(level j+1 stacks both pullbacks of level j) from [0,1] while a level fits
one budget of points, _LEVEL_POINTS, and below the last level that fits in
groups of its rows, each group's levels within the budget. The grid of a word
is always the inverse image of one fixed uniform grid on [0,1], so the
grid position of a sample IS its normalized image coordinate under F^k,
which the profile search uses directly. The walk keeps of each level
only what its caller reads: each word's grid extrema for bd_sweep, the
word's windowed spreads for sbd_profile. bd_sweep then sharpens the
extrema with one golden-section pass run in lockstep across every word of
every depth, the same refine that distortion() runs for one word; words
enter it as rows of symbols, right-aligned and padded with -1, so a word
of any length composes through exactly its own symbols.

The size audit (audit_interval_sizes) walks basic intervals by the same
layout rule, _layout, an interval row counting as one point of the
budget. Each of its (n, k) families is one run of rows of a level or of a
group's level, so it keeps of each level only a count, the least slack
and the violations, and needs no merge.

Every grid pull-back takes one branch symbol through one call of the batch
kernel, CookieMap.inverse_batch; a word-tree level has it write both
pull-backs into the halves of one new grid. The window flows are lookups
in per-time displacement tables, a pure function of each point. A word's
ratio is therefore bitwise the same whether distortion() computes it
alone or a sweep computes it among other words, depths, groups or
threads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _checks
from .cookie import LN3, CookieMap, interval_J
from .errors import BoundViolationError, DepthCapError, DomainError
from .optimize import golden_max
from .scaled import Locus, PointBatch, ScaledPoint
from .symbolic import (DEPTH_CAP, IntervalSet, Word, WordRows,
                       pull_back_word, word_levels)

LN2 = math.log(2.0)

DEFAULT_GRID = 257
DEFAULT_REFINE_ITERS = 24
EXHAUSTIVE_DEPTH_CAP = 16
PROFILE_DEPTH_CAP = 14
DEFAULT_SCALES = (1.0, 3.0, 9.0, 27.0, 81.0)

# the deepest block of sbd_witness and of sbd_profile's witness row
_WITNESS_BLOCK_MAX = 6
# golden-section steps on the witness's two-cell brackets (width 2/4096):
# they shrink to 1.2e-13, the resolution of a tol-1e-13 search
_WITNESS_GOLDEN_STEPS = 46


# ----------------------------------------------------------------------
# result records
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DistortionReport:
    """Per-depth summary of the exhaustive distortion sweep."""

    depth: int
    c_k: float
    argmax_word: Word
    c_theory: float
    grid: int
    per_word: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SbdWitness:
    """The scale-cancelling window pair that pins the distortion floor."""

    k: int
    domain: tuple[ScaledPoint, ScaledPoint]
    image: tuple[ScaledPoint, ScaledPoint]
    image_log_size: float
    measured_ratio: float
    limit_ratio: float
    alpha: float
    beta: float

    @property
    def margin(self) -> float:
        """Half the derived excess of the ratio over 1; the assertion slack."""
        return 0.5 * (self.limit_ratio - 1.0)


@dataclass(frozen=True)
class SbdProfile:
    """Empirical distortion supremum beta_hat at image scale 1/r."""

    r: float
    beta_hat: float


@dataclass(frozen=True)
class SizeBoundReport:
    """Exhaustive size-bound audit over the 0^n 1 tau interval family."""

    checked: int
    violations: list[tuple[int, Word]]
    min_slack_factor: float

    @property
    def ok(self) -> bool:
        return not self.violations


def theoretical_bound(M: float) -> float:
    """The convergent block product prod_i (1 + 27 M 2^(-i-2));
    DomainError unless M is finite and >= 0."""
    M = _checks.real(M, "curvature bound", 0.0, math.inf)
    out = 1.0
    i = 0
    while True:
        f = 27.0 * M * 2.0 ** (-i - 2)
        if f < 1e-18:
            return out
        out *= 1.0 + f
        i += 1


# ----------------------------------------------------------------------
# grid state: (words x grid points) with accumulated log-slope extras
# ----------------------------------------------------------------------

class _PointGrid(WordRows):
    """Sample grids for a family of words, one row per word.

    extra[r, i] holds log (F^k)'(x_{r,i}) - k ln 3 for the depth-k word of
    row r, so the exactly-affine part of the slope never touches a float.
    """

    __slots__ = ("locus", "n", "u", "extra")

    def __init__(self, locus, n, u, extra):
        self.locus = locus
        self.n = n
        self.u = u
        self.extra = extra

    @classmethod
    def root(cls, grid: int) -> "_PointGrid":
        s = np.linspace(0.0, 1.0, grid)
        b = PointBatch.from_raw(s)
        return cls(b.locus[None, :].copy(), b.n[None, :].copy(),
                   b.u[None, :].copy(), np.zeros((1, grid)))

    @classmethod
    def window(cls, n: int, grid: int) -> "_PointGrid":
        """One row: a uniform grid on the window J_n."""
        return cls(np.full((1, grid), int(Locus.INJ), dtype=np.int8),
                   np.full((1, grid), n, dtype=np.int32),
                   np.linspace(0.0, 1.0, grid)[None, :], np.zeros((1, grid)))

    def pull_back(self, cmap: CookieMap, symbol: int, *,
                  out: "_PointGrid | None" = None) -> "_PointGrid":
        """Pull every point back by the branch symbol and return the grid,
        written into out if it is given (word_levels passes the halves of
        one new level), else into a new grid: one inverse_batch call,
        whose increments are then added to the extras carried so far."""
        if out is None:
            out = self.empty(len(self))
        cmap.inverse_batch(symbol, PointBatch(self.locus, self.n, self.u),
                           out=(PointBatch(out.locus, out.n, out.u),
                                out.extra))
        out.extra += self.extra
        return out


def _positions(symbols: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per word position, innermost first, the tasks that take symbol 0
    and those that take 1. Row r of symbols is one word, first symbol
    leftmost, right-aligned and left-padded with -1, which no part lists."""
    return [(np.flatnonzero(col == 0), np.flatnonzero(col == 1))
            for col in symbols.T[::-1]]


def _compose_extras(cmap: CookieMap, positions: list,
                    s: np.ndarray) -> np.ndarray:
    """log (F^k)' - k ln 3 at the points f_w(s), one word per task.

    positions is _positions of the words. The composition runs inside out,
    and at each position each symbol's tasks are pulled back by one
    inverse_batch call and written back in place; padded tasks are not
    touched, so words of different lengths ride in one batch.
    """
    b = PointBatch.from_raw(s)
    extra = np.zeros(s.shape)
    for parts in positions:
        for symbol, i in enumerate(parts):
            if i.size:
                child, delta = cmap.inverse_batch(
                    symbol, PointBatch(b.locus[i], b.n[i], b.u[i]))
                b.locus[i], b.n[i], b.u[i] = child.locus, child.n, child.u
                extra[i] += delta
    return extra


def _grid_extrema(extra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row grid argmax and argmin cells and their values.

    Both results have shape (2, rows): row 0 for the maxima, row 1 for the
    minima. Only these O(rows) arrays outlive a sweep level.
    """
    cells = np.stack([np.argmax(extra, axis=1), np.argmin(extra, axis=1)])
    values = np.take_along_axis(extra, cells.T, axis=1).T
    return cells, values


def _refine_extrema(cmap: CookieMap, symbols: np.ndarray, cells: np.ndarray,
                    values: np.ndarray, grid: int, iters: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section sharpening of per-word extra maxima and minima.

    Row r of symbols is one word, right-aligned and left-padded with -1 as
    _positions reads it, with its grid extrema (cells, values) from
    _grid_extrema. Brackets are the one-cell neighborhoods of the grid
    extrema in the normalized coordinate; one optimize.golden_max call
    searches them all in lockstep, so words of every length share one
    batched evaluation per iteration, each composing through exactly its
    own symbols. Maximum and minimum tasks ride in the same batch with
    opposite signs, the words split once into their positions' tasks. The
    result is never below the grid value it refines.
    """
    grid_hi, grid_lo = values
    if iters <= 0:
        return grid_hi, grid_lo
    rows = symbols.shape[0]
    s_axis = np.linspace(0.0, 1.0, grid)
    cells = cells.ravel()
    sign = np.concatenate([np.ones(rows), -np.ones(rows)])
    positions = _positions(np.vstack([symbols, symbols]))

    _, best = golden_max(
        lambda points: sign * _compose_extras(cmap, positions, points),
        s_axis[np.maximum(cells - 1, 0)],
        s_axis[np.minimum(cells + 1, grid - 1)], iters)
    hi = np.maximum(grid_hi, best[:rows])
    lo = np.minimum(grid_lo, -best[rows:])
    return hi, lo


# ----------------------------------------------------------------------
# the sweep core
# ----------------------------------------------------------------------

# Words per _refine_extrema call of bd_sweep: sweeps to depth 14 (2^15 - 2
# words) refine in one call, and deeper sweeps refine in chunks, so the
# refine's working set stays fixed while the walk's is held to
# _LEVEL_POINTS. One chunk is 2^16 golden-section tasks (a maximum and a
# minimum per word); its tracemalloc peak is about 18 MiB (depth-15 words,
# 24 iterations), twice the 9 MiB of a whole depth-13 walk at the budget.
_REFINE_CHUNK_WORDS = 1 << 15

# Points per word-tree level that _run_shards holds at once, its working
# set (a _PointGrid point is 21 bytes, so 2^18 points are 5.5 MB). At the
# default grid that is 1 020 rows; one row's subtree fits it to depth 16
# for every grid up to 1 024 points. Medians of seven bench/worker.py runs
# each (seed 7, 2-core Xeon VM, numpy 2.4): sbd_profile(13, threads=2)
# wall 0.361 / 0.299 / 0.263 / 0.266 s and peak RSS 46.4 / 49.0 / 54.6 /
# 69.9 MiB at 2^16 / 2^17 / 2^18 / 2^19 points, against 0.263 s and
# 84.5 MiB for 2^11-row shards; bd_sweep(11) wall 0.24-0.26 s at every
# budget, peak RSS 44.5 / 45.1 / 48.5 / 53.9 MiB against 59.2 MiB unsplit.
# audit_interval_sizes counts an interval row (20 bytes) as one point: to
# combined depth 20 it walks depths 1-18 whole, then four groups of 2^16
# rows; its tracemalloc peak is 15.1 MiB against 44.1 MiB for whole levels,
# and bench/run.py intervals peak RSS 93.98 -> 56.61 MiB (medians of ten
# alternating pairs, seeds 7 and 11 alike, same VM).
_LEVEL_POINTS = 1 << 18

# Rows per block of _window_spreads, so that a block's rows and its max/min
# pyramid stay in cache (128 x 257 floats is 257 KiB an array). On one
# 2 048 x 257 level with the five default scales (2-core Xeon VM, 4 MiB L2,
# numpy 2.4, one thread): one pyramid per span over the whole level 31 ms,
# one shared pyramid unblocked 13-15 ms, 128-row blocks 11.1-11.4 ms;
# 64 and 256 rows came within 10% of that, 32 and 512 rows did not.
_SPREAD_BLOCK_ROWS = 128


def _window_spreads(extra: np.ndarray, window_cells) -> np.ndarray:
    """Each row's largest max-minus-min of extra over index windows, per span.

    For each span in window_cells, each row is scanned with windows of
    span + 1 consecutive entries, or the whole row when it is shorter; the
    result has one row per span, in the order given, and one column per row
    of extra. Window maxima and minima come from doubling: the extrema over
    spans of 1, 2, 4, ... entries, built once per block of rows and shared
    by every span, and a window's extremum as that of two overlapping
    power-of-two spans. Only comparisons are involved, so each result is
    exact, and equal to the spread of a "nearest"-mode max/min filter: a
    window clipped at a row's end is a subset of a full window.
    """
    sizes = [min(int(c) + 1, extra.shape[1]) for c in window_cells]
    best = np.empty((len(sizes), extra.shape[0]))
    by_size = sorted(range(len(sizes)), key=sizes.__getitem__)
    for start in range(0, extra.shape[0], _SPREAD_BLOCK_ROWS):
        block = slice(start, start + _SPREAD_BLOCK_ROWS)
        hi = lo = extra[block]
        span = 1
        for i in by_size:
            while 2 * span <= sizes[i]:
                hi = np.maximum(hi[:, :-span], hi[:, span:])
                lo = np.minimum(lo[:, :-span], lo[:, span:])
                span *= 2
            shift = sizes[i] - span
            spread = (np.maximum(hi[:, :hi.shape[1] - shift], hi[:, shift:])
                      - np.minimum(lo[:, :lo.shape[1] - shift], lo[:, shift:]))
            best[i, block] = spread.max(axis=1)
    return best


def _layout(rows: int, levels: int) -> tuple[int, int]:
    """How a walk of `levels` word-tree levels holds at most `rows` rows a
    level: (d, B), breadth first from [0,1] to depth d, the deepest level
    that fits, then depth d in groups of B consecutive rows, B the largest
    power of two (at least 1) whose deepest level, B 2^(levels - d) rows,
    fits. Every level fits when one row's subtree does."""
    d = min(levels, rows.bit_length() - 1)
    return d, 1 << min(d, max(0, (rows >> (levels - d)).bit_length() - 1))


def _run_shards(cmap: CookieMap, k_max: int, grid: int, keep,
                threads: int) -> tuple[np.ndarray, ...]:
    """Walk the word tree once, keeping keep(extra) of every level.

    keep maps a level's (rows x grid) extras to a tuple of arrays whose
    last axis runs over the level's rows (bd_sweep: _grid_extrema;
    sbd_profile: each row's window spreads). The walk takes _layout's
    (d, B) for _LEVEL_POINTS // grid rows a level: breadth first to depth
    d, then each group of B rows of depth d alone, on a pool of up to
    `threads` workers when there are two groups or more. The merge
    interleaves the groups' last axes: row q B + s of group g, p symbols
    further down, is word q 2^d + g B + s, the row of its word in lex
    order; a group that returns a wrong number of levels or rows raises.
    Nothing depends on the thread count, so the result is bit-identical
    for any. Returns keep's arrays, each concatenated along its last axis
    over depths 1..k_max.
    """
    threads = _checks.integer(threads, "threads", 1)
    d, block = _layout(max(1, _LEVEL_POINTS // grid), k_max)
    state = _PointGrid.root(grid)
    levels = []
    for state in word_levels(state, cmap, d):
        levels.append(keep(state.extra))
    seeds = [state[i:i + block] for i in range(0, len(state), block)]

    def run(seed):
        return [keep(level.extra)
                for level in word_levels(seed, cmap, k_max - d)]

    if threads > 1 and len(seeds) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(seeds))) as pool:
            groups = list(pool.map(run, seeds))
    else:
        groups = [run(seed) for seed in seeds]

    for p, *parts in zip(range(1, k_max - d + 1), *groups, strict=True):
        levels.append(tuple(
            np.stack([a.reshape(*a.shape[:-1], 1 << p, block)
                      for a in arrays], axis=-2).reshape(
                          *arrays[0].shape[:-1], 1 << (d + p))
            for arrays in zip(*parts, strict=True)))
    return tuple(np.concatenate(arrays, axis=-1)
                 for arrays in zip(*levels, strict=True))


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def distortion(cmap: CookieMap, word: Word | str, grid: int = DEFAULT_GRID,
               refine_iters: int = DEFAULT_REFINE_ITERS) -> float:
    """sup (F^k)' / inf (F^k)' over I_w.

    Samples log (F^k)' on the inverse image of a uniform grid in the
    normalized coordinate, sharpens both extrema by golden section, and
    exponentiates the spread. Affine-only words return exactly 1. The
    grid needs at least 33 points.
    """
    grid = _checks.integer(grid, "grid points", 33)
    refine_iters = _checks.integer(refine_iters, "refine iterations", 0)
    word = Word.of(word)
    state = pull_back_word(_PointGrid.root(grid), cmap, word.bits)
    cells, values = _grid_extrema(state.extra)
    hi, lo = _refine_extrema(cmap, np.array([list(word)], dtype=np.int8),
                             cells, values, grid, refine_iters)
    return float(np.exp(hi[0] - lo[0]))


def bd_sweep(cmap: CookieMap, k_max: int, grid: int = DEFAULT_GRID,
             refine_iters: int = DEFAULT_REFINE_ITERS,
             threads: int = 1) -> list[DistortionReport]:
    """Exhaustive per-depth distortion maxima against the block bound.

    Computes C_k = max over all 2^k words of distortion(word) for every
    k <= k_max, along with the theoretical ceiling built from the
    certified curvature constant. Raises BoundViolationError if any C_k
    exceeds the ceiling (which would mean a mis-certified M or a bug, not
    new mathematics).
    """
    k_max = _checks.integer(k_max, "exhaustive sweep depth", 1,
                            EXHAUSTIVE_DEPTH_CAP)
    grid = _checks.integer(grid, "grid points", 33)
    refine_iters = _checks.integer(refine_iters, "refine iterations", 0)
    c_theory = theoretical_bound(cmap.constants.M)
    cells, values = _run_shards(cmap, k_max, grid, _grid_extrema, threads)
    sizes = [1 << depth for depth in range(1, k_max + 1)]
    # every word of every depth in lex order, right-aligned in k_max
    # columns: bit j of a word's index is its symbol j places from the end
    index = np.concatenate([np.arange(n) for n in sizes])
    depths = np.repeat(np.arange(1, k_max + 1), sizes)
    shifts = np.arange(k_max - 1, -1, -1)
    symbols = ((index[:, None] >> shifts) & 1).astype(np.int8)
    symbols[shifts >= depths[:, None]] = -1
    hi, lo = np.empty(index.size), np.empty(index.size)
    for start in range(0, index.size, _REFINE_CHUNK_WORDS):
        part = slice(start, start + _REFINE_CHUNK_WORDS)
        hi[part], lo[part] = _refine_extrema(
            cmap, symbols[part], cells[:, part], values[:, part], grid,
            refine_iters)
    per_depth = np.split(np.exp(hi - lo), np.cumsum(sizes)[:-1])
    reports = []
    for depth, ratios in enumerate(per_depth, 1):
        arg = int(np.argmax(ratios))
        c_k = float(ratios[arg])
        if c_k > c_theory:
            raise BoundViolationError(
                f"C_{depth} = {c_k} exceeds theoretical bound {c_theory}")
        reports.append(DistortionReport(
            depth=depth, c_k=c_k, argmax_word=Word.from_index(arg, depth),
            c_theory=c_theory, grid=grid, per_word=ratios))
    return reports


def sbd_witness(cmap: CookieMap, k: int) -> SbdWitness:
    """The window pair showing the distortion floor at vanishing image size.

    F^(2^k) maps J_{2^(k+1)-1} onto J_{2^k-1} as an affine conjugate of
    phi_t, t = block_sum(k), so its distortion is that of phi_t on [0,1]
    however small the image. alpha and beta, the extremizers of log phi_t'
    on the time-t table, are bracketed by a grid scan and refined by one
    golden_max call, the minimum as the maximum of -log phi_t'. The orbits
    run on the forward tables (CookieMap.iterate): no ODE solve once they
    exist. k is an integer in [0, _WITNESS_BLOCK_MAX], else DomainError.
    """
    k = _checks.integer(k, "witness order", 0)
    if k > _WITNESS_BLOCK_MAX:
        raise DomainError(
            f"witness order must be <= {_WITNESS_BLOCK_MAX}, got {k}")
    times = [cmap.schedule.block_sum(k)]

    def log_slope(z):
        return cmap.engine.table_flow(times, np.zeros(z.shape, np.intp), z)[1]

    axis = np.linspace(0.0, 1.0, 4097)
    scan = log_slope(axis)
    ends = np.array([np.argmax(scan), np.argmin(scan)])
    sign = np.array([1.0, -1.0])
    x, v = golden_max(lambda z: sign * log_slope(z),
                      axis[np.maximum(ends - 1, 0)],
                      axis[np.minimum(ends + 1, 4096)], _WITNESS_GOLDEN_STEPS)
    alpha, beta = x.tolist()

    steps = 1 << k
    window = (steps << 1) - 1            # 2^(k+1) - 1
    rx = cmap.iterate(ScaledPoint.in_window(window, alpha), steps)
    ry = cmap.iterate(ScaledPoint.in_window(window, beta), steps)
    measured = math.exp(rx.log_extra - ry.log_extra)
    return SbdWitness(
        k=k,
        domain=interval_J(window),
        image=interval_J(steps - 1),
        image_log_size=-steps * LN3,
        measured_ratio=measured,
        limit_ratio=math.exp(v[0] + v[1]),     # v[1] = -log phi_t'(beta)
        alpha=alpha,
        beta=beta,
    )


def sbd_profile(cmap: CookieMap, k_max: int, scales=DEFAULT_SCALES,
                grid: int = DEFAULT_GRID,
                threads: int = 1) -> list[SbdProfile]:
    """Empirical sup of distortion over pairs with image size at most 1/r.

    Searches every sampled pair inside every word of depth <= k_max (the
    uniform grid makes image sizes exact index distances; each level's
    spreads at all scales come from one _window_spreads call), plus the
    witness row: a uniform grid on J_m, m = 2^k - 1, pulled back through
    0^(m+1). Its image J_m is 3^-(m+1) of [0,1], so one more call, with
    windows 3^(m+1) times as wide, serves every scale; k is the shallowest
    block (at most 6) whose whole image clears every scale. Every value is
    a table lookup, so no ODE is solved once the tables exist. beta_hat is
    a lower estimate of the true supremum; the point is that it refuses to
    decay toward 1. The grid needs at least 33 points, and every scale r
    must lie in [1, (grid - 1) 3^(2^_WITNESS_BLOCK_MAX)]: at a larger r
    not even the deepest witness row holds a pair, and beta_hat would
    read exactly 1.
    """
    k_max = _checks.integer(k_max, "profile search depth", 1,
                            PROFILE_DEPTH_CAP)
    scales = tuple(_checks.real(r, "scale", 1.0, math.inf) for r in scales)
    grid = _checks.integer(grid, "grid points", 33)
    reach = (grid - 1) * 3.0 ** (1 << _WITNESS_BLOCK_MAX)
    if any(r > reach for r in scales):
        raise DomainError(f"scales must be <= {reach:g}, the reach of a "
                          f"{grid}-point witness row, got {max(scales):g}")
    window_cells = [int((grid - 1) // r) for r in scales]
    found, = _run_shards(
        cmap, k_max, grid, lambda extra: (_window_spreads(extra, window_cells),),
        threads)

    k = next((k for k in range(_WITNESS_BLOCK_MAX)
              if 3.0 ** (1 << k) >= max(scales, default=1.0)),
             _WITNESS_BLOCK_MAX)
    m = (1 << k) - 1
    row = pull_back_word(_PointGrid.window(m, grid), cmap, "0" * (m + 1))
    witness = _window_spreads(
        row.extra, [(grid - 1) * 3.0 ** (m + 1) // r for r in scales])
    return [SbdProfile(r=r, beta_hat=float(np.exp(max(searched, spread))))
            for r, searched, spread in zip(scales, found.max(axis=1).tolist(),
                                           witness[:, 0].tolist())]


def _interval_levels(cmap: CookieMap, cap: int):
    """Every level of basic intervals to depth cap, within _LEVEL_POINTS rows.

    The walk takes _layout's (d, B) for _LEVEL_POINTS rows a level, an
    interval row (20 bytes) counting as one point (21 bytes): breadth first
    to depth d, then each group of B rows of depth d alone, every pull-back
    one IntervalSet.pull_back call. Yields (depth, level, d, offset, B):
    row q B + s of the level holds the word q 2^d + offset + s, offset = g B
    for group g. A breadth-first level at depth D is the one group of d = D,
    B = 2^D.
    """
    d, block = _layout(_LEVEL_POINTS, cap)
    state = IntervalSet.root()
    for depth, state in enumerate(word_levels(state, cmap, d), 1):
        yield depth, state, depth, 0, len(state)
    for offset in range(0, len(state), block):
        seed = state[offset:offset + block]
        for depth, level in enumerate(word_levels(seed, cmap, cap - d), d + 1):
            yield depth, level, d, offset, block


def audit_interval_sizes(cmap: CookieMap, n_max: int, k_max: int,
                 combined_cap: int | None = None) -> SizeBoundReport:
    """Audit |I_{0^n 1 tau}| <= 3^(1-n) 2^(-k-2) exhaustively.

    _interval_levels builds every basic interval up to the combined depth,
    no level above one working-set budget. At depth D the words
    0^(D-1-k) 1 tau with tau of length k are exactly the contiguous index
    block [2^k, 2^(k+1)), so each (n, k) family is one run of rows of a
    level: [2^(k-d) B, 2^(k-d+1) B) for k >= d, and [2^k - offset,
    2^(k+1) - offset) within [0, B) for k < d. Violations are sorted by
    (depth, k, tau), the order of one breadth-first pass. Each pull-back
    solves its rows wider than WIDTH_RULE_MAX by one pair-flow batch, whose
    steps depend on the batch; on the certified map those rows are the
    first 127 words of every depth from 16 on, so at the default budget
    they stay in group 0 and every size is bitwise that of one
    breadth-first pass. The tolerance 1 + 1e-9 absorbs
    roundoff; genuine violations would flag a geometry bug.
    """
    n_max = _checks.integer(n_max, "size audit n_max", 0)
    k_max = _checks.integer(k_max, "size audit k_max", 0)
    cap = n_max + 1 + k_max
    if combined_cap is not None:
        cap = min(cap, _checks.integer(combined_cap,
                                       "size audit combined_cap", 1))
    if cap > DEPTH_CAP:
        raise DepthCapError(
            f"size audit combined depth {cap} exceeds cap {DEPTH_CAP}")
    tolerance = math.log1p(1e-9)
    checked = 0
    min_slack = math.inf
    bad: list[tuple[int, int, int]] = []
    for depth, table, d, offset, block in _interval_levels(cmap, cap):
        for k in range(max(0, depth - 1 - n_max), min(k_max, depth - 1) + 1):
            if k >= d:
                lo, hi = block << (k - d), block << (k - d + 1)
            else:
                lo = max(0, (1 << k) - offset)
                hi = min(block, (2 << k) - offset)
            if lo >= hi:
                continue
            n = depth - 1 - k
            family = table[lo:hi].log_sizes()
            bound = (1.0 - n) * LN3 - (k + 2) * LN2
            # rounding is monotone, so this is the least of bound - family
            min_slack = min(min_slack, float(bound - family.max()))
            checked += family.size
            rows = lo + np.flatnonzero(family > bound + tolerance)
            taus = (rows // block << d) + offset + rows % block - (1 << k)
            bad.extend((depth, k, tau) for tau in taus.tolist())
    violations = [(depth - 1 - k, Word.from_index(tau, k))
                  for depth, k, tau in sorted(bad)]
    return SizeBoundReport(checked=checked, violations=violations,
                        min_slack_factor=math.exp(min_slack))

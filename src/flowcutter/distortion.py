"""Distortion of iterates over basic intervals; the two headline experiments.

The positive experiment (bd_sweep): the worst derivative ratio of F^k over
any depth-k interval stays below the block-product bound built from the
certified curvature constant M, at every depth, with shrinking increments.

The negative experiment (sbd_witness / sbd_profile): the windows
J_{2^(k+1)-1} map onto J_{2^k-1} under F^(2^k) with every affine factor
cancelling, leaving exactly the distortion of the time-T flow. The image
size shrinks like 3^(-2^k) while the distortion does not move, so the
distortion bound cannot improve toward 1 at small image scales.

All sweeps run on (words x grid) arrays, walked by symbolic.word_levels
(level j+1 stacks both pullbacks of level j) from a suffix or single word
seeded by symbolic.pull_back_word. The grid of a word is always the
inverse image of one fixed uniform grid on [0,1], so the grid position of
a sample IS its normalized image coordinate under F^k, which the profile
search uses directly. Extrema are sharpened by one golden-section pass run
in lockstep across every word of every depth of a shard.

Every pull-back goes through CookieMap.inverse_batch, whose window flows
are lookups in per-time displacement tables, a pure function of each point.
A word's ratio is therefore bitwise the same whether distortion() computes
it alone or a sweep computes it among other words, depths, shards or
threads.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from .cookie import LN3, CookieMap, interval_J
from .errors import BoundViolationError, DepthCapError, DomainError
from .optimize import INV_PHI, INV_PHI_SQ, golden_max, golden_min
from .scaled import PointBatch, ScaledPoint
from .symbolic import IntervalSet, Word, pull_back_word, word_levels

LN2 = math.log(2.0)

DEFAULT_GRID = 257
DEFAULT_REFINE_ITERS = 24
EXHAUSTIVE_DEPTH_CAP = 16
PROFILE_DEPTH_CAP = 14
SIZE_AUDIT_CAP = 20
DEFAULT_SCALES = (1.0, 3.0, 9.0, 27.0, 81.0)

_WITNESS_ORDERS = (2, 4, 6)


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
    """The convergent block product prod_i (1 + 27 M 2^(-i-2))."""
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

class _PointGrid:
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

    def pull_back(self, cmap: CookieMap, symbol: int) -> "_PointGrid":
        batch = PointBatch(self.locus, self.n, self.u)
        child, delta = cmap.inverse_batch(symbol, batch)
        return _PointGrid(child.locus, child.n, child.u, self.extra + delta)

    @classmethod
    def stack(cls, a: "_PointGrid", b: "_PointGrid") -> "_PointGrid":
        """The rows of a above the rows of b."""
        return cls(**{k: np.vstack([getattr(a, k), getattr(b, k)])
                      for k in cls.__slots__})


def _compose_extras(cmap: CookieMap, symbols: np.ndarray,
                    s: np.ndarray) -> np.ndarray:
    """log (F^k)' - k ln 3 at the points f_w(s), one word per task.

    symbols has shape (tasks, k) with the first symbol leftmost; the
    composition runs inside out, grouping tasks by symbol per position.
    A symbol of -1 is padding and leaves its task untouched, so words of
    different lengths ride in one batch right-aligned.
    """
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


def _grid_extrema(extra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row grid argmax and argmin cells and their values.

    Both results have shape (2, rows): row 0 for the maxima, row 1 for the
    minima. Only these O(rows) arrays outlive a sweep level.
    """
    cells = np.stack([np.argmax(extra, axis=1), np.argmin(extra, axis=1)])
    values = np.take_along_axis(extra, cells.T, axis=1).T
    return cells, values


def _refine_extrema(cmap: CookieMap, word_ints: np.ndarray,
                    depths: np.ndarray, cells: np.ndarray,
                    values: np.ndarray, grid: int, iters: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section sharpening of per-word extra maxima and minima.

    Row r is the word word_ints[r] of length depths[r], with its grid
    extrema (cells, values) from _grid_extrema. Brackets are the one-cell
    neighborhoods of the grid extrema in the normalized coordinate; every
    word of every depth of a shard advances in lockstep, one batched
    evaluation per iteration, with shorter words left-padded so that each
    composes through exactly its own symbols. Maximum and minimum tasks
    ride in the same batch with opposite signs. The result is never below
    the grid value it refines.
    """
    grid_hi, grid_lo = values
    if iters <= 0:
        return grid_hi, grid_lo
    rows = word_ints.size
    s_axis = np.linspace(0.0, 1.0, grid)
    cells = cells.ravel()
    sign = np.concatenate([np.ones(rows), -np.ones(rows)])
    a = s_axis[np.maximum(cells - 1, 0)]
    b = s_axis[np.minimum(cells + 1, grid - 1)]

    shifts = np.arange(int(depths.max()) - 1, -1, -1, dtype=np.int64)
    symbols = ((word_ints[:, None] >> shifts[None, :]) & 1).astype(np.int8)
    symbols[shifts[None, :] >= depths[:, None]] = -1
    symbols = np.vstack([symbols, symbols])

    def evaluate(points):
        return sign * _compose_extras(cmap, symbols, points)

    h = b - a
    x1 = a + INV_PHI_SQ * h
    x2 = a + INV_PHI * h
    f1 = evaluate(x1)
    f2 = evaluate(x2)
    for _ in range(iters):
        take = f1 > f2                      # keep the left subinterval
        b = np.where(take, x2, b)
        a = np.where(take, a, x1)
        h = b - a
        cand1 = a + INV_PHI_SQ * h
        cand2 = a + INV_PHI * h
        probe = np.where(take, cand1, cand2)
        f_probe = evaluate(probe)
        x1, x2, f1, f2 = (
            np.where(take, cand1, x2),
            np.where(take, x1, cand2),
            np.where(take, f_probe, f2),
            np.where(take, f1, f_probe),
        )
    best = np.maximum(f1, f2)
    hi = np.maximum(grid_hi, best[:rows])
    lo = np.minimum(grid_lo, -best[rows:])
    return hi, lo


# ----------------------------------------------------------------------
# the sweep core
# ----------------------------------------------------------------------

def _window_spread(extra: np.ndarray, window_cells: int) -> float:
    """Largest max-minus-min of extra over index windows of the given span."""
    size = window_cells + 1
    hi = maximum_filter1d(extra, size=size, axis=1, mode="nearest")
    lo = minimum_filter1d(extra, size=size, axis=1, mode="nearest")
    return float(np.max(hi - lo))


def _sweep_shard(cmap: CookieMap, suffix: str, k_max: int, grid: int,
                 refine_iters: int, scales) -> dict[int, dict]:
    """Sweep every word ending in the given suffix, at every depth.

    The tree is walked level by level, keeping only each row's grid
    extrema (and, when scales are requested, the windowed grid spreads for
    the profile search); one refine pass then covers all rows of all
    depths. Returns per-depth shard results: refined per-word ratios in
    prefix order, and the window spreads.
    """
    d = len(suffix)
    suffix_int = int(suffix, 2) if suffix else 0
    state = pull_back_word(_PointGrid.root(grid), cmap, suffix)
    levels = word_levels(state, cmap, k_max - d)
    if d:
        levels = itertools.chain([state], levels)
    out: dict[int, dict] = {}
    word_ints, depths, cells, values = [], [], [], []
    for depth, state in enumerate(levels, max(d, 1)):
        rows = np.arange(state.u.shape[0], dtype=np.int64)
        word_ints.append(rows * (1 << d) + suffix_int)
        depths.append(np.full(rows.size, depth, dtype=np.int64))
        level_cells, level_values = _grid_extrema(state.extra)
        cells.append(level_cells)
        values.append(level_values)
        entry: dict = {}
        if scales:
            entry["window"] = {
                float(r): _window_spread(state.extra,
                                         int((grid - 1) // r))
                for r in scales
            }
        out[depth] = entry
    hi, lo = _refine_extrema(cmap, np.concatenate(word_ints),
                             np.concatenate(depths),
                             np.concatenate(cells, axis=1),
                             np.concatenate(values, axis=1), grid,
                             refine_iters)
    ratios = np.exp(hi - lo)
    start = 0
    for entry, level in zip(out.values(), word_ints):
        entry["ratios"] = ratios[start:start + level.size]
        start += level.size
    return out


def _run_shards(cmap: CookieMap, k_max: int, grid: int, refine_iters: int,
                scales, threads: int, shard_depth: int) -> dict[int, dict]:
    """Shard the word tree by suffix, sweep each shard, merge in lex order.

    Sharding bounds the working set (each shard holds 2^(k-shard_depth)
    rows at depth k) and gives the thread pool independent units. Merging
    is index placement plus elementwise maxima in a fixed order, so the
    result is bit-identical for any thread count.
    """
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    shard_depth = max(0, min(shard_depth, k_max))
    suffixes = ([""] if shard_depth == 0 else
                [format(i, f"0{shard_depth}b") for i in range(1 << shard_depth)])
    jobs = [(sfx, k_max) for sfx in suffixes]
    if shard_depth >= 2:
        # depths below the shard seam, covered by one cheap unsharded pass
        jobs.insert(0, ("", shard_depth - 1))

    def run(job):
        sfx, cap = job
        return _sweep_shard(cmap, sfx, cap, grid, refine_iters, scales)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(j) for j in jobs]

    merged: dict[int, dict] = {
        k: {"ratios": np.full(1 << k, np.nan),
            "window": {float(r): -np.inf for r in (scales or ())}}
        for k in range(1, k_max + 1)
    }
    for (sfx, _cap), shard in zip(jobs, results):
        d = len(sfx)
        sfx_int = int(sfx, 2) if sfx else 0
        for depth, entry in shard.items():
            slot = merged[depth]
            if d == 0:
                slot["ratios"][:] = entry["ratios"]
            else:
                slot["ratios"][sfx_int::1 << d] = entry["ratios"]
            for r, spread in entry.get("window", {}).items():
                slot["window"][r] = max(slot["window"][r], spread)
    for depth, slot in merged.items():
        if np.isnan(slot["ratios"]).any():
            raise RuntimeError(f"sweep left depth {depth} incomplete (bug)")
    return merged


def _default_shard_depth(k_max: int) -> int:
    # keep each shard near or below ~2^11 rows at full depth
    return max(0, min(6, k_max - 11))


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def distortion(cmap: CookieMap, word: Word | str, grid: int = DEFAULT_GRID,
               refine_iters: int = DEFAULT_REFINE_ITERS) -> float:
    """sup (F^k)' / inf (F^k)' over I_w.

    Samples log (F^k)' on the inverse image of a uniform grid in the
    normalized coordinate, sharpens both extrema by golden section, and
    exponentiates the spread. Affine-only words return exactly 1.
    """
    if grid < 33:
        raise DomainError(f"need at least 33 grid points, got {grid}")
    word = Word.of(word)
    state = pull_back_word(_PointGrid.root(grid), cmap, word.bits)
    cells, values = _grid_extrema(state.extra)
    hi, lo = _refine_extrema(cmap, np.array([word.index], dtype=np.int64),
                             np.array([len(word)], dtype=np.int64), cells,
                             values, grid, refine_iters)
    return float(np.exp(hi[0] - lo[0]))


def bd_sweep(cmap: CookieMap, k_max: int, grid: int = DEFAULT_GRID,
             refine_iters: int = DEFAULT_REFINE_ITERS, threads: int = 1,
             shard_depth: int | None = None) -> list[DistortionReport]:
    """Exhaustive per-depth distortion maxima against the block bound.

    Computes C_k = max over all 2^k words of distortion(word) for every
    k <= k_max, along with the theoretical ceiling built from the
    certified curvature constant. Raises BoundViolationError if any C_k
    exceeds the ceiling (which would mean a mis-certified M or a bug, not
    new mathematics).
    """
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    if k_max > EXHAUSTIVE_DEPTH_CAP:
        raise DepthCapError(
            f"exhaustive sweep capped at depth {EXHAUSTIVE_DEPTH_CAP}, got {k_max}")
    if grid < 33:
        raise DomainError(f"need at least 33 grid points, got {grid}")
    if shard_depth is None:
        shard_depth = _default_shard_depth(k_max)
    c_theory = theoretical_bound(cmap.constants.M)
    merged = _run_shards(cmap, k_max, grid, refine_iters, None, threads,
                         shard_depth)
    reports = []
    for depth in range(1, k_max + 1):
        ratios = merged[depth]["ratios"]
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

    For even k, F^(2^k) maps J_{2^(k+1)-1} onto J_{2^k-1} as an affine
    conjugate of the time-T flow, so its distortion equals the distortion
    of phi_T on [0,1] no matter how small the image window is. alpha and
    beta are canonicalized as the extremizers of log phi_T', located by a
    grid scan plus golden section on the time-T table; the orbits run on
    the forward tables (CookieMap.iterate), so no ODE solve once they exist.
    """
    if k % 2 != 0:
        raise DomainError(f"witness order must be even (odd orders flow by -T), got {k}")
    if not 2 <= k <= 6:
        raise DomainError(f"witness order must be in [2, 6], got {k}")
    T = cmap.constants.T

    def log_slope(z):
        z = np.atleast_1d(z)
        return cmap.engine.table_flow([T], np.zeros(z.shape, np.intp), z)[1]

    axis = np.linspace(0.0, 1.0, 4097)
    scan = log_slope(axis)
    cell = 1.0 / 4096.0

    def bracket(i):
        x = float(axis[i])
        return max(0.0, x - cell), min(1.0, x + cell)

    alpha, v_alpha = golden_max(lambda z: float(log_slope(z)[0]),
                                *bracket(int(np.argmax(scan))), tol=1e-13)
    beta, v_beta = golden_min(lambda z: float(log_slope(z)[0]),
                              *bracket(int(np.argmin(scan))), tol=1e-13)

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
        limit_ratio=math.exp(v_alpha - v_beta),
        alpha=alpha,
        beta=beta,
    )


def sbd_profile(cmap: CookieMap, k_max: int, scales=DEFAULT_SCALES,
                grid: int = DEFAULT_GRID, threads: int = 1,
                shard_depth: int | None = None,
                include_witness: bool = True) -> list[SbdProfile]:
    """Empirical sup of distortion over pairs with image size at most 1/r.

    Searches every sampled pair inside every word of depth <= k_max (the
    uniform grid makes image sizes exact index distances), then widens the
    search with the witness windows, whose pairs qualify at any scale that
    their 3^(-2^k) image size clears. beta_hat is a lower estimate of the
    true supremum; the point is that it refuses to decay toward 1.
    """
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    if k_max > PROFILE_DEPTH_CAP:
        raise DepthCapError(
            f"profile search capped at depth {PROFILE_DEPTH_CAP}, got {k_max}")
    scales = tuple(float(r) for r in scales)
    if any(r < 1.0 for r in scales):
        raise DomainError("scales must be >= 1")
    if shard_depth is None:
        shard_depth = _default_shard_depth(k_max)
    merged = _run_shards(cmap, k_max, grid, refine_iters=0, scales=scales,
                         threads=threads, shard_depth=shard_depth)
    spreads = {r: max(merged[depth]["window"][r]
                      for depth in range(1, k_max + 1))
               for r in scales}

    if include_witness:
        axis = np.linspace(0.0, 1.0, grid)
        pos, slope = cmap.engine.evolve(cmap.constants.T, axis, order=1)
        vals = np.log(slope)
        for order in _WITNESS_ORDERS:
            image_scale = 3.0 ** (-(1 << order))
            full = float(vals.max() - vals.min())
            for r in scales:
                if (pos[-1] - pos[0]) * image_scale <= 1.0 / r:
                    spreads[r] = max(spreads[r], full)
                else:
                    step = float(np.max(np.diff(pos))) * image_scale
                    cells = int((1.0 / r) / step)
                    if cells >= 1:
                        spreads[r] = max(
                            spreads[r],
                            _window_spread(vals[None, :], cells))
    return [SbdProfile(r=r, beta_hat=float(np.exp(spreads[r]))) for r in scales]


def audit_interval_sizes(cmap: CookieMap, n_max: int, k_max: int,
                 combined_cap: int | None = None) -> SizeBoundReport:
    """Audit |I_{0^n 1 tau}| <= 3^(1-n) 2^(-k-2) exhaustively.

    One breadth-first pass builds every basic interval up to the combined
    depth; at depth d the words 0^(d-1-k) 1 tau with tau of length k are
    exactly the contiguous index block [2^k, 2^(k+1)), so each (n, k)
    family is a slice of the running table. The tolerance 1 + 1e-9 absorbs
    roundoff; genuine violations would flag a geometry bug.
    """
    if n_max < 0 or k_max < 0:
        raise DomainError("n_max and k_max must be >= 0")
    cap = n_max + 1 + k_max
    if combined_cap is not None:
        cap = min(cap, combined_cap)
    if cap > SIZE_AUDIT_CAP:
        raise DepthCapError(
            f"size audit capped at combined depth {SIZE_AUDIT_CAP}, got {cap}")
    tolerance = math.log1p(1e-9)
    checked = 0
    min_slack = math.inf
    violations: list[tuple[int, Word]] = []
    for depth, table in enumerate(word_levels(IntervalSet.root(), cmap, cap), 1):
        logs = table.log_sizes()
        for k in range(0, min(k_max, depth - 1) + 1):
            n = depth - 1 - k
            if n > n_max:
                continue
            family = logs[1 << k: 1 << (k + 1)]
            bound = (1.0 - n) * LN3 - (k + 2) * LN2
            slack = bound - family
            min_slack = min(min_slack, float(slack.min()))
            checked += family.size
            bad = np.flatnonzero(family > bound + tolerance)
            violations.extend((n, Word.from_index(int(i), k)) for i in bad)
    return SizeBoundReport(checked=checked, violations=violations,
                        min_slack_factor=math.exp(min_slack))

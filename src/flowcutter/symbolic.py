"""Binary addresses, inverse branches, and the basic-interval hierarchy.

A word over {0,1} of length k names the branch pieces visited by the first
k iterates: x belongs to I_w exactly when F^(j-1)(x) sits in the piece
labeled w_j (0 = left, 1 = right). F^k maps each I_w diffeomorphically onto
[0,1], and lexicographic order on words matches left-to-right order of the
intervals.

Interval endpoints are built by composing exact inverse branches from the
inside out, never by root finding; the flow half of the 0-branch reads the
engine's displacement tables. Each interval is one row (n, u_lo, d) in
the chart x = (u + 2)/3^(n+1), the word 0^j being the row [-2, 1]. Widths
ride along as their own variable: a narrow width by the mean-value rule
on the tables, a wide one by the cancellation-free pair flow, so log
sizes keep full relative precision at depths where raw endpoint
subtraction would return garbage. IntervalSet.pull_back writes a
pull-back into a new set or into given rows. Its 0-branch reads the rows
in the lookup kernel's blocks and repairs the rows 0^j by index.

Every analysis walks the word tree with word_levels, the one breadth-first
level walker, or pull_back_word, one word inside out. Both take any
WordRows state with pull_back: intervals here, point grids in
flowcutter.distortion, whose pull_back is CookieMap.inverse_batch. Every
level is made by one rule, the two pull-backs written into the two halves
of one new state. Single points go through inverse_branch, the point form
of the pull-back kernel (CookieMap.inverse_point, which states
CookieMap.inverse_batch's branch rules for one point and reads the tables
in Python floats), bitwise the batch's result.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _checks
from .cookie import LN3, CookieMap
from .errors import DomainError
from .flow import lookup_blocks
from .scaled import ScaledPoint, _pow3_batch

DEPTH_CAP = 20

# Widths up to WIDTH_RULE_MAX (unit coordinates of the window) are pulled
# back by the mean-value rule on the displacement tables with the 3-node
# Gauss-Legendre rule below, wider ones by the pair-flow ODE, which keeps
# full relative precision at any width. Max |d log|I_w|| over the depth-16
# table against a tol-1e-14 pair-flow solve: 2.1e-14 at (1e-3, 3 nodes),
# 1.4e-14 at (1e-2, 4), 1.2e-13 at (1e-2, 3); the tol-1e-13 pair flow
# alone reads 3.2e-14. At (1e-3, 3) a depth-20 walk sends 1 771 of its
# 1.05 M common 0-branch rows to the ODE.
WIDTH_RULE_MAX = 1e-3
# nodes and weights on [0, 1], in closed form: numpy's leggauss would load
# LAPACK at import, which costs every workload about 0.7 MiB of RSS
WIDTH_NODES = (0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15))
WIDTH_WEIGHTS = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)

# float64's smallest normal number, 2^-1022: about 3^-644.8
_TINY = np.finfo(float).tiny
_WORD_RE = re.compile(r"[01]*\Z")


@dataclass(frozen=True, order=True)
class Word:
    """A finite binary address; compares lexicographically."""

    bits: str

    def __post_init__(self):
        if not _WORD_RE.match(self.bits):
            raise DomainError(f"word must use symbols 0/1, got {self.bits!r}")

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return (int(c) for c in self.bits)

    def __str__(self) -> str:
        return self.bits

    @staticmethod
    def of(w: "Word | str") -> "Word":
        return w if isinstance(w, Word) else Word(w)

    @staticmethod
    def from_index(index: int, length: int) -> "Word":
        """The index-th word of the given length in lexicographic order;
        DomainError unless length >= 0 and 0 <= index < 2^length are
        integers."""
        length = _checks.integer(length, "bit length of the word index", 0)
        index = _checks.integer(index, "word index", 0)
        if index >= 1 << length:
            raise DomainError(f"word index {index} outside [0, 2^{length})")
        return Word(format(index, f"0{length}b") if length else "")


@dataclass(frozen=True)
class BlockDecomposition:
    """Maximal-run structure w = 0^m1 1^n1 ... 0^mL 1^nL.

    Interior runs are nonempty; only m_1 (word starts with 1) or n_L (word
    ends with 0) may vanish. tails[j] counts the symbols strictly after the
    j-th zero-run, n_j + sum_{i>j} (m_i + n_i); they decrease strictly, so
    they are pairwise distinct.
    """

    blocks: tuple[tuple[int, int], ...]

    @property
    def tails(self) -> tuple[int, ...]:
        out = []
        suffix = 0
        for m, n in reversed(self.blocks):
            out.append(n + suffix)
            suffix += m + n
        return tuple(reversed(out))

    def rebuild(self) -> Word:
        return Word("".join("0" * m + "1" * n for m, n in self.blocks))


def decompose_blocks(word: Word | str) -> BlockDecomposition:
    """Split a word into its maximal zero/one runs."""
    bits = Word.of(word).bits
    blocks: list[tuple[int, int]] = []
    i = 0
    while i < len(bits):
        m = 0
        while i < len(bits) and bits[i] == "0":
            m += 1
            i += 1
        n = 0
        while i < len(bits) and bits[i] == "1":
            n += 1
            i += 1
        blocks.append((m, n))
    return BlockDecomposition(tuple(blocks))


def inverse_branch(cmap: CookieMap, symbol: int, p: ScaledPoint) -> ScaledPoint:
    """The unique preimage of p under the branch named by symbol.

    The preimage CookieMap.inverse_point gives, which states
    inverse_batch's branch rules for one point and is bitwise its result:
    symbol 1 is the affine pullback into [2/3, 1]; symbol 0 pulls windows
    back one level through the backward flow and shifts gap coordinates
    down unchanged. Every point of [0,1] has exactly one preimage per
    branch, hole points included. symbol is the integer 0 or 1, else
    DomainError.
    """
    return cmap.inverse_point(symbol, p)[0]


class WordRows:
    """A word-tree state: the arrays named by __slots__, whose first axis
    runs over the rows, one row per word. word_levels walks any such
    state with a pull_back(cmap, symbol, *, out=None) that writes into
    out if it is given."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __getitem__(self, rows: slice):
        """A run of rows: a state of views of these arrays."""
        return type(self)(*(getattr(self, key)[rows]
                            for key in self.__slots__))

    def empty(self, rows: int):
        """A new state of `rows` uninitialised rows, with these arrays'
        dtypes and row shapes."""
        arrays = (getattr(self, key) for key in self.__slots__)
        return type(self)(*(np.empty((rows, *a.shape[1:]), a.dtype)
                            for a in arrays))


def pull_back_word(state, cmap: CookieMap, bits: str):
    """Pull state (intervals or a point grid) back through bits, inside out."""
    for symbol in reversed(bits):
        state = state.pull_back(cmap, int(symbol))
    return state


def word_levels(state: WordRows, cmap: CookieMap, levels: int):
    """The breadth-first word-tree walk: yield the next `levels` levels.

    One rule makes every level, for intervals and point grids alike: a
    new state of twice the rows, whose top half pull_back(0) and bottom
    half pull_back(1) of the level before it write straight into.
    Prepending the symbol s to a word with index i among 2^j words gives
    index s * 2^j + i, so rows stay in lexicographic word order.
    """
    for _ in range(levels):
        rows = len(state)
        level = state.empty(2 * rows)
        state.pull_back(cmap, 0, out=level[:rows])
        state.pull_back(cmap, 1, out=level[rows:])
        state = level
        yield state


@dataclass(frozen=True)
class BasicInterval:
    """I_w with scaled endpoints and a full-precision log size."""

    word: Word
    left: ScaledPoint
    right: ScaledPoint
    log_size: float

    @property
    def size(self) -> float:
        return math.exp(self.log_size)


def _mean_value_width(cmap: CookieMap, k: np.ndarray, x: np.ndarray,
                      w: np.ndarray) -> np.ndarray:
    """The width phi_t(x + w) - phi_t(x), t = -block_time(k), as w times the
    Gauss-Legendre mean of phi_t' = exp(log slope) over [x, x + w].

    Every node is a table lookup, one node at a time over all the rows
    given (a nodes x rows batch would hold all of them at once); each
    row's width is a pure function of its own (k, x, w). IntervalSet's
    0-branch calls it on one lookup block at a time, right after that
    block's left ends.
    """
    mean = np.zeros_like(w)
    for node, weight in zip(WIDTH_NODES, WIDTH_WEIGHTS):
        _, log_slope = cmap.block_flow(k, x + node * w)
        mean += weight * np.exp(log_slope)
    return w * mean


class IntervalSet(WordRows):
    """Chart state (n, u_lo, d) for families of basic intervals.

    Row i is the raw interval (u + 2)/3^(n+1), u in [u_lo, min(u_lo + d, 1)]:
    chart index n, left chart coordinate u_lo and width d, never recomputed
    by subtraction. Chart n on [0, 1] is the window J_n and u = -2 is the
    point 0, so the word 0^j is the row [-2, 1] of chart j, [0, 3^-j]; every
    other word lies in one window. One kernel, pull_back, writes every
    pull-back, word_levels' halves of a level included.
    """

    __slots__ = ("n", "u_lo", "d")

    def __init__(self, n, u_lo, d):
        self.n = n                    # int32: chart (window) index
        self.u_lo = u_lo              # float64: left chart coordinate
        self.d = d                    # float64: width in chart coordinates

    @classmethod
    def root(cls) -> "IntervalSet":
        """The seed interval [0,1] = I_(empty word)."""
        return cls(n=np.array([0], dtype=np.int32), u_lo=np.array([-2.0]),
                   d=np.array([3.0]))

    @property
    def size(self) -> int:
        return self.n.size

    def pull_back(self, cmap: CookieMap, symbol: int, *,
                  out: "IntervalSet | None" = None) -> "IntervalSet":
        """Apply one inverse branch to every interval in the family and
        return the rows, written into out if it is given (word_levels
        passes the halves of one new level), else into a new set. symbol
        is the integer 0 or 1, else DomainError; out must hold as many
        rows, else DomainError, with this set's dtypes, as a new set has.

        The 1-branch divides every row by 3^(n+1). The 0-branch reads the
        rows in the lookup kernel's blocks (flow.lookup_blocks): a block's
        left ends flow by one block_flow call and its widths by the
        mean-value rule while the block is in cache. Each row is a pure
        function of its own (n, u_lo, d), so no row depends on its block.
        The rows wider than WIDTH_RULE_MAX are then solved again by one
        evolve_interval call, the batch of every such row in the set, and
        the rows 0^j (u_lo < 0) are put back by index: they take n + 1
        only. Their lookups read a block index of a row in a window, so
        they build no table, and a set with no row in a window makes no
        lookup.
        """
        symbol = _checks.symbol(symbol)
        if out is None:
            out = self.empty(self.size)
        elif out.size != self.size:
            raise DomainError(f"out has {out.size} rows, the set {self.size}")
        if symbol == 1:
            # (x + 2)/3: the new chart coordinate is the raw x, so all rows
            # land in chart 0; each divides by the correctly rounded
            # 3^(n+1), as PointBatch.raw does
            pow3 = _pow3_batch(self.n + 1)
            d = np.divide(self.d, pow3, out=out.d)
            # a positive raw width below _TINY loses its digits, or its
            # size if it rounds to 0; a zero width (a point) stays one
            if d.size and d.min() < _TINY and self.d[d < _TINY].any():
                raise DomainError("word too long: its width underflows")
            out.n.fill(0)
            np.add(self.u_lo, 2.0, out=out.u_lo)
            out.u_lo /= pow3
            return out
        np.add(self.n, 1, out=out.n)
        # the rows 0^j (u_lo = -2) only take n + 1: the 0-branch maps
        # [0, 3^-n] onto [0, 3^-(n+1)]
        inside = self.u_lo >= 0.0
        off = np.flatnonzero(~inside)
        if off.size < self.size:
            k = cmap.schedule.blocks(out.n)
            k[off] = k[np.argmax(inside)]
            for block in lookup_blocks(self.size):
                u_lo, d = self.u_lo[block], self.d[block]
                out.u_lo[block] = cmap.block_flow(k[block], u_lo)[0]
                out.d[block] = _mean_value_width(cmap, k[block], u_lo, d)
            wide = np.flatnonzero(inside & ~(self.d <= WIDTH_RULE_MAX))
            if wide.size:
                t = -cmap.schedule.flow_times(out.n[wide])
                _, out.d[wide] = cmap.engine.evolve_interval(
                    t, self.u_lo[wide], self.d[wide])
        out.u_lo[off] = self.u_lo[off]
        out.d[off] = self.d[off]
        return out

    def log_sizes(self) -> np.ndarray:
        """ln |I_w| per row, full relative precision."""
        return np.log(self.d) + -(self.n + 1.0) * LN3

    def endpoints(self, i: int) -> tuple[ScaledPoint, ScaledPoint]:
        n, u_lo = int(self.n[i]), float(self.u_lo[i])
        right = ScaledPoint.in_window(n, min(u_lo + float(self.d[i]), 1.0))
        if u_lo < 0.0:
            return ScaledPoint.zero(), right
        return ScaledPoint.in_window(n, u_lo), right


def interval_table(cmap: CookieMap, depth: int) -> IntervalSet:
    """All 2^depth basic intervals, rows indexed by word in lex order.

    The last level of the breadth-first walk word_levels from [0,1]. Full
    enumeration is capped at DEPTH_CAP (2^20 intervals is about the
    desk-scale limit); deeper studies should target explicit word lists.
    """
    depth = _checks.integer(depth, "interval table depth", 0, DEPTH_CAP)
    table = IntervalSet.root()
    for table in word_levels(table, cmap, depth):
        pass
    return table


def _basic_interval(table: IntervalSet, logs: np.ndarray, i: int,
                    word: Word) -> BasicInterval:
    """Row i of table, whose log sizes are logs, as the BasicInterval I_word."""
    left, right = table.endpoints(i)
    return BasicInterval(word=word, left=left, right=right,
                         log_size=float(logs[i]))


def basic_interval(cmap: CookieMap, word: Word | str) -> BasicInterval:
    """I_w from inside-out composition of inverse branches."""
    word = Word.of(word)
    table = pull_back_word(IntervalSet.root(), cmap, word.bits)
    return _basic_interval(table, table.log_sizes(), 0, word)


def enumerate_intervals(cmap: CookieMap, depth: int
                        ) -> Iterator[BasicInterval]:
    """Every I_w of the given depth, left to right: interval_table, whose
    depth check runs on the call, then one BasicInterval per row as the
    iterator is read."""
    table = interval_table(cmap, depth)
    logs = table.log_sizes()
    return (_basic_interval(table, logs, i, Word.from_index(i, depth))
            for i in range(table.size))

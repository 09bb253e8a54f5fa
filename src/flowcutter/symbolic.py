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
subtraction would return garbage.

Every analysis walks the word tree with word_levels, the one breadth-first
level walker, or pull_back_word, one word inside out; both take any state
with pull_back and children. Single points go through inverse_branch, the
point form of the pull-back kernel (CookieMap.inverse_point, which states
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


def pull_back_word(state, cmap: CookieMap, bits: str):
    """Pull state (intervals or a point grid) back through bits, inside out."""
    for symbol in reversed(bits):
        state = state.pull_back(cmap, int(symbol))
    return state


def word_levels(state, cmap: CookieMap, levels: int):
    """The breadth-first word-tree walk: yield the next `levels` levels.

    Each level is state.children(cmap): the rows of both pullbacks of the
    level before it, the 0-pullback first. Prepending the symbol s to a
    word with index i among 2^j words gives index s * 2^j + i, so rows
    stay in lexicographic word order.
    """
    for _ in range(levels):
        state = state.children(cmap)
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

    Every node is a table lookup, one node at a time over all rows (a
    nodes x rows batch would hold all of them at once); each row's width
    is a pure function of its own (k, x, w).
    """
    mean = np.zeros_like(w)
    for node, weight in zip(WIDTH_NODES, WIDTH_WEIGHTS):
        _, log_slope = cmap.block_flow(k, x + node * w)
        mean += weight * np.exp(log_slope)
    return w * mean


class IntervalSet:
    """Chart state (n, u_lo, d) for families of basic intervals.

    Row i is the raw interval (u + 2)/3^(n+1), u in [u_lo, min(u_lo + d, 1)]:
    chart index n, left chart coordinate u_lo and width d, never recomputed
    by subtraction. Chart n on [0, 1] is the window J_n and u = -2 is the
    point 0, so the word 0^j is the row [-2, 1] of chart j, [0, 3^-j]; every
    other word lies in one window. The 0-branch moves only the rows inside
    their window: the left end by the tables, a width d <= WIDTH_RULE_MAX by
    the mean-value rule on the tables, a wider one by the pair flow
    FlowEngine.evolve_interval.
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

    @classmethod
    def stack(cls, a: "IntervalSet", b: "IntervalSet") -> "IntervalSet":
        """The rows of a followed by the rows of b."""
        return cls(**{k: np.concatenate([getattr(a, k), getattr(b, k)])
                      for k in cls.__slots__})

    def children(self, cmap: CookieMap) -> "IntervalSet":
        """The next word-tree level: the stacked rows of pull_back(0) and
        pull_back(1)."""
        return self.stack(self.pull_back(cmap, 0), self.pull_back(cmap, 1))

    @property
    def size(self) -> int:
        return self.n.size

    def pull_back(self, cmap: CookieMap, symbol: int) -> "IntervalSet":
        """Apply one inverse branch to every interval in the family."""
        if _checks.symbol(symbol) == 1:
            # (x + 2)/3: the new chart coordinate is the raw x, so all rows
            # land in chart 0; each divides by the correctly rounded
            # 3^(n+1), as PointBatch.raw does
            pow3 = _pow3_batch(self.n + 1)
            d = self.d / pow3
            # a positive raw width below _TINY loses its digits, or its
            # size if it rounds to 0; a zero width (a point) stays one
            if d.size and d.min() < _TINY and self.d[d < _TINY].any():
                raise DomainError("word too long: its width underflows")
            return IntervalSet(n=np.zeros(self.size, dtype=np.int32),
                               u_lo=(self.u_lo + 2.0) / pow3, d=d)
        # the rows 0^j (u_lo = -2) only take n + 1: the 0-branch maps
        # [0, 3^-n] onto [0, 3^-(n+1)]
        inside = self.u_lo >= 0.0
        k = cmap.schedule.blocks(self.n + 1)
        u_lo, d = self.u_lo.copy(), self.d.copy()
        if inside.any():
            u_lo[inside] = cmap.block_flow(k[inside], self.u_lo[inside])[0]
        narrow = inside & (self.d <= WIDTH_RULE_MAX)
        if narrow.any():
            d[narrow] = _mean_value_width(cmap, k[narrow], self.u_lo[narrow],
                                          self.d[narrow])
        wide = inside & ~narrow
        if wide.any():
            t = -cmap.schedule.flow_times(self.n[wide] + 1)
            _, d[wide] = cmap.engine.evolve_interval(t, self.u_lo[wide],
                                                     self.d[wide])
        return IntervalSet(n=(self.n + 1).astype(np.int32), u_lo=u_lo, d=d)

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

"""Binary addresses, inverse branches, and the basic-interval hierarchy.

A word over {0,1} of length k names the branch pieces visited by the first
k iterates: x belongs to I_w exactly when F^(j-1)(x) sits in the piece
labeled w_j (0 = left, 1 = right). F^k maps each I_w diffeomorphically onto
[0,1], and lexicographic order on words matches left-to-right order of the
intervals.

Interval endpoints are built by composing exact inverse branches from the
inside out, never by root finding; the flow half of the 0-branch reads the
engine's displacement tables. Widths ride along as their own variable,
never recomputed by subtraction: a narrow width by the mean-value rule on
the tables, a wide one by the cancellation-free pair flow, so log sizes
keep full relative precision at depths where raw endpoint subtraction
would return garbage.

Every analysis walks the word tree with word_levels, the one breadth-first
level walker, or pull_back_word, one word inside out; both take any state
with pull_back and stack. Single points go through inverse_branch, a batch
of one over the one pull-back kernel, CookieMap.inverse_batch.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .cookie import LN3, CookieMap
from .errors import DepthCapError, DomainError
from .scaled import PointBatch, ScaledPoint

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
    def zeros(n: int) -> "Word":
        return Word("0" * n)

    @staticmethod
    def ones(n: int) -> "Word":
        return Word("1" * n)

    @staticmethod
    def from_index(index: int, length: int) -> "Word":
        """The index-th word of the given length in lexicographic order."""
        return Word(format(index, f"0{length}b") if length else "")

    @property
    def index(self) -> int:
        return int(self.bits, 2) if self.bits else 0


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

    A batch of one through CookieMap.inverse_batch, the single pull-back
    kernel: symbol 1 is the affine pullback into [2/3, 1]; symbol 0 pulls
    windows back one level through the backward flow and shifts gap
    coordinates down unchanged. Every point of [0,1] has exactly one
    preimage per branch, hole points included.
    """
    child, _ = cmap.inverse_batch(symbol, PointBatch.from_points([p]))
    return child.point(0)


def pull_back_word(state, cmap: CookieMap, bits: str):
    """Pull state (intervals or a point grid) back through bits, inside out."""
    for symbol in reversed(bits):
        state = state.pull_back(cmap, int(symbol))
    return state


def word_levels(state, cmap: CookieMap, levels: int):
    """The breadth-first word-tree walk: yield the next `levels` levels.

    Each level stacks both pullbacks of the one before it, the 0-pullback
    first. Prepending the symbol s to a word with index i among 2^j words
    gives index s * 2^j + i, so rows stay in lexicographic word order.
    """
    for _ in range(levels):
        state = state.stack(state.pull_back(cmap, 0), state.pull_back(cmap, 1))
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
    """The width phi_t(x + w) - phi_t(x), t = -(-1/2)^k T, as w times the
    Gauss-Legendre mean of phi_t' = exp(log slope) over [x, x + w].

    Every node is a table lookup, one node at a time over all rows (a
    nodes x rows batch would hold all of them at once); each row's width
    is a pure function of its own (k, x, w).
    """
    mean = np.zeros_like(w)
    for node, weight in zip(WIDTH_NODES, WIDTH_WEIGHTS):
        _, log_slope = cmap.block_flow(-1.0, k, x + node * w)
        mean += weight * np.exp(log_slope)
    return w * mean


class IntervalSet:
    """Vectorized endpoints-plus-width state for families of basic intervals.

    Two row shapes occur. Words of the form 0^j keep their left endpoint
    pinned at 0 ("anchored" rows; the width is the raw right endpoint,
    carried in scaled form). Every other word has both endpoints in one
    common window INJ(n, .), and the width d = u_right - u_left is carried
    as its own variable, never recomputed by subtraction. The 0-branch
    takes every endpoint from the displacement tables; it pulls a width
    d <= WIDTH_RULE_MAX back by the mean-value rule on the tables and a
    wider one through the pair flow FlowEngine.evolve_interval.
    """

    __slots__ = ("anchored", "n", "u_lo", "u_hi", "d")

    def __init__(self, anchored, n, u_lo, u_hi, d):
        self.anchored = anchored      # bool array
        self.n = n                    # int32: window index (right endpoint for anchored rows)
        self.u_lo = u_lo              # float64: left unit coordinate (nan when anchored)
        self.u_hi = u_hi              # float64: right unit coordinate
        self.d = d                    # float64: u_hi - u_lo (nan when anchored)

    @classmethod
    def root(cls) -> "IntervalSet":
        """The seed interval [0,1] = I_(empty word)."""
        return cls(
            anchored=np.array([True]),
            n=np.array([0], dtype=np.int32),
            u_lo=np.array([math.nan]),
            u_hi=np.array([1.0]),
            d=np.array([math.nan]),
        )

    @classmethod
    def stack(cls, a: "IntervalSet", b: "IntervalSet") -> "IntervalSet":
        """The rows of a followed by the rows of b."""
        return cls(**{k: np.concatenate([getattr(a, k), getattr(b, k)])
                      for k in cls.__slots__})

    @property
    def size(self) -> int:
        return self.u_hi.size

    def pull_back(self, cmap: CookieMap, symbol: int) -> "IntervalSet":
        """Apply one inverse branch to every interval in the family."""
        if symbol == 1:
            # (x + 2)/3: widths scale by exactly 1/3; all rows land in J_0
            raw_hi = (self.u_hi + 2.0) * np.power(3.0, -(self.n + 1.0))
            d_new = np.where(
                self.anchored,
                raw_hi,                                   # left was 0
                self.d * np.power(3.0, -self.n.astype(np.float64)) / 3.0,
            )
            u_lo_new = np.where(self.anchored, 0.0,
                                (self.u_lo + 2.0) * np.power(3.0, -(self.n + 1.0)))
            return IntervalSet(
                anchored=np.zeros(self.size, dtype=bool),
                n=np.zeros(self.size, dtype=np.int32),
                u_lo=u_lo_new,
                u_hi=raw_hi,
                d=d_new,
            )
        if symbol != 0:
            raise DomainError(f"branch symbol must be 0 or 1, got {symbol!r}")
        anch = self.anchored
        common = ~anch
        k = cmap.schedule.blocks(self.n + 1)
        # anchored rows move their right endpoint, the others their left
        y, _ = cmap.block_flow(-1.0, k, np.where(anch, self.u_hi, self.u_lo))
        u_lo_new = np.where(anch, self.u_lo, y)
        d_new = np.array(self.d, copy=True)
        narrow = common & (self.d <= WIDTH_RULE_MAX)
        if narrow.any():
            d_new[narrow] = _mean_value_width(cmap, k[narrow],
                                              self.u_lo[narrow], self.d[narrow])
        wide = common & ~narrow
        if wide.any():
            t = -cmap.schedule.flow_times(self.n[wide] + 1)
            _, d_new[wide] = cmap.engine.evolve_interval(
                t, self.u_lo[wide], self.d[wide])
        return IntervalSet(
            anchored=anch.copy(),
            n=(self.n + 1).astype(np.int32),
            u_lo=u_lo_new,
            u_hi=np.where(anch, y, np.minimum(y + d_new, 1.0)),
            d=d_new,
        )

    def log_sizes(self) -> np.ndarray:
        """ln |I_w| per row, full relative precision."""
        scale = -(self.n + 1.0) * LN3
        return np.where(
            self.anchored,
            np.log(self.u_hi + 2.0) + scale,
            np.log(self.d) + scale,
        )

    def endpoints(self, i: int) -> tuple[ScaledPoint, ScaledPoint]:
        hi = ScaledPoint.in_window(int(self.n[i]), float(self.u_hi[i]))
        if self.anchored[i]:
            return ScaledPoint.zero(), hi
        return ScaledPoint.in_window(int(self.n[i]), float(self.u_lo[i])), hi

    def interval(self, i: int, word: Word) -> BasicInterval:
        left, right = self.endpoints(i)
        return BasicInterval(word=word, left=left, right=right,
                             log_size=float(self.log_sizes()[i]))


def interval_table(cmap: CookieMap, depth: int) -> IntervalSet:
    """All 2^depth basic intervals, rows indexed by word in lex order.

    The last level of the breadth-first walk word_levels from [0,1].
    """
    if depth < 0:
        raise DomainError(f"depth must be >= 0, got {depth}")
    table = IntervalSet.root()
    for table in word_levels(table, cmap, depth):
        pass
    return table


def basic_interval(cmap: CookieMap, word: Word | str) -> BasicInterval:
    """I_w from inside-out composition of inverse branches."""
    word = Word.of(word)
    return pull_back_word(IntervalSet.root(), cmap, word.bits).interval(0, word)


def enumerate_intervals(cmap: CookieMap, depth: int,
                        cap: int = DEPTH_CAP) -> Iterator[BasicInterval]:
    """Yield every I_w of the given depth, left to right.

    Full enumeration is capped (2^20 intervals is about the desk-scale
    limit); deeper studies should target explicit word lists instead.
    """
    if depth > cap:
        raise DepthCapError(f"depth {depth} exceeds cap {cap}")
    table = interval_table(cmap, depth)
    logs = table.log_sizes()
    for i in range(table.size):
        word = Word.from_index(i, depth)
        left, right = table.endpoints(i)
        yield BasicInterval(word=word, left=left, right=right,
                            log_size=float(logs[i]))

"""Binary addresses, inverse branches, and the basic-interval hierarchy.

A word over {0,1} of length k names the branch pieces visited by the first
k iterates: x belongs to I_w exactly when F^(j-1)(x) sits in the piece
labeled w_j (0 = left, 1 = right). F^k maps each I_w diffeomorphically onto
[0,1], and lexicographic order on words matches left-to-right order of the
intervals.

Interval endpoints are built by composing exact inverse branches from the
inside out, never by root finding. Widths ride along through the
cancellation-free pair flow, so log sizes keep full relative precision at
depths where raw endpoint subtraction would return garbage.

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


class IntervalSet:
    """Vectorized endpoints-plus-width state for families of basic intervals.

    Two row shapes occur. Words of the form 0^j keep their left endpoint
    pinned at 0 ("anchored" rows; the width is the raw right endpoint,
    carried in scaled form). Every other word has both endpoints in one
    common window INJ(n, .), and the width d = u_right - u_left is evolved
    as its own state variable through the pair flow, never recomputed by
    subtraction.
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
        t = -cmap.schedule.flow_times(self.n + 1)
        anch = self.anchored
        u_lo_new = np.array(self.u_lo, copy=True)
        u_hi_new = np.empty_like(self.u_hi)
        d_new = np.array(self.d, copy=True)
        if anch.any():
            (y,) = cmap.engine.evolve(t[anch], self.u_hi[anch], order=0)
            u_hi_new[anch] = y
        common = ~anch
        if common.any():
            y_lo, w = cmap.engine.evolve_interval(
                t[common], self.u_lo[common], self.d[common])
            u_lo_new[common] = y_lo
            d_new[common] = w
            u_hi_new[common] = np.minimum(y_lo + w, 1.0)
        return IntervalSet(
            anchored=anch.copy(),
            n=(self.n + 1).astype(np.int32),
            u_lo=u_lo_new,
            u_hi=u_hi_new,
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

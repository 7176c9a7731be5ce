"""Localization patterns for degree-q curves of p-planes and their poset.

A pattern fixes which coefficients of a polynomial (m+p) x p map may be
nonzero.  Columns live in concatenated form: column j is a tall vector of
height h_j, split into degree blocks of size m+p, with a contiguous star
interval running from the top pivot (fixed to row j) down to the bottom
pivot.  Validity:

  1. with q = d*p + r, the first p-r columns have height (d+1)(m+p),
     the remaining r have height (d+2)(m+p);
  2. top and bottom pivot rows are strictly increasing in the column
     index, and top_j <= bottom_j <= h_j;
  3. no two bottom pivots differ by m+p or more (hence their residues
     modulo m+p are pairwise distinct).

The poset of patterns under single-pivot decrements drives both the root
count recursion and the tree of homotopy jobs: the number of solutions
fitting a pattern equals the number of monotone increment paths reaching
it from the trivial pattern.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial


def _check_params(m: int, p: int, q: int) -> None:
    if m < 1 or p < 1 or q < 0:
        raise ValueError(f"need m >= 1, p >= 1, q >= 0, got ({m}, {p}, {q})")


def column_heights(m: int, p: int, q: int) -> tuple[int, ...]:
    """Concatenated column heights per rule 1."""
    _check_params(m, p, q)
    d, r = divmod(q, p)
    return tuple((d + 1) * (m + p) if j < p - r else (d + 2) * (m + p)
                 for j in range(p))


def num_conditions(m: int, p: int, q: int) -> int:
    """Number of general m-planes a degree-q map can be made to meet."""
    _check_params(m, p, q)
    return m * p + q * (m + p)


def _invalid_reason(m: int, p: int, q: int, bottom: tuple[int, ...]) -> str | None:
    heights = column_heights(m, p, q)
    if len(bottom) != p:
        return f"expected {p} bottom pivots, got {len(bottom)}"
    for j, b in enumerate(bottom):
        if not j + 1 <= b <= heights[j]:
            return f"bottom pivot {b} outside [{j + 1}, {heights[j]}] in column {j + 1}"
    for i in range(p - 1):
        if bottom[i] >= bottom[i + 1]:
            return f"bottom pivots not strictly increasing at column {i + 1}"
    if bottom[-1] - bottom[0] >= m + p:
        return f"bottom pivots {bottom[0]} and {bottom[-1]} differ by >= m+p"
    return None


@dataclass(frozen=True)
class LocalizationPattern:
    """An immutable, always-valid star pattern; construction validates."""

    m: int
    p: int
    q: int
    bottom: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_params(self.m, self.p, self.q)
        object.__setattr__(self, "bottom", tuple(int(b) for b in self.bottom))
        reason = _invalid_reason(self.m, self.p, self.q, self.bottom)
        if reason is not None:
            raise ValueError(f"invalid pattern {self.bottom}: {reason}")

    @property
    def top(self) -> tuple[int, ...]:
        return tuple(range(1, self.p + 1))

    def __str__(self) -> str:
        return "[" + " ".join(str(b) for b in self.bottom) + "]"


def trivial_pattern(m: int, p: int, q: int) -> LocalizationPattern:
    """The depth-0 pattern: every bottom pivot equals its top pivot."""
    return LocalizationPattern(m, p, q, tuple(range(1, p + 1)))


def target_pattern(m: int, p: int, q: int) -> LocalizationPattern:
    """The unique deepest pattern; its depth is num_conditions(m, p, q)."""
    _check_params(m, p, q)
    d, r = divmod(q, p)
    first = [d * (m + p) + m + r + j for j in range(1, p - r + 1)]
    rest = [(d + 1) * (m + p) + m + i for i in range(1, r + 1)]
    return LocalizationPattern(m, p, q, tuple(first + rest))


def degrees_of_freedom(pattern: LocalizationPattern) -> int:
    """Star count minus the p top-pivot coefficients pinned to 1."""
    return sum(b - t + 1 for b, t in zip(pattern.bottom, pattern.top)) - pattern.p


def _shift(pattern: LocalizationPattern, j: int, delta: int) -> LocalizationPattern | None:
    bottom = list(pattern.bottom)
    bottom[j] += delta
    if _invalid_reason(pattern.m, pattern.p, pattern.q, tuple(bottom)) is not None:
        return None
    return LocalizationPattern(pattern.m, pattern.p, pattern.q, tuple(bottom))


def _neighbours(pattern: LocalizationPattern, delta: int) -> list[LocalizationPattern]:
    shifted = (_shift(pattern, j, delta) for j in range(pattern.p))
    return [s for s in shifted if s is not None]


def children(pattern: LocalizationPattern) -> list[LocalizationPattern]:
    """Single bottom-pivot decrements, column index ascending."""
    return _neighbours(pattern, -1)


def increments(pattern: LocalizationPattern) -> list[LocalizationPattern]:
    """Single bottom-pivot increments, column index ascending."""
    return _neighbours(pattern, +1)


def count_paths(lower: LocalizationPattern, upper: LocalizationPattern) -> int:
    """Monotone increment paths from lower to upper (exact integer)."""
    if (lower.m, lower.p, lower.q) != (upper.m, upper.p, upper.q):
        raise ValueError("patterns belong to different problems")
    lo = lower.bottom
    lo_sum = sum(lo)
    memo: dict[tuple[int, ...], int] = {}

    def rec(pattern: LocalizationPattern) -> int:
        b = pattern.bottom
        if b == lo:
            return 1
        if sum(b) <= lo_sum:
            return 0
        if b in memo:
            return memo[b]
        total = sum(rec(child) for child in children(pattern))
        memo[b] = total
        return total

    return rec(upper)


@lru_cache(maxsize=None)
def pieri_root_count(m: int, p: int, q: int) -> int:
    """Number of degree-q maps meeting mp + q(m+p) general m-planes."""
    return count_paths(trivial_pattern(m, p, q), target_pattern(m, p, q))


def dmp_count(m: int, p: int) -> int:
    """Closed form for the q = 0 count: 1!2!...(p-1)! (mp)! / (m!...(m+p-1)!)."""
    _check_params(m, p, 0)
    num = factorial(m * p)
    den = 1
    for i in range(p):
        num *= factorial(i)
        den *= factorial(m + i)
    count, remainder = divmod(num, den)
    assert remainder == 0
    return count


@dataclass
class PieriTreeNode:
    """A node of the (suffix-unshared) tree of increment paths."""

    pattern: LocalizationPattern
    depth: int
    children: list[PieriTreeNode] = field(default_factory=list)


def pieri_tree(m: int, p: int, q: int) -> PieriTreeNode:
    """Materialize the full tree from the trivial to the target pattern.

    Inspection helper for small cases; the solver walks the same tree
    lazily through the job scheduler instead of calling this.
    """
    target = target_pattern(m, p, q).bottom

    def expand(pattern: LocalizationPattern, depth: int) -> PieriTreeNode:
        node = PieriTreeNode(pattern, depth)
        if pattern.bottom == target:
            return node
        for up in increments(pattern):
            node.children.append(expand(up, depth + 1))
        assert node.children, f"pattern {pattern} cannot reach the target"
        return node

    return expand(trivial_pattern(m, p, q), 0)


def tree_leaves(root: PieriTreeNode) -> list[PieriTreeNode]:
    leaves = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.children:
            stack.extend(reversed(node.children))
        else:
            leaves.append(node)
    return leaves

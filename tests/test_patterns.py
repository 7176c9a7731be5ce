"""Tests for localization patterns, root counts, and the Pieri tree.

The validity oracle below re-states the pattern rules from scratch; the
counting oracles are the closed-form factorial formula and published
intersection numbers, plus exhaustive path enumeration on small posets.
"""
from __future__ import annotations

import itertools
from math import factorial

import pytest

from pierihom.patterns import (
    LocalizationPattern,
    PieriTreeNode,
    children,
    column_heights,
    count_paths,
    degrees_of_freedom,
    dmp_count,
    increments,
    num_conditions,
    pieri_root_count,
    pieri_tree,
    target_pattern,
    tree_leaves,
    trivial_pattern,
)


def oracle_valid(m: int, p: int, q: int, bottom: tuple[int, ...]) -> bool:
    """Independent restatement of the pattern validity rules."""
    d, r = divmod(q, p)
    heights = [(d + 1) * (m + p)] * (p - r) + [(d + 2) * (m + p)] * r
    if len(bottom) != p:
        return False
    for j in range(p):
        # top pivot of column j is j+1; stars contiguous up to bottom[j]
        if not (j + 1 <= bottom[j] <= heights[j]):
            return False
    for i in range(p - 1):
        if bottom[i] >= bottom[i + 1]:
            return False
    for i in range(p):
        for j in range(i + 1, p):
            if bottom[j] - bottom[i] >= m + p:
                return False
    return True


def brute_force_path_count(m: int, p: int, q: int) -> int:
    """Count monotone increment paths trivial -> target by DFS, no memo."""
    target = tuple(target_pattern(m, p, q).bottom)

    def walk(bottom: tuple[int, ...]) -> int:
        if bottom == target:
            return 1
        total = 0
        for j in range(p):
            nb = tuple(b + 1 if i == j else b for i, b in enumerate(bottom))
            if oracle_valid(m, p, q, nb):
                total += walk(nb)
        return total

    return walk(tuple(trivial_pattern(m, p, q).bottom))


def quantum_pieri_count(m: int, p: int, q: int) -> int:
    """Independent oracle: same intersection number, different recursion.

    Counts degree-q maps into the Grassmannian meeting mp + q(m+p) general
    m-planes by multiplying out sigma_1^N in the quantum cohomology ring,
    using the quantum Pieri rule on partitions inside a p x m box:

        sigma_1 * sigma_lam = sum of sigma_{lam + one box}
                              + qvar * sigma_{(lam_2 - 1, ..., lam_p - 1)}
                                (the last term only if lam_1 = m, lam_p >= 1)

    The answer is the coefficient of qvar^q * sigma_{(m,...,m)}.  The state
    space (partitions, degree) shares nothing with the pivot-pattern poset,
    so agreement is a genuine cross-check.
    """
    steps = m * p + q * (m + p)
    state: dict[tuple[tuple[int, ...], int], int] = {((0,) * p, 0): 1}
    for _ in range(steps):
        new: dict[tuple[tuple[int, ...], int], int] = {}
        for (lam, d), c in state.items():
            for i in range(p):
                if lam[i] < m and (i == 0 or lam[i] < lam[i - 1]):
                    mu = lam[:i] + (lam[i] + 1,) + lam[i + 1 :]
                    new[(mu, d)] = new.get((mu, d), 0) + c
            if lam[0] == m and lam[-1] >= 1:
                nu = tuple(lam[i] - 1 for i in range(1, p)) + (0,)
                new[(nu, d + 1)] = new.get((nu, d + 1), 0) + c
        state = new
    return state.get(((m,) * p, q), 0)


def test_column_heights_frozen() -> None:
    assert column_heights(2, 2, 0) == (4, 4)
    assert column_heights(2, 2, 1) == (4, 8)
    assert column_heights(2, 2, 2) == (8, 8)
    assert column_heights(2, 3, 1) == (5, 5, 10)
    assert column_heights(3, 3, 2) == (6, 12, 12)


def test_trivial_and_target_frozen() -> None:
    assert trivial_pattern(2, 2, 1).bottom == (1, 2)
    assert target_pattern(2, 2, 1).bottom == (4, 7)
    assert target_pattern(2, 2, 0).bottom == (3, 4)
    assert target_pattern(3, 2, 0).bottom == (4, 5)
    assert target_pattern(2, 3, 0).bottom == (3, 4, 5)
    assert target_pattern(3, 3, 1).bottom == (5, 6, 10)
    assert target_pattern(2, 2, 2).bottom == (7, 8)
    assert target_pattern(2, 2, 3).bottom == (8, 11)
    assert target_pattern(2, 3, 1).bottom == (4, 5, 8)


def test_target_depth_equals_condition_count() -> None:
    for m, p, q in itertools.product((1, 2, 3, 4), (1, 2, 3), (0, 1, 2)):
        target = target_pattern(m, p, q)
        n = num_conditions(m, p, q)
        assert degrees_of_freedom(target) == n == m * p + q * (m + p)
        assert degrees_of_freedom(trivial_pattern(m, p, q)) == 0


def test_pattern_validation_matches_oracle_exhaustively() -> None:
    for m, p, q in ((2, 2, 0), (2, 2, 1), (2, 3, 1), (3, 2, 1), (1, 1, 2)):
        heights = column_heights(m, p, q)
        for bottom in itertools.product(*(range(1, h + 1) for h in heights)):
            want = oracle_valid(m, p, q, bottom)
            try:
                LocalizationPattern(m, p, q, bottom)
                got = True
            except ValueError:
                got = False
            assert got == want, f"(m={m},p={p},q={q}) bottom={bottom}"


def test_pattern_rejects_bad_parameters() -> None:
    for m, p, q in ((0, 2, 0), (2, 0, 0), (2, 2, -1)):
        with pytest.raises(ValueError):
            trivial_pattern(m, p, q)


def test_top_pivots_fixed() -> None:
    pat = target_pattern(2, 3, 1)
    assert pat.top == (1, 2, 3)


def test_children_frozen_values() -> None:
    # the strict all-pairs rule excludes [3,7]: 7-3 = m+p
    tgt = target_pattern(2, 2, 1)
    assert [c.bottom for c in children(tgt)] == [(4, 6)]
    assert [c.bottom for c in children(target_pattern(2, 2, 0))] == [(2, 4)]
    assert children(trivial_pattern(2, 2, 1)) == []
    # interior node with two children, ordered by column index
    mid = LocalizationPattern(2, 2, 1, (3, 5))
    assert [c.bottom for c in children(mid)] == [(2, 5), (3, 4)]


def test_children_and_increments_are_dual() -> None:
    for m, p, q in ((2, 2, 1), (2, 3, 1)):
        heights = column_heights(m, p, q)
        patterns = [
            LocalizationPattern(m, p, q, b)
            for b in itertools.product(*(range(1, h + 1) for h in heights))
            if oracle_valid(m, p, q, b)
        ]
        by_bottom = {pat.bottom: pat for pat in patterns}
        for pat in patterns:
            for child in children(pat):
                ups = [u.bottom for u in increments(by_bottom[child.bottom])]
                assert pat.bottom in ups
            for up in increments(pat):
                downs = [c.bottom for c in children(up)]
                assert pat.bottom in downs


def test_degrees_of_freedom_frozen() -> None:
    assert degrees_of_freedom(target_pattern(2, 2, 1)) == 8
    assert degrees_of_freedom(target_pattern(2, 2, 0)) == 4
    assert degrees_of_freedom(LocalizationPattern(2, 2, 1, (3, 5))) == 5


def test_pieri_root_count_small_frozen() -> None:
    assert pieri_root_count(2, 2, 0) == 2
    assert pieri_root_count(2, 2, 1) == 8
    assert pieri_root_count(2, 3, 1) == 55
    assert pieri_root_count(3, 3, 0) == 42
    for q in range(4):
        assert pieri_root_count(1, 1, q) == 1


def test_pieri_root_count_matches_brute_force_enumeration() -> None:
    for m, p, q in ((2, 2, 0), (2, 2, 1), (2, 3, 0), (3, 2, 0), (2, 2, 2)):
        assert pieri_root_count(m, p, q) == brute_force_path_count(m, p, q)


def test_pieri_root_count_matches_quantum_pieri_oracle() -> None:
    # published table values, cross-checked by two unrelated recursions
    table = {
        (2, 2, 0): 2, (2, 2, 1): 8, (2, 2, 2): 32, (2, 2, 3): 128,
        (2, 3, 0): 5, (2, 3, 1): 55, (2, 3, 2): 610, (2, 3, 3): 6765,
        (3, 3, 0): 42, (3, 3, 1): 2730, (3, 3, 2): 174762,
        (3, 4, 0): 462, (3, 4, 1): 135660, (4, 4, 0): 24024,
    }
    for (m, p, q), expect in table.items():
        assert quantum_pieri_count(m, p, q) == expect, (m, p, q)
        assert pieri_root_count(m, p, q) == expect, (m, p, q)
    # duality and a sweep beyond the table
    for m, p, q in itertools.product((1, 2, 3), (1, 2, 3), (0, 1, 2)):
        assert pieri_root_count(m, p, q) == quantum_pieri_count(m, p, q)
        assert pieri_root_count(m, p, q) == pieri_root_count(p, m, q)


def test_dmp_closed_form_frozen_and_positive_huge() -> None:
    assert dmp_count(2, 2) == 2
    assert dmp_count(2, 3) == 5
    assert dmp_count(3, 3) == 42
    assert dmp_count(3, 4) == 462
    assert dmp_count(4, 4) == 24024
    assert dmp_count(1, 5) == 1
    # (m,m) counts are the square standard-tableaux numbers 1, 2, 42, 24024, ...
    assert dmp_count(5, 5) == 701149020


def test_dmp_equals_q0_root_count() -> None:
    for m in range(1, 6):
        for p in range(1, 6):
            assert dmp_count(m, p) == pieri_root_count(m, p, 0), (m, p)


def test_dmp_closed_form_definition() -> None:
    # prod_{i<p} i! * (mp)! / prod_{i<p} (m+i)!
    m, p = 3, 4
    num = factorial(m * p)
    den = 1
    for i in range(p):
        num *= factorial(i)
        den *= factorial(m + i)
    assert dmp_count(m, p) == num // den


def test_count_paths_between_patterns() -> None:
    # on (2,2,1): 2 paths from trivial to [2,4], 2 from [3,5] to target
    assert count_paths(trivial_pattern(2, 2, 1),
                       LocalizationPattern(2, 2, 1, (2, 4))) == 2
    assert count_paths(LocalizationPattern(2, 2, 1, (3, 5)),
                       target_pattern(2, 2, 1)) == 2
    assert count_paths(trivial_pattern(2, 2, 1), target_pattern(2, 2, 1)) == 8
    # unreachable: strictly below in one coordinate
    assert count_paths(LocalizationPattern(2, 2, 1, (2, 4)),
                       LocalizationPattern(2, 2, 1, (1, 4))) == 0


def test_pieri_tree_2_2_1_shape() -> None:
    root = pieri_tree(2, 2, 1)
    assert isinstance(root, PieriTreeNode)
    assert root.pattern.bottom == (1, 2)
    leaves = tree_leaves(root)
    assert len(leaves) == 8
    target = target_pattern(2, 2, 1)
    for leaf in leaves:
        assert leaf.depth == 8
        assert leaf.pattern.bottom == target.bottom


def test_pieri_tree_node_degrees() -> None:
    # every node has at most p children and (except the root) one parent
    for m, p, q in ((2, 2, 1), (2, 3, 0)):
        root = pieri_tree(m, p, q)
        stack = [root]
        seen = 0
        while stack:
            node = stack.pop()
            seen += 1
            assert len(node.children) <= p
            incremented_cols = []
            for child in node.children:
                assert child.depth == node.depth + 1
                diff = [
                    j
                    for j in range(p)
                    if child.pattern.bottom[j] != node.pattern.bottom[j]
                ]
                assert len(diff) == 1
                assert child.pattern.bottom[diff[0]] == node.pattern.bottom[diff[0]] + 1
                incremented_cols.append(diff[0])
            assert incremented_cols == sorted(incremented_cols)
            stack.extend(node.children)
        assert seen >= 1


def test_tree_leaf_count_matches_poset_count_up_to_n_12() -> None:
    combos = []
    for m in range(1, 5):
        for p in range(1, 5):
            q = 0
            while m * p + q * (m + p) <= 12:
                combos.append((m, p, q))
                q += 1
    assert (2, 2, 2) in combos and (2, 3, 1) in combos
    for m, p, q in combos:
        root = pieri_tree(m, p, q)
        assert len(tree_leaves(root)) == pieri_root_count(m, p, q), (m, p, q)

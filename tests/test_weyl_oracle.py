"""The weight descent walk of weyl against the root-permutation descents
it replaced: the same reduced words, least reduced words and longest
elements.  And the length census that weyl reads off the degrees against
the whole group, enumerated.

``_left_descents`` and the helpers after it are that code.  The left
descents of w are the nodes s with w^-1(a_s) negative, read off the
inverted root permutation; the reduced words are a descent recursion
memoized on root permutations; the least word takes the least descent at
each step; and the longest element is a greedy ascent from the identity.
"""

from collections import Counter
from functools import partial
from math import factorial, prod

import pytest

from weylbn.cosets import ParabolicChoice, sweep_cases, third_coset_witness
from weylbn.errors import WitnessNotApplicable
from weylbn.fingrp import _closure
from weylbn.rootsys import build_root_system, degrees
from weylbn.weyl import (
    WeylElement,
    canonical_reduced_word,
    compose,
    element_of,
    longest_element,
    poincare_polynomial,
    reduced_words,
)

SMALL = [("A", 3), ("B", 3), ("BC", 3), ("C", 3), ("D", 4), ("G", 2)]


def all_elements(rs, cap=None):
    """Every element of the Weyl group, by closure of the simple reflections.

    Returns a dict mapping each permutation tuple to its length, its depth
    in the breadth-first closure.  ``cap`` bounds the enumeration
    (GroupTooLarge past it) when given.
    """
    acts = [partial(compose, g) for g in rs.simple_refl_perms]
    order, _, via = _closure(tuple(range(len(rs.roots))), acts, cap=cap)
    depth = [0]
    for _, s in via:
        depth.append(depth[s] + 1)
    return dict(zip(order, depth))


def weyl_order(family, rank):
    """|W| by the classical formulas (10**9 stands for E7 and E8)."""
    fact = factorial(rank)
    if family == "A":
        return fact * (rank + 1)
    if family in ("B", "BC", "C"):
        return 2**rank * fact
    if family == "D":
        return 2 ** (rank - 1) * fact
    return {("G", 2): 12, ("F", 4): 1152, ("E", 6): 51840}.get((family, rank), 10**9)


def inverse(perm):
    """The inverse of the index permutation ``perm``."""
    inv = [0] * len(perm)
    for i, img in enumerate(perm):
        inv[img] = i
    return tuple(inv)


def _left_descents(w):
    """Nodes s with l(r_s w) < l(w), i.e. w^-1(a_s) negative."""
    rs = w.rs
    inv = inverse(w.perm)
    return [i + 1 for i, si in enumerate(rs.simple_indices) if inv[si] not in rs.positive_set]


def _reduced_words(w, memo):
    """Reduced words by descent recursion, memoized on root permutations."""
    got = memo.get(w.perm)
    if got is None:
        if w.is_identity():
            got = frozenset({()})
        else:
            got = frozenset(
                (s,) + tail
                for s in _left_descents(w)
                for tail in _reduced_words(element_of(w.rs, (s,)) * w, memo)
            )
        memo[w.perm] = got
    return got


def _canonical_word(w):
    """Strip the least left descent until the identity is left."""
    out = []
    while not w.is_identity():
        s = min(_left_descents(w))
        out.append(s)
        w = element_of(w.rs, (s,)) * w
    return tuple(out)


def _greedy_longest(rs):
    """Left-multiply by the first simple reflection that raises the length
    until none does."""
    w = element_of(rs, ())
    while True:
        inv = inverse(w.perm)
        s = next(
            (i + 1 for i, si in enumerate(rs.simple_indices) if inv[si] in rs.positive_set),
            None,
        )
        if s is None:
            return w
        w = element_of(rs, (s,)) * w


@pytest.mark.parametrize("fam,rank", SMALL)
def test_words_match_permutation_descents_on_every_element(fam, rank):
    rs = build_root_system((fam, rank))
    memo = {}
    for perm in all_elements(rs):
        w = WeylElement(rs, perm)
        words = _reduced_words(w, memo)
        assert reduced_words(w) == words
        assert canonical_reduced_word(w) == _canonical_word(w) == min(words)


def test_words_match_permutation_descents_on_every_witness():
    # The elements the lemma's witness check lists, E6-E8 and F4 included.
    witnesses = []
    for fam, rank in sweep_cases(8):
        rs = build_root_system((fam, rank))
        for node in range(1, rank + 1):
            choice = ParabolicChoice(rs, node)
            try:
                witnesses.append(element_of(choice.core, third_coset_witness(choice).word))
            except WitnessNotApplicable:
                pass
    assert len(witnesses) == 137
    for w in witnesses:
        assert reduced_words(w) == _reduced_words(w, {})


@pytest.mark.parametrize("fam,rank", sorted(set(SMALL) | set(sweep_cases(8))))
def test_longest_element_matches_greedy_ascent(fam, rank):
    rs = build_root_system((fam, rank))
    w0 = longest_element(rs)
    assert w0 == _greedy_longest(rs)
    assert canonical_reduced_word(w0) == _canonical_word(w0)


CENSUS_TYPES = [
    t
    for t in sorted(sweep_cases(12) + [("A", 1), ("B", 1), ("BC", 1), ("C", 1)])
    if weyl_order(*t) <= 10**5
]


@pytest.mark.parametrize("fam,rank", CENSUS_TYPES, ids=[f"{f}{r}" for f, r in CENSUS_TYPES])
def test_poincare_polynomial_matches_enumerated_census(fam, rank):
    rs = build_root_system((fam, rank))
    elements = all_elements(rs)
    assert prod(degrees(rs, tuple(range(1, rank + 1)))) == len(elements) == weyl_order(fam, rank)
    census = Counter(elements.values())
    assert poincare_polynomial(rs) == [census[k] for k in range(max(census) + 1)]

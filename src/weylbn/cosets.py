"""Parabolic quotients, double-coset counting, and the verification suites
built on them.

A maximal parabolic choice is a root system with one removed simple node
a.  W', generated by the reflections of the other nodes J, is the
stabilizer of the fundamental weight ω_a, so W/W' is the orbit W·ω_a and
each double coset in W'\\W/W' holds exactly one J-dominant weight of it
(no negative coordinate except at a).  Those weights alone are listed, as
a tree (Stembridge, MSJ Mem. 11, 2001) that recurses into the components
of the diagram less a node; each sub-diagram's tree is memoized on its
own Cartan block, so every root system containing it (the A-chains in
A to E, E6 in E7, and B as the core of BC) shares one walk.  The index [W : W'] is
|W| / |W'|, each order the product of the degrees (Kostant, Amer. J.
Math. 81, 1959); no orbit is walked.  The orbit walks this replaced are
oracles in the tests, next to :func:`double_coset_count_naive`.
Everything is exact integer arithmetic.

Non-reduced (BC) input is handled by computing on the reduced core of
nondivisible roots while reports keep the original BC label.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial, reduce
from itertools import product
from operator import mul

from .errors import RankTooSmall, WitnessNotApplicable
from .rootsys import branch_node, build_root_system, degrees, dynkin_path, is_end_node, reduced_form
from .weyl import (
    act_on_weight,
    compose,
    descend,
    element_of,
    fundamental_weight,
    is_minus_one,
    length,
    longest_element,
    reduced_words,
)

NAIVE_WEYL_CAP = 10**5


class ParabolicChoice:
    """A root system with one removed simple node (1-based)."""

    __slots__ = ("rs", "removed", "core")

    def __init__(self, rs, removed):
        if not 1 <= removed <= rs.rank:
            raise ValueError(f"node {removed} outside 1..{rs.rank}")
        self.rs = rs
        self.removed = removed
        self.core = reduced_form(rs)

    @property
    def family(self):
        return self.rs.spec.family

    @property
    def rank(self):
        return self.rs.rank

    def __repr__(self):
        return f"ParabolicChoice({self.rs.spec.label()}, node={self.removed})"


class DoubleCosetReport(
    namedtuple("DoubleCosetReport", "family rank node quotient_size count expected_two passed")
):
    __slots__ = ()

    def to_record(self):
        return {
            "family": self.family,
            "rank": self.rank,
            "node": self.node,
            "index": self.quotient_size,
            "count": self.count,
            "expected_two": self.expected_two,
            "pass": self.passed,
        }


class WitnessReport(
    namedtuple("WitnessReport", "word i length_ok two_reduced_words endpoints_r_a coset_distinct")
):
    __slots__ = ()
    CHECKS = ("length_ok", "two_reduced_words", "endpoints_r_a", "coset_distinct")

    @property
    def failed_checks(self):
        """Names of the sub-checks that failed, in the order of ``CHECKS``."""
        return tuple(name for name in self.CHECKS if not getattr(self, name))

    @property
    def passed(self):
        return not self.failed_checks


@lru_cache(maxsize=None)
def _split(cartan, c):
    """The components of a connected diagram less its node c, each as (its
    Cartan block, the contact node's index in the block, the contact node,
    the component's nodes), nodes 0-based and sorted."""
    got = []
    for d, entry in enumerate(cartan[c]):
        if d != c and entry:
            comp = [d]
            for u in comp:
                comp += [v for v, e in enumerate(cartan[u]) if e and v != c and v not in comp]
            nodes = tuple(sorted(comp))
            block = tuple(tuple(cartan[i][j] for j in nodes) for i in nodes)
            got.append((block, nodes.index(d), d, nodes))
    return got


@lru_cache(maxsize=None)
def _dominant(cartan, c, lam):
    """D(cartan, c, lam): for a connected diagram with Cartan matrix
    ``cartan``, a node c and a dominant weight lam, the pairs (mu, m) of
    the weights mu of W·lam with no negative coordinate but at c, and the
    coefficient m of a_c in lam - mu.  Memoized on the diagram's own
    matrix, so every root system containing it shares the entries.

    They form a tree with root lam (Stembridge, MSJ Mem. 11, 2001): any
    other mu has mu_c < 0, and its parent is the dominant weight of
    W_{C∖c}·s_c·mu, C the nodes.  So the children of nu are the s_c·x,
    x in W_{C∖c}·nu with x_c > 0, that are dominant but at c.  The diagram
    is a tree, so each component P of C∖c meets c at one contact node d,
    and x takes one member (mu_P, m_d) of D(P, d, nu at P) per P: x is
    mu_P on P and nu_c - sum m_d·cartan[d][c] at c.  s_c moves only c and
    the contact nodes, and s_c·x is kept when it is nonnegative at every d.
    """
    comps, row = _split(cartan, c), cartan[c]
    # x is built as its members' concatenation, then -x_c: node i sits at place[i].
    order = [i for *_, P in comps for i in P] + [c]
    place = sorted(range(len(order)), key=order.__getitem__)
    contacts = [(order.index(d), row[d], -cartan[d][c]) for _, _, d, _ in comps]
    got = [(lam, 0)]
    for nu, m in got:  # got grows as the loop runs: each weight's children are appended
        subs = [_dominant(block, k, tuple(map(nu.__getitem__, P))) for block, k, _, P in comps]
        for combo in product(*subs):
            xc = nu[c]
            for (_, md), (_, _, f) in zip(combo, contacts):
                xc += md * f
            if xc <= 0:
                continue
            x = [e for mu, _ in combo for e in mu]
            for at, r, _ in contacts:
                x[at] -= r * xc
                if x[at] < 0:
                    break
            else:
                x.append(-xc)
                got.append((tuple(map(x.__getitem__, place)), m + xc))
    return got


def _j_dominant(choice):
    """The J-dominant weights of W·ω_a, J the nodes other than a."""
    core, a = choice.core, choice.removed
    return [mu for mu, _ in _dominant(core.cartan, a - 1, fundamental_weight(core, a))]


def _order(core, nodes):
    """The order of the parabolic subgroup at ``nodes``, from its degrees."""
    return reduce(mul, degrees(core, tuple(nodes)), 1)


def double_coset_count(choice):
    """Count W'\\W/W' as the J-dominant weights in W·ω_a; the index
    [W : W'] is read off the group orders."""
    core = choice.core
    if core.rank < 2:
        raise RankTooSmall("double-coset counting needs rank >= 2")
    count = len(_j_dominant(choice))
    nodes = range(1, core.rank + 1)
    size = _order(core, nodes) // _order(core, (n for n in nodes if n != choice.removed))
    expected_two = choice.family == "A" and is_end_node(choice.rs, choice.removed)
    passed = (count == 2) == expected_two and count >= 2
    return DoubleCosetReport(
        family=choice.family,
        rank=choice.rank,
        node=choice.removed,
        quotient_size=size,
        count=count,
        expected_two=expected_two,
        passed=passed,
    )


def double_coset_count_naive(choice):
    """Independent oracle: partition the fully enumerated Weyl group.

    Enumerates W once, as a FiniteGroup of root permutations under
    composition, and counts the orbits of the left and right
    multiplication tables of the simple reflections of W': the W' x W'
    double cosets.  Only for |W| <= ``NAIVE_WEYL_CAP``; GroupTooLarge
    past it.
    """
    # Only here, so the Weyl side imports without the group side.
    from .fingrp import FiniteGroup, GroupOps, _closure, orbits

    core = choice.core
    gens = core.simple_refl_perms
    ident = tuple(range(len(core.roots)))
    bfs = _closure(ident, [partial(compose, g) for g in gens], cap=NAIVE_WEYL_CAP)
    ops = GroupOps(compose, ident, str, f"W({core.spec.label()})")
    W = FiniteGroup(ops, bfs[0], gens=gens, check=False, bfs=bfs)
    sub = [g for n, g in enumerate(gens, start=1) if n != choice.removed]
    return len(orbits([W.left_table(g) for g in sub] + [W.right_table(g) for g in sub], W.order))


def sweep_cases(max_rank, families=None):
    """The (family, rank) pairs a sweep covers, in canonical order.

    Classical families run from rank 2 (D from rank 4, since D3 is the
    same root system as A3) up to ``max_rank``; exceptional types are
    included whenever their rank is in range.
    """
    if max_rank < 2:
        raise RankTooSmall("sweeps need max_rank >= 2")
    fams = set(families) if families else None
    cases = []
    for fam in ("A", "B", "BC", "C", "D"):
        lo = 4 if fam == "D" else 2
        for rank in range(lo, max_rank + 1):
            cases.append((fam, rank))
    for fam, rank in (("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)):
        if rank <= max_rank:
            cases.append((fam, rank))
    if fams is not None:
        cases = [c for c in cases if c[0] in fams]
    return sorted(cases)


def third_coset_witness(choice):
    """A length-2i+2 element with exactly two reduced words, witnessing a
    third double coset besides W' and W' r_a W'.

    With a the removed node: if a has diagram degree >= 2, take i = 1 and
    the two smallest neighbors; if a is an end node and the diagram has a
    branch node, walk the path a = a_1, ..., a_i = branch and take the
    branch's two other neighbors.  The element is
    r_{a_1}...r_{a_i} r_{c} r_{c'} r_{a_i}...r_{a_1}; the report checks
    its length, its reduced words (both must begin and end with r_a), and
    that its double coset differs from W' and W' r_a W' (tested on the
    weight orbit, where membership in W' means fixing the fundamental
    weight at a).
    """
    core = choice.core
    a = choice.removed
    if choice.family == "A" and is_end_node(choice.rs, a):
        raise WitnessNotApplicable(
            f"type A end node {a}: the two-coset case, no witness exists"
        )
    degree = core.node_degree(a)
    if degree >= 2:
        path = (a,)
        extra = core.neighbors(a)[:2]
    else:
        b = branch_node(core)
        if b is None or degree != 1:
            raise WitnessNotApplicable(
                f"{core.spec.label()} node {a}: no branch node to walk to"
            )
        path = dynkin_path(core, a, b)
        prev = path[-2]
        extra = tuple(n for n in core.neighbors(b) if n != prev)[:2]
    i = len(path)
    word = path + extra + tuple(reversed(path))
    w = element_of(core, word)
    length_ok = length(w) == 2 * i + 2
    words = reduced_words(w)
    two = len(words) == 2
    swapped = path + (extra[1], extra[0]) + tuple(reversed(path))
    two = two and words == {word, swapped}
    endpoints = all(u[0] == a and u[-1] == a for u in words)
    omega = fundamental_weight(core, a)
    img = act_on_weight(core, word, omega)
    r_a_img = act_on_weight(core, (a,), omega)
    others = [n for n in range(1, core.rank + 1) if n != a]
    coset_distinct = (
        img != omega and descend(core, img, others)[1] != descend(core, r_a_img, others)[1]
    )
    return WitnessReport(
        word=word,
        i=i,
        length_ok=length_ok,
        two_reduced_words=two,
        endpoints_r_a=endpoints,
        coset_distinct=coset_distinct,
    )


def root_count_gap_check(choice):
    """Sizes (#roots, #roots in the span of the kept nodes, gap holds).

    The gap #roots > #sub-roots + 2 is what rules the two-coset case out
    whenever the longest element acts as -1; that implication is asserted
    here whenever it applies.
    """
    core = choice.core
    if core.rank < 2:
        raise RankTooSmall("gap check needs rank >= 2")
    k = choice.removed - 1
    size_psi = len(core.roots)
    size_sub = sum(1 for c in core.coeffs if c[k] == 0)
    holds = size_psi > size_sub + 2
    if is_minus_one(longest_element(core)) and not holds:
        raise AssertionError(
            f"{core.spec.label()} node {choice.removed}: root-count gap fails"
        )
    return size_psi, size_sub, holds


def end_node_weight_sets(m):
    """Type A_m, first node removed: torus-weight sets of the parabolic,
    of its intersection with the longest-element conjugate, and their
    difference.

    Returns three frozensets of simple-root-coefficient tuples.  The
    difference must be the m telescoping sums a_i + ... + a_m.
    """
    if m < 2:
        raise RankTooSmall("weight-set computation needs rank >= 2")
    rs = build_root_system(("A", m))
    pos = rs.positive_set
    lie_p = set(pos)
    for r in range(len(rs.roots)):
        if r not in pos and rs.coeffs[r][0] == 0:
            lie_p.add(r)
    w0 = longest_element(rs)
    w0_image = {w0.perm[r] for r in lie_p}
    lie_q = lie_p & w0_image
    diff = lie_p - lie_q
    expected = {
        tuple(0 if j < i else 1 for j in range(m)) for i in range(m)
    }
    got = {rs.coeffs[r] for r in diff}
    if got != expected or len(diff) != m:
        raise AssertionError(f"A{m}: weight-set difference is not the m tail sums")

    def as_coeffs(s):
        return frozenset(rs.coeffs[r] for r in s)

    return as_coeffs(lie_p), as_coeffs(lie_q), as_coeffs(diff)


def w0_negation_map(rs):
    """The permutation sigma with w0(a_i) = -a_{sigma(i)} in type A.

    Returns sigma as a dict on 1-based nodes and asserts sigma(i) = m+1-i.
    """
    if rs.spec.family != "A":
        raise ValueError("negation map is a type-A statement")
    m = rs.rank
    w0 = longest_element(rs)
    sigma = {}
    for i, si in enumerate(rs.simple_indices, start=1):
        img = w0.perm[si]
        target = rs.neg_index[img]
        j = rs.simple_indices.index(target) + 1
        sigma[i] = j
    if any(sigma[i] != m + 1 - i for i in sigma):
        raise AssertionError(f"A{m}: w0 does not reverse the simple roots")
    return sigma

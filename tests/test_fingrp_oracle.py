"""The normal-closure subgroup routines, the rank-1 reads of
``rank1_from_2transitive`` and the group-core Weyl enumeration against the
algorithms they replaced.

The references multiply group elements as tuples and close sets by
breadth-first search: [H, L] as a closure re-conjugated until it is
stable, the Fitting subgroup as the join of p-cores grown one conjugacy
class at a time, the normal-subgroup lattice by closing every element of
a known subgroup together with one more class, 2-transitivity from a
point stabilizer and as one orbit on ordered pairs, stabilizers by
applying every group element, the Weyl group by a frontier search over
root permutations, and double cosets by a two-sided closure.  ``closure``,
the sorted closure of generators under products, builds the small
subgroups the tests name.

Matrices as tuples of row tuples, with ``tuple_mat_mul`` and
``tuple_row_addition``, are the oracle for the packed integers of
``fingrp``: the same elements in the same order, the same products, and
the same projective action.  The package gives an action only as the
tables of a group's generators; ``Action``, a group acting by
``apply(g, x)`` for any element g, is the reference they are held to:
matrix-vector products on P^n, the affine formula on the line, and
products with a coset lookup on G/K.  ``fingrp`` computes no inverse;
where a reference needs one, ``oracle_inverse`` gives it by an
independent formula (Gauss-Jordan on the decoded rows of a matrix).
``leibniz_det`` checks the determinant's row operations on packed rows,
and the left cosets of B in the enumerated group check the flags of
``SpecialLinear``.
"""

import random
from collections import namedtuple
from functools import partial
from itertools import permutations, product
from operator import mul as _times

import pytest

from test_weyl_oracle import all_elements, weyl_order
from weylbn.cosets import ParabolicChoice, double_coset_count_naive, sweep_cases
import weylbn.fingrp as fingrp
import weylbn.titssys as titssys
from weylbn.fingrp import (
    FiniteGroup,
    SpecialLinear,
    GroupOps,
    affine_group,
    _closure,
    commutator_subgroup,
    conjugacy_classes,
    fitting_subgroup,
    left_cosets,
    mat_det,
    mat_mul,
    normal_closure,
    normal_subgroups,
    orbits,
    packing,
    special_linear_group,
    upper_triangular_subgroup,
)
from weylbn.errors import NotTwoTransitive
from weylbn.rootsys import build_root_system
from weylbn.titssys import (
    affine_rank1_system,
    projective_rank1_system,
    psl3_f2_nonstandard_system,
    rank1_from_2transitive,
    standard_sl_system,
)


def tuple_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def tuple_mat_mul(a, b, p):
    """a*b mod p on tuples of row tuples.  A unit row e_k of a picks the
    row b[k] as it is; other rows are dot products with b's columns."""
    n = len(b)
    cols = None
    rows = []
    for row in a:
        if row.count(0) == n - 1 and 1 in row:
            rows.append(b[row.index(1)])
        else:
            if cols is None:
                cols = tuple(zip(*b))
            rows.append(tuple(sum(map(_times, row, col)) % p for col in cols))
    return tuple(rows)


def tuple_row_addition(i, j, c, p):
    """Left multiplication by the transvection I + c*E_ij as a row
    operation on a tuple matrix: row i of x plus c times row j, mod p."""

    def act(x):
        rows = list(x)
        rows[i] = tuple([(a + c * b) % p for a, b in zip(x[i], x[j])])
        return tuple(rows)

    return act


def tuple_sl(n, p):
    """SL_n(F_p) as sorted tuple matrices, closed under tuple row operations."""
    acts = [tuple_row_addition(i, j, 1, p) for i in range(n) for j in range(n) if abs(i - j) == 1]
    return sorted(_closure(tuple_identity(n), acts)[0])


# Every SL_n(F_p) that ``weylbn report --all`` builds.
REPORT_SL = [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (4, 2)]


@pytest.mark.parametrize("n,p", REPORT_SL)
def test_packed_order_is_tuple_order(n, p):
    k = packing(n, p)
    G = special_linear_group(n, p)
    assert [k.decode(x) for x in G.elements] == tuple_sl(n, p)
    assert [k.encode(k.decode(x)) for x in G.elements] == list(G.elements)
    assert k.decode(G.identity) == tuple_identity(n)


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2)])
def test_projective_action_matches_tuple_action(n, p, monkeypatch):
    # The tables projective_rank1_system builds, read for every element down
    # G's BFS tree, against the tuple matrix of that element times each point.
    G, acts, i, ip = rank1_inputs(monkeypatch, partial(projective_rank1_system, n, p))
    pts = projective_action(n - 1, p).points
    assert G is special_linear_group(n, p) and (i, ip) == (0, 1)
    for m, perm in zip(tuple_sl(n, p), G.tree_perms(acts, len(pts))):
        for v, k in zip(pts, perm):
            w = tuple(sum(map(_times, row, v)) % p for row in m)
            assert pts[k] == _canon(w, p)


@pytest.mark.parametrize("n,p", [(3, 3), (4, 2), (3, 5)])
def test_packed_product_matches_tuple_product(n, p):
    # SL3(F3) and SL4(F2) on random pairs of elements; 3x3 over F5 (SL3(F5)
    # is over the enumeration cap) on random matrices, invertible or not.
    k = packing(n, p)
    rng = random.Random(n * 100 + p)
    if (n, p) == (3, 5):
        rows = range(n)
        mats = [tuple(tuple(rng.randrange(p) for _ in rows) for _ in rows) for _ in range(2000)]
    else:
        mats = [k.decode(x) for x in special_linear_group(n, p).elements]
    for _ in range(20000):
        a, b = mats[rng.randrange(len(mats))], mats[rng.randrange(len(mats))]
        assert k.decode(mat_mul(k.encode(a), k.encode(b), k)) == tuple_mat_mul(a, b, p)


def gauss_jordan_inverse(a, k):
    """Inverse of a packed matrix mod p, by Gauss-Jordan elimination on
    its decoded rows."""
    n, p = k.n, k.p
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(k.decode(a))]
    for c in range(n):
        piv = next(i for i in range(c, n) if m[i][c] % p)
        m[c], m[piv] = m[piv], m[c]
        f = pow(m[c][c], p - 2, p)
        m[c] = [x * f % p for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                g = m[i][c]
                m[i] = [(x - g * y) % p for x, y in zip(m[i], m[c])]
    return k.encode(row[n:] for row in m)


def oracle_inverse(ops, x):
    """x^-1 for a matrix or affine-group ``ops``, by a formula independent
    of ``fingrp``: Gauss-Jordan on the decoded rows, or (t, a)^-1 =
    (-t/a, 1/a)."""
    kind = ops.meta
    if kind[0] == "matrix":
        return gauss_jordan_inverse(x, packing(*kind[1:]))
    p = kind[1]
    a = pow(x[1], p - 2, p)
    return (-a * x[0] % p, a)


def leibniz_det(m, p):
    n = len(m)
    total = 0
    for s in permutations(range(n)):
        term = (-1) ** sum(s[i] > s[j] for i in range(n) for j in range(i + 1, n))
        for i in range(n):
            term *= m[i][s[i]]
        total += term
    return total % p


@pytest.mark.parametrize("n,p", [(2, 3), (3, 2), (3, 5), (4, 3)])
def test_mat_det_matches_leibniz(n, p):
    # Every matrix when there are at most 512, else 3000 random ones,
    # singular ones included.
    k = packing(n, p)
    if p ** (n * n) <= 512:
        mats = list(product(product(range(p), repeat=n), repeat=n))
    else:
        rng = random.Random(n * 100 + p)
        mats = [tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n)) for _ in range(3000)]
    for m in mats:
        assert mat_det(k.encode(m), k) == leibniz_det(m, p)


@pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (3, 2)])
def test_special_linear_membership_is_the_enumerated_set(n, p):
    k, G = packing(n, p), special_linear_group(n, p)
    sl = SpecialLinear(n, p)
    every = [k.encode(m) for m in product(product(range(p), repeat=n), repeat=n)]
    assert [x for x in every if x in sl] == list(G.elements)
    assert sl.order == G.order and set(sl.gens) <= G.elemset


@pytest.mark.parametrize("n,p", REPORT_SL)
def test_flags_are_the_left_cosets_of_b(n, p):
    # x and y have one flag exactly when xB = yB, and a flag is its own flag.
    G = special_linear_group(n, p)
    sl = SpecialLinear(n, p)
    coset_of, reps = left_cosets(G, upper_triangular_subgroup(G))
    cosets_of_flag = {}
    for x, k in zip(G.elements, coset_of):
        cosets_of_flag.setdefault(sl.flag(x), set()).add(k)
    assert len(cosets_of_flag) == len(reps)
    assert all(len(ks) == 1 for ks in cosets_of_flag.values())
    assert all(sl.flag(f) == f for f in cosets_of_flag)


def closure(ops, gens):
    """BFS closure of ``gens`` under multiplication; sorted element tuple."""
    acts = [partial(ops.mul, g) for g in dict.fromkeys(gens)]
    return tuple(sorted(_closure(ops.identity, acts)[0]))


def _generated(ops, gens):
    """Frontier closure of ``gens`` under left multiplication."""
    mul = ops.mul
    gens = list(dict.fromkeys(gens))
    els = {ops.identity}
    frontier = [ops.identity]
    while frontier:
        new = []
        for b in frontier:
            for a in gens:
                c = mul(a, b)
                if c not in els:
                    els.add(c)
                    new.append(c)
        frontier = new
    return frozenset(els)


def _commutator_reference(G, H, L):
    """Close the generator commutators, conjugate the closure by H's and
    L's generators, and close again until nothing new appears."""
    mul, inv = G.ops.mul, partial(oracle_inverse, G.ops)
    seed = {
        mul(mul(h, l), mul(inv(h), inv(l))) for h in H.generators() for l in L.generators()
    }
    current = _generated(G.ops, seed)
    conj_gens = H.generators() + L.generators()
    while True:
        new = {mul(mul(g, x), inv(g)) for g in conj_gens for x in current} - current
        if not new:
            return current
        current = _generated(G.ops, current | new)


def _element_order(ops, x):
    n, cur = 1, x
    while cur != ops.identity:
        cur = ops.mul(cur, x)
        n += 1
    return n


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def _fitting_reference(B):
    """The join of the p-cores, each grown greedily from the classes of
    p-power element order while the closure stays a p-group."""
    classes = conjugacy_classes(B)
    primes = [p for p in range(2, B.order + 1) if B.order % p == 0 and all(p % q for q in range(2, p))]
    gens = set()
    for p in primes or [2]:
        candidates = [c for c in classes if _is_p_power(_element_order(B.ops, min(c)), p)]
        core = frozenset({B.ops.identity})
        changed = True
        while changed:
            changed = False
            for cls in candidates:
                if cls <= core:
                    continue
                grown = _generated(B.ops, core | cls)
                if _is_p_power(len(grown), p):
                    core, changed = grown, True
        gens |= core
    return _generated(B.ops, gens)


def _normal_subgroups_reference(G):
    """Close every element of a known normal subgroup with one more class."""
    classes = conjugacy_classes(G)
    trivial = frozenset({G.ops.identity})
    found, worklist = {trivial}, [trivial]
    while worklist:
        base = worklist.pop()
        for cls in classes:
            if not cls <= base:
                grown = _generated(G.ops, base | cls)
                if grown not in found:
                    found.add(grown)
                    worklist.append(grown)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def _frob21():
    A7 = affine_group(7)
    return A7.subgroup(closure(A7.ops, [(1, 1), (0, 2)]))


def _borel(n, p):
    return upper_triangular_subgroup(special_linear_group(n, p))


GROUPS = {
    "affine-5": lambda: affine_group(5),
    "affine-7": lambda: affine_group(7),
    "sl-2-3": lambda: special_linear_group(2, 3),
    "sl-2-5": lambda: special_linear_group(2, 5),
    "sl-3-2": lambda: special_linear_group(3, 2),
    "frob21": _frob21,
    "borel-3-2": lambda: _borel(3, 2),
    "borel-3-3": lambda: _borel(3, 3),
    "borel-4-2": lambda: _borel(4, 2),
    # B of the standard system, built from a never enumerated SL3(F3).
    "standard-b-3-3": lambda: standard_sl_system(3, 3).B,
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_normal_closure_is_generated_by_all_conjugates(name):
    G = GROUPS[name]()
    mul, inv = G.ops.mul, partial(oracle_inverse, G.ops)
    for cls in conjugacy_classes(G):
        x = min(cls)
        conjugates = {mul(mul(g, x), inv(g)) for g in G.elements}
        assert normal_closure(G, [x], G.generators()).elemset == _generated(G.ops, conjugates)
    # Normalized only by the subgroup it generates: the plain closure.
    seeds = G.generators()[:1]
    assert normal_closure(G, seeds, seeds).elemset == _generated(G.ops, seeds)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_commutator_subgroup_matches_fixpoint(name):
    G = GROUPS[name]()
    D = commutator_subgroup(G, G)
    assert D.elemset == _commutator_reference(G, G, G)
    assert commutator_subgroup(G, D).elemset == _commutator_reference(G, G, D)
    assert commutator_subgroup(D, D).elemset == _commutator_reference(G, D, D)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_fitting_subgroup_matches_p_cores(name):
    G = GROUPS[name]()
    assert fitting_subgroup(G).elemset == _fitting_reference(G)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_normal_subgroups_match_whole_element_lattice(name):
    G = GROUPS[name]()
    assert [H.elemset for H in normal_subgroups(G)] == _normal_subgroups_reference(G)


class Action(namedtuple("Action", "group points apply")):
    """A finite group acting on listed points by ``apply(g, x)``, for any
    element g."""

    def tables(self):
        """The tables of the generators on the point indices, as
        ``rank1_from_2transitive`` takes them."""
        at = {pt: k for k, pt in enumerate(self.points)}
        return [[at[self.apply(g, pt)] for pt in self.points] for g in self.group.generators()]

    def rank1(self, x, xp):
        """``rank1_from_2transitive`` on these tables, at the points x and x'."""
        at = self.points.index
        return rank1_from_2transitive(self.group, self.tables(), at(x), at(xp))


def _canon(v, p):
    """The lexicographically least scalar multiple of a nonzero vector."""
    return min(tuple(x * lam % p for x in v) for lam in range(1, p))


def projective_action(n, p):
    """SL_{n+1}(F_p) on P^n(F_p), the canonical vectors in sorted order, by
    matrix-vector products."""
    k = packing(n + 1, p)
    pts = sorted({_canon(v, p) for v in product(range(p), repeat=n + 1) if any(v)})

    def apply(g, v):
        return _canon(tuple(sum(map(_times, row, v)) % p for row in k.decode(g)), p)

    return Action(special_linear_group(n + 1, p), tuple(pts), apply)


def affine_line(p):
    """The affine group of F_p on the line, (t, x) sending y to x·y + t."""
    return Action(affine_group(p), tuple(range(p)), lambda g, y: (g[1] * y + g[0]) % p)


def coset_action_by_products(G, K):
    """G on the left cosets of K, each named by its least member: the sets
    x·K, formed by products, and g·r looked up in them."""
    mul, name = G.ops.mul, {}
    for x in G.elements:  # ascending, so x is the least of x·K when first met
        if x not in name:
            name.update((mul(x, k), x) for k in K.elements)
    return Action(G, tuple(dict.fromkeys(name.values())), lambda g, r: name[mul(g, r)])


def rank1_inputs(monkeypatch, build):
    """The arguments (G, acts, i, ip) that ``build()`` passes to
    ``rank1_from_2transitive``."""
    seen = []
    real = titssys.rank1_from_2transitive

    def spy(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(titssys, "rank1_from_2transitive", spy)
    build()
    (args,) = seen
    return args


def _is_2transitive_reference(action):
    """Transitive, and the stabilizer of the first point transitive on
    the rest, each by applying every group element."""
    G, pts, apply = action.group, action.points, action.apply
    if len(pts) < 2:
        return False
    x = pts[0]
    if {apply(g, x) for g in G.elements} != set(pts):
        return False
    stab = [g for g in G.elements if apply(g, x) == x]
    y = pts[1]
    return {apply(g, y) for g in stab} == set(pts) - {x}


def _action_orbits(action):
    """Orbit partition, each orbit a frozenset, deterministic order."""
    pts = action.points
    return [frozenset(pts[i] for i in orb) for orb in orbits(action.tables(), len(pts))]


def _setwise_stabilizer_scan(action, pair):
    """The g that map the set ``pair`` onto itself, applying every g."""
    pair = frozenset(pair)
    members = [
        g
        for g in action.group.elements
        if frozenset(action.apply(g, x) for x in pair) == pair
    ]
    return action.group.subgroup(members)


def _is_2transitive_on_pairs(action):
    """Transitive on the ordered pairs of distinct points: one orbit of
    the action on pairs."""
    pts, apply = action.points, action.apply
    pairs = tuple((x, y) for x in pts for y in pts if x != y)
    on_pairs = Action(action.group, pairs, lambda g, xy: (apply(g, xy[0]), apply(g, xy[1])))
    return len(_action_orbits(on_pairs)) == 1


def _c4_regular():
    ops = GroupOps(mul=lambda a, b: (a + b) % 4, identity=0, fmt=str, label="C4")
    return Action(FiniteGroup(ops, range(4)), tuple(range(4)), lambda g, y: (g + y) % 4)


def _c4_on_one_point():
    action = _c4_regular()
    return Action(action.group, (0,), lambda g, y: y)


def _coset_action_of(system):
    c = system()
    return coset_action_by_products(c.G, c.B)


ACTIONS = {
    "projective-1-2": lambda: projective_action(1, 2),
    "projective-1-3": lambda: projective_action(1, 3),
    "projective-1-7": lambda: projective_action(1, 7),
    "projective-2-2": lambda: projective_action(2, 2),
    "affine-line-3": lambda: affine_line(3),
    "affine-line-5": lambda: affine_line(5),
    "affine-line-7": lambda: affine_line(7),
    "regular-c4": _c4_regular,
    "c4-one-point": _c4_on_one_point,
    "sl-3-2-on-flags": lambda: coset_action_by_products(special_linear_group(3, 2), _borel(3, 2)),
    "projective-3-2-cosets": lambda: _coset_action_of(lambda: projective_rank1_system(3, 2)),
    "psl3f2-nonstandard-cosets": lambda: _coset_action_of(psl3_f2_nonstandard_system),
}


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_is_2transitive_matches_stabilizer_test(name):
    action = ACTIONS[name]()
    assert _is_2transitive_on_pairs(action) == _is_2transitive_reference(action)


@pytest.mark.parametrize("name", sorted(n for n in ACTIONS if n != "c4-one-point"))
def test_rank1_tree_reads_match_scans(name):
    # For every ordered pair of base points: refused exactly when the
    # oracles find the action not 2-transitive, else B = Stab(x) and
    # N = Stab{x, x'} as the scans find them.
    action = ACTIONS[name]()
    pts = action.points
    transitive2 = _is_2transitive_on_pairs(action)
    assert transitive2 == _is_2transitive_reference(action)
    stab = {x: _setwise_stabilizer_scan(action, (x,)) for x in pts} if transitive2 else {}
    for x in pts:
        for xp in pts:
            if x == xp:
                continue
            if not transitive2:
                with pytest.raises(NotTwoTransitive, match="not 2-transitive"):
                    action.rank1(x, xp)
                continue
            c = action.rank1(x, xp)
            assert c.G is action.group
            assert c.B.elemset == stab[x].elemset
            assert c.N.elemset == _setwise_stabilizer_scan(action, (x, xp)).elemset


def test_rank1_reads_b_and_n_with_no_product(monkeypatch):
    # B, N and 2-transitivity are read off the generators' tables down G's
    # BFS tree: no product is formed before the candidate is built (whose
    # subgroup checks then grow B's and N's generating sets).
    action = projective_action(2, 3)
    acts = action.tables()
    calls = [0]
    mat_mul = fingrp.mat_mul

    def counted(a, b, k):
        calls[0] += 1
        return mat_mul(a, b, k)

    monkeypatch.setattr(fingrp, "mat_mul", counted)
    monkeypatch.setattr(titssys, "TitsSystemCandidate", lambda G, B, N, label: (calls[0], B, N))
    made, B, N = rank1_from_2transitive(action.group, acts, 0, 1)
    x, xp = action.points[:2]
    assert made == 0
    assert B.elemset == _setwise_stabilizer_scan(action, (x,)).elemset
    assert N.elemset == _setwise_stabilizer_scan(action, (x, xp)).elemset


def _nonstandard_reference():
    """The coset action and base points psl3_f2_nonstandard_system names:
    G on G/B, x the coset B, x' the first other coset."""
    c = psl3_f2_nonstandard_system()
    action = coset_action_by_products(c.G, c.B)
    x = min(c.B.elements)
    return action, x, next(pt for pt in action.points if pt != x)


def _projective_reference(n, p):
    action = projective_action(n - 1, p)
    return (action, *action.points[:2])


RANK1_SYSTEMS = {
    **{
        f"projective-{n}-{p}": (
            partial(projective_rank1_system, n, p),
            partial(_projective_reference, n, p),
        )
        for n, p in [(2, 2), (2, 3), (2, 7), (3, 2), (3, 3), (4, 2)]
    },
    **{
        f"affine-{p}": (partial(affine_rank1_system, p), lambda p=p: (affine_line(p), 0, p - 1))
        for p in (3, 5, 7)
    },
    "psl3f2-nonstandard": (psl3_f2_nonstandard_system, _nonstandard_reference),
}


@pytest.mark.parametrize("name", sorted(RANK1_SYSTEMS))
def test_rank1_constructors_pass_the_reference_tables(name, monkeypatch):
    # Each constructor hands rank1_from_2transitive its generators' tables
    # and base points; they equal those of the reference action, so B and N
    # are the stabilizers test_rank1_tree_reads_match_scans holds to scans.
    build, reference = RANK1_SYSTEMS[name]
    action, x, xp = reference()
    G, acts, i, ip = rank1_inputs(monkeypatch, build)
    assert (G.elements, G.generators()) == (action.group.elements, action.group.generators())
    assert acts == action.tables()
    assert (action.points[i], action.points[ip]) == (x, xp)


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_tree_perms_match_tree_images(name):
    # Every element's permutation of the points, read down the BFS tree,
    # against the images of each point one at a time and against applying
    # the element itself.
    action = ACTIONS[name]()
    G, pts = action.group, action.points
    at = {pt: i for i, pt in enumerate(pts)}
    acts = action.tables()
    perms = G.tree_perms(acts, len(pts))
    assert [list(col) for col in zip(*perms)] == [G.tree_images(y, acts) for y in range(len(pts))]
    assert perms == [[at[action.apply(g, pt)] for pt in pts] for g in G.elements]


def test_rank1_refuses_base_points_that_are_not_points():
    one_point = ACTIONS["c4-one-point"]()
    C4, acts = one_point.group, one_point.tables()
    with pytest.raises(ValueError, match="must differ"):
        rank1_from_2transitive(C4, acts, 0, 0)
    with pytest.raises(ValueError, match="x' = 1 is not a point"):
        rank1_from_2transitive(C4, acts, 0, 1)
    line = affine_line(5)
    with pytest.raises(ValueError, match="x = 5 is not a point"):
        rank1_from_2transitive(line.group, line.tables(), 5, 0)
    with pytest.raises(ValueError, match="x' = 'a' is not a point"):
        rank1_from_2transitive(line.group, line.tables(), 0, "a")
    # Before 2-transitivity: the regular C4 is refused for the point.
    with pytest.raises(ValueError, match="x' = 4 is not a point"):
        rank1_from_2transitive(C4, _c4_regular().tables(), 0, 4)


def _all_elements_reference(rs):
    """Root permutations by frontier search, each with its BFS depth."""
    ident = tuple(range(len(rs.roots)))
    lengths = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in rs.simple_refl_perms:
                q = tuple(g[p[r]] for r in ident)
                if q not in lengths:
                    lengths[q] = lengths[p] + 1
                    nxt.append(q)
        frontier = nxt
    return lengths


def _naive_count_reference(choice, elements):
    """Double cosets by exhausting ``elements`` with two-sided closures."""
    core = choice.core
    sub = [core.simple_refl_perms[n - 1] for n in range(1, core.rank + 1) if n != choice.removed]
    n_idx = range(len(core.roots))
    remaining = set(elements)
    count = 0
    while remaining:
        frontier = [remaining.pop()]
        count += 1
        while frontier:
            nxt = []
            for p in frontier:
                for g in sub:
                    for q in (tuple(g[p[r]] for r in n_idx), tuple(p[g[r]] for r in n_idx)):
                        if q in remaining:
                            remaining.remove(q)
                            nxt.append(q)
            frontier = nxt
    return count


SMALL_TYPES = [("A", 1), ("B", 1), ("BC", 1), ("C", 1)] + [
    t for t in sweep_cases(12) if weyl_order(*t) <= 10**4
]


@pytest.mark.parametrize("fam,rank", SMALL_TYPES, ids=[f"{f}{r}" for f, r in SMALL_TYPES])
def test_weyl_enumeration_and_naive_count_match_frontier_search(fam, rank):
    rs = build_root_system((fam, rank))
    core = ParabolicChoice(rs, 1).core
    reference = _all_elements_reference(core)
    assert len(reference) == weyl_order(fam, rank)
    assert all_elements(core) == reference
    for node in range(1, rank + 1):
        choice = ParabolicChoice(rs, node)
        assert double_coset_count_naive(choice) == _naive_count_reference(choice, reference)

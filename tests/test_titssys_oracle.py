"""The index core of titssys against the element-by-element code it
replaced: the same cells, T1, T4, normalizer check, S, lengths and words.

``Reference`` multiplies group elements one by one with ``ops.mul``:
cosets by sorting nH, double cosets as {b·w·b'}, T1 as a breadth-first
closure, T4 as the set sBs, the normalizer by conjugating B's generators
with every g.  ``check_axioms`` reads all of them off the action on G/B
instead.  ``classify``, which reads its flags off group orders, is
checked against ``weakly_split_bruteforce`` and the product set of its
witness.

A standard system lists no G: its chambers are the complete flags.  The
tests enumerate G themselves and build the same system on it
(``_enumerated_sl``), whose chambers are the left cosets of B, and hold
the flag path to that one and to ``Reference``.
"""

from functools import lru_cache, partial

import pytest

import weylbn.fingrp as fingrp
from test_fingrp import _unipotent_scan
from test_fingrp_oracle import (
    REPORT_SL,
    _setwise_stabilizer_scan,
    coset_action_by_products,
    oracle_inverse,
    projective_action,
)
import weylbn.titssys as titssys
from weylbn import cli
from weylbn.errors import NotAStabilizer
from weylbn.fingrp import (
    FiniteGroup,
    SpecialLinear,
    _shaped_members,
    affine_group,
    monomial_subgroup,
    normal_closure,
    packing,
    special_linear_group,
    upper_triangular_subgroup,
)
from weylbn.titssys import (
    TitsSystemCandidate,
    _derived,
    affine_rank1_system,
    bruhat_cells,
    check_axioms,
    classify,
    find_S,
    intersection_identity_check,
    order_of_product,
    projective_rank1_system,
    psl3_f2_nonstandard_system,
    sl_rank1_column_system,
    standard_sl_system,
    star_property_check,
)


def _closure_reference(ops, gens):
    mul = ops.mul
    els = {ops.identity}
    els.update(gens)
    frontier = list(els)
    gens = list(dict.fromkeys(gens))
    while frontier:
        new = []
        for b in frontier:
            for a in gens:
                c = mul(a, b)
                if c not in els:
                    els.add(c)
                    new.append(c)
        frontier = new
    return tuple(sorted(els))


class Reference:
    """Weyl quotient, cells, S, lengths, words and the T1, T3, T4, star
    and normalizer verdicts, all by tuple multiplication."""

    def __init__(self, c):
        G, B, N = c.G, c.B, c.N
        mul, inv = G.ops.mul, partial(oracle_inverse, G.ops)
        self.mul = mul
        H = G.subgroup(B.elemset & N.elemset)
        rep_of = {}
        for n in N.elements:
            if n not in rep_of:
                coset = sorted(mul(n, h) for h in H.elements)
                for x in coset:
                    rep_of[x] = coset[0]
        self.rep_of = rep_of
        self.reps = tuple(sorted(set(rep_of.values())))
        e = self.identity_rep = rep_of[G.ops.identity]

        cell_of, cell_sets = {}, {}
        for w in self.reps:
            if w in cell_of:
                cell_sets[w] = None
                continue
            left = {mul(b, w) for b in B.elements}
            cell = frozenset(mul(x, b) for x in left for b in B.elements)
            cell_sets[w] = cell
            for x in cell:
                cell_of.setdefault(x, w)
        self.cell_of, self.cell_sets = cell_of, cell_sets

        self.s_reps = tuple(
            w
            for w in self.reps
            if w != e
            and all(cell_of.get(mul(mul(w, b), w)) in (e, w) for b in B.elements)
        )

        lengths, words = {e: 0}, {e: ()}
        frontier = [e]
        while frontier:
            nxt = []
            for w in frontier:
                for k, s in enumerate(self.s_reps, start=1):
                    u = self.wmul(s, w)
                    if u not in lengths:
                        lengths[u] = lengths[w] + 1
                        words[u] = (k,) + words[w]
                        nxt.append(u)
            frontier = nxt
        changed = True
        while changed:
            changed = False
            for w in lengths:
                for k, s in enumerate(self.s_reps, start=1):
                    u = self.wmul(s, w)
                    if lengths[u] == lengths[w] + 1 and (k,) + words[w] < words[u]:
                        words[u] = (k,) + words[w]
                        changed = True
        self.lengths, self.words = lengths, words

        self.t1 = _closure_reference(G.ops, B.generators() + N.generators()) == G.elements
        self.t3 = all(
            cell_of.get(mul(mul(s, b), w)) in (w, self.wmul(s, w))
            for s in self.s_reps
            for w in self.reps
            for b in B.elements
        )
        self.t4 = not any(
            {mul(mul(s, b), s) for b in B.elements} == B.elemset for s in self.s_reps
        )
        self.star = True if lengths.keys() == set(self.reps) else None
        for s in self.s_reps if self.star else ():
            for w in self.reps:
                sw = self.wmul(s, w)
                got = {cell_of.get(mul(mul(s, b), w)) for b in B.elements}
                want = {sw} if lengths[sw] > lengths[w] else {w, sw}
                if got != want or (lengths[sw] <= lengths[w] and w == sw):
                    self.star = False
        self.normalizer = not any(
            all(mul(mul(g, b), inv(g)) in B.elemset for b in B.generators())
            for g in G.elements
            if g not in B.elemset
        )

    def wmul(self, r1, r2):
        return self.rep_of[self.mul(r1, r2)]


def weakly_split_bruteforce(c):
    """Oracle: search every normal subgroup of B for a nilpotent one U
    with B = HU, by forming the products.  Intended for |B| small."""
    H = _derived(c).H
    mul = c.G.ops.mul
    for U in fingrp.normal_subgroups(c.B):
        if not fingrp.is_nilpotent(U):
            continue
        if {mul(h, u) for h in H.elements for u in U.elements} == c.B.elemset:
            return True
    return False


def _unipotent_monomial_sl23():
    """(SL2(F3), U, N) with U the unipotent radical: the torus normalizes
    U, so the normalizer check fails."""
    G = special_linear_group(2, 3)
    U = G.subgroup(_unipotent_scan(G))
    return TitsSystemCandidate(G, U, monomial_subgroup(G), label="sl-2-3-unipotent")


def _u_u_sl23():
    """(SL2(F3), U, U): U's cell alone does not cover G, so check_axioms
    finishes the (U, U) partition, where the torus normalizes U."""
    G = special_linear_group(2, 3)
    U = G.subgroup(_unipotent_scan(G))
    return TitsSystemCandidate(G, U, U, label="sl-2-3-uu")


def _affine5_translations():
    """(AGL1(F5), translations, AGL1(F5)): B is normal, so W = G/B ≅ Z4
    and the class of y -> -y is an involution that normalizes B; it is S,
    and sBs = B, so T4 fails while T3 holds."""
    G = affine_group(5)
    B = G.subgroup([(t, 1) for t in range(5)])
    return TitsSystemCandidate(G, B, G, label="affine-5-translations")


def _b_b_sl32():
    """(SL3(F2), B, B): B and B do not generate G, so T1 fails."""
    G = special_linear_group(3, 2)
    B = upper_triangular_subgroup(G)
    return TitsSystemCandidate(G, B, B, label="sl-3-2-bb")


@lru_cache(maxsize=None)
def _enumerated_sl(n, p):
    """The standard system on the enumerated SL_n(F_p): B and N from their
    shapes, the chambers numbered by ``left_cosets``."""
    G = special_linear_group(n, p)
    B, N = upper_triangular_subgroup(G), monomial_subgroup(G)
    return TitsSystemCandidate(G, B, N, label=f"enumerated-sl-{n}-{p}")


def _listed(c):
    """``c`` if its G is enumerated, else the same system on the enumerated G."""
    return c if isinstance(c.G, FiniteGroup) else _enumerated_sl(*c.G.ops.meta[1:])


SYSTEMS = {
    "sl-2-3": lambda: standard_sl_system(2, 3),
    "sl-3-2": lambda: standard_sl_system(3, 2),
    "sl-3-3": lambda: standard_sl_system(3, 3),
    "affine-5": lambda: affine_rank1_system(5),
    "affine-5-translations": _affine5_translations,
    "projective-3-2": lambda: projective_rank1_system(3, 2),
    "psl3f2-nonstandard": psl3_f2_nonstandard_system,
    "sl-2-3-unipotent": _unipotent_monomial_sl23,
    "sl-2-3-uu": _u_u_sl23,
    "sl-3-2-bb": _b_b_sl32,
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_index_core_matches_tuple_reference(name):
    c = SYSTEMS[name]()
    full = _listed(c)
    ref = Reference(full)
    d = _derived(c)

    assert d.reps == ref.reps
    assert d.identity_rep == ref.identity_rep
    assert find_S(c) == d.s_reps == ref.s_reps
    assert d.lengths == ref.lengths
    assert d.words == ref.words
    assert all(d.wmul(a, b) == ref.wmul(a, b) for a in d.reps for b in d.reps)

    assert list(d.cell_size) == [w for w in ref.reps if ref.cell_sets[w] is not None]
    for w, size in d.cell_size.items():
        assert size == len(ref.cell_sets[w])
    assert [d.cell_of[d.coset(x)] for x in full.G.elements] == [
        ref.cell_of.get(x) for x in full.G.elements
    ]

    rep = check_axioms(c)
    assert rep.t1_generates == ref.t1
    assert rep.t3_holds == ref.t3
    assert rep.t4_holds == ref.t4
    assert rep.normalizer_is_b == ref.normalizer
    if ref.star is None:  # S does not generate W
        assert not rep.t2_holds
    else:
        assert star_property_check(c) == ref.star


def test_checks_run_on_the_cosets_of_b(monkeypatch):
    # The derived data builds G's right tables of B's generators, to number
    # G/B, and no other table of |G| entries; N's elements are read down
    # N's own tree.  After it, the checks read permutations of the |G|/|B|
    # cosets: check_axioms walks one orbit, the T1 orbit of the coset B.
    right, left, passes = [], [], []
    right_table, left_table = FiniteGroup.right_table, FiniteGroup.left_table
    orbits = titssys.orbits

    def counted_right_table(G, x):
        right.append((G, x))
        return right_table(G, x)

    def counted_left_table(G, x):
        left.append((G, x))
        return left_table(G, x)

    def counted_orbits(perms, size, seeds=None):
        out = orbits(perms, size, seeds)
        passes.append((size, sum(map(len, out))))
        return out

    c = _enumerated_sl(4, 2)
    _derived(c)
    monkeypatch.setattr(FiniteGroup, "right_table", counted_right_table)
    monkeypatch.setattr(FiniteGroup, "left_table", counted_left_table)
    titssys._Derived(c)
    assert [x for G, x in right if G is c.G] == list(c.B.generators())
    assert all(G is c.G or G is c.N for G, _ in right)
    assert left == []

    c = standard_sl_system(3, 3)
    _derived(c)
    right.clear()
    monkeypatch.setattr(titssys, "orbits", counted_orbits)
    monkeypatch.setattr(fingrp, "orbits", counted_orbits)
    cosets = c.G.order // c.B.order
    rep = check_axioms(c)
    assert rep.passed and rep.bruhat_bijective
    assert passes == [(cosets, cosets)]
    assert star_property_check(c) and intersection_identity_check(c) and classify(c).split
    assert all(size < c.G.order for size, _ in passes)
    assert not any(G is c.G for G, _ in right)


def test_standard_system_never_enumerates_g(monkeypatch):
    # SL4(F2) has 20,160 elements, and its standard system lists none:
    # B's is the one spot check, and no table it builds, checks included,
    # has more than |B| entries.
    right, checks = [], []
    right_table, spot_check = FiniteGroup.right_table, FiniteGroup._spot_check

    def counted_right_table(G, x):
        right.append(G.order)
        return right_table(G, x)

    def counted_spot_check(G):
        checks.append(G)
        return spot_check(G)

    def refuse(n, p):
        raise AssertionError(f"SL{n}(F{p}) enumerated")

    monkeypatch.setattr(fingrp, "special_linear_group", refuse)
    monkeypatch.setattr(titssys, "special_linear_group", refuse)
    monkeypatch.setattr(FiniteGroup, "right_table", counted_right_table)
    monkeypatch.setattr(FiniteGroup, "_spot_check", counted_spot_check)
    standard_sl_system.cache_clear()
    c = standard_sl_system(4, 2)
    assert checks == [c.B]
    assert check_axioms(c).passed
    assert star_property_check(c) and intersection_identity_check(c)
    assert classify(c).split
    assert right and max(right) <= c.B.order == 64


@pytest.mark.parametrize("n,p", REPORT_SL)
def test_flags_match_the_cosets_of_the_enumerated_group(n, p):
    c, old = standard_sl_system(n, p), _enumerated_sl(n, p)
    d, e = _derived(c), _derived(old)
    for field in ("reps", "s_reps", "lengths", "words", "cell_size", "stabilizers"):
        assert getattr(d, field) == getattr(e, field), field
    assert check_axioms(c) == check_axioms(old)
    assert check_axioms(c).passed
    flags, old_flags = classify(c), classify(old)
    assert flags == old_flags and flags.witness_u.elemset == old_flags.witness_u.elemset
    ref = Reference(old)
    assert all(d.cell_of[d.coset(x)] == ref.cell_of.get(x) for x in old.G.elements)


@pytest.mark.parametrize("n,p", REPORT_SL)
def test_flags_are_the_chamber_representatives(n, p):
    c = standard_sl_system(n, p)
    d = _derived(c)
    assert len(d.coset_reps) * c.B.order == c.G.order
    for k, f in enumerate(d.coset_reps):
        assert c.G.flag(f) == f and d.coset(f) == k


def test_stabilizer_check_names_its_counterexample():
    # B must be the stabilizer of the standard flag, checked before the
    # axioms: the unipotent radical alone is too small, and the lower
    # triangular group moves the flag.
    G = SpecialLinear(3, 3)
    k = packing(3, 3)
    B, N = upper_triangular_subgroup(G), monomial_subgroup(G)
    U = FiniteGroup(G.ops, [b for b in B.elements if all(k.decode(b)[i][i] == 1 for i in range(3))])
    small = TitsSystemCandidate(G, U, N)
    with pytest.raises(NotAStabilizer, match=r"27·52 is not \|G\| = 5616"):
        check_axioms(small)
    result = cli.run_suite("bn", [("axioms/small", partial(cli.axioms_case, small))])
    assert result.cases[0].actual.startswith("NotAStabilizer: |B|·|G·x0| = 27·52")
    lower = FiniteGroup(G.ops, [k.transpose(b) for b in B.elements])
    with pytest.raises(NotAStabilizer, match="moves the standard flag"):
        _derived(TitsSystemCandidate(G, lower, N))


def _stabilizers_by_products(c):
    """B ∩ wBw^-1 as the b with b·wB = wB, one product per (b, w)."""
    d, mul = _derived(c), c.G.ops.mul
    return {w: {b for b in c.B.elements if d.coset(mul(b, w)) == d.coset(w)} for w in d.reps}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_tree_stabilizers_match_products(name):
    c = SYSTEMS[name]()
    assert _derived(c).stabilizers == _stabilizers_by_products(c)


# Every system the tests build that classify runs on.
CLASSIFIED = {
    **{
        f"sl-{n}-{p}": partial(standard_sl_system, n, p)
        for n, p in [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (4, 2)]
    },
    **{f"column-{n}-{p}": partial(sl_rank1_column_system, n, p) for n, p in [(2, 2), (2, 3), (3, 2)]},
    **{
        f"projective-{n}-{p}": partial(projective_rank1_system, n, p)
        for n, p in [(2, 3), (2, 5), (2, 7), (3, 2)]
    },
    **{f"affine-{q}": partial(affine_rank1_system, q) for q in (3, 5, 7)},
    "psl3f2-nonstandard": psl3_f2_nonstandard_system,
}


@pytest.mark.parametrize("name", sorted(CLASSIFIED))
def test_classify_orders_match_products(name):
    c = CLASSIFIED[name]()
    flags = classify(c)
    assert flags.weakly_split == weakly_split_bruteforce(c)
    assert flags.split == (flags.witness_u is not None)
    if flags.split:
        H, U, mul = _derived(c).H, flags.witness_u, c.G.ops.mul
        assert H.elemset & U.elemset == {c.G.ops.identity}
        assert {mul(h, u) for h in H.elements for u in U.elements} == c.B.elemset


@pytest.mark.parametrize("name", ["sl-3-3", "sl-2-5"])
def test_classify_multiplies_no_group_elements(name, monkeypatch):
    # Given Fit(B), whose nilpotency check closes new subgroups, classify
    # reads orders and intersections only: on SL3(F3) Fit(B) is the witness,
    # on SL2(F5) the normal-subgroup lattice is searched.  The brute-force
    # oracle forms the products H·U.  ``fingrp.mat_mul`` is the packed
    # product every matrix group's ``ops.mul`` calls.
    c = CLASSIFIED[name]()
    fit = fingrp.fitting_subgroup(c.B)
    monkeypatch.setattr(titssys, "fitting_subgroup", lambda B: fit)
    classify(c)
    calls = [0]
    mat_mul = fingrp.mat_mul

    def counted(a, b, k):
        calls[0] += 1
        return mat_mul(a, b, k)

    monkeypatch.setattr(fingrp, "mat_mul", counted)
    assert classify(c).split
    assert calls[0] == 0
    assert weakly_split_bruteforce(c) and calls[0] > 0


LOOKED_UP = {
    "sl-3-3": partial(standard_sl_system, 3, 3),
    "sl-4-2": partial(standard_sl_system, 4, 2),
    "sl-rank1-3-3": partial(sl_rank1_column_system, 3, 3),
    "projective-3-3": partial(projective_rank1_system, 3, 3),
}


@pytest.mark.parametrize("name", sorted(LOOKED_UP))
def test_checks_are_lookups(name, monkeypatch):
    # The derived data forms the chamber permutations of B's and N's
    # generators, on the flags or on the left cosets of an enumerated G.
    # After it, every check reads permutations and multiplies nothing.
    c = LOOKED_UP[name]()
    d = _derived(c)
    calls = [0]
    mat_mul = fingrp.mat_mul

    def counted(a, b, k):
        calls[0] += 1
        return mat_mul(a, b, k)

    monkeypatch.setattr(fingrp, "mat_mul", counted)
    assert check_axioms(c).passed
    assert star_property_check(c) and intersection_identity_check(c)
    assert sum(bruhat_cells(c).values()) == c.G.order
    assert all(order_of_product(c, s, t) in (1, 2, 3) for s in d.s_reps for t in d.s_reps)
    assert calls[0] == 0


def _column_n_by_conjugation(G, n, p):
    """N = H ∪ gH as the column system first built it: H = B ∩ B' fixes
    the lines through e_1 and e_n, and g, the least element swapping them,
    is checked to conjugate B onto B', one product pair per element of B."""
    units, free = range(1, p), range(p)

    def columns(lo, hi):
        return {(i, j): free for i in range(n) for j in range(lo, hi)}

    B = G.subgroup(_shaped_members(G, [{(0, 0): units, **columns(1, n)}]))
    Bp = G.subgroup(_shaped_members(G, [{(n - 1, n - 1): units, **columns(0, n - 1)}]))
    H = B.elemset & Bp.elemset
    g = min(_shaped_members(G, [{(n - 1, 0): units, (0, n - 1): units, **columns(1, n - 1)}]))
    mul, gi = G.ops.mul, oracle_inverse(G.ops, g)
    assert {mul(mul(g, b), gi) for b in B.elements} == Bp.elemset
    return H | {mul(g, h) for h in H}


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (2, 5), (3, 3)])
def test_column_system_n_matches_references(n, p):
    # N from its two shapes against H ∪ gH and against the scanned setwise
    # stabilizer of the two lines, on the enumerated G acting on P^(n-1).
    c = sl_rank1_column_system(n, p)
    assert c.N.elemset == _column_n_by_conjugation(c.G, n, p)
    lines = projective_action(n - 1, p)
    e1, en = (tuple(int(i == j) for i in range(n)) for j in (0, n - 1))
    assert lines.group is c.G and {e1, en} <= set(lines.points)
    assert c.N.elemset == _setwise_stabilizer_scan(lines, (e1, en)).elemset
    assert c.B.elemset == _setwise_stabilizer_scan(lines, (e1,)).elemset


def test_psl3f2_normalizer_is_read_with_no_product(monkeypatch):
    # K, the normalizer of <seed7>, and G's tables on its 8 cosets are
    # complete when the rank-1 system is built on them; up to there no two
    # elements are multiplied.
    G = special_linear_group(3, 2)
    calls, seen = [0], {}
    mat_mul = fingrp.mat_mul

    def counted(a, b, k):
        calls[0] += 1
        return mat_mul(a, b, k)

    class Stop(Exception):
        pass

    def stop(G, acts, i, ip):
        seen.update(G=G, acts=acts, i=i, ip=ip, calls=calls[0])
        raise Stop

    monkeypatch.setattr(fingrp, "mat_mul", counted)
    monkeypatch.setattr(titssys, "rank1_from_2transitive", stop)
    with pytest.raises(Stop):
        psl3_f2_nonstandard_system()
    assert seen["calls"] == 0
    # The product scan it replaced: g·seed7·g^-1 in <seed7>.
    mul, inv = G.ops.mul, partial(oracle_inverse, G.ops)
    seed7 = next(s for s in G.elements if normal_closure(G, [s], ()).order == 7)
    P7 = normal_closure(G, [seed7], ()).elemset
    K = G.subgroup([g for g in G.elements if mul(mul(g, seed7), inv(g)) in P7])
    assert K.order == 21
    # The tables against products: g sends the coset of r to that of g·r.
    # x is the coset K, x' the first other one.
    action = coset_action_by_products(G, K)
    assert seen["G"] is G and seen["acts"] == action.tables()
    x, xp = (action.points[seen[k]] for k in ("i", "ip"))
    assert x == min(K.elements) and xp == next(pt for pt in action.points if pt != x)

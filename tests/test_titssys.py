import pytest

from test_fingrp import _unipotent_scan
from test_fingrp_oracle import coset_action_by_products, projective_action
from test_titssys_oracle import weakly_split_bruteforce
from weylbn.errors import HNotNormal, NotTwoTransitive, WeylNotGenerated
from weylbn.fingrp import (
    FiniteGroup,
    GroupOps,
    fitting_subgroup,
    monomial_subgroup,
    special_linear_group,
    upper_triangular_subgroup,
)
from weylbn.titssys import (
    TitsSystemCandidate,
    affine_rank1_system,
    bruhat_cells,
    check_axioms,
    classify,
    cell_size_formula_check,
    find_S,
    intersection_identity_check,
    order_of_product,
    projective_rank1_system,
    psl3_f2_nonstandard_system,
    rank1_from_2transitive,
    sl_rank1_column_system,
    standard_sl_system,
    star_property_check,
)


def test_standard_b_is_a_subgroup_of_the_enumerated_group():
    # Groups compare their ops by identity, so one ops object per (n, p)
    # lets the standard B, built on a never enumerated SL3(F2), meet the
    # enumerated one.
    G = special_linear_group(3, 2)
    B = standard_sl_system(3, 2).B
    assert B.is_subgroup_of(G)
    assert B == upper_triangular_subgroup(G)


def test_derive_weyl_standard():
    c = standard_sl_system(3, 2)
    H, reps = c.derived.H, c.derived.reps
    assert H.order == 1 and len(reps) == 6


def test_derive_weyl_rank1():
    c = projective_rank1_system(3, 2)
    H, reps = c.derived.H, c.derived.reps
    assert len(reps) == 2
    assert c.N.order == 2 * H.order


def test_derive_weyl_trivial():
    G = special_linear_group(2, 3)
    triv = TitsSystemCandidate(G, G, G)
    H, reps = triv.derived.H, triv.derived.reps
    assert H.order == G.order and len(reps) == 1
    assert find_S(triv) == ()


def test_find_s_sizes():
    assert len(find_S(standard_sl_system(3, 2))) == 2
    assert len(find_S(projective_rank1_system(3, 2))) == 1


def test_axioms_standard_sl3f2():
    rep = check_axioms(standard_sl_system(3, 2))
    assert rep.passed
    assert sorted(rep.cells.values()) == [8, 16, 16, 32, 32, 64]
    assert sum(rep.cells.values()) == 168
    assert rep.weyl_order == 6


def test_axioms_standard_sl2f3():
    rep = check_axioms(standard_sl_system(2, 3))
    assert rep.passed
    assert sorted(rep.cells.values()) == [6, 18]


def test_axioms_failure_flagged():
    c = standard_sl_system(3, 2)
    B = upper_triangular_subgroup(c.G)
    broken = TitsSystemCandidate(c.G, B, B)
    rep = check_axioms(broken)
    assert not rep.t1_generates
    assert not rep.passed


def test_axioms_have_no_group_cap():
    # |SL2(F29)| = 24360 is over the CLI's default cap; check_axioms has none.
    assert check_axioms(standard_sl_system(2, 29)).passed


def test_star_property():
    assert star_property_check(standard_sl_system(3, 2))
    assert star_property_check(standard_sl_system(3, 3))
    assert star_property_check(standard_sl_system(2, 5))


def test_intersection_identity():
    c = standard_sl_system(3, 2)
    assert intersection_identity_check(c)
    assert c.derived.H.order == 1
    c = standard_sl_system(3, 3)
    assert intersection_identity_check(c)
    assert c.derived.H.order == 4
    # Rank 1: w0 = s, so the identity degenerates to H = B ∩ sBs.
    assert intersection_identity_check(projective_rank1_system(3, 2))


def test_classify_standard_split():
    c = standard_sl_system(3, 2)
    flags = classify(c)
    assert flags.saturated and flags.weakly_split and flags.split
    assert flags.witness_u.elemset == _unipotent_scan(special_linear_group(3, 2))
    c = standard_sl_system(2, 5)
    flags = classify(c)
    assert flags.split
    assert flags.witness_u.elemset == _unipotent_scan(special_linear_group(2, 5))


def test_classify_affine_split():
    c = affine_rank1_system(5)
    flags = classify(c)
    assert flags.saturated and flags.weakly_split and flags.split


def test_weakly_split_bruteforce_agreement():
    for c in (standard_sl_system(2, 3), standard_sl_system(2, 5), affine_rank1_system(7), standard_sl_system(3, 2)):
        assert classify(c).weakly_split == weakly_split_bruteforce(c)


def test_rank1_from_2transitive():
    act = projective_action(2, 2)
    c = rank1_from_2transitive(act.group, act.tables(), 0, 1)
    rep = check_axioms(c)
    assert rep.passed and rep.weyl_order == 2
    assert c.G.order // c.B.order == 7 and c.B.order == 24


def test_rank1_sl2f7():
    c = projective_rank1_system(2, 7)
    assert c.G.order // c.B.order == 8
    assert check_axioms(c).passed


def test_rank1_affine():
    c = affine_rank1_system(5)
    assert c.G.order // c.B.order == 5
    assert check_axioms(c).passed


def test_rank1_rejects_intransitive():
    ops = GroupOps(mul=lambda a, b: (a + b) % 4, identity=0, fmt=str, label="C4")
    C4 = FiniteGroup(ops, range(4))
    regular = [[(g + y) % 4 for y in range(4)] for g in C4.generators()]
    with pytest.raises(NotTwoTransitive):
        rank1_from_2transitive(C4, regular, 0, 1)


@pytest.mark.parametrize("n,p,index", [(2, 2, 3), (2, 3, 4), (3, 2, 7)])
def test_column_system(n, p, index):
    c = sl_rank1_column_system(n, p)
    assert c.G.order // c.B.order == index
    assert check_axioms(c).passed
    proj = projective_rank1_system(n, p)
    assert sorted(bruhat_cells(c).values()) == sorted(bruhat_cells(proj).values())


def test_rank1_round_trip_same_cells():
    c = projective_rank1_system(3, 2)
    act = coset_action_by_products(c.G, c.B)
    x = next(p for p in act.points if act.apply(min(c.B.elements), p) == p and p in c.B.elemset)
    xp = next(p for p in act.points if p != x)
    again = act.rank1(x, xp)
    assert sorted(bruhat_cells(again).values()) == sorted(bruhat_cells(c).values())


def test_psl3f2_nonstandard():
    c = psl3_f2_nonstandard_system()
    flags = classify(c)
    assert c.B.order == 21
    assert c.G.order == 168 and c.G.order // c.B.order == 8
    rep = check_axioms(c)
    assert rep.passed and rep.weyl_order == 2
    assert flags.split and flags.saturated and flags.weakly_split
    assert fitting_subgroup(c.B).order == 7
    assert flags.witness_u.order == 7


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_cell_size_formula(n, p):
    assert cell_size_formula_check(standard_sl_system(n, p))


def test_coxeter_orders_vs_type_a():
    c = standard_sl_system(4, 2)
    S = find_S(c)
    assert len(S) == 3
    orders = sorted(
        order_of_product(c, S[i], S[j]) for i in range(3) for j in range(i + 1, 3)
    )
    # Type A3 pattern: two adjacent pairs of order 3, one commuting pair.
    assert orders == [2, 3, 3]
    for s in S:
        assert order_of_product(c, s, s) == 1


def test_classify_monotone_everywhere():
    systems = [
        standard_sl_system(2, 2),
        standard_sl_system(2, 3),
        standard_sl_system(3, 2),
        affine_rank1_system(3),
        projective_rank1_system(2, 5),
    ]
    for c in systems:
        flags = classify(c)
        if flags.split:
            assert flags.weakly_split and flags.saturated


def test_h_not_normal_raises():
    # Inside the symmetric-group-shaped SL2(F2), pick B, N with B ∩ N not
    # normal in N: B a point stabilizer, N the whole group.
    G = special_linear_group(2, 2)
    B = upper_triangular_subgroup(G)
    cand = TitsSystemCandidate(G, B, G)
    with pytest.raises(HNotNormal):
        cand.derived
    assert not check_axioms(cand).h_normal_in_n


def test_dropped_candidate_is_collected():
    # The derived data lives on the candidate, so nothing else keeps it alive.
    import gc
    import weakref

    G = special_linear_group(3, 2)
    c = TitsSystemCandidate(G, upper_triangular_subgroup(G), monomial_subgroup(G))
    assert check_axioms(c).passed
    ref = weakref.ref(c)
    del c
    gc.collect()
    assert ref() is None


def test_s_not_generating_w_is_reported():
    # (SL2(F3), upper unipotent U, monomial N): the Bruhat map is bijective,
    # but S reaches only 2 of the 4 Weyl classes.
    G = special_linear_group(2, 3)
    c = TitsSystemCandidate(G, G.subgroup(_unipotent_scan(G)), monomial_subgroup(G))
    assert star_property_check(c) is False
    assert intersection_identity_check(c) is False
    with pytest.raises(WeylNotGenerated, match="2 have no word over S"):
        bruhat_cells(c)
    rep = check_axioms(c)
    assert not rep.t2_holds and rep.cells == {}

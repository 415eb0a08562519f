import random

import pytest

from test_fingrp_oracle import (
    Action,
    _action_orbits,
    _element_order,
    _is_2transitive_on_pairs,
    _nonstandard_reference,
    _setwise_stabilizer_scan,
    affine_line,
    closure,
    coset_action_by_products,
    gauss_jordan_inverse,
    oracle_inverse,
    projective_action,
    tuple_identity,
    tuple_mat_mul,
    tuple_row_addition,
)
from weylbn import fingrp
from weylbn.errors import GroupTooLarge, NotTwoTransitive
from weylbn.fingrp import (
    FiniteGroup,
    GroupOps,
    SpecialLinear,
    _add_row,
    _closure,
    _primitive_root,
    affine_group,
    conjugacy_classes,
    fitting_subgroup,
    is_nilpotent,
    is_normal,
    left_cosets,
    mat_mul,
    matrix_ops,
    monomial_subgroup,
    normal_closure,
    normal_subgroups,
    orbits,
    packing,
    sl_order,
    special_linear_group,
    upper_triangular_subgroup,
)
from weylbn.titssys import psl3_f2_nonstandard_system, rank1_from_2transitive, standard_sl_system


@pytest.mark.parametrize(
    "n,p,order",
    [(2, 2, 6), (3, 2, 168), (2, 3, 24), (2, 5, 120), (2, 7, 336), (3, 3, 5616), (4, 2, 20160)],
)
def test_sl_orders(n, p, order):
    assert sl_order(n, p) == order
    assert special_linear_group(n, p).order == order


def test_sl_cap():
    with pytest.raises(GroupTooLarge):
        special_linear_group(4, 3)


def test_refusals_come_before_the_packing_tables(monkeypatch):
    # A non-prime p first, then the cap, both before ``packing`` builds
    # tables of p^(2n) entries: 10,201 x 10,201 for SL2(F101).
    def refuse(n, p):
        raise AssertionError(f"packing({n}, {p}) built before the refusal")

    monkeypatch.setattr(fingrp, "packing", refuse)
    with pytest.raises(GroupTooLarge):
        special_linear_group(2, 101)
    with pytest.raises(ValueError, match="4 is not prime"):
        special_linear_group(4, 4)


def test_subgroup_shapes():
    G = special_linear_group(3, 2)
    assert upper_triangular_subgroup(G).order == 8
    assert monomial_subgroup(G).order == 6
    G = special_linear_group(2, 3)
    assert upper_triangular_subgroup(G).order == 6
    assert G.subgroup(_unipotent_scan(G)).order == 3


def test_group_laws_exhaustive_small():
    for G in (special_linear_group(2, 2), affine_group(5), special_linear_group(2, 3)):
        mul, e = G.ops.mul, G.ops.identity
        for a in G.elements:
            assert mul(a, oracle_inverse(G.ops, a)) == e and mul(e, a) == a
            for b in G.elements:
                assert mul(a, b) in G.elemset
    # Associativity on random triples in a bigger group.
    G = special_linear_group(3, 3)
    rng = random.Random(1)
    els = G.elements
    for _ in range(2000):
        a, b, c = (els[rng.randrange(len(els))] for _ in range(3))
        assert G.ops.mul(G.ops.mul(a, b), c) == G.ops.mul(a, G.ops.mul(b, c))


def test_matrix_helpers():
    p = 5
    a = ((1, 2), (3, 4))
    k = packing(2, p)
    ai = k.decode(gauss_jordan_inverse(k.encode(a), k))
    assert tuple_mat_mul(a, ai, p) == tuple_identity(2)


def center(G):
    """The elements commuting with every generator."""
    gens = G.generators()
    mul = G.ops.mul
    return G.subgroup([z for z in G.elements if all(mul(z, g) == mul(g, z) for g in gens)])


def test_psl3f2_is_sl3f2():
    # SL3(F2) has trivial center, so the non-standard example takes it as
    # PSL3(F2) as it is.
    G = special_linear_group(3, 2)
    assert center(G).order == 1
    assert psl3_f2_nonstandard_system().G is G


def test_closure_and_normality():
    G = special_linear_group(2, 2)  # shaped like the symmetric group on 3 letters
    assert closure(G.ops, [G.ops.identity]) == (G.ops.identity,)
    invs = [g for g in G.elements if g != G.ops.identity and _element_order(G.ops, g) == 2]
    two = closure(G.ops, invs[:2])
    assert len(two) == 6
    A = affine_group(5)
    T = A.subgroup(closure(A.ops, [(1, 1)]))
    assert T.order == 5 and is_normal(T, A)
    B = A.subgroup(closure(A.ops, [(0, 2)]))
    assert B.order == 4 and not is_normal(B, A)


def _normal_by_definition(H, G):
    """g h g^-1 in H for every element g of G and h of H."""
    mul = G.ops.mul
    conj = ((g, oracle_inverse(G.ops, g)) for g in G.elements)
    return all(mul(mul(g, h), gi) in H.elemset for g, gi in conj for h in H.elements)


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_is_normal_matches_all_elements_definition(n, p):
    G = special_linear_group(n, p)
    B, N = upper_triangular_subgroup(G), monomial_subgroup(G)
    H = G.subgroup(B.elemset & N.elemset)
    U = G.subgroup(_unipotent_scan(G))
    pairs = [(H, N, True), (U, B, True), (B, G, False), (N, G, False)]
    for sub, group, normal in pairs:
        assert is_normal(sub, group) == _normal_by_definition(sub, group) == normal


def test_is_normal_rejects_a_non_normal_subgroup_of_sl23():
    G = special_linear_group(2, 3)
    for x in G.elements:
        C = G.subgroup(closure(G.ops, [x]))
        assert is_normal(C, G) == _normal_by_definition(C, G)
    C3 = G.subgroup(closure(G.ops, [packing(2, 3).encode(((1, 1), (0, 1)))]))
    assert C3.order == 3 and not is_normal(C3, G)


def test_primitive_root_has_full_multiplicative_order():
    def order(g, p):
        return next(k for k in range(1, p) if pow(g, k, p) == 1)

    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        g = _primitive_root(p)
        assert order(g, p) == p - 1
        assert all(order(h, p) < p - 1 for h in range(2, g))


def test_normal_subgroups_psl3f2_simple():
    G = special_linear_group(3, 2)
    assert [H.order for H in normal_subgroups(G)] == [1, 168]


def test_normal_subgroups_affine():
    A = affine_group(5)
    orders = sorted(H.order for H in normal_subgroups(A))
    assert orders == [1, 5, 10, 20]


def test_normal_subgroups_cap():
    with pytest.raises(GroupTooLarge):
        normal_subgroups(affine_group(5), cap=1)


def test_nilpotency_and_fitting():
    G = special_linear_group(3, 2)
    B = upper_triangular_subgroup(G)  # a 2-group of order 8
    assert is_nilpotent(B)
    assert fitting_subgroup(B).elemset == B.elemset
    A7 = affine_group(7)
    frob21 = A7.subgroup(closure(A7.ops, [(1, 1), (0, 2)]))
    assert frob21.order == 21 and not is_nilpotent(frob21)
    assert fitting_subgroup(frob21).order == 7
    s3 = affine_group(3)
    assert fitting_subgroup(s3).order == 3


def test_fitting_against_bruteforce():
    # Fit(B) contains every nilpotent normal subgroup, for small groups.
    for G in (affine_group(5), affine_group(7), upper_triangular_subgroup(special_linear_group(3, 3))):
        fit = fitting_subgroup(G)
        assert is_nilpotent(fit) and is_normal(fit, G)
        for H in normal_subgroups(G):
            if is_nilpotent(H):
                assert H.elemset <= fit.elemset


def test_conjugacy_classes_partition():
    G = special_linear_group(2, 3)
    classes = conjugacy_classes(G)
    assert sum(len(c) for c in classes) == G.order
    assert frozenset({G.ops.identity}) in classes


def test_is_normal_is_false_for_a_group_outside_the_other():
    G = special_linear_group(3, 2)
    B = upper_triangular_subgroup(G)
    assert not is_normal(G, B)
    A = affine_group(5)
    T = A.subgroup(closure(A.ops, [(1, 1)]))
    assert not is_normal(A, T) and is_normal(T, A)


def _conjugate_by_products(G, g, xs):
    mul, gi = G.ops.mul, oracle_inverse(G.ops, g)
    return [mul(mul(g, x), gi) for x in xs]


@pytest.mark.parametrize(
    "make",
    [
        lambda: special_linear_group(2, 3),
        lambda: special_linear_group(3, 2),
        lambda: affine_group(5),
        lambda: affine_group(7),
        lambda: special_linear_group(3, 3),
        lambda: standard_sl_system(3, 3).B,
    ],
    ids=["sl-2-3", "sl-3-2", "affine-5", "affine-7", "sl-3-3", "standard-b-3-3"],
)
def test_conjugate_matches_products(make):
    G = make()
    els = G.elements
    for g in G.generators():
        assert [els[i] for i in G.conjugation(g)] == _conjugate_by_products(G, g, els)


def test_conjugacy_classes_of_the_sl33_borel():
    # A subgroup is a group: checked and built on its own, the same
    # elements give the same generators and classes.
    G = special_linear_group(3, 3)
    B = upper_triangular_subgroup(G)
    alone = FiniteGroup(B.ops, B.elements)
    assert alone.generators() == B.generators()
    classes = conjugacy_classes(B)
    assert conjugacy_classes(alone) == classes
    by_products = zip(*(_conjugate_by_products(B, g, B.elements) for g in B.elements))
    assert set(classes) == {frozenset(cls) for cls in by_products}


def test_subgroup_questions_make_no_products_once_tables_exist():
    G = special_linear_group(3, 2)
    calls = [0]

    def mul(a, b):
        calls[0] += 1
        return G.ops.mul(a, b)

    R = FiniteGroup(G.ops._replace(mul=mul), G.elements, gens=G.generators())
    B = R.subgroup(upper_triangular_subgroup(G).elements)
    B.generators()
    calls[0] = 0
    classes = conjugacy_classes(R)
    closed = normal_closure(R, [B.generators()[0]], R.generators())
    normal = is_normal(B, R), is_normal(R, R)
    assert calls[0] == 0
    assert classes == conjugacy_classes(G)
    assert closed.elemset == G.elemset and normal == (False, True)


def test_subgroup_tables_make_no_products_once_generators_ran(monkeypatch):
    # The greedy generators of a subgroup close it once, and that closure
    # is the BFS tree its tables are read from.
    import weylbn.fingrp as fingrp

    G = special_linear_group(3, 3)
    B = upper_triangular_subgroup(G)
    gens = B.generators()
    calls = [0]

    def counted(a, b, k):
        calls[0] += 1
        return mat_mul(a, b, k)

    monkeypatch.setattr(fingrp, "mat_mul", counted)
    tables = [B.right_table(g) for g in gens], conjugacy_classes(B)
    assert calls[0] == 0
    assert all(len(t) == B.order for t in tables[0])


def test_projective_actions():
    act = projective_action(2, 2)
    assert len(act.points) == 7
    assert _is_2transitive_on_pairs(act)
    assert len(projective_action(1, 7).points) == 8
    # Orbit-stabilizer on every point.
    for x in act.points:
        st = _setwise_stabilizer_scan(act, (x,))
        assert st.order * len(act.points) == act.group.order


def test_affine_group_action():
    act = affine_line(5)
    assert act.group.order == 20
    assert _is_2transitive_on_pairs(act)
    st = _setwise_stabilizer_scan(act, (0, 4))
    assert st.order == 2
    assert rank1_from_2transitive(act.group, act.tables(), 0, 4).N == st


def test_regular_action_not_2transitive():
    ops = GroupOps(mul=lambda a, b: (a + b) % 4, identity=0, fmt=str, label="C4")
    C4 = FiniteGroup(ops, range(4))
    act = Action(C4, tuple(range(4)), lambda g, y: (g + y) % 4)
    with pytest.raises(NotTwoTransitive, match="not 2-transitive"):
        rank1_from_2transitive(C4, act.tables(), 0, 1)
    assert not _is_2transitive_on_pairs(act)
    assert len(_action_orbits(act)) == 1


def test_action_axioms():
    # The reference actions are actions: the identity fixes every point,
    # and (gh)·y = g·(h·y).
    rng = random.Random(3)
    for act in (affine_line(7), projective_action(1, 5), _nonstandard_reference()[0]):
        mul, e, els = act.group.ops.mul, act.group.identity, act.group.elements
        for y in act.points:
            assert act.apply(e, y) == y
        for _ in range(200):
            g = els[rng.randrange(len(els))]
            h = els[rng.randrange(len(els))]
            y = act.points[rng.randrange(len(act.points))]
            assert act.apply(mul(g, h), y) == act.apply(g, act.apply(h, y))


def test_coset_action_points():
    G = special_linear_group(3, 2)
    B = upper_triangular_subgroup(G)
    act = coset_action_by_products(G, B)
    assert len(act.points) == G.order // B.order == 21
    assert act.points == tuple(G.elements[r] for r in left_cosets(G, B)[1])
    assert len(_action_orbits(act)) == 1
    # Orbit-stabilizer across action kinds.
    for action in (act, affine_line(7)):
        for x in action.points:
            assert _setwise_stabilizer_scan(action, (x,)).order * len(action.points) == action.group.order


def test_element_formatting():
    G = special_linear_group(2, 2)
    assert G.ops.fmt(G.ops.identity) == "10;01"
    A = affine_group(5)
    assert A.ops.fmt((2, 3)) == "(2,3)"


def _mat_mul_reference(a, b, p):
    """The plain triple-sum product, kept as the oracle for the tuple and
    packed products."""
    n = len(a)
    rng = range(n)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in rng) % p for j in rng) for i in rng
    )


@pytest.mark.parametrize("n,p", [(3, 3), (4, 2)])
def test_mat_mul_against_triple_sum(n, p):
    G = special_linear_group(n, p)
    k = packing(n, p)
    els = [k.decode(x) for x in G.elements]
    rng = random.Random(7)
    pairs = [(els[rng.randrange(len(els))], els[rng.randrange(len(els))]) for _ in range(500)]
    gens = [k.decode(g) for g in G.generators()]
    pairs += [(g, els[rng.randrange(len(els))]) for g in gens for _ in range(20)]
    for a, b in pairs:
        assert tuple_mat_mul(a, b, p) == _mat_mul_reference(a, b, p)
        assert k.decode(mat_mul(k.encode(a), k.encode(b), k)) == _mat_mul_reference(a, b, p)
    # Unreduced and non-invertible factors take the dense path.
    assert tuple_mat_mul(((1, 2), (2, 4)), ((3, 1), (1, 3)), 5) == _mat_mul_reference(
        ((1, 2), (2, 4)), ((3, 1), (1, 3)), 5
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: special_linear_group(2, 3),
        lambda: affine_group(5),
        lambda: special_linear_group(3, 2),
        lambda: special_linear_group(3, 3),
        lambda: special_linear_group(4, 2),
    ],
    ids=["sl-2-3", "affine-5", "sl-3-2", "sl-3-3", "sl-4-2"],
)
def test_index_tables_match_multiplication(make):
    """Left and right tables agree with the multiplication oracle."""
    G = make()
    mul, els, index = G.ops.mul, G.elements, G.index
    assert [index[x] for x in els] == list(range(G.order))
    for g in G.generators():
        assert G.left_table(g) == [index[mul(g, x)] for x in els]
    for g in els[:: max(1, G.order // 12)]:
        assert G.right_table(g) == [index[mul(x, g)] for x in els]


def test_subgroup_indexes_its_own_elements():
    G = special_linear_group(3, 3)
    B = upper_triangular_subgroup(G)
    b = B.generators()[-1]
    assert len(B.right_table(b)) == B.order == 108
    assert [B.elements[i] for i in B.right_table(b)] == [G.ops.mul(x, b) for x in B.elements]


def test_orbits_helper():
    # Two disjoint cycles (0 1 2)(3 4) and a fixed point 5.
    perm = [1, 2, 0, 4, 3, 5]
    assert orbits([perm], 6) == [[0, 1, 2], [3, 4], [5]]
    assert orbits([perm], 6, seeds=[4, 3, 5]) == [[4, 3], [5]]
    assert orbits([], 3) == [[0], [1], [2]]


def test_left_coset_reps_against_sorting():
    G = special_linear_group(3, 2)
    B = upper_triangular_subgroup(G)
    coset_of, reps = left_cosets(G, B)
    els, mul = G.elements, G.ops.mul
    for g in els:
        coset = sorted(mul(g, b) for b in B.elements)
        assert els[reps[coset_of[G.index[g]]]] == coset[0]


# ---------------------------------------------------------------------------
# Non-group element lists, row operations and the BFS tree


def test_non_group_element_lists_raise_value_error():
    G = special_linear_group(2, 3)
    ops, els = G.ops, G.elements
    e = ops.identity
    for gone in (els[0], els[-1], oracle_inverse(ops, els[-1])):
        if gone != e:
            with pytest.raises(ValueError):
                FiniteGroup(ops, [x for x in els if x != gone])
    # SL2(F3) has no subgroup of order 12.
    half = [e] + [x for x in els if x != e][:11]
    with pytest.raises(ValueError):
        FiniteGroup(ops, half)


@pytest.mark.parametrize("n", [3, 20])
def test_spot_check_makes_four_products_per_sample(n):
    # Each sampled (a, b, c) costs a·b once, then (a·b)·c, b·c and a·(b·c),
    # and the identity law one more; min(200, n²) samples.
    calls = [0]

    def mul(a, b):
        calls[0] += 1
        return (a + b) % n

    G = FiniteGroup(GroupOps(mul=mul, identity=0, fmt=str, label=f"C{n}"), range(n))
    calls[0] = 0
    G._spot_check()  # its BFS tree is already built
    assert calls[0] == 4 * min(200, n * n) + 1


def test_spot_check_refuses_products_outside_and_non_associative_laws():
    # Both laws pass the BFS tree, as 1 generates each from 0 by left
    # multiplication.  A product a·b with a >= 2 is 10, no element (an
    # associative law that passes the tree is closed, so this one is not
    # associative either); (a - b) - c ≠ a - (b - c).
    def escapes(a, b):
        return (a + b) % 4 if a <= 1 else 10

    with pytest.raises(ValueError, match="not closed under multiplication"):
        FiniteGroup(GroupOps(mul=escapes, identity=0, fmt=str, label="C4+"), range(4))
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(GroupOps(mul=lambda a, b: (a - b) % 5, identity=0, fmt=str, label="Z5-"), range(5))


def test_generators_reaching_part_of_the_elements_raise_value_error():
    G = special_linear_group(2, 3)
    with pytest.raises(ValueError, match="closure is not the element set"):
        FiniteGroup(G.ops, G.elements, gens=[G.generators()[0]])


def test_non_closed_element_list_is_refused_before_it_is_enumerated():
    # The identity and the four generating transvections of SL3(F3): their
    # closure is the whole group, but the greedy stops once it has more
    # elements than the list.
    calls = [0]
    ops = matrix_ops(3, 3)

    def mul(a, b):
        calls[0] += 1
        return ops.mul(a, b)

    gens = SpecialLinear(3, 3).gens
    with pytest.raises(ValueError, match="closure is not the element set"):
        FiniteGroup(ops._replace(mul=mul), [ops.identity] + gens)
    assert calls[0] < 100


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_row_addition_is_left_multiplication_by_a_transvection(n, p):
    # The tuple row operation for every c, the packed one for c = 1.
    rng = random.Random(n * 10 + p)
    mats = [tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n)) for _ in range(20)]
    k = packing(n, p)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for c in range(1, p):
                t = [list(row) for row in tuple_identity(n)]
                t[i][j] = c
                t = tuple(map(tuple, t))
                act = tuple_row_addition(i, j, c, p)
                for x in mats:
                    assert act(x) == tuple_mat_mul(t, x, p)
                    if c == 1:
                        assert k.decode(_add_row(k, i, j)(k.encode(x))) == act(x)


def _closure_by_products(ops, gens):
    """The matrix-product closure the row operations replaced, kept as
    their oracle: (order, tables, via) as ``_closure`` returns them."""
    mul = ops.mul
    gens = list(dict.fromkeys(gens))
    order = [ops.identity]
    num = {ops.identity: 0}
    tables = [[] for _ in gens]
    via = []
    for s, x in enumerate(order):
        for j, (a, tab) in enumerate(zip(gens, tables)):
            c = mul(a, x)
            t = num.get(c)
            if t is None:
                t = num[c] = len(order)
                order.append(c)
                via.append((j, s))
            tab.append(t)
    return order, tables, via


@pytest.mark.parametrize("n,p", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_row_operation_closure_matches_product_closure(n, p):
    G = SpecialLinear(n, p)
    got = _closure(G.ops.identity, G.acts)
    assert got == _closure_by_products(G.ops, G.gens)
    assert len(got[0]) == sl_order(n, p)


def test_closure_by_left_multiplication_matches_products():
    for G in (special_linear_group(3, 2), affine_group(7)):
        gens = G.generators() + G.generators()[:1]
        acts = [lambda x, g=g: G.ops.mul(g, x) for g in dict.fromkeys(gens)]
        assert _closure(G.ops.identity, acts) == _closure_by_products(G.ops, gens)
        assert closure(G.ops, gens) == G.elements


# ---------------------------------------------------------------------------
# Shaped subgroups against scans of every element


def _decoded(G):
    """(packed, tuple of row tuples) for each element of a matrix group."""
    k = packing(*G.ops.meta[1:])
    return [(x, k.decode(x)) for x in G.elements]


def _upper_triangular_scan(G):
    return {x for x, m in _decoded(G) if all(m[i][j] == 0 for i in range(len(m)) for j in range(i))}


def _unipotent_scan(G):
    return {
        x
        for x, m in _decoded(G)
        if all(m[i][i] == 1 for i in range(len(m)))
        and all(m[i][j] == 0 for i in range(len(m)) for j in range(i))
    }


def _monomial_scan(G):
    members = set()
    for g, m in _decoded(G):
        n = len(m)
        rows_ok = all(sum(1 for x in row if x) == 1 for row in m)
        cols_ok = all(sum(1 for i in range(n) if m[i][j]) == 1 for j in range(n))
        if rows_ok and cols_ok:
            members.add(g)
    return members


@pytest.mark.parametrize(
    "make",
    [
        lambda: special_linear_group(2, 2),
        lambda: special_linear_group(2, 3),
        lambda: special_linear_group(2, 5),
        lambda: special_linear_group(3, 2),
        lambda: special_linear_group(3, 3),
        lambda: special_linear_group(4, 2),
    ],
    ids=["sl-2-2", "sl-2-3", "sl-2-5", "sl-3-2", "sl-3-3", "sl-4-2"],
)
def test_shaped_subgroups_match_scans(make):
    G = make()
    for build, scan in [
        (upper_triangular_subgroup, _upper_triangular_scan),
        (monomial_subgroup, _monomial_scan),
    ]:
        H = build(G)
        assert H.elemset == scan(G)

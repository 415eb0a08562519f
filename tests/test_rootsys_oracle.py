"""The coefficient-closure build of rootsys against an ambient oracle.

The oracle closes the Bourbaki simple roots under ``reflect_vector`` in
the ambient coordinates, then solves each root's coefficients with
``_coefficients_fraction``: pivot rows found by rank tests over Q, the
pivot square inverted by Gauss-Jordan over Q, and every ambient
coordinate and the integrality of each root checked.

The Coxeter matrix and the BC core, which rootsys reads off the Cartan
construction, are checked against the root set itself: each m(i, j) as
the order of the permutation s_i·s_j of the roots, and the core as the
roots whose half is not a root.  The pairings and ambient vectors that the
height-raising closure carries are checked against dot products, and the
reflection permutations read from them against ambient reflections.
"""

from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from weylbn.cosets import sweep_cases
from weylbn.errors import InvalidSpec, NonCrystallographicInput, NotNonReduced
from weylbn.rootsys import (
    RootSystemSpec,
    _cartan_matrix,
    _pairing,
    _positive_roots,
    _simple_root_data,
    build_root_system,
    coxeter_matrix,
    degrees,
    dot,
    nondivisible_core,
    reduced_form,
)


def reflect_vector(a, v):
    """Reflect the integer vector ``v`` in the root vector ``a``; rootsys's
    pairing raises NonCrystallographicInput when 2(v, a)/(a, a) is not an
    integer."""
    c = _pairing(v, a)
    return tuple(x - c * y for x, y in zip(v, a))


# The sweep types, BC1, the rank-one A, B and C, and D3 (= A3).
TYPES = sorted(sweep_cases(12) + [("A", 1), ("B", 1), ("C", 1), ("BC", 1), ("D", 3)])


def _rank_of(mat):
    m = [row[:] for row in mat]
    rows, cols = len(m), len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def _invert(mat):
    n = len(mat)
    m = [
        [Fraction(mat[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        piv = next(i for i in range(c, n) if m[i][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        f = m[c][c]
        m[c] = [x / f for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                g = m[i][c]
                m[i] = [x - g * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def _coefficients_fraction(simples, roots, dim):
    rank = len(simples)
    cols = [list(map(Fraction, s)) for s in simples]
    used = []
    for i in range(dim):
        trial = used + [i]
        mat = [[cols[j][t] for j in range(rank)] for t in trial]
        if _rank_of(mat) == len(trial):
            used = trial
        if len(used) == rank:
            break
    pivots = used
    if len(pivots) != rank:
        raise InvalidSpec("simple roots are linearly dependent")
    square = [[cols[j][i] for j in range(rank)] for i in pivots]
    inv = _invert(square)
    coeffs = {}
    for v in roots:
        rhs = [Fraction(v[i]) for i in pivots]
        c = [sum(inv[i][j] * rhs[j] for j in range(rank)) for i in range(rank)]
        for i in range(dim):
            if sum(Fraction(simples[j][i]) * c[j] for j in range(rank)) != v[i]:
                raise InvalidSpec(f"root {v} is outside the simple-root span")
        if any(x.denominator != 1 for x in c):
            raise NonCrystallographicInput(f"root {v} has non-integer coefficients")
        coeffs[v] = tuple(int(x) for x in c)
    return coeffs


def _reflection_closure(simples, seeds):
    """Every vector reached from ``seeds`` by reflections in ``simples``."""
    roots = set(seeds)
    frontier = list(seeds)
    while frontier:
        frontier = {reflect_vector(a, v) for v in frontier for a in simples} - roots
        roots |= frontier
    return roots


@pytest.mark.parametrize("fam,rank", TYPES)
def test_integer_coefficients_match_fractions(fam, rank):
    dim, _, simples = _simple_root_data(RootSystemSpec(fam, rank))
    # BC's doubled roots are the orbit of 2·a_n under the reflections of B.
    seeds = (simples + [tuple(2 * x for x in simples[-1])]) if fam == "BC" else simples
    roots = tuple(sorted(_reflection_closure(simples, seeds)))
    coeffs = _coefficients_fraction(simples, roots, dim)
    index = {v: i for i, v in enumerate(roots)}
    perms = tuple(tuple(index[reflect_vector(s, v)] for v in roots) for s in simples)
    # s_j·a_i = a_i - cartan[i][j]·a_j.
    cartan = tuple(
        tuple(int(i == j) - coeffs[reflect_vector(sj, si)][j] for j, sj in enumerate(simples))
        for i, si in enumerate(simples)
    )
    rs = build_root_system((fam, rank))
    assert rs.roots == roots
    assert rs.coeffs == tuple(coeffs[v] for v in roots)
    assert rs.simple_refl_perms == perms
    assert rs.cartan == cartan
    assert rs.positive_set == {i for i, v in enumerate(roots) if min(coeffs[v]) >= 0}


@pytest.mark.parametrize("fam,rank", TYPES)
def test_carried_pairings_and_vectors_match_dot_products(fam, rank):
    _, _, simples = _simple_root_data(RootSystemSpec(fam, rank))
    cartan = _cartan_matrix(simples)
    for c, pair, vec in _positive_roots(cartan, simples):
        assert pair == tuple(dot(c, col) for col in zip(*cartan))
        assert vec == tuple(dot(c, row) for row in zip(*simples))
    rs = build_root_system((fam, rank))
    assert rs.simple_refl_perms == tuple(
        tuple(rs.root_index[reflect_vector(rs.roots[i], v)] for v in rs.roots)
        for i in rs.simple_indices
    )


def test_orders_from_degrees():
    for fam, rank, order in [("E", 8, 696_729_600), ("F", 4, 1_152)]:
        rs = build_root_system((fam, rank))
        assert prod(degrees(rs, tuple(range(1, rank + 1)))) == order


def _degrees_by_scan(rs, nodes):
    """The degrees as read before the mask table: each positive root's
    coefficients are tested at every node outside ``nodes``."""
    rs = reduced_form(rs)
    outside = [i for i in range(rs.rank) if i + 1 not in nodes]
    coeffs = map(rs.coeffs.__getitem__, rs.positive_set)
    per_height = Counter(sum(c) for c in coeffs if not any(map(c.__getitem__, outside)))
    return tuple(1 + sum(k >= j for k in per_height.values()) for j in range(1, per_height[1] + 1))


@pytest.mark.parametrize("fam,rank", sorted({*sweep_cases(6), ("F", 4), ("E", 6), ("E", 7)}))
def test_degrees_match_root_scan(fam, rank):
    rs = build_root_system((fam, rank))
    for subset in range(1 << rank):
        nodes = tuple(n for n in range(1, rank + 1) if subset >> (n - 1) & 1)
        assert degrees(rs, nodes) == _degrees_by_scan(rs, nodes)


def _coxeter_by_iteration(rs):
    """m(i, j): the order of the permutation s_i·s_j of the roots, found by
    iterating the product until it is the identity."""
    idx = range(len(rs.roots))
    out = []
    for pi in rs.simple_refl_perms:
        row = []
        for pj in rs.simple_refl_perms:
            prod = tuple(pi[pj[r]] for r in idx)
            cur, order = prod, 1
            while any(cur[r] != r for r in idx):
                cur = tuple(prod[cur[r]] for r in idx)
                order += 1
            row.append(order)
        out.append(tuple(row))
    return tuple(out)


def _divisible(rs):
    """The roots whose half is also a root."""
    halves = {v: tuple(x // 2 for x in v) for v in rs.roots if all(x % 2 == 0 for x in v)}
    return {v for v, h in halves.items() if h in rs.root_index}


@pytest.mark.parametrize("fam,rank", TYPES)
def test_coxeter_matrix_matches_reflection_orders(fam, rank):
    rs = build_root_system((fam, rank))
    assert coxeter_matrix(rs) == _coxeter_by_iteration(rs)


@pytest.mark.parametrize("fam,rank", TYPES)
def test_reduced_form_matches_halving_scan(fam, rank):
    rs = build_root_system((fam, rank))
    divisible = _divisible(rs)
    assert bool(divisible) == (fam == "BC")
    if not divisible:
        assert reduced_form(rs) is rs
        with pytest.raises(NotNonReduced):
            nondivisible_core(rs)
        return
    core = nondivisible_core(rs)
    assert reduced_form(rs) is core
    assert set(core.roots) == set(rs.roots) - divisible
    assert core.cartan == _cartan_matrix([rs.roots[i] for i in rs.simple_indices])


SOLVERS = [_coefficients_fraction]


@pytest.mark.parametrize("solve", SOLVERS)
def test_dependent_simples_rejected(solve):
    with pytest.raises(InvalidSpec, match="linearly dependent"):
        solve([(1, -1, 0), (2, -2, 0)], [(1, -1, 0)], 3)


@pytest.mark.parametrize("solve", SOLVERS)
def test_root_outside_span_rejected(solve):
    with pytest.raises(InvalidSpec, match="outside the simple-root span"):
        solve([(1, -1, 0), (0, 1, -1)], [(1, 1, 1)], 3)
    # Span is checked before integrality: (1, 0, 1) is outside the span
    # of 2e1, 2e2, and its first coefficient would be 1/2 as well.
    with pytest.raises(InvalidSpec, match="outside the simple-root span"):
        solve([(2, 0, 0), (0, 2, 0)], [(1, 0, 1)], 3)


@pytest.mark.parametrize("solve", SOLVERS)
def test_half_integer_coefficients_rejected(solve):
    with pytest.raises(NonCrystallographicInput, match="non-integer coefficients"):
        solve([(2, 0), (0, 2)], [(2, 0), (1, 0)], 2)
    # Pivot rows are not the leading ones here: row 0 is zero.
    with pytest.raises(NonCrystallographicInput):
        solve([(0, 1, 1), (0, 1, -1)], [(0, 1, 0)], 3)
    assert solve([(0, 1, 1), (0, 1, -1)], [(0, 2, 0)], 3) == {(0, 2, 0): (1, 1)}

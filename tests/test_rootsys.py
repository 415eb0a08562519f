import json

import pytest

from test_rootsys_oracle import reflect_vector
from weylbn.errors import InvalidSpec, NonCrystallographicInput, NotNonReduced
from weylbn.rootsys import (
    RootSystemSpec,
    branch_node,
    build_root_system,
    coxeter_matrix,
    dot,
    dynkin_path,
    is_end_node,
    nondivisible_core,
    reduced_form,
)

ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(1, 9)]
    + [("C", n) for n in range(1, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("BC", n) for n in range(1, 9)]
    + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
)

# Root counts frozen from the construction after checking them against the
# closed-form census for each family.
ROOT_COUNTS = {
    ("A", 2): 6,
    ("A", 3): 12,
    ("B", 2): 8,
    ("C", 2): 8,
    ("D", 4): 24,
    ("G", 2): 12,
    ("F", 4): 48,
    ("E", 6): 72,
    ("E", 7): 126,
    ("E", 8): 240,
    ("BC", 2): 12,
}


def expected_count(fam, n):
    if fam == "A":
        return n * (n + 1)
    if fam in ("B", "C"):
        return 2 * n * n
    if fam == "D":
        return 2 * n * (n - 1)
    if fam == "BC":
        return 2 * n * n + 2 * n
    return {("G", 2): 12, ("F", 4): 48, ("E", 6): 72, ("E", 7): 126, ("E", 8): 240}[(fam, n)]


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_root_counts(fam, rank):
    rs = build_root_system((fam, rank))
    assert len(rs.roots) == expected_count(fam, rank)
    assert len(rs.positive_set) * 2 == len(rs.roots)


@pytest.mark.parametrize("fam,rank,count", [(f, r, c) for (f, r), c in ROOT_COUNTS.items()])
def test_frozen_counts(fam, rank, count):
    assert len(build_root_system((fam, rank)).roots) == count


@pytest.mark.parametrize(
    "bad",
    [("E", 5), ("E", 9), ("F", 3), ("G", 3), ("D", 2), ("A", 0), ("H", 3)],
)
def test_inadmissible_specs(bad):
    with pytest.raises(InvalidSpec):
        build_root_system(bad)


def test_bool_rank_rejected():
    # True == 1 and hash(True) == hash(1): a bool rank would share the cache
    # entry of rank 1 and label it "ATrue".
    with pytest.raises(InvalidSpec):
        build_root_system(("A", True))
    with pytest.raises(InvalidSpec):
        RootSystemSpec("B", False)
    assert build_root_system(("A", 1)).spec.label() == "A1"


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_negation_and_reflection_closure(fam, rank):
    rs = build_root_system((fam, rank))
    for i, v in enumerate(rs.roots):
        assert rs.roots[rs.neg_index[i]] == tuple(-x for x in v)
    # Reflection in every root keeps the root set fixed.
    for a in range(len(rs.roots)):
        for v in rs.roots:
            assert reflect_vector(rs.roots[a], v) in rs.root_index


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_positive_roots_greedy_decomposition(fam, rank):
    rs = build_root_system((fam, rank))
    simples = [rs.roots[i] for i in rs.simple_indices]
    zero = tuple(0 for _ in range(rs.ambient_dim))
    for i in rs.positive_set:
        v = rs.roots[i]
        assert all(c >= 0 for c in rs.coeffs[i])
        # Greedy simple-root subtraction reaches zero through roots.
        steps = 0
        while v != zero:
            for s in simples:
                if dot(v, s) > 0:
                    w = tuple(x - y for x, y in zip(v, s))
                    if w == zero or w in rs.root_index:
                        v = w
                        break
            else:
                pytest.fail(f"greedy subtraction stuck at {v}")
            steps += 1
            assert steps <= sum(rs.coeffs[i])


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_cartan_entries(fam, rank):
    rs = build_root_system((fam, rank))
    for i, row in enumerate(rs.cartan):
        assert row[i] == 2
        for j, x in enumerate(row):
            if i != j:
                assert x in (0, -1, -2, -3)


def test_reflect_examples():
    A2 = build_root_system(("A", 2))
    a1, a2 = (A2.roots[i] for i in A2.simple_indices)
    assert reflect_vector(a1, a1) == tuple(-x for x in a1)
    assert reflect_vector(a1, a2) == tuple(x + y for x, y in zip(a1, a2))
    B2 = build_root_system(("B", 2))
    long_, short = (B2.roots[i] for i in B2.simple_indices)
    want = tuple(x + 2 * y for x, y in zip(long_, short))
    assert reflect_vector(short, long_) == want


def test_reflect_non_crystallographic():
    G2 = build_root_system(("G", 2))
    long_root = G2.roots[G2.simple_indices[1]]  # norm squared 6
    with pytest.raises(NonCrystallographicInput):
        reflect_vector(long_root, (1, 0, 0))


def test_coxeter_matrix_values():
    assert coxeter_matrix(build_root_system(("A", 2))) == ((1, 3), (3, 1))
    assert coxeter_matrix(build_root_system(("G", 2))) == ((1, 6), (6, 1))
    f4 = coxeter_matrix(build_root_system(("F", 4)))
    assert f4[1][2] == 4 and f4[0][1] == 3 and f4[2][3] == 3
    b3 = coxeter_matrix(build_root_system(("B", 3)))
    assert b3[0][1] == 3 and b3[1][2] == 4 and b3[0][2] == 2
    # Invariant under rebuilding.
    assert coxeter_matrix(build_root_system(("F", 4))) == f4


def test_nondivisible_core():
    core = nondivisible_core(build_root_system(("BC", 2)))
    assert core.spec.family == "B" and len(core.roots) == 8
    assert core.cartan == build_root_system(("B", 2)).cartan
    core1 = nondivisible_core(build_root_system(("BC", 1)))
    assert set(core1.roots) == {(1,), (-1,)}
    assert len(nondivisible_core(build_root_system(("BC", 3))).roots) == 18
    with pytest.raises(NotNonReduced):
        nondivisible_core(build_root_system(("A", 3)))
    assert reduced_form(build_root_system(("A", 3))).spec.family == "A"


def test_dynkin_analysis():
    A4 = build_root_system(("A", 4))
    assert is_end_node(A4, 1) and is_end_node(A4, 4)
    assert not is_end_node(A4, 2)
    D4 = build_root_system(("D", 4))
    assert branch_node(D4) == 2
    assert D4.node_degree(2) == 3
    assert branch_node(A4) is None
    E8 = build_root_system(("E", 8))
    assert branch_node(E8) == 4
    assert dynkin_path(E8, 8, 4) == (8, 7, 6, 5, 4)
    assert dynkin_path(E8, 1, 2) == (1, 3, 4, 2)
    assert dynkin_path(A4, 2, 2) == (2,)


def test_scale_clears_denominators():
    for fam, rank in [("E", 6), ("E", 7), ("E", 8), ("F", 4)]:
        rs = build_root_system((fam, rank))
        assert rs.scale == 2
        assert all(isinstance(x, int) for v in rs.roots for x in v)
    assert build_root_system(("A", 3)).scale == 1


def test_serialization_is_canonical():
    rs = build_root_system(("B", 2))
    doc1 = rs.to_json()
    doc2 = build_root_system(("B", 2)).to_json()
    assert doc1 == doc2
    parsed = json.loads(doc1)
    assert parsed["family"] == "B" and parsed["rank"] == 2
    assert parsed["roots"] == sorted(parsed["roots"])
    assert len(parsed["cartan"]) == 2


def test_spec_label():
    assert RootSystemSpec("BC", 3).label() == "BC3"

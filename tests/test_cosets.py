import pytest

from test_cosets_oracle import _orbit
from weylbn.errors import RankTooSmall, WitnessNotApplicable
from weylbn.rootsys import build_root_system
from weylbn.cosets import (
    ParabolicChoice,
    double_coset_count,
    double_coset_count_naive,
    double_coset_orbit_sizes,
    end_node_weight_sets,
    root_count_gap_check,
    sweep_cases,
    third_coset_witness,
    w0_negation_map,
)
from weylbn.weyl import fundamental_weight


def choice(fam, rank, node):
    return ParabolicChoice(build_root_system((fam, rank)), node)


def double_coset_sweep(max_rank, families=None):
    """Double-coset reports for every node of every type in range."""
    return [
        double_coset_count(ParabolicChoice(build_root_system((fam, rank)), node))
        for fam, rank in sweep_cases(max_rank, families)
        for node in range(1, rank + 1)
    ]


def orbit_size(ch):
    """|W·ω_a|, a the removed node, by the breadth-first oracle."""
    core = ch.core
    return len(_orbit(core, fundamental_weight(core, ch.removed), range(1, core.rank + 1)))


def test_parabolic_orbit_sizes():
    for m in range(2, 7):
        assert orbit_size(choice("A", m, 1)) == m + 1
    assert orbit_size(ParabolicChoice(build_root_system(("A", 1)), 1)) == 2
    assert orbit_size(choice("B", 2, 1)) == 4
    assert orbit_size(choice("G", 2, 1)) == 6


@pytest.mark.parametrize(
    "fam,rank,node,count",
    [("A", 3, 1, 2), ("A", 3, 2, 3), ("A", 3, 3, 2), ("B", 2, 1, 3), ("B", 2, 2, 3), ("G", 2, 1, 4), ("G", 2, 2, 4), ("A", 2, 1, 2)],
)
def test_frozen_double_coset_counts(fam, rank, node, count):
    rep = double_coset_count(choice(fam, rank, node))
    assert rep.count == count
    assert rep.passed


def test_orbit_partition_sums():
    for fam, rank, node in [("A", 3, 2), ("B", 3, 1), ("G", 2, 1), ("BC", 3, 3), ("D", 4, 2)]:
        ch = choice(fam, rank, node)
        sizes = double_coset_orbit_sizes(ch)
        assert sum(sizes) == orbit_size(ch)
        assert len(sizes) == double_coset_count(ch).count


def test_naive_oracle_agreement_rank_le_3():
    for fam, rank in [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("BC", 2), ("BC", 3), ("G", 2)]:
        for node in range(1, rank + 1):
            ch = choice(fam, rank, node)
            assert double_coset_count(ch).count == double_coset_count_naive(ch)


def test_naive_oracle_agreement_rank_4():
    for fam in ("A", "B", "D", "BC"):
        for node in range(1, 5):
            ch = choice(fam, 4, node)
            assert double_coset_count(ch).count == double_coset_count_naive(ch)


def test_naive_oracle_cap():
    from weylbn.errors import GroupTooLarge

    with pytest.raises(GroupTooLarge):
        double_coset_count_naive(choice("A", 4, 1), cap=10)


def test_sweep_families_and_verdicts():
    reports = double_coset_sweep(3)
    assert {r.family for r in reports} == {"A", "B", "BC", "C", "G"}
    assert all(r.passed for r in reports)
    twos = {(r.family, r.rank, r.node) for r in reports if r.count == 2}
    assert twos == {("A", 2, 1), ("A", 2, 2), ("A", 3, 1), ("A", 3, 3)}
    # D starts at rank 4 (D3 duplicates A3).
    assert ("D", 3) not in sweep_cases(8)
    assert ("D", 4) in sweep_cases(8)
    assert ("E", 6) in sweep_cases(6)
    assert ("E", 7) not in sweep_cases(6)


def test_sweep_family_filter():
    reports = double_coset_sweep(3, families={"A"})
    assert {r.family for r in reports} == {"A"}
    assert [r.count for r in reports if r.rank == 3] == [2, 3, 2]


def test_sweep_rejects_rank_1():
    with pytest.raises(RankTooSmall):
        sweep_cases(1)


def test_witness_a3_middle():
    rep = third_coset_witness(choice("A", 3, 2))
    assert rep.word == (2, 1, 3, 2)
    assert rep.i == 1
    assert rep.passed


def test_witness_d4_end():
    rep = third_coset_witness(choice("D", 4, 1))
    assert len(rep.word) == 6 and rep.i == 2
    assert rep.passed


def test_witness_e6_end():
    rep = third_coset_witness(choice("E", 6, 1))
    assert len(rep.word) == 2 * rep.i + 2
    assert rep.passed


def test_witness_not_applicable():
    with pytest.raises(WitnessNotApplicable):
        third_coset_witness(choice("A", 5, 1))
    with pytest.raises(WitnessNotApplicable):
        third_coset_witness(choice("B", 3, 3))
    with pytest.raises(WitnessNotApplicable):
        third_coset_witness(choice("G", 2, 1))


def test_witness_words_differ_by_one_swap():
    # Braid graph of the witness's reduced words has diameter 1: the two
    # words are joined by the single commuting swap in the middle.
    from weylbn.weyl import braid_moves, element_of, reduced_words

    for ch in [choice("A", 3, 2), choice("D", 4, 1), choice("B", 3, 2), choice("E", 6, 2)]:
        rep = third_coset_witness(ch)
        i = rep.i
        a, b = rep.word[i], rep.word[i + 1]
        swapped = rep.word[:i] + (b, a) + rep.word[i + 2 :]
        assert rep.word != swapped
        assert reduced_words(element_of(ch.core, rep.word)) == {rep.word, swapped}
        assert swapped in braid_moves(ch.core, rep.word)
        assert rep.passed


@pytest.mark.parametrize(
    "fam,rank,node,psi,sub",
    [("B", 2, 1, 8, 2), ("B", 3, 2, 18, 4), ("G", 2, 1, 12, 2)],
)
def test_gap_check_values(fam, rank, node, psi, sub):
    got = root_count_gap_check(choice(fam, rank, node))
    assert got == (psi, sub, True)


def test_weight_sets_small():
    _, _, diff = end_node_weight_sets(2)
    assert diff == {(0, 1), (1, 1)}
    _, _, diff = end_node_weight_sets(3)
    assert diff == {(0, 0, 1), (0, 1, 1), (1, 1, 1)}
    with pytest.raises(RankTooSmall):
        end_node_weight_sets(1)


def test_weight_sets_structure():
    lie_p, lie_q, diff = end_node_weight_sets(4)
    assert lie_q <= lie_p and diff == lie_p - lie_q
    assert len(diff) == 4


def test_w0_negation_map():
    assert w0_negation_map(build_root_system(("A", 2))) == {1: 2, 2: 1}
    assert w0_negation_map(build_root_system(("A", 3))) == {1: 3, 2: 2, 3: 1}
    assert w0_negation_map(build_root_system(("A", 1))) == {1: 1}


def test_reports_serialize():
    reports = double_coset_sweep(2)
    rec = reports[0].to_record()
    assert set(rec) == {"family", "rank", "node", "index", "count", "expected_two", "pass"}


def test_bc_routes_through_core():
    ch = choice("BC", 2, 1)
    assert ch.core.spec.family == "B"
    rep = double_coset_count(ch)
    assert rep.family == "BC"
    assert rep.count == double_coset_count(choice("B", 2, 1)).count

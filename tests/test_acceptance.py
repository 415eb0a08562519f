"""Acceptance suite: every criterion is exact (integer equality), and each
test prints one pass/fail line (run with ``pytest -s`` to see them all).

Runtime-sensitive criteria assert their wall-clock budgets as stated.
"""

import time

import pytest

from test_cosets import double_coset_sweep
from test_fingrp import _unipotent_scan
from test_titssys_oracle import weakly_split_bruteforce
from weylbn.cosets import (
    ParabolicChoice,
    double_coset_count,
    double_coset_count_naive,
    end_node_weight_sets,
    root_count_gap_check,
    sweep_cases,
    third_coset_witness,
    w0_negation_map,
)
from weylbn.errors import WitnessNotApplicable
from weylbn.fingrp import fitting_subgroup, sl_order, special_linear_group
from weylbn.rootsys import branch_node, build_root_system, is_end_node, reduced_form
from weylbn.titssys import (
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
    sl_rank1_column_system,
    standard_sl_system,
    star_property_check,
)
from weylbn.weyl import is_minus_one, longest_element


def report(num, ok, text):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_double_coset_sweep():
    start = time.monotonic()
    reports = double_coset_sweep(8)
    elapsed = time.monotonic() - start
    all_pass = all(r.passed for r in reports)
    twos = {(r.family, r.rank, r.node) for r in reports if r.count == 2}
    expected_twos = {
        ("A", m, node) for m in range(2, 9) for node in (1, m)
    }
    exact = twos == expected_twos
    others_greater = all(
        r.count > 2 for r in reports if (r.family, r.rank, r.node) not in expected_twos
    )
    families = {(r.family, r.rank) for r in reports}
    coverage = (
        all(("A", m) in families for m in range(2, 9))
        and all(("B", m) in families for m in range(2, 9))
        and all(("C", m) in families for m in range(2, 9))
        and all(("BC", m) in families for m in range(2, 9))
        and all(("D", m) in families for m in range(4, 9))
        and {("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)} <= families
    )
    ok = all_pass and exact and others_greater and coverage and elapsed <= 120
    report(
        1,
        ok,
        f"{len(reports)} double-coset counts; =2 exactly on type-A end nodes; "
        f"{elapsed:.1f}s (budget 120s)",
    )


def test_criterion_02_oracle_equivalence():
    frozen = {("A", 3, 1): 2, ("A", 3, 2): 3, ("B", 2, 1): 3, ("B", 2, 2): 3, ("G", 2, 1): 4, ("G", 2, 2): 4}
    specs = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("BC", 2), ("BC", 3), ("G", 2), ("F", 4)]
    ok = True
    checked = 0
    for fam, rank in specs:
        rs = build_root_system((fam, rank))
        for node in range(1, rank + 1):
            ch = ParabolicChoice(rs, node)
            fast = double_coset_count(ch).count
            slow = double_coset_count_naive(ch)
            ok = ok and fast == slow
            want = frozen.get((fam, rank, node))
            if want is not None:
                ok = ok and fast == want
            checked += 1
    report(2, ok, f"orbit-method counts equal full-enumeration counts on {checked} cases")


def test_criterion_03_witness_sweep():
    ok = True
    applicable = 0
    not_applicable = 0
    for fam, rank in sweep_cases(8):
        rs = build_root_system((fam, rank))
        for node in range(1, rank + 1):
            ch = ParabolicChoice(rs, node)
            core = ch.core
            is_a_end = fam == "A" and is_end_node(rs, node)
            construction_applies = core.node_degree(node) >= 2 or (
                core.node_degree(node) == 1 and branch_node(core) is not None
            )
            try:
                rep = third_coset_witness(ch)
            except WitnessNotApplicable:
                not_applicable += 1
                # Type-A end nodes must land here; so do branchless end nodes.
                ok = ok and (is_a_end or not construction_applies)
                continue
            applicable += 1
            ok = (
                ok
                and not is_a_end
                and rep.length_ok
                and rep.two_reduced_words
                and rep.endpoints_r_a
                and rep.coset_distinct
                and len(rep.word) == 2 * rep.i + 2
            )
    report(
        3,
        ok,
        f"{applicable} witnesses verified (length, two words, endpoints, third coset); "
        f"{not_applicable} not-applicable cases",
    )


def test_criterion_04_longest_element_classification():
    def expected_not_minus_one(fam, rank):
        return (
            (fam == "A" and rank > 1)
            or (fam == "D" and rank % 2 == 1)
            or (fam == "E" and rank == 6)
        )

    types = (
        [("A", m) for m in range(1, 9)]
        + [("B", m) for m in range(1, 9)]
        + [("C", m) for m in range(1, 9)]
        + [("D", m) for m in range(3, 9)]
        + [("BC", m) for m in range(1, 9)]
        + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
    )
    ok = True
    for fam, rank in types:
        core = reduced_form(build_root_system((fam, rank)))
        got = is_minus_one(longest_element(core))
        fam_for_rule = core.spec.family if fam == "BC" else fam
        want = not expected_not_minus_one(fam_for_rule, rank)
        ok = ok and got == want
    for m in range(1, 9):
        sigma = w0_negation_map(build_root_system(("A", m)))
        ok = ok and all(sigma[i] == m + 1 - i for i in range(1, m + 1))
    report(4, ok, "w0 = -1 exactly off {A_m (m>1), D_odd, E6}; type-A reversal for m <= 8")


def test_criterion_05_root_count_gap():
    ok = True
    checked = 0
    for fam, rank in sweep_cases(8):
        rs = build_root_system((fam, rank))
        core = reduced_form(rs)
        if not is_minus_one(longest_element(core)):
            continue
        for node in range(1, rank + 1):
            psi, sub, holds = root_count_gap_check(ParabolicChoice(rs, node))
            ok = ok and holds and psi > sub + 2
            checked += 1
    report(5, ok, f"#roots > #sub-roots + 2 on all {checked} nodes of w0 = -1 types")


def test_criterion_06_weight_set_difference():
    ok = True
    for m in range(2, 9):
        _, _, diff = end_node_weight_sets(m)
        expected = {tuple(0 if j < i else 1 for j in range(m)) for i in range(m)}
        ok = ok and diff == expected and len(diff) == m
    report(6, ok, "weight-set difference is the m tail sums a_i+...+a_m for 2 <= m <= 8")


STANDARD_SYSTEMS = [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (4, 2)]


def test_criterion_07_bn_axioms_and_bruhat():
    start = time.monotonic()
    ok = True
    for n, p in STANDARD_SYSTEMS:
        c = standard_sl_system(n, p)
        rep = check_axioms(c)
        cells = bruhat_cells(c)
        d = c.derived
        d.require_words()
        census = sorted(d.lengths.values())
        sizes_ok = sorted(cells.values()) == sorted(
            p**l * c.B.order for l in census
        )
        ok = (
            ok
            and rep.passed
            and sizes_ok
            and sum(cells.values()) == c.G.order == sl_order(n, p)
        )
    frozen = sorted(bruhat_cells(standard_sl_system(3, 2)).values())
    ok = ok and frozen == [8, 16, 16, 32, 32, 64] and sum(frozen) == 168
    ok = ok and sum(bruhat_cells(standard_sl_system(4, 2)).values()) == 20160
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 60
    report(
        7,
        ok,
        f"T1-T4 + Bruhat cells q^l(w)|B| for {len(STANDARD_SYSTEMS)} standard systems; "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_08_star_and_intersection():
    ok = True
    for n, p in [(3, 2), (3, 3)]:
        c = standard_sl_system(n, p)
        ok = ok and star_property_check(c) and intersection_identity_check(c)
    report(8, ok, "product law and H = cap_w wBw^-1 = B cap w0Bw0^-1 on SL3(F2), SL3(F3)")


def test_criterion_09_coxeter_order_isomorphism():
    from itertools import permutations

    from weylbn.rootsys import coxeter_matrix

    # The stated (n <= 4, p <= 3) grid includes SL4(F3) of order ~1.2e7,
    # which is past every enumeration cap; run the grid's feasible part.
    ok = True
    for n, p in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        c = standard_sl_system(n, p)
        S = find_S(c)
        want = coxeter_matrix(build_root_system(("A", n - 1)))
        k = len(S)
        ok = ok and k == n - 1
        ok = ok and any(
            all(
                order_of_product(c, S[perm[i]], S[perm[j]]) == want[i][j]
                for i in range(k)
                for j in range(k)
            )
            for perm in permutations(range(k))
        )
    report(9, ok, "orders of generator products match the A_{n-1} Coxeter matrix")


def test_criterion_10_rank1_constructions():
    ok = True
    for n, p in [(2, 2), (2, 3), (3, 2)]:
        col = sl_rank1_column_system(n, p)
        proj = projective_rank1_system(n, p)
        ok = (
            ok
            and check_axioms(col).passed
            and check_axioms(proj).passed
            and sorted(bruhat_cells(col).values()) == sorted(bruhat_cells(proj).values())
        )
    for q in (3, 5, 7):
        c = affine_rank1_system(q)
        flags = classify(c)
        ok = ok and check_axioms(c).passed and flags.split
    report(10, ok, "column and projective rank-1 systems agree; affine systems split")


def test_criterion_11_nonstandard_counterexample():
    c = psl3_f2_nonstandard_system()
    flags = classify(c)
    rep = check_axioms(c)
    fit = fitting_subgroup(c.B)
    std = standard_sl_system(3, 2)
    std_cells = bruhat_cells(std)
    b0 = std.B.order
    parabolic_orders = sorted(
        [b0] + [b0 + size for word, size in std_cells.items() if len(word.split()) == 1]
    )
    ok = (
        c.B.order == 21
        and len(c.G.elements) // c.B.order == 8
        and rep.passed
        and rep.weyl_order == 2
        and flags.split
        and fit.order == 7
        and parabolic_orders == [8, 24, 24]
        and c.B.order not in parabolic_orders
    )
    report(
        11,
        ok,
        "order-21 subgroup of PSL3(F2): 2-transitive on 8 points, rank-1 system "
        "splits with Fit of order 7; |B|=21 matches no standard parabolic (8, 24, 24)",
    )


def test_criterion_12_classifier_sanity():
    ok = True
    systems = [standard_sl_system(n, p) for n, p in STANDARD_SYSTEMS]
    systems += [affine_rank1_system(q) for q in (3, 5, 7)]
    systems += [projective_rank1_system(3, 2), psl3_f2_nonstandard_system()]
    for c in systems:
        flags = classify(c)
        if flags.split:
            ok = ok and flags.weakly_split and flags.saturated
    for n, p in STANDARD_SYSTEMS:
        c = standard_sl_system(n, p)
        flags = classify(c)
        unipotent = _unipotent_scan(special_linear_group(n, p))
        ok = ok and flags.split and flags.witness_u.elemset == unipotent
    for c in systems:
        if c.B.order <= 500:
            ok = ok and classify(c).weakly_split == weakly_split_bruteforce(c)
    report(
        12,
        ok,
        "split => weakly-split & saturated; standard witnesses are the strict "
        "upper-triangular subgroups; weakly-split test matches brute force",
    )

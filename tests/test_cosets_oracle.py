"""The J-dominant tree of cosets against the orbit walks it replaced: the
same indices, double-coset counts, W'-orbit sizes and coset-distinctness
verdicts.

``_walk`` walks the whole orbit W·ω_a along Stembridge's canonical-parent
tree and counts its J-dominant weights on the way.  ``_orbit`` and
``_orbit_partition_count`` are the hash-set breadth-first search that
walk replaced: the closure of a weight under simple reflections with a set
of seen weights, and the number of orbits of a set of weights, found by
exhausting it.
"""

import pytest

from weylbn.cosets import (
    ParabolicChoice,
    double_coset_count,
    double_coset_orbit_sizes,
    sweep_cases,
    third_coset_witness,
)
from weylbn.errors import WitnessNotApplicable
from weylbn.rootsys import build_root_system
from weylbn.weyl import act_on_weight, descend, fundamental_weight


def _walk(rs, start, nodes, a0=None, out=None):
    """Walk the orbit of ``start`` under the reflections at ``nodes`` along
    Stembridge's tree, with no set of seen weights; return (size, count).

    ``start`` must be dominant at ``nodes`` (no negative coordinate there).
    The canonical parent of any other weight v in the orbit is its
    reflection at the least node j in ``nodes`` with v[j] < 0, which adds a
    positive multiple of a simple root.  So v's children are the s_j v with
    v[j] > 0 and no negative ``nodes`` coordinate before j; and as s_j
    raises only the neighbours of j, a child at j past v's least negative
    node fn needs j adjacent to fn.  With ``nodes`` all the nodes,
    ``count`` is the number of weights whose only negative coordinate, if
    any, is at the 0-based node ``a0``: ``start`` and the children at a0
    with nothing negative after a0.
    Each weight, a list not to be changed, is appended to ``out`` if given.
    """
    n = rs.rank
    cartan = rs.cartan
    js = sorted(node - 1 for node in nodes)
    raise_by = [
        tuple((k, -c) for k, c in enumerate(row) if c and k != j) for j, row in enumerate(cartan)
    ]
    before = {j: [i for i in js if i < j] for j in js}
    stack = [(list(start), n)]
    size = count = 1
    while stack:
        v, fn = stack.pop()
        if out is not None:
            out.append(v)
        for j in js:
            c = v[j]
            if c <= 0 or (j > fn and not cartan[j][fn]):
                continue
            w = v.copy()
            w[j] = -c
            for k, e in raise_by[j]:
                w[k] += c * e
            if j < fn or all(w[i] >= 0 for i in before[j]):
                stack.append((w, j))
                size += 1
                if j == a0 and min(w[j + 1 :], default=0) >= 0:
                    count += 1
    return size, count


def _sparse_cartan_rows(rs):
    return [tuple((j, c) for j, c in enumerate(row) if c) for row in rs.cartan]


def _orbit(rs, start, nodes):
    """BFS closure of ``start`` under the simple reflections at ``nodes``."""
    sparse = _sparse_cartan_rows(rs)
    idxs = [n - 1 for n in nodes]
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for i in idxs:
                c = v[i]
                if c == 0:
                    continue
                w = list(v)
                for j, entry in sparse[i]:
                    w[j] -= c * entry
                w = tuple(w)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def _orbit_partition_count(rs, points, nodes):
    """Number of orbits of the reflections at ``nodes`` acting on ``points``."""
    sparse = _sparse_cartan_rows(rs)
    idxs = [n - 1 for n in nodes]
    remaining = set(points)
    count = 0
    while remaining:
        seed = remaining.pop()
        count += 1
        frontier = [seed]
        while frontier:
            nxt = []
            for v in frontier:
                for i in idxs:
                    c = v[i]
                    if c == 0:
                        continue
                    w = list(v)
                    for j, entry in sparse[i]:
                        w[j] -= c * entry
                    w = tuple(w)
                    if w in remaining:
                        remaining.remove(w)
                        nxt.append(w)
            frontier = nxt
    return count


CHOICES = [
    (fam, rank, node)
    for fam, rank in sweep_cases(6)
    for node in range(1, rank + 1)
]


def _setup(fam, rank, node):
    ch = ParabolicChoice(build_root_system((fam, rank)), node)
    core = ch.core
    nodes = range(1, core.rank + 1)
    others = [n for n in nodes if n != node]
    return ch, core, nodes, others


@pytest.mark.parametrize("fam,rank,node", CHOICES)
def test_walk_matches_bfs(fam, rank, node):
    ch, core, nodes, others = _setup(fam, rank, node)
    start = fundamental_weight(core, node)
    orbit = _orbit(core, start, nodes)
    count = _orbit_partition_count(core, orbit, others)
    assert _walk(core, start, nodes, node - 1) == (len(orbit), count)
    rep = double_coset_count(ch)
    assert (rep.quotient_size, rep.count) == (len(orbit), count)


@pytest.mark.parametrize(
    "fam,rank,node", [(f, r, n) for f, r in sweep_cases(8) for n in range(1, r + 1)]
)
def test_tree_matches_walk(fam, rank, node):
    ch, core, nodes, _ = _setup(fam, rank, node)
    rep = double_coset_count(ch)
    walked = _walk(core, fundamental_weight(core, node), nodes, node - 1)
    assert (rep.quotient_size, rep.count) == walked


def test_shared_memo_is_order_free_and_local(monkeypatch):
    # The memo of _dominant is keyed on each sub-diagram's own Cartan block
    # and shared by every type: filled in reverse order, it gives the same
    # counts, and each entry's weights are as long as their block.
    from weylbn import cosets

    cached = cosets._dominant
    cached.cache_clear()
    entries = {}

    def recording(cartan, c, lam):
        entries[cartan, c, lam] = got = cached(cartan, c, lam)
        return got

    monkeypatch.setattr(cosets, "_dominant", recording)
    for fam, rank in reversed(sweep_cases(8)):
        for node in range(rank, 0, -1):
            ch, core, nodes, _ = _setup(fam, rank, node)
            walked = _walk(core, fundamental_weight(core, node), nodes, node - 1)
            assert double_coset_count(ch).count == walked[1]
    assert len(entries) == cached.cache_info().currsize
    for (cartan, c, lam), got in entries.items():
        assert got[0] == (lam, 0)
        assert all(len(mu) == len(cartan) and m >= 0 for mu, m in got)


def test_memo_shares_sub_diagrams_across_types():
    # A3 is B4 less its node 4, with the same Cartan block: counting B4
    # after A3 reuses A3's entries.
    from weylbn import cosets

    def misses(*types):
        before = cosets._dominant.cache_info().misses
        for fam, rank in types:
            for node in range(1, rank + 1):
                double_coset_count(ParabolicChoice(build_root_system((fam, rank)), node))
        return cosets._dominant.cache_info().misses - before

    cosets._dominant.cache_clear()
    alone = misses(("B", 4))
    cosets._dominant.cache_clear()
    misses(("A", 3))
    assert misses(("B", 4)) < alone


@pytest.mark.parametrize("fam,rank,node", [c for c in CHOICES if c[1] <= 4])
def test_orbit_sizes_and_representatives_match_bfs(fam, rank, node):
    ch, core, nodes, others = _setup(fam, rank, node)
    orbit = _orbit(core, fundamental_weight(core, node), nodes)
    parts = []
    remaining = set(orbit)
    while remaining:
        part = _orbit(core, remaining.pop(), others)
        remaining -= part
        parts.append(part)
    assert double_coset_orbit_sizes(ch) == sorted(len(p) for p in parts)
    # Two weights share a W'-orbit iff they have the same J-dominant weight.
    rep_of = {v: descend(core, v, others)[1] for v in orbit}
    for part in parts:
        assert len({rep_of[v] for v in part}) == 1
    assert len(set(rep_of.values())) == len(parts)


@pytest.mark.parametrize("fam,rank,node", CHOICES)
def test_coset_distinct_matches_bfs_membership(fam, rank, node, monkeypatch):
    # The witness's own word, and words r_b r_a and r_a r_b r_a put in its
    # place: those lie in W' r_a W' or W' or, across a multiple bond, in a
    # third double coset, so both verdicts are exercised.
    from weylbn import cosets

    ch, core, nodes, others = _setup(fam, rank, node)
    try:
        word = third_coset_witness(ch).word
    except WitnessNotApplicable:
        return
    omega = fundamental_weight(core, node)
    coset_of_ra = _orbit(core, act_on_weight(core, (node,), omega), others)
    real_act = cosets.act_on_weight
    verdicts = set()
    puts = [word] + [(b, node) for b in others] + [(node, b, node) for b in others]
    for put in puts:

        def act(rs, w, coords, put=put):
            return real_act(rs, put if len(w) > 1 else w, coords)

        monkeypatch.setattr(cosets, "act_on_weight", act)
        img = act_on_weight(core, put, omega)
        expected = img != omega and img not in coset_of_ra
        assert third_coset_witness(ch).coset_distinct == expected
        verdicts.add(expected)
    assert verdicts == {True, False}

"""Tits-system (BN-pair) verification in explicit finite groups.

A candidate is a triple (G, B, N) of a finite group and two subgroups.
Derived data: H = B ∩ N, the Weyl group W = N/H as canonical coset
representatives, the distinguished generators S (the nontrivial classes
w for which B ∪ BwB is a subgroup), lengths and canonical words over S,
and the Bruhat cells BwB, read as the B-orbits on the chambers G/B (the
complete flags for the standard SL_n systems, which never list G).  A
rank-1 system comes from a 2-transitive action given, as everywhere here,
by the tables of G's generators on the points (``rank1_from_2transitive``).
The axiom checker verifies, exhaustively

  T1  B and N generate G,
  T2  S generates W and consists of involutions,
  T3  sBw ⊆ BwB ∪ BswB for all s in S, w in W,
  T4  sBs ≠ B for all s in S,

plus that the map w -> BwB is a bijection onto the double cosets and
that B is its own normalizer.  Classification: a system is saturated
when H equals the intersection of all N-conjugates of B, weakly split
when B = H·Fit(B), and split when it is saturated and B = H ⋉ U for
some normal U inside Fit(B).

The weakly-split test uses only the Fitting subgroup because in a finite
group every nilpotent normal subgroup U of B lies inside Fit(B); so if
B = HU for some such U then B = H·Fit(B), and conversely Fit(B) itself
is a nilpotent normal witness.  Both flags are read off group orders:
for U normal in B, H·U is a subgroup of order |H|·|U| / |H ∩ U|, so
B = H·U exactly when |H|·|U| = |B|·|H ∩ U|, and no product is formed.

Candidates are immutable once built, and their derived data is cached
on them.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cache, cached_property, lru_cache
from itertools import product
from operator import mul as _times

from .errors import (
    HNotNormal,
    NotAStabilizer,
    NotTwoTransitive,
    SubgroupNotFound,
    WeylNotGenerated,
)
from . import fingrp
from .fingrp import (
    FiniteGroup,
    _closure,
    _inverse_perm,
    _shaped_members,
    fitting_subgroup,
    is_normal,
    left_cosets,
    monomial_subgroup,
    normal_closure,
    normal_subgroups,
    orbits,
    special_linear_group,
    upper_triangular_subgroup,
)


class TitsSystemCandidate:
    def __init__(self, G, B, N, label=""):
        for name, H in (("B", B), ("N", N)):
            if not H.is_subgroup_of(G):
                raise ValueError(f"{name} is not a subgroup of G")
        self.G, self.B, self.N, self.label = G, B, N, label

    @cached_property
    def derived(self):
        """The data the checks share, built on first use (HNotNormal if
        B ∩ N is not normal in N)."""
        return _Derived(self)


class TitsReport(
    namedtuple(
        "TitsReport",
        "t1_generates t2_holds t3_holds t4_holds h_normal_in_n bruhat_bijective"
        " normalizer_is_b weyl_order s_set cells",
    )
):
    __slots__ = ()

    @property
    def passed(self):
        return all(self[:7])

    def to_record(self):
        rec = self._asdict()
        rec.update(s_set=list(self.s_set), cells=dict(sorted(self.cells.items())))
        rec["pass"] = self.passed
        return rec


class ClassificationFlags(namedtuple("ClassificationFlags", "saturated weakly_split split")):
    """The three flags; ``witness_u``, a splitting witness or None, is not
    compared."""

    def __new__(cls, saturated, weakly_split, split, witness_u=None):
        self = super().__new__(cls, saturated, weakly_split, split)
        self.witness_u = witness_u
        return self

    def to_record(self):
        return {
            "saturated": self.saturated,
            "weakly_split": self.weakly_split,
            "split": self.split,
            "witness_u_order": self.witness_u.order if self.witness_u else None,
        }


class _Derived:
    """Everything the checks share: the chambers G/B, the Weyl quotient,
    the cells, S, lengths and words.

    For a ``SpecialLinear`` G, never listed, the chambers are the complete
    flags (``_chambers``, which first checks that B is the stabilizer of
    the standard flag); for an enumerated G, the left cosets of B, by
    ``left_cosets``.  ``coset(x)`` numbers xB.  r = ``coset_reps[k]``
    stands for chamber k, and x carries it to ``coset(x·r)``: r is the
    coset's least member for an enumerated G, and the flag itself (a
    packed matrix not in G) for a ``SpecialLinear``.  Products only build
    the chamber permutations of B's and N's generators, one ``ops.mul``
    per chamber each.  Every element of N is then a permutation, read down
    N's BFS tree (``tree_perms``), and every check is a lookup: a cell BwB
    is the B-orbit of wB, with |B| elements per chamber.
    """

    def __init__(self, c):
        G, B, N = c.G, c.B, c.N
        self.B = B
        if isinstance(G, FiniteGroup):
            coset_of, reps = left_cosets(G, B)
            self.coset_reps = [G.elements[r] for r in reps]
            self.coset = lambda x: coset_of[G.index[x]]
        else:
            self.coset_reps, self.coset = _chambers(G, B)
        self.H = B.subgroup(B.elemset & N.elemset)
        if not is_normal(self.H, N):
            raise HNotNormal("B ∩ N is not normal in N")
        mul, coset, m = G.ops.mul, self.coset, len(self.coset_reps)
        self.b_acts, self.n_acts = (
            [[coset(mul(g, r)) for r in self.coset_reps] for g in K.generators()] for K in (B, N)
        )
        # n·x0 = n'·x0 exactly when n^-1·n' is in B ∩ N = H, so the least n
        # at each chamber n·x0 are the least members of the cosets nH: the
        # Weyl representatives, in order.  ``rep_at`` maps their chambers to
        # them, ``chamber`` back, and ``perm`` gives each one's permutation.
        x0 = coset(G.ops.identity)
        self.rep_at, self.perm = {}, {}
        for n, perm in zip(N.elements, N.tree_perms(self.n_acts, m)):
            if perm[x0] not in self.rep_at:
                self.rep_at[perm[x0]], self.perm[n] = n, perm
        self.reps = tuple(self.rep_at.values())
        self.chamber = {w: k for k, w in self.rep_at.items()}
        self.identity_rep = e = self.rep_at[x0]
        # The cells BwB are the B-orbits on G/B, seeded at the Weyl
        # representatives in order, then at every other coset.  A cell is
        # named by the first representative it contains: ``cells`` holds
        # its cosets, and ``cell_of`` maps a coset to that name (None: no
        # representative).  ``fixed`` counts the cosets gB that B fixes,
        # those with g in N_G(B).
        self.cell_of, self.cells, self.fixed = [None] * m, {}, 0
        for orb in orbits(self.b_acts, m, list(self.rep_at) + list(range(m))):
            self.fixed += len(orb) == 1
            w = self.rep_at.get(orb[0])
            if w is not None:
                self.cells[w] = orb
                for k in orb:
                    self.cell_of[k] = w
        self.cell_size = {w: B.order * len(orb) for w, orb in self.cells.items()}
        # S: the nontrivial w with B ∪ BwB closed, that is with every w·b·w
        # in B ∪ BwB, as (BwB)(BwB) is the union of the B(wbw)B over b in B.
        self.s_reps = tuple(w for w in self.reps if w != e and self.cells_met(w, w) <= {e, w})
        self._word_bfs()

    def wmul(self, r1, r2):
        """The representative of r1·r2: the one at r1·(r2's chamber)."""
        return self.rep_at[self.perm[r1][self.chamber[r2]]]

    def orbit(self, w):
        """The cosets in BwB, the B-orbit of wB, for a Weyl representative w."""
        return self.cells[self.cell_of[self.chamber[w]]]

    def cells_met(self, s, w):
        """The cells met by s·B·w, those of the chambers s·bwB for bwB in the
        orbit of wB (None: no cell), for Weyl representatives s and w."""
        perm, cell_of = self.perm[s], self.cell_of
        return {cell_of[perm[k]] for k in self.orbit(w)}

    @cached_property
    def stabilizers(self):
        """B ∩ wBw^-1 for each Weyl representative w: b lies in wBw^-1
        exactly when b·wB = wB, so this is the stabilizer in B of wB.  The
        image b·wB of every b is read down B's BFS tree through the action
        of B's generators (``tree_images``), with no product formed."""
        B, out = self.B, {}
        for w, k in self.chamber.items():
            out[w] = {b for b, m in zip(B.elements, B.tree_images(k, self.b_acts)) if m == k}
        return out

    @cached_property
    def b_conjugates_meet(self):
        """The intersection of B with every wBw^-1, w a Weyl representative.

        This is also the intersection of all N-conjugates of B: each n in N
        is w·h with h in H ⊆ B, and then nBn^-1 = wBw^-1.
        """
        return self.B.elemset.intersection(*self.stabilizers.values())

    def _word_bfs(self):
        """Lengths and lexicographically least words over S for each class.

        W acts on itself by left multiplication with each s.  Breadth-first
        from the identity, a class v has length one more than the shortest
        s_k^-1·v already reached, and its least shortest word starts with
        the least such k.
        """
        at = {w: i for i, w in enumerate(self.reps)}
        perms = [[at[self.wmul(s, w)] for w in self.reps] for s in self.s_reps]
        back = [_inverse_perm(p) for p in perms]
        e = at[self.identity_rep]
        lengths = {e: 0}
        words = {e: ()}
        for v in orbits(perms, len(self.reps), [e])[0][1:]:
            l, k, u = min(
                (lengths[q[v]], k, q[v]) for k, q in enumerate(back, start=1) if q[v] in lengths
            )
            lengths[v] = l + 1
            words[v] = (k,) + words[u]
        self.lengths = {self.reps[v]: l for v, l in lengths.items()}
        self.words = {self.reps[v]: word for v, word in words.items()}
        self.unreached = len(self.reps) - len(lengths)

    def require_words(self):
        """Raise WeylNotGenerated unless every class has an S-word."""
        if self.unreached:
            raise WeylNotGenerated(
                f"S reaches {len(self.lengths)} of the {len(self.reps)} Weyl classes;"
                f" {self.unreached} have no word over S"
            )


def _chambers(G, B):
    """G/B for G a ``SpecialLinear``: the flags, numbered as the BFS orbit
    of the standard flag x0 under G's transvections, as (the flags, the
    memoized chamber number of an element).  A flag F is a packed matrix
    whose first n-1 columns are those of an r carrying x0 to F times an
    upper-triangular matrix, so x·F has the flag of x·r.
    NotAStabilizer unless B's generators fix x0 and |B|·|G·x0| = |G|."""
    flag = G.flag
    flags = _closure(flag(G.ops.identity), [lambda f, a=a: flag(a(f)) for a in G.acts])[0]
    number = dict(zip(flags, range(len(flags))))
    coset = cache(lambda x: number[flag(x)])
    for b in B.generators():
        if coset(b) != 0:
            raise NotAStabilizer(f"B's generator {G.ops.fmt(b)} moves the standard flag")
    if B.order * len(flags) != G.order:
        raise NotAStabilizer(f"|B|·|G·x0| = {B.order}·{len(flags)} is not |G| = {G.order}")
    return flags, coset


def _derived(c):
    """The candidate's shared data.  Every check reads it through here, so
    a trace of this function shows the cost of building it."""
    return c.derived


def find_S(c):
    """The distinguished generators, as canonical coset representatives."""
    return _derived(c).s_reps


def check_axioms(c):
    """Exhaustive T1-T4 verification plus Bruhat and normalizer checks, all
    read off the permutations of G/B that _Derived builds, with no product.

    T1: B ⊆ <B, N>, so <B, N> = G exactly when the orbit of the coset B
    under B and N is all of G/B.  T4: sBs = B puts s² in B ∩ N = H, and
    then sBs = sBs^-1·s² is B exactly when s normalizes B, that is when B
    fixes sB; so sBs = B exactly when s² ∈ H and the orbit of sB is one
    point.  g normalizes B exactly when B fixes gB, so B = N_G(B) exactly
    when B fixes one coset only.
    """
    try:
        d = _derived(c)
    except HNotNormal:
        return TitsReport(
            t1_generates=False, t2_holds=False, t3_holds=False, t4_holds=False,
            h_normal_in_n=False, bruhat_bijective=False, normalizer_is_b=False,
            weyl_order=0, s_set=(), cells={},
        )
    e, m = d.identity_rep, len(d.coset_reps)
    t1 = len(orbits(d.b_acts + d.n_acts, m, [d.chamber[e]])[0]) == m
    s_generates = not d.unreached
    t2 = s_generates and all(d.wmul(s, s) == e for s in d.s_reps)
    bruhat = None not in d.cell_of and len(d.cells) == len(d.reps)
    t3 = all(d.cells_met(s, w) <= {w, d.wmul(s, w)} for s in d.s_reps for w in d.reps)
    t4 = not any(d.wmul(s, s) == e and len(d.orbit(s)) == 1 for s in d.s_reps)

    return TitsReport(
        t1_generates=t1,
        t2_holds=t2,
        t3_holds=t3,
        t4_holds=t4,
        h_normal_in_n=True,
        bruhat_bijective=bruhat,
        normalizer_is_b=d.fixed == 1,
        weyl_order=len(d.reps),
        s_set=tuple(c.G.ops.fmt(s) for s in d.s_reps),
        cells=bruhat_cells(c) if bruhat and s_generates else {},
    )


def bruhat_cells(c):
    """Map from canonical S-word of each Weyl class to its cell size
    (WeylNotGenerated when S does not generate W)."""
    d = _derived(c)
    d.require_words()
    return {" ".join(str(x) for x in d.words[w]): size for w, size in d.cell_size.items()}


def order_of_product(c, s1, s2):
    """Order of the product of two Weyl classes."""
    d = _derived(c)
    prod = d.wmul(s1, s2)
    cur = prod
    n = 1
    while cur != d.identity_rep:
        cur = d.wmul(cur, prod)
        n += 1
    return n


def star_property_check(c):
    """Length-vs-product law for double cosets, exhaustively.

    For every s in S and w in W: if l(sw) > l(w) then BsB·BwB = BswB,
    and otherwise BsB·BwB is exactly the union of BwB and BswB (two
    distinct cosets).  Products are read off the cell partition via
    BsB·BwB = union of the B(sbw)B over b in B.  False when S does not
    generate W, since lengths are then undefined.
    """
    d = _derived(c)
    if d.unreached:
        return False
    for s in d.s_reps:
        for w in d.reps:
            sw = d.wmul(s, w)
            got = d.cells_met(s, w)
            if d.lengths[sw] > d.lengths[w]:
                expected = {sw}
            else:
                expected = {w, sw}
                if w == sw:
                    return False
            if got != expected:
                return False
    return True


def intersection_identity_check(c):
    """H equals both the intersection of all W-conjugates of B and
    B ∩ w0 B w0^{-1}, with w0 the unique longest Weyl class (False when
    S does not generate W)."""
    d = _derived(c)
    if d.unreached:
        return False
    maxlen = max(d.lengths.values())
    longest = [w for w in d.reps if d.lengths[w] == maxlen]
    if len(longest) != 1:
        return False
    return d.b_conjugates_meet == d.H.elemset == d.stabilizers[longest[0]]


def _meet_if_hu_is_b(H, U, B):
    """|H ∩ U| if H·U = B, else 0, for H ≤ B and U normal in B: read off
    the orders, as the module docstring says, with no product formed."""
    meet = len(H.elemset & U.elemset)
    return meet if H.order * U.order == B.order * meet else 0


def classify(c):
    """Saturated / weakly-split / split flags with a splitting witness.

    Split search tries U = Fit(B) first, then every normal subgroup of B
    inside Fit(B) in decreasing order; any subgroup of Fit(B) is
    nilpotent, so each candidate that complements H is a valid witness.
    """
    d = _derived(c)
    saturated = d.b_conjugates_meet == d.H.elemset
    fit = fitting_subgroup(c.B)
    meet = _meet_if_hu_is_b(d.H, fit, c.B)
    witness = fit if saturated and meet == 1 else None
    if saturated and meet > 1:
        lattice = sorted(normal_subgroups(c.B), key=lambda u: -u.order)
        below = [U for U in lattice if U.elemset <= fit.elemset]
        witness = next((U for U in below if _meet_if_hu_is_b(d.H, U, c.B) == 1), None)
    weakly, split = meet > 0, witness is not None
    return ClassificationFlags(saturated, weakly, split, witness)


# ---------------------------------------------------------------------------
# Constructors for the example systems


@lru_cache(maxsize=None)
def standard_sl_system(n, p):
    """(SL_n(F_p), upper-triangular B, monomial N), G a never enumerated
    ``fingrp.SpecialLinear`` whose chambers are flags.  Cached per (n, p)."""
    G = fingrp.SpecialLinear(n, p)
    B = upper_triangular_subgroup(G)
    N = monomial_subgroup(G)
    return TitsSystemCandidate(G, B, N, label=f"sl-{n}-{p}")


def rank1_from_2transitive(G, acts, i, ip):
    """Rank-1 system from a 2-transitive action: B = Stab(x), N = Stab{x, x'}.

    The action is the tables of G's generators, in ``G.generators()``
    order, on the points range(m): ``acts[j][k]`` is where g_j sends k.
    x and x' are the points i and ip.  Where every element sends them is
    read down G's BFS tree (``tree_images``).  It is 2-transitive when G
    moves x to every point and B moves x' to every other one.  ValueError
    if i = ip or either is not a point, then NotTwoTransitive."""
    if i == ip:
        raise ValueError("the two base points must differ")
    m = len(acts[0]) if acts else 1  # a trivial G has no generators
    for name, pt in (("x", i), ("x'", ip)):
        if pt not in range(m):
            raise ValueError(f"the base point {name} = {pt!r} is not a point of the action")
    to_x, to_xp = G.tree_images(i, acts), G.tree_images(ip, acts)
    fixing = [k for k, a in enumerate(to_x) if a == i]
    if len(set(to_x)) < m or len({to_xp[k] for k in fixing}) < m - 1:
        raise NotTwoTransitive("the action is not 2-transitive")
    B = G.subgroup([G.elements[k] for k in fixing])
    N = G.subgroup([g for g, a, b in zip(G.elements, to_x, to_xp) if {a, b} == {i, ip}])
    return TitsSystemCandidate(G, B, N, label="rank1-2transitive")


def projective_rank1_system(n, p):
    """Rank-1 system of SL_n(F_p) acting on P^{n-1}(F_p), with x, x' the
    first two points.  The points are the nonzero vectors canonicalized to
    their lexicographically least scalar multiple, in sorted order; each
    generator's table entry at a point is one matrix-vector product."""
    G = special_linear_group(n, p)

    def canon(v):
        return min(tuple(x * lam % p for x in v) for lam in range(1, p))

    pts = sorted({canon(v) for v in product(range(p), repeat=n) if any(v)})
    at = {v: k for k, v in enumerate(pts)}
    rows = map(fingrp.packing(n, p).decode, G.generators())
    acts = [[at[canon(tuple(sum(map(_times, r, v)) % p for r in m))] for v in pts] for m in rows]
    c = rank1_from_2transitive(G, acts, 0, 1)
    c.label = f"projective-{n}-{p}"
    return c


def affine_rank1_system(p):
    """Rank-1 system of the affine group of F_p acting on the line by
    y -> x·y + t, with x, x' the points 0 and p-1."""
    G = fingrp.affine_group(p)
    acts = [[(x * y + t) % p for y in range(p)] for t, x in G.generators()]
    c = rank1_from_2transitive(G, acts, 0, p - 1)
    c.label = f"affine-{p}"
    return c


def sl_rank1_column_system(n, p):
    """Rank-1 system of SL_n(F_p) on the lines through e_1 and e_n.

    B fixes the line through e_1 (first column zero below the top).  N, the
    setwise stabilizer of the two lines, fixes both (first and last columns
    zero off the diagonal) or swaps them (zero off the anti-diagonal
    corners).  Both are read off their shapes, not found by scanning G.
    """
    G = special_linear_group(n, p)
    units, free = range(1, p), range(p)

    def columns(lo, hi):
        return {(i, j): free for i in range(n) for j in range(lo, hi)}

    B = G.subgroup(_shaped_members(G, [{(0, 0): units, **columns(1, n)}]))
    fix = {(0, 0): units, (n - 1, n - 1): units, **columns(1, n - 1)}
    swap = {(n - 1, 0): units, (0, n - 1): units, **columns(1, n - 1)}
    N = G.subgroup(_shaped_members(G, [fix, swap]))
    return TitsSystemCandidate(G, B, N, label=f"sl-rank1-{n}-{p}")


def psl3_f2_nonstandard_system():
    """A rank-1 system in PSL_3(F_2) on 8 points whose B has order 21.

    PSL_3(F_2) is SL_3(F_2), enumerated.  B is the normalizer K of a Sylow
    7-subgroup P7 = <seed7> (its order 21 is checked): the g with
    g·seed7·g^-1 in P7, read down G's BFS tree through the conjugation
    tables of G's generators, with no product.  G acts on the 8 cosets of
    K by its left tables, gK -> coset of g·r for each coset's least member
    r, again with no product, and the rank-1 system on that action checks
    2-transitivity.
    """
    G = special_linear_group(3, 2)  # its one scalar is I: λ³ = 1 forces λ = 1 in F_2^×
    for seed7 in G.elements:
        P7 = normal_closure(G, [seed7], ())
        if P7.order == 7:
            break
    else:
        raise SubgroupNotFound("no element of order 7")
    conj = G.tree_images(G.index[seed7], [G.conjugation(g) for g in G.generators()])
    members = [g for g, i in zip(G.elements, conj) if G.elements[i] in P7]
    # Its members are its generators, so no generating set is grown by
    # products: the cosets are the orbits of their right tables.
    K = FiniteGroup(G.ops, members, gens=members, check=False)
    if K.order != 21:
        raise SubgroupNotFound(f"the normalizer of <seed7> has order {K.order}, not 21")
    coset_of, reps = left_cosets(G, K)
    if len(reps) != 8:
        raise SubgroupNotFound("coset action is not on 8 points")
    acts = [[coset_of[L[r]] for r in reps] for L in map(G.left_table, G.generators())]
    x = coset_of[G.index[G.identity]]
    c = rank1_from_2transitive(G, acts, x, 0 if x else 1)  # x' the first other coset
    c.label = "psl3f2-nonstandard"
    return c


def cell_size_formula_check(n, p):
    """Every Bruhat cell of the standard SL_n system has size p^l(w)·|B|,
    the sizes sum to |G|, and the length census matches the Poincaré
    polynomial of the Weyl group of the type-A root system of rank n-1."""
    from .rootsys import build_root_system
    from .weyl import poincare_polynomial

    c = standard_sl_system(n, p)
    d = _derived(c)
    if d.unreached:
        return False
    total = 0
    for w in d.reps:
        size = d.cell_size[w]
        if size != p ** d.lengths[w] * c.B.order:
            return False
        total += size
    # The sum counts only the chambers in cells a Weyl representative
    # names, so a chamber outside every such cell makes it fall short.
    if total != c.G.order:
        return False
    if n >= 2:
        poly = poincare_polynomial(build_root_system(("A", n - 1)))
        if Counter(d.lengths[w] for w in d.reps) != dict(enumerate(poly)):
            return False
    return True

"""Tits-system (BN-pair) verification in explicit finite groups.

A candidate is a triple (G, B, N) of a finite group and two subgroups.
Derived data: H = B ∩ N, the Weyl group W = N/H as canonical coset
representatives, the distinguished generators S (the nontrivial classes
w for which B ∪ BwB is a subgroup), lengths and canonical words over S,
and the B,B-double-coset partition of G.  The axiom checker verifies,
exhaustively

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
B = H·U exactly when |H|·|U| = |B|·|H ∩ U|.  Only the oracle
``weakly_split_bruteforce`` forms the products.

Candidates are immutable once built, and their derived data is cached
on them.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property

from .errors import (
    GroupTooLarge,
    HNotNormal,
    NoConjugatorFound,
    NotTwoTransitive,
    SubgroupNotFound,
    WeylNotGenerated,
)
from . import fingrp
from .fingrp import (
    FiniteGroup,
    _shaped_members,
    central_quotient,
    conjugate,
    coset_action,
    fitting_subgroup,
    is_2transitive,
    is_normal,
    left_coset_reps,
    monomial_subgroup,
    normal_closure,
    normal_subgroups,
    orbits,
    setwise_stabilizer,
    special_linear_group,
    stabilizer,
    upper_triangular_subgroup,
)
from .weyl import invert

DEFAULT_MAX_GROUP = 21000


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


def derive_weyl(c):
    """H = B ∩ N and one canonical representative per coset of H in N.

    H must be normal in N (raises HNotNormal otherwise); representatives
    are the least element of each coset, sorted.
    """
    d = _derived(c)
    return d.H, d.reps


class _Derived:
    """Everything the checks share: Weyl quotient, S, lengths, cells, and
    the conjugates of B by the Weyl representatives.

    Group elements are handled by their index in G (see fingrp):
    left and right multiplication by the generators of B and by S are
    index tables, cells and cosets are orbits of them.
    """

    def __init__(self, c):
        G, B = c.G, c.B
        self.G, self.B = G, B
        self.mul, self.els, self.index = G.ops.mul, G.elements, G.index
        # H = B ∩ N; rep_of: the index of n in N -> that of min(nH).
        self.H = G.subgroup(B.elemset & c.N.elemset)
        if not is_normal(self.H, c.N):
            raise HNotNormal("B ∩ N is not normal in N")
        self.rep_of = left_coset_reps(G, self.H, G.indices(c.N))
        rep_idx = sorted(set(self.rep_of.values()))
        self.reps = tuple(self.els[r] for r in rep_idx)
        self.identity_rep = self.wrep(G.ops.identity)
        bgens = B.generators()
        self.b_left = [G.left_table(b) for b in bgens]
        self.b_right = [G.right_table(b) for b in bgens]
        self._build_cells(rep_idx)
        self._find_s(B)
        self.s_left = [G.left_table(s) for s in self.s_reps]
        self._word_bfs()

    def wrep(self, n):
        """The Weyl representative of an element of N."""
        return self.els[self.rep_of[self.index[n]]]

    def wmul(self, r1, r2):
        return self.wrep(self.mul(r1, r2))

    def right_coset(self, w):
        """The right coset Bw, as indices in G."""
        return orbits(self.b_left, len(self.els), [self.index[w]])[0]

    def sbw_cells(self, k, w):
        """The cells met by s·B·w for the k-th s in S (None: no cell)."""
        s_left, cell_of = self.s_left[k], self.cell_of
        return {cell_of[s_left[i]] for i in self.right_coset(w)}

    def _build_cells(self, rep_idx):
        """Double cosets B w B, orbits of B on both sides, seeded at the
        Weyl representatives in order: each cell is named by the first
        representative it contains, and ``cell_size`` has one entry per
        cell."""
        cell_of = [None] * len(self.els)
        cell_size = {}
        for orb in orbits(self.b_left + self.b_right, len(self.els), rep_idx):
            w = self.els[orb[0]]
            cell_size[w] = len(orb)
            for i in orb:
                cell_of[i] = w
        self.cell_of = cell_of
        self.cell_size = cell_size

    def _find_s(self, B):
        """S = nontrivial classes w with B ∪ BwB closed under products.

        B ∪ BwB is closed iff every product w·b·w stays in B ∪ BwB,
        because (BwB)(BwB) is the union of the B(wbw)B over b in B.
        """
        mul, els, index, cell_of = self.mul, self.els, self.index, self.cell_of
        e = self.identity_rep
        self.s_reps = tuple(
            w
            for w in self.reps
            if w != e
            and all(cell_of[index[mul(w, els[i])]] in (e, w) for i in self.right_coset(w))
        )

    @cached_property
    def b_conjugates(self):
        """w·B·w^-1 as a set of indices in G, for each Weyl representative w."""
        return {w: set(conjugate(self.G, w, self.G.indices(self.B))) for w in self.reps}

    @cached_property
    def b_conjugates_meet(self):
        """The intersection of B with every wBw^-1, w a Weyl representative,
        as indices in G.

        This is also the intersection of all N-conjugates of B: each n in N
        is w·h with h in H ⊆ B, and then nBn^-1 = wBw^-1.
        """
        return set(self.G.indices(self.B)).intersection(*self.b_conjugates.values())

    def _word_bfs(self):
        """Lengths and lexicographically least words over S for each class.

        W acts on itself by left multiplication with each s.  Breadth-first
        from the identity, a class v has length one more than the shortest
        s_k^-1·v already reached, and its least shortest word starts with
        the least such k.
        """
        at = {w: i for i, w in enumerate(self.reps)}
        perms = [[at[self.wmul(s, w)] for w in self.reps] for s in self.s_reps]
        back = [invert(p) for p in perms]
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


def _derived(c):
    """The candidate's shared data.  Every check reads it through here, so
    a trace of this function shows the cost of building it."""
    return c.derived


def find_S(c):
    """The distinguished generators, as canonical coset representatives."""
    return _derived(c).s_reps


def check_axioms(c, max_group=DEFAULT_MAX_GROUP):
    """Exhaustive T1-T4 verification plus Bruhat and normalizer checks.

    g normalizes B exactly when gB = Bg, that is when |BgB| = |B|; so
    B = N_G(B) exactly when B's cell is the only (B, B) double coset of
    size |B|.  When the cells of the Weyl representatives cover G, each
    lies in <B, N>, so T1 holds and they are every double coset.
    Otherwise the partition is finished, and T1 is the orbit of the
    identity under right multiplication by the generators of B and N.
    """
    if c.G.order > max_group:
        raise GroupTooLarge(
            f"|G| = {c.G.order} exceeds the exhaustive-check cap {max_group}"
        )
    mul = c.G.ops.mul
    try:
        d = _derived(c)
    except HNotNormal:
        return TitsReport(
            t1_generates=False, t2_holds=False, t3_holds=False, t4_holds=False,
            h_normal_in_n=False, bruhat_bijective=False, normalizer_is_b=False,
            weyl_order=0, s_set=(), cells={},
        )
    e = d.identity_rep
    size = len(d.els)
    sizes = list(d.cell_size.values())
    t1 = covered = sum(sizes) == size
    if not covered:
        n_right = [c.G.right_table(x) for x in c.N.generators()]
        t1 = len(orbits(d.b_right + n_right, size, [d.index[c.G.ops.identity]])[0]) == size
        rest = [i for i, w in enumerate(d.cell_of) if w is None]
        sizes += map(len, orbits(d.b_left + d.b_right, size, rest))

    s_generates = not d.unreached
    t2 = s_generates and all(d.wmul(s, s) == e for s in d.s_reps)

    bruhat = covered and len(d.cell_size) == len(d.reps)

    t3 = all(
        d.sbw_cells(k, w) <= {w, d.wmul(s, w)}
        for k, s in enumerate(d.s_reps)
        for w in d.reps
    )

    t4 = all(
        any(mul(mul(s, b), s) not in c.B.elemset for b in c.B.elements)
        for s in d.s_reps
    )

    return TitsReport(
        t1_generates=t1,
        t2_holds=t2,
        t3_holds=t3,
        t4_holds=t4,
        h_normal_in_n=True,
        bruhat_bijective=bruhat,
        normalizer_is_b=sizes.count(c.B.order) == 1,
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


def weyl_length_census(c):
    """Multiset of S-word lengths over the Weyl classes, as a sorted tuple
    (WeylNotGenerated when S does not generate W)."""
    d = _derived(c)
    d.require_words()
    return tuple(sorted(d.lengths[w] for w in d.reps))


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
    for k, s in enumerate(d.s_reps):
        for w in d.reps:
            sw = d.wmul(s, w)
            got = d.sbw_cells(k, w)
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
    w0 = longest[0]
    h = set(c.G.indices(d.H))
    return d.b_conjugates_meet == h == set(c.G.indices(c.B)) & d.b_conjugates[w0]


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
    saturated = d.b_conjugates_meet == set(c.G.indices(d.H))
    fit = fitting_subgroup(c.B)
    meet = _meet_if_hu_is_b(d.H, fit, c.B)
    witness = fit if saturated and meet == 1 else None
    if saturated and meet > 1:
        lattice = sorted(normal_subgroups(c.B), key=lambda u: -u.order)
        below = [U for U in lattice if U.elemset <= fit.elemset]
        witness = next((U for U in below if _meet_if_hu_is_b(d.H, U, c.B) == 1), None)
    weakly, split = meet > 0, witness is not None
    return ClassificationFlags(saturated, weakly, split, witness)


def weakly_split_bruteforce(c):
    """Oracle: search every normal subgroup of B for a nilpotent one U
    with B = HU.  Intended for |B| small."""
    d = _derived(c)
    mul = c.G.ops.mul
    for U in normal_subgroups(c.B):
        if not fingrp.is_nilpotent(U):
            continue
        prod = {mul(h, u) for h in d.H.elements for u in U.elements}
        if prod == c.B.elemset:
            return True
    return False


# ---------------------------------------------------------------------------
# Constructors for the example systems


def standard_sl_system(n, p):
    """(SL_n(F_p), upper-triangular B, monomial N).  Cached per (n, p)."""
    got = _standard_cache.get((n, p))
    if got is not None:
        return got
    G = special_linear_group(n, p)
    B = upper_triangular_subgroup(G)
    N = monomial_subgroup(G)
    c = TitsSystemCandidate(G, B, N, label=f"sl-{n}-{p}")
    _standard_cache[(n, p)] = c
    return c


_standard_cache = {}


def rank1_from_2transitive(action, x, xp):
    """Rank-1 system from a 2-transitive action: B = Stab(x),
    N = setwise stabilizer of {x, x'}."""
    if x == xp:
        raise ValueError("the two base points must differ")
    if not is_2transitive(action):
        raise NotTwoTransitive("the action is not 2-transitive")
    B = stabilizer(action, x)
    N = setwise_stabilizer(action, (x, xp))
    return TitsSystemCandidate(action.group, B, N, label="rank1-2transitive")


def projective_rank1_system(n, p):
    """Rank-1 system of SL_{n}(F_p) acting on P^{n-1}(F_p)."""
    action = fingrp.projective_space_action(n - 1, p)
    x, xp = action.points[0], action.points[1]
    c = rank1_from_2transitive(action, x, xp)
    c.label = f"projective-{n}-{p}"
    return c


def affine_rank1_system(p):
    """Rank-1 system of the affine group of F_p acting on the line."""
    action = fingrp.affine_line_action(p)
    c = rank1_from_2transitive(action, 0, p - 1)
    c.label = f"affine-{p}"
    return c


def sl_rank1_column_system(n, p):
    """Rank-1 system of SL_n(F_p) from the two column stabilizers.

    B fixes the line through the first basis vector (first column zero
    below the top), B' the line through the last; N = H ∪ gH for g the
    least element swapping the two lines, which conjugates B onto B'.
    All three are read off their shapes, not found by scanning G.
    """
    G = special_linear_group(n, p)
    units, free = range(1, p), range(p)

    def columns(lo, hi):
        return {(i, j): free for i in range(n) for j in range(lo, hi)}

    B = G.subgroup(_shaped_members(G, [{(0, 0): units, **columns(1, n)}]))
    Bp = G.subgroup(_shaped_members(G, [{(n - 1, n - 1): units, **columns(0, n - 1)}]))
    H = G.subgroup(B.elemset & Bp.elemset)
    swaps = _shaped_members(G, [{(n - 1, 0): units, (0, n - 1): units, **columns(1, n - 1)}])
    g = min(swaps, default=None)
    if g is None:
        raise NoConjugatorFound("no element swaps the two coordinate lines")
    if set(conjugate(G, g, G.indices(B))) != set(G.indices(Bp)):
        raise NoConjugatorFound("swap candidate does not conjugate B onto B'")
    N = G.subgroup(sorted(H.elemset | {G.ops.mul(g, h) for h in H.elements}))
    return TitsSystemCandidate(G, B, N, label=f"sl-rank1-{n}-{p}")


def psl3_f2_nonstandard_system():
    """A rank-1 system in PSL_3(F_2) on 8 points whose B has order 21.

    B is the normalizer of a Sylow 7-subgroup (its order 21 is checked).
    Takes the coset action on its 8 cosets, checks 2-transitivity, and
    builds the rank-1 system.
    """
    G = central_quotient(special_linear_group(3, 2))
    for seed7 in G.elements:
        P7 = normal_closure(G, [seed7], ())
        if P7.order == 7:
            break
    else:
        raise SubgroupNotFound("no element of order 7")
    p7 = set(G.indices(P7))
    x7 = [G.index[seed7]]
    K = G.subgroup([g for g in G.elements if conjugate(G, g, x7)[0] in p7])
    if K.order != 21:
        raise SubgroupNotFound(f"the normalizer of <seed7> has order {K.order}, not 21")
    action = coset_action(G, K)
    if len(action.points) != 8:
        raise SubgroupNotFound("coset action is not on 8 points")
    x = min(K.elements)
    xp = next(pt for pt in action.points if pt != x)
    c = rank1_from_2transitive(action, x, xp)
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
    if total != c.G.order or total != fingrp.sl_order(n, p):
        return False
    if n >= 2:
        poly = poincare_polynomial(build_root_system(("A", n - 1)))
        if Counter(d.lengths[w] for w in d.reps) != dict(enumerate(poly)):
            return False
        if c.B.order * sum(m * p**l for l, m in enumerate(poly)) != c.G.order:
            return False
    return True

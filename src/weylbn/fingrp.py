"""Explicit finite groups: matrix groups over prime fields and abstract
subgroup machinery.

Elements are canonical hashable encodings.  An n x n matrix over F_p is
packed as an integer: a row is an int in [0, q), q = p^n, with column 0
its most significant base-p digit, and the matrix is the base-q number
of its rows, row 0 most significant.  That is the base-p number of its
entries read row by row, so integer order is the order of the tuples of
row tuples.  A row sum and a scalar multiple of a row are lookups in two
tables built once per (n, p) from digit sums (``packing``); products go
through them, row reductions too, and only formats and the projective
system's tables decode.  An affine-group element is a pair (t, x).  A
FiniteGroup bundles an element list with its multiplication oracle, the
only oracle an element kind supplies; subgroups are FiniteGroups sharing
the same oracle, so set operations on elements are meaningful across
them.  Groups are immutable after construction and safe to share.

Integer index.  Every group, subgroups included, numbers its own sorted
elements 0..n-1, so the least element has the least index.
Multiplication by a fixed element is then a permutation of range(n),
stored as a list: the left table L_x (i -> index of x*x_i) and the right
table R_x (i -> index of x_i*x).  A group keeps the left tables of its
generators, as the enumeration or the greedy ``generators()`` formed
them, and the breadth-first tree that reached each element
x_i = g_j * x_p from the identity; any right table follows that tree in
one pass, since x_i * x = g_j * (x_p * x).  Cosets, double cosets and
generated subgroups are then orbits of a few such tables, found by
``orbits``.  A group action is given the same way, as the tables of the
generators on the points range(m), and ``tree_images`` and ``tree_perms``
read where every element sends a point down the tree.

Inverses are read off right tables, never computed: R_x permutes the
index and R_{x^-1} is the inverse permutation (Seress, *Permutation
Group Algorithms*, 2003).  So conjugation by a generator g is R_g
inverted after L_g, and a commutator [h, l] is four right-table steps
from the identity; no group keeps a table of inverses.  A question
about a subgroup runs on that subgroup's own tables, of |H| entries,
and conjugates only by its generators: normality, conjugacy classes and
``normal_closure`` (the orbit of the identity under right multiplication
by seeds and conjugation), which builds commutator subgroups, the
Fitting subgroup and the normal-subgroup lattice.

SL_n(F_p) is described once, by ``SpecialLinear``: its order, its
generators (the transvections I + E_{i,i+-1}, acting as row operations
on the packed integer, row_i += row_j mod p, one lookup), membership by
determinant and its complete flags.  ``special_linear_group`` enumerates
it by that breadth-first search.  The shaped subgroups (upper-triangular,
monomial) are built from their packed candidate matrices, kept when they
are members, not by scanning G.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import cached_property, lru_cache, partial
from itertools import permutations, product
from operator import mul as _times

from .errors import GroupTooLarge

SL_ENUM_CAP = 10**5
NILPOTENCY_CAP = 10**4
NORMAL_SUBGROUP_CAP = 4096


class GroupOps(namedtuple("GroupOps", "mul identity fmt label meta", defaults=((),))):
    """The multiplication oracle plus metadata for one element kind."""

    __slots__ = ()


class FiniteGroup:
    """An explicit finite group over shared GroupOps, indexed by its own
    sorted elements.

    ``bfs`` is an enumeration's ``_closure`` result over ``gens``, kept so
    the group need not multiply again for its tables.
    """

    def __init__(self, ops, elements, gens=None, check=True, bfs=None):
        self.ops = ops
        self.elements = tuple(sorted(elements))
        self.elemset = frozenset(self.elements)
        self._gens = tuple(dict.fromkeys(gens)) if gens is not None else None
        self._bfs = bfs
        self._conj = {}
        if check:
            self._spot_check()

    @property
    def order(self):
        return len(self.elements)

    @property
    def identity(self):
        return self.ops.identity

    def __contains__(self, x):
        return x in self.elemset

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGroup)
            and self.ops is other.ops
            and self.elemset == other.elemset
        )

    def __hash__(self):
        return hash((id(self.ops), self.elemset))

    def __repr__(self):
        return f"FiniteGroup({self.ops.label}, order={self.order})"

    @cached_property
    def index(self):
        """The index of every element."""
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def _core(self):
        """(left tables of the generators, BFS steps (i, j, p)), each step
        meaning x_i = gens[j] * x_p.

        Raises ValueError unless the generators' closure is the element
        set, which is how an element list that is not a group shows.
        """
        n = len(self.elements)
        gens = self.generators()
        bfs, self._bfs = self._bfs, None
        order, tables, via = bfs or self._close(gens)
        index = self.index
        pos = [index.get(x) for x in order]
        if len(pos) != n or None in pos:
            raise _not_closed(self.ops)
        left = []
        for tab in tables:
            perm = [0] * n
            for t, c in enumerate(tab):
                perm[pos[t]] = pos[c]
            left.append(perm)
        steps = [(pos[t], j, pos[s]) for t, (j, s) in enumerate(via, start=1)]
        return left, steps

    def right_table(self, x):
        """R_x: i -> index of x_i * x."""
        return self.tree_images(self.index[x], self._core[0])

    def tree_images(self, point, acts):
        """i -> x_i·point for a left action of the generators as tables
        (``acts[j][y]`` = g_j·y), down the BFS tree: x_i·point = g_j·(x_p·point)."""
        table = [0] * len(self.elements)
        table[self.index[self.ops.identity]] = point
        for i, j, p in self._core[1]:
            table[i] = acts[j][table[p]]
        return table

    def tree_perms(self, acts, size):
        """i -> x_i as a list over range(size), for a left action of the
        generators as tables, down the BFS tree: x_i = g_j∘x_p."""
        perms = [None] * len(self.elements)
        perms[self.index[self.ops.identity]] = list(range(size))
        for i, j, p in self._core[1]:
            perms[i] = list(map(acts[j].__getitem__, perms[p]))
        return perms

    def left_table(self, g):
        """L_g: i -> index of g * x_i, for one of the generators g."""
        return self._core[0][self.generators().index(g)]

    def conjugation(self, g):
        """i -> index of g x_i g^-1 for one of the generators g, built once:
        R_g inverted after L_g, as x_i g^-1 = x_j exactly when x_j g = x_i."""
        table = self._conj.get(g)
        if table is None:
            back = _inverse_perm(self.right_table(g))
            table = self._conj[g] = [back[i] for i in self.left_table(g)]
        return table

    def _spot_check(self):
        """Membership of the identity, the generators' closure (the BFS
        tree), then sampled products and associativity against
        ``ops.mul``."""
        mul, e = self.ops.mul, self.ops.identity
        if e not in self.elemset:
            raise ValueError(f"{self.ops.label}: identity not a member")
        self._core  # builds the BFS tree: ValueError unless a group
        rng = random.Random(20160)
        n = len(self.elements)
        for _ in range(min(200, n * n)):
            a = self.elements[rng.randrange(n)]
            b = self.elements[rng.randrange(n)]
            ab = mul(a, b)
            if ab not in self.elemset:
                raise ValueError(f"{self.ops.label}: not closed under multiplication")
            c = self.elements[rng.randrange(n)]
            if mul(ab, c) != mul(a, mul(b, c)):
                raise ValueError(f"{self.ops.label}: multiplication not associative")
        if mul(e, self.elements[0]) != self.elements[0]:
            raise ValueError(f"{self.ops.label}: identity law fails")

    def _close(self, gens, grow=None):
        """``_closure`` of ``gens`` (growing ``grow``), refused (ValueError)
        as soon as it outgrows the element list."""
        acts = [partial(self.ops.mul, g) for g in gens]
        try:
            return _closure(self.ops.identity, acts, cap=len(self.elements), grow=grow)
        except GroupTooLarge:
            raise _not_closed(self.ops) from None

    def generators(self):
        """A small generating set (cached): in sorted order, each element
        the closure of the earlier ones has not reached yet.  One closure
        grows as they are added, and is kept as the BFS tree."""
        if self._gens is None:
            gens, reached = [], {self.ops.identity}
            for x in self.elements:
                if x not in reached:
                    gens.append(x)
                    self._bfs = self._close(gens, self._bfs)
                    reached.update(self._bfs[0])
            self._gens = tuple(gens)
        return self._gens

    def subgroup(self, elements):
        return FiniteGroup(self.ops, elements, check=False)

    def is_subgroup_of(self, other):
        return self.ops is other.ops and all(g in other for g in self.generators())


def orbits(perms, size, seeds=None):
    """Orbits on range(size) of the group generated by index permutations.

    One list per orbit, in breadth-first order from its first point.
    Orbits are started at ``seeds`` in the order given (default: every
    point, ascending), skipping seeds an earlier orbit reached.  Serves
    cosets (right tables of a subgroup's generators), double cosets and
    generated subgroups (the orbit of the identity).
    """
    seen = bytearray(size)
    out = []
    for s in range(size) if seeds is None else seeds:
        if seen[s]:
            continue
        seen[s] = 1
        orb = [s]
        for x in orb:
            for perm in perms:
                y = perm[x]
                if not seen[y]:
                    seen[y] = 1
                    orb.append(y)
        out.append(orb)
    return out


def _inverse_perm(perm):
    """The inverse of an index permutation (R_{x^-1} from R_x): the points
    in the order of their images."""
    return sorted(range(len(perm)), key=perm.__getitem__)


def left_cosets(G, K):
    """The left cosets xK of the subgroup K, numbered in the order of their
    least members: (coset_of, reps), with ``coset_of[i]`` the number of the
    coset of G's element i and ``reps[k]`` G's index of the least member of
    coset k.  They are the orbits of the right tables of K's generators,
    and an orbit seeded in ascending order starts at its least point.
    """
    coset_of, reps = [0] * G.order, []
    for k, orb in enumerate(orbits([G.right_table(x) for x in K.generators()], G.order)):
        reps.append(orb[0])
        for i in orb:
            coset_of[i] = k
    return coset_of, reps


def _not_closed(ops):
    return ValueError(f"{ops.label}: the generators' closure is not the element set")


def _closure(identity, acts, cap=None, grow=None):
    """Breadth-first closure of one point (a group's identity) under actions.

    ``acts[j]`` maps x to g_j * x for the j-th generator g_j.  Returns
    (order, tables, via) in discovery numbering: ``order`` lists the
    elements, ``tables[j][t]`` is the number of g_j * order[t], and
    ``via[t - 1] = (j, s)`` says order[t] was first reached as
    g_j * order[s].  ``grow``, such a result for the first acts only, is
    extended in place: the new acts visit its elements, then the search
    goes on with every act.
    """
    order, tables, via = grow or ([identity], [], [])
    num = dict(zip(order, range(len(order))))
    done, old = (len(order), len(tables)) if grow else (0, 0)
    tables += [[] for _ in acts[old:]]
    every = list(enumerate(zip(acts, tables)))
    fresh = every[old:]
    for s, x in enumerate(order):
        for j, (act, tab) in every if s >= done else fresh:
            c = act(x)
            t = num.get(c)
            if t is None:
                if cap is not None and len(order) >= cap:
                    raise GroupTooLarge(f"closure exceeds cap {cap}")
                t = num[c] = len(order)
                order.append(c)
                via.append((j, s))
            tab.append(t)
    return order, tables, via


def is_normal(H, G):
    """H ⊆ G, and g H g^-1 ⊆ H for each of G's generators g.  H is finite,
    so that inclusion is equality, and then it holds for every product of
    them."""
    if not H.is_subgroup_of(G):
        return False
    hgens = [G.index[h] for h in H.generators()]
    return all(G.elements[G.conjugation(g)[i]] in H for g in G.generators() for i in hgens)


def conjugacy_classes(G):
    """Conjugacy classes, each a frozenset, in a deterministic order: the
    orbits of the conjugation tables of G's generators."""
    perms = [G.conjugation(g) for g in G.generators()]
    return [frozenset(G.elements[i] for i in orb) for orb in orbits(perms, G.order)]


def normal_closure(G, seeds, conj_gens):
    """The least subgroup of G that contains ``seeds`` and is normalized by
    ``conj_gens``: on G's index, the orbit of the identity under right
    multiplication by each seed and conjugation by each of ``conj_gens``,
    which are among G's generators (G keeps each conjugation table it
    builds).

    The orbit K is that subgroup.  K is finite and closed under
    conjugation by g, so conjugation by g permutes K, and K is closed under
    conjugation by g^-1 too, hence by the group C the ``conj_gens``
    generate.  Then for c in C, a seed s and x in K,
    x (c s c^-1) = c ((c^-1 x c) s) c^-1 lies in K: K is closed under right
    multiplication by every conjugate of a seed, so it holds the subgroup
    they generate, which is the least one wanted and contains K.
    """
    perms = [G.right_table(s) for s in dict.fromkeys(seeds)]
    perms += [G.conjugation(g) for g in dict.fromkeys(conj_gens)]
    orb = orbits(perms, G.order, [G.index[G.identity]])[0]
    return G.subgroup([G.elements[i] for i in orb])


def normal_subgroups(G):
    """All normal subgroups, as normal closures of class representatives.

    Grown lattice-style: starting from the trivial subgroup, take the
    normal closure of a known subgroup's representatives together with
    the least member of one more conjugacy class.  Every normal subgroup
    is a union of classes, so this reaches all of them.  Raises
    GroupTooLarge past ``NORMAL_SUBGROUP_CAP`` many subgroups.
    """
    classes = conjugacy_classes(G)
    gens = G.generators()
    trivial = frozenset({G.ops.identity})
    found = {trivial}
    worklist = [(trivial, ())]
    while worklist:
        base, reps = worklist.pop()
        for cls in classes:
            if cls <= base:
                continue
            more = reps + (min(cls),)
            grown = normal_closure(G, more, gens).elemset
            if grown not in found:
                if len(found) >= NORMAL_SUBGROUP_CAP:
                    raise GroupTooLarge(f"more than {NORMAL_SUBGROUP_CAP} normal subgroups")
                found.add(grown)
                worklist.append((grown, more))
    return [G.subgroup(els) for els in sorted(found, key=lambda s: (len(s), sorted(s)))]


def commutator_subgroup(H, L):
    """[H, L] for L ≤ H, on H's own tables: the normal closure in H of the
    commutators [h, l] = h l h^-1 l^-1 of H's and L's generators, each read
    in four right-table steps from the identity (R_h, R_l, then R_h and
    R_l inverted), with no product formed.  Conjugation by L's generators
    adds nothing, since ⟨H, L⟩ = H."""
    hs = [(r, _inverse_perm(r)) for r in map(H.right_table, H.generators())]
    ls = [(r, _inverse_perm(r)) for r in map(H.right_table, L.generators())]
    e = H.index[H.identity]
    seeds = [H.elements[lb[hb[lr[hr[e]]]]] for hr, hb in hs for lr, lb in ls]
    return normal_closure(H, seeds, H.generators())


def is_nilpotent(H):
    """Lower central series reaches the trivial subgroup."""
    if H.order > NILPOTENCY_CAP:
        raise GroupTooLarge(f"nilpotency check capped at {NILPOTENCY_CAP}")
    current = H
    while current.order > 1:
        nxt = commutator_subgroup(H, current)
        if nxt.order == current.order:
            return False
        current = nxt
    return True


def _is_prime_power(n):
    """n = p^k for a prime p and some k >= 0."""
    d = 2
    while d <= n and n % d:
        d += 1
    while n % d == 0:
        n //= d
    return n == 1


def fitting_subgroup(B):
    """Largest nilpotent normal subgroup: the join of the p-cores O_p(B).

    An element lies in O_p(B) exactly when its normal closure is a
    p-group, so Fit(B) is the normal closure of the least member of each
    conjugacy class whose own normal closure has prime-power order.
    """
    if B.order > NILPOTENCY_CAP:
        raise GroupTooLarge(f"Fitting computation capped at {NILPOTENCY_CAP}")
    gens = B.generators()
    reps = [min(cls) for cls in conjugacy_classes(B)]
    fit = normal_closure(
        B, [x for x in reps if _is_prime_power(normal_closure(B, [x], gens).order)], gens
    )
    if not is_nilpotent(fit) or not is_normal(fit, B):
        raise AssertionError("Fitting subgroup candidate fails its definition")
    return fit


# ---------------------------------------------------------------------------
# Matrix groups over prime fields


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class _Packing:
    """Tables for n x n matrices over F_p packed as integers (see the module
    docstring): ``add[r][s]`` is the row r + s and ``scale[c][r]`` the row
    c·r, digit by digit mod p, and ``weights[i]`` = q^(n-1-i) is the place
    of row i."""

    def __init__(self, n, p):
        q = p**n
        # ``ints`` gives the q*q entries of ``add`` one shared object per value.
        ints, add, scale = list(range(q)), [[0]], [[0]] * p
        for _ in range(n):  # one more, less significant, digit
            m, f = range(len(add)), range(p)
            add = [
                [ints[add[rh][sh] * p + (rl + sl) % p] for sh in m for sl in f]
                for rh in m
                for rl in f
            ]
            scale = [[s[rh] * p + c * rl % p for rh in m for rl in f] for c, s in enumerate(scale)]
        self.n, self.p, self.q, self.add, self.scale = n, p, q, add, scale
        self.weights = [q ** (n - 1 - i) for i in range(n)]
        self.digits = [tuple(r // p ** (n - 1 - j) % p for j in range(n)) for r in range(q)]
        self.nonzero = [[(j, c) for j, c in enumerate(d) if c] for d in self.digits]
        self.identity = self.encode([[int(i == j) for j in range(n)] for i in range(n)])
        # ``columns[i][r]``: a row i that is r, as column i of the transpose.
        spread = [sum(map(_times, d, self.weights)) for d in self.digits]
        self.columns = [[s * p ** (n - 1 - i) for s in spread] for i in range(n)]

    def rows(self, x):
        return [x // w % self.q for w in self.weights]

    def encode(self, m):
        """The packed integer of a matrix given as rows of entries mod p."""
        x = 0
        for row in m:
            for v in row:
                x = x * self.p + v
        return x

    def decode(self, x):
        return tuple(self.digits[r] for r in self.rows(x))

    def fmt(self, x):
        """Rows of mod-p digits, semicolon-separated: I_2 -> "10;01"."""
        return ";".join("".join(map(str, row)) for row in self.decode(x))

    def transpose(self, x):
        """The packed transpose, one lookup per row."""
        return sum(map(list.__getitem__, self.columns, self.rows(x)))


@lru_cache(maxsize=None)
def packing(n, p):
    """The tables of n x n matrices over F_p, built once per (n, p)."""
    return _Packing(n, p)


def mat_mul(a, b, k):
    """a*b of packed matrices: row i of the product is the sum over j of
    a_ij times row j of b, each term and sum one lookup in k's tables."""
    q, add, scale, nonzero = k.q, k.add, k.scale, k.nonzero
    rb = [b // w % q for w in k.weights]
    out = 0
    for w in k.weights:
        acc = 0
        for j, c in nonzero[a // w % q]:
            acc = add[acc][scale[c][rb[j]]]
        out = out * q + acc
    return out


def mat_det(a, k):
    """Determinant of a packed matrix mod p, by elimination below the
    pivots on its packed rows."""
    p, add, scale, digits = k.p, k.add, k.scale, k.digits
    rows, det = k.rows(a), 1
    for c in range(k.n):
        piv = next((i for i in range(c, k.n) if digits[rows[i]][c]), c)
        rows[c], rows[piv] = rows[piv], rows[c]
        d = digits[rows[c]][c]
        det = (det if piv == c else -det) * d % p  # 0 for good once d is 0
        f = pow(d, p - 2, p)
        for i in range(c + 1, k.n):
            rows[i] = add[rows[i]][scale[-digits[rows[i]][c] * f % p][rows[c]]]
    return det


@lru_cache(maxsize=None)
def matrix_ops(n, p):
    """The ops of n x n matrices over F_p, one object per (n, p), since
    groups compare their ops by identity."""
    k = packing(n, p)
    return GroupOps(
        mul=lambda a, b: mat_mul(a, b, k),
        identity=k.identity,
        fmt=k.fmt,
        label=f"GL{n}(F{p})-kind",
        meta=("matrix", n, p),
    )


def sl_order(n, p):
    order = p ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        order *= p**i - 1
    return order


def _add_row(k, i, j):
    """Left multiplication by the transvection I + E_ij on a packed
    matrix: row i plus row j, one lookup in ``k.add``."""
    q, add, wi, wj = k.q, k.add, k.weights[i], k.weights[j]

    def act(x):
        r = x // wi % q
        return x + (add[r][x // wj % q] - r) * wi

    return act


class SpecialLinear:
    """SL_n(F_p) known by its order, its generators ``gens`` and their
    row operations ``acts``, with no element listed; membership is
    det = 1.  ``special_linear_group`` enumerates it.

    ``flag(x)`` is the complete flag x·x0, x0 the standard one: x's first
    n-1 columns, each cleared at the earlier ones' pivot rows using them
    and scaled so that its first nonzero entry (its pivot) is 1, reduced
    as packed rows of the transpose and packed back with last column 0.
    So x and y have one flag exactly when x^-1·y is upper triangular.
    """

    def __init__(self, n, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.k, self.ops, self.order = packing(n, p), matrix_ops(n, p), sl_order(n, p)
        # The transvections I + E_{i,i+-1}, as row operations.  They generate
        # SL_n(F_p): the other I + E_ij are commutators of them, p prime.
        self.acts = [_add_row(self.k, i, j) for i in range(n) for j in range(n) if abs(i - j) == 1]
        self.gens = [act(self.k.identity) for act in self.acts]

    def __contains__(self, x):
        return mat_det(x, self.k) == 1

    def flag(self, x):
        k = self.k
        p, add, scale, digits, nonzero = k.p, k.add, k.scale, k.digits, k.nonzero
        done = []  # (pivot row, reduced column)
        for col in k.rows(k.transpose(x))[:-1]:
            for piv, b in done:
                f = digits[col][piv]
                if f:
                    col = add[col][scale[p - f][b]]
            piv, f = nonzero[col][0]
            done.append((piv, scale[pow(f, p - 2, p)][col]))
        return sum(t[c] for t, (_, c) in zip(k.columns, done))


@lru_cache(maxsize=None)
def special_linear_group(n, p):
    """SL_n(F_p), enumerated: the breadth-first closure of the identity
    under ``SpecialLinear(n, p)``'s row operations.  The group keeps that
    tree, from which right tables are read (see the module docstring).

    A non-prime p (ValueError), then an order over ``SL_ENUM_CAP``
    (GroupTooLarge), is refused before the packing tables are built.
    Cached per (n, p); instances are immutable and shared.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    expected = sl_order(n, p)
    if expected > SL_ENUM_CAP:
        raise GroupTooLarge(f"|SL_{n}(F_{p})| = {expected} exceeds cap {SL_ENUM_CAP}")
    G = SpecialLinear(n, p)
    bfs = _closure(G.ops.identity, G.acts, cap=SL_ENUM_CAP + 1)
    elements = bfs[0]
    if len(elements) != expected:
        raise AssertionError(f"enumerated {len(elements)} elements, order formula says {expected}")
    return FiniteGroup(G.ops, elements, gens=G.gens, bfs=bfs)


def _shaped_members(G, shapes):
    """The members of the matrix group G that have one of ``shapes``.

    A shape maps positions (i, j) to the values allowed there, every other
    entry being 0.  Its packed candidate matrices (entry (i, j) has the
    place p^(n*n - 1 - n*i - j)) are enumerated and kept when they are
    members of G, so the cost is the number of candidates, not |G|.
    """
    _, n, p = G.ops.meta
    members = []
    for shape in shapes:
        places = [p ** (n * n - 1 - n * i - j) for i, j in shape]
        for values in product(*shape.values()):
            m = sum(map(_times, places, values))
            if m in G:
                members.append(m)
    return members


def upper_triangular_subgroup(G):
    """Upper-triangular members of a matrix group, spot-checked: for the
    standard systems, the one check of the ``ops`` oracles."""
    _, n, p = G.ops.meta
    shape = {(i, i): range(1, p) for i in range(n)}
    shape.update({(i, j): range(p) for i in range(n) for j in range(i + 1, n)})
    return FiniteGroup(G.ops, _shaped_members(G, [shape]))


def monomial_subgroup(G):
    """Members with exactly one nonzero entry in each row and column."""
    _, n, p = G.ops.meta
    units = range(1, p)
    shapes = [{(i, s[i]): units for i in range(n)} for s in permutations(range(n))]
    return FiniteGroup(G.ops, _shaped_members(G, shapes), check=False)


def affine_group(p):
    """The semidirect product of F_p (translations) by F_p^* (scalings).

    Elements are pairs (t, x) acting on F_p by y -> x*y + t;
    (t1, x1)(t2, x2) = (t1 + x1*t2, x1*x2).
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    ops = GroupOps(
        mul=lambda a, b: ((a[0] + a[1] * b[0]) % p, a[1] * b[1] % p),
        identity=(0, 1),
        fmt=lambda a: f"({a[0]},{a[1]})",
        label=f"F{p} affine",
        meta=("affine", p),
    )
    elements = [(t, x) for t in range(p) for x in range(1, p)]
    return FiniteGroup(ops, elements, gens=[(1, 1)] + ([(0, _primitive_root(p))] if p > 2 else []))


def _primitive_root(p):
    """The least g whose powers are all of F_p^* (1 when p = 2)."""
    return next((g for g in range(2, p) if len({pow(g, k, p) for k in range(1, p)}) == p - 1), 1)

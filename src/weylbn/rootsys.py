"""Irreducible crystallographic root systems with exact integer arithmetic.

Every family is built the same way.  The Cartan matrix of the Bourbaki
simple roots generates the positive roots as integer coefficient vectors
in the simple-root basis (Bourbaki, *Lie Groups and Lie Algebras*,
ch. VI; Humphreys, *Reflection Groups and Coxeter Groups*, ch. 3); each
step carries the root's pairings with the simple coroots and its ambient
vector, from which the simple reflections and the sorted roots are read.
Ambient vectors use the coordinates of the Bourbaki plates; the E family
and F4, which have half-integer coordinates there, carry a ``scale`` of 2
so that every coordinate is an integer.  Nodes follow the Bourbaki plates
and are 1-based throughout the public API (see the README).  The Coxeter
matrix is read from the Cartan products a_ij·a_ji (:func:`coxeter_matrix`)
and the degrees of a parabolic subgroup from its roots' heights.

The non-reduced family BC has the Cartan matrix of B and adds twice each
shortest root, so it stores both a root and its double; every
Weyl-group computation on a BC system goes through its reduced core of
nondivisible roots, which by that construction is type B, see
:func:`nondivisible_core`.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from functools import lru_cache
from operator import add, mul, neg, sub

from .errors import InvalidSpec, NonCrystallographicInput, NotNonReduced

FAMILIES = ("A", "B", "C", "D", "E", "F", "G", "BC")

# Cartan-integer product -> order of the product of the two reflections.
PRODUCT_ORDER_TABLE = {0: 2, 1: 3, 2: 4, 3: 6}


class RootSystemSpec(namedtuple("RootSystemSpec", "family rank")):
    """A family label and a rank, validated for admissibility."""

    __slots__ = ()

    def __new__(cls, family, rank):
        fam, n = family, rank
        if fam not in FAMILIES:
            raise InvalidSpec(f"unknown family {fam!r}")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise InvalidSpec(f"rank must be a positive integer, got {n!r}")
        if fam == "E" and n not in (6, 7, 8):
            raise InvalidSpec(f"E requires rank in {{6,7,8}}, got {n}")
        if fam == "F" and n != 4:
            raise InvalidSpec(f"F requires rank 4, got {n}")
        if fam == "G" and n != 2:
            raise InvalidSpec(f"G requires rank 2, got {n}")
        if fam == "D" and n < 3:
            raise InvalidSpec(f"D requires rank >= 3, got {n}")
        return super().__new__(cls, fam, n)

    def label(self):
        return f"{self.family}{self.rank}"


def dot(u, v):
    return sum(map(mul, u, v))


def _e(i, dim):
    return tuple(1 if j == i else 0 for j in range(dim))


def _add(u, v):
    return tuple(map(add, u, v))


def _sub(u, v):
    return tuple(map(sub, u, v))


def _neg(v):
    return tuple(map(neg, v))


def _scale_vec(c, v):
    return tuple(map(c.__mul__, v))


def _simple_root_data(spec):
    """Ambient dimension, scale factor, and the Bourbaki simple roots."""
    fam, n = spec.family, spec.rank
    if fam == "G":
        return 3, 1, [(1, -1, 0), (-2, 1, 1)]
    if fam == "F":
        # Scaled by 2: a4 = (e1 - e2 - e3 - e4)/2.
        return 4, 2, [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
    if fam == "E":
        # Scaled by 2 in R^8: a1 = (e1 - ... - e7 + e8)/2, a2 = e1 + e2, a_k = e_{k-2} - e_{k-3}.
        simples = [(1, -1, -1, -1, -1, -1, -1, 1), (2, 2, 0, 0, 0, 0, 0, 0)]
        simples += [_scale_vec(2, _sub(_e(k - 2, 8), _e(k - 3, 8))) for k in range(3, 9)]
        return 8, 2, simples[:n]
    dim = n + 1 if fam == "A" else n
    simples = [_sub(_e(i, dim), _e(i + 1, dim)) for i in range(dim - 1)]
    if fam in ("B", "BC"):
        simples.append(_e(n - 1, n))
    elif fam == "C":
        simples.append(_scale_vec(2, _e(n - 1, n)))
    elif fam == "D":
        simples.append(_add(_e(n - 2, n), _e(n - 1, n)))
    return dim, 1, simples


def _pairing(v, a):
    """The integer 2(v, a)/(a, a); NonCrystallographicInput if it is not one."""
    num, den = 2 * dot(v, a), dot(a, a)
    if num % den:
        raise NonCrystallographicInput(f"2<{v},{a}>/<{a},{a}> = {num}/{den} is not an integer")
    return num // den


class RootSystem:
    """An immutable root datum: indexed roots plus Cartan/Dynkin data.

    Root indices are positions in the lexicographically sorted ``roots``
    tuple.  Node numbers (for simple roots) are 1-based Bourbaki labels.
    """

    __slots__ = (
        "spec",
        "ambient_dim",
        "scale",
        "roots",
        "root_index",
        "simple_indices",
        "positive_set",
        "coeffs",
        "neg_index",
        "cartan",
        "simple_refl_perms",
    )

    def __init__(self, spec, ambient_dim, scale, cartan, positive):
        """``positive`` lists (coefficients, pairings, ambient vector) of each positive root."""
        self.spec = spec
        self.ambient_dim = ambient_dim
        self.scale = scale
        coeff_of = {v: c for c, _, v in positive}
        coeff_of.update({_neg(v): _neg(c) for v, c in coeff_of.items()})
        self.roots = tuple(sorted(coeff_of))
        self.coeffs = tuple(map(coeff_of.__getitem__, self.roots))
        self.root_index = {v: i for i, v in enumerate(self.roots)}
        index = {c: i for i, c in enumerate(self.coeffs)}
        n = len(cartan)
        self.simple_indices = tuple(index[_e(i, n)] for i in range(n))
        rows = [(self.root_index[v], c, p) for c, p, v in positive]
        self.positive_set = frozenset(r for r, _, _ in rows)
        # Negation reverses the lexicographic order of the roots.
        self.neg_index = tuple(range(len(self.roots) - 1, -1, -1))
        self.cartan = cartan
        # s_i: c -> c - <c, a_i^v>·e_i on the positive roots, which fixes c when
        # the pairing is 0; then s_i(-b) = -s_i(b), and root r's negative is last - r.
        last = len(self.roots) - 1
        perms = []
        for i in range(n):
            perm = [0] * (last + 1)
            for r, c, p in rows:
                t = index[c[:i] + (c[i] - p[i],) + c[i + 1 :]] if p[i] else r
                perm[r], perm[last - r] = t, last - t
            perms.append(tuple(perm))
        self.simple_refl_perms = tuple(perms)
        self._check()

    @property
    def rank(self):
        return self.spec.rank

    @property
    def family(self):
        return self.spec.family

    def _check(self):
        n_roots = len(self.roots)
        if 2 * len(self.positive_set) != n_roots:
            raise InvalidSpec("positive roots are not half of all roots")
        for i in range(n_roots):
            if self.roots[self.neg_index[i]] != _neg(self.roots[i]):
                raise InvalidSpec("neg_index does not map a root to its negative")
            if (i in self.positive_set) == (self.neg_index[i] in self.positive_set):
                raise InvalidSpec("a root and its negative have the same sign")
        for k, row in enumerate(self.cartan):
            if row[k] != 2:
                raise InvalidSpec("Cartan diagonal entry is not 2")

    def node_degree(self, node):
        return len(self.neighbors(node))

    def neighbors(self, node):
        return tuple(j for j, a in enumerate(self.cartan[node - 1], start=1) if a and j != node)

    def to_json(self):
        """Canonical JSON document; byte-stable (roots sorted, keys sorted)."""
        doc = {
            "family": self.spec.family,
            "rank": self.spec.rank,
            "ambient_dim": self.ambient_dim,
            "scale": self.scale,
            "simple_nodes": [list(self.roots[i]) for i in self.simple_indices],
            "roots": [list(v) for v in self.roots],
            "cartan": [list(row) for row in self.cartan],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _cartan_matrix(simples):
    """Row i lists the weight-basis coordinates of simple root i.

    Entry [i][j] is 2(a_i, a_j)/(a_j, a_j), so the reflection in node i
    acts on fundamental-weight coordinates by v -> v - v[i] * row_i.
    """
    return tuple(tuple(_pairing(a, b) for b in simples) for a in simples)


def _positive_roots(cartan, simples):
    """The positive roots from the Cartan matrix, as (coefficients,
    pairings, ambient vector) triples.

    Starting from the simple roots, c -> c + k·e_i whenever the pairing
    k = -<c, a_i^v> is positive: that is s_i·c, a root of greater height,
    and every positive root is reached this way (Humphreys 1990, ch. 3).
    The step adds k·cartan[i] to the pairings and k·simples[i] to the
    ambient vector, so neither is computed again.
    """
    n = len(cartan)
    found = [(_e(i, n), cartan[i], simples[i]) for i in range(n)]
    seen = {c for c, _, _ in found}
    for c, pair, vec in found:  # found grows as the loop runs: a breadth-first walk
        for i, p in enumerate(pair):
            if p < 0:
                up = c[:i] + (c[i] - p,) + c[i + 1 :]
                if up not in seen:
                    seen.add(up)
                    step = _scale_vec(-p, cartan[i]), _scale_vec(-p, simples[i])
                    found.append((up, _add(pair, step[0]), _add(vec, step[1])))
    return found


@lru_cache(maxsize=None)
def _build_cached(spec):
    dim, scale, simples = _simple_root_data(spec)
    cartan = _cartan_matrix(simples)
    positive = _positive_roots(cartan, simples)
    if spec.family == "BC":
        # BC has the Cartan matrix of B; it adds twice each shortest root.
        least = min(dot(v, v) for _, _, v in positive)
        positive += [[_scale_vec(2, x) for x in r] for r in positive if dot(r[2], r[2]) == least]
    return RootSystem(spec, dim, scale, cartan, positive)


def build_root_system(spec):
    """Construct the root system for an admissible spec.

    Results are cached and immutable; callers share instances freely.
    The spec is validated before the cache: keyed on the raw tuple,
    ("A", True) would find A1, since True == 1.
    """
    return _build_cached(RootSystemSpec(*spec))


@lru_cache(maxsize=None)
def coxeter_matrix(rs):
    """Orders m(i, j) of products of pairs of simple reflections.

    m(i, j) depends only on the Cartan product a_ij·a_ji, read through
    ``PRODUCT_ORDER_TABLE`` (Bourbaki, ch. VI; Humphreys 1990).
    """
    c = rs.cartan
    return tuple(
        tuple(1 if i == j else PRODUCT_ORDER_TABLE[c[i][j] * c[j][i]] for j in range(rs.rank))
        for i in range(rs.rank)
    )


@lru_cache(maxsize=None)
def _height_masks(rs):
    """(height, support) of each positive root, the support a bit mask of 0-based nodes."""
    coeffs = map(rs.coeffs.__getitem__, rs.positive_set)
    return tuple((sum(c), sum(1 << i for i, x in enumerate(c) if x)) for c in coeffs)


@lru_cache(maxsize=None)
def degrees(rs, nodes):
    """The degrees of the parabolic subgroup of W(rs) at ``nodes`` (a tuple
    of 1-based nodes), largest first; their product is its order.

    The exponents d - 1 are the partition dual to the numbers of positive
    roots at each height (Kostant, Amer. J. Math. 81, 1959), here of the
    roots supported on ``nodes``; as the dual of a sum of partitions is
    the union of their duals, the subgroup may be reducible.
    """
    rs = reduced_form(rs)
    outside = sum(1 << i for i in range(rs.rank) if i + 1 not in nodes)
    per_height = Counter(h for h, m in _height_masks(rs) if not m & outside)
    return tuple(1 + sum(k >= j for k in per_height.values()) for j in range(1, per_height[1] + 1))


def nondivisible_core(rs):
    """The reduced sub-root-system of roots whose half is not a root.

    Only defined for the non-reduced BC family, built as B plus twice each
    shortest root, so the core is the type-B system on the same simple
    roots.
    """
    if rs.family != "BC":
        raise NotNonReduced(f"{rs.spec.label()} is already reduced")
    return build_root_system(("B", rs.rank))


def reduced_form(rs):
    """``rs`` itself if reduced, else its nondivisible core."""
    return nondivisible_core(rs) if rs.family == "BC" else rs


def is_end_node(rs, node):
    """True when the node has Dynkin-diagram degree exactly 1."""
    return rs.node_degree(node) == 1


def branch_node(rs):
    """The unique degree-3 node, or None when the diagram is a path."""
    found = [n for n in range(1, rs.rank + 1) if rs.node_degree(n) == 3]
    if len(found) > 1:
        raise InvalidSpec("more than one branch node in an irreducible diagram")
    return found[0] if found else None


def dynkin_path(rs, start, end):
    """The unique simple path between two nodes of the Dynkin tree."""
    if start == end:
        return (start,)
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in rs.neighbors(u):
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    path = [end]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return tuple(reversed(path))

"""Irreducible crystallographic root systems with exact integer arithmetic.

Every family is built the same way.  The Cartan matrix of the Bourbaki
simple roots generates the positive roots as integer coefficient vectors
in the simple-root basis (Bourbaki, *Lie Groups and Lie Algebras*,
ch. VI; Humphreys, *Reflection Groups and Coxeter Groups*, ch. 3), and
each root's ambient vector is the sum of the simple roots weighted by
its coefficients.  Ambient vectors use the standard coordinates of the
Bourbaki plates.  Families whose Bourbaki realization has half-integer
coordinates (the E family and F4) carry a global ``scale`` factor of 2 so
that every stored coordinate is an exact integer; all pairings are ratios
of dot products, so the scale cancels.  Simple roots and node numbers
follow the Bourbaki plates and are 1-based throughout the public API
(see the numbering table in the README).  The Coxeter matrix is read
from the Cartan products a_ij·a_ji, see :func:`coxeter_matrix`.

The non-reduced family BC has the Cartan matrix of B and adds twice each
shortest root, so it stores both a root and its double; every
Weyl-group computation on a BC system goes through its reduced core of
nondivisible roots, which by that construction is type B, see
:func:`nondivisible_core`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidSpec, NonCrystallographicInput, NotNonReduced

FAMILIES = ("A", "B", "C", "D", "E", "F", "G", "BC")

# Cartan-integer product -> order of the product of the two reflections.
PRODUCT_ORDER_TABLE = {0: 2, 1: 3, 2: 4, 3: 6}


@dataclass(frozen=True)
class RootSystemSpec:
    """A family label and a rank, validated for admissibility."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSpec(f"unknown family {self.family!r}")
        if not isinstance(self.rank, int) or self.rank < 1:
            raise InvalidSpec(f"rank must be a positive integer, got {self.rank!r}")
        fam, n = self.family, self.rank
        if fam == "E" and n not in (6, 7, 8):
            raise InvalidSpec(f"E requires rank in {{6,7,8}}, got {n}")
        if fam == "F" and n != 4:
            raise InvalidSpec(f"F requires rank 4, got {n}")
        if fam == "G" and n != 2:
            raise InvalidSpec(f"G requires rank 2, got {n}")
        if fam == "D" and n < 3:
            raise InvalidSpec(f"D requires rank >= 3, got {n}")

    def label(self):
        return f"{self.family}{self.rank}"


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _e(i, dim):
    return tuple(1 if j == i else 0 for j in range(dim))


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _neg(v):
    return tuple(-a for a in v)


def _scale_vec(c, v):
    return tuple(c * a for a in v)


def _simple_root_data(spec):
    """Ambient dimension, scale factor, and the Bourbaki simple roots."""
    fam, n = spec.family, spec.rank
    if fam == "A":
        dim = n + 1
        simples = [_sub(_e(i, dim), _e(i + 1, dim)) for i in range(n)]
        return dim, 1, simples
    if fam in ("B", "BC"):
        dim = n
        simples = [_sub(_e(i, dim), _e(i + 1, dim)) for i in range(n - 1)]
        simples.append(_e(n - 1, dim))
        return dim, 1, simples
    if fam == "C":
        dim = n
        simples = [_sub(_e(i, dim), _e(i + 1, dim)) for i in range(n - 1)]
        simples.append(_scale_vec(2, _e(n - 1, dim)))
        return dim, 1, simples
    if fam == "D":
        dim = n
        simples = [_sub(_e(i, dim), _e(i + 1, dim)) for i in range(n - 1)]
        simples.append(_add(_e(n - 2, dim), _e(n - 1, dim)))
        return dim, 1, simples
    if fam == "G":
        return 3, 1, [(1, -1, 0), (-2, 1, 1)]
    if fam == "F":
        # Scaled by 2: a4 = (e1 - e2 - e3 - e4)/2.
        return 4, 2, [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
    if fam == "E":
        # Scaled by 2, ambient R^8 for every E rank.
        simples = [
            (1, -1, -1, -1, -1, -1, -1, 1),
            (2, 2, 0, 0, 0, 0, 0, 0),
            (-2, 2, 0, 0, 0, 0, 0, 0),
            (0, -2, 2, 0, 0, 0, 0, 0),
            (0, 0, -2, 2, 0, 0, 0, 0),
            (0, 0, 0, -2, 2, 0, 0, 0),
            (0, 0, 0, 0, -2, 2, 0, 0),
            (0, 0, 0, 0, 0, -2, 2, 0),
        ]
        return 8, 2, simples[:n]
    raise InvalidSpec(f"unknown family {fam!r}")


def reflect_vector(a, v):
    """Reflect the integer vector ``v`` in the root vector ``a``."""
    num = 2 * dot(v, a)
    den = dot(a, a)
    if num % den:
        raise NonCrystallographicInput(
            f"pairing 2<{v},{a}>/<{a},{a}> = {num}/{den} is not an integer"
        )
    c = num // den
    return tuple(x - c * y for x, y in zip(v, a))


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
        "dynkin_edges",
        "simple_refl_perms",
    )

    def __init__(self, spec, ambient_dim, scale, simples, cartan, positive):
        """``positive`` lists the positive roots' simple-root coefficients."""
        self.spec = spec
        self.ambient_dim = ambient_dim
        self.scale = scale
        vector = {c: _combine(c, simples) for c in positive}
        vector.update({_neg(c): _neg(v) for c, v in vector.items()})
        self.coeffs = tuple(sorted(vector, key=vector.__getitem__))
        self.roots = tuple(vector[c] for c in self.coeffs)
        self.root_index = {v: i for i, v in enumerate(self.roots)}
        index = {c: i for i, c in enumerate(self.coeffs)}
        n = len(cartan)
        self.simple_indices = tuple(index[_e(i, n)] for i in range(n))
        self.positive_set = frozenset(index[c] for c in positive)
        self.neg_index = tuple(index[_neg(c)] for c in self.coeffs)
        self.cartan = cartan
        self.dynkin_edges = tuple(
            (i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if cartan[i][j] != 0
        )
        # s_i: c -> c - <c, a_i^v>·e_i, where <c, a_i^v> = sum_j c_j·cartan[j][i].
        self.simple_refl_perms = tuple(
            tuple(index[c[:i] + (c[i] - dot(c, col),) + c[i + 1 :]] for c in self.coeffs)
            for i, col in enumerate(zip(*cartan))
        )
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
            if self.neg_index[self.neg_index[i]] != i:
                raise InvalidSpec("negation is not an involution on roots")
            if (i in self.positive_set) == (self.neg_index[i] in self.positive_set):
                raise InvalidSpec("a root and its negative have the same sign")
        for k, row in enumerate(self.cartan):
            if row[k] != 2:
                raise InvalidSpec("Cartan diagonal entry is not 2")

    def simple_root(self, node):
        """Vector of the simple root at the 1-based Bourbaki ``node``."""
        return self.roots[self.simple_indices[node - 1]]

    def node_degree(self, node):
        return sum(1 for e in self.dynkin_edges if node in e)

    def neighbors(self, node):
        out = set()
        for i, j in self.dynkin_edges:
            if i == node:
                out.add(j)
            elif j == node:
                out.add(i)
        return tuple(sorted(out))

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
    n = len(simples)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            num = 2 * dot(simples[i], simples[j])
            den = dot(simples[j], simples[j])
            if num % den:
                raise NonCrystallographicInput("non-integral Cartan entry")
            row.append(num // den)
        rows.append(tuple(row))
    return tuple(rows)


def _positive_coefficients(cartan):
    """The positive roots in simple-root coordinates, from the Cartan matrix.

    Starting from the unit vectors, c -> c + k·e_i whenever
    k = -<c, a_i^v> = -sum_j c_j·cartan[j][i] is positive: that is s_i·c,
    a root of greater height, and every positive root is reached this way
    from a simple one (Humphreys 1990, ch. 3).
    """
    n = len(cartan)
    found = [_e(i, n) for i in range(n)]
    seen = set(found)
    for c in found:  # found grows as the loop runs: a breadth-first walk
        for i, col in enumerate(zip(*cartan)):
            k = -dot(c, col)
            if k > 0:
                up = c[:i] + (c[i] + k,) + c[i + 1 :]
                if up not in seen:
                    seen.add(up)
                    found.append(up)
    return found


def _combine(c, simples):
    """The ambient vector sum_j c_j·simples[j]."""
    return tuple(dot(c, row) for row in zip(*simples))


@lru_cache(maxsize=None)
def _build_cached(family, rank):
    spec = RootSystemSpec(family, rank)
    dim, scale, simples = _simple_root_data(spec)
    cartan = _cartan_matrix(simples)
    positive = _positive_coefficients(cartan)
    if family == "BC":
        # BC has the Cartan matrix of B; it adds twice each shortest root.
        norms = [dot(v, v) for v in (_combine(c, simples) for c in positive)]
        least = min(norms)
        positive += [_scale_vec(2, c) for c, m in zip(positive, norms) if m == least]
    return RootSystem(spec, dim, scale, simples, cartan, positive)


def build_root_system(spec):
    """Construct the root system for an admissible spec.

    Results are cached and immutable; callers share instances freely.
    """
    if isinstance(spec, tuple):
        spec = RootSystemSpec(*spec)
    return _build_cached(spec.family, spec.rank)


def reflect(rs, a, v):
    """Reflect vector ``v`` in the root with index ``a``."""
    return reflect_vector(rs.roots[a], tuple(v))


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

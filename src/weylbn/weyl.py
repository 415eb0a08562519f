"""Weyl-group elements, word calculus, and weight actions.

An element is stored as the permutation it induces on the root index set,
so equality and hashing are plain tuple comparisons and no floating point
ever appears.  A word is a tuple of 1-based Bourbaki node numbers; the
word (i1, i2, ..., ik) spells the product r_{i1} r_{i2} ... r_{ik}, which
acts on a vector by applying r_{ik} first.  Words parse and print as
whitespace-separated node numbers, e.g. "2 1 3 2".

Words and descents are read off weights, not root permutations.  With rho
the sum of the fundamental weights, the left descents of u are the nodes
where u·rho has a negative coordinate, and r_s·u sends rho to r_s(u·rho)
(Humphreys, *Reflection Groups and Coxeter Groups*, §1.6–1.7).  So one
walk, :func:`descend`, gives the least reduced word of w (from w·rho) and
the longest element (from w0·rho = -rho).  The reduced words are paths
from w·rho up to rho, counted one length at a time; they are listed as
the braid closure of the least word (Matsumoto's theorem), checked by
size against the count.  :func:`length` keeps an independent inversion
count on the root permutation.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import EnumerationCapExceeded
from .rootsys import coxeter_matrix, degrees, dot, reduced_form

DEFAULT_WORD_CAP = 10**6


class WeylElement:
    """A Weyl-group element as a permutation of the root index set."""

    __slots__ = ("rs", "perm")

    def __init__(self, rs, perm):
        self.rs = rs
        self.perm = perm

    def __mul__(self, other):
        return WeylElement(self.rs, compose(self.perm, other.perm))

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"WeylElement({self.rs.spec.label()}, len={length(self)})"

    def is_identity(self):
        return all(img == r for r, img in enumerate(self.perm))


def compose(p, q):
    """The root permutation p o q: apply q, then p."""
    return tuple(map(p.__getitem__, q))


def element_of(rs, word):
    """Evaluate a word of node numbers to a Weyl-group element."""
    word = tuple(word)
    n = rs.rank
    for letter in word:
        if not 1 <= letter <= n:
            raise ValueError(f"letter {letter} outside 1..{n}")
    perm = tuple(range(len(rs.roots)))
    for letter in word:
        perm = compose(perm, rs.simple_refl_perms[letter - 1])
    return WeylElement(rs, perm)


@lru_cache(maxsize=None)
def _nondivisible_positive(rs):
    """Positive roots whose half is not a root: all of them unless ``rs``
    is non-reduced (BC), where 2a and a are one reflection."""
    kept = set(reduced_form(rs).roots)
    return tuple(r for r in sorted(rs.positive_set) if rs.roots[r] in kept)


def length(w):
    """Coxeter length: the positive nondivisible roots sent negative by ``w``."""
    pos = w.rs.positive_set
    return sum(1 for r in _nondivisible_positive(w.rs) if w.perm[r] not in pos)


@lru_cache(maxsize=None)
def longest_element(rs):
    """The unique maximal-length element, descended from w0·rho = -rho.

    The result is checked to have length the number of positive
    nondivisible roots and to be an involution.
    """
    w = element_of(rs, descend(rs, (-1,) * rs.rank, range(1, rs.rank + 1))[0])
    if length(w) != len(_nondivisible_positive(rs)):
        raise AssertionError("descent from -rho did not reach the longest element")
    if not (w * w).is_identity():
        raise AssertionError("longest element is not an involution")
    return w


def is_minus_one(w):
    """True when ``w`` negates every simple root."""
    rs = w.rs
    return all(w.perm[si] == rs.neg_index[si] for si in rs.simple_indices)


def descend(rs, coords, nodes):
    """Reflect ``coords`` at the least node of ``nodes`` with a negative
    coordinate until none is left; return the nodes used, in order, and
    the weight reached.

    Each step adds a positive multiple of a simple root, so the walk ends,
    at the one weight of the orbit of ``coords`` under the reflections at
    ``nodes`` that is dominant at ``nodes``.  From w·rho over all nodes
    each step takes the least left descent, so the nodes used spell the
    lexicographically least reduced word for w.
    """
    nodes = sorted(nodes)
    used = []
    while True:
        j = next((node for node in nodes if coords[node - 1] < 0), None)
        if j is None:
            return tuple(used), coords
        used.append(j)
        coords = reflect_weight(rs, j, coords)


def canonical_reduced_word(w):
    """The lexicographically smallest reduced word for ``w``."""
    rs = w.rs
    return descend(rs, _rho_image(w), range(1, rs.rank + 1))[0]


def reduced_word_count(w, *, _cap=None, _top=None):
    """The number of reduced words for ``w``, without listing any: the
    paths from w·rho up to rho that reflect at a negative coordinate each
    step, counted one length at a time, keeping one level of weights with
    the number of paths that reach each.

    A path into a level starts at least one reduced word, and different
    paths start different words, so :func:`reduced_words` passes its cap
    as ``_cap``: a level of more than ``_cap`` paths is refused at once
    (EnumerationCapExceeded), with a count exact only at rho's level.
    It passes w·rho as ``_top`` too, which it has computed already.
    """
    rs, rho = w.rs, (1,) * w.rs.rank
    level = {_rho_image(w) if _top is None else _top: 1}
    while True:
        total, last = sum(level.values()), rho in level
        if _cap is not None and total > _cap:
            bound = "" if last else "at least "
            msg = f"{bound}{total} reduced words, more than the cap {_cap}"
            raise EnumerationCapExceeded(msg, total)
        if last:
            return total
        up = {}
        for mu, paths in level.items():
            for s, x in enumerate(mu):
                if x < 0:
                    nu = reflect_weight(rs, s + 1, mu)
                    up[nu] = up.get(nu, 0) + paths
        level = up


def _rho_image(w):
    """w·rho in weight coordinates, rho the sum of the fundamental weights.

    Entry s is <w·rho, a_s^vee> = <rho, b^vee> for the root b = w^-1(a_s);
    with b = sum_i c_i a_i and <rho, a_i^vee> = 1 that is
    sum_i c_i (a_i, a_i) / (b, b), an exact integer quotient.
    """
    rs = w.rs
    norms = [dot(rs.roots[i], rs.roots[i]) for i in rs.simple_indices]
    return tuple(
        dot(rs.coeffs[b], norms) // dot(rs.roots[b], rs.roots[b])
        for b in map(w.perm.index, rs.simple_indices)
    )


def reduced_words(w, cap=DEFAULT_WORD_CAP):
    """The full set of reduced words for ``w``.

    Counts them first, one length at a time (:func:`reduced_word_count`),
    and raises EnumerationCapExceeded as soon as a level passes ``cap``,
    before any word is built, so the cap bounds the memory of the count
    and of the listing.  Then lists them as the braid closure of the
    least reduced word, which is the whole set by Matsumoto's theorem
    (Björner and Brenti 2005, Thm 3.3.1).  Braid moves keep the element
    and the length, so the closure lies in the set the count counts, and
    the two must have the same size.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    rs = w.rs
    top = _rho_image(w)
    total = reduced_word_count(w, _cap=cap, _top=top)
    words = _braid_closure(rs, descend(rs, top, range(1, rs.rank + 1))[0])
    if len(words) != total:
        raise AssertionError("braid closure disagrees with the reduced-word count")
    return words


def braid_moves(rs, word):
    """All words obtained from ``word`` by one braid substitution."""
    cox = coxeter_matrix(rs)
    out = []
    k = len(word)
    for pos in range(k - 1):
        a, b = word[pos], word[pos + 1]
        if a == b:
            continue
        m = cox[a - 1][b - 1]
        if pos + m > k:
            continue
        pattern = tuple(a if t % 2 == 0 else b for t in range(m))
        if tuple(word[pos : pos + m]) == pattern:
            swapped = tuple(b if t % 2 == 0 else a for t in range(m))
            out.append(word[:pos] + swapped + word[pos + m :])
    return out


def _braid_closure(rs, seed):
    """Every word reached from ``seed`` by braid moves."""
    words = [seed]
    seen = {seed}
    for word in words:  # words grows as the loop runs: a breadth-first walk
        for moved in braid_moves(rs, word):
            if moved not in seen:
                seen.add(moved)
                words.append(moved)
    return frozenset(seen)


def fundamental_weight(rs, node):
    """Weight-basis coordinates of the fundamental weight at ``node``."""
    return tuple(1 if i == node - 1 else 0 for i in range(rs.rank))


def reflect_weight(rs, node, coords):
    """Apply the simple reflection at ``node`` in weight coordinates."""
    c = coords[node - 1]
    if c == 0:
        return coords
    row = rs.cartan[node - 1]
    return tuple(x - c * y for x, y in zip(coords, row))


def act_on_weight(rs, w_or_word, coords):
    """Apply a word or element to fundamental-weight coordinates."""
    if isinstance(w_or_word, WeylElement):
        word = canonical_reduced_word(w_or_word)
    else:
        word = tuple(w_or_word)
    for letter in reversed(word):
        coords = reflect_weight(rs, letter, coords)
    return coords


def parse_word(text):
    """Parse whitespace-separated 1-based node numbers into a word."""
    parts = text.split()
    return tuple(int(p) for p in parts)


def format_word(word):
    return " ".join(str(x) for x in word)


def poincare_polynomial(rs):
    """The length census of W, entry l the number of elements of length l:
    the product of the 1 + q + ... + q^(d-1) over the degrees d (Humphreys 1990, §3.15)."""
    poly = [1]
    for d in degrees(rs, tuple(range(1, rs.rank + 1))):
        poly = [sum(poly[max(0, k - d + 1) : k + 1]) for k in range(len(poly) + d - 1)]
    return poly

import random

import pytest

from test_rootsys_oracle import reflect_vector
from test_weyl_oracle import all_elements, inverse
from weylbn.errors import EnumerationCapExceeded
from weylbn.rootsys import build_root_system, coxeter_matrix
from weylbn.weyl import (
    WeylElement,
    act_on_weight,
    canonical_reduced_word,
    element_of,
    format_word,
    fundamental_weight,
    is_minus_one,
    length,
    longest_element,
    parse_word,
    reduced_word_count,
    reduced_words,
)


def test_element_of_basics():
    A3 = build_root_system(("A", 3))
    e = element_of(A3, ())
    assert e.is_identity() and length(e) == 0
    for node in (1, 2, 3):
        assert length(element_of(A3, (node,))) == 1
    assert length(element_of(A3, (2, 1, 3, 2))) == 4


def test_length_of_longest_elements():
    # 2*l(w0) equals the number of roots.
    for fam, rank in [("A", 3), ("G", 2), ("B", 2), ("E", 6), ("F", 4)]:
        rs = build_root_system((fam, rank))
        assert 2 * length(longest_element(rs)) == len(rs.roots)


def test_longest_element_small():
    A1 = build_root_system(("A", 1))
    assert longest_element(A1) == element_of(A1, (1,))
    B2 = build_root_system(("B", 2))
    w0 = longest_element(B2)
    assert length(w0) == 4 and is_minus_one(w0)
    A2 = build_root_system(("A", 2))
    w0 = longest_element(A2)
    assert length(w0) == 3
    a1, a2 = A2.simple_indices
    assert w0.perm[a1] == A2.neg_index[a2]


def test_is_minus_one():
    assert is_minus_one(longest_element(build_root_system(("B", 2))))
    assert not is_minus_one(longest_element(build_root_system(("A", 2))))
    assert not is_minus_one(element_of(build_root_system(("A", 1)), ()))


def test_reduced_words_examples():
    A3 = build_root_system(("A", 3))
    w = element_of(A3, (2, 1, 3, 2))
    assert reduced_words(w) == {(2, 1, 3, 2), (2, 3, 1, 2)}
    A2 = build_root_system(("A", 2))
    assert reduced_words(longest_element(A2)) == {(1, 2, 1), (2, 1, 2)}
    assert reduced_words(element_of(A2, ())) == {()}


def test_reduced_words_cap():
    A3 = build_root_system(("A", 3))
    with pytest.raises(EnumerationCapExceeded) as exc:
        reduced_words(longest_element(A3), cap=3)
    assert exc.value.partial_count >= 3


def test_canonical_reduced_word():
    A3 = build_root_system(("A", 3))
    w = element_of(A3, (2, 1, 3, 2))
    word = canonical_reduced_word(w)
    assert word in reduced_words(w)
    assert word == min(reduced_words(w))
    assert element_of(A3, word) == w


def test_weight_action_basics():
    A3 = build_root_system(("A", 3))
    for a in (1, 2, 3):
        omega = fundamental_weight(A3, a)
        moved = act_on_weight(A3, (a,), omega)
        row = A3.cartan[a - 1]
        assert moved == tuple(x - y for x, y in zip(omega, row))
        for b in (1, 2, 3):
            if b != a:
                assert act_on_weight(A3, (b,), omega) == omega
    # w0 sends the first fundamental weight to minus the last one.
    w0 = longest_element(A3)
    assert act_on_weight(A3, w0, fundamental_weight(A3, 1)) == (0, 0, -1)


def test_weight_action_matches_ambient():
    # Cross-check in rank <= 4: conjugate the ambient action into the
    # weight basis through the pairing with the simple coroots.
    from fractions import Fraction

    for fam, rank in [("A", 3), ("B", 3), ("C", 4), ("D", 4), ("G", 2)]:
        rs = build_root_system((fam, rank))
        simples = [rs.roots[i] for i in rs.simple_indices]

        def pair(v, a):
            from weylbn.rootsys import dot

            return Fraction(2 * dot(v, a), dot(a, a))

        rng = random.Random(4096 + rank)
        for _ in range(20):
            word = tuple(rng.randrange(1, rank + 1) for _ in range(6))
            w = element_of(rs, word)
            # Random integer vector in the root lattice.
            v = tuple(0 for _ in range(rs.ambient_dim))
            for i in range(rank):
                c = rng.randrange(-2, 3)
                v = tuple(x + c * y for x, y in zip(v, simples[i]))
            coords = tuple(pair(v, a) for a in simples)
            assert all(c.denominator == 1 for c in coords)
            coords = tuple(int(c) for c in coords)
            moved = act_on_weight(rs, word, coords)
            # Ambient route: apply the word's reflections directly.
            ambient = v
            for letter in reversed(word):
                ambient = reflect_vector(simples[letter - 1], ambient)
            assert moved == tuple(int(pair(ambient, a)) for a in simples)


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("BC", 2)])
def test_length_identities_exhaustive(fam, rank):
    from weylbn.rootsys import reduced_form

    rs = reduced_form(build_root_system((fam, rank)))
    w0 = longest_element(rs)
    perms = all_elements(rs)
    for perm, ell in perms.items():
        w = type(w0)(rs, perm)
        assert length(w) == ell
        assert length(WeylElement(rs, inverse(perm))) == ell
        assert length(w0 * w) == length(w0) - ell


@pytest.mark.parametrize("rank", [2, 3])
def test_bc_length_is_coxeter_length(rank):
    # 2a and a give one reflection, so BC_n's length is B_n's length.
    bc = build_root_system(("BC", rank))
    b = build_root_system(("B", rank))
    assert length(element_of(bc, (rank,))) == 1
    assert length(longest_element(bc)) == length(longest_element(b))
    for perm, ell in all_elements(bc).items():
        w = WeylElement(bc, perm)
        word = canonical_reduced_word(w)
        assert length(w) == ell == len(word) == length(element_of(b, word))


@pytest.mark.parametrize("fam,rank", [("E", 8), ("E", 7), ("B", 8), ("D", 8), ("A", 8)])
def test_length_identities_sampled(fam, rank):
    rs = build_root_system((fam, rank))
    w0 = longest_element(rs)
    rng = random.Random(hash((fam, rank)) & 0xFFFF)
    for _ in range(200):
        word = tuple(rng.randrange(1, rank + 1) for _ in range(rng.randrange(0, 40)))
        w = element_of(rs, word)
        assert length(w) <= len(word)
        assert length(WeylElement(rs, inverse(w.perm))) == length(w)
        assert length(w0 * w) == length(w0) - length(w)


def test_word_length_reduces_iff_in_reduced_words():
    A3 = build_root_system(("A", 3))
    rng = random.Random(7)
    for _ in range(60):
        word = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(0, 8)))
        w = element_of(A3, word)
        if length(w) == len(word):
            assert word in reduced_words(w)
        else:
            assert word not in reduced_words(w)


def test_stabilizer_property_exhaustive_rank3():
    # Fixing the fundamental weight at a node is the same as having a
    # reduced word that omits that node.
    for fam in ("A", "B"):
        rs = build_root_system((fam, 3))
        w0 = longest_element(rs)
        for perm in all_elements(rs):
            w = type(w0)(rs, perm)
            words = reduced_words(w)
            for a in (1, 2, 3):
                fixes = act_on_weight(rs, canonical_reduced_word(w), fundamental_weight(rs, a)) == fundamental_weight(rs, a)
                omits = any(a not in u for u in words)
                assert fixes == omits


@pytest.mark.parametrize(
    "fam,rank",
    [("A", 8), ("B", 8), ("C", 8), ("D", 8), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2), ("BC", 4), ("A", 2), ("B", 3), ("D", 5)],
)
def test_reflection_product_orders_match_coxeter_matrix(fam, rank):
    rs = build_root_system((fam, rank))
    cox = coxeter_matrix(rs)
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            prod = element_of(rs, (i,)) * element_of(rs, (j,))
            order = 1
            cur = prod
            while not cur.is_identity():
                cur = cur * prod
                order += 1
            assert order == cox[i - 1][j - 1]


def test_word_parse_format():
    assert parse_word("2 1 3 2") == (2, 1, 3, 2)
    assert parse_word("") == ()
    assert format_word((2, 1, 3, 2)) == "2 1 3 2"
    assert format_word(()) == ""


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("G", 2), ("BC", 3)])
def test_reduced_word_count_matches_enumeration(fam, rank):
    from weylbn.weyl import WeylElement, _rho_image

    rs = build_root_system((fam, rank))
    for perm in all_elements(rs):
        w = WeylElement(rs, perm)
        assert reduced_word_count(w) == len(reduced_words(w))
        assert _rho_image(w) == act_on_weight(rs, w, (1,) * rank)


def test_reduced_words_cap_reports_exact_count():
    w0 = longest_element(build_root_system(("A", 3)))
    with pytest.raises(EnumerationCapExceeded) as exc:
        reduced_words(w0, cap=15)
    assert exc.value.partial_count == 16
    assert len(reduced_words(w0, cap=16)) == 16


@pytest.mark.parametrize(
    "fam,rank,count",
    # Standard Young tableaux of the staircase (type A, Stanley) and of the
    # n x n square (type B, Haiman).
    [("A", 4, 768), ("A", 5, 292864), ("B", 3, 42), ("B", 4, 24024)],
)
def test_reduced_word_count_of_longest_element(fam, rank, count):
    assert reduced_word_count(longest_element(build_root_system((fam, rank)))) == count


def _refused_words(rank, cap, timeout):
    """Exit code, stdout, stderr and peak RSS (kilobytes on Linux) of a CLI
    child asked for the reduced words of E_rank's longest element (``cap``
    None: the default cap), killed after ``timeout`` seconds."""
    import os
    import subprocess
    import sys
    import threading

    word = format_word(canonical_reduced_word(longest_element(build_root_system(("E", rank)))))
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "weylbn.cli", "reduced-words", "E", str(rank), word]
    argv += [] if cap is None else ["--cap", str(cap)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        out, err = proc.stdout.read(), proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss


def test_reduced_words_cap_bounds_memory():
    # E6's longest element has far more reduced words than the default cap
    # of 10^6: the CLI must refuse after counting them, building none.
    code, out, err, rss = _refused_words(6, cap=None, timeout=60)
    assert code == 1 and out == b""
    assert b"cap exceeded" in err
    assert rss < 200 * 1024


def test_reduced_words_cap_bounds_the_count():
    # E8's longest element: a count memoized on every weight below it would
    # hold all 696,729,600 of them.  Counted one length at a time, a level
    # of more than 1000 paths is refused at once.
    code, out, err, rss = _refused_words(8, cap=1000, timeout=30)
    assert code == 1 and out == b""
    assert b"cap exceeded" in err
    assert rss < 200 * 1024


def test_reduced_words_peak_memory_is_near_the_result():
    # One listing: the traced peak stays within a small multiple of the
    # frozenset of words it returns (D4's w0, 2,316 words).
    import sys
    import tracemalloc

    w0 = longest_element(build_root_system(("D", 4)))
    tracemalloc.start()
    try:
        words = reduced_words(w0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sys.getsizeof(words) + sum(sys.getsizeof(u) for u in words)
    assert len(words) == 2316
    assert peak < 3 * size


def test_reduced_words_computes_rho_image_once(monkeypatch):
    from weylbn import weyl

    real, calls = weyl._rho_image, []
    monkeypatch.setattr(weyl, "_rho_image", lambda w: calls.append(w) or real(w))
    for word in [(1, 2, 1), (2, 3, 4, 3, 2), (1, 2, 3, 2, 1, 4)]:
        calls.clear()
        assert word in reduced_words(element_of(build_root_system(("B", 4)), word))
        assert len(calls) == 1


@pytest.mark.parametrize("fam,rank", [("C", 4), ("D", 5), ("F", 4), ("E", 6), ("BC", 4)])
def test_rho_image_matches_weight_action(fam, rank):
    from weylbn.weyl import _rho_image

    rs = build_root_system((fam, rank))
    rng = random.Random(7)
    for _ in range(40):
        word = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 12)))
        w = element_of(rs, word)
        assert _rho_image(w) == act_on_weight(rs, word, (1,) * rank)

"""Seeded properties of lengths and reduced words on every small type."""

from hypothesis import given, settings, strategies as st

from weylbn.errors import InvalidSpec
from weylbn.rootsys import FAMILIES, RootSystemSpec, build_root_system
from weylbn.weyl import canonical_reduced_word, element_of, length, reduced_word_count, reduced_words


def _spec_or_none(fam, rank):
    try:
        return RootSystemSpec(fam, rank)
    except InvalidSpec:
        return None


# Every type of rank up to 6, BC and the rank-1 B and C included.
SMALL_TYPES = [s for f in FAMILIES for n in range(1, 7) if (s := _spec_or_none(f, n))]
# A type and a word of length at most 10 over its nodes; a fixed seed and
# example count, and no example database, so every run draws the same words.
WORDS = st.sampled_from(SMALL_TYPES).flatmap(
    lambda spec: st.tuples(st.just(spec), st.lists(st.integers(1, spec.rank), max_size=10))
)
SEEDED = settings(derandomize=True, max_examples=300, database=None, deadline=None)


@SEEDED
@given(WORDS)
def test_length_moves_by_one_under_each_simple_reflection(drawn):
    spec, word = drawn
    rs = build_root_system(spec)
    l = length(element_of(rs, word))
    for s in range(1, spec.rank + 1):
        assert length(element_of(rs, (*word, s))) in (l - 1, l + 1)


@SEEDED
@given(WORDS)
def test_reduced_word_count_and_least_word_agree_with_the_listing(drawn):
    spec, word = drawn
    w = element_of(build_root_system(spec), word)
    words = reduced_words(w)
    assert reduced_word_count(w) == len(words)
    assert canonical_reduced_word(w) == min(words)
    assert all(len(u) == length(w) for u in words)

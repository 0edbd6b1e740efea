"""The free commutator subgroup of B_3 and the left orders it inherits.

The commutator subgroup [B_3, B_3] (the kernel of the total exponent sum) is
free of rank two on x = σ1 σ2^-1 and y = σ1^2 σ2^-2.  Intersecting the
Dehornoy positive cone with it therefore left orders F_2; restricting
further to the rank-n subgroups K_n orders every finite-rank free group.
This module provides the embedding, its inverse rewriting, and comparison in
those restricted orders.

The inverse rewriting is a Reidemeister-Schreier scan over the transversal
{σ1^t}: while reading the braid word it tracks the running exponent sum t,
and every σ2^{+/-1} letter emits the coset conjugate σ1^t σ2^{+/-1}
σ1^{-(t +/- 1)}, expressed over {x, y} through powers of the conjugation
automorphism g -> σ1^-1 g σ1.  Outputs are pinned only up to free equality:
the contract is the round trip through the Burau oracle.
"""

from __future__ import annotations

import dataclasses
import functools

from . import _words, dehornoy
from .braid import BraidWord, exponent_sum
from .freegroup import FreeWord, GroupAutomorphism, conj_by_sigma1, kn_basis, kn_substitute

__all__ = ["ExoticContext", "embed", "commutator_rewrite", "exotic_compare"]

X_IMAGE = BraidWord(3, ((1, 1), (2, -1)))
Y_IMAGE = BraidWord(3, ((1, 2), (2, -2)))

_EMBED_RUNS = _words.substitution_table((X_IMAGE.letters, Y_IMAGE.letters))


@dataclasses.dataclass(frozen=True)
class ExoticContext:
    """Which restricted order to compare in: F_2 itself or K_n inside it."""

    kind: str
    n: int | None = None

    @classmethod
    def f2(cls) -> "ExoticContext":
        return cls("F2")

    @classmethod
    def kn(cls, n: int) -> "ExoticContext":
        if n < 2:
            raise ValueError(f"n must be at least 2, got {n}")
        return cls("Kn", n)

    @property
    def rank(self) -> int:
        return 2 if self.kind == "F2" else self.n  # type: ignore[return-value]

    def basis(self) -> list[FreeWord] | None:
        return None if self.kind == "F2" else kn_basis(self.n)  # type: ignore[arg-type]

    def to_f2(self, word: FreeWord) -> FreeWord:
        if word.rank != self.rank:
            raise ValueError(
                f"word rank {word.rank} does not match context rank {self.rank}"
            )
        if self.kind == "F2":
            return word
        return kn_substitute(word, self.n)  # type: ignore[arg-type]

    def __str__(self) -> str:
        return "f2" if self.kind == "F2" else f"kn:{self.n}"


def embed(word: FreeWord) -> BraidWord:
    """Image of a rank-2 word under x -> σ1 σ2^-1, y -> σ1^2 σ2^-2.

    The image is freely reduced and has total exponent sum zero.
    """
    if word.rank != 2:
        raise ValueError("the commutator embedding is defined on rank-2 words")
    return BraidWord._reduced(3, _words.substitute(word.letters, _EMBED_RUNS))


@functools.cache
def _conj_by_sigma1_pair() -> tuple[GroupAutomorphism, GroupAutomorphism]:
    """conj_by_sigma1 and its inverse, composed and verified once per process."""
    psi = conj_by_sigma1()
    return psi, psi.inverted()


def commutator_rewrite(braid: BraidWord) -> FreeWord:
    """Rewrite a zero-exponent-sum three-strand braid over {x, y}.

    The result w satisfies braid_equal(embed(w), braid); on words in the
    image of :func:`embed` the rewrite returns the original word verbatim.
    """
    if braid.strands != 3:
        raise ValueError("commutator rewriting is specific to 3 strands")
    if exponent_sum(braid) != 0:
        raise ValueError("word has nonzero exponent sum, so it lies outside [B3, B3]")

    psi, psi_inv = _conj_by_sigma1_pair()
    x = FreeWord(2, ((1, 1),))
    # conj[t] = image of σ1^t x σ1^-t over {x, y}, filled on demand from a
    # neighboring power so repeated nearby t values stay cheap.
    conj: dict[int, FreeWord] = {0: x}

    def conjugate(t: int) -> FreeWord:
        if t not in conj:
            step = 1 if t > 0 else -1
            auto = psi_inv if t > 0 else psi
            s = t
            while s not in conj:
                s -= step
            while s != t:
                conj[s + step] = auto(conj[s])
                s += step
        return conj[t]

    runs: list[tuple[int, int]] = []
    t = 0
    for index, sign in braid.single_letters():
        if index == 1:
            t += sign
        elif sign > 0:
            runs.extend(conjugate(t).inverse().letters)
            t += 1
        else:
            t -= 1
            runs.extend(conjugate(t).letters)
    return FreeWord(2, tuple(runs))


def exotic_compare(u: FreeWord, v: FreeWord, ctx: ExoticContext | None = None) -> str:
    """Compare words in the restricted Dehornoy order of the context.

    K_n words are substituted down to F_2 first; the difference u^-1 v is
    then embedded into B_3 and its Dehornoy sign gives the verdict.
    """
    ctx = ctx or ExoticContext.f2()
    difference = ctx.to_f2(u.inverse() * v)
    return dehornoy.dehornoy_sign(embed(difference)).comparison()

"""Lyndon-word bases of the free Lie ring, degree by degree.

Degree-m Lyndon words over an n-letter alphabet index a basis of the m-th
lower-central section of a free group of rank n.  This module enumerates
them, computes the Witt dimension independently, builds the standard
bracketing of each word both as a group commutator word and as its monomial
expansion, and extracts exact integer coordinates of homogeneous Lie
elements with respect to that basis by back-substitution: the expansions
are unitriangular, with each word its own pivot.

Letters are integers 0..n-1; words and monomials are tuples of letters.
The series arithmetic (`magnus`) keys a degree-d monomial by its big-endian
base-n index instead (`monomial_index`), and a basis reads tensors keyed
that way; `lie_coordinates` is the tuple-keyed entry point.
"""

from __future__ import annotations

from dataclasses import dataclass

Monomial = tuple[int, ...]


def monomial_index(mono, n: int) -> int:
    """Big-endian base-n index of a monomial: (i_1, ..., i_d) ->
    i_1 n^(d-1) + ... + i_d.  Among monomials of one degree, index order
    is lexicographic order."""
    key = 0
    for x in mono:
        key = key * n + x
    return key


def index_monomial(key: int, n: int, d: int) -> Monomial:
    """The degree-d monomial whose base-n index is `key`."""
    out = [0] * d
    for pos in range(d - 1, -1, -1):
        key, out[pos] = divmod(key, n)
    return tuple(out)


def _mobius(d: int) -> int:
    out = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            out = -out
        p += 1
    if d > 1:
        out = -out
    return out


def witt_dimension(n: int, m: int) -> int:
    """Rank of the degree-m component of the free Lie ring on n letters:
    (1/m) * sum over d | m of mobius(d) * n^(m/d)."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    total = sum(_mobius(d) * n ** (m // d) for d in range(1, m + 1) if m % d == 0)
    return total // m


def lyndon_words(n: int, m: int) -> list[Monomial]:
    """All Lyndon words of length exactly m over n letters, sorted.

    Duval's algorithm: generates every word that is strictly smaller than
    all of its proper suffixes, in lexicographic order.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    out = []
    w = [0]
    while w:
        if len(w) == m:
            out.append(tuple(w))
        k = len(w)
        while len(w) < m:
            w.append(w[len(w) % k])
        while w and w[-1] == n - 1:
            w.pop()
        if w:
            w[-1] += 1
    return out


def is_lyndon(word: Monomial) -> bool:
    return len(word) > 0 and all(word < word[i:] for i in range(1, len(word)))


def standard_factorization(word: Monomial) -> tuple[Monomial, Monomial]:
    """Split a Lyndon word of length >= 2 as u * v with v the longest proper
    suffix that is itself Lyndon."""
    for i in range(1, len(word)):
        if is_lyndon(word[i:]):
            return word[:i], word[i:]
    raise ValueError(f"{word!r} is not a Lyndon word")


def _poly_bracket(p: dict, q: dict) -> dict:
    """Lie bracket of two homogeneous noncommutative polynomials: pq - qp."""
    out: dict[Monomial, int] = {}
    for (ma, ca, mb, cb, sign) in (
        [(ma, ca, mb, cb, 1) for ma, ca in p.items() for mb, cb in q.items()]
        + [(ma, ca, mb, cb, -1) for ma, ca in q.items() for mb, cb in p.items()]
    ):
        key = ma + mb
        val = out.get(key, 0) + sign * ca * cb
        if val:
            out[key] = val
        else:
            out.pop(key, None)
    return out


@dataclass(frozen=True)
class Bracketing:
    """Standard bracketing of a Lyndon word.

    `letters` spells the iterated group commutator over the alphabet as
    (letter, sign) pairs; `expansion` is its image in the free associative
    ring, i.e. the Lie polynomial obtained by replacing group commutators
    with ring brackets.
    """

    word: Monomial
    letters: tuple[tuple[int, int], ...]
    expansion: dict


_BRACKETING_CACHE: dict[Monomial, Bracketing] = {}


def bracketing(word: Monomial) -> Bracketing:
    word = tuple(word)
    cached = _BRACKETING_CACHE.get(word)
    if cached is not None:
        return cached
    if not is_lyndon(word):
        raise ValueError(f"{word!r} is not a Lyndon word")
    if len(word) == 1:
        out = Bracketing(word, ((word[0], 1),), {word: 1})
    else:
        u, v = standard_factorization(word)
        bu, bv = bracketing(u), bracketing(v)
        inv_u = tuple((g, -s) for g, s in reversed(bu.letters))
        inv_v = tuple((g, -s) for g, s in reversed(bv.letters))
        letters = inv_u + inv_v + bu.letters + bv.letters
        out = Bracketing(word, letters, _poly_bracket(bu.expansion, bv.expansion))
    _BRACKETING_CACHE[word] = out
    return out


def bracket_shape(word: Monomial) -> tuple:
    """Nested-pair view of the standard bracketing, for display."""
    if len(word) == 1:
        return word[0]
    u, v = standard_factorization(tuple(word))
    return (bracket_shape(u), bracket_shape(v))


class LyndonBasis:
    """Basis data for one degree: the sorted Lyndon words, their monomial
    indices (`keys`) and the monomial expansions of their standard
    bracketings keyed by monomial index (`expansions`).

    Triangularity makes the expansion matrix row-echelon with unit pivots
    (the expansion of a word w is supported on monomials >= w, with
    coefficient 1 on w itself), so the coordinate of w is the coefficient
    of w left after the rows of the smaller words are subtracted.
    """

    __slots__ = ("n", "m", "words", "keys", "expansions")

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        self.words = lyndon_words(n, m)
        self.keys = [monomial_index(w, n) for w in self.words]
        self.expansions = [
            {monomial_index(mono, n): c for mono, c in bracketing(w).expansion.items()}
            for w in self.words
        ]

    def __len__(self):
        return len(self.words)

    def coordinates(self, tensor: dict) -> list[int] | None:
        """Integer coordinates of a homogeneous degree-m tensor, keyed by
        monomial index over the n letters, in this basis; None when it is
        not an integer combination (for instance any tensor that is not a
        Lie element).  The tensor is trusted to be homogeneous of degree m
        over the n letters (`lie_coordinates` checks it) and is not
        modified."""
        v = dict(tensor)
        coords = []
        for key, row in zip(self.keys, self.expansions):
            q = v.get(key, 0)
            coords.append(q)
            if q:
                for k, c in row.items():
                    s = v.get(k, 0) - q * c
                    if s:
                        v[k] = s
                    else:
                        v.pop(k, None)
        return None if any(v.values()) else coords


_BASIS_CACHE: dict[tuple[int, int], LyndonBasis] = {}


def get_basis(n: int, m: int) -> LyndonBasis:
    key = (n, m)
    basis = _BASIS_CACHE.get(key)
    if basis is None:
        basis = _BASIS_CACHE[key] = LyndonBasis(n, m)
    return basis


def lie_coordinates(tensor: dict, n: int, m: int | None = None) -> list[int] | None:
    """Coordinates of a homogeneous tensor in the degree-m Lyndon basis over
    n letters; m is inferred from the tensor when omitted."""
    if m is None:
        degrees = {len(mono) for mono in tensor}
        if len(degrees) != 1:
            raise ValueError("tensor is empty or not homogeneous")
        m = degrees.pop()
    for mono, coeff in tensor.items():
        if len(mono) != m:
            raise ValueError("tensor is not homogeneous of the basis degree")
        if coeff and any(x < 0 or x >= n for x in mono):
            raise ValueError("tensor uses letters outside the alphabet")
    return get_basis(n, m).coordinates(
        {monomial_index(mono, n): coeff for mono, coeff in tensor.items() if coeff}
    )

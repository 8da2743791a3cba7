"""Lyndon-word bases of the free Lie ring, degree by degree.

Degree-m Lyndon words over an n-letter alphabet index a basis of the m-th
lower-central section of a free group of rank n.  This module enumerates
them, computes the Witt dimension independently, expands the standard
bracketing of each word once into the free associative ring, and extracts
exact integer coordinates of homogeneous Lie elements with respect to that
basis by back-substitution: the expansions are unitriangular, with each
word its own pivot.

Letters are integers 0..n-1 and words are tuples of letters.  A degree-d
monomial is keyed by its big-endian base-n index (`monomial_index`), as in
the series arithmetic (`magnus`); the expansions are built on these
indices and a basis reads tensors keyed the same way.  There is no
tuple-keyed entry point.
"""

from __future__ import annotations

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


_EXPANSIONS: dict[tuple[int, Monomial], dict[int, int]] = {}


def _expansion(word: Monomial, n: int) -> dict[int, int]:
    """Monomial expansion of the standard bracketing of a Lyndon word over n
    letters, keyed by monomial index: [u, v] = uv - vu, and concatenating
    monomials of indices a and b, b of degree d, gives index a * n^d + b.
    Cached by (n, word) and shared, so the result must not be modified."""
    key = (n, word)
    out = _EXPANSIONS.get(key)
    if out is None:
        if len(word) == 1:
            out = {word[0]: 1}
        else:
            u, v = standard_factorization(word)
            eu, ev = _expansion(u, n), _expansion(v, n)
            out = {}
            for p, q, shift, sign in (
                (eu, ev, n ** len(v), 1), (ev, eu, n ** len(u), -1)
            ):
                for a, ca in p.items():
                    for b, cb in q.items():
                        k = a * shift + b
                        s = out.get(k, 0) + sign * ca * cb
                        if s:
                            out[k] = s
                        else:
                            out.pop(k, None)
        _EXPANSIONS[key] = out
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
    bracketings keyed by monomial index (`expansions`).  The expansion
    rows are shared with the module cache and must not be modified.

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
        self.expansions = [_expansion(w, n) for w in self.words]

    def __len__(self):
        return len(self.words)

    def coordinates(self, tensor: dict) -> list[int] | None:
        """Integer coordinates of a homogeneous degree-m tensor, keyed by
        monomial index over the n letters, in this basis; None when it is
        not an integer combination (for instance any tensor that is not a
        Lie element).  The tensor is trusted to be homogeneous of degree m
        over the n letters and is not modified."""
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


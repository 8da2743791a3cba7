import random
from functools import cache
from itertools import product

import pytest

from baerkit.lyndon import (
    bracket_shape,
    get_basis,
    index_monomial,
    is_lyndon,
    lyndon_words,
    monomial_index,
    standard_factorization,
)


def brute_force_lyndon(n, m):
    """Independent oracle: a word is Lyndon iff it is strictly smaller than
    every proper rotation (hence aperiodic)."""
    out = []
    for word in product(range(n), repeat=m):
        rotations = [word[i:] + word[:i] for i in range(1, m)]
        if all(word < r for r in rotations):
            out.append(word)
    return out


class TestLyndonWords:
    @pytest.mark.parametrize("n,m", [(n, m) for n in (1, 2, 3) for m in (1, 2, 3, 4, 5)])
    def test_against_rotation_oracle(self, n, m):
        assert lyndon_words(n, m) == brute_force_lyndon(n, m)

    def test_sorted_output(self):
        words = lyndon_words(3, 4)
        assert words == sorted(words)


@cache
def oracle_expansion(word):
    """Oracle: the tuple-keyed expansion of a Lyndon word's standard
    bracketing, by the recursion [u, v] = uv - vu on monomial tuples.
    Cached, so callers must not modify the result."""
    if len(word) == 1:
        return {word: 1}
    u, v = standard_factorization(word)
    p, q = oracle_expansion(u), oracle_expansion(v)
    out = {}
    for left, right, sign in ((p, q, 1), (q, p, -1)):
        for ma, ca in left.items():
            for mb, cb in right.items():
                out[ma + mb] = out.get(ma + mb, 0) + sign * ca * cb
    return {mono: c for mono, c in out.items() if c}


def expansion(word, n):
    """A basis row decoded to tuple monomials."""
    basis = get_basis(n, len(word))
    row = basis.expansions[basis.words.index(word)]
    return {index_monomial(k, n, len(word)): c for k, c in row.items()}


def encode(tensor, n):
    return {monomial_index(mono, n): c for mono, c in tensor.items()}


class TestBracketing:
    def test_single_letter(self):
        assert expansion((0,), 2) == {(0,): 1}
        assert get_basis(2, 1).expansions == [{0: 1}, {1: 1}]

    def test_aab_factorization(self):
        assert standard_factorization((0, 0, 1)) == ((0,), (0, 1))
        assert bracket_shape((0, 0, 1)) == (0, (0, 1))
        assert expansion((0, 0, 1), 2) == {
            (0, 0, 1): 1, (0, 1, 0): -2, (1, 0, 0): 1,
        }

    def test_longest_proper_lyndon_suffix(self):
        # aabab = aab * ab: ab is the longest Lyndon proper suffix.
        assert standard_factorization((0, 0, 1, 0, 1)) == ((0, 0, 1), (0, 1))

    def test_rejects_non_lyndon(self):
        assert not is_lyndon((0, 1, 0, 1))

    def test_matches_tuple_oracle(self):
        # Every Lyndon word over up to 7 letters with n^m <= 20,000, decoded
        # through the lexicographic list of all degree-m monomials.
        cases = 0
        for n in range(1, 8):
            for m in range(1, 15):
                if n ** m > 20_000:
                    break
                monomials = list(product(range(n), repeat=m))
                basis = get_basis(n, m)
                for word, row in zip(basis.words, basis.expansions):
                    decoded = {monomials[k]: c for k, c in row.items()}
                    assert decoded == oracle_expansion(word)
                    cases += 1
        assert cases == 18_802

    def test_same_word_at_two_ranks(self):
        # The cache is keyed by rank as well as word: one word's indices
        # differ between alphabets.
        want = oracle_expansion((0, 0, 1))
        assert expansion((0, 0, 1), 2) == want
        assert expansion((0, 0, 1), 3) == want


class TestLieCoordinates:
    def test_coordinates_leave_the_tensor_alone(self):
        tensor = dict(get_basis(2, 3).expansions[0])
        tensor[monomial_index((1, 1, 0), 2)] = 0
        before = dict(tensor)
        assert get_basis(2, 3).coordinates(tensor) == [1, 0]
        assert tensor == before

    def test_degree_three(self):
        # [x,[x,y]] expansion is a basis row.
        basis = get_basis(2, 3)
        exp = encode(oracle_expansion((0, 0, 1)), 2)
        assert basis.coordinates(exp) == [1, 0]
        # Sum of both basis rows.
        both = dict(exp)
        for k, c in encode(oracle_expansion((0, 1, 1)), 2).items():
            both[k] = both.get(k, 0) + c
        assert basis.coordinates(both) == [1, 1]


def test_expansion_support_is_upward_closed():
    # Triangularity in the raw expansion: support only on monomials >= word.
    for n, m in [(2, 3), (2, 4), (3, 3)]:
        basis = get_basis(n, m)
        for key, row in zip(basis.keys, basis.expansions):
            assert row[key] == 1
            assert all(k >= key for k in row)


def solve_echelon(vector, rows):
    """Oracle: exact integer solve against sparse echelon rows, each a dict
    whose smallest key is its pivot; returns coordinates in row order, or
    None when the vector is outside the integer row span."""
    v = {k: c for k, c in vector.items() if c}
    coords = []
    for row in rows:
        pivot = min(row)
        b = v.get(pivot, 0)
        a = row[pivot]
        if b % a:
            return None
        q = b // a
        coords.append(q)
        if q:
            for k, c in row.items():
                s = v.get(k, 0) - q * c
                if s:
                    v[k] = s
                else:
                    v.pop(k, None)
    return None if v else coords


@pytest.mark.parametrize("n,m", [(2, 3), (2, 5), (3, 3), (3, 4), (4, 2)])
def test_coordinates_match_echelon_oracle(n, m):
    # Integer combinations of the expansions, some with one monomial
    # perturbed so that the tensor leaves the Lie lattice.
    rng = random.Random(n * 100 + m)
    basis = get_basis(n, m)
    monomials = [monomial_index(mono, n) for mono in product(range(n), repeat=m)]
    outside = 0
    for trial in range(60):
        tensor = {}
        for row in basis.expansions:
            q = rng.randrange(-5, 6)
            for mono, c in row.items():
                tensor[mono] = tensor.get(mono, 0) + q * c
        if trial % 3 == 0:
            mono = rng.choice(monomials)
            tensor[mono] = tensor.get(mono, 0) + rng.choice((-1, 1))
        want = solve_echelon(tensor, basis.expansions)
        outside += want is None
        assert basis.coordinates(tensor) == want
    assert outside > 0


def test_basis_cached():
    assert get_basis(2, 3) is get_basis(2, 3)

import random
from itertools import product

import pytest

from baerkit.lyndon import (
    bracket_shape,
    bracketing,
    get_basis,
    is_lyndon,
    lie_coordinates,
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


class TestBracketing:
    def test_single_letter(self):
        b = bracketing((0,))
        assert b.letters == ((0, 1),)
        assert b.expansion == {(0,): 1}

    def test_aab_factorization(self):
        assert standard_factorization((0, 0, 1)) == ((0,), (0, 1))
        assert bracket_shape((0, 0, 1)) == (0, (0, 1))
        assert bracketing((0, 0, 1)).expansion == {
            (0, 0, 1): 1, (0, 1, 0): -2, (1, 0, 0): 1,
        }

    def test_longest_proper_lyndon_suffix(self):
        # aabab = aab * ab: ab is the longest Lyndon proper suffix.
        assert standard_factorization((0, 0, 1, 0, 1)) == ((0, 0, 1), (0, 1))

    def test_rejects_non_lyndon(self):
        with pytest.raises(ValueError):
            bracketing((1, 0))
        assert not is_lyndon((0, 1, 0, 1))


class TestLieCoordinates:
    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            lie_coordinates({(0,): 1, (0, 1): 1}, 2)

    def test_letter_outside_alphabet_rejected(self):
        with pytest.raises(ValueError):
            lie_coordinates({(0, 2): 1, (2, 0): -1}, 2)
        with pytest.raises(ValueError):
            lie_coordinates({(0, 2): 1, (2, 0): -1}, 2, 2)
        # A zero coefficient does not count as using the letter.
        assert lie_coordinates({(0, 1): 1, (1, 0): -1, (0, 2): 0}, 2) == [1]

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            lie_coordinates({(0, 1): 1, (1, 0): -1}, 2, 3)

    def test_coordinates_leave_the_tensor_alone(self):
        tensor = {
            monomial_index(mono, 2): c
            for mono, c in bracketing((0, 0, 1)).expansion.items()
        }
        tensor[monomial_index((1, 1, 0), 2)] = 0
        before = dict(tensor)
        assert get_basis(2, 3).coordinates(tensor) == [1, 0]
        assert tensor == before

    def test_degree_three(self):
        # [x,[x,y]] expansion is a basis row.
        exp = bracketing((0, 0, 1)).expansion
        assert lie_coordinates(exp, 2) == [1, 0]
        # Sum of both basis rows.
        both = dict(exp)
        for mono, c in bracketing((0, 1, 1)).expansion.items():
            both[mono] = both.get(mono, 0) + c
        assert lie_coordinates(both, 2) == [1, 1]


def test_expansion_support_is_upward_closed():
    # Triangularity in the raw expansion: support only on monomials >= word.
    for n, m in [(2, 3), (2, 4), (3, 3)]:
        for word in lyndon_words(n, m):
            exp = bracketing(word).expansion
            assert exp[word] == 1
            assert all(mono >= word for mono in exp)


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

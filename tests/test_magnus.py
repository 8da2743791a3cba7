import random

import pytest
from hypothesis import given, settings, strategies as st

from baerkit.magnus import (
    GroupElement,
    TruncatedSeries,
    generator_element,
    identity_element,
    reindex_element,
    series_of_word,
)
from baerkit.presentations import Alphabet, Word, parse_word
from baerkit.subgroups import AmbientContext

AB = Alphabet(["x", "y"])


def elem(text, n=2, cap=4):
    return series_of_word(parse_word(text, AB), n, cap)


def elem_of_letters(letters, cap):
    return series_of_word(Word(AB, letters), 2, cap)


class TestSeriesOfWord:
    def test_generator_image(self):
        assert elem("x", cap=3).series.terms == {(): 1, (0,): 1}

    def test_identity(self):
        assert elem("x x^-1", cap=3).is_identity

    def test_commutator_hand_value(self):
        # (1-X+X^2)(1-Y+Y^2)(1+X)(1+Y) truncated at degree 2.
        assert elem("[x,y]", cap=2).series.terms == {
            (): 1, (0, 1): 1, (1, 0): -1,
        }

    def test_generator_inverse_is_alternating(self):
        inv = generator_element(0, 2, 4).inverse()
        assert inv.series.terms == {
            (): 1, (0,): -1, (0, 0): 1, (0, 0, 0): -1, (0, 0, 0, 0): 1,
        }

    def test_alphabet_too_large(self):
        with pytest.raises(ValueError):
            series_of_word(parse_word("x", AB), 1, 3)


class TestGroupOps:
    def test_identity_neutral(self):
        g = elem("x y^2")
        assert g * identity_element(4) == g

    def test_invert_matches_word_inverse(self):
        assert elem("x").inverse() == elem("x^-1")

    def test_commutator_convention(self):
        g = generator_element(0, 2, 2)
        h = generator_element(1, 2, 2)
        assert g.commutator(h).series.terms == {(): 1, (0, 1): 1, (1, 0): -1}

    def test_cap_mismatch(self):
        with pytest.raises(ValueError):
            elem("x", cap=3) * elem("x", cap=4)

    def test_pow(self):
        assert elem("x") ** 3 == elem("x^3")
        assert elem("x y") ** -2 == elem("(x y)^-2")

    def test_constant_term_enforced(self):
        with pytest.raises(ValueError):
            GroupElement(TruncatedSeries(2, {(): 2}))


class TestWeight:
    def test_identity_infinite(self):
        assert elem("1").weight() is None

    def test_commutator_weight(self):
        assert elem("[x,y]").weight() == 2

    def test_nested_commutator_weight(self):
        assert elem("[[x,y],y]").weight() == 3

    def test_leading_parts(self):
        assert elem("[x,y]").leading() == {(0, 1): 1, (1, 0): -1}
        assert elem("x").leading() == {(0,): 1}
        assert elem("x^2").leading() == {(0,): 2}
        with pytest.raises(ValueError):
            elem("1").leading()


letters = st.lists(
    st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), max_size=8
)


@given(letters, letters, st.integers(2, 4))
@settings(max_examples=80)
def test_homomorphism(a, b, cap):
    ga = elem_of_letters(a, cap)
    gb = elem_of_letters(b, cap)
    assert ga * gb == elem_of_letters(list(a) + list(b), cap)


@given(letters, st.integers(2, 5))
@settings(max_examples=80)
def test_inverse_exact(a, cap):
    g = elem_of_letters(a, cap)
    assert (g * g.inverse()).is_identity


@given(letters, letters)
@settings(max_examples=60)
def test_commutator_filtration(a, b):
    cap = 5
    g = elem_of_letters(a, cap)
    h = elem_of_letters(b, cap)
    wg, wh = g.weight(), h.weight()
    if wg is None or wh is None:
        assert g.commutator(h).weight() is None or True
        return
    wc = g.commutator(h).weight()
    assert wc is None or wc >= wg + wh


def repeated_product(g, e):
    """g^e as |e| plain products of g or of g.inverse()."""
    out = identity_element(g.cap)
    for _ in range(abs(e)):
        out = out * (g if e > 0 else g.inverse())
    return out


@given(letters, st.integers(-8, 8), st.integers(1, 5))
@settings(max_examples=80)
def test_pow_matches_repeated_product(a, e, cap):
    g = elem_of_letters(a, cap)
    assert g ** e == repeated_product(g, e)
    assert (g ** 0).is_identity


big = st.integers(-2**40, 2**40)


@given(letters, big, big, st.integers(1, 4))
@settings(max_examples=60)
def test_pow_adds_exponents(a, e, f, cap):
    g = elem_of_letters(a, cap)
    assert g ** e * g ** f == g ** (e + f)


def test_large_syllables_agree_across_paths():
    word = parse_word("x^1024 y^-3", AB)
    x, y = generator_element(0, 2, 4), generator_element(1, 2, 4)
    g = series_of_word(word, 2, 4)
    assert g == x ** 1024 * y ** -3
    assert g == AmbientContext(2, 4).element_of_word(word)


def test_reindex_is_homomorphic():
    g = elem("[x,y] x^2", cap=3)
    shifted = reindex_element(g, 1, 3)
    assert shifted.series.terms == {
        tuple(i + 1 for i in mono): c for mono, c in g.series.terms.items()
    }
    with pytest.raises(ValueError):
        reindex_element(g, 2, 3)


def test_sorted_terms_length_lex():
    g = elem("y x [x,y]")
    monos = [m for m, _ in g.series.sorted_terms()]
    assert monos == sorted(monos, key=lambda m: (len(m), m))


def product_commutator(g, h):
    """[g, h] by the product formula g^-1 h^-1 g h: the oracle."""
    return g.inverse() * h.inverse() * g * h


def random_word_element(rng, n, cap):
    """Image of a random word of up to three syllables; some exponents lie
    near +-10**40, as lattice reduction produces."""
    g = identity_element(cap)
    for _ in range(rng.randint(1, 3)):
        e = rng.choice([
            rng.randint(-3, 3),
            10**40 + rng.randint(-9, 9),
            -(10**40) + rng.randint(-9, 9),
        ])
        g = g * generator_element(rng.randrange(n), n, cap) ** e
    return g


def weighted_element(rng, n, cap, w):
    """A random element of weight >= w, or the identity when w > cap: a
    left-normed product-formula commutator of w random words."""
    if w > cap:
        return identity_element(cap)
    g = random_word_element(rng, n, cap)
    for _ in range(w - 1):
        g = product_commutator(g, random_word_element(rng, n, cap))
    return g


@pytest.mark.parametrize("n,max_cap", [(1, 9), (2, 9), (3, 7)])
def test_commutator_matches_product_formula(n, max_cap):
    rng = random.Random(1000 + n)
    kinds = set()
    for cap in range(1, max_cap + 1):
        for _ in range(12):
            wg = rng.randint(1, cap + 1)
            wh = rng.choice([cap - wg, rng.randint(1, cap + 1)])
            g = weighted_element(rng, n, cap, wg)
            h = weighted_element(rng, n, cap, wh)
            got = g.commutator(h)
            assert got == product_commutator(g, h)
            if g.is_identity or h.is_identity:
                kinds.add("identity")
            elif g.weight() + h.weight() > cap:
                kinds.add("over")
                assert got.is_identity
            elif g.weight() + h.weight() == cap and not got.is_identity:
                kinds.add("L = 0")
            elif not got.is_identity:
                kinds.add("L > 0")
    if n == 1:
        assert kinds <= {"identity", "over"}
    else:
        assert kinds == {"identity", "over", "L = 0", "L > 0"}


series_ops = st.lists(
    st.tuples(
        st.sampled_from(("mul", "pow", "commutator")),
        st.integers(0, 7),
        st.integers(0, 7),
        st.sampled_from((-(10**40), -3, -1, 0, 2, 5, 10**40)),
    ),
    min_size=1,
    max_size=6,
)


@given(letters, letters, series_ops, st.integers(1, 6))
@settings(max_examples=60)
def test_trusted_results_are_valid_series(a, b, ops, cap):
    """Results built by the unvalidated constructor keep no zero
    coefficient and no monomial above the cap: the public constructor,
    which drops zeros and rejects such monomials, gives the same series."""
    pool = [elem_of_letters(a, cap), elem_of_letters(b, cap)]
    pool += [g.commutator(h) for g in pool for h in pool]
    for op, i, j, e in ops:
        g, h = pool[i % len(pool)], pool[j % len(pool)]
        if op == "mul":
            out = g * h
        elif op == "pow":
            out = g ** e
        else:
            out = g.commutator(h)
        pool.append(out)
    for g in pool:
        assert TruncatedSeries(cap, dict(g.series.terms)) == g.series

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from baerkit.lyndon import index_monomial, monomial_index
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


def keyed(tensor, n=2):
    """A tuple-keyed tensor keyed by monomial index, as series store it."""
    return {monomial_index(mono, n): c for mono, c in tensor.items()}


def elem_of_letters(letters, cap):
    return series_of_word(Word(AB, letters), 2, cap)


class TestSeriesOfWord:
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
    def test_leading_parts(self):
        assert elem("[x,y]").leading() == keyed({(0, 1): 1, (1, 0): -1})
        assert elem("x").leading() == keyed({(0,): 1})
        assert elem("x^2").leading() == keyed({(0,): 2})
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


# The tuple-keyed kernel that series used before they were stored by degree
# on integer indices, kept as the reference for the graded kernel.  Series
# are plain dicts from monomial tuples to nonzero coefficients.


def ref_mul(cap, a, b):
    by_len = {}
    for mono, c in b.items():
        by_len.setdefault(len(mono), []).append((mono, c))
    out = {}
    for ma, ca in a.items():
        room = cap - len(ma)
        for lb, items in by_len.items():
            if lb > room:
                continue
            for mb, cb in items:
                key = ma + mb
                val = out.get(key, 0) + ca * cb
                if val:
                    out[key] = val
                else:
                    del out[key]
    return out


def ref_add_terms(out, terms, k=1):
    for mono, c in terms.items():
        val = out.get(mono, 0) + k * c
        if val:
            out[mono] = val
        else:
            del out[mono]


def ref_pow(cap, g, e):
    """g^e for a series g with constant term 1, by the binomial series."""
    u = {m: c for m, c in g.items() if m}
    if not u:
        return dict(g)
    w = min(len(m) for m in u)
    out = {(): 1}
    binom = 1
    power = u
    for j in range(1, cap // w + 1):
        binom = binom * (e - j + 1) // j
        if not binom:
            break
        if j > 1:
            power = ref_mul(cap, power, u)
        ref_add_terms(out, power, binom)
    return out


def ref_commutator(cap, g, h):
    """g^-1 h^-1 g h by the product formula."""
    left = ref_mul(cap, ref_pow(cap, g, -1), ref_pow(cap, h, -1))
    return ref_mul(cap, left, ref_mul(cap, g, h))


def all_monomials(n, d):
    return [index_monomial(i, n, d) for i in range(n ** d)]


coefficients = st.one_of(
    st.integers(-3, 3),
    st.integers(-(10**40), 10**40),
    st.sampled_from((10**40, -(10**40))),
)


ranks_and_caps = st.tuples(st.integers(1, 4), st.integers(1, 8))


@st.composite
def tuple_series(draw, n, cap, constant):
    """A tuple-keyed series over n letters at the cap: the identity, a
    sparse one (a few monomials of any degree) or a dense one (every
    monomial of degree <= d, with n + ... + n^d <= 30).  `constant` is the
    constant term, or None for any."""
    kind = draw(st.sampled_from(("identity", "sparse", "dense")))
    c0 = draw(coefficients) if constant is None else constant
    out = {(): c0} if c0 else {}
    if kind == "identity":
        return out
    if kind == "sparse":
        monos = draw(st.lists(
            st.integers(1, cap).flatmap(
                lambda d: st.tuples(*[st.integers(0, n - 1)] * d)),
            max_size=4,
        ))
    else:
        d, size = 0, 0
        while d < cap and size + n ** (d + 1) <= 30:
            d += 1
            size += n ** d
        monos = [m for k in range(1, d + 1) for m in all_monomials(n, k)]
    for mono in monos:
        c = draw(coefficients)
        if c:
            out[mono] = c
    return out


def graded(cap, terms, n):
    """The series of a tuple-keyed dict; the identity stays rank-neutral."""
    if terms == {(): 1}:
        return identity_element(cap).series
    return TruncatedSeries(cap, terms, n)


def group_pair(draw, n, cap):
    a = draw(tuple_series(n, cap, 1))
    b = draw(tuple_series(n, cap, 1))
    return a, b, GroupElement(graded(cap, a, n)), GroupElement(graded(cap, b, n))


def small_enough(n, cap, *terms):
    """Powers and commutators of dense series fill every degree up to the
    cap; keep those to at most 4,096 top-degree monomials."""
    return n ** cap <= 4096 or all(len(t) <= 5 for t in terms)


@given(ranks_and_caps, st.data())
@settings(max_examples=150, deadline=None)
def test_product_matches_tuple_kernel(shape, data):
    n, cap = shape
    a = data.draw(tuple_series(n, cap, None))
    b = data.draw(tuple_series(n, cap, None))
    got = graded(cap, a, n) * graded(cap, b, n)
    assert dict(got.terms) == ref_mul(cap, a, b)
    assert len(got.terms) == len(ref_mul(cap, a, b))
    assert got.n in (0, n)


exponents = st.one_of(
    st.integers(-8, 8),
    st.sampled_from((0, 10**40, -(10**40))),
    st.integers(-(10**40), 10**40),
)


@given(ranks_and_caps, st.data(), exponents)
@settings(max_examples=120, deadline=None)
def test_power_matches_tuple_kernel(shape, data, e):
    n, cap = shape
    a, _, g, _ = group_pair(data.draw, n, cap)
    assume(small_enough(n, cap, a))
    assert dict((g ** e).series.terms) == ref_pow(cap, a, e)
    assert dict(g.inverse().series.terms) == ref_pow(cap, a, -1)


@given(ranks_and_caps, st.data())
@settings(max_examples=120, deadline=None)
def test_commutator_matches_tuple_kernel(shape, data):
    n, cap = shape
    a, b, g, h = group_pair(data.draw, n, cap)
    assume(small_enough(n, cap, a, b))
    assert dict(g.commutator(h).series.terms) == ref_commutator(cap, a, b)


class TestRank:
    def test_mismatch_refused(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            generator_element(0, 2, 3) * generator_element(0, 3, 3)
        with pytest.raises(ValueError, match="rank mismatch"):
            generator_element(0, 2, 3).commutator(generator_element(1, 3, 3))

    def test_letterless_series_are_rank_neutral(self):
        x2, x3 = generator_element(0, 2, 3), generator_element(0, 3, 3)
        one = identity_element(3)
        assert (one * x3).series.n == 3 and one * x3 == x3
        assert (x3 * one).series.n == 3
        cancelled = x2 * x2.inverse()
        assert cancelled.is_identity and cancelled.series.n == 2
        assert cancelled * x3 == x3
        assert cancelled == one

    def test_equal_across_ranks_as_polynomials(self):
        assert generator_element(0, 2, 3) == generator_element(0, 3, 3)
        assert generator_element(1, 2, 3) != generator_element(2, 3, 3)

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            TruncatedSeries(2, {(0, 0, 0): 1})
        with pytest.raises(ValueError):
            TruncatedSeries(2, {(0, 2): 1}, n=2)
        with pytest.raises(ValueError):
            TruncatedSeries(2, {(-1,): 1})
        assert TruncatedSeries(2, {(0, 2): 0, (1,): 3}).n == 2

    def test_leading_coordinates_refuse_another_rank(self):
        with pytest.raises(ValueError):
            AmbientContext(3, 3).leading_coordinates(elem("[x,y]", cap=3))


@pytest.mark.parametrize("source, target", [(1, 3), (2, 5)])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_reindex_homomorphism_across_ranks(source, target, data):
    cap = data.draw(st.integers(1, 5))
    offset = data.draw(st.integers(0, target - source))
    letters = st.lists(
        st.tuples(st.integers(0, source - 1), st.integers(-3, 3)), max_size=5)
    gens = [generator_element(i, source, cap) for i in range(source)]
    shifted = [generator_element(i + offset, target, cap) for i in range(source)]

    def image(word, generators):
        out = identity_element(cap)
        for i, e in word:
            out = out * generators[i] ** e
        return out

    u, v = data.draw(letters), data.draw(letters)
    g, h = image(u, gens), image(v, gens)
    moved = reindex_element(g * h, offset, target)
    assert moved == reindex_element(g, offset, target) * reindex_element(h, offset, target)
    assert moved == image(u + v, shifted)
    assert moved.is_identity or moved.series.n == target


# Letters: x_i = 1 + X_i of the operand's rank, on the right of a
# commutator or raised to a power, take the index-shift kernel.  At these
# shapes n^cap <= 2,187, so every operand is small enough for the oracles.

letter_shapes = st.tuples(st.integers(1, 3), st.integers(1, 7))


@st.composite
def weighted_tuple_series(draw, n, cap, w):
    """A tuple-keyed group series of weight exactly w <= cap: one nonzero
    degree-w term and a few more of degree w .. cap."""
    out = {(): 1}
    lead = draw(st.tuples(*[st.integers(0, n - 1)] * w))
    out[lead] = draw(coefficients.filter(bool))
    for _ in range(draw(st.integers(0, 4))):
        d = draw(st.integers(w, cap))
        mono = draw(st.tuples(*[st.integers(0, n - 1)] * d))
        if mono != lead:
            out[mono] = draw(coefficients)
    return {m: c for m, c in out.items() if c}


def letter_operand(data, n, cap):
    """Any group series, or one of weight w = cap - 1 (then cap - w - 1 < w
    and g is not inverted) or w = cap (then [g, x] is the identity)."""
    kind = data.draw(st.sampled_from(("any", "cap - 1", "cap")))
    if kind == "any":
        return data.draw(tuple_series(n, cap, 1))
    w = max(1, cap - 1) if kind == "cap - 1" else cap
    return data.draw(weighted_tuple_series(n, cap, w))


def letter_terms(i):
    return {(): 1, (i,): 1}


@given(letter_shapes, st.data())
@settings(max_examples=150, deadline=None)
def test_commutator_with_letter_matches_tuple_kernel(shape, data):
    n, cap = shape
    a = letter_operand(data, n, cap)
    g = GroupElement(graded(cap, a, n))
    for i in range(n):
        x = generator_element(i, n, cap)
        assert x._letter() == i
        want = ref_commutator(cap, a, letter_terms(i))
        assert dict(g.commutator(x).series.terms) == want


@given(letter_shapes, exponents)
@settings(max_examples=120, deadline=None)
def test_letter_power_matches_tuple_kernel(shape, e):
    n, cap = shape
    for i in range(n):
        x = generator_element(i, n, cap)
        assert dict((x ** e).series.terms) == ref_pow(cap, letter_terms(i), e)


@given(letter_shapes, st.data(), exponents)
@settings(max_examples=80, deadline=None)
def test_operands_that_are_not_letters_keep_the_generic_kernel(shape, data, e):
    """Weight-1 operands other than 1 + X_i, and a letter on the left of a
    commutator, match the oracles too."""
    n, cap = shape
    a = letter_operand(data, n, cap)
    g = GroupElement(graded(cap, a, n))
    i = data.draw(st.integers(0, n - 1))
    x = generator_element(i, n, cap)
    square = x * x
    assert square._letter() is None and x.inverse()._letter() is None
    squared = ref_pow(cap, letter_terms(i), 2)
    assert dict(square.series.terms) == squared
    assert dict((square ** e).series.terms) == ref_pow(cap, squared, e)
    for h, terms in ((square, squared), (x.inverse(), ref_pow(cap, letter_terms(i), -1))):
        assert dict(g.commutator(h).series.terms) == ref_commutator(cap, a, terms)
    assert dict(x.commutator(g).series.terms) == ref_commutator(cap, letter_terms(i), a)


def test_letter_of_another_rank_is_refused():
    g = generator_element(0, 2, 4).commutator(generator_element(1, 2, 4))
    for h in (generator_element(0, 3, 4), generator_element(2, 3, 4)):
        assert h._letter() is not None
        with pytest.raises(ValueError, match="rank mismatch"):
            g.commutator(h)
        with pytest.raises(ValueError, match="rank mismatch"):
            h.commutator(g)
    # The identity has no letters and commutes at every rank.
    assert identity_element(4).commutator(generator_element(2, 3, 4)).is_identity


def left_normed_word(rng, n, depth):
    """Syllable lists of `depth` random words; their left-normed
    commutator has weight >= depth."""
    return [
        [(rng.randrange(n), rng.choice((-2, -1, 1, 3))) for _ in range(rng.randint(1, 3))]
        for _ in range(depth)
    ]


def left_normed_element(words, n, cap):
    """The left-normed commutator of the words' images at class `cap`."""
    out = None
    for syllables in words:
        g = identity_element(cap)
        for i, e in syllables:
            g = g * generator_element(i, n, cap) ** e
        out = g if out is None else out.commutator(g)
    return out


@pytest.mark.parametrize("n,max_cap", [(1, 7), (2, 7), (3, 5)])
def test_lift_has_the_commutators_of_the_word_one_class_up(n, max_cap):
    """An element of class D padded to class D + 1 commutes with every
    element as the same word evaluated at class D + 1 does (module
    docstring, "Lifts"), with letters and with other partners; going down
    gives the word's image."""
    rng = random.Random(3100 + n)
    kinds = set()
    for cap in range(1, max_cap):
        for _ in range(10):
            words = left_normed_word(rng, n, rng.randint(1, cap))
            low, high = (left_normed_element(words, n, d) for d in (cap, cap + 1))
            lifted = low.at_cap(cap + 1)
            assert high.at_cap(cap) == low and low.at_cap(cap) is low
            i = rng.randrange(n)
            x = generator_element(i, n, cap + 1)
            partners = [x, x ** 2, x.inverse()]
            partners += [left_normed_element(left_normed_word(rng, n, 1), n, cap + 1)]
            for h in partners:
                assert lifted.commutator(h) == high.commutator(h)
                assert h.commutator(lifted) == h.commutator(high)
                kinds.add("letter" if h._letter() is not None else "other")
            if lifted != high:
                kinds.add("not a true lift")
    assert kinds == {"letter", "other", "not a true lift"}


def test_inverse_is_kept():
    g = elem("x y^2 [x,y]")
    inv = g ** -1
    assert g.inverse() is inv and g ** -1 is inv
    assert inv == elem("[x,y]^-1 y^-2 x^-1")
    assert g ** -2 == inv * inv

import itertools
import math
import random
from collections import deque
from pathlib import Path

import pytest

from baerkit import baer, subgroups
from baerkit.baer import (
    baer_invariant,
    certified_class_bound,
    hopf_pair,
    relator_closure,
    verify_class_bound,
    working_closure,
)
from baerkit.errors import CapacityError
from baerkit.intlinalg import abelian_invariants
from baerkit.lyndon import LyndonBasis, lyndon_words
from baerkit.magnus import GroupElement, TruncatedSeries, identity_element, reindex_element
from baerkit.presentations import Alphabet, parse_input_file, parse_word
from baerkit.selftest import hnf, make_presentation
from baerkit.semidirect import build_semidirect
from baerkit.subgroups import (
    AmbientContext,
    FilteredSubgroup,
    _Level,
    _TopLevel,
    commutator_with,
    embedded_copy,
    free_factor,
    insert_and_close,
    intersect_with_gamma,
    join,
    lattices_intersect_trivially,
    quotient_invariants,
    quotient_order,
)

ABX = Alphabet(["x"])
ABXY = Alphabet(["x", "y"])
DATA = Path(__file__).resolve().parent.parent / "data"


def closure(amb, alphabet, words):
    els = [amb.element_of_word(parse_word(t, alphabet)) for t in words]
    return insert_and_close(None, amb, els)


def row_element(amb, row):
    """Oracle: the weight-cap element whose leading Lyndon coordinates are
    `row`, the product of the powers of the bracket elements (`subgroups`
    module docstring, "The top level")."""
    g = identity_element(amb.cap)
    for w, a in zip(amb.basis(amb.cap).words, row):
        g = g * amb.bracket_element(w) ** a
    return g


def every_element(sub):
    """Oracle: `sub.stored()` followed by (cap, row index, element) for each
    top row, so that the elements generate the subgroup."""
    amb = sub.ambient
    return sub.stored() + [
        (amb.cap, i, row_element(amb, row))
        for i, row in enumerate(sub.levels[-1].rows)
    ]


def all_pairs_closure(base, ambient, elements, normal):
    """Reference closure by all-pairs saturation, the normal closure when
    `normal` and the subgroup generated otherwise: passes re-sieve every
    product and inverse of the stored elements until one pass inserts
    nothing.  In normal mode each inserted residue also queues its
    conjugates by the generators and their inverses, and so does every
    stored element in each pass.  A base must be a normal closure."""
    sub = base.copy() if base is not None else FilteredSubgroup(ambient)
    cap = ambient.cap
    conjugators = ambient.generators + [x.inverse() for x in ambient.generators]
    queue = deque(elements)

    def process(g):
        res = sub.sieve(g)
        if res.member:
            return False
        r = res.residue
        m = r.weight()
        _, coords = ambient.leading_coordinates(r)
        queue.extend(sub.levels[m - 1].add(coords, r))
        if normal and m < cap:
            queue.extend(r.conjugate(t) for t in conjugators)
        return True

    while True:
        while queue:
            process(queue.popleft())
        stored = every_element(sub)
        for m, _, r in stored:
            if m < cap:
                queue.append(r.inverse())
                if normal:
                    queue.extend(r.conjugate(t) for t in conjugators)
        for m1, _, r in stored:
            for m2, _, s in stored:
                if m1 < cap or m2 < cap:
                    queue.append(r * s)
        dirty = False
        while queue:
            if process(queue.popleft()):
                dirty = True
        if not dirty:
            return sub


def all_pairs_commutator_with(u, v):
    """Reference [U, V]: normal closure of the commutators of every stored
    element of u with every stored element of v."""
    cap = u.ambient.cap
    elems = [
        a.commutator(b)
        for m1, _, a in u.stored()
        for m2, _, b in v.stored()
        if m1 + m2 <= cap
    ]
    return insert_and_close(None, u.ambient, elems)


def scratch_relator_closure(pres, amb):
    """Reference relator closure without a seed."""
    elems = [amb.element_of_word(r) for r in pres.relators]
    return insert_and_close(None, amb, elems)


def generator_pairing(u):
    """Reference [U, F] without a seed: the normal closure of every stored
    element of u commuted with every generator."""
    amb = u.ambient
    elems = [
        a.commutator(x)
        for m, _, a in u.stored()
        if m < amb.cap
        for x in amb.generators
    ]
    return insert_and_close(None, amb, elems)


def random_elements(rng, amb):
    """One to three random words of length one to four in the generators,
    with exponents in -2..3, as elements of amb."""
    els = []
    for _ in range(rng.randrange(1, 4)):
        g = identity_element(amb.cap)
        for _ in range(rng.randrange(1, 5)):
            x = amb.generators[rng.randrange(amb.n)]
            g = g * x ** rng.choice((-2, -1, 1, 2, 3))
        els.append(g)
    return els


RELATOR_SOURCES = sorted(p.name for p in DATA.glob("*.grp")) + ["D16", "D32", "D64"]


def relator_presentations(source):
    """The presentations behind one relator source: the group of a one-group
    file, both factors and the combined group of a file with an action, or
    the dihedral group D_order on a, b."""
    if source.startswith("D"):
        order = int(source[1:])
        text = f"group {source}\n  gen a b\n  rel a^{order // 2}, b^2, b^-1 a b a\nend\n"
    else:
        text = (DATA / source).read_text()
    parsed = parse_input_file(text)
    if parsed.action is None:
        return parsed.presentations
    spec = parsed.action
    return [spec.acted, spec.acting, build_semidirect(spec).combined]


@pytest.fixture
def amb22():
    return AmbientContext(2, 2)


class TestAmbient:
    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            AmbientContext(2, 3, monomial_budget=5)

    def test_full_group_is_saturated_and_full(self, amb22):
        full = free_factor(amb22, range(amb22.n), 1)
        assert all(level.is_full for level in full.levels)
        assert quotient_order(full) == 1

    def test_leading_coordinates(self, amb22):
        g = amb22.element_of_word(parse_word("[x,y]", ABXY))
        assert amb22.leading_coordinates(g) == (2, [1])

    def test_leading_content_is_the_coordinate_gcd(self):
        # The closure's queue key: the bracketings expand unitriangularly
        # over the Lyndon monomials, so the gcd of the leading coefficients
        # is the gcd of the leading Lyndon coordinates.
        # Products of powers of the degree-m bracketings, with a common
        # factor k in the exponents, times a random word of weight m + 1.
        rng = random.Random(3011)
        checked = 0
        while checked < 300:
            n = rng.randrange(1, 4)
            amb = AmbientContext(n, rng.randrange(2, 6 if n < 3 else 4))
            m = rng.randrange(1, amb.cap + 1)
            words = amb.basis(m).words
            k = rng.choice((1, 2, 6))
            g = identity_element(amb.cap)
            for w in rng.sample(words, min(len(words), 3)):
                g = g * amb.bracket_element(w) ** (k * rng.randrange(-3, 4))
            if m < amb.cap:
                h = random_elements(rng, amb)[0]
                for _ in range(m):
                    h = h.commutator(rng.choice(amb.generators))
                g = g * h
            if g.is_identity or g.weight() != m:
                continue
            _, coords = amb.leading_coordinates(g)
            assert math.gcd(*g.leading().values()) == math.gcd(*coords)
            checked += 1


class TestClosure:
    def test_conjugates_feed_higher_levels(self):
        # In the class-3 quotient the commutator relator's conjugates
        # populate degree 3 entirely.
        amb = AmbientContext(2, 3)
        u = closure(amb, ABXY, ["[x,y]"])
        assert u.levels[2].is_full


class TestSieve:
    def test_recipe_multiplies_out(self, amb22):
        u = closure(amb22, ABXY, ["x^2", "y^2", "[x,y]"])
        g = amb22.element_of_word(parse_word("x^2 y^2 [x,y]", ABXY))
        res = u.sieve(g)
        assert res.member
        elements = {(m, i): el for m, i, el in every_element(u)}
        out = identity_element(amb22.cap)
        for step, e in res.recipe:
            out = out * elements[step] ** e
        assert out == g

    def test_ambient_mismatch(self, amb22):
        u = closure(amb22, ABXY, ["x^2"])
        other = AmbientContext(2, 3)
        with pytest.raises(ValueError):
            u.sieve(other.element_of_word(parse_word("x", ABXY)))

    def test_rank_mismatch(self):
        # The full group contains gamma_1, so `contains` stops before it
        # sieves; the rank is checked first all the same.
        amb = AmbientContext(2, 3)
        full = free_factor(amb, range(amb.n), 1)
        with pytest.raises(ValueError, match="element rank does not match the ambient"):
            full.contains(AmbientContext(3, 3).generators[2])
        assert full.contains(identity_element(3))


class TestJoin:
    def test_contains_both(self, amb22):
        u = closure(amb22, ABXY, ["x^2"])
        v = closure(amb22, ABXY, ["y^2"])
        j = join(u, v)
        assert j.contains_all(u) and j.contains_all(v)

    def test_matches_closure_of_every_element(self):
        # v's top rows go into a copy of u before v's elements below the
        # cap are closed in; the reference closes every element of v.
        rng = random.Random(2617)
        for _ in range(40):
            n = rng.randrange(1, 4)
            amb = AmbientContext(n, rng.randrange(1, 6 if n < 3 else 4))
            u = insert_and_close(None, amb, random_elements(rng, amb))
            v = insert_and_close(None, amb, random_elements(rng, amb))
            for w in (v, commutator_with(v), free_factor(amb, [n - 1], 1)):
                got = join(u, w)
                want = insert_and_close(u, amb, [el for _, _, el in every_element(w)])
                assert [lv.rows for lv in got.levels] == [lv.rows for lv in want.levels]


class TestCommutator:
    def test_full_group_matches_all_pairs_reference(self):
        # Against the full group only the generators are paired; the
        # tower [U, F], [[U, F], F], ... must keep the all-pairs lattices.
        rng = random.Random(8191)
        for _ in range(40):
            n = rng.randrange(1, 4)
            cap = rng.randrange(2, 7 if n < 3 else 5)
            amb = AmbientContext(n, cap)
            full = free_factor(amb, range(n), 1)
            els = []
            for _ in range(rng.randrange(1, 4)):
                g = identity_element(amb.cap)
                for _ in range(rng.randrange(1, 5)):
                    x = amb.generators[rng.randrange(n)]
                    g = g * x ** rng.choice((-2, -1, 1, 2, 3))
                els.append(g)
            got = want = insert_and_close(None, amb, els)
            for _ in range(3):
                got = commutator_with(got)
                want = all_pairs_commutator_with(want, full)
                for m in range(1, cap + 1):
                    assert got.levels[m - 1].rows == want.levels[m - 1].rows


class TestGammaSlice:
    def test_klein_slice(self, amb22):
        r = closure(amb22, ABXY, ["x^2", "y^2", "[x,y]"])
        s = intersect_with_gamma(r, 2)
        assert s.levels[0].rows == []
        assert s.levels[1].is_full
        # Every stored element of weight >= 2 stays a member.
        for m, _, el in every_element(r):
            if m >= 2:
                assert s.contains(el)

    def test_degree_beyond_cap(self, amb22):
        with pytest.raises(ValueError):
            intersect_with_gamma(free_factor(amb22, range(amb22.n), 1), 3)


class TestQuotients:
    def test_containment_checked(self, amb22):
        small = closure(amb22, ABXY, ["x^4"])
        big = closure(amb22, ABXY, ["x^2"])
        with pytest.raises(ValueError, match="not contained"):
            quotient_invariants(small, big)

    def test_abelianness_checked(self):
        amb = AmbientContext(2, 3)
        full = insert_and_close(None, amb, amb.generators)
        with pytest.raises(ValueError, match="not abelian"):
            quotient_invariants(full, FilteredSubgroup(amb))


class TestOrder:
    def test_cross_check_with_abelian_invariants(self, amb22):
        rng = random.Random(7)
        for _ in range(25):
            rows = [
                [rng.randrange(-4, 5) for _ in range(2)]
                for _ in range(rng.randrange(0, 4))
            ]
            words = ["[x,y]"]
            for ex, ey in rows:
                text = " ".join(
                    p for p in (f"x^{ex}" if ex else "", f"y^{ey}" if ey else "")
                    if p
                )
                if text:
                    words.append(text)
            u = closure(amb22, ABXY, words)
            assert quotient_order(u) == abelian_invariants(2, rows).order()


class TestSaturation:
    def test_products_and_inverses_members(self, amb22):
        u = closure(amb22, ABXY, ["x^2", "y^3 x^2"])
        stored = [el for _, _, el in every_element(u)]
        for a in stored:
            assert u.contains(a.inverse())
            for b in stored:
                assert u.contains(a * b)

    def test_generator_conjugates_members(self, amb22):
        u = closure(amb22, ABXY, ["x^2 y^2"])
        for _, _, el in every_element(u):
            for x in amb22.generators:
                for t in (x, x.inverse()):
                    assert u.contains(el.conjugate(t))

    def test_matches_all_pairs_reference(self):
        rng = random.Random(4099)
        for _ in range(120):
            n = rng.randrange(1, 4)
            cap = rng.randrange(2, 6 if n < 3 else 4)
            amb = AmbientContext(n, cap)
            els = random_elements(rng, amb)
            got = insert_and_close(None, amb, els)
            want = all_pairs_closure(None, amb, els, True)
            for m in range(1, cap + 1):
                assert got.levels[m - 1].rows == want.levels[m - 1].rows
            stored = [el for _, _, el in every_element(got)]
            for a in stored:
                assert got.contains(a.inverse())
                for b in stored:
                    assert got.contains(a * b)
                for x in amb.generators:
                    assert got.contains(a.conjugate(x))
                    assert got.contains(a.conjugate(x.inverse()))

    @pytest.mark.parametrize("seed", [4129], ids=["normal_base"])
    def test_bases_given_new_elements_match_all_pairs_reference(self, seed):
        # A base, a normal closure, is taken as meeting its own
        # obligations; only the new elements' residues queue theirs.
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.randrange(1, 4)
            cap = rng.randrange(2, 6 if n < 3 else 4)
            amb = AmbientContext(n, cap)
            base = insert_and_close(None, amb, random_elements(rng, amb))
            els = random_elements(rng, amb)
            got = insert_and_close(base, amb, els)
            want = all_pairs_closure(base, amb, els, True)
            for m in range(1, cap + 1):
                assert got.levels[m - 1].rows == want.levels[m - 1].rows, (n, cap, m)

    @pytest.mark.parametrize("source", RELATOR_SOURCES)
    def test_relator_closures_match_all_pairs_reference(self, source):
        # The relator closures the pipeline builds, at the certified class
        # bound's cap k + 1 and at k + 2, keep the all-pairs lattices.
        for pres in relator_presentations(source):
            k = certified_class_bound(pres, 6).k
            for cap in (k + 1, k + 2):
                amb = AmbientContext(pres.rank, cap)
                got = relator_closure(pres.relators, amb)
                rels = [amb.element_of_word(r) for r in pres.relators]
                want = all_pairs_closure(None, amb, rels, True)
                for m in range(1, cap + 1):
                    assert got.levels[m - 1].rows == want.levels[m - 1].rows, (pres.name, cap, m)

    def test_levels_are_hermite_normal_forms(self):
        # Each level holds the unique Hermite form of its lattice: the batch
        # hnf of the rows, shuffled and padded with integer combinations of
        # them, gives them back.  Below the cap each row is its element's
        # leading coordinates.
        rng = random.Random(4201)
        for _ in range(40):
            n = rng.randrange(1, 4)
            cap = rng.randrange(2, 6 if n < 3 else 4)
            amb = AmbientContext(n, cap)
            sub = insert_and_close(None, amb, random_elements(rng, amb))
            for m, i, el in sub.stored():
                assert amb.leading_coordinates(el) == (m, sub.levels[m - 1].rows[i])
            for m in range(1, cap + 1):
                rows = sub.levels[m - 1].rows
                if not rows:
                    continue
                mixed = rows[:]
                for _ in range(3):
                    qs = [rng.randrange(-3, 4) for _ in rows]
                    mixed.append([sum(q * x for q, x in zip(qs, col)) for col in zip(*rows)])
                rng.shuffle(mixed)
                h, _ = hnf(mixed)
                assert rows == [row for row in h if any(row)]


class TestObligationCount:
    """Each inserted residue has its obligations checked once, at
    insertion, and no pass looks at the stored elements again: the
    commutators computed by a closure are exactly those obligations."""

    @staticmethod
    def count(monkeypatch, amb, elems):
        made, calls, owed = [], [0], [0]
        init, add = FilteredSubgroup.__init__, _Level.add
        commutator = GroupElement.commutator

        def counting_init(self, *args):
            init(self, *args)
            made.append(self)

        def counting_add(self, vec, elem):
            sub = next(u for u in made if any(lv is self for lv in u.levels))
            left = add(self, vec, elem)
            # The residue's obligations, against the full suffix after it.
            m, t = elem.weight(), sub.full_from()
            owed[0] += amb.n if m + 1 < t else 0
            return left

        def counting_commutator(self, other):
            calls[0] += 1
            return commutator(self, other)

        monkeypatch.setattr(FilteredSubgroup, "__init__", counting_init)
        monkeypatch.setattr(_Level, "add", counting_add)
        monkeypatch.setattr(GroupElement, "commutator", counting_commutator)
        insert_and_close(None, amb, elems)
        return calls[0], owed[0]

    def test_normal_closure_of_d16_relators(self, monkeypatch):
        amb = AmbientContext(2, 4)
        (pres,) = relator_presentations("D16")
        elems = [amb.element_of_word(r) for r in pres.relators]
        calls, owed = self.count(monkeypatch, amb, elems)
        assert owed > 0
        assert calls == owed


class TestCoordinateCount:
    """The sieve hands back its residue's leading coordinates, so a closure
    computes Lyndon coordinates once per level the sieve visits and never
    again for the residue it inserts."""

    def test_normal_closure_of_d16_relators(self, monkeypatch):
        amb = AmbientContext(2, 4)
        (pres,) = relator_presentations("D16")
        elems = [amb.element_of_word(r) for r in pres.relators]
        counts = {"coordinates": 0, "visits": 0, "inserts": 0}
        coordinates, solve, add = LyndonBasis.coordinates, subgroups.echelon_solve, _Level.add

        def counting(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        # The sieve solves against one level per visit, and only there.
        monkeypatch.setattr(LyndonBasis, "coordinates", counting("coordinates", coordinates))
        monkeypatch.setattr(subgroups, "echelon_solve", counting("visits", solve))
        monkeypatch.setattr(_Level, "add", counting("inserts", add))
        insert_and_close(None, amb, elems)
        assert counts["inserts"] > 0
        assert counts["coordinates"] == counts["visits"]

    def test_returned_coordinates_are_the_residues(self):
        rng = random.Random(4271)
        residues = 0
        for _ in range(40):
            n = rng.randrange(1, 4)
            cap = rng.randrange(2, 6 if n < 3 else 4)
            amb = AmbientContext(n, cap)
            sub = insert_and_close(None, amb, random_elements(rng, amb))
            for g in random_elements(rng, amb) + [x.commutator(y) for x in amb.generators
                                                  for y in amb.generators]:
                res = sub.sieve(g)
                if res.member:
                    assert res.residue is None and res.coords is None
                else:
                    residues += 1
                    assert (res.residue.weight(), res.coords) == amb.leading_coordinates(res.residue)
        assert residues > 0


class TestRelatorOrder:
    """A closure takes its queue by least leading content, so the order of
    its inputs sets neither its lattices nor, within 1.5x, its number of
    series products or the size of its stored elements' coefficients.  With
    a first-in, first-out queue, D64's relators at cap 8 took 33 s in
    written order and 1.2-2.5 s with b^2 or the twist relator first.  The
    product counts of the six orders stayed within 1.5x there; the largest
    stored coefficient ran from 1,105 to 11,630 bits (27 bits now)."""

    def test_d64_relators_in_every_order(self, monkeypatch):
        amb = AmbientContext(2, 8)
        (pres,) = relator_presentations("D64")
        elems = [amb.element_of_word(r) for r in pres.relators]
        products = [0]
        series_mul = TruncatedSeries.__mul__

        def counting_mul(self, other):
            products[0] += 1
            return series_mul(self, other)

        monkeypatch.setattr(TruncatedSeries, "__mul__", counting_mul)
        rows, counts, bits = [], [], []
        for order in itertools.permutations(elems):
            products[0] = 0
            sub = insert_and_close(None, amb, list(order))
            counts.append(products[0])
            rows.append([sub.levels[m - 1].rows for m in range(1, amb.cap + 1)])
            bits.append(max(
                abs(v).bit_length()
                for _, _, el in every_element(sub)
                for grade in el.series.grades
                for v in grade.values()
            ))
        assert all(r == rows[0] for r in rows)
        assert max(counts) <= 1.5 * min(counts), counts
        assert max(bits) <= 1.5 * min(bits), bits


class TestSeededClosure:
    """Working closures above the certificate's cap start from
    gamma_{k+1}, and towers over a full suffix from the next term; both
    must keep the lattices of the unseeded constructions."""

    @staticmethod
    def assert_same_rows(got, want, label):
        for m in range(1, got.ambient.cap + 1):
            assert got.levels[m - 1].rows == want.levels[m - 1].rows, (*label, m)

    @staticmethod
    def assert_contains_agrees_with_sieve(rng, sub):
        # Stored elements, products of two, random words, and one bracket
        # element per Lyndon word, whose weights reach the full suffix.
        amb = sub.ambient
        stored = [el for _, _, el in every_element(sub)]
        probes = stored + random_elements(rng, amb)
        if stored:
            probes += [rng.choice(stored) * rng.choice(stored) for _ in range(8)]
        probes += [
            amb.bracket_element(w)
            for m in range(1, amb.cap + 1)
            for w in lyndon_words(amb.n, m)
        ]
        for g in probes:
            assert sub.contains(g) == sub.sieve(g).member

    @pytest.mark.parametrize("source", RELATOR_SOURCES)
    def test_matches_unseeded_constructions(self, source):
        rng = random.Random(source)
        for pres in relator_presentations(source):
            cert = certified_class_bound(pres, 6)
            for c in (2, 3):
                cap = cert.k + c
                got = working_closure(cert, cap)
                label = (pres.name, cap)
                want = scratch_relator_closure(pres, AmbientContext(pres.rank, cap))
                self.assert_same_rows(got, want, label)
                self.assert_contains_agrees_with_sieve(rng, got)
                term = got
                for j in range(1, c + 1):
                    want = generator_pairing(term)
                    term = commutator_with(term)
                    self.assert_same_rows(term, want, (*label, j))
                    self.assert_contains_agrees_with_sieve(rng, term)


def iterated_tower(closure, c):
    """Oracle: [R, F, ..., F] with c copies of F, every term closed at R's
    own class, as `hopf_pair` built it before its terms were graded."""
    tower = closure
    for _ in range(c):
        tower = commutator_with(tower)
    return tower


# Groups beyond the relator sources whose towers are compared with the
# oracle: Q8, two abelian groups with unequal factors, D8 x Z2 on three
# generators, and the infinite free nilpotent group of class 2 and rank 2.
TOWER_GROUPS = {
    "Q8": (["a", "b"], ["a^4", "a^2 b^-2", "b^-1 a b a"]),
    "Z4xZ4": (["x", "y"], ["x^4", "y^4", "[x,y]"]),
    "Z6xZ4": (["x", "y"], ["x^6", "y^4", "[x,y]"]),
    "D8xZ2": (["a", "b", "z"], ["a^4", "b^2", "b^-1 a b a", "z^2", "[a,z]", "[b,z]"]),
    "N22": (["x", "y"], ["[[x,y],x]", "[[x,y],y]"]),
}


def tower_presentations(source):
    if source in TOWER_GROUPS:
        gens, rels = TOWER_GROUPS[source]
        return [make_presentation(source, gens, rels)]
    return relator_presentations(source)


class TestGradedTowers:
    """`hopf_pair` carries the first terms of the tower as unclosed seeds,
    one class up per step, closes them once and steps on with
    `commutator_with`; the j-th term lives at class W - c + j (`baer`
    module docstring, cut 4).  Its denominator must be the oracle's."""

    @staticmethod
    def assert_matches_oracle(closure, c, relators, label):
        want = iterated_tower(closure, c)
        _, got = hopf_pair(closure, c, relators)
        assert got.ambient is closure.ambient, label
        assert [lv.rows for lv in got.levels] == [lv.rows for lv in want.levels], label
        assert got.contains_all(want) and want.contains_all(got), label

    @pytest.mark.parametrize("source", RELATOR_SOURCES + sorted(TOWER_GROUPS))
    def test_matches_iterated_tower(self, source):
        for pres in tower_presentations(source):
            cert = certified_class_bound(pres, 6)
            for c in range(1, 5):
                closure = working_closure(cert, cert.k + c)
                # The written relators start the tower from their images
                # when they are fewer than R's stored elements; the longer
                # list never is, so R's stored elements start it.
                longer = pres.relators * (len(closure.stored()) + 1)
                for relators in (pres.relators, longer):
                    label = (pres.name, c, len(relators))
                    self.assert_matches_oracle(closure, c, relators, label)

    @pytest.mark.parametrize("source", ["d8.grp", "D16"] + sorted(TOWER_GROUPS))
    def test_matches_iterated_tower_above_the_least_class_bound(self, source):
        # At the least certified k, R is full from level k + 1 and the
        # lower-central seed of the first closure is trivial; two classes
        # above it, the seed gamma_{t+j} is not.
        for pres in tower_presentations(source):
            k = certified_class_bound(pres, 6).k
            cert = verify_class_bound(pres, k + 2)
            for c in range(1, 4):
                closure = working_closure(cert, cert.k + c)
                assert closure.full_from() <= cert.k, (pres.name, c)
                longer = pres.relators * (len(closure.stored()) + 1)
                for relators in (pres.relators, longer):
                    label = (pres.name, c, len(relators))
                    self.assert_matches_oracle(closure, c, relators, label)

    # Reach rungs beyond the relator sources; D64 at c = 3, the third, is
    # already a case of `test_matches_iterated_tower`.
    @pytest.mark.parametrize("name, gens, rels, c", [
        ("D128", ["a", "b"], ["a^64", "b^2", "b^-1 a b a"], 3),
        ("D32xZ2", ["a", "b", "z"],
         ["a^16", "b^2", "b^-1 a b a", "z^2", "[a,z]", "[b,z]"], 2),
    ], ids=["D128_c3", "D32xZ2_c2"])
    def test_reach_rungs_match_iterated_tower(self, name, gens, rels, c):
        pres = make_presentation(name, gens, rels)
        cert = certified_class_bound(pres, 7)
        closure = working_closure(cert, cert.k + c)
        self.assert_matches_oracle(closure, c, pres.relators, (name, c))

    def test_steps_climb_one_class_each(self, monkeypatch):
        # D16 (k = 3) at c = 3, W = 6: four seeds at class 4 are fewer than
        # R's five stored elements below its full suffix, eight at class 5
        # are not; so one closure at class 5, then one step to class 6.
        (pres,) = relator_presentations("D16")
        cert = certified_class_bound(pres, 6)
        assert cert.k == 3
        closure = working_closure(cert, 6)
        closed, steps, made = [], [], []
        close, step, init = baer._close_in_place, baer.commutator_with, AmbientContext.__init__

        def recording_close(seed, elements):
            closed.append(seed.ambient.cap)
            return close(seed, elements)

        def recording_step(u, ambient=None):
            steps.append((u.ambient.cap, ambient.cap))
            return step(u, ambient)

        def recording_init(self, *args):
            init(self, *args)
            made.append(self.cap)

        monkeypatch.setattr(baer, "_close_in_place", recording_close)
        monkeypatch.setattr(baer, "commutator_with", recording_step)
        monkeypatch.setattr(AmbientContext, "__init__", recording_init)
        hopf_pair(closure, 3, pres.relators)
        assert closed == [5]
        assert steps == [(5, 6)]
        assert made == [5]  # the carried class 4 needs its letters only

    def test_first_step_pairs_the_smaller_generating_set(self, monkeypatch):
        # D16 at class 5, c = 2: three relators against R's stored elements.
        (pres,) = relator_presentations("D16")
        closure = working_closure(certified_class_bound(pres, 6), 5)
        words = []
        word_element = baer._word_element

        def recording(word, generators, cap):
            words.append(word)
            return word_element(word, generators, cap)

        monkeypatch.setattr(baer, "_word_element", recording)
        _, fewer = hopf_pair(closure, 2, pres.relators)
        assert words == list(pres.relators)
        _, more = hopf_pair(closure, 2, pres.relators * len(closure.stored()))
        assert len(words) == len(pres.relators)
        assert [lv.rows for lv in fewer.levels] == [lv.rows for lv in more.levels]

    def test_refuses_an_ambient_two_classes_up_or_of_another_rank(self):
        u = working_closure(certified_class_bound(relator_presentations("D16")[0], 6), 4)
        for amb in (AmbientContext(2, 6), AmbientContext(3, 5), AmbientContext(3, 4)):
            with pytest.raises(ValueError, match="u's class or one above"):
                commutator_with(u, amb)

    def test_refuses_an_ambient_a_class_below(self):
        u = working_closure(certified_class_bound(relator_presentations("D16")[0], 6), 5)
        for cap in (4, 3):
            with pytest.raises(ValueError, match="u's class or one above"):
                commutator_with(u, AmbientContext(2, cap))


def level_snapshot(sub):
    """Copies of every level's rows, and every element."""
    return [[row[:] for row in level.rows] for level in sub.levels], every_element(sub)


class TestSharedLevels:
    """`intersect_with_gamma` hands a Hopf closure's levels to its
    numerator, and a level's copy shares its rows, so nothing built from a
    subgroup may change it: not the certificate's closure and not the
    working closure.  Lower-central seeds are built afresh by `free_factor`
    and held by no ambient.  The slice closure at the end writes to copies
    of levels that are not full."""

    def test_builds_leave_their_sources(self, monkeypatch):
        (pres,) = relator_presentations("D16")
        cert = certified_class_bound(pres, 6)
        closure_before = level_snapshot(cert.closure)
        made = [cert.closure.ambient]  # every ambient the builds make
        init = AmbientContext.__init__

        def recording(self, *args):
            init(self, *args)
            made.append(self)

        monkeypatch.setattr(AmbientContext, "__init__", recording)
        baer_invariant(cert, 3)
        working = working_closure(cert, cert.k + 3)
        working_before = level_snapshot(working)
        term = working
        for _ in range(3):
            term = commutator_with(term)
        amb = cert.closure.ambient
        ab = amb.generators[0].commutator(amb.generators[1])
        grown = insert_and_close(intersect_with_gamma(cert.closure, 2), amb, [ab])
        assert grown.contains(ab) and not cert.closure.contains(ab)
        assert level_snapshot(cert.closure) == closure_before
        assert level_snapshot(working) == working_before
        assert len(made) > 2  # the tower steps' ambients and the working one
        for a in made:
            assert not any(isinstance(v, FilteredSubgroup) for v in vars(a).values())


class TestFreeFactor:
    """A free factor is stored without a closure: at each degree from
    `degree` on, the unit rows of the Lyndon words over its letters."""

    def test_matches_all_pairs_reference(self):
        # The reference is the subgroup generated by the bracketings of the
        # Lyndon words over the letters, closed by all-pairs saturation.
        rng = random.Random(4139)
        for _ in range(40):
            n = rng.randrange(1, 4)
            cap = rng.randrange(1, 6 if n < 3 else 4)
            amb = AmbientContext(n, cap)
            letters = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
            degree = rng.randrange(1, cap + 2)  # cap + 1: the empty seed
            elems = [
                amb.bracket_element(tuple(letters[i] for i in w))
                for m in range(degree, cap + 1)
                for w in lyndon_words(len(letters), m)
            ]
            got = free_factor(amb, letters, degree)
            want = all_pairs_closure(None, amb, elems, False)
            for m in range(1, cap + 1):
                rows = got.levels[m - 1].rows
                assert rows == want.levels[m - 1].rows, (n, cap, letters, degree, m)
            for m, i, el in got.stored():
                assert amb.leading_coordinates(el) == (m, got.levels[m - 1].rows[i])

    def test_lattice_meet_refuses_another_ambient(self):
        amb = AmbientContext(2, 3)
        full = free_factor(amb, range(amb.n), 1)
        for other in (AmbientContext(2, 2), AmbientContext(3, 3)):
            with pytest.raises(ValueError, match="ambient mismatch"):
                lattices_intersect_trivially(full, free_factor(other, range(other.n), 1))


class TestEmbedding:
    def test_embedded_subgroup(self):
        target = AmbientContext(3, 2)
        sub = AmbientContext(1, 2)
        u = closure(sub, ABX, ["x^2"])
        e = embedded_copy(u, target, 2)
        abz = Alphabet(["a", "b", "z"])
        assert e.contains(target.element_of_word(parse_word("z^2", abz)))
        assert not e.contains(target.element_of_word(parse_word("a", abz)))

    def test_matches_closure_of_every_element(self):
        # Top rows map through the shifted Lyndon words; the reference
        # closes the shifted elements of every row, top ones too.
        rng = random.Random(2621)
        for _ in range(40):
            n = rng.randrange(1, 3)
            cap = rng.randrange(1, 5)
            offset = rng.randrange(0, 3)
            amb = AmbientContext(n, cap)
            target = AmbientContext(n + offset + rng.randrange(0, 2), cap)
            u = insert_and_close(None, amb, random_elements(rng, amb))
            for w in (u, commutator_with(u)):
                got = embedded_copy(w, target, offset)
                want = insert_and_close(None, target, [
                    reindex_element(el, offset, target.n) for _, _, el in every_element(w)
                ])
                assert [lv.rows for lv in got.levels] == [lv.rows for lv in want.levels]

    def test_refuses_letters_past_the_target(self):
        amb = AmbientContext(2, 2)
        u = free_factor(amb, range(amb.n), 1)
        with pytest.raises(ValueError, match="exceeds the target alphabet"):
            embedded_copy(u, AmbientContext(3, 2), 2)

    def test_free_factors_meet_trivially(self):
        target = AmbientContext(3, 3)
        left = free_factor(target, [0, 2], 1)
        assert lattices_intersect_trivially(left, free_factor(target, [1], 1))
        assert not lattices_intersect_trivially(left, left)
        assert not lattices_intersect_trivially(left, free_factor(target, [1, 2], 1))


class TestEquality:
    """`equal_as_subgroup` compares rows, then checks one inclusion."""

    def test_equal_rows_unequal_subgroups(self, amb22):
        # Both have rows [2, 0] and [2], yet x^2 [x, y] sieves in ncl(x^2)
        # to [x, y], whose coordinate 1 is not in 2Z; so the inclusion
        # may never be skipped when the rows agree.
        u = closure(amb22, ABXY, ["x^2 [x,y]"])
        v = closure(amb22, ABXY, ["x^2"])
        assert all(a.rows == b.rows for a, b in zip(u.levels, v.levels))
        assert not u.equal_as_subgroup(v)
        assert not v.equal_as_subgroup(u)

    def test_other_generators_same_subgroup(self, amb22):
        # [x^2 [x, y], y] = [x, y]^2 at cap 2, so x^2 [x, y]^3 lies in the
        # first closure and x^2 [x, y] in the second; the stored elements
        # differ at degree 1.
        u = closure(amb22, ABXY, ["x^2 [x,y]"])
        w = closure(amb22, ABXY, ["x^2 [x,y]^3"])
        assert u.levels[0].elems != w.levels[0].elems
        assert u.equal_as_subgroup(w) and w.equal_as_subgroup(u)

    def test_ambient_mismatch(self, amb22):
        other = AmbientContext(2, 3)
        with pytest.raises(ValueError, match="ambient mismatch"):
            free_factor(amb22, range(amb22.n), 1).equal_as_subgroup(
                free_factor(other, range(other.n), 1)
            )


class TaggedTop(_Level):
    """Oracle top level, tagged like the levels below it: its inserts run
    `hermite_insert` with the realizing elements as tags, series products
    and powers included.  A row inserted without its element (`join`,
    `embedded_copy`) is tagged by the element of the row."""

    def __init__(self, ambient):
        super().__init__(len(ambient.basis(ambient.cap)))
        self.ambient = ambient

    def copy(self):
        out = TaggedTop(self.ambient)
        out.rows, out.elems = self.rows[:], self.elems[:]
        return out

    def add(self, vec, elem=None):
        return super().add(vec, row_element(self.ambient, vec) if elem is None else elem)


def tagged_free_factor(ambient, letters, degree):
    """`free_factor` storing the bracket elements at every degree, the top
    one included."""
    keep = set(letters)
    sub = FilteredSubgroup(ambient)
    for m in range(degree, ambient.cap + 1):
        level = sub.levels[m - 1]
        for j, w in enumerate(ambient.basis(m).words):
            if keep.issuperset(w):
                row = [0] * level.dim
                row[j] = 1
                level.rows.append(row)
                level.elems.append(ambient.bracket_element(w))
    return sub


def tagged_top_level(monkeypatch):
    """Oracle: the top level a `TaggedTop`, so top inserts run
    `hermite_insert` with the realizing elements as tags, and free factors
    store bracket elements at the top."""

    def init(self, ambient):
        self.ambient = ambient
        self.levels = [_Level(len(basis)) for basis in ambient.bases[:-1]]
        self.levels.append(TaggedTop(ambient))

    monkeypatch.setattr(FilteredSubgroup, "__init__", init)
    monkeypatch.setattr(subgroups, "free_factor", tagged_free_factor)
    monkeypatch.setattr(baer, "free_factor", tagged_free_factor)


def assert_tags_are_row_elements(sub):
    """Every tag of a tagged top level is the element its row determines
    (`subgroups` module docstring, "The top level")."""
    top = sub.levels[-1]
    assert top.elems == [row_element(sub.ambient, row) for row in top.rows]


class TestTopLevel:
    """The degree-cap level keeps rows only and gives the rows of the
    tagged level (`subgroups` module docstring, "The top level")."""

    @staticmethod
    def builds(source):
        """Relator closures at k + 1 .. k + 3, the towers over them, the
        Hopf numerators and a join of each tower with its numerator."""
        out = []
        for pres in relator_presentations(source):
            cert = certified_class_bound(pres, 6)
            out.append(cert.closure)
            for c in (1, 2, 3):
                numerator, tower = hopf_pair(
                    working_closure(cert, cert.k + c), c, pres.relators
                )
                out += [numerator, tower, join(tower, numerator)]
        return out

    @pytest.mark.parametrize("source", RELATOR_SOURCES)
    def test_matches_tagged_top_level(self, source, monkeypatch):
        got = self.builds(source)
        with monkeypatch.context() as mp:
            tagged_top_level(mp)
            want = self.builds(source)
        assert isinstance(got[0].levels[-1], _TopLevel)
        assert isinstance(want[0].levels[-1], TaggedTop)
        for j, (g, w) in enumerate(zip(got, want)):
            assert [lv.rows for lv in g.levels] == [lv.rows for lv in w.levels], j
            assert_tags_are_row_elements(w)

    def test_seeded_random_closures_and_joins(self, monkeypatch):
        rng = random.Random(2531)
        for _ in range(30):
            n = rng.randrange(1, 4)
            cap = rng.randrange(1, 6 if n < 3 else 4)
            probe = AmbientContext(n, cap)
            els, more = random_elements(rng, probe), random_elements(rng, probe)
            runs = []
            for tagged in (False, True):
                with monkeypatch.context() as mp:
                    if tagged:
                        tagged_top_level(mp)
                    amb = AmbientContext(n, cap)
                    u = insert_and_close(None, amb, els)
                    v = insert_and_close(None, amb, more)
                    runs.append([u, join(u, v), commutator_with(join(v, u))])
            for g, w in zip(*runs):
                assert [lv.rows for lv in g.levels] == [lv.rows for lv in w.levels]
                assert_tags_are_row_elements(w)

    def test_top_inserts_do_no_series_arithmetic(self, monkeypatch):
        # D64's relators at cap 7: more top inserts than top rows, so some
        # divided off or merged, which costs tagged rows a series product
        # and power each.  Untagged, no insert may multiply or raise one.
        calls = {"inserts": 0, "mul": 0, "pow": 0}
        inside = [False]
        add = _TopLevel.add
        series_mul, element_pow = TruncatedSeries.__mul__, GroupElement.__pow__

        def counting_add(self, vec, elem):
            calls["inserts"] += 1
            inside[0] = True
            try:
                return add(self, vec, elem)
            finally:
                inside[0] = False

        def counting_mul(self, other):
            calls["mul"] += inside[0]
            return series_mul(self, other)

        def counting_pow(self, e):
            calls["pow"] += inside[0]
            return element_pow(self, e)

        monkeypatch.setattr(_TopLevel, "add", counting_add)
        monkeypatch.setattr(TruncatedSeries, "__mul__", counting_mul)
        monkeypatch.setattr(GroupElement, "__pow__", counting_pow)
        amb = AmbientContext(2, 7)
        (pres,) = relator_presentations("D64")
        sub = relator_closure(pres.relators, amb)
        assert calls["inserts"] > len(sub.levels[-1].rows)
        assert calls["mul"] == calls["pow"] == 0

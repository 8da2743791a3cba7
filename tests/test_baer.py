import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from baerkit.baer import (
    baer_invariant,
    certified_class_bound,
    detect_class,
    verify_class_bound,
    working_closure,
)
from baerkit.errors import CertificateError
from baerkit.intlinalg import AbelianInvariants
from baerkit.presentations import Presentation, Word, parse_input_file
from baerkit.selftest import (
    cyclic,
    dihedral8,
    free_abelian,
    klein,
    klein_redundant,
    make_presentation,
)
from baerkit.subgroups import quotient_order

DATA = Path(__file__).resolve().parent.parent / "data"


class TestClassBound:
    def test_dihedral_class_two(self):
        assert not verify_class_bound(dihedral8(), 1).ok
        res = verify_class_bound(dihedral8(), 2)
        assert res.ok and res.order == 8

    def test_certificate_is_read_off_its_closure(self):
        # D16 has class 3, so k = 2 fails, and the class-3 quotient is D16.
        d16 = make_presentation("D16", ["a", "b"], ["a^8", "b^2", "b^-1 a b a"])
        cert = verify_class_bound(d16, 2)
        assert cert._fields == ("closure", "presentation")
        assert cert.k == 2 and cert.ok is False
        assert cert.order == 16 == quotient_order(cert.closure)
        with pytest.raises(ValueError):
            cert._replace(ok=True)
        with pytest.raises(
            CertificateError,
            match=r"^class bound k=2 fails for 'D16': degree-3 lattice is not full$",
        ):
            working_closure(cert, 4)

    def test_free_group_never_certifies(self):
        free2 = make_presentation("free2", ["x", "y"], [])
        for k in (1, 2, 3):
            assert not verify_class_bound(free2, k).ok


class TestDetectClass:
    def test_free_group_undetermined(self):
        assert detect_class(make_presentation("f2", ["x", "y"], []), 4) is None

    def test_infinite_stops_at_first_infinite_quotient(self):
        assert detect_class(free_abelian(3), 6) is None

    def test_infinite_abelian_undetermined_but_certified(self):
        zz = free_abelian(2)
        assert detect_class(zz, 3) is None
        assert certified_class_bound(zz, 3).k == 1

    def test_both_searches_agree_on_finite_groups(self):
        # One loop behind both names: on a finite group the stop at an
        # infinite quotient never fires, so the certificates are equal.
        checked = 0
        for path in sorted(DATA.glob("*.grp")):
            for pres in parse_input_file(path.read_text()).presentations:
                want = certified_class_bound(pres, 6)
                if want.order is None:
                    continue
                got = detect_class(pres, 6)
                assert (got.k, got.ok, got.order) == (want.k, want.ok, want.order), (
                    path.name, pres.name)
                assert got.presentation == want.presentation
                assert [lv.rows for lv in got.closure.levels] == [
                    lv.rows for lv in want.closure.levels
                ], (path.name, pres.name)
                checked += 1
        assert checked == 11


class TestBaerInvariant:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_cyclic_trivial(self, m):
        for c in (1, 2, 3):
            assert baer_invariant(verify_class_bound(cyclic(m), 1), c) == AbelianInvariants(0)

    def test_dihedral_multiplier(self):
        got = baer_invariant(verify_class_bound(dihedral8(), 2), 1)
        assert got == AbelianInvariants(0, (2,))

    def test_wrong_bound_raises(self):
        with pytest.raises(CertificateError):
            baer_invariant(verify_class_bound(dihedral8(), 1), 1)

    def test_job_validation(self):
        with pytest.raises(ValueError):
            baer_invariant(verify_class_bound(klein(), 1), 0)

    def test_working_closure_refuses_failed_certificate_at_its_cap(self):
        # At c = 1 the working closure is the certificate's own.
        with pytest.raises(CertificateError, match="degree-2 lattice is not full"):
            working_closure(verify_class_bound(dihedral8(), 1), 2)

    def test_working_closure_refuses_cap_below_certificate(self):
        with pytest.raises(ValueError):
            working_closure(verify_class_bound(dihedral8(), 2), 2)


def witt(n, m):
    """Witt's formula: (1/m) sum over d | m of mu(d) n^(m/d), the number of
    basic commutators of weight m on n letters."""

    def mobius(d):
        out, p = 1, 2
        while p * p <= d:
            if d % p == 0:
                d //= p
                if d % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if d > 1 else out

    return sum(mobius(d) * n ** (m // d) for d in range(1, m + 1) if m % d == 0) // m


@st.composite
def divisor_chains(draw):
    """n_1, ..., n_r with r <= 3, n_r in 2..4 and n_i / n_{i+1} in 1..3."""
    chain = [draw(st.integers(2, 4))]
    for _ in range(draw(st.integers(0, 2))):
        chain.insert(0, chain[0] * draw(st.integers(1, 3)))
    return chain


class TestBurnsEllis:
    """Burns and Ellis (Math. Z. 226, 1997): for a finite abelian group
    Z_{n_1} + ... + Z_{n_r} with n_{i+1} | n_i, the c-nilpotent multiplier
    is the sum over i >= 2 of Z_{n_i}^(w(i, c+1) - w(i-1, c+1)), w the
    Witt number."""

    @staticmethod
    def expected(chain, c):
        torsion = []
        for i in range(2, len(chain) + 1):
            torsion += [chain[i - 1]] * (witt(i, c + 1) - witt(i - 1, c + 1))
        return AbelianInvariants(0, tuple(sorted(torsion)))

    @staticmethod
    def abelian(chain):
        gens = [f"x{i}" for i in range(1, len(chain) + 1)]
        rels = [f"{g}^{n}" for g, n in zip(gens, chain)]
        rels += [
            f"[{gens[i]},{gens[j]}]"
            for i in range(len(gens)) for j in range(i + 1, len(gens))
        ]
        return make_presentation("abelian", gens, rels)

    def test_witt_formula(self):
        assert [witt(2, m) for m in range(1, 7)] == [2, 1, 2, 3, 6, 9]
        assert [witt(3, m) for m in range(1, 5)] == [3, 3, 8, 18]

    @pytest.mark.parametrize("chain, c, torsion", [
        ((2, 2, 2), 3, (2,) * 18),
        ((2, 2, 2, 2), 2, (2,) * 20),
        ((4, 4), 3, (4,) * 3),
    ])
    def test_checked_by_hand(self, chain, c, torsion):
        assert self.expected(chain, c) == AbelianInvariants(0, torsion)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(chain=divisor_chains(), c=st.integers(1, 3))
    def test_matches_engine(self, chain, c):
        got = baer_invariant(verify_class_bound(self.abelian(chain), 1), c)
        assert got == self.expected(chain, c)

    @pytest.mark.parametrize("chain, c", [
        ((4, 2), 1), ((4, 2), 2), ((8, 4, 2), 2), ((4, 4), 3),
        ((6, 2), 2), ((9, 3), 2), ((4, 2, 2), 3),
    ])
    def test_chains_checked_before(self, chain, c):
        got = baer_invariant(verify_class_bound(self.abelian(chain), 1), c)
        assert got == self.expected(chain, c)

    @pytest.mark.parametrize("chain, c", [((2, 2), 8), ((2, 2), 10), ((2, 2, 2), 6)])
    def test_deep_towers(self, chain, c):
        # Five to nine graded tower steps (`subgroups` module docstring,
        # item 7) against the closed formula.
        got = baer_invariant(verify_class_bound(self.abelian(chain), 1), c)
        assert got == self.expected(chain, c)


class TestIndependence:
    @staticmethod
    def invariants(p1, p2, c):
        return [baer_invariant(verify_class_bound(p, 1), c) for p in (p1, p2)]

    def test_redundant_generator_presentation(self):
        for c in (1, 2):
            first, second = self.invariants(klein(), klein_redundant(), c)
            assert first == second

    def test_reflexive(self):
        first, second = self.invariants(klein(), klein(), 1)
        assert first == second


class TestFreeNilpotent:
    """N_{n,k} = F/gamma_{k+1}F, presented by the left-normed weight-(k+1)
    commutators of the letters, has R = gamma_{k+1}F.  So M^(c) is
    gamma_{max(k,c)+1}F / gamma_{k+c+1}F, free abelian of rank the sum of
    witt(n, m) over max(k, c) < m <= k + c."""

    @staticmethod
    def presentation(n, k):
        gens = [f"x{i}" for i in range(1, n + 1)]
        rels = []
        for letters in itertools.product(gens, repeat=k + 1):
            word = letters[0]
            for x in letters[1:]:
                word = f"[{word},{x}]"
            rels.append(word)
        return make_presentation(f"N{n}{k}", gens, rels)

    @pytest.mark.parametrize("n, k, ranks", [
        (2, 2, (2, 5, 9)), (2, 3, (3, 9, 18)), (3, 2, (8, 26, 66)),
    ])
    def test_multipliers_are_free_abelian(self, n, k, ranks):
        cert = verify_class_bound(self.presentation(n, k), k)
        assert cert.ok
        for c, rank in enumerate(ranks, start=1):
            assert sum(witt(n, m) for m in range(max(k, c) + 1, k + c + 1)) == rank
            assert baer_invariant(cert, c) == AbelianInvariants(rank)


def nielsen(rng, rels, ab):
    """x_i -> x_i x_j^(+-1) on every relator, an automorphism of F."""
    i, j = rng.sample(range(len(ab)), 2)
    image = Word(ab, [(i, 1), (j, rng.choice((1, -1)))])
    images = {(i, 1): image, (i, -1): image.inverse()}
    out = []
    for r in rels:
        word = Word(ab)
        for letter in r.letters:
            word = word * images.get(letter, Word(ab, [letter]))
        out.append(word)
    return out


def conjugate(rng, rels, ab):
    k = rng.randrange(len(rels))
    x = Word(ab, [(rng.randrange(len(ab)), rng.choice((1, -1)))])
    return rels[:k] + [x.inverse() * rels[k] * x] + rels[k + 1:]


def multiply(rng, rels, ab):
    k, l = rng.sample(range(len(rels)), 2)
    return rels[:k] + [rels[k] * rels[l] ** rng.choice((1, -1))] + rels[k + 1:]


def reorder(rng, rels, ab):
    return rng.sample(rels, len(rels))


def invert(rng, rels, ab):
    k = rng.randrange(len(rels))
    return rels[:k] + [rels[k].inverse()] + rels[k + 1:]


# The written presentations the moves start from; N22 is infinite.
MOVED_GROUPS = {
    "D8": (["a", "b"], ["a^4", "b^2", "a^-1 a^-1 [b,a]"]),
    "Q8": (["a", "b"], ["a^4", "a^2 b^-2", "b^-1 a b a"]),
    "D16": (["a", "b"], ["a^8", "b^2", "b^-1 a b a"]),
    "Z4xZ4": (["x", "y"], ["x^4", "y^4", "[x,y]"]),
    "D8xZ2": (["a", "b", "z"], ["a^4", "b^2", "b^-1 a b a", "z^2", "[a,z]", "[b,z]"]),
    "N22": (["x", "y"], ["[[x,y],x]", "[[x,y],y]"]),
    "D64": (["a", "b"], ["a^32", "b^2", "b^-1 a b a"]),
    "D16xZ2": (["a", "b", "z"], ["a^8", "b^2", "b^-1 a b a", "z^2", "[a,z]", "[b,z]"]),
}


class TestPresentationMoves:
    """Each move keeps the presented group up to isomorphism, and the class
    bound and the Baer invariants are isomorphism invariants.  The moved
    relators of D64 and D16 x Z2 are fewer than R's stored elements, so
    their images start the Hopf towers (`baer.hopf_pair`).  About 4 s."""

    @pytest.mark.parametrize("name", sorted(MOVED_GROUPS))
    def test_moves_keep_class_bound_and_invariants(self, name):
        written = make_presentation(name, *MOVED_GROUPS[name])
        cert = certified_class_bound(written, 6)
        want = [baer_invariant(cert, c) for c in (1, 2, 3)]
        moves = (nielsen, conjugate, multiply, reorder, invert)
        for seed in range(10):
            rng = random.Random(seed)
            rels = list(written.relators)
            for _ in range(rng.randint(1, 7)):
                rels = rng.choice(moves)(rng, rels, written.alphabet)
            moved = Presentation(name, written.alphabet, tuple(rels))
            got = certified_class_bound(moved, 6)
            assert got.k == cert.k, (seed, rels)
            assert [baer_invariant(got, c) for c in (1, 2, 3)] == want, (seed, rels)

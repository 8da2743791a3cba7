import pytest

from baerkit.baer import (
    BaerJob,
    baer_invariant,
    certified_class_bound,
    check_presentation_independence,
    detect_class,
    verify_class_bound,
)
from baerkit.errors import CertificateError
from baerkit.intlinalg import AbelianInvariants
from baerkit.lyndon import witt_dimension
from baerkit.selftest import (
    cyclic,
    dihedral8,
    free_abelian,
    klein,
    klein_redundant,
    make_presentation,
)


class TestClassBound:
    def test_abelian_certificates(self):
        assert verify_class_bound(klein(), 1).ok
        assert verify_class_bound(free_abelian(2), 1).ok

    def test_dihedral_class_two(self):
        assert not verify_class_bound(dihedral8(), 1).ok
        res = verify_class_bound(dihedral8(), 2)
        assert res.ok and res.order == 8

    def test_fail_reports_degree(self):
        res = verify_class_bound(dihedral8(), 1)
        assert res.fail_degree == 2

    def test_free_group_never_certifies(self):
        free2 = make_presentation("free2", ["x", "y"], [])
        for k in (1, 2, 3):
            assert not verify_class_bound(free2, k).ok


class TestDetectClass:
    def test_dihedral(self):
        assert detect_class(dihedral8(), 4).k == 2

    def test_klein(self):
        assert detect_class(klein(), 4).k == 1

    def test_free_group_undetermined(self):
        assert detect_class(make_presentation("f2", ["x", "y"], []), 4) is None

    def test_infinite_stops_at_first_infinite_quotient(self):
        assert detect_class(free_abelian(3), 6) is None

    def test_infinite_abelian_undetermined_but_certified(self):
        zz = free_abelian(2)
        assert detect_class(zz, 3) is None
        assert certified_class_bound(zz, 3).k == 1


class TestBaerInvariant:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_cyclic_trivial(self, m):
        for c in (1, 2, 3):
            assert baer_invariant(BaerJob(cyclic(m), c, 1)).is_trivial

    def test_multiplier_of_free_abelian_rank_two(self):
        assert baer_invariant(BaerJob(free_abelian(2), 1, 1)) == AbelianInvariants(1)

    def test_klein_values(self):
        assert baer_invariant(BaerJob(klein(), 1, 1)) == AbelianInvariants(0, (2,))
        assert baer_invariant(BaerJob(klein(), 2, 1)) == AbelianInvariants(0, (2, 2))

    def test_dihedral_multiplier(self):
        assert baer_invariant(BaerJob(dihedral8(), 1, 2)) == AbelianInvariants(0, (2,))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_free_abelian_witt_rank(self, n, c):
        inv = baer_invariant(BaerJob(free_abelian(n), c, 1))
        assert inv == AbelianInvariants(witt_dimension(n, c + 1))

    def test_wrong_bound_raises(self):
        with pytest.raises(CertificateError):
            baer_invariant(BaerJob(dihedral8(), 1, 1))

    def test_truncation_exactness(self):
        # A larger certified bound computes at a higher cap; results agree.
        for pres, c in [(klein(), 1), (klein(), 2), (free_abelian(2), 2)]:
            a = baer_invariant(BaerJob(pres, c, 1))
            b = baer_invariant(BaerJob(pres, c, 2))
            assert a == b

    def test_job_validation(self):
        with pytest.raises(ValueError):
            BaerJob(klein(), 0, 1)


class TestIndependence:
    def test_redundant_generator_presentation(self):
        for c in (1, 2):
            rep = check_presentation_independence(klein(), klein_redundant(), c, 1)
            assert rep.agree
            assert rep.first == rep.second

    def test_reflexive(self):
        rep = check_presentation_independence(klein(), klein(), 1, 1)
        assert rep.agree

    def test_degenerate_agreement_of_cyclic_groups(self):
        # Different groups, but rank-1 numerators are trivial either way.
        rep = check_presentation_independence(cyclic(2), cyclic(3), 1, 1)
        assert rep.agree

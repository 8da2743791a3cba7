"""Acceptance suite: one test per criterion, each printing a verdict line.

Every expected value is exact (integer invariants), frozen from the stated
oracles: hand collection at small caps, the Witt formula, brute-force
enumeration, and classical multiplier values.  Timing limits are part of
the criteria and asserted as stated.
"""

import time

import pytest

from baerkit.baer import baer_invariant, verify_class_bound
from baerkit.cli import main
from baerkit.intlinalg import AbelianInvariants
from baerkit.selftest import (
    SEMIDIRECT_SUITE,
    iter_checks,
    klein,
    klein_redundant,
    multiplier_table,
    suite_case,
)
from baerkit.semidirect import verify_direct_factor
from baerkit.subgroups import DEFAULT_MONOMIAL_BUDGET

T = AbelianInvariants


def _verdict(name, ok):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {name} failed"


@pytest.fixture(scope="module")
def suite_reports():
    """Decomposition reports for the five-example suite at c in {1, 2}."""
    t0 = time.monotonic()
    reports = {}
    for name in SEMIDIRECT_SUITE:
        sp, cert = suite_case(name)
        for c in (1, 2):
            reports[(name, c)] = verify_direct_factor(sp, c, cert)
    reports["elapsed"] = time.monotonic() - t0
    return reports


def test_criterion_1_multiplier_table():
    ok = True
    for name, pres, c, k, expected in multiplier_table():
        t0 = time.monotonic()
        got = baer_invariant(verify_class_bound(pres, k), c)
        elapsed = time.monotonic() - t0
        if got != expected or elapsed >= 10.0:
            print(f"  {name}: got {got}, expected {expected}, {elapsed:.2f}s")
            ok = False
    _verdict("1 (multiplier table, exact, <10s each)", ok)


def test_criterion_2_decomposition_parts(suite_reports):
    structural = [
        "acted_relators_in_twist",
        "mixed_commutators_in_twist",
        "relator_subgroup_factorizes",
        "numerator_factorizes",
        "denominator_factorizes",
        "lower_central_splits",
        "factor_complement_meets_trivially",
    ]
    ok = True
    for name in SEMIDIRECT_SUITE:
        for c in (1, 2):
            checks = suite_reports[(name, c)].checks
            failed = [p for p in structural if not checks[p]]
            if failed:
                print(f"  {name} c={c}: failed {failed}")
                ok = False
    if suite_reports["elapsed"] >= 300.0:
        print(f"  suite took {suite_reports['elapsed']:.1f}s")
        ok = False
    _verdict("2 (subgroup decomposition on the suite, c in {1,2}, <5min)", ok)


def test_criterion_3_direct_sum(suite_reports):
    ok = True
    for name in SEMIDIRECT_SUITE:
        for c in (1, 2):
            rep = suite_reports[(name, c)]
            if not rep.checks["direct_sum_matches"]:
                print(f"  {name} c={c}: direct sum mismatch")
                ok = False
    d8 = suite_reports[("d8", 1)]
    if not (
        d8.invariants_group == T(0, (2,))
        and d8.invariants_acting == T(0)
        and d8.invariants_complement == T(0, (2,))
    ):
        print("  d8 c=1 invariants off")
        ok = False
    kt = suite_reports[("klein_trivial", 2)]
    if not (kt.invariants_group == T(0, (2, 2)) and kt.merged == T(0, (2, 2))):
        print("  klein trivial-action c=2 invariants off")
        ok = False
    _verdict("3 (direct-sum verdicts and pinned values)", ok)


def test_criterion_4_classic_complement_consistency(suite_reports):
    ok = all(
        suite_reports[(name, 1)].checks["classic_denominator_agrees"]
        for name in SEMIDIRECT_SUITE
    )
    _verdict("4 (c=1 complement denominators agree on the suite)", ok)


def test_criterion_5_presentation_independence():
    ok = all(
        baer_invariant(verify_class_bound(klein(), 1), c)
        == baer_invariant(verify_class_bound(klein_redundant(), 1), c)
        for c in (1, 2)
    )
    _verdict("5 (presentation independence of the invariants)", ok)


def test_criterion_6_property_suites():
    wanted = (
        "magnus/homomorphism",
        "magnus/inverse-exactness",
        "lyndon/triangularity",
        "lyndon/witt-vs-enumeration",
        "intlinalg/hnf-random",
        "intlinalg/snf-random",
        "subgroups/saturation-stability",
        "baer/truncation-exactness",
    )
    checks = dict(iter_checks())
    ok = True
    for name in wanted:
        try:
            checks[name](DEFAULT_MONOMIAL_BUDGET)
        except AssertionError as exc:
            print(f"  {name}: {exc}")
            ok = False
    _verdict("6 (randomized structural suites, zero failures)", ok)


def test_criterion_7_selftest():
    t0 = time.monotonic()
    rc = main(["selftest", "--format", "machine"])
    elapsed = time.monotonic() - t0
    ok = rc == 0 and elapsed < 600.0
    if not ok:
        print(f"  selftest rc={rc} after {elapsed:.1f}s")
    _verdict("7 (selftest exits 0 in under 10 minutes)", ok)

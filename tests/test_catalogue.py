"""The shipped check catalogue (`baerkit.selftest`), one pytest case per
check, named by the check, so a failure names the check and its message."""

import pytest

from baerkit.selftest import iter_checks
from baerkit.subgroups import DEFAULT_MONOMIAL_BUDGET

CHECKS = iter_checks()


@pytest.mark.parametrize(
    "check", [fn for _, fn in CHECKS], ids=[name for name, _ in CHECKS]
)
def test_check(check):
    check(DEFAULT_MONOMIAL_BUDGET)


def test_check_names_are_unique():
    # dict(iter_checks()) would drop all but one check of a repeated name,
    # and pytest would give the repeats a suffix instead of failing.
    names = [name for name, _ in CHECKS]
    assert len(set(names)) == len(names)

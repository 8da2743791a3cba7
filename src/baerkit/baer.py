"""The Hopf-formula pipeline for Baer invariants of nilpotent groups.

For a presentation of G with relator closure R inside a free group F, the
Baer invariant of G in the variety of class-at-most-c nilpotent groups is
the abelian group (R meet gamma_{c+1}(F)) / [R, F, ..., F] with c copies
of F.  When G is nilpotent of class at most k, both subgroups contain
gamma_{k+c+1}(F), so computing in the free nilpotent quotient of class
W = k + c is exact.  The class bound is therefore certified, never
trusted: every run re-checks that the degree-(k+1) lattice of the relator
closure is full, which is exactly the statement that the relators cover
the whole (k+1)-st lower-central section.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError
from .intlinalg import AbelianInvariants
from .presentations import Presentation
from .subgroups import (
    AmbientContext,
    DEFAULT_MONOMIAL_BUDGET,
    FilteredSubgroup,
    commutator_with,
    insert_and_close,
    intersect_with_gamma,
    quotient_invariants,
    quotient_order,
)


def relator_closure(
    pres: Presentation, ambient: AmbientContext
) -> FilteredSubgroup:
    """Normal closure of the relators in the ambient nilpotent quotient."""
    elems = [ambient.element_of_word(r) for r in pres.relators]
    return insert_and_close(None, ambient, elems, normal=True)


@dataclass
class ClassBoundResult:
    """Outcome of checking a claimed nilpotency class bound k.

    `ok` means the relator closure fills the whole degree-(k+1) lattice, so
    the relators force class <= k on any nilpotent quotient.  `order` is the
    order of the class-(k+1) nilpotent quotient of the presented group (None
    when infinite); when `ok` holds, it equals the class-k quotient's order.
    """

    k: int
    ok: bool
    fail_degree: int | None
    order: int | None
    ambient: AmbientContext
    closure: FilteredSubgroup


def verify_class_bound(
    pres: Presentation,
    k: int,
    monomial_budget: int | None = DEFAULT_MONOMIAL_BUDGET,
) -> ClassBoundResult:
    if k < 1:
        raise ValueError("class bound must be >= 1")
    ambient = AmbientContext(pres.rank, k + 1, monomial_budget)
    closure = relator_closure(pres, ambient)
    ok = closure.levels[k].is_full
    return ClassBoundResult(
        k=k,
        ok=ok,
        fail_degree=None if ok else k + 1,
        order=quotient_order(closure),
        ambient=ambient,
        closure=closure,
    )


def detect_class(
    pres: Presentation,
    k_max: int,
    monomial_budget: int | None = DEFAULT_MONOMIAL_BUDGET,
) -> int | None:
    """Smallest verified class bound k <= k_max whose nilpotent quotient is
    finite and already stable at class k+1; None when no such k exists.

    A finitely generated nilpotent group is finite exactly when its
    abelianization is, so finiteness of the class-(k+1) quotient does not
    depend on k and the search stops at the first infinite one; callers
    supply the bound of an infinite group explicitly (verify_class_bound
    alone decides).  Soundness presumes the input presents a nilpotent group.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    for k in range(1, k_max + 1):
        res = verify_class_bound(pres, k, monomial_budget)
        if res.order is None:
            return None
        if res.ok:
            return k
    return None


def certified_class_bound(
    pres: Presentation,
    k_max: int,
    monomial_budget: int | None = DEFAULT_MONOMIAL_BUDGET,
) -> int | None:
    """Smallest k <= k_max passing verify_class_bound, without the
    finiteness test; the right notion for infinite nilpotent groups."""
    for k in range(1, k_max + 1):
        if verify_class_bound(pres, k, monomial_budget).ok:
            return k
    return None


@dataclass(frozen=True)
class BaerJob:
    """One invariant computation: presentation, variety parameter c >= 1,
    verified class bound k >= 1; the working cap is k + c."""

    presentation: Presentation
    c: int
    k: int
    monomial_budget: int | None = DEFAULT_MONOMIAL_BUDGET

    def __post_init__(self):
        if self.c < 1 or self.k < 1:
            raise ValueError("need c >= 1 and k >= 1")

    @property
    def cap(self) -> int:
        return self.k + self.c


def invariant_from_closure(
    ambient: AmbientContext, closure: FilteredSubgroup, c: int
) -> AbelianInvariants:
    """Quotient (closure meet gamma_{c+1}) by the c-fold iterated commutator
    of the closure with the full ambient group."""
    numerator = intersect_with_gamma(closure, c + 1)
    denominator = closure
    full = ambient.full_group()
    for _ in range(c):
        denominator = commutator_with(denominator, full)
    return quotient_invariants(numerator, denominator)


def baer_invariant(job: BaerJob) -> AbelianInvariants:
    """Run the pipeline at cap k + c, re-certifying the class bound on the
    working closure before trusting any quotient."""
    ambient = AmbientContext(job.presentation.rank, job.cap, job.monomial_budget)
    closure = relator_closure(job.presentation, ambient)
    if not closure.levels[job.k].is_full:
        raise CertificateError(
            f"class bound k={job.k} fails for {job.presentation.name!r}: "
            f"degree-{job.k + 1} lattice is not full"
        )
    return invariant_from_closure(ambient, closure, job.c)


@dataclass(frozen=True)
class IndependenceReport:
    agree: bool
    first: AbelianInvariants
    second: AbelianInvariants


def check_presentation_independence(
    p1: Presentation,
    p2: Presentation,
    c: int,
    k: int,
    monomial_budget: int | None = DEFAULT_MONOMIAL_BUDGET,
) -> IndependenceReport:
    """Both presentations are expected to present the same group (the
    caller's responsibility); their invariants must then agree."""
    a = baer_invariant(BaerJob(p1, c, k, monomial_budget))
    b = baer_invariant(BaerJob(p2, c, k, monomial_budget))
    return IndependenceReport(a == b, a, b)

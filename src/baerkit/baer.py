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

The closure that certificate is read from comes from the class-bound
search: `verify_class_bound`, `detect_class` and `certified_class_bound`
return a `ClassBoundResult` carrying the relator closure they built at cap
k + 1, and `baer_invariant` takes it as its certificate.  When the working
cap k + c equals that cap (c = 1, the Schur multiplier) the closure is used
as it is; otherwise a new one is built at k + c.  Either way the check is
made on the closure the invariant is computed from; the degree-(k+1)
lattice does not depend on the cap (Dedekind's law gives
(H meet gamma_{k+1}) gamma_{k+2} = H gamma_{k+2} meet gamma_{k+1}), so a
bound certified at k + 1 passes at every larger cap.
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


def working_closure(
    pres: Presentation,
    cap: int,
    monomial_budget: int | None = DEFAULT_MONOMIAL_BUDGET,
    certificate: ClassBoundResult | None = None,
) -> tuple[AmbientContext, FilteredSubgroup]:
    """The ambient of class `cap` and the relator closure in it: the
    certificate's own when it was built for `pres` at this cap, else a new
    one."""
    if (
        certificate is not None
        and certificate.ambient.cap == cap
        and certificate.presentation == pres
    ):
        return certificate.ambient, certificate.closure
    ambient = AmbientContext(pres.rank, cap, monomial_budget)
    return ambient, relator_closure(pres, ambient)


def certify_closure(pres: Presentation, k: int, closure: FilteredSubgroup):
    """Refuse unless the closure's degree-(k+1) lattice is full."""
    if not closure.levels[k].is_full:
        raise CertificateError(
            f"class bound k={k} fails for {pres.name!r}: "
            f"degree-{k + 1} lattice is not full"
        )


@dataclass
class ClassBoundResult:
    """Outcome of checking a claimed nilpotency class bound k.

    `ok` means the relator closure fills the whole degree-(k+1) lattice, so
    the relators force class <= k on any nilpotent quotient.  `order` is the
    order of the class-(k+1) nilpotent quotient of the presented group (None
    when infinite); when `ok` holds, it equals the class-k quotient's order.
    `closure` is the relator closure of `presentation` in `ambient`, of
    class k + 1; the pipeline reuses it where it works at that cap.
    """

    k: int
    ok: bool
    fail_degree: int | None
    order: int | None
    ambient: AmbientContext
    closure: FilteredSubgroup
    presentation: Presentation


def verify_class_bound(
    pres: Presentation,
    k: int,
    monomial_budget: int | None = DEFAULT_MONOMIAL_BUDGET,
) -> ClassBoundResult:
    if k < 1:
        raise ValueError("class bound must be >= 1")
    ambient, closure = working_closure(pres, k + 1, monomial_budget)
    ok = closure.levels[k].is_full
    return ClassBoundResult(
        k=k,
        ok=ok,
        fail_degree=None if ok else k + 1,
        order=quotient_order(closure),
        ambient=ambient,
        closure=closure,
        presentation=pres,
    )


def detect_class(
    pres: Presentation,
    k_max: int,
    monomial_budget: int | None = DEFAULT_MONOMIAL_BUDGET,
) -> ClassBoundResult | None:
    """Certificate of the smallest verified class bound k <= k_max whose
    nilpotent quotient is finite and already stable at class k+1; None when
    no such k exists.

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
            return res
    return None


def certified_class_bound(
    pres: Presentation,
    k_max: int,
    monomial_budget: int | None = DEFAULT_MONOMIAL_BUDGET,
) -> ClassBoundResult | None:
    """Certificate of the smallest k <= k_max passing verify_class_bound,
    without the finiteness test; the right notion for infinite nilpotent
    groups."""
    for k in range(1, k_max + 1):
        res = verify_class_bound(pres, k, monomial_budget)
        if res.ok:
            return res
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


def baer_invariant(
    job: BaerJob, certificate: ClassBoundResult | None = None
) -> AbelianInvariants:
    """Run the pipeline at cap k + c, re-certifying the class bound on the
    working closure before trusting any quotient.  The working closure is
    the certificate's when it was built at cap k + c."""
    ambient, closure = working_closure(
        job.presentation, job.cap, job.monomial_budget, certificate
    )
    certify_closure(job.presentation, job.k, closure)
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

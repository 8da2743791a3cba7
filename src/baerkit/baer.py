"""The Hopf-formula pipeline for Baer invariants of nilpotent groups.

For a presentation of G with relator closure R inside a free group F, the
Baer invariant of G in the variety of class-at-most-c nilpotent groups is
the abelian group (R meet gamma_{c+1}(F)) / [R, F, ..., F] with c copies
of F.  When G is nilpotent of class at most k, both subgroups contain
gamma_{k+c+1}(F), so computing in the free nilpotent quotient of class
W = k + c is exact.  The class bound is therefore certified, never
trusted: every run re-checks that the degree-(k+1) lattice of the relator
closure at cap k + 1 is full, which is exactly the statement that the
relators cover the whole (k+1)-st lower-central section.

The certificate comes from the class-bound search: `verify_class_bound`,
`detect_class` and `certified_class_bound` return a `ClassBoundResult`
carrying the relator closure they built at cap k + 1, and reads k, the
verdict `ok` and the order off that closure, so no certificate carries a
verdict its closure does not give.  It is the only way into the pipeline:
`working_closure`, `baer_invariant` and the semidirect stages take a
certificate, read k, the presentation and the monomial budget
(`closure.ambient`) from it, and refuse one that is not `ok`.

Lemma.  If level k + 1 of the cap-(k+1) relator closure is full, that is
gamma_{k+1} <= R gamma_{k+2}, then gamma_{k+1} lies in the relator closure
at every cap >= k + 1.  By induction, gamma_j <= R gamma_{j+1} for every
j > k: gamma_{j+1} = [gamma_j, F] <= [R gamma_{j+1}, F] <= R gamma_{j+2},
R being normal.  Chaining, gamma_{k+1} <= R gamma_{cap+1}, which is R in
the free nilpotent quotient of class cap.

Cut 1, the seeded working closure.  At cap k + 1 the working closure is
the certificate's own.  Above it, `working_closure` starts from gamma_{k+1}
(the free factor on every letter from degree k + 1, realized by bracket
elements) and closes the relator images into it.  By the lemma the result
is the relator closure itself, and since each level is the unique Hermite
form of the closure's degree-m lattice, it has the same rows as a closure
built from the relators alone.  The seeded levels are full by
construction, so the degree-(k+1) check is the certificate's `ok`, read
off its own unseeded closure.  Cuts 2 and 3, which let a full suffix and
the towers over it skip work, are in the `subgroups` module docstring.

Cut 4, graded towers.  The Hopf denominator [R, cF] at class W = k + c is
the last term of the tower T_j = [R, jF], and [gamma_m, F] = gamma_{m+1}
gives [T_{j-1} gamma_{W-c+j}, F] = T_j gamma_{W-c+j+1}.  So T_c at class W
depends on T_{c-1} modulo gamma_W only, and by induction T_j on T_{j-1}
modulo gamma_{W-c+j}, and T_1 on R modulo gamma_{W-c+1}.  `hopf_pair`
therefore builds T_j at class W - c + j (item 7 of the `subgroups` module
docstring).  R, full from level t, is generated as a normal subgroup mod
gamma_t by the relator images and by its stored elements of weight below
t, and iterating item 6 there gives T_j = ncl{[s, x_1, ..., x_j]}
gamma_{t+j} over either set's s and letters x_i.  So `hopf_pair` takes
the smaller set at class W - c + 1, where stored elements of weight
>= W - c + 1 have trivial commutators, and carries the nonidentity seeds
[s, x_1, ..., x_j] unclosed, padding each with `at_cap`: a padded seed
differs from a true lift only above its class, so its commutator with a
letter is exact one class up (`magnus` module docstring, "Lifts").  It
closes them into gamma_{t+j} at class W - c + j once they are at least as
many as those stored elements, or at j = c, then steps by `commutator_with`.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CertificateError
from .intlinalg import AbelianInvariants
from .magnus import _word_element, generator_element
from .presentations import Presentation
from .subgroups import (
    AmbientContext,
    DEFAULT_MONOMIAL_BUDGET,
    FilteredSubgroup,
    commutator_with,
    free_factor,
    insert_and_close,
    intersect_with_gamma,
    quotient_invariants,
    quotient_order,
    _close_in_place,
)


def relator_closure(
    relators, ambient: AmbientContext, seed: FilteredSubgroup | None = None
) -> FilteredSubgroup:
    """Normal closure of the relator words in the ambient nilpotent
    quotient, together with `seed` when one is given: the one way a
    subgroup is closed from words, but for `working_closure`, which grows
    its own seed in place."""
    elems = [ambient.element_of_word(r) for r in relators]
    return insert_and_close(seed, ambient, elems)


def working_closure(certificate: ClassBoundResult, cap: int) -> FilteredSubgroup:
    """The relator closure of the certificate's presentation in the ambient
    of class `cap` >= k + 1: the certificate's own at k + 1, seeded with
    gamma_{k+1} above it (cut 1 of the module docstring).  Refuses a
    certificate that is not `ok`, and a cap below k + 1."""
    k, own = certificate.k, certificate.closure
    if not certificate.ok:
        raise CertificateError(
            f"class bound k={k} fails for {certificate.presentation.name!r}: "
            f"degree-{k + 1} lattice is not full"
        )
    if cap < k + 1:
        raise ValueError(f"cap {cap} is below the certificate's k + 1 = {k + 1}")
    if cap == k + 1:
        return own
    ambient = AmbientContext(own.ambient.n, cap, own.ambient.monomial_budget)
    seed = free_factor(ambient, range(ambient.n), k + 1)
    elems = [ambient.element_of_word(r) for r in certificate.presentation.relators]
    return _close_in_place(seed, elems)  # only this closure holds the seed


class ClassBoundResult(namedtuple("ClassBoundResult", "closure presentation")):
    """Outcome of checking a claimed nilpotency class bound k.

    `closure` is the relator closure of `presentation` in `closure.ambient`,
    of class k + 1 and under the run's monomial budget; every pipeline stage
    starts from it (`working_closure`).  The rest is read off it.  `ok`
    means the closure fills the whole degree-(k+1) lattice, so the relators
    force class <= k on any nilpotent quotient.  `order` is the order of
    the class-(k+1) nilpotent quotient of the presented group (None when
    infinite); when `ok` holds, it equals the class-k quotient's order.
    """

    __slots__ = ()
    closure: FilteredSubgroup
    presentation: Presentation

    @property
    def k(self) -> int:
        return self.closure.ambient.cap - 1

    @property
    def ok(self) -> bool:
        return self.closure.levels[self.k].is_full

    @property
    def order(self) -> int | None:
        return quotient_order(self.closure)


def verify_class_bound(
    pres: Presentation,
    k: int,
    monomial_budget: int = DEFAULT_MONOMIAL_BUDGET,
) -> ClassBoundResult:
    if k < 1:
        raise ValueError("class bound must be >= 1")
    closure = relator_closure(
        pres.relators, AmbientContext(pres.rank, k + 1, monomial_budget)
    )
    return ClassBoundResult(closure, pres)


def _first_certificate(
    pres: Presentation, k_max: int, monomial_budget: int, finite: bool
) -> ClassBoundResult | None:
    """The class-bound search: the certificate of the smallest k <= k_max
    passing verify_class_bound, or None.  With `finite`, None as soon as a
    class-(k+1) quotient is infinite."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    for k in range(1, k_max + 1):
        res = verify_class_bound(pres, k, monomial_budget)
        if finite and res.order is None:
            return None
        if res.ok:
            return res
    return None


def detect_class(
    pres: Presentation,
    k_max: int,
    monomial_budget: int = DEFAULT_MONOMIAL_BUDGET,
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
    return _first_certificate(pres, k_max, monomial_budget, finite=True)


def certified_class_bound(
    pres: Presentation,
    k_max: int,
    monomial_budget: int = DEFAULT_MONOMIAL_BUDGET,
) -> ClassBoundResult | None:
    """Certificate of the smallest k <= k_max passing verify_class_bound,
    without the finiteness test; the right notion for infinite nilpotent
    groups."""
    return _first_certificate(pres, k_max, monomial_budget, finite=False)


def hopf_pair(
    closure: FilteredSubgroup, c: int, relators
) -> tuple[FilteredSubgroup, FilteredSubgroup]:
    """The Hopf numerator and denominator of R = `closure`, of class W and
    the normal closure of the words `relators`: R meet gamma_{c+1}, and
    the tower [R, F, ..., F] with c copies of the whole ambient group F,
    its j-th term at class W - c + j (cut 4 of the module docstring)."""
    ambient = closure.ambient
    n, cap, budget = ambient.n, ambient.cap, ambient.monomial_budget
    t, cls = closure.full_from(), cap - c + 1
    stored = closure.stored(min(t, cls))
    letters = [generator_element(i, n, cls) for i in range(n)]
    seeds = [a for _, _, a in stored]
    if len(relators) < len(stored):
        seeds = [_word_element(r, letters, cls) for r in relators]
    for j in range(1, c + 1):
        seeds = [a.at_cap(cls).commutator(x) for a in seeds for x in letters]
        seeds = [s for s in seeds if not s.is_identity]
        if j == c or len(seeds) >= len(stored):
            break
        cls += 1
        letters = [x.at_cap(cls) for x in letters]
    step = ambient if cls == cap else AmbientContext(n, cls, budget)
    tower = _close_in_place(free_factor(step, range(n), t + j), seeds)
    for cls in range(cls + 1, cap + 1):
        step = ambient if cls == cap else AmbientContext(n, cls, budget)
        tower = commutator_with(tower, step)
    return intersect_with_gamma(closure, c + 1), tower


def baer_invariant(certificate: ClassBoundResult, c: int) -> AbelianInvariants:
    """The Baer invariant for variety parameter c >= 1, computed at cap
    k + c on the working closure of the class-bound certificate."""
    if c < 1:
        raise ValueError("need c >= 1")
    closure = working_closure(certificate, certificate.k + c)
    relators = certificate.presentation.relators
    return quotient_invariants(*hopf_pair(closure, c, relators))

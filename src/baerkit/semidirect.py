"""Semidirect products: presentation building and decomposition checking.

Given free presentations of an acted (normal) factor A and an acting factor
B plus an action table, the combined presentation of B acting on A lists
A's letters and then B's, so acting letter j has index rank(A) + j (the
layout `presentations` documents).  Its relators are both factors' relators,
shifted by that offset, and one twist relator a^-1 * w[a,b] * [b,a] per
generator pair, which forces the conjugate of a by b to equal its image word.

The verifier derives each subgroup once, in the combined group's free
nilpotent quotient F of class k + c, whose first letters are the acted ones:

- R, the relator closure (the certificate's working closure, see `baer`);
  R2, the normal closure of the acting relators; and the twist subgroup S,
  the normal closure of the acted relators with the twist relators added.
- The Hopf pairs (`baer.hopf_pair`) of R and of S: the meet with
  gamma_{c+1}(F) and the c-fold commutator with F.  The complement
  denominator joins the tower of S with the mixed tower, the normal closure
  of [r2, x_1, ..., x_c] for the stored elements r2 of R2 and generator tuples
  that use the acted factor.
- The mixed commutators [R2, F1], F1 the acted free factor: the normal
  closure K of [r, a] over the stored elements r of R2 and the acted
  generators a.  Modulo K each r commutes with each a, so with F1 = <a>,
  and the r generate R2, so K is the normal closure of [R2, F1].  F1
  itself is never built.
- The acting free factor F2, and both factors' gamma_{c+1}, as plain
  closures of the bracketings of their Lyndon words, and the normal
  closure of [a, b, x_1, ..., x_{c-1}] over acted a and acting b.
- The Hopf pair of the acting factor's relator closure, taken in its own
  free group, since its tower commutes with F2 only, and embedded by the
  same offset (`subgroups.embedded_copy`).

The checks are two-sided containments: R is R2 joined with S; its Hopf
numerator is the acting numerator joined with S's; its Hopf denominator is
the acting tower joined with the complement denominator; gamma_{c+1}(F) is
generated by the factors' terms and the mixed commutators; and F2 meets the
normal closure of F1 trivially.  Finally the Baer invariant of the whole
group must be the direct sum of the acting factor's invariant with the
complement quotient carried by S.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .baer import (
    ClassBoundResult,
    baer_invariant,
    certified_class_bound,
    hopf_pair,
    relator_closure,
    working_closure,
)
from .errors import ActionError, CertificateError
from .intlinalg import AbelianInvariants, abelian_invariants
from .lyndon import lyndon_words
from .magnus import _word_element
from .presentations import (
    ActionSpec,
    Presentation,
    Word,
    combine_alphabets,
    free_product_embed,
)
from .subgroups import (
    DEFAULT_MONOMIAL_BUDGET,
    FilteredSubgroup,
    embedded_copy,
    insert_and_close,
    intersect_with_gamma,
    join,
    lattices_intersect_trivially,
    quotient_invariants,
    quotient_order,
)

_MAX_ORDER_SEARCH = 4096


def _own(certificate: ClassBoundResult, pres: Presentation) -> ClassBoundResult:
    """`certificate`, refused unless it was built for `pres`."""
    if certificate.presentation != pres:
        raise ValueError(
            f"certificate of {certificate.presentation.name!r} "
            f"passed for {pres.name!r}"
        )
    return certificate


def validate_action(spec: ActionSpec, certificate: ClassBoundResult) -> list[str]:
    """Check that the table defines automorphisms of the acted group and
    that the acting relators act trivially.  Returns an itemized problem
    list; empty means certified.

    `certificate` is the acted group's class-bound certificate, and the
    check works in its closure, in the free nilpotent quotient of class
    k + 1.  When the certificate is `ok` the acted group is nilpotent of
    class <= k, so every membership test against that closure is exact;
    otherwise the only problem reported is the missing certificate.

    An acting letter b is the endomorphism of the free nilpotent quotient
    sending generator a_i to the element of its image word w[a_i, b], and it
    acts on a word by evaluating the word at those elements.  Words are
    never substituted into words, so nothing grows with the letters applied;
    since gamma_{cap+1} is fully invariant, the element is the one of the
    substituted word.  As a^(uv) = (a^u)^v, a relator's image list composes
    from its last letter to its first.  Without an inverse table b^-1 acts
    as b^(m-1), m the order of b's action modulo the relators, searched up
    to _MAX_ORDER_SEARCH one forward step at a time.
    """
    if not _own(certificate, spec.acted).ok:
        return [
            f"acted group {spec.acted.name!r} is not certified nilpotent of "
            f"class <= {certificate.k}"
        ]
    closure = certificate.closure
    ambient = closure.ambient
    cap, generators = ambient.cap, ambient.generators
    acted_names = spec.acted.alphabet.names
    acting_names = spec.acting.alphabet.names
    problems: list[str] = []

    def words(b: str, inverse=False) -> list[Word]:
        return [spec.image(a, b, inverse) for a in acted_names]

    def compose(table: list[Word], images: list) -> list:
        """Generator images of the letter with image words `table` followed
        by the map with generator images `images`."""
        return [_word_element(w, images, cap) for w in table]

    def fixed(el, i: int) -> bool:
        return closure.contains(el * generators[i].inverse())

    forward = {
        b: [ambient.element_of_word(w) for w in words(b)] for b in acting_names
    }

    # (1) every acted relator is preserved by every acting generator
    for r in spec.acted.relators:
        for b in acting_names:
            if not closure.contains(_word_element(r, forward[b], cap)):
                problems.append(
                    f"action of {b!r} does not preserve relator {r.render()!r}"
                )

    # (2) invertibility: both compositions fix the generators when an
    # inverse table is supplied; otherwise surjectivity onto a finite group
    if spec.inverse_images is not None:
        for b in acting_names:
            backward = [ambient.element_of_word(w) for w in words(b, True)]
            for i, a in enumerate(acted_names):
                back = _word_element(spec.image(a, b), backward, cap)
                if not fixed(back, i):
                    problems.append(
                        f"inverse of {b!r} does not undo its action on {a!r}"
                    )
                forth = _word_element(spec.image(a, b, True), forward[b], cap)
                if not fixed(forth, i):
                    problems.append(
                        f"action of {b!r} does not undo its inverse on {a!r}"
                    )
    else:
        if quotient_order(closure) is None:
            problems.append(
                "inverse images required: the acted group is infinite"
            )
        else:
            for b in acting_names:
                generated = insert_and_close(
                    None,
                    ambient,
                    [el for _, _, el in closure.stored()] + forward[b],
                    normal=False,
                )
                if quotient_order(generated) != 1:
                    problems.append(
                        f"surjectivity fails for {b!r}: images generate a "
                        f"proper subgroup"
                    )

    # (3) acting relators act as the identity automorphism
    orders: dict[str, int | None] = {}

    def order(b: str) -> int:
        """Least m <= _MAX_ORDER_SEARCH with b^m fixing every generator
        modulo the relators; one forward step per try."""
        if b not in orders:
            orders[b] = None
            images, table = list(generators), words(b)
            for m in range(1, _MAX_ORDER_SEARCH + 1):
                images = compose(table, images)
                if all(fixed(el, i) for i, el in enumerate(images)):
                    orders[b] = m
                    break
        if orders[b] is None:
            raise ActionError(
                [f"cannot invert the action of {b!r}; supply inverse images"]
            )
        return orders[b]

    def tables(b: str, sign: int) -> list[list[Word]]:
        if sign > 0:
            return [words(b)]
        if spec.inverse_images is not None:
            return [words(b, True)]
        return [words(b)] * (order(b) - 1)

    for s in spec.acting.relators:
        try:
            # left to right, so a refusal names the leftmost such letter
            steps = [
                table
                for g, sign in s.letters
                for table in tables(acting_names[g], sign)
            ]
        except ActionError as exc:
            problems.extend(exc.problems)
            continue
        images = list(generators)
        for table in reversed(steps):
            images = compose(table, images)
        for i, a in enumerate(acted_names):
            if not fixed(images[i], i):
                problems.append(f"acting relator {s.render()!r} moves {a!r}")

    return problems


@dataclass(frozen=True)
class SemidirectPresentation:
    """Combined presentation of the semidirect product, with the relators
    tagged by origin: acted factor, acting factor, and the twist relators
    a^-1 * w[a,b] * [b,a] that encode the action."""

    combined: Presentation
    rel_acted: tuple[Word, ...]
    rel_acting: tuple[Word, ...]
    rel_twist: tuple[Word, ...]
    action: ActionSpec = field(hash=False)

    @property
    def n_acted(self) -> int:
        return self.action.acted.rank

    @property
    def n_acting(self) -> int:
        return self.action.acting.rank


def build_semidirect(spec: ActionSpec) -> SemidirectPresentation:
    """Combined presentation of the acting factor acting on the acted one.

    The caller is expected to have validated the action; building does not
    re-run validation.
    """
    combined = combine_alphabets(spec.acted.alphabet, spec.acting.alphabet)
    shift = spec.acted.rank
    rel_acted = tuple(
        free_product_embed(r, 0, combined) for r in spec.acted.relators
    )
    rel_acting = tuple(
        free_product_embed(r, shift, combined) for r in spec.acting.relators
    )
    twist = []
    for i, a in enumerate(spec.acted.alphabet.names):
        a_word = Word(combined, ((i, 1),))
        for j, b in enumerate(spec.acting.alphabet.names):
            b_word = Word(combined, ((shift + j, 1),))
            image = free_product_embed(spec.image(a, b), 0, combined)
            twist.append(a_word.inverse() * image * b_word.commutator(a_word))
    name = f"{spec.acting.name}_on_{spec.acted.name}"
    relators = rel_acted + rel_acting + tuple(twist)
    return SemidirectPresentation(
        combined=Presentation(name, combined, relators),
        rel_acted=rel_acted,
        rel_acting=rel_acting,
        rel_twist=tuple(twist),
        action=spec,
    )


@dataclass
class SemidirectSubgroups:
    """Every subgroup the decomposition checks read, in one ambient."""

    rel_full: FilteredSubgroup          # normal closure of all relators
    rel_acting: FilteredSubgroup        # closure of the acting relators
    rel_acted: FilteredSubgroup         # closure of the acted relators
    twist: FilteredSubgroup             # closure of acted + twist relators
    numerator: FilteredSubgroup         # rel_full meet gamma_{c+1}
    denominator: FilteredSubgroup       # [rel_full, c-fold ambient]
    twist_numerator: FilteredSubgroup   # twist meet gamma_{c+1}
    twist_tower: FilteredSubgroup       # [twist, c-fold ambient]
    mixed_tower: FilteredSubgroup       # closure of [r2, g1..gc], some gi acted
    complement_denominator: FilteredSubgroup  # mixed_tower join twist_tower
    mixed_commutators: FilteredSubgroup  # closure of [rel_acting, acted factor]
    acting_gamma_embedded: FilteredSubgroup  # (R2 meet gamma_{c+1}(F2)) embedded
    acting_tower_embedded: FilteredSubgroup  # [R2, c-fold F2] embedded
    acting_full: FilteredSubgroup       # the acting free factor as a subgroup
    acted_normal_closure: FilteredSubgroup
    gamma_full: FilteredSubgroup
    gamma_acted_embedded: FilteredSubgroup   # the acted factor meet gamma_{c+1}
    gamma_acting_embedded: FilteredSubgroup  # the acting factor meet gamma_{c+1}
    mixed_gamma_tower: FilteredSubgroup      # closure of [a, b, g1..g(c-1)]


def materialize_subgroups(
    sp: SemidirectPresentation,
    c: int,
    certificate: ClassBoundResult,
    acting_certificate: ClassBoundResult,
) -> SemidirectSubgroups:
    """Build all subgroups at cap k + c, k the class bound of `certificate`,
    the combined group's; `acting_certificate` is the acting factor's.

    The relator closures of the combined group and of the acting factor
    are the working closures of their certificates (see `baer`): their own
    at cap k + 1, seeded with the lower-central term above it."""
    cap = certificate.k + c
    n_acted, n = sp.n_acted, sp.n_acted + sp.n_acting
    rel_full = working_closure(_own(certificate, sp.combined), cap)
    ambient = rel_full.ambient
    generators = ambient.generators

    def free_factor(first, end, degree):
        """The free factor on generators first .. end - 1, meet
        gamma_degree: the bracketings of its Lyndon words, shifted."""
        elems = [
            ambient.bracket_element(tuple(first + i for i in w))
            for m in range(degree, cap + 1)
            for w in lyndon_words(end - first, m)
        ]
        return insert_and_close(None, ambient, elems, normal=False)

    def left_normed(bases, letter_tuples):
        """Normal closure of [b, x_g1, ..., x_gj] for every base b and
        generator index tuple (g1, ..., gj)."""
        elems = []
        for base in bases:
            for letters in letter_tuples:
                out = base
                for g in letters:
                    out = out.commutator(generators[g])
                    if out.is_identity:
                        break
                if not out.is_identity:
                    elems.append(out)
        return insert_and_close(None, ambient, elems, normal=True)

    rel_acting = relator_closure(sp.rel_acting, ambient)
    rel_acted = relator_closure(sp.rel_acted, ambient)
    twist = relator_closure(sp.rel_twist, ambient, rel_acted)
    numerator, denominator = hopf_pair(rel_full, c)
    twist_numerator, twist_tower = hopf_pair(twist, c)

    mixed_tower = left_normed(
        [r for m, _, r in rel_acting.stored() if m + c <= cap],
        [t for t in product(range(n), repeat=c) if min(t) < n_acted],
    )
    complement_denominator = join(mixed_tower, twist_tower)
    mixed_gamma_tower = left_normed(
        [
            generators[a].commutator(generators[b])
            for a in range(n_acted)
            for b in range(n_acted, n)
        ],
        list(product(range(n), repeat=c - 1)),
    )

    # The acting factor's Hopf pair is taken in its own free group, whose
    # c-fold tower commutes with the acting letters only, then embedded.
    acting_sub = working_closure(_own(acting_certificate, sp.action.acting), cap)
    acting_gamma, acting_tower = hopf_pair(acting_sub, c)

    return SemidirectSubgroups(
        rel_full=rel_full,
        rel_acting=rel_acting,
        rel_acted=rel_acted,
        twist=twist,
        numerator=numerator,
        denominator=denominator,
        twist_numerator=twist_numerator,
        twist_tower=twist_tower,
        mixed_tower=mixed_tower,
        complement_denominator=complement_denominator,
        mixed_commutators=left_normed(
            [r for _, _, r in rel_acting.stored()],
            [(a,) for a in range(n_acted)],
        ),
        acting_gamma_embedded=embedded_copy(acting_gamma, ambient, n_acted),
        acting_tower_embedded=embedded_copy(acting_tower, ambient, n_acted),
        acting_full=free_factor(n_acted, n, 1),
        acted_normal_closure=insert_and_close(
            None, ambient, generators[:n_acted], normal=True
        ),
        gamma_full=intersect_with_gamma(ambient.full_group(), c + 1),
        gamma_acted_embedded=free_factor(0, n_acted, c + 1),
        gamma_acting_embedded=free_factor(n_acted, n, c + 1),
        mixed_gamma_tower=mixed_gamma_tower,
    )


def verify_subgroup_decomposition(table: SemidirectSubgroups) -> dict[str, bool]:
    """Two-sided containment checks behind the decomposition: the relator
    subgroup, its lower-central meet, and its iterated commutator all factor
    through the acting-relator closure and the twist subgroup; plus the
    free-product splitting facts the argument rests on."""
    t = table
    checks = {}
    checks["acted_relators_in_twist"] = t.twist.contains_all(t.rel_acted)
    checks["mixed_commutators_in_twist"] = t.twist.contains_all(
        t.mixed_commutators
    )
    checks["relator_subgroup_factorizes"] = t.rel_full.equal_as_subgroup(
        join(t.rel_acting, t.twist)
    )
    checks["numerator_factorizes"] = t.numerator.equal_as_subgroup(
        join(t.acting_gamma_embedded, t.twist_numerator)
    )
    checks["denominator_factorizes"] = t.denominator.equal_as_subgroup(
        join(t.acting_tower_embedded, t.complement_denominator)
    )
    checks["lower_central_splits"] = t.gamma_full.equal_as_subgroup(
        join(
            join(t.gamma_acted_embedded, t.gamma_acting_embedded),
            t.mixed_gamma_tower,
        )
    )
    checks["factor_complement_meets_trivially"] = lattices_intersect_trivially(
        t.acting_full, t.acted_normal_closure
    )
    return checks


def complement_factor(table: SemidirectSubgroups) -> AbelianInvariants:
    """The complement summand: the twist subgroup's lower-central meet
    modulo the mixed tower joined with the twist tower."""
    return quotient_invariants(
        table.twist_numerator, table.complement_denominator
    )


def merge_invariants(
    x: AbelianInvariants, y: AbelianInvariants
) -> AbelianInvariants:
    """Canonical form of the direct sum: free ranks add, and the torsion is
    the Smith diagonal of the two chains placed side by side."""
    torsion = x.torsion + y.torsion
    relations = [
        [d if i == j else 0 for j in range(len(torsion))]
        for i, d in enumerate(torsion)
    ]
    merged = abelian_invariants(len(torsion), relations)
    return AbelianInvariants(x.free_rank + y.free_rank, merged.torsion)


@dataclass
class DecompositionReport:
    """Per-check verdicts plus the three invariant lists; `passed` only when
    every check holds, including the direct-sum comparison."""

    invariants_group: AbelianInvariants
    invariants_acting: AbelianInvariants
    invariants_complement: AbelianInvariants
    merged: AbelianInvariants
    checks: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def resolve_acting_class_bound(
    acting: Presentation,
    k_limit: int,
    monomial_budget: int = DEFAULT_MONOMIAL_BUDGET,
) -> ClassBoundResult:
    """Certificate of the smallest class bound <= k_limit of the acting
    factor alone; CertificateError when there is none, which a product
    certified at k_limit never gives.  The factor is a retract of the
    product: killing the acted letters maps F onto F2, the relator closure
    R onto the acting one R2 (acted and twist relators go to 1) and
    gamma_j(F) onto gamma_j(F2), so gamma_{k+1}(F) <= R gamma_{k+2}(F)
    gives gamma_{k+1}(F2) <= R2 gamma_{k+2}(F2), the factor's certificate."""
    cert = certified_class_bound(acting, k_limit, monomial_budget)
    if cert is None:
        raise CertificateError(
            f"no class bound <= {k_limit} certifies the acting factor "
            f"{acting.name!r}"
        )
    return cert


def verify_direct_factor(
    sp: SemidirectPresentation, c: int, certificate: ClassBoundResult
) -> DecompositionReport:
    """Full decomposition report: subgroup checks, the three invariants, the
    direct-sum verdict and, in the classical c = 1 case, agreement of the
    complement denominator with its older one-step form.  `certificate`
    is the combined group's class-bound certificate; see
    `materialize_subgroups`."""
    acting = resolve_acting_class_bound(
        sp.action.acting, certificate.k, certificate.closure.ambient.monomial_budget
    )
    table = materialize_subgroups(sp, c, certificate, acting)
    checks = verify_subgroup_decomposition(table)

    invariants_group = quotient_invariants(table.numerator, table.denominator)
    invariants_acting = baer_invariant(acting, c)
    invariants_complement = complement_factor(table)
    merged = merge_invariants(invariants_acting, invariants_complement)
    checks["direct_sum_matches"] = merged == invariants_group

    if c == 1:
        classic = join(table.mixed_commutators, table.twist_tower)
        checks["classic_denominator_agrees"] = classic.equal_as_subgroup(
            table.complement_denominator
        )

    return DecompositionReport(
        invariants_group=invariants_group,
        invariants_acting=invariants_acting,
        invariants_complement=invariants_complement,
        merged=merged,
        checks=checks,
    )

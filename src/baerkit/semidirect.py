"""Semidirect products: presentation building and decomposition checking.

Given free presentations of an acted (normal) factor A and an acting factor
B plus an action table, the combined presentation of B acting on A uses the
disjoint union of the two alphabets, both factors' relators, and one twist
relator a^-1 * w[a,b] * [b,a] per generator pair, which forces the
conjugate of a by b to equal its image word.

The verifier materializes, inside the free nilpotent quotient of class
k + c, the relator closure R, the acting factor's relator closure R2, and
the twist subgroup S (normal closure of the acted relators and the twist
relators), and checks as two-sided containments that R factors through R2
and S, that the same happens to its meet with the lower central term and to
its iterated commutator with the whole group, and finally that the Baer
invariant of the whole group is the direct sum of the acting factor's
invariant with the complement quotient carried by S.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import product

from .baer import (
    BaerJob,
    ClassBoundResult,
    baer_invariant,
    certified_class_bound,
    certify_class_bound,
    verify_class_bound,
    working_closure,
)
from .errors import ActionError
from .intlinalg import AbelianInvariants
from .magnus import _word_element
from .presentations import (
    ActionSpec,
    Presentation,
    Slot,
    Word,
    combine_alphabets,
    free_product_embed,
)
from .subgroups import (
    AmbientContext,
    DEFAULT_MONOMIAL_BUDGET,
    FilteredSubgroup,
    commutator_with,
    embedded_copy,
    insert_and_close,
    intersect_with_gamma,
    is_full,
    join,
    lattices_intersect_trivially,
    quotient_invariants,
    quotient_order,
)

_MAX_ORDER_SEARCH = 4096


def validate_action(
    spec: ActionSpec,
    k_acted: int,
    monomial_budget: int | None = DEFAULT_MONOMIAL_BUDGET,
    certificate: ClassBoundResult | None = None,
) -> list[str]:
    """Check that the table defines automorphisms of the acted group and
    that the acting relators act trivially.  Returns an itemized problem
    list; empty means certified.

    Works in the acted group's nilpotent quotient: the class bound is
    verified first, which makes every membership test against the relator
    closure exact.  The closure is the certificate's when it was built for
    the acted group at cap k_acted + 1.

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
    ambient, closure = working_closure(
        spec.acted, k_acted + 1, monomial_budget, certificate
    )
    if not closure.levels[k_acted].is_full:
        return [
            f"acted group {spec.acted.name!r} is not certified nilpotent of "
            f"class <= {k_acted}"
        ]
    cap, generators = ambient.cap, ambient.generators
    acted_names = spec.acted.alphabet.names()
    acting_names = spec.acting.alphabet.names()
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
                if not is_full(generated):
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
    rel_acted = tuple(
        free_product_embed(r, Slot.ACTED, combined) for r in spec.acted.relators
    )
    rel_acting = tuple(
        free_product_embed(r, Slot.ACTING, combined) for r in spec.acting.relators
    )
    twist = []
    for a in spec.acted.alphabet.names():
        a_idx = combined.index(a)
        a_word = Word(combined, ((a_idx, 1),))
        for b in spec.acting.alphabet.names():
            b_idx = combined.index(b)
            b_word = Word(combined, ((b_idx, 1),))
            image = free_product_embed(spec.image(a, b), Slot.ACTED, combined)
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
    """Every subgroup the decomposition checks need, in one ambient."""

    sp: SemidirectPresentation
    c: int
    k: int
    ambient: AmbientContext
    full: FilteredSubgroup
    rel_full: FilteredSubgroup          # normal closure of all relators
    rel_acting: FilteredSubgroup        # closure of the acting relators
    rel_acted: FilteredSubgroup         # closure of the acted relators
    twist: FilteredSubgroup             # closure of acted + twist relators
    numerator: FilteredSubgroup         # rel_full meet gamma_{c+1}
    denominator: FilteredSubgroup       # [rel_full, c-fold ambient]
    twist_numerator: FilteredSubgroup   # twist meet gamma_{c+1}
    twist_tower: FilteredSubgroup       # [twist, c-fold ambient]
    mixed_tower: FilteredSubgroup       # closure of [r2, g1..gc], some gi acted
    complement_denominator: FilteredSubgroup
    mixed_commutators: FilteredSubgroup  # closure of [rel_acting, acted factor]
    acting_gamma_embedded: FilteredSubgroup  # (R2 meet gamma_{c+1}(F2)) embedded
    acting_tower_embedded: FilteredSubgroup  # [R2, c-fold F2] embedded
    acted_full: FilteredSubgroup        # the acted free factor as a subgroup
    acting_full: FilteredSubgroup       # the acting free factor as a subgroup
    acted_normal_closure: FilteredSubgroup
    gamma_full: FilteredSubgroup
    gamma_acted_embedded: FilteredSubgroup
    gamma_acting_embedded: FilteredSubgroup
    mixed_gamma_tower: FilteredSubgroup


def _iterated_commutator(ambient, base_elem, letters):
    out = base_elem
    for g in letters:
        out = out.commutator(ambient.generators[g])
        if out.is_identity:
            break
    return out


def materialize_subgroups(
    sp: SemidirectPresentation,
    c: int,
    k: int,
    monomial_budget: int | None = DEFAULT_MONOMIAL_BUDGET,
    certificate: ClassBoundResult | None = None,
    acting_certificate: ClassBoundResult | None = None,
) -> SemidirectSubgroups:
    """Build all subgroups at cap k + c, re-certifying the class bound.

    The relator closures of the combined group and of the acting factor
    are the working closures of their certificates (see `baer`): their own
    at cap k + 1, seeded with the lower-central term above it."""
    cap = k + c
    n_acted, n_acting = sp.n_acted, sp.n_acting
    n = n_acted + n_acting
    certificate = certify_class_bound(
        sp.combined, k, monomial_budget, certificate
    )
    ambient, rel_full = working_closure(
        sp.combined, cap, monomial_budget, certificate
    )
    full = ambient.full_group()

    def closure_of(words, normal=True):
        return insert_and_close(
            None, ambient, [ambient.element_of_word(w) for w in words], normal
        )

    rel_acting = closure_of(sp.rel_acting)
    rel_acted = closure_of(sp.rel_acted)
    twist = closure_of(sp.rel_acted + sp.rel_twist)

    def tower(sub):
        out = sub
        for _ in range(c):
            out = commutator_with(out, full)
        return out

    numerator = intersect_with_gamma(rel_full, c + 1)
    denominator = tower(rel_full)
    twist_numerator = intersect_with_gamma(twist, c + 1)
    twist_tower = tower(twist)

    # Iterated commutators of acting relators with generator tuples that use
    # the acted factor at least once, left-normed.
    mixed_elems = []
    for m, _, r in rel_acting.stored():
        if m + c > cap:
            continue
        for letters in product(range(n), repeat=c):
            if all(g >= n_acted for g in letters):
                continue
            el = _iterated_commutator(ambient, r, letters)
            if not el.is_identity:
                mixed_elems.append(el)
    mixed_tower = insert_and_close(None, ambient, mixed_elems, normal=True)
    complement_denominator = join(mixed_tower, twist_tower)

    # The acting factor inside its own free group, then embedded.
    amb_acting, acting_sub = working_closure(
        sp.action.acting, cap, monomial_budget, acting_certificate
    )
    acting_gamma_embedded = embedded_copy(
        intersect_with_gamma(acting_sub, c + 1), ambient, n_acted, normal=False
    )
    acting_tower_sub = acting_sub
    for _ in range(c):
        acting_tower_sub = commutator_with(
            acting_tower_sub, amb_acting.full_group()
        )
    acting_tower_embedded = embedded_copy(
        acting_tower_sub, ambient, n_acted, normal=False
    )

    amb_acted = AmbientContext(n_acted, cap, monomial_budget)
    acted_full = embedded_copy(
        amb_acted.full_group(), ambient, 0, normal=False
    )
    acting_full = embedded_copy(
        amb_acting.full_group(), ambient, n_acted, normal=False
    )
    acted_normal_closure = insert_and_close(
        None, ambient, [ambient.generators[i] for i in range(n_acted)], normal=True
    )
    mixed_commutators = commutator_with(rel_acting, acted_full)

    gamma_full = intersect_with_gamma(full, c + 1)
    gamma_acted_embedded = embedded_copy(
        intersect_with_gamma(amb_acted.full_group(), c + 1), ambient, 0, False
    )
    gamma_acting_embedded = embedded_copy(
        intersect_with_gamma(amb_acting.full_group(), c + 1), ambient, n_acted, False
    )
    gamma_elems = []
    for a in range(n_acted):
        for b in range(n_acted, n):
            base = ambient.generators[a].commutator(ambient.generators[b])
            for letters in product(range(n), repeat=c - 1):
                el = _iterated_commutator(ambient, base, letters)
                if not el.is_identity:
                    gamma_elems.append(el)
    mixed_gamma_tower = insert_and_close(None, ambient, gamma_elems, normal=True)

    return SemidirectSubgroups(
        sp=sp,
        c=c,
        k=k,
        ambient=ambient,
        full=full,
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
        mixed_commutators=mixed_commutators,
        acting_gamma_embedded=acting_gamma_embedded,
        acting_tower_embedded=acting_tower_embedded,
        acted_full=acted_full,
        acting_full=acting_full,
        acted_normal_closure=acted_normal_closure,
        gamma_full=gamma_full,
        gamma_acted_embedded=gamma_acted_embedded,
        gamma_acting_embedded=gamma_acting_embedded,
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
        join(join(t.acting_tower_embedded, t.mixed_tower), t.twist_tower)
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


def _factorize(d: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= d:
        while d % p == 0:
            out[p] = out.get(p, 0) + 1
            d //= p
        p += 1
    if d > 1:
        out[d] = out.get(d, 0) + 1
    return out


def merge_invariants(
    x: AbelianInvariants, y: AbelianInvariants
) -> AbelianInvariants:
    """Canonical form of the direct sum: free ranks add, torsion merges by
    prime-power components and renormalizes to a divisor chain."""
    powers: dict[int, list[int]] = defaultdict(list)
    for d in x.torsion + y.torsion:
        for p, e in _factorize(d).items():
            powers[p].append(e)
    for exps in powers.values():
        exps.sort(reverse=True)
    depth = max((len(v) for v in powers.values()), default=0)
    chain = []
    for i in range(depth):
        d = 1
        for p, exps in powers.items():
            if i < len(exps):
                d *= p ** exps[i]
        chain.append(d)
    chain.reverse()
    return AbelianInvariants(x.free_rank + y.free_rank, tuple(chain))


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
    monomial_budget: int | None = DEFAULT_MONOMIAL_BUDGET,
) -> ClassBoundResult:
    """Certificate of the smallest class bound of the acting factor alone,
    else its (failed) check at the given limit, since the factor's class
    never exceeds the product's; whatever comes out is re-verified
    downstream."""
    cert = certified_class_bound(acting, k_limit, monomial_budget)
    if cert is None:
        cert = verify_class_bound(acting, k_limit, monomial_budget)
    return cert


def verify_direct_factor(
    sp: SemidirectPresentation,
    c: int,
    k: int,
    monomial_budget: int | None = DEFAULT_MONOMIAL_BUDGET,
    certificate: ClassBoundResult | None = None,
) -> DecompositionReport:
    """Full decomposition report: subgroup checks, the three invariants, the
    direct-sum verdict and, in the classical c = 1 case, agreement of the
    complement denominator with its older one-step form.  `certificate`
    is the combined group's class-bound certificate, if the caller has
    one; see `materialize_subgroups`."""
    acting = resolve_acting_class_bound(sp.action.acting, k, monomial_budget)
    table = materialize_subgroups(
        sp, c, k, monomial_budget, certificate, acting
    )
    checks = verify_subgroup_decomposition(table)

    invariants_group = quotient_invariants(table.numerator, table.denominator)
    invariants_acting = baer_invariant(
        BaerJob(sp.action.acting, c, acting.k, monomial_budget), acting
    )
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

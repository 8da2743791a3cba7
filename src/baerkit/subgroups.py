"""Canonical subgroups of a free nilpotent group, with membership by sieving.

A subgroup is stored as a filtered generating sequence: for every degree m
up to the cap, a Hermite-form integer lattice inside the degree-m Lyndon
coordinate space, each basis row realized by an actual group element of
weight m whose leading coordinates are that row.

Membership (`sieve`) reduces an element's leading coordinates against the
lattice of its weight, divides the realizing elements off, and recurses at
strictly larger weight; an element belongs to the subgroup exactly when
this terminates at the identity, provided the sequence is consistent.
The lattice algebra is `intlinalg`'s: insertion is `hermite_insert` with
the realizing elements as tags (group products and powers standing for row
sums and multiples), and the sieve's reduction is `echelon_solve`.

Consistency means: the commutator [r_a, r_b] of every two stored elements
sieves to membership and, for normal subgroups, so does [r, x] for every
stored r and ambient generator x (the obligations of a filtered polycyclic
sequence; Sims, "Computation with Finitely Presented Groups", ch. 9).
`insert_and_close` establishes this by fixpoint; it terminates because every
insertion strictly enlarges one of finitely many lattices of bounded rank.
Why this certifies the sieve, with H the group the stored elements generate:

1. Level rows are Hermite rows with distinct pivots, and each degree-m
   section of the free nilpotent group is free abelian: no power
   obligations arise.
2. [r_a, r_b] has weight >= m_a + m_b, so by downward induction on m the
   normal forms over levels >= m form the group H_m that the stored
   elements there generate: level-m elements normalize H_{m+1} (inverses
   too, by the max condition of finitely generated nilpotent groups) and
   commute modulo it, and H_m meets gamma_{m+1} in H_{m+1} since the
   level-m rows are independent.  So the sieve decides membership in H.
3. Inverses need no check: H is a group, and by 2 the sieve decides H.
4. [r, x] in H gives x^-1 H x <= H, equality by the max condition; so
   conjugation by x^-1 is covered, and a non-normal base re-closed in
   normal mode becomes normal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import mul

from .errors import CapacityError
from .intlinalg import (
    AbelianInvariants,
    IntMatrix,
    abelian_invariants,
    echelon_solve,
    hermite_insert,
    hnf,
)
from .lyndon import get_basis, lyndon_words, standard_factorization, witt_dimension
from .magnus import (
    GroupElement,
    _word_element,
    generator_element,
    identity_element,
    reindex_element,
)

DEFAULT_MONOMIAL_BUDGET = 50_000


class AmbientContext:
    """The free nilpotent group on n generators of class `cap`, together with
    the per-degree Lyndon bases used for coordinates."""

    def __init__(self, n: int, cap: int, monomial_budget: int | None = DEFAULT_MONOMIAL_BUDGET):
        if n < 1 or cap < 1:
            raise ValueError("need n >= 1 and cap >= 1")
        total = sum(n ** m for m in range(1, cap + 1))
        if monomial_budget is not None and total > monomial_budget:
            raise CapacityError(
                f"job needs {total} monomials (n={n}, cap={cap}), "
                f"budget is {monomial_budget}"
            )
        self.n = n
        self.cap = cap
        self.bases = [get_basis(n, m) for m in range(1, cap + 1)]
        self.generators = [generator_element(i, n, cap) for i in range(n)]
        self._brackets: dict[tuple[int, ...], GroupElement] = {}
        self._full = None

    def compatible(self, other: "AmbientContext") -> bool:
        return self.n == other.n and self.cap == other.cap

    def basis(self, m: int):
        return self.bases[m - 1]

    def identity(self) -> GroupElement:
        return identity_element(self.cap)

    def element_of_word(self, word) -> GroupElement:
        if len(word.alphabet) > self.n:
            raise ValueError("word alphabet exceeds the ambient rank")
        return _word_element(word, self.generators, self.cap)

    def bracket_element(self, word: tuple[int, ...]) -> GroupElement:
        """Group element realizing the standard bracketing of a Lyndon word;
        built recursively so shared sub-brackets are computed once."""
        el = self._brackets.get(word)
        if el is None:
            if len(word) == 1:
                el = self.generators[word[0]]
            else:
                u, v = standard_factorization(word)
                el = self.bracket_element(u).commutator(self.bracket_element(v))
            self._brackets[word] = el
        return el

    def leading_coordinates(self, g: GroupElement) -> tuple[int, list[int]]:
        """(weight, Lyndon coordinates of the leading part); the leading part
        of a group element is always a Lie element, so this cannot fail."""
        m = g.weight()
        if m is None:
            raise ValueError("identity has no leading coordinates")
        coords = self.basis(m).coordinates(g.leading())
        if coords is None:
            raise AssertionError("leading part escaped the Lyndon lattice")
        return m, coords

    def full_group(self) -> "FilteredSubgroup":
        """The whole ambient group as a saturated filtered subgroup: full
        lattices at every degree, realized by standard bracketings."""
        if self._full is None:
            sub = FilteredSubgroup(self, normal=True)
            for m in range(1, self.cap + 1):
                level = sub.levels[m - 1]
                words = lyndon_words(self.n, m)
                dim = len(words)
                for j, w in enumerate(words):
                    row = [0] * dim
                    row[j] = 1
                    level.rows.append(row)
                    level.elems.append(self.bracket_element(w))
            self._full = sub
        return self._full


class _Level:
    """One degree of a filtered subgroup: echelon lattice rows plus the
    group elements realizing them."""

    __slots__ = ("dim", "rows", "elems")

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[int]] = []
        self.elems: list[GroupElement] = []

    def copy(self) -> "_Level":
        out = _Level(self.dim)
        out.rows = [row[:] for row in self.rows]
        out.elems = self.elems[:]
        return out

    def index(self) -> int | None:
        """Index of the lattice in Z^dim, None when the rank is deficient."""
        if len(self.rows) < self.dim:
            return None
        out = 1
        for row in self.rows:
            out *= next(x for x in row if x)
        return out

    @property
    def is_full(self) -> bool:
        return self.index() == 1

    def add(self, vec, elem: GroupElement) -> list[GroupElement]:
        """Insert a vector with its realizing element, keeping Hermite form.

        Returns the byproduct, if any: the element left over when the
        leading coordinates cancel to zero during reduction.  It has
        strictly larger weight and must be re-sieved by the caller.
        """
        left = hermite_insert(self.rows, self.elems, vec, elem, mul, pow)
        return [] if left is None or left.is_identity else [left]


@dataclass
class SieveResult:
    member: bool
    recipe: list  # ((degree, row index), exponent) pairs, in product order
    residue: GroupElement | None


class FilteredSubgroup:
    """See the module docstring; construct through the functions below."""

    def __init__(self, ambient: AmbientContext, normal: bool):
        self.ambient = ambient
        self.normal = normal
        self.levels = [
            _Level(witt_dimension(ambient.n, m)) for m in range(1, ambient.cap + 1)
        ]

    def copy(self) -> "FilteredSubgroup":
        out = FilteredSubgroup(self.ambient, self.normal)
        out.levels = [lvl.copy() for lvl in self.levels]
        return out

    def stored(self) -> list[tuple[int, int, GroupElement]]:
        """All realizing elements as (degree, row index, element), ordered."""
        out = []
        for m in range(1, self.ambient.cap + 1):
            level = self.levels[m - 1]
            for i, el in enumerate(level.elems):
                out.append((m, i, el))
        return out

    def lattice_rows(self, m: int) -> list[list[int]]:
        return [row[:] for row in self.levels[m - 1].rows]

    def sieve(self, g: GroupElement) -> SieveResult:
        """Reduce g level by level; MEMBER comes with a recipe that
        multiplies out exactly to g."""
        self._check_ambient(g)
        recipe = []
        cur = g
        while True:
            m = cur.weight()
            if m is None:
                return SieveResult(True, recipe, None)
            _, coords = self.ambient.leading_coordinates(cur)
            level = self.levels[m - 1]
            exps, _ = echelon_solve(level.rows, coords)
            if exps is None:
                return SieveResult(False, recipe, cur)
            steps = [((m, i), e) for i, e in enumerate(exps) if e]
            recipe.extend(steps)
            if m == self.ambient.cap:
                # Dividing off at the top degree leaves weight > cap, which
                # is the identity here; no group arithmetic needed.
                return SieveResult(True, recipe, None)
            for (_, i), e in steps:
                cur = (level.elems[i] ** (-e)) * cur

    def contains(self, g: GroupElement) -> bool:
        return self.sieve(g).member

    def resolve(self, ref) -> GroupElement:
        m, i = ref
        return self.levels[m - 1].elems[i]

    def contains_all(self, other: "FilteredSubgroup") -> bool:
        return all(self.contains(el) for _, _, el in other.stored())

    def equal_as_subgroup(self, other: "FilteredSubgroup") -> bool:
        return self.contains_all(other) and other.contains_all(self)

    def _check_ambient(self, g: GroupElement):
        if g.cap != self.ambient.cap:
            raise ValueError("element cap does not match the ambient")


def trivial_subgroup(ambient: AmbientContext, normal: bool = True) -> FilteredSubgroup:
    return FilteredSubgroup(ambient, normal)


def insert_and_close(
    base: FilteredSubgroup | None,
    ambient: AmbientContext,
    elements,
    normal: bool,
) -> FilteredSubgroup:
    """Consistent closure of `base` (may be None) together with `elements`,
    normal when `normal` or the base is.  Each inserted residue queues its
    commutators with the ambient generators in normal mode; passes re-sieve
    the consistency obligations until one inserts nothing."""
    if base is not None:
        if not base.ambient.compatible(ambient):
            raise ValueError("ambient mismatch")
        sub = base.copy()
        sub.normal = base.normal or normal
    else:
        sub = FilteredSubgroup(ambient, normal)

    cap = ambient.cap
    queue = deque(elements)

    def process(g: GroupElement) -> bool:
        res = sub.sieve(g)
        if res.member:
            return False
        r = res.residue
        m = r.weight()
        _, coords = ambient.leading_coordinates(r)
        queue.extend(sub.levels[m - 1].add(coords, r))
        if sub.normal and m < cap:
            queue.extend(r.commutator(x) for x in ambient.generators)
        return True

    checked = False  # a pass was queued and nothing inserted since
    while True:
        while queue:
            if process(queue.popleft()):
                checked = False
        if checked:
            return sub
        # Consistency pass; stored() is ordered by degree, so the inner loop
        # stops at the first partner whose commutator passes the cap.
        stored = sub.stored()
        for a, (ma, _, ra) in enumerate(stored):
            for mb, _, rb in stored[a + 1:]:
                if ma + mb > cap:
                    break
                queue.append(ra.commutator(rb))
            if sub.normal and ma < cap:
                queue.extend(ra.commutator(x) for x in ambient.generators)
        checked = True


def join(u: FilteredSubgroup, v: FilteredSubgroup) -> FilteredSubgroup:
    """Smallest saturated subgroup containing both (normal closure when
    either input is normal)."""
    if not u.ambient.compatible(v.ambient):
        raise ValueError("ambient mismatch")
    return insert_and_close(
        u, u.ambient, [el for _, _, el in v.stored()], u.normal or v.normal
    )


def commutator_with(u: FilteredSubgroup, v: FilteredSubgroup) -> FilteredSubgroup:
    """Normal closure of the commutators of the stored realizing elements of
    the two subgroups; iterating with v = full ambient group computes
    iterated commutator subgroups with the whole group.

    Against the full group, u's elements are paired with the ambient
    generators only: for U = <S> and F = <X>, [U, F] is the normal closure
    K of the [s, x], since K <= [U, F], which is normal, and modulo K every
    s commutes with every x, so U is central and [U, F] <= K."""
    if not u.ambient.compatible(v.ambient):
        raise ValueError("ambient mismatch")
    cap = u.ambient.cap
    if v is u.ambient._full:
        partners = [(1, x) for x in u.ambient.generators]
    else:
        partners = [(m, b) for m, _, b in v.stored()]
    elems = []
    for m1, _, a in u.stored():
        for m2, b in partners:
            if m1 + m2 > cap:
                continue  # commutator weight >= m1 + m2: identity here
            c = a.commutator(b)
            if not c.is_identity:
                elems.append(c)
    return insert_and_close(None, u.ambient, elems, normal=True)


def intersect_with_gamma(u: FilteredSubgroup, m: int) -> FilteredSubgroup:
    """Intersection with the degree-m lower-central term: keep the levels at
    degree >= m.  A saturated filtered sequence is induced along the central
    filtration, so the stored elements of weight >= m generate exactly the
    intersection, and their sieve paths never visit lower degrees."""
    if m > u.ambient.cap:
        raise ValueError("gamma degree exceeds the cap")
    out = u.copy()
    for j in range(1, m):
        out.levels[j - 1] = _Level(out.levels[j - 1].dim)
    return out


def quotient_order(u: FilteredSubgroup) -> int | None:
    """Order of ambient/U for saturated normal U: the product over degrees
    of the lattice index, or None (infinite) at any rank deficiency."""
    total = 1
    for level in u.levels:
        ix = level.index()
        if ix is None:
            return None
        total *= ix
    return total


def is_full(u: FilteredSubgroup) -> bool:
    return all(level.is_full for level in u.levels)


def quotient_invariants(
    num: FilteredSubgroup, den: FilteredSubgroup
) -> AbelianInvariants:
    """Invariants of the abelian quotient N/D.

    Preconditions are checked, not assumed: every stored element of D must
    sieve into N, and every commutator of two stored N-generators must sieve
    into D.  The abelian presentation has one generator per stored element
    of N; its relations are the abelianized sieve recipes of D's stored
    elements and of the pairwise commutators of N's generators.
    """
    if not num.ambient.compatible(den.ambient):
        raise ValueError("ambient mismatch")
    cap = num.ambient.cap
    gens = num.stored()
    pos = {(m, i): k for k, (m, i, _) in enumerate(gens)}
    width = len(gens)

    def recipe_row(recipe) -> list[int]:
        row = [0] * width
        for ref, e in recipe:
            row[pos[ref]] += e
        return row

    rows = []
    for _, _, d in den.stored():
        res = num.sieve(d)
        if not res.member:
            raise ValueError("denominator is not contained in the numerator")
        rows.append(recipe_row(res.recipe))
    for a in range(width):
        for b in range(a + 1, width):
            ma, _, ga = gens[a]
            mb, _, gb = gens[b]
            if ma + mb > cap:
                continue  # commutator is the identity at this cap
            c = ga.commutator(gb)
            if c.is_identity:
                continue
            if not den.contains(c):
                raise ValueError("quotient is not abelian")
            res = num.sieve(c)
            if not res.member:
                raise AssertionError("commutator escaped the numerator")
            rows.append(recipe_row(res.recipe))
    return abelian_invariants(width, rows)


def embedded_copy(
    u: FilteredSubgroup,
    target: AmbientContext,
    offset: int,
    normal: bool,
) -> FilteredSubgroup:
    """Image of a subgroup under the free-factor embedding that shifts every
    generator index by `offset`; re-closed in the target ambient."""
    if target.cap != u.ambient.cap:
        raise ValueError("cap mismatch between ambients")
    elems = [
        reindex_element(el, offset, target.n) for _, _, el in u.stored()
    ]
    return insert_and_close(None, target, elems, normal)


def lattices_intersect_trivially(
    u: FilteredSubgroup, v: FilteredSubgroup
) -> bool:
    """True when at every degree the leading-coordinate lattices of the two
    subgroups meet only in zero; then the subgroups meet only in the
    identity, since a nontrivial common element would put its leading
    coordinates in both lattices."""
    for lu, lv in zip(u.levels, v.levels):
        if not lu.rows or not lv.rows:
            continue
        # Level rows are nonzero Hermite rows with distinct pivots, so each
        # level's rank is its row count.
        stacked = IntMatrix(lu.rows + lv.rows, cols=lu.dim)
        if len(hnf(stacked)[0].nonzero_rows()) < len(lu.rows) + len(lv.rows):
            return False
    return True

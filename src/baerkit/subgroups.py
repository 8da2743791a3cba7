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

Every subgroup closed here is a normal closure.  Consistency means that
the commutator [r, x] of every stored r with every ambient generator x
sieves to membership (the obligations of a filtered polycyclic sequence;
Sims, "Computation with Finitely Presented Groups", ch. 9).
`insert_and_close` queues the obligations of each residue once, when it
inserts it.  It stops when the queue is empty, which happens because every
insertion strictly enlarges one of finitely many lattices of bounded rank,
and an ascending chain of lattices in Z^d is finite; no pass looks at the
stored elements again.  The one subgroup that is not normal, a free factor
on some of the generators, is stored directly (`free_factor`) and is never
closed.

The queue is a heap: inputs, obligations and Hermite leftovers alike come
out by least content of the leading part, then least weight, then arrival.
The content (gcd of the leading monomial coefficients) equals the gcd of
the leading Lyndon coordinates, since the bracketings expand unitriangularly
over the Lyndon monomials; it divides every entry of the element's row.
Small contents first thus set small pivots early, and later rows at that
level divide off exactly.  An xgcd merge instead raises both tags to
cofactor powers: with a^32 taken ahead of D64's content-2 rows, the merges
made the relator closure at cap 8 ten times slower.  Termination and
items 2-5 below hold for any order in which the queue is taken.

Why this certifies the sieve, with R_m the residues of weight m inserted
over the whole closure (a base's stored elements count as residues inserted
first), H the group the final stored elements generate and H_m the group
generated by those of weight >= m:

1. Level rows are Hermite rows with distinct pivots, and each degree-m
   section of the free nilpotent group is free abelian: no power
   obligations arise.
2. Hermite steps keep the group.  A merge replaces two level-m tags (a, b)
   by (a^x b^y, b^p a^-q) with xp + yq = 1; the other steps divide a tag by
   a power of another or invert it.  Either way the new pair maps onto the
   abelianization of <a, b>, a nilpotent group, so it generates <a, b>.
   So at every moment the level-m rows and the level-m leftovers (weight
   > m, queued) generate the group of the level-m residues so far, and each
   row is a word in those residues.
3. Earlier membership stays valid.  A queued element of weight w is sieved
   through rows of weight >= w and ends at the identity, at a residue of
   weight >= w, or at weight >= t (item 5), so it lies in the group of
   R_{>=w}.  With 2, by downward induction on m, H_m is the group of
   R_{>=m}: the leftovers of level m lie in that of R_{>=m+1}.  So every
   element the closure queued, inputs and obligations included, lies in
   the final H_w of its weight w, however the rows changed afterwards.
4. Merged rows inherit their residues' obligations.  By downward
   induction on m, suppose H_{m+1} is normal in F.  For r in R_m and a
   generator x, [r, x] has weight > m, so it lies in H_{m+1} by 3: r
   commutes with x modulo H_{m+1}, hence with x^-1, and by
   [r, yz] = [r, z][r, y]^z with every element of F.  So each r in R_m is
   central modulo H_{m+1}, and H_m, generated by R_m and H_{m+1}, is
   normal; each row, a word in residues, is central as well.  A base, a
   normal closure itself, meets this for its own elements.
   So each H_m / H_{m+1} is abelian and generated by the level-m rows,
   whose leading coordinates are independent: H_m meets gamma_{m+1} in
   H_{m+1}, and by downward induction on m the sieve decides H.  Inverses
   need no check, since H is a group; [r, x] in H gives x^-1 H x <= H,
   equality by the max condition, so conjugation by x^-1 is covered.
5. A full suffix contains its lower-central terms.  If levels t .. cap
   are all full, sieving an element of weight w >= t divides off stored
   elements of weight >= w at full levels only and ends at the identity,
   consistent sequence or not: H_w = gamma_w for every w >= t.  So
   `sieve(g, stop=t)` ends as a member at weight >= t, and
   `insert_and_close` skips the obligations of a residue of weight m once
   m + 1 >= t, since [r, x] has weight > m: such a commutator of weight w
   lies in H_w, as 3 and 4 require.  Insertions only enlarge lattices, so
   t only falls and a skipped obligation stays met.
   `contains` stops at t as well; `quotient_invariants` sieves to the end,
   because it reads the recipes.
6. Seeded towers.  The only commutator subgroup the engine builds is
   [U, F] with the whole ambient group F = <X>.  If U is full from level
   t on, U = <S> gamma_t with S its stored elements of weight < t, and
   [U, F] is the normal closure K of gamma_{t+1} = [gamma_t, F] and the
   [s, x] for generators x: K lies in [U, F], and modulo K each s commutes
   with each x while gamma_t is central, so U is central and [U, F] <= K.
   `commutator_with` starts from gamma_{t+1}, the free factor on every
   letter from degree t + 1 (`free_factor`), and pairs only S with X.
7. Graded towers.  In the free nilpotent group of class W, the tower
   T_j = [R, F, ..., F] with j copies of F reaches T_c only through T_j
   modulo gamma_{W-c+j+1}: [gamma_m, F] = gamma_{m+1}, so
   [T_{j-1} gamma_{W-c+j}, F] = T_j gamma_{W-c+j+1}, and T_c is T_c
   gamma_{W+1}.  So `baer.hopf_pair` builds T_j at class W - c + j (its
   cut 4 starts the tower), and only T_c at class W.  A step from u at
   class D to class D + 1 pairs the generators with elements that generate
   U gamma_{D+1}, since [gamma_{D+1}, F] is trivial there: u's stored
   elements and, when u's top level is not full, its top rows as products
   of bracket powers, or from a full level t on u's elements below t with
   gamma_{t+1} seeded, as in 6.  Each stored element is known modulo
   gamma_{D+1} only, and any lift will do: changing g in degrees >= D + 1
   changes [g, x] only in degrees >= D + 2 (`magnus` module docstring,
   "Lifts").

The top level.  The degree-cap level stores rows only (`_TopLevel`).  An
element g of weight cap is 1 plus its leading part, since every term above
the weight lies above the cap; so g is 1 + sum_j a_j e_j, with a its
leading coordinates and e_j the expansion of the j-th Lyndon bracketing of
degree cap.  Products of such elements add their leading parts and powers
scale them: gamma_cap is central and free abelian (Sims, ch. 9), and
g -> a is an isomorphism onto Z^d.  A tagged Hermite step at the top takes
row combinations r x + s y to tag products a^x b^y of weight cap, whose
leading coordinates are the combined row; so every tag is the element its
row determines, and a vector that cancels leaves a tag of weight above the
cap, the identity.  Hence inserting untagged gives the same rows and loses
nothing.  The sieve needs coordinates only at the top, and a commutator
with a top element is the identity, so only elements below the cap are
sieved or paired, and top rows are solved against top rows.  `join(u, v)`
inserts v's top rows into a copy of u, then closes v's elements below the
cap into it: the rows span a central Z <= gamma_cap, so uZ is normal and
meets its obligations, those of Z being the identity.  `embedded_copy`
starts the same way from the shifted top rows, mapped through the shifted
Lyndon words: one shift of every letter keeps the letters' order, so each
word stays Lyndon with the same standard factorization, and the embedding
sends a row's product of bracket powers to the same powers of the shifted
brackets.

Equality.  When the sieve decides a subgroup H, the rows of level m are the
Hermite form of gr_m H, the lattice of the leading coordinates of the
elements of H of weight m: each row is such an element's, and each such
element sieves through level m.  Reduced Hermite rows are unique per
lattice, so U = V gives equal rows at every level.  Equal rows alone do not
give U = V (ncl(x^2) and ncl(x^2 [x, y]) at cap 2 have the same rows), but
with V <= U they do.  By downward induction on m, U meet gamma_m <= V: an
element u of U of weight m shares its leading coordinates with some v in V,
as gr_m U = gr_m V, and v^-1 u lies in U with weight > m, hence in V (above
the cap it is the identity).  So `equal_as_subgroup` compares rows and then
checks one inclusion.
"""

from __future__ import annotations

import heapq
import itertools
from collections import namedtuple
from math import gcd, prod
from operator import mul

from .errors import CapacityError
from .intlinalg import (
    AbelianInvariants,
    _pivots,
    _untagged,
    abelian_invariants,
    echelon_solve,
    hermite_insert,
)
from .lyndon import get_basis, standard_factorization
from .magnus import (
    GroupElement,
    _word_element,
    generator_element,
    identity_element,
    reindex_element,
)

DEFAULT_MONOMIAL_BUDGET = 50_000

# 2**14_300 > 10**4_300, the default limit on the digits Python converts
# from an int to a string: a count this large was never printable.
_UNPRINTABLE_BITS = 14_300


def monomials_over_budget(n: int, top: int, budget: int, through: bool) -> str | None:
    """The number of monomials a job needs, as text, when it exceeds
    `budget`; None when it fits.  The number is n^top, or
    n + n^2 + ... + n^top when `through`.

    The number is at least n^top >= 2^b with b = top * floor(log2 n), so
    once b reaches the budget's bit length it exceeds the budget.  It is
    formed only while b is below that bit length or below the size of a
    printable number, so deciding costs no more than the budget's own size
    and never sums cap powers.  A number with more digits than int-to-str
    conversion allows is written as a power of n.
    """
    low_bits = top * (n.bit_length() - 1)
    if low_bits < max(budget.bit_length(), _UNPRINTABLE_BITS):
        if not through:
            count = n ** top
        elif n == 1:
            count = top
        else:
            count = (n ** (top + 1) - n) // (n - 1)
        if count <= budget:
            return None
        try:
            return str(count)
        except ValueError:
            pass
    return f"more than {n}^{top}" if through else f"{n}^{top}"


class AmbientContext:
    """The free nilpotent group on n generators of class `cap`, together with
    the per-degree Lyndon bases used for coordinates and the monomial budget
    it was built under."""

    def __init__(self, n: int, cap: int, monomial_budget: int = DEFAULT_MONOMIAL_BUDGET):
        if n < 1 or cap < 1:
            raise ValueError("need n >= 1 and cap >= 1")
        need = monomials_over_budget(n, cap, monomial_budget, through=True)
        if need is not None:
            raise CapacityError(
                f"job needs {need} monomials (n={n}, cap={cap}), "
                f"budget is {monomial_budget}"
            )
        self.n = n
        self.cap = cap
        self.monomial_budget = monomial_budget
        self.bases = [get_basis(n, m) for m in range(1, cap + 1)]
        self.generators = [generator_element(i, n, cap) for i in range(n)]
        self._brackets: dict[tuple[int, ...], GroupElement] = {}

    def compatible(self, other: "AmbientContext") -> bool:
        return self.n == other.n and self.cap == other.cap

    def basis(self, m: int):
        return self.bases[m - 1]

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
        if g.series.n != self.n:
            raise ValueError("element rank does not match the ambient")
        coords = self.basis(m).coordinates(g.leading())
        if coords is None:
            raise AssertionError("leading part escaped the Lyndon lattice")
        return m, coords


class _Level:
    """One degree below the cap of a filtered subgroup: echelon lattice rows
    plus the group elements realizing them."""

    __slots__ = ("dim", "rows", "elems")

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[int]] = []
        self.elems: list[GroupElement] = []

    def copy(self) -> "_Level":
        """A level whose lists can grow apart from this one's; the rows
        themselves are shared, since `hermite_insert` replaces a row and
        never edits one in place."""
        out = _Level(self.dim)
        out.rows = self.rows[:]
        out.elems = self.elems[:]
        return out

    def index(self) -> int | None:
        """Index of the lattice in Z^dim, None when the rank is deficient."""
        if len(self.rows) < self.dim:
            return None
        return prod(row[p] for row, p in zip(self.rows, _pivots(self.rows)))

    @property
    def is_full(self) -> bool:
        """Read off the diagonal: dim Hermite rows have their pivots there,
        and the lattice is Z^dim exactly when each pivot is 1."""
        rows = self.rows
        return len(rows) == self.dim and all(r[i] == 1 for i, r in enumerate(rows))

    def add(self, vec, elem: GroupElement) -> list[GroupElement]:
        """Insert a vector with its realizing element, keeping Hermite form.

        Returns the byproduct, if any: the element left over when the
        leading coordinates cancel to zero during reduction.  It has
        strictly larger weight and must be re-sieved by the caller.
        """
        left = hermite_insert(self.rows, self.elems, vec, elem, mul, pow)
        return [] if left is None or left.is_identity else [left]


class _TopLevel(_Level):
    """The degree-cap level: rows only (module docstring, "The top
    level")."""

    __slots__ = ()

    def __init__(self, dim: int):
        self.dim = dim
        self.rows = []

    def copy(self) -> "_TopLevel":
        out = _TopLevel(self.dim)
        out.rows = self.rows[:]
        return out

    def add(self, vec, elem: GroupElement | None = None) -> list[GroupElement]:
        """Insert a vector untagged; `elem`, when given, is the element the
        row determines, and nothing is left over at the cap."""
        hermite_insert(self.rows, [None] * len(self.rows), vec, None, _untagged, _untagged)
        return []


class SieveResult(namedtuple("SieveResult", "recipe residue coords")):
    __slots__ = ()
    recipe: list  # ((degree, row index), exponent) pairs, in product order
    residue: GroupElement | None  # None exactly for a member
    coords: list[int] | None  # the residue's leading coordinates

    @property
    def member(self) -> bool:
        return self.residue is None


class FilteredSubgroup:
    """See the module docstring; construct through the functions below.
    Every subgroup is normal in the ambient except a proper free factor.

    Subgroups may share levels: `intersect_with_gamma` hands a Hopf
    closure's levels to its numerator, and `copy` shares the rows.  So a
    built subgroup is never changed in place: `insert_and_close` grows a
    copy of its base.  Only a seed that no one else holds yet is grown
    in place, by `commutator_with`, `baer.working_closure` and
    `baer.hopf_pair`."""

    def __init__(self, ambient: AmbientContext):
        self.ambient = ambient
        *below, top = ambient.bases
        self.levels = [_Level(len(basis)) for basis in below] + [_TopLevel(len(top))]

    def copy(self) -> "FilteredSubgroup":
        out = FilteredSubgroup.__new__(FilteredSubgroup)
        out.ambient = self.ambient
        out.levels = [lvl.copy() for lvl in self.levels]
        return out

    def stored(self, below: int | None = None) -> list[tuple[int, int, GroupElement]]:
        """The realizing elements as (degree, row index, element), ordered:
        those below the cap, where the top level keeps none, or those of
        degree < `below` <= cap."""
        out = []
        for m in range(1, self.ambient.cap if below is None else below):
            level = self.levels[m - 1]
            for i, el in enumerate(level.elems):
                out.append((m, i, el))
        return out

    def sieve(self, g: GroupElement, stop: int | None = None) -> SieveResult:
        """Reduce g level by level; MEMBER comes with a recipe that
        multiplies out exactly to g.  With `stop` = t, where the levels
        t .. cap are full, reaching weight >= t ends the walk as MEMBER
        (module docstring, item 5), and the recipe is then a prefix.  A
        non-member comes with its residue and the residue's leading
        coordinates, which the walk has already computed."""
        self._check_ambient(g)
        recipe = []
        cur = g
        while True:
            m = cur.weight()
            if m is None or stop is not None and m >= stop:
                return SieveResult(recipe, None, None)
            _, coords = self.ambient.leading_coordinates(cur)
            level = self.levels[m - 1]
            exps, _ = echelon_solve(level.rows, coords)
            if exps is None:
                return SieveResult(recipe, cur, coords)
            steps = [((m, i), e) for i, e in enumerate(exps) if e]
            recipe.extend(steps)
            if m == self.ambient.cap:
                # Dividing off at the top degree leaves weight > cap, which
                # is the identity here; the top level keeps no elements.
                return SieveResult(recipe, None, None)
            for (_, i), e in steps:
                cur = (level.elems[i] ** (-e)) * cur

    def full_from(self) -> int:
        """Least t with levels t .. cap all full (cap + 1 when the top level
        is not); the subgroup then contains gamma_t (see the module
        docstring)."""
        t = self.ambient.cap + 1
        while t > 1 and self.levels[t - 2].is_full:
            t -= 1
        return t

    def contains(self, g: GroupElement) -> bool:
        self._check_ambient(g)
        m, t = g.weight(), self.full_from()
        return m is None or m >= t or self.sieve(g, t).member

    def contains_all(self, other: "FilteredSubgroup") -> bool:
        """other <= self; other's top rows are solved against this top
        level's rows (module docstring, "The top level")."""
        if not self.ambient.compatible(other.ambient):
            raise ValueError("ambient mismatch")
        top = self.levels[-1].rows
        return all(
            self.contains(el) for _, _, el in other.stored()
        ) and all(
            echelon_solve(top, vec)[0] is not None for vec in other.levels[-1].rows
        )

    def equal_as_subgroup(self, other: "FilteredSubgroup") -> bool:
        """Equal rows at every level, then other <= self (module docstring,
        "Equality")."""
        if not self.ambient.compatible(other.ambient):
            raise ValueError("ambient mismatch")
        return all(
            a.rows == b.rows for a, b in zip(self.levels, other.levels)
        ) and self.contains_all(other)

    def _check_ambient(self, g: GroupElement):
        if g.cap != self.ambient.cap:
            raise ValueError("element cap does not match the ambient")
        if g.series.n != self.ambient.n and not g.is_identity:
            raise ValueError("element rank does not match the ambient")


def insert_and_close(
    base: FilteredSubgroup | None, ambient: AmbientContext, elements
) -> FilteredSubgroup:
    """Normal closure of `base` (may be None) together with `elements`.
    The base must be a normal closure itself, so it already meets its
    obligations.  Each residue queues its own once, when it is inserted:
    [r, x] for the ambient generators x.  The closure is complete when the
    queue is empty (module docstring, items 2-5).

    The queue is a heap keyed by (content of the leading part, weight,
    arrival); identities never enter it.  Taking the least content first
    sets small pivots before large ones, so the closure's cost barely moves
    with the order of `elements`; its result never did."""
    if base is None:
        return _close_in_place(FilteredSubgroup(ambient), elements)
    if not base.ambient.compatible(ambient):
        raise ValueError("ambient mismatch")
    return _close_in_place(base.copy(), elements)


def _close_in_place(sub: FilteredSubgroup, elements) -> FilteredSubgroup:
    """Grow `sub`, a normal closure that no one else holds, to the normal
    closure of it and `elements`, and return it (see `insert_and_close`)."""
    work: list = []  # heap of (leading content, weight, arrival, element)
    arrivals = itertools.count()
    t = sub.full_from()  # the sequence contains gamma_t

    def push(g: GroupElement):
        m = g.weight()
        if m is not None:
            content = gcd(*g.leading().values())
            heapq.heappush(work, (content, m, next(arrivals), g))

    for g in elements:
        push(g)

    while work:
        _, m, _, g = heapq.heappop(work)
        if m >= t:
            continue  # an element of gamma_t (item 5)
        res = sub.sieve(g, t)
        r = res.residue
        if r is None:
            continue
        m = r.weight()
        level = sub.levels[m - 1]
        for left in level.add(res.coords, r):
            push(left)
        if m == t - 1 and level.is_full:
            t = sub.full_from()
        if m + 1 < t:  # else each [r, x] lies in gamma_t
            for x in sub.ambient.generators:
                push(r.commutator(x))
    return sub


def join(u: FilteredSubgroup, v: FilteredSubgroup) -> FilteredSubgroup:
    """Normal closure of both, grown from u, which must be a normal closure
    (see `insert_and_close`); v may be a free factor.  v's top rows go in
    first (module docstring, "The top level")."""
    if not u.ambient.compatible(v.ambient):
        raise ValueError("ambient mismatch")
    base = u.copy()
    for vec in v.levels[-1].rows:
        base.levels[-1].add(vec)
    return insert_and_close(base, u.ambient, [el for _, _, el in v.stored()])


def commutator_with(
    u: FilteredSubgroup, ambient: AmbientContext | None = None
) -> FilteredSubgroup:
    """[U, F], the commutator subgroup of u with the whole ambient group F,
    closed in `ambient` of u's rank: u's own by default, or one class
    above, where u's elements are lifted.  Iterating it builds the towers
    [U, F, ..., F], one class up per step (item 7).

    Generators of U are paired with the ambient generators only: for
    U = <S> and F = <X>, [U, F] is the normal closure K of the [s, x],
    since K <= [U, F], which is normal, and modulo K every s commutes with
    every x, so U is central and [U, F] <= K.  When u is full from level t
    on, the result starts from gamma_{t+1} and only u's elements of weight
    < t are paired (module docstring, item 6); when its top level is not
    full, its top rows are paired too, as products of bracket powers."""
    own = u.ambient
    ambient = own if ambient is None else ambient
    cap, t = ambient.cap, u.full_from()
    if ambient.n != own.n or cap not in (own.cap, own.cap + 1):
        raise ValueError("ambient needs u's rank and u's class or one above")
    # u's top rows matter only one class up.
    stored = u.stored(min(t, own.cap))
    rows = u.levels[-1].rows if t > own.cap and cap > own.cap else []
    lyndon = own.basis(own.cap).words
    gens = [a.at_cap(cap) for _, _, a in stored] + [
        prod(
            (ambient.bracket_element(w) ** e for w, e in zip(lyndon, row) if e),
            start=identity_element(cap),
        )
        for row in rows
    ]
    seed = free_factor(ambient, range(ambient.n), t + 1)  # empty from t = cap on
    elems = []
    for a in gens:
        for x in ambient.generators:
            c = a.commutator(x)
            if not c.is_identity:
                elems.append(c)
    return _close_in_place(seed, elems)


def intersect_with_gamma(u: FilteredSubgroup, m: int) -> FilteredSubgroup:
    """Intersection with the degree-m lower-central term: keep the levels at
    degree >= m, shared with u.  A saturated filtered sequence is induced
    along the central filtration, so the stored elements of weight >= m
    generate exactly the intersection, and their sieve paths never visit
    lower degrees.  It slices Hopf closures to their numerators."""
    if m > u.ambient.cap:
        raise ValueError("gamma degree exceeds the cap")
    out = FilteredSubgroup.__new__(FilteredSubgroup)
    out.ambient = u.ambient
    out.levels = [
        level if j >= m else _Level(level.dim)
        for j, level in enumerate(u.levels, start=1)
    ]
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
    top = num.levels[-1].rows
    refs = [(m, i) for m, i, _ in gens] + [(cap, i) for i in range(len(top))]
    pos = {ref: k for k, ref in enumerate(refs)}
    width = len(refs)

    def recipe_row(recipe) -> list[int]:
        row = [0] * width
        for ref, e in recipe:
            row[pos[ref]] += e
        return row

    # D's stored elements below the cap are sieved; its top rows are
    # solved against N's, the sieve's last step (module docstring, "The
    # top level").  Commutators with a top element are the identity.
    rows = []
    for _, _, d in den.stored():
        res = num.sieve(d)
        if not res.member:
            raise ValueError("denominator is not contained in the numerator")
        rows.append(recipe_row(res.recipe))
    for vec in den.levels[-1].rows:
        exps, _ = echelon_solve(top, vec)
        if exps is None:
            raise ValueError("denominator is not contained in the numerator")
        rows.append(recipe_row([((cap, i), e) for i, e in enumerate(exps)]))
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
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


def free_factor(
    ambient: AmbientContext, letters, degree: int
) -> FilteredSubgroup:
    """The free factor on the generators `letters`, meet gamma_degree.  At
    each degree m >= `degree` it holds the unit rows of the Lyndon words
    over `letters`, realized by their standard bracketings.

    No closure is needed: killing the other letters retracts the ambient
    onto the factor, so the factor's lower-central terms are its meets with
    the ambient's, and the bracketings of its Lyndon words of weight >= m
    generate its m-th term.  A proper free factor is the only subgroup that
    is not normal, so it is never a closure base.  On every letter it is
    gamma_degree, the engine's one construction of it (trivial past cap)."""
    keep = set(letters)
    sub = FilteredSubgroup(ambient)
    for m in range(degree, ambient.cap + 1):
        level = sub.levels[m - 1]
        for j, w in enumerate(ambient.basis(m).words):
            if keep.issuperset(w):
                row = [0] * level.dim
                row[j] = 1
                level.rows.append(row)
                if m < ambient.cap:  # the top level keeps rows only
                    level.elems.append(ambient.bracket_element(w))
    return sub


def embedded_copy(
    u: FilteredSubgroup, target: AmbientContext, offset: int
) -> FilteredSubgroup:
    """Image of a subgroup under the free-factor embedding that shifts every
    generator index by `offset`, closed to its normal closure in the
    target.  The image itself need not be normal there, but it is only
    joined with normal subgroups N, and E with N has the same normal
    closure as ncl(E) with N.  Top rows map through the shifted Lyndon
    words (module docstring, "The top level")."""
    cap = target.cap
    if cap != u.ambient.cap:
        raise ValueError("cap mismatch between ambients")
    if offset < 0 or u.ambient.n + offset > target.n:
        raise ValueError("reindexed letter exceeds the target alphabet")
    base = FilteredSubgroup(target)
    top = base.levels[-1]
    index = {w: j for j, w in enumerate(target.basis(cap).words)}
    shifted = [
        index[tuple(x + offset for x in w)] for w in u.ambient.basis(cap).words
    ]
    for row in u.levels[-1].rows:
        vec = [0] * top.dim
        for j, a in zip(shifted, row):
            vec[j] = a
        top.add(vec)
    elems = [
        reindex_element(el, offset, target.n) for _, _, el in u.stored()
    ]
    return insert_and_close(base, target, elems)


def lattices_intersect_trivially(
    u: FilteredSubgroup, v: FilteredSubgroup
) -> bool:
    """True when at every degree the leading-coordinate lattices of the two
    subgroups meet only in zero; then the subgroups meet only in the
    identity, since a nontrivial common element would put its leading
    coordinates in both lattices."""
    if not u.ambient.compatible(v.ambient):
        raise ValueError("ambient mismatch")
    for lu, lv in zip(u.levels, v.levels):
        rows, tags = lu.rows[:], [None] * len(lu.rows)
        for vec in lv.rows:
            hermite_insert(rows, tags, vec, None, _untagged, _untagged)
        # Level rows are nonzero Hermite rows with distinct pivots, so each
        # lattice's rank is its row count.
        if len(rows) < len(lu.rows) + len(lv.rows):
            return False
    return True

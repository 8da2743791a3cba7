"""Free nilpotent group arithmetic via truncated integer power series.

A free group on n generators embeds into the units of the ring of
noncommutative integer power series by x_i -> 1 + X_i; discarding every
monomial of degree above a cap W turns this into exact arithmetic in the
free nilpotent quotient of class W.  The kernel of the truncated map is
precisely the (W+1)-st lower central term, so two words map to the same
series exactly when they agree in that quotient, and the lowest nonzero
degree of (series - 1) reads off lower-central depth.

Layout.  A series of rank n stores `grades`, a list of cap + 1 dicts:
grades[d] maps the big-endian base-n index of each degree-d monomial,
X_{i_1} ... X_{i_d} -> i_1 n^(d-1) + ... + i_d (`lyndon.monomial_index`), to
its nonzero integer coefficient.  The constant term is grades[0][0].  Within
one degree, index order is the lexicographic order of the monomials.

Index arithmetic.  Concatenating a degree-da monomial of index ia with a
degree-db monomial of index ib gives the degree-(da + db) monomial of index
ia * n^db + ib, so a product is one loop per pair of degrees with
da, db >= 1 and da + db <= cap, on integer keys alone.  The pairs with a
degree-0 factor only scale the other operand by a constant (1 for a group
element), so grade d of a product starts as a copy of one operand's grade
d.  The weight is the first non-empty grade above 0 and the leading part of
a group element is that grade.

Rank.  An index means something only together with its rank, so a product
of two series that both have letters and different ranks is refused, as a
cap mismatch is.  A series with no letters (the identity among them) reads
the same at every rank: `identity_element(cap)` has rank 0, and a product
takes the rank of its factor that has letters.  Tuple monomials appear only
at the boundaries: the validating `TruncatedSeries(cap, terms)` constructor
and the `terms` view.

Letters.  A letter is an element whose series is exactly x = 1 + X_i.
Multiplying by X_i only moves indices: a degree-d key k becomes k * n + i
on the right and i * n^d + k on the left.  With u = g - 1 of weight w,
gx - xg = uX_i - X_i u, so [g, x] = (xg)^-1 gx = 1 + g^-1 x^-1 (uX_i - X_i u).
E = x^-1 (uX_i - X_i u) has no term below degree w + 1 and solves
E_d = D_d - X_i E_(d-1) with D = uX_i - X_i u, so g^-1 E reaches the cap
only through the terms of g^-1 up to degree cap - w - 1, which depend only
on those of g up to that degree: g is inverted as a series of that cap,
and not at all when cap - w - 1 < w, where those terms are the constant 1.
A power of a letter is 1 + sum over j >= 1 of C(e, j) X_i^j, and X_i^j has
index i (n^(j-1) + ... + n + 1).

Lifts.  `GroupElement.at_cap` moves an element to another cap.  Down, it
drops the grades above the new cap, which is the exact image in the
smaller quotient.  Up, it pads with empty grades.  The padded series need
not be any group element's, but it is exact where the engine uses it: in
commutators one class up.  In [g, h] = 1 + (hg)^-1 (uv - vu), with h of
weight >= 1, changing g in degrees >= D changes uv - vu only in degrees
>= D + 1 and (hg)^-1 only in degrees >= D, so it changes [g, h] only in
degrees >= D + 1.  An element of class D padded to class D + 1 differs
from each of its true lifts in degree D + 1 only, so its commutators at
class D + 1 are those of every true lift.
"""

from __future__ import annotations

from collections.abc import Mapping

from .lyndon import Monomial, index_monomial, monomial_index


class TruncatedSeries:
    """Noncommutative polynomial over Z with all terms of degree <= cap,
    stored by degree on integer monomial indices (see the module
    docstring).  Instances are treated as immutable, and their grade dicts
    may be shared between instances.

    The public constructor takes `terms`, a dict from monomials (tuples of
    generator indices; the empty tuple is the constant term) to integers.
    The rank `n` defaults to one more than the largest letter used.
    """

    __slots__ = ("cap", "n", "grades")

    def __init__(self, cap: int, terms: dict, n: int | None = None):
        if cap < 1:
            raise ValueError("cap must be >= 1")
        terms = {m: c for m, c in terms.items() if c}
        if n is None:
            n = 1 + max((x for mono in terms for x in mono), default=-1)
        grades: list[dict] = [{} for _ in range(cap + 1)]
        for mono, c in terms.items():
            if len(mono) > cap:
                raise ValueError("monomial exceeds the cap")
            if not all(0 <= x < n for x in mono):
                raise ValueError("monomial letter outside the rank")
            grades[len(mono)][monomial_index(mono, n)] = c
        self.cap = cap
        self.n = n
        self.grades = grades

    @classmethod
    def _raw(cls, cap: int, n: int, grades: list) -> "TruncatedSeries":
        """Trusted constructor for cap + 1 grades built here that are already
        free of zero coefficients."""
        out = cls.__new__(cls)
        out.cap = cap
        out.n = n
        out.grades = grades
        return out

    @classmethod
    def one(cls, cap: int) -> "TruncatedSeries":
        return cls._raw(cap, 0, [{0: 1}] + [{} for _ in range(cap)])

    @property
    def terms(self) -> "_Terms":
        """Tuple-keyed read-only view of the nonzero terms."""
        return _Terms(self)

    @property
    def is_one(self) -> bool:
        return self.grades[0] == {0: 1} and self.weight() is None

    def constant(self) -> int:
        return self.grades[0].get(0, 0)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in length-lexicographic monomial order."""
        n = self.n
        return [
            (index_monomial(key, n, d), grade[key])
            for d, grade in enumerate(self.grades)
            for key in sorted(grade)
        ]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.cap != other.cap:
            return False
        if self.n == other.n or self.weight() is None or other.weight() is None:
            return self.grades == other.grades
        # The same letters index differently at different ranks.
        return self.terms == other.terms

    def __repr__(self):
        parts = []
        for mono, c in self.sorted_terms()[:8]:
            name = "".join(f"X{i}" for i in mono) or "1"
            parts.append(f"{c}*{name}")
        tail = " + ..." if len(self.terms) > 8 else ""
        return f"<series cap={self.cap}: {' + '.join(parts) or '0'}{tail}>"

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.cap != other.cap:
            raise ValueError("cap mismatch")
        n = self.n
        if other.n != n:
            if self.weight() is None:
                n = other.n
            elif other.weight() is not None:
                raise ValueError("rank mismatch")
        cap = self.cap
        a0, b0 = self.constant(), other.constant()
        # Pairs with a degree-0 factor: grade d of the product starts as a
        # copy of the larger operand's grade d times the other constant,
        # and the smaller grade times its partner's constant is added.
        out: list[dict] = [{0: a0 * b0} if a0 and b0 else {}]
        for ga, gb in zip(self.grades[1:], other.grades[1:]):
            if len(ga) >= len(gb):
                big, kb, small, ks = ga, b0, gb, a0
            else:
                big, kb, small, ks = gb, a0, ga, b0
            if not kb:
                acc = {}
            elif kb == 1:
                acc = big.copy()
            else:
                acc = {key: kb * c for key, c in big.items()}
            if ks:
                _add_grade(acc, small, ks)
            out.append(acc)
        right = [(db, gb, n ** db) for db, gb in enumerate(other.grades) if db and gb]
        for da in range(1, cap):
            ga = self.grades[da]
            if not ga:
                continue
            room = cap - da
            for db, gb, shift in right:
                if db > room:
                    break
                acc = out[da + db]
                get = acc.get
                for ia, ca in ga.items():
                    base = ia * shift
                    for ib, cb in gb.items():
                        key = base + ib
                        val = get(key, 0) + ca * cb
                        if val:
                            acc[key] = val
                        else:
                            del acc[key]
        return TruncatedSeries._raw(cap, n, out)

    def weight(self) -> int | None:
        """Smallest degree in [1, cap] carrying a nonzero term, or None when
        the series has no letters (for a group element: the identity)."""
        grades = self.grades
        for d in range(1, self.cap + 1):
            if grades[d]:
                return d
        return None


class _Terms(Mapping):
    """The terms of a series keyed by tuple monomials, decoded on access.
    Its length is the number of nonzero terms and decodes nothing."""

    __slots__ = ("_series",)

    def __init__(self, series: TruncatedSeries):
        self._series = series

    def __len__(self):
        return sum(map(len, self._series.grades))

    def __iter__(self):
        s = self._series
        for d, grade in enumerate(s.grades):
            for key in grade:
                yield index_monomial(key, s.n, d)

    def __getitem__(self, mono):
        s = self._series
        if (
            not isinstance(mono, tuple)
            or len(mono) > s.cap
            or not all(isinstance(x, int) and 0 <= x < s.n for x in mono)
        ):
            raise KeyError(mono)
        return s.grades[len(mono)][monomial_index(mono, s.n)]


class GroupElement:
    """An element of the free nilpotent group of class `cap`: a truncated
    series with constant term 1."""

    __slots__ = ("series", "_weight", "_inverse")

    def __init__(self, series: TruncatedSeries):
        if series.constant() != 1:
            raise ValueError("group elements have constant term exactly 1")
        self.series = series
        self._weight = False  # not yet computed
        self._inverse = None  # kept once computed; elements are immutable

    @property
    def cap(self) -> int:
        return self.series.cap

    @property
    def is_identity(self) -> bool:
        return self.series.is_one

    def weight(self) -> int | None:
        if self._weight is False:
            self._weight = self.series.weight()
        return self._weight

    def leading(self) -> dict:
        """Homogeneous component of (series - 1) at the weight degree, keyed
        by monomial index at the series' rank; shared, not to be modified."""
        w = self.weight()
        if w is None:
            raise ValueError("identity element has no leading part")
        return self.series.grades[w]

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.series * other.series)

    def inverse(self) -> "GroupElement":
        return self ** -1

    def at_cap(self, cap: int) -> "GroupElement":
        """This element at another cap: truncated, its exact image, when
        `cap` is lower; padded with empty grades when it is higher, exact
        for commutators one class up (module docstring, "Lifts")."""
        s = self.series
        if cap == s.cap:
            return self
        grades = s.grades[: cap + 1] + [{} for _ in range(cap - s.cap)]
        return GroupElement(TruncatedSeries._raw(cap, s.n, grades))

    def __pow__(self, e: int) -> "GroupElement":
        """g^e = sum over 0 <= j <= cap of C(e, j) * (g - 1)^j.

        Exact for every integer e, negative and zero included.  With
        u = g - 1 of weight w, u^j has no term below degree j*w, so u^j
        vanishes at the cap once j*w > cap and the binomial series of
        (1 + u)^e is a finite sum; C(e, j) = e(e-1)...(e-j+1)/j! is an
        integer for every integer e, and zero for every j > e >= 0.  A
        letter's powers u^j = X_i^j are single monomials, written down by
        index without a product (module docstring, "Letters").  The inverse
        is kept, so inverting a stored element again costs nothing; it does
        not point back, which would make a reference cycle.
        """
        cap = self.cap
        w = self.weight()
        if w is None or e == 1:
            return self
        if e == 0:
            return identity_element(cap)
        if e == -1 and self._inverse is not None:
            return self._inverse
        i = self._letter()
        if i is not None:
            n = self.series.n
            out = [{0: 1}, {i: e}]
            key, binom = i, e
            for j in range(2, cap + 1):
                key = key * n + i
                binom = binom * (e - j + 1) // j
                out.append({key: binom} if binom else {})
        else:
            u = self._minus_one()
            n = u.n
            # The terms j = 0 and 1, 1 + e*u, are a scaled copy of g.
            out = [{0: 1}] + [
                {key: e * c for key, c in grade.items()} for grade in u.grades[1:]
            ]
            binom = e
            power = u
            for j in range(2, cap // w + 1):
                binom = binom * (e - j + 1) // j
                if not binom:
                    break
                power = power * u
                _add_grades(out, power.grades, binom)
        out = GroupElement(TruncatedSeries._raw(cap, n, out))
        if e == -1:
            self._inverse = out
        return out

    def _minus_one(self) -> TruncatedSeries:
        """The series g - 1; it shares the grades of g above degree 0."""
        s = self.series
        return TruncatedSeries._raw(s.cap, s.n, [{}] + s.grades[1:])

    def commutator(self, other: "GroupElement") -> "GroupElement":
        """[g, h] = g^-1 h^-1 g h, computed at its own weight.

        With u = g - 1 and v = h - 1 of weights w_g and w_h, gh - hg =
        uv - vu has no term below degree w_g + w_h, and g^-1 h^-1 = (hg)^-1,
        so [g, h] = (hg)^-1 gh = 1 + (hg)^-1 (uv - vu).  Only the terms of
        (hg)^-1 up to degree L = cap - w_g - w_h reach the cap in that
        product, and they depend only on the terms of hg = 1 + u + v + vu up
        to degree L; so hg is inverted as a series of cap L, and not at all
        when L = 0.  When w_g + w_h > cap the commutator is the identity.

        When h is a letter of g's rank, uv - vu is formed by index shifts
        and divided by h, g is inverted at cap L = cap - w_g - 1, and not at
        all when L < w_g, and one series product at the cap remains (module
        docstring, "Letters").
        """
        cap = self.cap
        wg, wh = self.weight(), other.weight()
        if wg is None or wh is None or wg + wh > cap:
            return identity_element(cap)
        i = other._letter()
        if i is not None and other.series.n == self.series.n:
            return self._commutator_with_letter(i)
        u, v = self._minus_one(), other._minus_one()
        vu = v * u
        uv = u * v
        n = uv.n
        diff = uv.grades
        _add_grades(diff, vu.grades, -1)
        low = cap - wg - wh
        if low and any(diff):
            hg: list[dict] = [{0: 1}] + [{} for _ in range(low)]
            for part in (u, v, vu):
                _add_grades(hg, part.grades)
            inv = GroupElement(TruncatedSeries._raw(low, n, hg)) ** -1
            if not inv.is_identity:
                lifted = inv.series.grades + [{} for _ in range(cap - low)]
                diff = (
                    TruncatedSeries._raw(cap, n, lifted)
                    * TruncatedSeries._raw(cap, n, diff)
                ).grades
        diff[0] = {0: 1}
        return GroupElement(TruncatedSeries._raw(cap, n, diff))

    def _letter(self) -> int | None:
        """i when the series is exactly 1 + X_i, else None."""
        grades = self.series.grades
        first = grades[1]
        if len(first) != 1 or any(grades[2:]):
            return None
        ((i, c),) = first.items()
        return i if c == 1 else None

    def _commutator_with_letter(self, i: int) -> "GroupElement":
        """[g, x] for the letter x = 1 + X_i of g's rank, g of weight
        w < cap: 1 + g^-1 E with E_d = D_d - X_i E_(d-1) and D the index
        shifts of uX_i - X_i u (module docstring, "Letters")."""
        s = self.series
        cap, n, grades = s.cap, s.n, s.grades
        w = self.weight()
        out: list[dict] = [{0: 1}] + [{} for _ in range(w)]
        prev: dict = {}
        for d in range(w + 1, cap + 1):
            below = grades[d - 1]
            acc = {k * n + i: c for k, c in below.items()}
            get = acc.get
            head = i * n ** (d - 1)
            for part in (below, prev):
                for k, c in part.items():
                    key = head + k
                    val = get(key, 0) - c
                    if val:
                        acc[key] = val
                    else:
                        del acc[key]
            out.append(acc)
            prev = acc
        low = cap - w - 1
        if low >= w and any(out[w + 1:]):
            inv = GroupElement(TruncatedSeries._raw(low, n, grades[: low + 1])) ** -1
            lifted = inv.series.grades + [{} for _ in range(cap - low)]
            out = (
                TruncatedSeries._raw(cap, n, lifted)
                * TruncatedSeries._raw(cap, n, [{}] + out[1:])
            ).grades
            out[0] = {0: 1}
        return GroupElement(TruncatedSeries._raw(cap, n, out))

    def conjugate(self, by: "GroupElement") -> "GroupElement":
        """g^t = t^-1 g t."""
        return by.inverse() * self * by

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.series == other.series

    def __repr__(self):
        return f"GroupElement({self.series!r})"


def _add_grades(out: list, grades: list, k: int = 1):
    """out += k * grades, in place, degree by degree, dropping coefficients
    that cancel; degrees beyond the end of `out` are ignored."""
    for acc, grade in zip(out, grades):
        _add_grade(acc, grade, k)


def _add_grade(acc: dict, grade: dict, k: int):
    """acc += k * grade, in place, dropping coefficients that cancel."""
    get = acc.get
    for key, c in grade.items():
        val = get(key, 0) + k * c
        if val:
            acc[key] = val
        else:
            del acc[key]


def identity_element(cap: int) -> GroupElement:
    return GroupElement(TruncatedSeries.one(cap))


def generator_element(i: int, n: int, cap: int) -> GroupElement:
    if not 0 <= i < n:
        raise ValueError("generator index out of range")
    grades = [{0: 1}, {i: 1}] + [{} for _ in range(cap - 1)]
    return GroupElement(TruncatedSeries._raw(cap, n, grades))


def _word_element(word, generators, cap: int) -> GroupElement:
    """Image of a word: one power of a generator per syllable."""
    out = identity_element(cap)
    for i, e in word.syllables():
        out = out * generators[i] ** e
    return out


def series_of_word(word, n: int, cap: int) -> GroupElement:
    """Image of a presentations.Word; its alphabet may not exceed n letters."""
    if len(word.alphabet) > n:
        raise ValueError("word alphabet is larger than the ambient rank")
    gens = [generator_element(i, n, cap) for i in range(n)]
    return _word_element(word, gens, cap)


def reindex_element(g: GroupElement, offset: int, n: int) -> GroupElement:
    """Reinterpret an element over an alphabet of n letters, shifting every
    letter by `offset`; an injective homomorphism between the ambient
    groups.  Each index is re-encoded digit by digit into rank n."""
    s = g.series
    grades = []
    for d, grade in enumerate(s.grades):
        out = {}
        for key, c in grade.items():
            shifted = [x + offset for x in index_monomial(key, s.n, d)]
            if not all(0 <= x < n for x in shifted):
                raise ValueError("reindexed letter exceeds the target alphabet")
            out[monomial_index(shifted, n)] = c
        grades.append(out)
    return GroupElement(TruncatedSeries._raw(s.cap, n, grades))

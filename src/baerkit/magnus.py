"""Free nilpotent group arithmetic via truncated integer power series.

A free group on n generators embeds into the units of the ring of
noncommutative integer power series by x_i -> 1 + X_i; discarding every
monomial of degree above a cap W turns this into exact arithmetic in the
free nilpotent quotient of class W.  The kernel of the truncated map is
precisely the (W+1)-st lower central term, so two words map to the same
series exactly when they agree in that quotient, and the lowest nonzero
degree of (series - 1) reads off lower-central depth.
"""

from __future__ import annotations

from .lyndon import Monomial


class TruncatedSeries:
    """Noncommutative polynomial over Z with all terms of degree <= cap.

    Terms map monomials (tuples of generator indices) to nonzero integer
    coefficients; the empty tuple is the constant term.  Instances are
    treated as immutable.
    """

    __slots__ = ("cap", "terms")

    def __init__(self, cap: int, terms: dict):
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.cap = cap
        self.terms = {m: c for m, c in terms.items() if c}
        for mono in self.terms:
            if len(mono) > cap:
                raise ValueError("monomial exceeds the cap")

    @classmethod
    def _raw(cls, cap: int, terms: dict) -> "TruncatedSeries":
        """Trusted constructor for terms built here that are already free of
        zero coefficients and of monomials above the cap."""
        out = cls.__new__(cls)
        out.cap = cap
        out.terms = terms
        return out

    @classmethod
    def one(cls, cap: int) -> "TruncatedSeries":
        return cls(cap, {(): 1})

    @property
    def is_one(self) -> bool:
        return self.terms == {(): 1}

    def constant(self) -> int:
        return self.terms.get((), 0)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in length-lexicographic monomial order."""
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.cap == other.cap and self.terms == other.terms

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
        cap = self.cap
        by_len: dict[int, list] = {}
        for mono, c in other.terms.items():
            by_len.setdefault(len(mono), []).append((mono, c))
        out: dict[Monomial, int] = {}
        for ma, ca in self.terms.items():
            room = cap - len(ma)
            for lb, items in by_len.items():
                if lb > room:
                    continue
                for mb, cb in items:
                    key = ma + mb
                    val = out.get(key, 0) + ca * cb
                    if val:
                        out[key] = val
                    else:
                        del out[key]
        return TruncatedSeries._raw(cap, out)

    def weight(self) -> int | None:
        """Smallest degree in [1, cap] carrying a nonzero term, or None when
        the series is the constant 1 (identity element)."""
        w = None
        for mono in self.terms:
            d = len(mono)
            if d and (w is None or d < w):
                w = d
        return w

    def homogeneous(self, m: int) -> dict:
        return {mono: c for mono, c in self.terms.items() if len(mono) == m}


class GroupElement:
    """An element of the free nilpotent group of class `cap`: a truncated
    series with constant term 1."""

    __slots__ = ("series", "_weight")

    def __init__(self, series: TruncatedSeries):
        if series.constant() != 1:
            raise ValueError("group elements have constant term exactly 1")
        self.series = series
        self._weight = False  # not yet computed

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
        """Homogeneous component of (series - 1) at the weight degree."""
        w = self.weight()
        if w is None:
            raise ValueError("identity element has no leading part")
        return self.series.homogeneous(w)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.series * other.series)

    def inverse(self) -> "GroupElement":
        return self ** -1

    def __pow__(self, e: int) -> "GroupElement":
        """g^e = sum over 0 <= j <= cap of C(e, j) * (g - 1)^j.

        Exact for every integer e, negative and zero included.  With
        u = g - 1 of weight w, u^j has no term below degree j*w, so u^j
        vanishes at the cap once j*w > cap and the binomial series of
        (1 + u)^e is a finite sum; C(e, j) = e(e-1)...(e-j+1)/j! is an
        integer for every integer e, and zero for every j > e >= 0.
        """
        cap = self.cap
        w = self.weight()
        if w is None:
            return self
        u = self._minus_one()
        out = {(): 1}
        binom = 1
        power = u
        for j in range(1, cap // w + 1):
            binom = binom * (e - j + 1) // j
            if not binom:
                break
            if j > 1:
                power = power * u
            _add_terms(out, power.terms, binom)
        return GroupElement(TruncatedSeries._raw(cap, out))

    def _minus_one(self) -> TruncatedSeries:
        """The series g - 1."""
        return TruncatedSeries._raw(
            self.cap, {m: c for m, c in self.series.terms.items() if m}
        )

    def commutator(self, other: "GroupElement") -> "GroupElement":
        """[g, h] = g^-1 h^-1 g h, computed at its own weight.

        With u = g - 1 and v = h - 1 of weights w_g and w_h, gh - hg =
        uv - vu has no term below degree w_g + w_h, and g^-1 h^-1 = (hg)^-1,
        so [g, h] = (hg)^-1 gh = 1 + (hg)^-1 (uv - vu).  Only the terms of
        (hg)^-1 up to degree L = cap - w_g - w_h reach the cap in that
        product, and they depend only on the terms of hg = 1 + u + v + vu up
        to degree L; so hg is inverted as a series of cap L, and not at all
        when L = 0.  When w_g + w_h > cap the commutator is the identity.
        """
        cap = self.cap
        wg, wh = self.weight(), other.weight()
        if wg is None or wh is None or wg + wh > cap:
            return identity_element(cap)
        u, v = self._minus_one(), other._minus_one()
        vu = v * u
        diff = dict((u * v).terms)
        _add_terms(diff, vu.terms, -1)
        low = cap - wg - wh
        if low and diff:
            hg = {(): 1}
            for part in (u, v, vu):
                _add_terms(hg, {m: c for m, c in part.terms.items() if len(m) <= low})
            inv = GroupElement(TruncatedSeries._raw(low, hg)) ** -1
            if not inv.is_identity:
                lifted = TruncatedSeries._raw(cap, inv.series.terms)
                diff = (lifted * TruncatedSeries._raw(cap, diff)).terms
        diff[()] = 1
        return GroupElement(TruncatedSeries._raw(cap, diff))

    def conjugate(self, by: "GroupElement") -> "GroupElement":
        """g^t = t^-1 g t."""
        return by.inverse() * self * by

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.series == other.series

    def __repr__(self):
        return f"GroupElement({self.series!r})"


def _add_terms(out: dict, terms: dict, k: int = 1):
    """out += k * terms, in place, dropping coefficients that cancel."""
    for mono, c in terms.items():
        val = out.get(mono, 0) + k * c
        if val:
            out[mono] = val
        else:
            del out[mono]


def identity_element(cap: int) -> GroupElement:
    return GroupElement(TruncatedSeries.one(cap))


def generator_element(i: int, n: int, cap: int) -> GroupElement:
    if not 0 <= i < n:
        raise ValueError("generator index out of range")
    return GroupElement(TruncatedSeries(cap, {(): 1, (i,): 1}))


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
    """Reinterpret an element over a larger alphabet, shifting every letter
    by `offset`; an injective homomorphism between the ambient groups."""
    terms = {}
    for mono, c in g.series.terms.items():
        shifted = tuple(i + offset for i in mono)
        if shifted and max(shifted) >= n:
            raise ValueError("reindexed letter exceeds the target alphabet")
        terms[shifted] = c
    return GroupElement(TruncatedSeries(g.cap, terms))

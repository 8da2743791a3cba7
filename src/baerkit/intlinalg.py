"""Exact integer lattice arithmetic on row lists.

Everything here runs over Python's arbitrary-precision integers: the
Hermite normal form, the solver for echelon rows, and the Smith diagonal,
which is the one source of the canonical invariants of a finitely
generated abelian group (`abelian_invariants`).

Hermite form has one algorithm, the incremental `hermite_insert`: each
degree below the cap of a filtered subgroup inserts leading coordinates
tagged by the group elements that realize them, and the cap degree
inserts them untagged.  It is also how `snf` finds the Smith diagonal,
from row Hermite forms of the rows and their transposes, untagged.
Echelon rows have one solver, `echelon_solve`, used by the subgroup
sieve.  The oracles the check catalogue compares these against (the
Hermite form with its transform, determinants and determinant divisors)
are in `selftest`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from itertools import combinations
from math import gcd, prod


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b and g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


class IntMatrix:
    """Empty: the engine's linear algebra works on row lists.  The name
    stays only because the benchmark's tracer evaluates
    `isinstance(relations, intlinalg.IntMatrix)` on every traced
    `abelian_invariants` call; it leaves with the next benchmark change."""


def _pivots(rows) -> list[int]:
    """Pivot columns of nonzero echelon rows in one left-to-right sweep:
    they strictly increase, so each search starts past the last pivot."""
    out, j = [], 0
    for row in rows:
        while not row[j]:
            j += 1
        out.append(j)
        j += 1
    return out


def hermite_insert(rows, tags, vec, tag, add, scale):
    """Insert `vec` into `rows`, nonzero rows in Hermite normal form, in
    place, keeping the form.

    Each row carries a tag that follows its row operations: row
    combinations r*x + s*y become add(scale(tag_r, x), scale(tag_s, y)).
    A vector whose pivot is already taken is divided off exactly or merged
    by an extended gcd; a new pivot is inserted with a positive sign.
    Entries above every pivot are then reduced into [0, pivot), on every
    path: a merge rewrites a stored row even when the vector then
    vanishes.  The reduction starts at the first row the insert changed
    (the new row, or the first merged one): the rows above it were
    reduced against one another before the call, so each step it skips
    would subtract zero times a row.  Returns the tag left over when the
    vector reduces to zero, else None.
    """
    v = list(vec)
    piv = _pivots(rows)
    start = len(rows)
    j = 0
    while True:
        j = next((k for k in range(j, len(v)) if v[k]), None)
        if j is None:
            break
        pos = bisect_left(piv, j)
        if pos < len(rows) and piv[pos] == j:
            row = rows[pos]
            a, b = row[j], v[j]
            if b % a == 0:
                q = b // a
                v = [x - q * y for x, y in zip(v, row)]
                tag = add(scale(tags[pos], -q), tag)
                continue
            g, x, y = _xgcd(a, b)
            rows[pos] = [x * ra + y * rb for ra, rb in zip(row, v)]
            merged = add(scale(tags[pos], x), scale(tag, y))
            ag, bg = a // g, b // g
            v = [ag * rb - bg * ra for ra, rb in zip(row, v)]
            tag = add(scale(tag, ag), scale(tags[pos], -bg))
            tags[pos] = merged
            start = min(start, pos)
            continue
        if v[j] < 0:
            v = [-x for x in v]
            tag = scale(tag, -1)
        rows.insert(pos, v)
        tags.insert(pos, tag)
        piv.insert(pos, j)
        start = min(start, pos)
        tag = None
        break
    for t in range(start, len(rows)):
        row, p = rows[t], piv[t]
        for i in range(t):
            q = rows[i][p] // row[p]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], row)]
                tags[i] = add(tags[i], scale(tags[t], -q))
    return tag


def _untagged(*_):
    return None


def snf(rows) -> list[int]:
    """The nonzero entries of the Smith diagonal of the matrix with these
    rows, as a divisor chain of positive integers.

    The nonzero rows are put in row Hermite form, the form is transposed,
    and so on until every row has one nonzero entry (Kannan and Bachem,
    SIAM J. Comput. 8, 1979).  This ends: a round's first pivot h is the
    gcd of its input's first nonzero column, so the next round's first
    pivot is the gcd of the first Hermite row and divides h.  Either it is
    a proper divisor, which can happen only finitely often, or h divides
    its row; then the next round divides the row off and leaves the first
    row and column at (h, 0, ..., 0) for good, and the argument moves to
    the submatrix.  Pairs (a, b) of the diagonal then become (gcd, lcm)
    for all i < j, which sorts each prime's exponents into a divisor
    chain.  Only invertible row and column operations are applied, so the
    diagonal presents the same abelian group as the rows."""
    rows = [row for row in rows if any(row)]
    while True:
        h, tags = [], []
        for vec in rows:
            hermite_insert(h, tags, vec, None, _untagged, _untagged)
        if all(sum(map(bool, row)) == 1 for row in h):
            break
        rows = [list(col) for col in zip(*h) if any(col)]
    diag = [row[p] for row, p in zip(h, _pivots(h))]
    for i, j in combinations(range(len(diag)), 2):
        g = gcd(diag[i], diag[j])
        diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


def echelon_solve(rows, vector) -> tuple[list[int] | None, list[int]]:
    """Reduce `vector` against nonzero echelon rows, first to last.

    Returns (coordinates, residue): the coordinates express the vector in
    the rows, in order, or are None when it is outside their integer row
    span; the residue is the vector as of the first pivot whose division
    fails, or what is left after the last row.
    """
    v = list(vector)
    coords = []
    for row, p in zip(rows, _pivots(rows)):
        b = v[p]
        if b == 0:
            coords.append(0)
            continue
        if b % row[p]:
            return None, v
        q = b // row[p]
        coords.append(q)
        v = [x - q * y for x, y in zip(v, row)]
    return (None if any(v) else coords), v


class AbelianInvariants(namedtuple("AbelianInvariants", "free_rank torsion")):
    """Canonical form of a finitely generated abelian group: free rank plus
    a torsion divisor chain d1 | d2 | ... with every entry >= 2.  Immutable;
    equal invariants compare and hash equal."""

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ValueError("negative free rank")
        torsion = tuple(int(d) for d in torsion)
        for d in torsion:
            if d < 2:
                raise ValueError("torsion entries must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion is not a divisor chain")
        return super().__new__(cls, free_rank, torsion)

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        return prod(self.torsion) if self.torsion else 1

    def describe(self) -> str:
        torsion = ",".join(str(d) for d in self.torsion)
        return f"free_rank={self.free_rank} torsion=[{torsion}]"

    def __str__(self):
        return self.describe()


def abelian_invariants(gen_count: int, relations) -> AbelianInvariants:
    """Invariants of the abelian group on `gen_count` generators subject to
    the relation rows (each row: exponents of one relation); a row of
    another length is refused."""
    for row in relations:
        if len(row) != gen_count:
            raise ValueError(
                f"relation row of length {len(row)} for {gen_count} generators"
            )
    nonzero = snf(relations)
    torsion = [x for x in nonzero if x > 1]
    return AbelianInvariants(gen_count - len(nonzero), tuple(torsion))

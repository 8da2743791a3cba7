"""Exact integer matrix normal forms and lattice arithmetic.

Everything here runs over Python's arbitrary-precision integers: the
Hermite normal form with its unimodular transform, the solver for echelon
rows, and the Smith diagonal, which is the one source of the canonical
invariants of a finitely generated abelian group (`abelian_invariants`).

Hermite form has one algorithm, the incremental `hermite_insert`: `hnf`
inserts a matrix's rows with unit-vector tags, and each degree below the
cap of a filtered subgroup inserts leading coordinates tagged by the group
elements that realize them; the cap degree inserts them untagged.  It is
also how `snf` finds the Smith diagonal, from row Hermite forms of the
matrix and its transposes, untagged.  Echelon
rows have one solver, `echelon_solve`, used by the subgroup sieve.
`IntMatrix.det`, `@` and `determinant_divisor` serve the cross-checks of
the test catalogue.
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
    """Rectangular matrix of Python ints, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols: int | None = None):
        data = [list(map(int, row)) for row in data]
        width = len(data[0]) if data else (0 if cols is None else cols)
        if any(len(row) != width for row in data):
            raise ValueError("rows have unequal length")
        if cols is not None and data and cols != width:
            raise ValueError("explicit column count disagrees with row data")
        self.rows = len(data)
        self.cols = width
        self.data = data

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.cols == other.cols and self.data == other.data

    def __repr__(self):
        return f"IntMatrix({self.data!r})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        out = []
        for row in self.data:
            out.append([
                sum(row[k] * other.data[k][j] for k in range(self.cols))
                for j in range(other.cols)
            ])
        return IntMatrix(out, cols=other.cols)

    def nonzero_rows(self) -> list[list[int]]:
        return [row[:] for row in self.data if any(row)]

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [row[:] for row in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


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


def hnf(matrix: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular, U @ matrix == H, H in row echelon form
    with positive pivots and entries above each pivot reduced into
    [0, pivot).  Zero rows, if any, sit at the bottom.  The rows are
    inserted one at a time with unit-vector tags, which become the rows of
    U; the tags left over by vanishing rows are the kernel rows of U.
    """
    r, c = matrix.rows, matrix.cols
    rows, tags, kernel = [], [], []
    for i, vec in enumerate(matrix.data):
        unit = [int(k == i) for k in range(r)]
        left = hermite_insert(
            rows, tags, vec, unit,
            lambda s, t: [x + y for x, y in zip(s, t)],
            lambda s, k: [k * x for x in s],
        )
        if left is not None:
            kernel.append(left)
    h = rows + [[0] * c for _ in kernel]
    return IntMatrix(h, cols=c), IntMatrix(tags + kernel, cols=r)


def _untagged(*_):
    return None


def snf(matrix: IntMatrix) -> IntMatrix:
    """Smith normal form D of `matrix`: diagonal, with nonnegative entries
    each dividing the next and the zeros last.

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
    chain.  Only invertible row and column operations are applied, so D
    presents the same abelian group as the matrix."""
    rows = matrix.nonzero_rows()
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
    d = IntMatrix.zeros(matrix.rows, matrix.cols)
    for i, x in enumerate(diag):
        d.data[i][i] = x
    return d


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
    the relation rows (each row: exponents of one relation)."""
    d = snf(IntMatrix(relations, cols=gen_count))
    diag = [d.data[i][i] for i in range(min(d.rows, d.cols))]
    nonzero = [x for x in diag if x]
    torsion = [x for x in nonzero if x > 1]
    return AbelianInvariants(gen_count - len(nonzero), tuple(torsion))


def determinant_divisor(matrix: IntMatrix, k: int) -> int:
    """gcd of all k x k minors (0 for none); brute force, for cross-checks."""
    g = 0
    for rows in combinations(range(matrix.rows), k):
        for cols in combinations(range(matrix.cols), k):
            sub = IntMatrix([[matrix.data[i][j] for j in cols] for i in rows])
            g = gcd(g, sub.det())
    return g

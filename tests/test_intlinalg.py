import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from baerkit import intlinalg
from baerkit.intlinalg import (
    AbelianInvariants,
    IntMatrix,
    abelian_invariants,
    echelon_solve,
    hnf,
    snf,
)


def minor_gcd(matrix, k):
    """Test-local oracle: gcd of all k x k minors via cofactor expansion."""

    def det(rows, cols):
        if len(rows) == 1:
            return matrix.data[rows[0]][cols[0]]
        total = 0
        for idx, c in enumerate(cols):
            sub = det(rows[1:], cols[:idx] + cols[idx + 1:])
            term = matrix.data[rows[0]][c] * sub
            total += term if idx % 2 == 0 else -term
        return total

    g = 0
    for rows in combinations(range(matrix.rows), k):
        for cols in combinations(range(matrix.cols), k):
            g = gcd(g, det(list(rows), list(cols)))
    return g


def reference_snf(matrix):
    """Test-local oracle: the whole-matrix Smith form `snf` used before it
    alternated Hermite forms.  Each step moves the smallest remaining entry
    to the diagonal, clears its row and column, and folds in a row the
    pivot does not divide."""
    a = [row[:] for row in matrix.data]
    r, c = matrix.rows, matrix.cols

    def sub_row(i, q, j):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def pivot_search(t):
        best = None
        for i in range(t, r):
            for j in range(t, c):
                x = a[i][j]
                if x and (best is None or abs(x) < abs(best[2])):
                    best = (i, j, x)
        return best

    t = 0
    while t < min(r, c):
        found = pivot_search(t)
        if found is None:
            break
        i, j, _ = found
        swap_rows(t, i)
        swap_cols(t, j)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        # A remainder smaller than the pivot becomes the new pivot, so
        # |a[t][t]| strictly decreases and the clearing ends.
        while True:
            p = a[t][t]
            dirty = False
            for i in range(t + 1, r):
                if a[i][t]:
                    q = a[i][t] // p
                    if q:
                        sub_row(i, q, t)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, c):
                if a[t][j]:
                    q = a[t][j] // p
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        break
            if not dirty:
                break
        p = a[t][t]
        # The pivot must divide every remaining entry; if not, fold the
        # offending row into row t and redo this position.
        offender = next(
            (i for i in range(t + 1, r)
             if any(a[i][j] % p for j in range(t + 1, c))),
            None,
        )
        if offender is not None:
            sub_row(t, -1, offender)
            continue
        t += 1
    return IntMatrix(a, cols=c)


def sparse_relation_matrix(rng, lo, hi):
    """lo to hi rows and columns, one to three nonzero entries a row, most
    of them small and some up to 10**30, some zero rows and some rows that
    combine the two before them."""
    rows, cols = rng.randint(lo, hi), rng.randint(lo, hi)
    data = [[0] * cols for _ in range(rows)]
    for i, row in enumerate(data):
        roll = rng.random()
        if roll < 0.1:
            continue
        if roll < 0.25 and i >= 2:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            data[i] = [a * x + b * y for x, y in zip(data[i - 1], data[i - 2])]
            continue
        for j in rng.sample(range(cols), rng.randint(1, min(3, cols))):
            scale = rng.choices((9, 10**6, 10**30), (6, 3, 1))[0]
            row[j] = rng.randint(-scale, scale)
    return IntMatrix(data, cols=cols)


def snf_rounds(matrix):
    """snf(matrix) and the number of Hermite forms it took; each one starts
    with an insert into no rows."""
    rounds = 0
    insert = intlinalg.hermite_insert

    def counting(rows, *args):
        nonlocal rounds
        rounds += not rows
        return insert(rows, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intlinalg, "hermite_insert", counting)
        return snf(matrix), rounds


matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-30, 30), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
).map(IntMatrix)


class TestHNF:
    def test_merge_then_vanish_still_reduces(self):
        # Inserting [1,1] gcd-merges it into the stored [2,0], rewriting
        # that row to [1,1], and the remainder then reduces to zero; the
        # entry above the pivot of [0,1] must still be reduced.
        m = IntMatrix([[0, 1], [2, 0], [1, 1]])
        h, u = hnf(m)
        assert h == IntMatrix([[1, 0], [0, 1], [0, 0]])
        assert u @ m == h
        assert abs(u.det()) == 1

    def test_identity(self):
        ident = IntMatrix.identity(4)
        h, u = hnf(ident)
        assert h == ident and u == ident

    def test_zero(self):
        z = IntMatrix.zeros(3, 2)
        h, _ = hnf(z)
        assert h == z

    @given(matrices, st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_properties(self, m, rnd):
        h, u = hnf(m)
        assert abs(u.det()) == 1
        assert u @ m == h
        nz = h.nonzero_rows()
        for row in m.data:
            assert echelon_solve(nz, row)[0] is not None
        # The Hermite form is unique: no insertion order may change it.
        shuffled = m.data[:]
        rnd.shuffle(shuffled)
        assert hnf(IntMatrix(m.data[::-1]))[0] == h
        assert hnf(IntMatrix(shuffled))[0] == h
        # Echelon with positive pivots, reduced above.
        pivots = [next(i for i, x in enumerate(r) if x) for r in nz]
        assert pivots == sorted(set(pivots))
        for t, row in enumerate(nz):
            assert row[pivots[t]] > 0
            for above in nz[:t]:
                assert 0 <= above[pivots[t]] < row[pivots[t]]


class TestSNF:
    @given(matrices)
    @settings(max_examples=100)
    def test_properties(self, m):
        d = snf(m)
        diag = [d.data[i][i] for i in range(min(d.rows, d.cols))]
        assert all(
            d.data[i][j] == 0
            for i in range(d.rows)
            for j in range(d.cols)
            if i != j
        )
        nz = [x for x in diag if x]
        assert all(x > 0 for x in nz)
        assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
        assert all(x == 0 for x in diag[len(nz):])

    @given(matrices)
    @settings(max_examples=60)
    def test_against_minor_oracle(self, m):
        # d_1 ... d_k is the gcd of the k x k minors for every k up to the
        # rank, and every minor past the rank vanishes.
        d = snf(m)
        diag = [d.data[i][i] for i in range(min(d.rows, d.cols))]
        nz = [x for x in diag if x]
        prod = 1
        for k, x in enumerate(nz, start=1):
            prod *= x
            assert prod == minor_gcd(m, k)
        if len(nz) < len(diag):
            assert minor_gcd(m, len(nz) + 1) == 0

    def test_several_rounds(self):
        m = IntMatrix([[14, 14, 16], [8, 26, 30], [-8, 10, 23]])
        d, rounds = snf_rounds(m)
        assert d == IntMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 1422]])
        assert d == reference_snf(m)
        assert rounds == 5

    def test_against_reference_on_large_sparse(self):
        # Larger and sparser than the strategy above draws, with big
        # entries, zero rows and dependent rows.
        rng = random.Random(23)
        kinds, most_rounds = set(), 0
        for _ in range(40):
            m = sparse_relation_matrix(rng, 5, 30)
            d, rounds = snf_rounds(m)
            assert d == reference_snf(m)
            most_rounds = max(most_rounds, rounds)
            if any(not any(row) for row in m.data):
                kinds.add("zero row")
            if not all(d.data[i][i] for i in range(min(m.rows, m.cols))):
                kinds.add("rank deficient")
            if max(abs(x) for row in m.data for x in row) > 10**20:
                kinds.add("large")
        assert kinds == {"zero row", "rank deficient", "large"}
        assert most_rounds > 2


class TestAbelianInvariants:
    def test_unit_entries_dropped(self):
        assert abelian_invariants(2, [[1, 0], [0, 6]]) == AbelianInvariants(0, (6,))

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            AbelianInvariants(0, (4, 2))
        with pytest.raises(ValueError):
            AbelianInvariants(0, (1,))

    def test_order(self):
        assert AbelianInvariants(0, (2, 4)).order() == 8
        assert AbelianInvariants(1, (2,)).order() is None
        assert AbelianInvariants(0).order() == 1

    def test_describe(self):
        assert AbelianInvariants(1, (2, 6)).describe() == "free_rank=1 torsion=[2,6]"

    @given(matrices)
    @settings(max_examples=60)
    def test_row_permutation_invariance(self, m):
        base = abelian_invariants(m.cols, m.data)
        assert abelian_invariants(m.cols, m.data[::-1]) == base


def seeded_relation_matrix(rng):
    """Relations with some zero rows, some rows that are combinations of
    others (rank deficiency) and some entries near 10**30."""
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    scale = rng.choice((5, 10**6, 10**30))
    data = [[rng.randint(-scale, scale) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        roll = rng.random()
        if roll < 0.2:
            data[i] = [0] * cols
        elif roll < 0.4 and i >= 2:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            data[i] = [a * x + b * y for x, y in zip(data[i - 1], data[i - 2])]
    return data


def test_abelian_invariants_match_sympy():
    """Optional second SNF: sympy's invariant factors over ZZ."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(4)
    kinds = set()
    for _ in range(150):
        data = seeded_relation_matrix(rng)
        cols = len(data[0])
        factors = invariant_factors(sympy.Matrix(data), domain=sympy.ZZ)
        nonzero = [abs(int(x)) for x in factors if x]
        want = AbelianInvariants(
            cols - len(nonzero), tuple(x for x in nonzero if x > 1)
        )
        assert abelian_invariants(cols, data) == want
        if any(not any(row) for row in data):
            kinds.add("zero row")
        if len(nonzero) < min(len(data), cols):
            kinds.add("rank deficient")
        if max(abs(x) for row in data for x in row) > 10**20:
            kinds.add("large")
    assert kinds == {"zero row", "rank deficient", "large"}
    # Inputs on which snf alternates Hermite forms more than once.
    for _ in range(10):
        m = sparse_relation_matrix(rng, 8, 20)
        factors = invariant_factors(sympy.Matrix(m.data), domain=sympy.ZZ)
        nonzero = [abs(int(x)) for x in factors if x]
        want = AbelianInvariants(
            m.cols - len(nonzero), tuple(x for x in nonzero if x > 1)
        )
        assert abelian_invariants(m.cols, m.data) == want
        assert snf_rounds(m)[1] > 1

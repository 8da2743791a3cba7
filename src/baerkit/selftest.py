"""Built-in verification suite: the single catalogue of checks.

One named check per example table and per structural property.  The CLI
runs them all (`baerkit selftest`), and pytest runs each one by name as
`tests/test_catalogue.py::test_check[<name>]`: an assertion made here
needs no second copy among the pytest cases.  All randomized suites draw
from fixed seeds so reports are byte-identical across runs; capacity
errors are not caught here, they abort the run with the dedicated exit
code.  The linear-algebra oracles on row lists (`hnf`, `det`, `matmul`,
`determinant_divisor`) live here too, since only checks and tests use
them.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd

from .baer import (
    baer_invariant,
    detect_class,
    relator_closure,
    verify_class_bound,
)
from .errors import ParseError
from .intlinalg import (
    AbelianInvariants,
    abelian_invariants,
    echelon_solve,
    hermite_insert,
    snf,
)
from .lyndon import (
    get_basis,
    index_monomial,
    lyndon_words,
    monomial_index,
    standard_factorization,
    witt_dimension,
)
from .magnus import identity_element, series_of_word
from .presentations import (
    Alphabet,
    Presentation,
    Word,
    combine_alphabets,
    free_product_embed,
    parse_input_file,
    parse_word,
)
from .semidirect import (
    build_semidirect,
    merge_invariants,
    validate_action,
    verify_direct_factor,
)
from .subgroups import (
    DEFAULT_MONOMIAL_BUDGET,
    AmbientContext,
    FilteredSubgroup,
    commutator_with,
    free_factor,
    insert_and_close,
    intersect_with_gamma,
    join,
    quotient_invariants,
    quotient_order,
)

# --- linear-algebra oracles ---------------------------------------------------


def hnf(rows) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite normal form with its transform: (H, U) with U
    unimodular, matmul(U, rows) == H, H in row echelon form with positive
    pivots and entries above each pivot reduced into [0, pivot), and zero
    rows, if any, at the bottom.  The rows are inserted one at a time with
    unit-vector tags, which become the rows of U; the tags left over by
    vanishing rows are the kernel rows of U."""
    h, tags, kernel = [], [], []
    for i, vec in enumerate(rows):
        unit = [int(k == i) for k in range(len(rows))]
        left = hermite_insert(
            h, tags, vec, unit,
            lambda s, t: [x + y for x, y in zip(s, t)],
            lambda s, k: [k * x for x in s],
        )
        if left is not None:
            kernel.append(left)
    width = len(rows[0]) if rows else 0
    return h + [[0] * width for _ in kernel], tags + kernel


def det(rows) -> int:
    """Determinant of a square matrix by fraction-free (Bareiss)
    elimination."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    m = [row[:] for row in rows]
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


def matmul(a, b) -> list[list[int]]:
    """The matrix product of a and b."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("dimension mismatch in product")
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def determinant_divisor(rows, k: int) -> int:
    """gcd of all k x k minors (0 for none); brute force."""
    g = 0
    for picked in combinations(rows, k):
        for cols in combinations(range(len(rows[0])), k):
            g = gcd(g, det([[row[j] for j in cols] for row in picked]))
    return g


# --- catalog of standing examples --------------------------------------------


def make_presentation(name, gens, rels) -> Presentation:
    ab = Alphabet(gens)
    return Presentation(name, ab, tuple(parse_word(r, ab) for r in rels))


def cyclic(m: int) -> Presentation:
    return make_presentation(f"Z{m}", ["x"], [f"x^{m}"])


def free_abelian(n: int) -> Presentation:
    gens = [f"x{i}" for i in range(1, n + 1)]
    rels = [
        f"[{gens[i]},{gens[j]}]" for i in range(n) for j in range(i + 1, n)
    ]
    return make_presentation(f"Zfree{n}", gens, rels)


def klein() -> Presentation:
    return make_presentation("klein", ["x", "y"], ["x^2", "y^2", "[x,y]"])


def klein_redundant() -> Presentation:
    return make_presentation(
        "klein3", ["x", "y", "z"], ["x^2", "y^2", "[x,y]", "z^-1 x y"]
    )


def dihedral8() -> Presentation:
    return make_presentation("d8", ["a", "b"], ["a^4", "b^2", "a^-1 a^-1 [b,a]"])


D8_FILE = """\
# dihedral group of order 8: Z2 inverting Z4
group Z4
  gen a
  rel a^4
end
group Z2
  gen b
  rel b^2
end
action Z2 on Z4
  b : a -> a^-1
end
"""

SEMIDIRECT_SUITE: dict[str, tuple[str, int | None]] = {
    "d8": (D8_FILE, None),
    "z4_by_z4": (
        """\
group A
  gen a
  rel a^4
end
group B
  gen b
  rel b^4
end
action B on A
  b : a -> a^-1
  inverse b : a -> a^-1
end
""",
        None,
    ),
    "z2_on_z2sq": (
        """\
group A
  gen a1 a2
  rel a1^2, a2^2, [a1,a2]
end
group B
  gen b
  rel b^2
end
action B on A
  b : a1 -> a1
  b : a2 -> a2
end
""",
        None,
    ),
    "klein_trivial": (
        """\
group A
  gen a
  rel a^2
end
group B
  gen b
  rel b^2
end
action B on A
  b : a -> a
end
""",
        None,
    ),
    "zz_trivial": (
        """\
group A
  gen a
end
group B
  gen b
end
action B on A
  b : a -> a
  inverse b : a -> a
end
""",
        1,
    ),
}

# (presentation factory, c, k, expected invariants)
def multiplier_table():
    table = []
    for m in (2, 3, 4, 5):
        table.append((f"M(Z{m})", cyclic(m), 1, 1, AbelianInvariants(0)))
    table.append(("M(Z5)-c3", cyclic(5), 3, 1, AbelianInvariants(0)))
    table.append(("M(Z^2)", free_abelian(2), 1, 1, AbelianInvariants(1)))
    table.append(("M(Z2xZ2)", klein(), 1, 1, AbelianInvariants(0, (2,))))
    table.append(
        (
            "M(Z2^3)",
            make_presentation(
                "z2cube",
                ["x", "y", "z"],
                ["x^2", "y^2", "z^2", "[x,y]", "[x,z]", "[y,z]"],
            ),
            1,
            1,
            AbelianInvariants(0, (2, 2, 2)),
        )
    )
    table.append(("N2M(Z2xZ2)", klein(), 2, 1, AbelianInvariants(0, (2, 2))))
    for n in (1, 2, 3):
        for c in (1, 2, 3):
            table.append(
                (
                    f"N{c}M(Z^{n})",
                    free_abelian(n),
                    c,
                    1,
                    AbelianInvariants(witt_dimension(n, c + 1)),
                )
            )
    return table


# --- randomized generators ----------------------------------------------------


def _random_letters(rng, n, max_len):
    length = rng.randrange(0, max_len + 1)
    return tuple(
        (rng.randrange(n), rng.choice((1, -1))) for _ in range(length)
    )


def _random_word_text(rng, names, depth=2):
    parts = []
    for _ in range(rng.randrange(1, 4)):
        kind = rng.random()
        if kind < 0.6 or depth == 0:
            atom = rng.choice(names)
        elif kind < 0.8:
            atom = f"({_random_word_text(rng, names, depth - 1)})"
        else:
            u = _random_word_text(rng, names, depth - 1)
            v = _random_word_text(rng, names, depth - 1)
            atom = f"[{u},{v}]"
        e = rng.choice((-3, -2, -1, 1, 2, 3))
        parts.append(atom if e == 1 else f"{atom}^{e}")
    return " ".join(parts)


def _random_matrix(rng, max_dim=4, max_entry=20):
    r = rng.randrange(1, max_dim + 1)
    c = rng.randrange(1, max_dim + 1)
    return [
        [rng.randrange(-max_entry, max_entry + 1) for _ in range(c)]
        for _ in range(r)
    ]


def _random_closure(rng, budget):
    n = 2
    cap = rng.choice((2, 3))
    amb = AmbientContext(n, cap, budget)
    ab = Alphabet(["x", "y"])
    els = []
    for _ in range(rng.randrange(1, 4)):
        letters = _random_letters(rng, n, 5)
        els.append(amb.element_of_word(Word(ab, letters)))
    return amb, ab, insert_and_close(None, amb, els)


# --- the checks ----------------------------------------------------------------

_CHECKS: list[tuple[str, object]] = []


def _check(name):
    def reg(fn):
        _CHECKS.append((name, fn))
        return fn

    return reg


def _expect(cond, message):
    if not cond:
        raise AssertionError(message)


# presentations ------------------------------------------------------------


@_check("words/parse-examples")
def _(budget):
    ab = Alphabet(["x", "y"])
    w = parse_word("x^2 y^-1", ab)
    _expect(w.letters == ((0, 1), (0, 1), (1, -1)), "x^2 y^-1 misparsed")
    _expect(parse_word("x x^-1", ab).is_identity, "free reduction failed")
    _expect(
        parse_word("[x,y]", ab).letters == ((0, -1), (1, -1), (0, 1), (1, 1)),
        "commutator convention broken",
    )
    _expect(parse_word("1", ab).is_identity, "1 is the identity word")
    for bad in ("x^0", "q", "x^", "[x y]"):
        try:
            parse_word(bad, ab)
        except ParseError:
            pass
        else:
            raise AssertionError(f"{bad!r} should not parse")


@_check("words/inverse-and-identity-laws")
def _(budget):
    rng = random.Random(101)
    ab = Alphabet(["x", "y", "z"])
    for _ in range(200):
        w = Word(ab, _random_letters(rng, 3, 8))
        _expect(w.inverse().inverse() == w, "double inverse is not identity")
        _expect((w * w.inverse()).is_identity, "w * w^-1 is not 1")
        _expect((Word(ab) * w) == w, "identity law fails")


@_check("words/parse-concatenation-confluence")
def _(budget):
    rng = random.Random(102)
    ab = Alphabet(["x", "y"])
    for _ in range(200):
        s = _random_word_text(rng, ["x", "y"])
        t = _random_word_text(rng, ["x", "y"])
        _expect(
            parse_word(s, ab) * parse_word(t, ab) == parse_word(s + " " + t, ab),
            f"parse not multiplicative on {s!r}, {t!r}",
        )


@_check("words/free-product-embedding")
def _(budget):
    rng = random.Random(103)
    a_alpha = Alphabet(["a1", "a2"])
    b_alpha = Alphabet(["b1"])
    combined = combine_alphabets(a_alpha, b_alpha)
    _expect(len(combined) == 3, "combined alphabet size")
    for _ in range(200):
        u = Word(a_alpha, _random_letters(rng, 2, 6))
        v = Word(a_alpha, _random_letters(rng, 2, 6))
        eu = free_product_embed(u, 0, combined)
        ev = free_product_embed(v, 0, combined)
        _expect(
            eu * ev == free_product_embed(u * v, 0, combined),
            "embedding is not multiplicative",
        )
        _expect(
            eu.inverse() == free_product_embed(u.inverse(), 0, combined),
            "embedding does not respect inverses",
        )
    try:
        free_product_embed(u, len(a_alpha), combined)
    except ValueError:
        pass
    else:
        raise AssertionError("embedding past the combined alphabet not rejected")


@_check("words/input-file-examples")
def _(budget):
    parsed = parse_input_file(D8_FILE)
    _expect(len(parsed.presentations) == 2, "two group blocks expected")
    a, b = parsed.presentations
    _expect(a.alphabet.names == ("a",) and len(a.relators) == 1, "Z4 block")
    _expect(b.alphabet.names == ("b",), "Z2 block")
    act = parsed.action
    _expect(act is not None and act.image("a", "b").render() == "a^-1", "action row")

    only = parse_input_file("group G\n gen x\n rel x^2\nend\n")
    _expect(only.action is None and len(only.presentations) == 1, "group-only file")

    broken = D8_FILE.replace("  b : a -> a^-1\n", "")
    try:
        parse_input_file(broken)
    except ParseError as exc:
        _expect("action table incomplete" in str(exc), "incompleteness message")
    else:
        raise AssertionError("incomplete action table accepted")


# magnus --------------------------------------------------------------------


@_check("magnus/series-examples")
def _(budget):
    ab = Alphabet(["x", "y"])
    g = series_of_word(parse_word("x", ab), 2, 3)
    _expect(g.series.terms == {(): 1, (0,): 1}, "generator image")
    _expect(series_of_word(parse_word("x x^-1", ab), 2, 3).is_identity, "cancel")
    com = series_of_word(parse_word("[x,y]", ab), 2, 2)
    _expect(
        com.series.terms == {(): 1, (0, 1): 1, (1, 0): -1},
        "commutator series at cap 2",
    )
    sq = series_of_word(parse_word("x^2", ab), 2, 3)
    _expect(sq.leading() == {monomial_index((0,), 2): 2}, "leading part of a square")


@_check("magnus/weight-examples")
def _(budget):
    ab = Alphabet(["x", "y"])
    _expect(series_of_word(parse_word("1", ab), 2, 4).weight() is None, "identity")
    _expect(series_of_word(parse_word("[x,y]", ab), 2, 4).weight() == 2, "wt 2")
    _expect(
        series_of_word(parse_word("[[x,y],y]", ab), 2, 4).weight() == 3, "wt 3"
    )


@_check("magnus/homomorphism")
def _(budget):
    rng = random.Random(201)
    ab = Alphabet(["x", "y", "z"])
    for _ in range(200):
        n, cap = 3, rng.choice((2, 3, 4))
        u = Word(ab, _random_letters(rng, n, 6))
        v = Word(ab, _random_letters(rng, n, 6))
        _expect(
            series_of_word(u * v, n, cap)
            == series_of_word(u, n, cap) * series_of_word(v, n, cap),
            "word image is not multiplicative",
        )


@_check("magnus/inverse-exactness")
def _(budget):
    rng = random.Random(202)
    ab = Alphabet(["x", "y"])
    for _ in range(200):
        n, cap = 2, rng.choice((2, 3, 4, 5))
        amb_free = AmbientContext(n, cap, budget)
        g = amb_free.element_of_word(Word(ab, _random_letters(rng, n, 7)))
        _expect((g * g.inverse()).is_identity, "g * g^-1 is not the identity")
        _expect((g.inverse() * g).is_identity, "g^-1 * g is not the identity")


@_check("magnus/commutator-filtration")
def _(budget):
    rng = random.Random(203)
    ab = Alphabet(["x", "y"])
    for _ in range(200):
        n, cap = 2, 5
        amb = AmbientContext(n, cap, budget)
        g = amb.element_of_word(Word(ab, _random_letters(rng, n, 6)))
        h = amb.element_of_word(Word(ab, _random_letters(rng, n, 6)))
        wg, wh = g.weight(), h.weight()
        if wg is None or wh is None:
            continue
        wc = g.commutator(h).weight()
        _expect(
            wc is None or wc >= wg + wh,
            "commutator weight below the filtration bound",
        )


# lyndon ---------------------------------------------------------------------


@_check("lyndon/word-examples")
def _(budget):
    _expect(lyndon_words(2, 2) == [(0, 1)], "(2,2)")
    _expect(lyndon_words(2, 3) == [(0, 0, 1), (0, 1, 1)], "(2,3)")
    _expect(lyndon_words(1, 2) == [], "(1,2)")


@_check("lyndon/witt-examples")
def _(budget):
    _expect(witt_dimension(2, 1) == 2, "(2,1)")
    _expect(witt_dimension(2, 4) == 3, "(2,4)")
    _expect(witt_dimension(3, 3) == 8, "(3,3)")


@_check("lyndon/witt-vs-enumeration")
def _(budget):
    cases = 0
    for n in range(1, 7):
        for m in range(1, 8):
            if n ** m > 300_000:
                continue
            _expect(
                len(lyndon_words(n, m)) == witt_dimension(n, m),
                f"count mismatch at ({n},{m})",
            )
            cases += 1
    _expect(cases >= 40, "suite shrank unexpectedly")


def _expansion_of(word, n):
    """Expansion of a Lyndon word's bracketing, decoded to tuple monomials."""
    basis = get_basis(n, len(word))
    row = basis.expansions[basis.words.index(word)]
    return {index_monomial(k, n, len(word)): c for k, c in row.items()}


def _coordinates_of(tensor, n, m):
    """Coordinates of a tuple-keyed degree-m tensor over n letters."""
    return get_basis(n, m).coordinates(
        {monomial_index(mono, n): c for mono, c in tensor.items()}
    )


@_check("lyndon/bracketing-examples")
def _(budget):
    _expect(_expansion_of((0, 1), 2) == {(0, 1): 1, (1, 0): -1}, "ab expansion")
    _expect(_expansion_of((0,), 2) == {(0,): 1}, "single letter")
    _expect(
        _expansion_of((0, 0, 1), 2) == {(0, 0, 1): 1, (0, 1, 0): -2, (1, 0, 0): 1},
        "aab expansion",
    )


@_check("lyndon/coordinate-examples")
def _(budget):
    _expect(_coordinates_of({(0, 1): 1, (1, 0): -1}, 2, 2) == [1], "basis vector")
    _expect(_coordinates_of({(0, 1): 1, (1, 0): 1}, 2, 2) is None, "symmetric tensor")
    _expect(_coordinates_of({(0, 1): 2, (1, 0): -2}, 2, 2) == [2], "linearity")


@_check("lyndon/triangularity")
def _(budget):
    cases = 0
    for n in (1, 2, 3, 4):
        amb = AmbientContext(n, 5, budget)
        for m in range(1, 6):
            basis = amb.basis(m)
            for j, w in enumerate(basis.words):
                el = amb.bracket_element(w)
                _expect(el.weight() == m, f"bracketing weight at {w}")
                coords = basis.coordinates(el.leading())
                _expect(
                    coords == [int(i == j) for i in range(len(basis))],
                    f"triangularity fails at {w}",
                )
                cases += 1
    _expect(cases >= 200, "triangularity suite shrank")


def _bracket_word(word, alphabet):
    """The standard bracketing of a Lyndon word, spelled as a group word."""
    if len(word) == 1:
        return Word(alphabet, ((word[0], 1),))
    u, v = standard_factorization(word)
    return _bracket_word(u, alphabet).commutator(_bracket_word(v, alphabet))


@_check("lyndon/bracketing-via-plain-series")
def _(budget):
    # Cross-route: evaluate some bracketings as plain words.
    rng = random.Random(204)
    pool = [(n, w) for n in (2, 3) for m in range(1, 5) for w in lyndon_words(n, m)]
    for n, w in rng.sample(pool, 25):
        amb = AmbientContext(n, 4, budget)
        direct = amb.element_of_word(_bracket_word(w, Alphabet("xyz"[:n])))
        _expect(direct == amb.bracket_element(w), f"series routes differ at {w}")


@_check("lyndon/expansion-rank")
def _(budget):
    for n in (2, 3):
        for m in range(1, 5):
            basis = get_basis(n, m)
            cols = sorted({mono for row in basis.expansions for mono in row})
            h, _ = hnf([[row.get(c, 0) for c in cols] for row in basis.expansions])
            _expect(
                sum(map(any, h)) == len(basis),
                f"expansion rows dependent at ({n},{m})",
            )


# intlinalg -------------------------------------------------------------------


@_check("intlinalg/hnf-examples")
def _(budget):
    m = [[2, 0], [0, 2], [1, 1]]
    h, u = hnf(m)
    _expect(h == [[1, 1], [0, 2], [0, 0]], "hand example")
    _expect(matmul(u, m) == h, "transform")
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    h, u = hnf(ident)
    _expect(h == ident and u == ident, "identity fixed")
    h, _ = hnf([[0, 0, 0], [0, 0, 0]])
    _expect(h == [[0, 0, 0], [0, 0, 0]], "zero matrix")


@_check("intlinalg/snf-examples")
def _(budget):
    _expect(snf([[2, 4], [6, 8]]) == [2, 4], "diag(2,4)")
    _expect(snf([[6, 0], [0, 4]]) == [2, 12], "diag(2,12)")
    _expect(snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1], "identity")


@_check("intlinalg/membership-examples")
def _(budget):
    basis = [[1, 1], [0, 2]]
    coords, _ = echelon_solve(basis, [1, 1])
    _expect(coords == [1, 0], "(1,1)")
    coords, residue = echelon_solve(basis, [1, 0])
    _expect(coords is None and residue == [0, -1], "(1,0) residue")
    coords, _ = echelon_solve(basis, [0, 0])
    _expect(coords == [0, 0], "zero vector")


@_check("intlinalg/abelian-examples")
def _(budget):
    _expect(
        abelian_invariants(2, [[2, 0], [0, 2]]) == AbelianInvariants(0, (2, 2)),
        "Z2 x Z2",
    )
    _expect(
        abelian_invariants(2, [[2, 0]]) == AbelianInvariants(1, (2,)),
        "Z x Z2",
    )
    _expect(abelian_invariants(1, []) == AbelianInvariants(1), "free Z")


@_check("intlinalg/hnf-random")
def _(budget):
    rng = random.Random(301)
    shuffler = random.Random(311)
    for _ in range(200):
        m = _random_matrix(rng)
        h, u = hnf(m)
        _expect(abs(det(u)) == 1, "U is not unimodular")
        _expect(matmul(u, m) == h, "U*M != H")
        nz = [row for row in h if any(row)]
        for row in m:
            _expect(echelon_solve(nz, row)[0] is not None, "row span lost")
        # The Hermite form is unique, so no insertion order may change it.
        shuffled = m[:]
        shuffler.shuffle(shuffled)
        for rows in (m[::-1], shuffled):
            _expect(hnf(rows)[0] == h, "insertion order changed H")
        pivots = [next(i for i, x in enumerate(r) if x) for r in nz]
        _expect(pivots == sorted(pivots) and len(set(pivots)) == len(pivots),
                "not echelon")
        for t, row in enumerate(nz):
            p = pivots[t]
            _expect(row[p] > 0, "pivot not positive")
            for above in nz[:t]:
                _expect(0 <= above[p] < row[p], "entry above pivot not reduced")


@_check("intlinalg/snf-random")
def _(budget):
    rng = random.Random(302)
    for _ in range(200):
        m = _random_matrix(rng)
        nz = snf(m)
        _expect(len(nz) <= min(len(m), len(m[0])), "diagonal too long")
        _expect(all(x > 0 for x in nz), "diagonal entry not positive")
        for a, b in zip(nz, nz[1:]):
            _expect(b % a == 0, "divisor chain broken")
        # d_1 ... d_k is the gcd of the k x k minors, for every k up to the
        # rank; past the rank every minor vanishes.
        prod = 1
        for k, x in enumerate(nz, start=1):
            prod *= x
            _expect(prod == determinant_divisor(m, k),
                    f"determinantal divisor mismatch at k={k}")
        if len(nz) < min(len(m), len(m[0])):
            _expect(determinant_divisor(m, len(nz) + 1) == 0, "rank too small")


@_check("intlinalg/abelian-unimodular-invariance")
def _(budget):
    rng = random.Random(303)
    for _ in range(200):
        m = _random_matrix(rng, max_dim=3, max_entry=9)
        base = abelian_invariants(len(m[0]), m)
        rows = [r[:] for r in m]
        rng.shuffle(rows)
        i = rng.randrange(len(rows))
        j = rng.randrange(len(rows))
        if i != j:
            q = rng.randrange(-2, 3)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        _expect(
            abelian_invariants(len(m[0]), rows) == base,
            "row operations changed the invariants",
        )


# subgroups -------------------------------------------------------------------


def _closure_of(amb, ab, words):
    return relator_closure([parse_word(w, ab) for w in words], amb)


@_check("subgroups/closure-examples")
def _(budget):
    amb1 = AmbientContext(1, 1, budget)
    abx = Alphabet(["x"])
    u = _closure_of(amb1, abx, ["x^2"])
    _expect(u.levels[0].rows == [[2]], "closure of x^2 at cap 1")

    amb = AmbientContext(2, 2, budget)
    ab = Alphabet(["x", "y"])
    u = _closure_of(amb, ab, ["x^2", "y^2", "[x,y]"])
    _expect(u.levels[0].index() == 4, "degree-1 index 4")
    _expect(u.levels[1].is_full, "degree-2 lattice full")

    v = _closure_of(amb, ab, ["[x,y]"])
    _expect(v.levels[0].rows == [] and v.levels[1].is_full, "commutator closure")


@_check("subgroups/sieve-examples")
def _(budget):
    amb = AmbientContext(1, 1, budget)
    abx = Alphabet(["x"])
    u = _closure_of(amb, abx, ["x^2"])
    g4 = amb.element_of_word(parse_word("x^4", abx))
    res = u.sieve(g4)
    _expect(res.member and res.recipe == [((1, 0), 2)], "x^4 member")
    res = u.sieve(amb.element_of_word(parse_word("x", abx)))
    _expect(not res.member and res.residue.weight() == 1, "x residue")
    res = u.sieve(identity_element(amb.cap))
    _expect(res.member and res.recipe == [], "identity member, empty recipe")


@_check("subgroups/commutator-examples")
def _(budget):
    amb = AmbientContext(2, 2, budget)
    ab = Alphabet(["x", "y"])
    t = commutator_with(FilteredSubgroup(amb))
    _expect(not any(l.rows for l in t.levels), "[1, F] = 1")

    amb1 = AmbientContext(1, 2, budget)
    t = commutator_with(free_factor(amb1, range(amb1.n), 1))
    _expect(not any(l.rows for l in t.levels), "rank-1 free group is abelian")

    r = _closure_of(amb, ab, ["x^2", "y^2", "[x,y]"])
    d = commutator_with(r)
    _expect(d.levels[1].rows == [[2]], "[R,F] lattice is 2Z at degree 2")


@_check("subgroups/gamma-slice-examples")
def _(budget):
    amb = AmbientContext(2, 2, budget)
    ab = Alphabet(["x", "y"])
    full = free_factor(amb, range(amb.n), 1)
    _expect(
        intersect_with_gamma(full, 1).equal_as_subgroup(full), "slice at 1"
    )
    r = _closure_of(amb, ab, ["x^2", "y^2", "[x,y]"])
    s = intersect_with_gamma(r, 2)
    _expect(s.levels[0].rows == [] and s.levels[1].is_full, "klein slice")
    t = intersect_with_gamma(FilteredSubgroup(amb), 2)
    _expect(not any(l.rows for l in t.levels), "trivial slice")


@_check("subgroups/join-examples")
def _(budget):
    amb = AmbientContext(1, 1, budget)
    abx = Alphabet(["x"])
    u = _closure_of(amb, abx, ["x^2"])
    _expect(join(u, FilteredSubgroup(amb)).equal_as_subgroup(u), "join with 1")
    _expect(join(u, u).equal_as_subgroup(u), "idempotence")
    v = _closure_of(amb, abx, ["x^3"])
    _expect(join(u, v).levels[0].is_full, "gcd(2,3) = 1")


@_check("subgroups/quotient-examples")
def _(budget):
    amb = AmbientContext(2, 2, budget)
    ab = Alphabet(["x", "y"])
    r = _closure_of(amb, ab, ["[x,y]"])
    num = intersect_with_gamma(r, 2)
    _expect(
        quotient_invariants(num, num) == AbelianInvariants(0), "N = D"
    )
    _expect(
        quotient_invariants(num, FilteredSubgroup(amb)) == AbelianInvariants(1),
        "multiplier numerator of Z^2",
    )
    rk = _closure_of(amb, ab, ["x^2", "y^2", "[x,y]"])
    den = commutator_with(rk)
    _expect(
        quotient_invariants(intersect_with_gamma(rk, 2), den)
        == AbelianInvariants(0, (2,)),
        "klein multiplier quotient",
    )


@_check("subgroups/order-examples")
def _(budget):
    amb1 = AmbientContext(1, 1, budget)
    abx = Alphabet(["x"])
    _expect(quotient_order(_closure_of(amb1, abx, ["x^4"])) == 4, "Z4")
    amb = AmbientContext(2, 2, budget)
    ab = Alphabet(["x", "y"])
    _expect(
        quotient_order(_closure_of(amb, ab, ["x^2", "y^2", "[x,y]"])) == 4,
        "klein order",
    )
    _expect(
        quotient_order(_closure_of(amb, ab, ["[x,y]"])) is None, "Z^2 infinite"
    )


@_check("subgroups/saturation-stability")
def _(budget):
    rng = random.Random(401)
    for _ in range(200):
        amb, ab, u = _random_closure(rng, budget)
        v = join(FilteredSubgroup(amb), u)
        _expect(
            all(
                l1.rows == l2.rows for l1, l2 in zip(u.levels, v.levels)
            ),
            "re-closing a saturated subgroup changed it",
        )


@_check("subgroups/sieve-recipe-exactness")
def _(budget):
    # Below the cap a recipe multiplies out over the stored elements.  At
    # the cap, where an element is its row of Lyndon coordinates, what is
    # left must have no term below the cap and the row the top steps sum to.
    rng = random.Random(402)
    done = 0
    while done < 200:
        amb, ab, u = _random_closure(rng, budget)
        stored = u.stored()
        if not stored:
            continue
        g = identity_element(amb.cap)
        for _ in range(rng.randrange(1, 5)):
            _, _, el = stored[rng.randrange(len(stored))]
            g = g * el ** rng.choice((-2, -1, 1, 2))
        res = u.sieve(g)
        _expect(res.member, "product of stored elements escaped the sieve")
        p = identity_element(amb.cap)
        top = [0] * u.levels[-1].dim
        for (m, i), e in res.recipe:
            if m < amb.cap:
                p = p * u.levels[m - 1].elems[i] ** e
            else:
                top = [a + e * b for a, b in zip(top, u.levels[-1].rows[i])]
        rest = p.inverse() * g
        _expect(
            rest.is_identity and not any(top)
            or amb.leading_coordinates(rest) == (amb.cap, top),
            "recipe does not multiply out to the element",
        )
        done += 1


@_check("subgroups/order-cross-check")
def _(budget):
    rng = random.Random(403)
    for _ in range(200):
        n = rng.choice((1, 2, 3))
        gens = [f"x{i}" for i in range(n)]
        ab = Alphabet(gens)
        rows = [
            [rng.randrange(-4, 5) for _ in range(n)]
            for _ in range(rng.randrange(0, n + 2))
        ]
        words = []
        for row in rows:
            text = " ".join(
                f"{g}^{e}" for g, e in zip(gens, row) if e
            )
            if text:
                words.append(text)
        words += [f"[{gens[i]},{gens[j]}]" for i in range(n) for j in range(i + 1, n)]
        amb = AmbientContext(n, 2, budget) if n > 1 else AmbientContext(1, 1, budget)
        u = _closure_of(amb, ab, words) if words else FilteredSubgroup(amb)
        predicted = abelian_invariants(n, rows).order()
        _expect(
            quotient_order(u) == predicted,
            f"order mismatch for relations {rows}",
        )


# baer -----------------------------------------------------------------------


@_check("baer/class-bound-examples")
def _(budget):
    _expect(verify_class_bound(klein(), 1, budget).ok, "klein class 1")
    _expect(verify_class_bound(dihedral8(), 2, budget).ok, "d8 class 2")
    _expect(not verify_class_bound(dihedral8(), 1, budget).ok, "d8 is not abelian")
    _expect(verify_class_bound(free_abelian(2), 1, budget).ok, "Z^2 class 1")


@_check("baer/detect-class-examples")
def _(budget):
    _expect(detect_class(dihedral8(), 4, budget).k == 2, "d8 detects 2")
    _expect(detect_class(klein(), 4, budget).k == 1, "klein detects 1")
    free2 = make_presentation("free2", ["x", "y"], [])
    _expect(detect_class(free2, 3, budget) is None, "free group undetermined")


@_check("baer/multiplier-table")
def _(budget):
    for name, pres, c, k, expected in multiplier_table():
        got = baer_invariant(verify_class_bound(pres, k, budget), c)
        _expect(got == expected, f"{name}: got {got}, expected {expected}")


@_check("baer/truncation-exactness")
def _(budget):
    # Recomputing with the class bound raised by one runs at cap W+1 and
    # must reproduce every table entry.
    for name, pres, c, k, expected in multiplier_table():
        got = baer_invariant(verify_class_bound(pres, k + 1, budget), c)
        _expect(got == expected, f"{name} at cap+1: got {got}")


@_check("baer/presentation-independence")
def _(budget):
    def invariant(pres, c):
        return baer_invariant(verify_class_bound(pres, 1, budget), c)

    for c in (1, 2):
        _expect(
            invariant(klein(), c) == invariant(klein_redundant(), c),
            f"redundant-generator presentation disagrees at c={c}",
        )
    _expect(
        invariant(cyclic(2), 1) == invariant(cyclic(3), 1),
        "rank-1 multipliers are trivially equal",
    )


# semidirect -----------------------------------------------------------------


def _suite_entry(name):
    text, k_fixed = SEMIDIRECT_SUITE[name]
    parsed = parse_input_file(text)
    return parsed.action, k_fixed


@_check("semidirect/build-examples")
def _(budget):
    spec, _ = _suite_entry("d8")
    sp = build_semidirect(spec)
    rendered = [w.render() for w in sp.combined.relators]
    _expect(rendered == ["a^4", "b^2", "a^-2 b^-1 a^-1 b a"], "d8 relators")
    closure = relator_closure(sp.combined.relators, AmbientContext(2, 3, budget))
    _expect(quotient_order(closure) == 8, "d8 has order 8")

    spec, _ = _suite_entry("klein_trivial")
    sp = build_semidirect(spec)
    _expect(
        sp.rel_twist[0].render() == "b^-1 a^-1 b a",
        "trivial action twist relator reduces to a commutator",
    )

    spec, _ = _suite_entry("z4_by_z4")
    sp = build_semidirect(spec)
    closure = relator_closure(sp.combined.relators, AmbientContext(2, 3, budget))
    _expect(quotient_order(closure) == 16, "Z4 acting on Z4 has order 16")


@_check("semidirect/validate-examples")
def _(budget):
    spec, _ = _suite_entry("d8")
    z4 = verify_class_bound(spec.acted, 1, budget)
    _expect(validate_action(spec, z4) == [], "inversion is valid")

    bad = parse_input_file(D8_FILE.replace("a -> a^-1", "a -> a^2")).action
    problems = validate_action(bad, z4)
    _expect(
        any("surjectivity" in p for p in problems), "squaring on Z4 not caught"
    )

    spec, _ = _suite_entry("klein_trivial")
    z2 = verify_class_bound(spec.acted, 1, budget)
    _expect(validate_action(spec, z2) == [], "trivial action is valid")


@_check("semidirect/merge-examples")
def _(budget):
    T = AbelianInvariants
    _expect(merge_invariants(T(0, (2,)), T(0, (2,))) == T(0, (2, 2)), "2+2")
    _expect(merge_invariants(T(0, (2,)), T(0, (4,))) == T(0, (2, 4)), "2+4")
    _expect(merge_invariants(T(0, (6,)), T(0, (4,))) == T(0, (2, 12)), "6+4")
    _expect(merge_invariants(T(1), T(2, (3,))) == T(3, (3,)), "free ranks add")
    rng = random.Random(501)
    pool = [T(rng.randrange(0, 2), tuple()) for _ in range(3)]
    pool += [T(0, (2,)), T(0, (4,)), T(0, (6,)), T(0, (2, 4)), T(1, (3,))]
    for _ in range(200):
        a, b, c = (rng.choice(pool) for _ in range(3))
        _expect(merge_invariants(a, b) == merge_invariants(b, a), "commutativity")
        _expect(
            merge_invariants(merge_invariants(a, b), c)
            == merge_invariants(a, merge_invariants(b, c)),
            "associativity",
        )
        _expect(merge_invariants(a, T(0)) == a, "unit law")


def suite_case(name, budget=DEFAULT_MONOMIAL_BUDGET):
    """The combined presentation of a suite example and its class-bound
    certificate: the check of the suite's fixed bound, else detected."""
    spec, k_fixed = _suite_entry(name)
    sp = build_semidirect(spec)
    if k_fixed is None:
        cert = detect_class(sp.combined, 6, budget)
    else:
        cert = verify_class_bound(sp.combined, k_fixed, budget)
    _expect(cert is not None, f"{name}: class bound undetermined")
    return sp, cert


def _decomposition_case(name, c, budget):
    sp, cert = suite_case(name, budget)
    report = verify_direct_factor(sp, c, cert)
    failed = [n for n, ok in report.checks.items() if not ok]
    _expect(not failed, f"{name} c={c}: failed {failed}")
    return report


@_check("semidirect/decomposition-suite-c1")
def _(budget):
    for name in SEMIDIRECT_SUITE:
        _decomposition_case(name, 1, budget)


@_check("semidirect/decomposition-suite-c2")
def _(budget):
    for name in SEMIDIRECT_SUITE:
        _decomposition_case(name, 2, budget)


@_check("semidirect/reported-values")
def _(budget):
    T = AbelianInvariants
    rep = _decomposition_case("d8", 1, budget)
    _expect(
        (rep.invariants_group, rep.invariants_acting, rep.invariants_complement)
        == (T(0, (2,)), T(0), T(0, (2,))),
        "d8 c=1 values",
    )
    rep = _decomposition_case("klein_trivial", 2, budget)
    _expect(rep.invariants_group == T(0, (2, 2)), "klein c=2 group value")
    _expect(rep.merged == T(0, (2, 2)), "klein c=2 merge value")
    rep = _decomposition_case("z2_on_z2sq", 1, budget)
    _expect(rep.invariants_complement == T(0, (2, 2, 2)), "rank-3 complement")
    rep = _decomposition_case("zz_trivial", 1, budget)
    _expect(
        rep.invariants_group == T(1) and rep.invariants_complement == T(1),
        "free abelian rank-2 values",
    )


# --- runner -------------------------------------------------------------------


def iter_checks():
    return list(_CHECKS)


def run_selftest(monomial_budget: int, out) -> int:
    """Run every check, emitting one record per check and a summary through
    out(text, *machine_lines); returns 0 when all pass, 1 otherwise.
    Capacity errors propagate so the caller can map them to their own exit
    code."""
    failures = 0
    for name, fn in _CHECKS:
        try:
            fn(monomial_budget)
        except AssertionError as exc:
            failures += 1
            status, detail = "fail", f" ({exc})"
        else:
            status, detail = "pass", ""
        out(f"check {name}: {status}{detail}", f"check={name} status={status}")
    out(
        f"selftest: {len(_CHECKS)} checks, {failures} failures",
        f"checks={len(_CHECKS)} failures={failures}",
    )
    return 0 if failures == 0 else 1

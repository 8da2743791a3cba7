import random
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from baerkit.baer import (
    certified_class_bound,
    relator_closure,
    verify_class_bound,
    working_closure,
)
from baerkit import semidirect
from baerkit.errors import ActionError, CertificateError
from baerkit.intlinalg import AbelianInvariants
from baerkit.magnus import reindex_element
from baerkit.presentations import (
    ActionSpec,
    Alphabet,
    Presentation,
    Word,
    parse_input_file,
)
from baerkit.selftest import SEMIDIRECT_SUITE, dihedral8, klein, suite_case
from baerkit.semidirect import (
    SemidirectSubgroups,
    build_semidirect,
    materialize_subgroups,
    merge_invariants,
    resolve_acting_class_bound,
    validate_action,
    verify_direct_factor,
    verify_subgroup_decomposition,
)
from baerkit.subgroups import (
    AmbientContext,
    FilteredSubgroup,
    commutator_with,
    free_factor,
    insert_and_close,
    intersect_with_gamma,
    join,
    quotient_order,
)
from test_subgroups import all_pairs_closure, every_element

T = AbelianInvariants
DATA = Path(__file__).resolve().parent.parent / "data"


def suite_action(name):
    text, k_fixed = SEMIDIRECT_SUITE[name]
    return parse_input_file(text).action, k_fixed


def suite_report(name, c):
    sp, cert = suite_case(name)
    return verify_direct_factor(sp, c, cert)


def suite_table(name, c):
    """The verifier's subgroup table for a suite example."""
    sp, cert = suite_case(name)
    acting = resolve_acting_class_bound(sp.action.acting, cert.k)
    return materialize_subgroups(sp, c, cert, acting)


class TestValidateAction:
    def test_inverse_table_must_undo(self):
        text, _ = SEMIDIRECT_SUITE["z4_by_z4"]
        bad = parse_input_file(
            text.replace("inverse b : a -> a^-1", "inverse b : a -> a")
        ).action
        problems = validate_action(bad, verify_class_bound(bad.acted, 1))
        assert any("does not undo" in p for p in problems)

    def test_infinite_acted_needs_inverses(self):
        text, _ = SEMIDIRECT_SUITE["zz_trivial"]
        spec = parse_input_file(
            text.replace("  inverse b : a -> a\n", "")
        ).action
        problems = validate_action(spec, verify_class_bound(spec.acted, 1))
        assert any("inverse images required" in p for p in problems)

    def test_acting_relator_must_act_trivially(self):
        # Inversion under Z3 fails: b^3 would act as inversion, not identity.
        text = SEMIDIRECT_SUITE["d8"][0].replace("rel b^2", "rel b^3")
        spec = parse_input_file(text).action
        problems = validate_action(spec, verify_class_bound(spec.acted, 1))
        assert any("moves" in p for p in problems)


class TestCertificates:
    """Each stage reads its class bound from a certificate, and refuses one
    built for another presentation."""

    def test_foreign_certificate_in_validate_action(self):
        spec, _ = suite_action("d8")
        with pytest.raises(ValueError, match="certificate of 'klein'"):
            validate_action(spec, verify_class_bound(klein(), 1))

    def test_foreign_certificate_in_materialize_subgroups(self):
        sp, cert = suite_case("d8")
        acting = resolve_acting_class_bound(sp.action.acting, cert.k)
        foreign = verify_class_bound(dihedral8(), cert.k)
        assert foreign.ok and foreign.presentation != sp.combined
        for certs in [(foreign, acting), (cert, foreign)]:
            with pytest.raises(ValueError, match="certificate of 'd8'"):
                materialize_subgroups(sp, 1, *certs)
        with pytest.raises(ValueError, match="certificate of 'd8'"):
            verify_direct_factor(sp, 1, foreign)

    def test_acting_factor_without_a_bound(self):
        # D8 has class 2, so no bound <= 1 certifies it.
        with pytest.raises(CertificateError, match="acting factor 'd8'"):
            resolve_acting_class_bound(dihedral8(), 1)


# --- word-substitution oracle ------------------------------------------------
#
# The former action check: it substitutes image words into words and only
# then evaluates, so word length grows like r^j under a -> a^r.  Kept as an
# independent reference for validate_action on inputs where words stay short.

_ORACLE_ORDER_SEARCH = 4096


class SubstitutionEvaluator:
    def __init__(self, spec, ambient, closure):
        self.spec = spec
        self.ambient = ambient
        self.closure = closure
        self.acted = spec.acted.alphabet
        self.acting = spec.acting.alphabet
        self._computed_inverse = {}

    def _fixes_generators(self, table):
        for a in self.acted.names:
            probe = table[a] * Word(self.acted, ((self.acted.index(a), -1),))
            if not self.closure.contains(self.ambient.element_of_word(probe)):
                return False
        return True

    def _forward_table(self, b_name):
        return {a: self.spec.image(a, b_name) for a in self.acted.names}

    def _substitute(self, word, table):
        names = self.acted.names
        out = Word(self.acted)
        for g, s in word.letters:
            img = table[names[g]]
            out = out * (img if s > 0 else img.inverse())
        return out

    def _inverse_table(self, b_name):
        if self.spec.inverse_images is not None:
            return {
                a: self.spec.image(a, b_name, inverse=True)
                for a in self.acted.names
            }
        b_idx = self.acting.index(b_name)
        cached = self._computed_inverse.get(b_idx)
        if cached is not None:
            return cached
        forward = self._forward_table(b_name)
        current = forward
        previous = {
            a: Word(self.acted, ((self.acted.index(a), 1),))
            for a in self.acted.names
        }
        for _ in range(_ORACLE_ORDER_SEARCH):
            if self._fixes_generators(current):
                self._computed_inverse[b_idx] = previous
                return previous
            previous = current
            current = {a: self._substitute(w, forward) for a, w in current.items()}
            if any(len(w) > 100_000 for w in current.values()):
                break
        raise ActionError(
            [f"cannot invert the action of {b_name!r}; supply inverse images"]
        )

    def apply_letter(self, word, b_idx, sign):
        b_name = self.acting.names[b_idx]
        table = (
            self._forward_table(b_name) if sign > 0 else self._inverse_table(b_name)
        )
        return self._substitute(word, table)

    def apply_word(self, word, acting_word):
        out = word
        for b, s in acting_word.letters:
            out = self.apply_letter(out, b, s)
        return out


def substitution_validate(spec, k_acted):
    """The former validate_action, over SubstitutionEvaluator."""
    problems = []
    cert = verify_class_bound(spec.acted, k_acted)
    if not cert.ok:
        return [
            f"acted group {spec.acted.name!r} is not certified nilpotent of "
            f"class <= {k_acted}"
        ]
    ambient, closure = cert.closure.ambient, cert.closure
    ev = SubstitutionEvaluator(spec, ambient, closure)
    acted = spec.acted.alphabet
    acted_names = acted.names
    acting_names = spec.acting.alphabet.names

    def fixed_modulo_relators(word, a_name):
        probe = word * Word(acted, ((acted.index(a_name), -1),))
        return closure.contains(ambient.element_of_word(probe))

    for r in spec.acted.relators:
        for b_idx, b in enumerate(acting_names):
            image = ev.apply_letter(r, b_idx, 1)
            if not closure.contains(ambient.element_of_word(image)):
                problems.append(
                    f"action of {b!r} does not preserve relator {r.render()!r}"
                )

    if spec.inverse_images is not None:
        for b_idx, b in enumerate(acting_names):
            for a in acted_names:
                back = ev.apply_letter(spec.image(a, b), b_idx, -1)
                if not fixed_modulo_relators(back, a):
                    problems.append(
                        f"inverse of {b!r} does not undo its action on {a!r}"
                    )
                forth = ev.apply_letter(spec.image(a, b, inverse=True), b_idx, 1)
                if not fixed_modulo_relators(forth, a):
                    problems.append(
                        f"action of {b!r} does not undo its inverse on {a!r}"
                    )
    elif quotient_order(closure) is None:
        problems.append("inverse images required: the acted group is infinite")
    else:
        for b in acting_names:
            images = [
                ambient.element_of_word(spec.image(a, b)) for a in acted_names
            ]
            generated = all_pairs_closure(
                None, ambient, [el for _, _, el in every_element(closure)] + images, False
            )
            if quotient_order(generated) != 1:
                problems.append(
                    f"surjectivity fails for {b!r}: images generate a "
                    f"proper subgroup"
                )

    for s in spec.acting.relators:
        try:
            for a in acted_names:
                unit = Word(acted, ((acted.index(a), 1),))
                if not fixed_modulo_relators(ev.apply_word(unit, s), a):
                    problems.append(f"acting relator {s.render()!r} moves {a!r}")
        except ActionError as exc:
            problems.extend(exc.problems)
    return problems


def _power(name, e):
    return "1" if e == 0 else name if e == 1 else f"{name}^{e}"


def _substitution_cost(n, acting_rels, forward, inverse):
    """Letters the oracle builds on the cyclic family, tracked as exponents
    of a: substituting a -> a^r into a^e gives a^(e*r) after |e| products,
    each re-reducing the word built so far."""
    cost = 0

    def subst(e, r):
        nonlocal cost
        cost += abs(e) * abs(e * r)
        return e * r

    inverse_exp = dict(inverse or {})
    for b, r in forward.items():
        if b in inverse_exp:
            continue
        e = r
        for _ in range(_ORACLE_ORDER_SEARCH):
            if (e - 1) % n == 0:
                break
            if abs(e) > 100_000:
                return float("inf")
            e = subst(e, r)
        else:
            continue
        inverse_exp[b] = e // r if r else 1
    for rel in acting_rels:
        e = 1
        for b, sign in rel:
            if sign < 0 and b not in inverse_exp:
                break  # the oracle refuses here
            e = subst(e, forward[b] if sign > 0 else inverse_exp[b])
    for b, r in forward.items():
        subst(n, r)
        if inverse:
            subst(r, inverse[b])
            subst(inverse[b], r)
    return cost


def cyclic_family(seed, count, budget=200_000):
    """Seeded actions a -> a^r of Z_m or Z_m1 x Z_m2 on Z_n, n <= 16: valid
    and invalid r, with and without inverse rows, acting relators b^m, b^-m
    and [b1,b2].  Only inputs on which the oracle's words stay short."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 16)
        names = ["b"] if rng.random() < 0.6 else ["b1", "b2"]
        units = [r for r in range(-(n // 2) + 1, n // 2 + 1)
                 if any(r * s % n == 1 for s in range(n))]
        forward, rels, rel_text = {}, [], []
        for b in names:
            if rng.random() < 0.6:  # an automorphism, b^m acting trivially
                r = rng.choice(units)
                m = next(j for j in range(1, n + 1) if (r ** j - 1) % n == 0)
                m *= rng.choice([1, 1, 2])
            else:
                r = rng.randint(-(n // 2) + 1, n // 2)
                m = rng.randint(1, 6)
            forward[b] = r
            sign = rng.choice([1, -1])
            rels.append([(b, sign)] * m)
            rel_text.append(_power(b, sign * m))
        if len(names) == 2:
            rels.append([("b1", -1), ("b2", -1), ("b1", 1), ("b2", 1)])
            rel_text.append("[b1,b2]")
        inverse = None
        if rng.random() < 0.4:
            inverse = {}
            for b, r in forward.items():
                good = next((s for s in units if r * s % n == 1), 1)
                inverse[b] = good if rng.random() < 0.7 else rng.randint(-3, 3)
        if _substitution_cost(n, rels, forward, inverse) > budget:
            continue
        lines = [
            "group A", "  gen a", f"  rel a^{n}", "end",
            "group B", f"  gen {' '.join(names)}",
            f"  rel {', '.join(rel_text)}", "end", "action B on A",
        ]
        lines += [f"  {b} : a -> {_power('a', r)}" for b, r in forward.items()]
        if inverse is not None:
            lines += [
                f"  inverse {b} : a -> {_power('a', s)}"
                for b, s in inverse.items()
            ]
        lines.append("end")
        out.append("\n".join(lines) + "\n")
    return out


# Two-generator acted groups, where an action can also break an acted relator
# and where letters of an acting relator do not commute: GL(2,2) acting on
# Z2^2, where b1 b2^-1 b3 acts trivially but b3 b2^-1 b1 does not.  Last, a
# relator with two uninvertible letters: the refusal names the left one.
HAND_ACTIONS = [
    """group A
  gen a1 a2
  rel a1^2, a2^2, [a1,a2]
end
group B
  gen b1 b2 b3
  rel b1^2, b2^-2, b3^3, b1 b2^-1 b3
end
action B on A
  b1 : a1 -> a2
  b1 : a2 -> a1
  b2 : a1 -> a1
  b2 : a2 -> a1 a2
  b3 : a1 -> a2
  b3 : a2 -> a2 a1
end
""",
    """group A
  gen a1 a2
  rel a1^2, a2^4, [a1,a2]
end
group B
  gen b
  rel b^-2
end
action B on A
  b : a1 -> a2
  b : a2 -> a1
end
""",
    """group A
  gen a1 a2
  rel a1^2, a2^2, [a1,a2]
end
group B
  gen b
  rel b^-2
end
action B on A
  b : a1 -> a2
  b : a2 -> a1
end
""",
    """group A
  gen a1 a2
  rel a1^4, a2^4, [a1,a2]
end
group B
  gen b
  rel b^-4
end
action B on A
  b : a1 -> a2
  b : a2 -> a1^-1
  inverse b : a1 -> a2^-1
  inverse b : a2 -> a1^2
end
""",
    """group A
  gen a
  rel a^3
end
group B
  gen b1 b2
  rel [b1,b2]
end
action B on A
  b1 : a -> 1
  b2 : a -> 1
end
""",
]


class TestSubstitutionOracle:
    FAMILY = cyclic_family(5, 60)

    CASES = FAMILY + HAND_ACTIONS

    @pytest.mark.parametrize("index", range(len(CASES)))
    def test_same_problems_as_word_substitution(self, index):
        spec = parse_input_file(self.CASES[index]).action
        cert = verify_class_bound(spec.acted, 1)
        assert validate_action(spec, cert) == substitution_validate(spec, 1)

    def test_family_reaches_every_branch(self):
        problems = []
        computed_inverse_valid = False
        for text in self.CASES:
            spec = parse_input_file(text).action
            found = substitution_validate(spec, 1)
            problems += found
            computed_inverse_valid |= not found and (
                spec.inverse_images is None
                and any(s < 0 for r in spec.acting.relators for _, s in r.letters)
            )
        assert computed_inverse_valid
        joined = "\n".join(problems)
        for fragment in [
            "does not preserve relator",
            "does not undo its action",
            "does not undo its inverse",
            "surjectivity fails",
            "moves",
            "cannot invert the action",
        ]:
            assert fragment in joined, fragment

    # Small nilpotent groups for random actions of b (b^2 = 1) without
    # inverse rows: Z8, Z2xZ4, Z3xZ3, D8, Q8, Z4 by Z4 and Z2^3.
    RANDOM_MAP_GROUPS = [
        ("a", "a^8"),
        ("a1 a2", "a1^2, a2^4, [a1,a2]"),
        ("a1 a2", "a1^3, a2^3, [a1,a2]"),
        ("a1 a2", "a1^4, a2^2, a2^-1 a1 a2 a1"),
        ("a1 a2", "a1^4, a1^2 a2^-2, a2^-1 a1 a2 a1"),
        ("a1 a2", "a1^4, a2^4, a2^-1 a1 a2 a1"),
        ("a1 a2 a3", "a1^2, a2^2, a3^2, [a1,a2], [a1,a3], [a2,a3]"),
    ]

    def test_same_problems_on_random_maps(self):
        # Without inverse rows every map gets a surjectivity verdict:
        # validate_action reads it off a normal closure, the oracle off the
        # subgroup the images generate.
        rng = random.Random(4153)
        verdicts = []
        for gens, rels in self.RANDOM_MAP_GROUPS:
            names = gens.split()
            for _ in range(20):
                rows = "".join(
                    f"  b : {a} -> " + (" ".join(
                        f"{rng.choice(names)}^{rng.choice((-2, -1, 1, 2))}"
                        for _ in range(rng.randrange(4))
                    ) or "1") + "\n"
                    for a in names
                )
                spec = parse_input_file(
                    f"group A\n  gen {gens}\n  rel {rels}\nend\n"
                    "group B\n  gen b\n  rel b^2\nend\n"
                    f"action B on A\n{rows}end\n"
                ).action
                k = certified_class_bound(spec.acted, 4).k
                problems = validate_action(spec, verify_class_bound(spec.acted, k))
                assert problems == substitution_validate(spec, k), rows
                verdicts.append(not any("surjectivity" in p for p in problems))
        assert 0 < sum(verdicts) < len(verdicts)


class TestBuild:
    def test_d8_combined(self):
        spec, _ = suite_action("d8")
        sp = build_semidirect(spec)
        assert [w.render() for w in sp.combined.relators] == [
            "a^4", "b^2", "a^-2 b^-1 a^-1 b a",
        ]
        assert sp.combined.alphabet.names == ("a", "b")
        closure = relator_closure(sp.combined.relators, AmbientContext(2, 3))
        assert quotient_order(closure) == 8

    def test_twist_relator_count(self):
        spec, _ = suite_action("z2_on_z2sq")
        sp = build_semidirect(spec)
        assert len(sp.rel_twist) == 2  # one per (acted gen, acting gen) pair


class TestDecomposition:
    def test_rank_three_elementary_abelian(self):
        report = suite_report("z2_on_z2sq", 1)
        assert report.invariants_group == T(0, (2, 2, 2))
        assert report.invariants_complement == T(0, (2, 2, 2))

    def test_classic_denominator_check_only_at_c1(self):
        assert "classic_denominator_agrees" in suite_report("d8", 1).checks
        assert "classic_denominator_agrees" not in suite_report("d8", 2).checks

    def test_subgroup_checks_standalone(self):
        table = suite_table("klein_trivial", 1)
        checks = verify_subgroup_decomposition(table)
        assert all(checks.values()), checks
        assert table.twist.contains_all(table.rel_acted)


# --- the former construction -------------------------------------------------
#
# materialize_subgroups before every subgroup was derived in the combined
# ambient: the free factors were full groups of ambients of their own,
# embedded; the twist subgroup was closed from the acted and twist relators
# together; the towers were written out.  Kept as the reference that the
# derived table must match lattice for lattice.  The free factors are the
# subgroups their shifted elements generate, by all-pairs saturation; the
# embedded acting Hopf pair is the normal closure of its shifted elements,
# which the former construction took the subgroup generated by.


def _iterated_commutator(ambient, base_elem, letters):
    out = base_elem
    for g in letters:
        out = out.commutator(ambient.generators[g])
        if out.is_identity:
            break
    return out


def former_subgroups(sp, c, certificate, acting_certificate):
    """The former table, keyed by the field names of the current one."""
    cap = certificate.k + c
    n_acted, n_acting = sp.n_acted, sp.n_acting
    n = n_acted + n_acting
    rel_full = working_closure(certificate, cap)
    ambient = rel_full.ambient
    full = free_factor(ambient, range(n), 1)

    def closure_of(words):
        return insert_and_close(
            None, ambient, [ambient.element_of_word(w) for w in words]
        )

    def embedded_factor(own, offset, degree):
        """A free factor meet gamma_degree as the former construction built
        it: the subgroup generated by the term of its own full group,
        shifted; here by all-pairs saturation."""
        term = intersect_with_gamma(free_factor(own, range(own.n), 1), degree)
        elems = [reindex_element(el, offset, n) for _, _, el in every_element(term)]
        return all_pairs_closure(None, ambient, elems, False)

    def embedded_closure(sub):
        """The normal closure of every element of an acting-factor subgroup,
        shifted past the acted letters."""
        elems = [reindex_element(el, n_acted, n) for _, _, el in every_element(sub)]
        return insert_and_close(None, ambient, elems)

    rel_acting = closure_of(sp.rel_acting)
    rel_acted = closure_of(sp.rel_acted)
    twist = closure_of(sp.rel_acted + sp.rel_twist)

    def tower(sub):
        out = sub
        for _ in range(c):
            out = commutator_with(out)
        return out

    numerator = intersect_with_gamma(rel_full, c + 1)
    denominator = tower(rel_full)
    twist_numerator = intersect_with_gamma(twist, c + 1)
    twist_tower = tower(twist)

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
    mixed_tower = insert_and_close(None, ambient, mixed_elems)
    complement_denominator = join(mixed_tower, twist_tower)

    acting_sub = working_closure(acting_certificate, cap)
    amb_acting = acting_sub.ambient
    acting_gamma_embedded = embedded_closure(intersect_with_gamma(acting_sub, c + 1))
    acting_tower_sub = acting_sub
    for _ in range(c):
        acting_tower_sub = commutator_with(acting_tower_sub)
    acting_tower_embedded = embedded_closure(acting_tower_sub)

    amb_acted = AmbientContext(n_acted, cap)
    acted_full = embedded_factor(amb_acted, 0, 1)
    acting_full = embedded_factor(amb_acting, n_acted, 1)
    acted_normal_closure = insert_and_close(
        None, ambient, [ambient.generators[i] for i in range(n_acted)]
    )
    # [R2, F1] from every stored pair, not from the acted generators alone.
    mixed_commutators = insert_and_close(None, ambient, [
        r.commutator(a)
        for m1, _, r in rel_acting.stored()
        for m2, _, a in acted_full.stored()
        if m1 + m2 <= cap
    ])

    gamma_full = intersect_with_gamma(full, c + 1)
    gamma_acted_embedded = embedded_factor(amb_acted, 0, c + 1)
    gamma_acting_embedded = embedded_factor(amb_acting, n_acted, c + 1)
    gamma_elems = []
    for a in range(n_acted):
        for b in range(n_acted, n):
            base = ambient.generators[a].commutator(ambient.generators[b])
            for letters in product(range(n), repeat=c - 1):
                el = _iterated_commutator(ambient, base, letters)
                if not el.is_identity:
                    gamma_elems.append(el)
    mixed_gamma_tower = insert_and_close(None, ambient, gamma_elems)

    return {
        "rel_full": rel_full,
        "rel_acting": rel_acting,
        "rel_acted": rel_acted,
        "twist": twist,
        "numerator": numerator,
        "denominator": denominator,
        "twist_numerator": twist_numerator,
        "twist_tower": twist_tower,
        "mixed_tower": mixed_tower,
        "complement_denominator": complement_denominator,
        "mixed_commutators": mixed_commutators,
        "acting_gamma_embedded": acting_gamma_embedded,
        "acting_tower_embedded": acting_tower_embedded,
        "acting_full": acting_full,
        "acted_normal_closure": acted_normal_closure,
        "gamma_full": gamma_full,
        "gamma_acted_embedded": gamma_acted_embedded,
        "gamma_acting_embedded": gamma_acting_embedded,
        "mixed_gamma_tower": mixed_gamma_tower,
    }


ACTION_FILES = sorted(
    path.name
    for path in DATA.glob("*.grp")
    if parse_input_file(path.read_text()).action is not None
)

# Z2 acting on Z8 by inversion, with inverse rows, and by cubing, without.
Z8_BY_Z2 = """group A
  gen a
  rel a^8
end
group B
  gen b
  rel b^2
end
action B on A
  b : a -> {image}
{inverse}end
"""
Z8_CASES = {
    "z8_inverse_rows": Z8_BY_Z2.format(
        image="a^-1", inverse="  inverse b : a -> a^-1\n"
    ),
    "z8_cube": Z8_BY_Z2.format(image="a^3", inverse=""),
}

# A two-letter acting factor with a relator of weight 1: commutators of
# acting relators with acting letters alone leave the mixed tower.
RANK_TWO_ACTING = """group A
  gen a
  rel a^2
end
group B
  gen b1 b2
  rel b1 b2^-1, b1^2
end
action B on A
  b1 : a -> a
  b2 : a -> a
end
"""


def certified_presentation(text):
    """The combined presentation with the certificates the verifier passes
    on: the combined group's and the acting factor's."""
    spec = parse_input_file(text).action
    sp = build_semidirect(spec)
    cert = certified_class_bound(sp.combined, 6)
    return sp, cert, resolve_acting_class_bound(spec.acting, cert.k)


class TestDerivedTable:
    """Every field of the table has the lattices of the former
    construction, at every degree; the two embedded acting fields have
    those of its normal closures."""

    CASES = [
        (name, (DATA / name).read_text(), c)
        for name in ACTION_FILES
        for c in (1, 2, 3)
    ] + [(name, text, 2) for name, text in Z8_CASES.items()] + [
        ("rank_two_acting", RANK_TWO_ACTING, c) for c in (1, 2)
    ]

    def test_cases_cover_every_action_file(self):
        assert ACTION_FILES == [
            "d8.grp", "klein_trivial.grp", "z2_on_z2sq.grp",
            "z4_by_z4.grp", "zz_trivial.grp",
        ]

    @pytest.mark.parametrize(
        "name,text,c", CASES, ids=[f"{n}-c{c}" for n, _, c in CASES]
    )
    def test_same_lattices_as_former_construction(self, name, text, c):
        sp, cert, acting = certified_presentation(text)
        table = materialize_subgroups(sp, c, cert, acting)
        want = former_subgroups(sp, c, cert, acting)
        got = {name: getattr(table, name) for name in SemidirectSubgroups._fields}
        assert got.keys() == want.keys()
        cap = cert.k + c
        for field_name, sub in got.items():
            assert sub.ambient.n == want[field_name].ambient.n, field_name
            for m in range(1, cap + 1):
                assert sub.levels[m - 1].rows == want[field_name].levels[m - 1].rows, (
                    field_name, m,
                )


class TestChecksDetectFailure:
    """Each structural check reports False when the one subgroup it is
    about is replaced by a wrong one."""

    @staticmethod
    def perturbations(table):
        trivial = FilteredSubgroup(table.rel_full.ambient)
        return {
            "acted_relators_in_twist": {"twist": table.rel_acting},
            "mixed_commutators_in_twist": {"twist": table.rel_acted},
            "relator_subgroup_factorizes": {"rel_acting": trivial},
            "numerator_factorizes": {"twist_numerator": trivial},
            "denominator_factorizes": {"complement_denominator": trivial},
            "lower_central_splits": {"mixed_gamma_tower": trivial},
            "factor_complement_meets_trivially": {
                "acting_full": table.acted_normal_closure
            },
        }

    @pytest.mark.parametrize("name", ["d8", "z4_by_z4"])
    def test_each_check_fails_under_its_perturbation(self, name):
        table = suite_table(name, 1)
        checks = verify_subgroup_decomposition(table)
        assert all(checks.values())
        perturbations = self.perturbations(table)
        assert perturbations.keys() == checks.keys()
        for check, change in perturbations.items():
            checks = verify_subgroup_decomposition(table._replace(**change))
            assert checks[check] is False, (check, checks)

    @pytest.mark.parametrize(
        "text", [Z8_CASES["z8_cube"], RANK_TWO_ACTING],
        ids=["z8_cube", "rank_two_acting"],
    )
    def test_classic_denominator_check_fails_under_perturbation(
        self, text, monkeypatch
    ):
        # A mixed tower built wrong (here trivial) reaches both of its
        # uses at c = 1: `mixed_commutators` and the complement
        # denominator.  The classic side does not read it, so the check
        # reads False on groups whose mixed tower is not inside the twist
        # tower, as it is not in these two.
        sp, cert, acting = certified_presentation(text)
        table = materialize_subgroups(sp, 1, cert, acting)
        assert not table.twist_tower.contains_all(table.mixed_tower)
        assert verify_direct_factor(sp, 1, cert).checks["classic_denominator_agrees"]
        build = semidirect.materialize_subgroups

        def perturbed(*args):
            table = build(*args)
            trivial = FilteredSubgroup(table.rel_full.ambient)
            return table._replace(
                mixed_tower=trivial,
                mixed_commutators=trivial,
                complement_denominator=table.twist_tower,
            )

        monkeypatch.setattr(semidirect, "materialize_subgroups", perturbed)
        checks = verify_direct_factor(sp, 1, cert).checks
        assert checks["classic_denominator_agrees"] is False, checks


@pytest.mark.parametrize("name", list(SEMIDIRECT_SUITE))
def test_suite_restates_shipped_example(name):
    """The selftest's semidirect suite and data/ present the same groups
    with the same action tables."""
    suite = parse_input_file(SEMIDIRECT_SUITE[name][0])
    shipped = parse_input_file((DATA / f"{name}.grp").read_text())
    assert suite.presentations == shipped.presentations
    assert suite.action.images == shipped.action.images
    assert suite.action.inverse_images == shipped.action.inverse_images


class TestRecords:
    """What callers read of the result records: their refusals and
    messages, value equality and hashing, the invariants' repr, and
    immutability of the invariants, presentations, action tables and
    semidirect presentations."""

    X, Y = Alphabet(["x"]), Alphabet(["y"])

    def test_equal_invariants_hash_equal(self):
        a, b = T(0, [2, 4]), T(free_rank=0, torsion=(2, 4))
        assert a == b and hash(a) == hash(b)
        assert {a: "x"}[b] == "x"
        assert T(1, (2,)) != T(0, (2,))

    def test_invariants_repr(self):
        assert repr(T(1, (2, 6))) == "AbelianInvariants(free_rank=1, torsion=(2, 6))"
        assert repr(T(0)) == "AbelianInvariants(free_rank=0, torsion=())"

    def test_two_parses_give_equal_records(self):
        text = (DATA / "d8.grp").read_text()
        one, two = parse_input_file(text), parse_input_file(text)
        assert one.presentations == two.presentations
        assert [hash(p) for p in one.presentations] == [
            hash(p) for p in two.presentations
        ]
        assert one.action == two.action
        assert build_semidirect(one.action) == build_semidirect(two.action)
        assert one.presentations[0] != one.presentations[1]

    FROZEN = {
        "invariants": ["free_rank", "torsion"],
        "presentation": ["name", "alphabet", "relators"],
        "action": ["acting", "acted", "images", "inverse_images"],
        "semidirect": ["combined", "rel_acted", "rel_acting", "rel_twist", "action"],
    }

    @pytest.mark.parametrize("kind", list(FROZEN))
    def test_frozen_records(self, kind):
        spec, _ = suite_action("d8")
        record = {
            "invariants": T(0, (2,)),
            "presentation": spec.acted,
            "action": spec,
            "semidirect": build_semidirect(spec),
        }[kind]
        for field in [*self.FROZEN[kind], "unlisted"]:
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    @pytest.mark.parametrize("args,message", [
        ((-1,), "negative free rank"),
        ((0, (2, 1)), "torsion entries must be >= 2"),
        ((0, (4, 2)), "torsion is not a divisor chain"),
    ])
    def test_invariants_refusals(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            T(*args)

    def test_foreign_relator_refused(self):
        with pytest.raises(ValueError, match="^relator 'y\\^2' uses a foreign alphabet$"):
            Presentation("G", self.X, (Word(self.Y, [(0, 1), (0, 1)]),))

    def test_action_refusals(self):
        acted, acting = Presentation("A", self.X), Presentation("B", self.Y)
        inside = {("x", "y"): Word(self.X, [(0, 1)])}
        outside = {("x", "y"): Word(self.Y, [(0, 1)])}
        for images, inverse, message in [
            ({}, None, "action table incomplete: no image of 'x' under 'y'"),
            (inside, {}, "inverse action table incomplete: no image of 'x' under 'y'"),
            (outside, None, "action image of 'x' under 'y' leaves the acted alphabet"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                ActionSpec(acting, acted, images, inverse)


invariants_strategy = st.builds(
    T,
    st.integers(0, 2),
    st.sampled_from([(), (2,), (4,), (6,), (2, 4), (3,), (2, 2)]),
)


def factorize(d):
    out = {}
    p = 2
    while p * p <= d:
        while d % p == 0:
            out[p] = out.get(p, 0) + 1
            d //= p
        p += 1
    if d > 1:
        out[d] = out.get(d, 0) + 1
    return out


def prime_power_merge(x, y):
    """The direct sum by primary components: split each torsion entry into
    prime powers, sort each prime's exponents, and recombine position by
    position into a divisor chain.  Trial division, so small entries only."""
    powers = {}
    for d in x.torsion + y.torsion:
        for p, e in factorize(d).items():
            powers.setdefault(p, []).append(e)
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
    return T(x.free_rank + y.free_rank, tuple(chain))


@st.composite
def divisor_chains(draw):
    """Invariants with up to three torsion entries, each a multiple of the
    one before."""
    chain = []
    d = 1
    for _ in range(draw(st.integers(0, 3))):
        d *= draw(st.integers(1 if chain else 2, 12))
        chain.append(d)
    return T(draw(st.integers(0, 2)), tuple(chain))


class TestMerge:
    @given(divisor_chains(), divisor_chains())
    @settings(max_examples=200)
    def test_matches_prime_power_merge(self, a, b):
        assert merge_invariants(a, b) == prime_power_merge(a, b)

    def test_large_prime_torsion(self):
        # Factoring 10^16 + 61 by trial division takes about 10^8 steps.
        p = 10**16 + 61
        start = time.perf_counter()
        merged = merge_invariants(T(0, (p,)), T(0, (p,)))
        assert time.perf_counter() - start < 1.0
        assert merged == T(0, (p, p))

    @given(invariants_strategy, invariants_strategy)
    @settings(max_examples=60)
    def test_commutative(self, a, b):
        assert merge_invariants(a, b) == merge_invariants(b, a)

    @given(invariants_strategy, invariants_strategy, invariants_strategy)
    @settings(max_examples=60)
    def test_associative(self, a, b, c):
        assert merge_invariants(merge_invariants(a, b), c) == merge_invariants(
            a, merge_invariants(b, c)
        )

    @given(invariants_strategy)
    @settings(max_examples=30)
    def test_unit(self, a):
        assert merge_invariants(a, T(0)) == a

    @given(invariants_strategy, invariants_strategy)
    @settings(max_examples=60)
    def test_order_multiplies(self, a, b):
        merged = merge_invariants(a, b)
        if a.order() is None or b.order() is None:
            assert merged.order() is None
        else:
            assert merged.order() == a.order() * b.order()

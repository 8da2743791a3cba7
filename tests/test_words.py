import pytest
from hypothesis import given, strategies as st

from baerkit import presentations
from baerkit.errors import ParseError
from baerkit.presentations import (
    Alphabet,
    Word,
    combine_alphabets,
    free_product_embed,
    parse_input_file,
    parse_word,
)

AB = Alphabet(["x", "y"])


def w(text):
    return parse_word(text, AB)


class TestParseWord:
    def test_identity_token(self):
        assert w("1").is_identity
        assert w("[1,x]").is_identity

    def test_parentheses_and_powers(self):
        assert w("(x y)^2") == w("x y x y")
        assert w("(x y)^-1") == w("y^-1 x^-1")
        assert w("[x,y]^2") == w("[x,y] [x,y]")

    def test_nested_commutators(self):
        assert w("[[x,y],y]") == w("[x,y]^-1 y^-1 [x,y] y")

    @pytest.mark.parametrize("bad", ["x^0", "q", "x^", "[x y]", "x )", ""])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            w(bad)

    def test_unknown_generator_names_line(self):
        with pytest.raises(ParseError, match="line 7"):
            parse_word("q", AB, line=7)

    def test_huge_exponent_refused_before_expansion(self):
        with pytest.raises(ParseError) as info:
            parse_word("x^-1000000000039", AB, line=4)
        assert str(info.value) == (
            "line 4: word would have 1000000000039 letters, more than 1000000"
        )

    @pytest.mark.parametrize("text, ok", [
        ("x^10", True), ("x^11", False), ("(x y)^-5", True), ("(x y)^6", False),
        ("[x^2 y, x^2]", True), ("[x^3 y, x^2]", False),
        ("x^5 y^5", True), ("x^6 y^5", False), ("x^5 (y x)^3", False),
    ])
    def test_length_bound_on_terms_commutators_and_words(self, monkeypatch, text, ok):
        # Every way a word grows is checked against the bound, before
        # free reduction.
        monkeypatch.setattr(presentations, "MAX_WORD_LETTERS", 10)
        if ok:
            assert len(w(text)) <= 10
        else:
            with pytest.raises(ParseError, match="more than 10$"):
                w(text)


letters_strategy = st.lists(
    st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), max_size=10
)


class TestWordArithmetic:
    def test_cancellation(self):
        assert w("x y") * w("y^-1") == w("x")

    def test_inverse_reverses_and_flips(self):
        assert w("x y").inverse() == w("y^-1 x^-1")

    def test_identity_law(self):
        assert Word(AB) * w("x y x") == w("x y x")

    def test_alphabet_mismatch(self):
        other = Alphabet(["x"])
        with pytest.raises(ValueError):
            w("x") * Word(other, ((0, 1),))

    @given(letters_strategy)
    def test_double_inverse(self, letters):
        word = Word(AB, letters)
        assert word.inverse().inverse() == word

    @given(letters_strategy)
    def test_mul_inverse_is_identity(self, letters):
        word = Word(AB, letters)
        assert (word * word.inverse()).is_identity

    @given(letters_strategy, letters_strategy)
    def test_reduction_confluent(self, a, b):
        # Reducing the concatenation equals multiplying the reductions.
        assert Word(AB, a) * Word(AB, b) == Word(AB, tuple(a) + tuple(b))

    def test_render_round_trip(self):
        word = w("x^3 y^-2 x")
        assert parse_word(word.render(), AB) == word


class TestFreeProductEmbed:
    A = Alphabet(["a1", "a2"])
    B = Alphabet(["b"])
    C = combine_alphabets(A, B)

    def test_embedding_is_injective_renaming(self):
        assert self.C.names == ("a1", "a2", "b")
        word = Word(self.A, ((0, 1), (0, 1)))
        out = free_product_embed(word, 0, self.C)
        assert out.letters == ((0, 1), (0, 1))
        bword = Word(self.B, ((0, -1),))
        assert free_product_embed(bword, 2, self.C).render() == "b^-1"

    def test_identity_embeds(self):
        assert free_product_embed(Word(self.A), 0, self.C).is_identity

    def test_homomorphism(self):
        u = Word(self.A, ((0, 1), (1, -1)))
        v = Word(self.A, ((1, 1), (0, 1)))
        eu = free_product_embed(u, 0, self.C)
        ev = free_product_embed(v, 0, self.C)
        assert eu * ev == free_product_embed(u * v, 0, self.C)

    def test_out_of_range_refused(self):
        # An acted word shifted as if it were acting runs past the end.
        word = Word(self.A, ((0, 1),))
        with pytest.raises(ValueError, match="run past"):
            free_product_embed(word, len(self.A), self.C)

    def test_name_collision_rejected(self):
        with pytest.raises(ValueError):
            combine_alphabets(Alphabet(["a"]), Alphabet(["a"]))


D8_FILE = """\
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


class TestInputFile:
    def test_d8_file(self):
        parsed = parse_input_file(D8_FILE)
        z4, z2 = parsed.presentations
        assert z4.alphabet.names == ("a",)
        assert [r.render() for r in z4.relators] == ["a^4"]
        assert [r.render() for r in z2.relators] == ["b^2"]
        act = parsed.action
        assert act.acting is z2 and act.acted is z4
        assert act.image("a", "b").render() == "a^-1"
        assert act.inverse_images is None

    def test_group_only(self):
        parsed = parse_input_file("group G\n  gen x y\n  rel [x,y]\nend\n")
        assert parsed.action is None
        assert parsed.presentations[0].rank == 2

    def test_relator_list_may_be_empty(self):
        parsed = parse_input_file("group F\n  gen x\nend\n")
        assert parsed.presentations[0].relators == ()

    def test_comma_separated_relators(self):
        parsed = parse_input_file("group G\n  gen x y\n  rel x^2, [x,y], y^2\nend\n")
        assert len(parsed.presentations[0].relators) == 3

    def test_incomplete_action_table(self):
        broken = D8_FILE.replace("  b : a -> a^-1\n", "")
        with pytest.raises(ParseError, match="action table incomplete"):
            parse_input_file(broken)

    def test_duplicate_generator(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_input_file("group G\n  gen x x\nend\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_input_file("group G\n  gen x\n  rel q\nend\n")

    Z2 = "group Z2\n  gen b\n  rel b^2\nend\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("group\n", "line 1: usage: group <name>"),
            (Z2 + "group Z2\n  gen c\nend\n", "line 5: duplicate group name 'Z2'"),
            ("# c\n\nfoo bar\n", "line 3: unexpected 'foo' at top level"),
            ("group G\n  gen x\n", "line 1: group block is missing its end"),
            (
                D8_FILE.replace("  b : a -> a^-1\nend\n", "  b : a -> a^-1\n"),
                "line 9: action block is missing its end",
            ),
            ("group G\n  gen  # none\nend\n", "line 2: gen line lists no generators"),
            ("group G\n  gen x\n  rel\nend\n", "line 3: rel line lists no relators"),
            ("\ngroup G\n  rel 1\nend\n", "line 2: group 'G' declares no generators"),
            ("group G\n  gen x\n  foo x\nend\n", "line 3: unexpected 'foo' in group block"),
            ("group G\n  gen x\n  gen 1x\nend\n", "line 3: invalid generator name '1x'"),
            (Z2 + "action Z2 of Z2\nend\n", "line 5: usage: action <acting> on <acted>"),
            (Z2 + "action Z2 on Z4\nend\n", "line 5: unknown group 'Z4'"),
            (Z2 + "action Z3 on Z2\nend\n", "line 5: unknown group 'Z3'"),
            (D8_FILE + "action Z2 on Z4\nend\n", "line 12: more than one action block"),
            (
                D8_FILE.replace("b : a -> a^-1", "b a -> a^-1"),
                "line 10: expected '<b> : <a> -> <word>'",
            ),
            (
                D8_FILE.replace("b : a -> a^-1", "c : a -> a^-1"),
                "line 10: 'c' is not a generator of Z2",
            ),
            (
                D8_FILE.replace("b : a -> a^-1", "b : c -> a^-1"),
                "line 10: 'c' is not a generator of Z4",
            ),
            (
                D8_FILE.replace("b : a -> a^-1", "b : a -> b"),
                "line 10: unknown generator 'b'",
            ),
            (
                D8_FILE.replace("  b : a -> a^-1\n", "  b : a -> a^-1\n  b : a -> a\n"),
                "line 11: duplicate image row for (a, b)",
            ),
            ("# nothing\n\n", "line 1: input declares no group"),
        ],
    )
    def test_error_text_and_line(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_input_file(text)
        assert str(info.value) == message

    def test_inverse_rows_parsed(self):
        text = D8_FILE.replace(
            "  b : a -> a^-1\n", "  b : a -> a^-1\n  inverse b : a -> a^-1\n"
        )
        act = parse_input_file(text).action
        assert act.image("a", "b", inverse=True).render() == "a^-1"

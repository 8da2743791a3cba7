"""Words, presentations, action tables, and their file format.

File grammar (line oriented, UTF-8, `#` starts a comment):

    group <name>
      gen <ident> [<ident> ...]
      rel <word> [, <word> ...]
    end
    action <acting-name> on <acted-name>
      <b-ident> : <a-ident> -> <word over the acted alphabet>
      [inverse <b-ident> : <a-ident> -> <word>]
    end

Word grammar:

    word := term+
    term := atom ('^' nonzero-integer)?
    atom := ident | '(' word ')' | '[' word ',' word ']' | '1'

`[u,v]` expands to u^-1 v^-1 u v.  Because a single word may contain
spaces, several relators on one `rel` line are separated by commas at
bracket depth zero.  Exponent 0 is rejected.  Generator names are
case-sensitive identifiers (letter first, then letters/digits/underscore).
Words are stored letter by letter, so a term, commutator or word that would
expand to more than `MAX_WORD_LETTERS` letters (counted before free
reduction) is refused with a `ParseError` before it is built.

Free products: `combine_alphabets` puts the acted factor's letters first
and the acting factor's after them, so acting letter j has index
rank(acted) + j.  That offset is the only record of which factor a combined
letter came from.  `free_product_embed` shifts a factor's word by it (0 for
the acted factor), and `magnus.reindex_element` and `subgroups.embedded_copy`
shift series and subgroups by the same offset.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .errors import ParseError

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# Far above the exponents of real inputs, which are in the thousands.
MAX_WORD_LETTERS = 1_000_000


class Alphabet:
    """Ordered tuple of generator names: identifiers, no two alike."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        self.names = tuple(names)
        self._index = {}
        for i, name in enumerate(self.names):
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"invalid generator name {name!r}")
            if name in self._index:
                raise ValueError(f"duplicate generator name {name!r}")
            self._index[name] = i

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __contains__(self, name: str):
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def __repr__(self):
        return f"Alphabet({list(self.names)})"


def _reduce(letters):
    stack = []
    for g, s in letters:
        if stack and stack[-1][0] == g and stack[-1][1] == -s:
            stack.pop()
        else:
            stack.append((g, s))
    return tuple(stack)


class Word:
    """Freely reduced word over an alphabet: (generator index, sign) pairs."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters=()):
        self.alphabet = alphabet
        self.letters = _reduce(tuple(letters))

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.alphabet == other.alphabet and self.letters == other.letters

    def __hash__(self):
        return hash((self.alphabet.names, self.letters))

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        return Word(self.alphabet, self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(self.alphabet, tuple((g, -s) for g, s in reversed(self.letters)))

    def __pow__(self, e: int) -> "Word":
        if e < 0:
            return self.inverse() ** (-e)
        return Word(self.alphabet, self.letters * e)

    def commutator(self, other: "Word") -> "Word":
        return self.inverse() * other.inverse() * self * other

    def syllables(self) -> list[tuple[int, int]]:
        out = []
        for g, s in self.letters:
            if out and out[-1][0] == g:
                out[-1][1] += s
            else:
                out.append([g, s])
        return [(g, e) for g, e in out if e]

    def render(self) -> str:
        if not self.letters:
            return "1"
        names = self.alphabet.names
        parts = []
        for g, e in self.syllables():
            parts.append(names[g] if e == 1 else f"{names[g]}^{e}")
        return " ".join(parts)

    def __repr__(self):
        return f"<word {self.render()}>"


class Presentation(namedtuple("Presentation", "name alphabet relators")):
    """Named generating alphabet plus relator words over it; immutable."""

    __slots__ = ()

    def __new__(cls, name: str, alphabet: Alphabet, relators: tuple[Word, ...] = ()):
        for r in relators:
            if r.alphabet != alphabet:
                raise ValueError(f"relator {r.render()!r} uses a foreign alphabet")
        return super().__new__(cls, name, alphabet, relators)

    @property
    def rank(self) -> int:
        return len(self.alphabet)


class ActionSpec(
    namedtuple("ActionSpec", "acting acted images inverse_images")
):
    """A total table of images w[a,b] (words over the acted alphabet) and an
    optional matching table for the inverse action of each acting letter;
    immutable."""

    __slots__ = ()

    def __new__(
        cls,
        acting: Presentation,
        acted: Presentation,
        images: dict,
        inverse_images: dict | None = None,
    ):
        self = super().__new__(cls, acting, acted, images, inverse_images)
        self._check_table(images, "action")
        if inverse_images is not None:
            self._check_table(inverse_images, "inverse action")
        return self

    def _check_table(self, table, label):
        for a in self.acted.alphabet.names:
            for b in self.acting.alphabet.names:
                w = table.get((a, b))
                if w is None:
                    raise ValueError(
                        f"{label} table incomplete: no image of {a!r} under {b!r}"
                    )
                if w.alphabet != self.acted.alphabet:
                    raise ValueError(
                        f"{label} image of {a!r} under {b!r} leaves the acted alphabet"
                    )

    def image(self, a_name: str, b_name: str, inverse=False) -> Word:
        table = self.inverse_images if inverse else self.images
        if table is None:
            raise KeyError("no inverse table supplied")
        return table[(a_name, b_name)]


# --- word parsing -----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<int>-?\d+)|(?P<sym>[\^()\[\],]))"
)


def _tokenize_word(text: str, line=None):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"cannot read word near {rest[:12]!r}", line)
        if m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident")))
        elif m.lastgroup == "int":
            tokens.append(("int", int(m.group("int"))))
        else:
            tokens.append(("sym", m.group("sym")))
        pos = m.end()
    return tokens


class _WordParser:
    def __init__(self, tokens, alphabet: Alphabet, line=None):
        self.tokens = tokens
        self.pos = 0
        self.alphabet = alphabet
        self.line = line

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of word", self.line)
        self.pos += 1
        return tok

    def expect(self, sym):
        tok = self.take()
        if tok != ("sym", sym):
            raise ParseError(f"expected {sym!r}", self.line)

    def check_length(self, letters: int):
        if letters > MAX_WORD_LETTERS:
            raise ParseError(
                f"word would have {letters} letters, more than {MAX_WORD_LETTERS}",
                self.line,
            )

    def parse_word(self, stop_syms=()) -> Word:
        out = Word(self.alphabet)
        got_term = False
        while True:
            tok = self.peek()
            if tok is None or (tok[0] == "sym" and tok[1] in stop_syms):
                break
            term = self.parse_term()
            self.check_length(len(out) + len(term))
            out = out * term
            got_term = True
        if not got_term:
            raise ParseError("empty word", self.line)
        return out

    def parse_term(self) -> Word:
        atom = self.parse_atom()
        tok = self.peek()
        if tok == ("sym", "^"):
            self.take()
            etok = self.take()
            if etok[0] != "int":
                raise ParseError("exponent must be an integer", self.line)
            if etok[1] == 0:
                raise ParseError("zero exponent is not allowed", self.line)
            self.check_length(len(atom) * abs(etok[1]))
            return atom ** etok[1]
        return atom

    def parse_atom(self) -> Word:
        tok = self.take()
        if tok[0] == "ident":
            try:
                idx = self.alphabet.index(tok[1])
            except KeyError:
                raise ParseError(f"unknown generator {tok[1]!r}", self.line) from None
            return Word(self.alphabet, ((idx, 1),))
        if tok == ("int", 1):
            return Word(self.alphabet)
        if tok == ("sym", "("):
            w = self.parse_word(stop_syms=(")",))
            self.expect(")")
            return w
        if tok == ("sym", "["):
            u = self.parse_word(stop_syms=(",",))
            self.expect(",")
            v = self.parse_word(stop_syms=("]",))
            self.expect("]")
            self.check_length(2 * (len(u) + len(v)))
            return u.commutator(v)
        raise ParseError(f"unexpected token {tok[1]!r} in word", self.line)


def parse_word(text: str, alphabet: Alphabet, line=None) -> Word:
    """Parse one word; `1` is the identity, `[u,v]` the commutator."""
    parser = _WordParser(_tokenize_word(text, line), alphabet, line)
    word = parser.parse_word()
    if parser.peek() is not None:
        raise ParseError("trailing input after word", line)
    return word


def _split_top_level(text: str, line=None) -> list[str]:
    """Split on commas outside () and [] so one line can carry many words."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced brackets", line)
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p for p in (s.strip() for s in parts) if p]


# --- presentation file parsing ----------------------------------------------

_ROW_RE = re.compile(
    r"^(?P<inv>inverse\s+)?(?P<b>\S+)\s*:\s*(?P<a>\S+)\s*->\s*(?P<w>.+)$"
)


class ParsedInput(
    namedtuple("ParsedInput", "presentations action", defaults=(None,))
):
    __slots__ = ()
    presentations: list[Presentation]
    action: ActionSpec | None


def parse_input_file(text: str) -> ParsedInput:
    """Parse a presentation file into presentations and an optional action."""
    stripped = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    lines = ((no, line) for no, line in enumerate(stripped, 1) if line)

    def block(kind: str, header_no: int):
        """The (line number, text) pairs of one block, up to its `end`."""
        for no, line in lines:
            if line == "end":
                return
            yield no, line
        raise ParseError(f"{kind} block is missing its end", header_no)

    groups: dict[str, Presentation] = {}
    action: ActionSpec | None = None
    for lineno, line in lines:
        head = line.split()
        if head[0] == "group":
            if len(head) != 2:
                raise ParseError("usage: group <name>", lineno)
            name = head[1]
            if name in groups:
                raise ParseError(f"duplicate group name {name!r}", lineno)
            alphabet = Alphabet(())
            rel_specs: list[tuple[str, int]] = []
            for no, sub in block("group", lineno):
                parts = sub.split(None, 1)
                if parts[0] == "gen":
                    if len(parts) < 2:
                        raise ParseError("gen line lists no generators", no)
                    try:
                        alphabet = Alphabet((*alphabet.names, *parts[1].split()))
                    except ValueError as exc:
                        raise ParseError(str(exc), no) from None
                elif parts[0] == "rel":
                    if len(parts) < 2:
                        raise ParseError("rel line lists no relators", no)
                    rel_specs.append((parts[1], no))
                else:
                    raise ParseError(f"unexpected {parts[0]!r} in group block", no)
            if not alphabet:
                raise ParseError(f"group {name!r} declares no generators", lineno)
            relators = tuple(
                parse_word(chunk, alphabet, no)
                for spec, no in rel_specs
                for chunk in _split_top_level(spec, no)
            )
            groups[name] = Presentation(name, alphabet, relators)
        elif head[0] == "action":
            if len(head) != 4 or head[2] != "on":
                raise ParseError("usage: action <acting> on <acted>", lineno)
            if action is not None:
                raise ParseError("more than one action block", lineno)
            acting_name, acted_name = head[1], head[3]
            for name in (acting_name, acted_name):
                if name not in groups:
                    raise ParseError(f"unknown group {name!r}", lineno)
            acting, acted = groups[acting_name], groups[acted_name]
            # The combined alphabet of a semidirect product needs the two
            # factors' names disjoint.
            shared = [g for g in acting.alphabet.names if g in acted.alphabet]
            if shared and acting is not acted:
                raise ParseError(
                    f"groups {acting_name!r} and {acted_name!r} share "
                    f"generator {shared[0]!r}",
                    lineno,
                )
            images: dict = {}
            inverse_images: dict = {}
            for no, sub in block("action", lineno):
                m = _ROW_RE.match(sub)
                if not m:
                    raise ParseError("expected '<b> : <a> -> <word>'", no)
                b, a = m.group("b"), m.group("a")
                if b not in acting.alphabet:
                    raise ParseError(f"{b!r} is not a generator of {acting_name}", no)
                if a not in acted.alphabet:
                    raise ParseError(f"{a!r} is not a generator of {acted_name}", no)
                word = parse_word(m.group("w"), acted.alphabet, no)
                table = inverse_images if m.group("inv") else images
                if (a, b) in table:
                    raise ParseError(f"duplicate image row for ({a}, {b})", no)
                table[(a, b)] = word
            try:
                action = ActionSpec(acting, acted, images, inverse_images or None)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
        else:
            raise ParseError(f"unexpected {head[0]!r} at top level", lineno)

    if not groups:
        raise ParseError("input declares no group", 1)
    return ParsedInput(list(groups.values()), action)


# --- free products -----------------------------------------------------------

def combine_alphabets(acted: Alphabet, acting: Alphabet) -> Alphabet:
    """The acted names followed by the acting names; a name both factors
    use is a ValueError."""
    return Alphabet(acted.names + acting.names)


def free_product_embed(word: Word, offset: int, combined: Alphabet) -> Word:
    """A free factor's word over the combined alphabet: every letter moves up
    by `offset`, 0 for the acted factor and the acted rank for the acting
    one.
    The word-level twin of `magnus.reindex_element`."""
    if offset + len(word.alphabet) > len(combined):
        raise ValueError(
            f"{len(word.alphabet)} letters shifted by {offset} run past the "
            f"{len(combined)}-letter combined alphabet"
        )
    return Word(combined, tuple((g + offset, s) for g, s in word.letters))

"""Layer timing from outside the program.

`install()` wraps the public functions and methods of each `baerkit`
layer.  Module-level functions are replaced in every `baerkit` module that
holds them, because `baer`, `semidirect` and `cli` import them by name.
Every wrapped call is a span: its inclusive time counts once per outermost
call of that name, and its self time is its duration minus the time of the
traced spans it contains.  Spans of the coarse layers (closure and above)
are also kept as records (name, start, end, parent) for the trace file.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# Names whose spans are frequent enough that keeping one record per call
# would cost more memory than the job itself.
_HOT = {
    "magnus.mul", "magnus.pow", "magnus.inverse", "magnus.commutator",
    "magnus.conjugate", "words.element_of_word", "lyndon.coordinates",
    "subgroups.sieve", "subgroups.containment", "baer.verify_class_bound",
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: dict[str, int] = {}
        self._stack: list[list] = []  # [start, child time, record index]

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def is_open(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def wrap(self, name: str, fn, before=None, after=None):
        """A wrapper timing `fn` as span `name`.  `before(args, kwargs)`
        and `after(result)` may add operation counts."""
        keep = name not in _HOT
        stack, opened = self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            record = -1
            if keep:
                parent = next((f[2] for f in reversed(stack) if f[2] >= 0), -1)
                record = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent])
            opened[name] = opened.get(name, 0) + 1
            frame = [perf_counter(), 0.0, record]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                depth = opened[name]
                opened[name] = depth - 1
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_time[name] = self.self_time.get(name, 0.0) + duration - frame[1]
                if depth == 1:
                    self.incl[name] = self.incl.get(name, 0.0) + duration
                if keep:
                    self.spans[record][1:3] = [frame[0], end]
            if after is not None:
                after(result)
            return result

        return wrapper


def _patch_function(tracer: Tracer, module, attr: str, name: str, **hooks):
    """Replace the function in every loaded baerkit module that holds it."""
    original = getattr(module, attr)
    wrapper = tracer.wrap(name, original, **hooks)
    for mod in list(sys.modules.values()):
        mod_name = getattr(mod, "__name__", "")
        if mod_name != "baerkit" and not mod_name.startswith("baerkit."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _patch_method(tracer: Tracer, cls, attr: str, name: str, **hooks):
    setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), **hooks))


def install(tracer: Tracer):
    import baerkit.cli  # noqa: F401  (loaded first: its by-name imports get patched)
    from baerkit import (
        baer, intlinalg, lyndon, magnus, presentations, semidirect, subgroups,
    )

    t = tracer

    def mul_pairs(args, _kw):
        t.count("magnus.mul.term_pairs", len(args[0].terms) * len(args[1].terms))

    def pow_exponent(args, _kw):
        t.count("magnus.pow.exp_bits", abs(args[1]).bit_length())

    def word_letters(args, _kw):
        t.count("words.element_of_word.letters", len(args[-1].letters))

    def sieve_outcome(result):
        t.count("subgroups.sieve.members", result.member)
        if t.is_open("subgroups.closure"):
            t.count("subgroups.closure.sieves")
            t.count("subgroups.closure.nonmember_sieves", not result.member)

    def stored_rows(result):
        t.count("subgroups.closure.stored_rows",
                sum(len(level.rows) for level in result.levels))

    def matrix_cells(args, kwargs):
        gens, relations = args
        rows = relations.rows if isinstance(relations, intlinalg.IntMatrix) else len(relations)
        t.count("intlinalg.abelian_invariants.cells", gens * rows)

    _patch_method(t, magnus.TruncatedSeries, "__mul__", "magnus.mul", before=mul_pairs)
    _patch_method(t, magnus.GroupElement, "__pow__", "magnus.pow", before=pow_exponent)
    _patch_method(t, magnus.GroupElement, "inverse", "magnus.inverse")
    _patch_method(t, magnus.GroupElement, "commutator", "magnus.commutator")
    _patch_method(t, magnus.GroupElement, "conjugate", "magnus.conjugate")
    _patch_method(t, subgroups.AmbientContext, "element_of_word",
                  "words.element_of_word", before=word_letters)
    _patch_function(t, magnus, "series_of_word", "words.element_of_word",
                    before=word_letters)
    _patch_method(t, lyndon.LyndonBasis, "coordinates", "lyndon.coordinates")
    _patch_method(t, subgroups.FilteredSubgroup, "sieve", "subgroups.sieve",
                  after=sieve_outcome)
    for attr in ("contains_all", "equal_as_subgroup"):
        _patch_method(t, subgroups.FilteredSubgroup, attr, "subgroups.containment")

    _patch_function(t, subgroups, "insert_and_close", "subgroups.closure", after=stored_rows)
    _patch_function(t, subgroups, "commutator_with", "subgroups.commutator_with")
    _patch_function(t, subgroups, "join", "subgroups.join")
    _patch_function(t, subgroups, "quotient_invariants", "subgroups.quotient_invariants")
    _patch_function(t, intlinalg, "abelian_invariants", "intlinalg.abelian_invariants",
                    before=matrix_cells)
    _patch_function(t, baer, "verify_class_bound", "baer.verify_class_bound")
    _patch_function(t, baer, "detect_class", "baer.class_bound")
    _patch_function(t, baer, "certified_class_bound", "baer.class_bound")
    _patch_function(t, baer, "baer_invariant", "baer.invariant")
    _patch_function(t, semidirect, "validate_action", "semidirect.validate_action")
    _patch_function(t, semidirect, "materialize_subgroups", "semidirect.materialize")
    _patch_function(t, semidirect, "verify_subgroup_decomposition", "semidirect.checks")
    _patch_function(t, semidirect, "complement_factor", "semidirect.complement")
    _patch_function(t, presentations, "parse_input_file", "presentations.parse")
    # Inside verify_direct_factor these two compute only the acting factor's
    # invariant, so the semidirect module's own bindings get one more span.
    for attr in ("resolve_acting_class_bound", "baer_invariant"):
        setattr(semidirect, attr,
                t.wrap("semidirect.acting_invariant", getattr(semidirect, attr)))

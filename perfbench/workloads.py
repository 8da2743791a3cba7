"""Fixed job sets, seeded input text and the answer key.

A job is one `baerkit` invocation on one generated `.grp` text.  The seed
renames every generator and shuffles action-row order and, except on jobs
that keep it, relator order; the group is the same on every seed, so the
expected answer is too, and the program only ever sees the generated text.

Expected answers come from outside the engine: the Witt-dimension formula
(written here, not imported from `baerkit.lyndon`) for elementary abelian
groups, and pinned values for the dihedral rungs and D8 x Z2 that
`selfcheck.py` re-derives by running at class bound k + 1.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass


def mobius(d: int) -> int:
    out = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            out = -out
        p += 1
    return -out if d > 1 else out


def witt(k: int, m: int) -> int:
    """Rank of the degree-m part of the free Lie ring on k letters."""
    return sum(mobius(d) * k ** (m // d) for d in range(1, m + 1) if m % d == 0) // m


def abelian_answer(n: int, k: int, c: int) -> tuple[int, ...]:
    """M^(c)(Z_n^k) = Z_n^w(k, c+1) (Burns and Ellis, Math. Z. 226, 1997)."""
    return (n,) * witt(k, c + 1)


@dataclass(frozen=True)
class Group:
    """A group block: structural generator names and relator templates
    written over those names."""

    name: str
    gens: tuple[str, ...]
    rels: tuple[str, ...]


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  `action` rows are (acting gen, acted gen, image
    template, is_inverse_row); `torsion` is the expected multiplier for a
    `multiplier` job and None for a `semidirect --verify` job.  A job with
    `keep_order` keeps its relators in the written order instead of a
    seeded one."""

    name: str
    command: str
    groups: tuple[Group, ...]
    c: int
    torsion: tuple[int, ...] | None = None
    action: tuple[tuple[str, str, str, bool], ...] = ()
    class_bound: int | None = None
    keep_order: bool = False

    def argv(self, path: str) -> list[str]:
        out = [self.command, "--file", path, "--class-c", str(self.c)]
        if self.class_bound is not None:
            out += ["--class-bound", str(self.class_bound)]
        if self.command == "semidirect":
            out.append("--verify")
        return out + ["--format", "machine"]


def dihedral(order: int) -> Group:
    return Group(f"D{order}", ("a", "b"), (f"a^{order // 2}", "b^2", "b^-1 a b a"))


def elementary(n: int, k: int) -> Group:
    gens = ("x", "y", "z", "w")[:k]
    rels = tuple(f"{g}^{n}" for g in gens)
    rels += tuple(f"[{u},{v}]" for i, u in enumerate(gens) for v in gens[i + 1:])
    return Group(f"Z{n}_{k}", gens, rels)


D8_X_Z2 = Group(
    "D8xZ2", ("a", "b", "z"), ("a^4", "b^2", "b^-1 a b a", "z^2", "[a,z]", "[b,z]")
)


def multiplier(group: Group, c: int, torsion, keep_order=False) -> Job:
    return Job(f"{group.name}.c{c}", "multiplier", (group,), c, tuple(torsion),
               keep_order=keep_order)


def semidirect(name, acted, acting, rows, c, class_bound=None) -> Job:
    return Job(f"{name}.c{c}", "semidirect", (acted, acting), c, None,
               tuple(rows), class_bound)


def cyclic(name: str, gen: str, n: int | None) -> Group:
    return Group(name, (gen,), (f"{gen}^{n}",) if n else ())


# The five action files of the repository's example suite, restated here so
# that the benchmark does not move when those examples are edited.
_SUITE = {
    "d8": (cyclic("Z4", "a", 4), cyclic("Z2", "b", 2), [("b", "a", "a^-1", False)]),
    "klein_trivial": (cyclic("A", "a", 2), cyclic("B", "b", 2), [("b", "a", "a", False)]),
    "z2_on_z2sq": (
        Group("A", ("a1", "a2"), ("a1^2", "a2^2", "[a1,a2]")),
        cyclic("B", "b", 2),
        [("b", "a1", "a1", False), ("b", "a2", "a2", False)],
    ),
    "z4_by_z4": (
        cyclic("A", "a", 4), cyclic("B", "b", 4),
        [("b", "a", "a^-1", False), ("b", "a", "a^-1", True)],
    ),
    "zz_trivial": (
        cyclic("A", "a", None), cyclic("B", "b", None),
        [("b", "a", "a", False), ("b", "a", "a", True)],
    ),
}


def _suite(name: str, c: int) -> Job:
    acted, acting, rows = _SUITE[name]
    # Z x Z is infinite: class detection cannot certify it, so the bound is
    # supplied, as its example file says.
    bound = 1 if name == "zz_trivial" else None
    return semidirect(name, acted, acting, rows, c, bound)


# Pinned answers; selfcheck.py re-derives each at class bound k + 1.
WORKLOADS: dict[str, tuple[Job, ...]] = {
    # Two generators, long series and relators like a^32: the element layer
    # (Magnus products and powers) dominates; membership is a few percent.
    # The closure's cost here depends on relator order (D64 c=1 does 4.5
    # times the Magnus work in its worst order as in its best), so the
    # relators keep the order in which the group is written and the seed
    # only renames generators: a seeded order would let the seed, not the
    # code, set the figure.
    "dihedral-deep": (
        multiplier(dihedral(16), 2, (2, 4), keep_order=True),
        multiplier(dihedral(16), 3, (2, 2, 8), keep_order=True),
        multiplier(dihedral(32), 1, (2,), keep_order=True),
        multiplier(dihedral(32), 2, (2, 4), keep_order=True),
        multiplier(dihedral(64), 1, (2,), keep_order=True),
    ),
    # Rank 3-4 at low cap: wide lattices, so the closure's sieving and Lyndon
    # coordinates carry a larger share of the time than on dihedral-deep.
    "abelian-wide": (
        multiplier(elementary(2, 3), 3, abelian_answer(2, 3, 3)),
        multiplier(elementary(3, 3), 3, abelian_answer(3, 3, 3)),
        multiplier(elementary(2, 4), 2, abelian_answer(2, 4, 2)),
        multiplier(elementary(2, 4), 3, abelian_answer(2, 4, 3)),
        multiplier(elementary(4, 2), 3, abelian_answer(4, 2, 3)),
        multiplier(D8_X_Z2, 2, (2, 2, 2, 2, 2, 2, 2, 4)),
    ),
    # About forty closures per job plus the read-side containment queries
    # of the decomposition checks and the action validation.
    "semidirect-verify": tuple(
        _suite(name, c) for c in (1, 2) for name in _SUITE
    ) + (
        semidirect("z8_inv", cyclic("A", "a", 8), cyclic("B", "b", 2),
                   [("b", "a", "a^-1", False), ("b", "a", "a^-1", True)], 2),
        semidirect("z8_cube", cyclic("A", "a", 8), cyclic("B", "b", 2),
                   [("b", "a", "a^3", False)], 2),
        _suite("d8", 3),
        _suite("z4_by_z4", 3),
    ),
}

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _fresh_names(rng: random.Random, count: int) -> list[str]:
    pool = [f"{x}{d}" for x in _LETTERS for d in ("", "1", "2", "3")]
    return rng.sample(pool, count)


def render(job: Job, rng: random.Random) -> str:
    """The job's `.grp` text: generators renamed, and relators (unless the
    job keeps their order) and action rows shuffled.  Generator order within
    a block is kept, so every seed presents the group on the same letter
    indices."""
    structural = [g for group in job.groups for g in group.gens]
    rename = dict(zip(structural, _fresh_names(rng, len(structural))))

    def word(template: str) -> str:
        return _NAME_RE.sub(lambda m: rename[m.group(0)], template)

    lines = []
    for group in job.groups:
        rels = list(group.rels)
        if not job.keep_order:
            rng.shuffle(rels)
        lines += [f"group {group.name}", "  gen " + " ".join(rename[g] for g in group.gens)]
        if rels:
            lines.append("  rel " + ", ".join(word(r) for r in rels))
        lines.append("end")
    if job.action:
        acted, acting = job.groups
        rows = list(job.action)
        rng.shuffle(rows)
        lines.append(f"action {acting.name} on {acted.name}")
        for b, a, image, inverse in rows:
            prefix = "inverse " if inverse else ""
            lines.append(f"  {prefix}{rename[b]} : {rename[a]} -> {word(image)}")
        lines.append("end")
    return "\n".join(lines) + "\n"


def check_output(job: Job, output: str) -> str | None:
    """None when the machine-format output is the right answer, else why not."""
    fields = dict(
        line.split("=", 1) for line in output.splitlines() if "=" in line
    )
    if job.command == "multiplier":
        want = ",".join(map(str, job.torsion))
        got = (fields.get("free_rank"), fields.get("torsion"))
        return None if got == ("0", want) else f"got {got}, want ('0', {want!r})"
    checks = {k: v for k, v in fields.items() if k.startswith("check_")}
    if fields.get("verdict") != "pass":
        return f"verdict={fields.get('verdict')}"
    if len(checks) < 7 or any(v != "pass" for v in checks.values()):
        return f"checks {checks}"
    return None

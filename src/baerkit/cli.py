"""Command-line front end: argv read from one option table, output printed
through one text-or-machine renderer (`out` in `main`)."""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace

from .baer import (
    ClassBoundResult,
    baer_invariant,
    certified_class_bound,
    detect_class,
    verify_class_bound,
)
from .errors import (
    ActionError,
    CapacityError,
    CertificateError,
    ClassUndeterminedError,
    ParseError,
)
from .lyndon import bracket_shape, lyndon_words, witt_dimension
from .presentations import parse_input_file
from .semidirect import build_semidirect, validate_action, verify_direct_factor
from .subgroups import DEFAULT_MONOMIAL_BUDGET, monomials_over_budget

# --help prints it and usage errors quote a command's synopsis from it; it
# is not the module docstring, which python -OO drops.
USAGE = """usage: baerkit COMMAND [OPTIONS]
    multiplier --file F [--class-c C] [--class-bound K] [--kmax N] [--format FMT]
    semidirect --file F [--verify] [--class-c C] [--class-bound K] [--kmax N] [--format FMT]
    lyndon     --letters N --weight M [--format FMT]
    selftest   [--format FMT]

Options go in any order, as --name value or --name=value; a unique prefix
of a name selects its option, and a repeated option keeps its last value.
    --file F         presentation file (required)
    --class-c C      the variety parameter c (default 1)
    --class-bound K  class bound to certify (default: detected; infinite
                     groups need one)
    --kmax N         largest class bound that detection tries (default 6)
    --verify         also verify the direct-factor decomposition (default off)
    --letters N      number of letters (required)
    --weight M       weight of the Lyndon words listed (required)
    --format FMT     text or machine (default text)
    -h, --help       print this text

Exit codes: 0 ok/pass, 1 a verdict failed, 2 parse error, 3 class
undetermined, 4 capacity guard, 5 action invalid.  The environment variable
BAERKIT_CAP_GUARD overrides the monomial budget.
"""

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_PARSE = 2
EXIT_CLASS = 3
EXIT_CAPACITY = 4
EXIT_ACTION = 5


def _positive(value: str) -> int:
    n = int(value)
    if n < 1:
        raise ValueError("must be >= 1")
    return n


def _choice(value: str, choices=("text", "machine")) -> str:
    if value not in choices:
        listed = ", ".join(map(repr, choices))
        raise ValueError(f"invalid choice: {value!r} (choose from {listed})")
    return value


def _cap_guard() -> int:
    """The monomial budget: BAERKIT_CAP_GUARD when set, else the default."""
    raw = os.environ.get("BAERKIT_CAP_GUARD", str(DEFAULT_MONOMIAL_BUDGET))
    try:
        guard = int(raw)
    except ValueError:
        raise ValueError(
            f"BAERKIT_CAP_GUARD must be an integer, got {raw!r}"
        ) from None
    if guard < 1:
        # argv refuses c and kmax below 1; the message stays as it was.
        raise ValueError("c, kmax, and the cap guard must be >= 1")
    return guard


def _read_input(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from None
    return parse_input_file(text)


def _resolve_bound(pres, args, guard: int, out) -> ClassBoundResult:
    """The class-bound certificate; its closure is reused downstream."""
    if args.class_bound is not None:
        res = verify_class_bound(pres, args.class_bound, guard)
        if not res.ok:
            raise CertificateError(
                f"--class-bound {args.class_bound} fails verification for "
                f"{pres.name!r} (lattice deficient at degree {res.k + 1})"
            )
        out(f"class-bound: k={args.class_bound} (supplied, certified)")
        return res
    res = detect_class(pres, args.k_max, guard)
    if res is None:
        raise ClassUndeterminedError(
            f"could not determine a class bound for {pres.name!r} with "
            f"kmax={args.k_max}; supply --class-bound explicitly "
            f"(required for infinite groups)"
        )
    out(f"class-bound: k={res.k} (detected)")
    return res


def _invariant_lines(prefix: str, inv) -> tuple[str, str]:
    """The machine lines of an abelian invariant: free rank and torsion."""
    return (
        f"{prefix}free_rank={inv.free_rank}",
        f"{prefix}torsion={','.join(map(str, inv.torsion))}",
    )


def cmd_multiplier(args, guard: int, out) -> int:
    parsed = _read_input(args.file)
    if len(parsed.presentations) != 1 or parsed.action is not None:
        raise ParseError("multiplier expects exactly one group block")
    pres = parsed.presentations[0]
    out(f"group {pres.name}: {pres.rank} generators, {len(pres.relators)} relators")
    cert = _resolve_bound(pres, args, guard, out)
    k = cert.k
    out(f"cap: {k + args.c}")
    inv = baer_invariant(cert, args.c)
    out(
        f"invariants: {inv.describe()}", "command=multiplier", f"group={pres.name}",
        f"class_c={args.c}", f"class_bound={k}", *_invariant_lines("", inv),
    )
    return EXIT_OK


def cmd_semidirect(args, guard: int, out) -> int:
    parsed = _read_input(args.file)
    spec = parsed.action
    if len(parsed.presentations) != 2 or spec is None or spec.acting is spec.acted:
        raise ParseError("semidirect expects two group blocks and one action block")

    acted = certified_class_bound(spec.acted, args.k_max, guard)
    if acted is None:
        raise ClassUndeterminedError(
            f"cannot certify a class bound for the acted group "
            f"{spec.acted.name!r}; it must be nilpotent"
        )
    problems = validate_action(spec, acted)
    if problems:
        raise ActionError(problems)
    out(f"action: certified on {spec.acted.name!r} at class bound {acted.k}")

    sp = build_semidirect(spec)
    names = sp.combined.alphabet.names
    group = sp.combined.name
    out(f"combined group {group}:", "command=semidirect", f"group={group}")
    out(f"  generators: {' '.join(names)}", f"generators={','.join(names)}")
    for kind, words in (
        ("acted", sp.rel_acted), ("acting", sp.rel_acting), ("twist", sp.rel_twist)
    ):
        rendered = [w.render() for w in words]
        out(
            f"  relators {f'({kind}):':<10}{', '.join(rendered) or '-'}",
            f"relators_{kind}={';'.join(rendered)}",
        )
    if not args.verify:
        return EXIT_OK

    cert = _resolve_bound(sp.combined, args, guard, out)
    report = verify_direct_factor(sp, args.c, cert)
    out(None, f"class_c={args.c}", f"class_bound={cert.k}")
    for name, ok in report.checks.items():
        status = "pass" if ok else "fail"
        out(f"check {name}: {status.upper()}", f"check_{name}={status}")
    for kind, inv in (
        ("group", report.invariants_group),
        ("acting", report.invariants_acting),
        ("complement", report.invariants_complement),
    ):
        out(
            f"invariants {f'{kind}:':<12}{inv.describe()}",
            *_invariant_lines(f"{kind}_", inv),
        )
    verdict = "pass" if report.passed else "fail"
    out(f"verdict: {verdict.upper()}", f"verdict={verdict}")
    return EXIT_OK if report.passed else EXIT_VERDICT_FAIL


_LETTER_NAMES = "abcdefghijklmnopqrstuvwxyz"


def _shape_str(shape) -> str:
    if isinstance(shape, int):
        return _LETTER_NAMES[shape] if shape < 26 else f"g{shape}"
    u, v = shape
    return f"[{_shape_str(u)},{_shape_str(v)}]"


def cmd_lyndon(args, guard: int, out) -> int:
    n, m = args.letters, args.weight
    need = monomials_over_budget(n, m, guard, through=False)
    if need is not None:
        raise CapacityError(
            f"degree-{m} basis over {n} letters needs {need} monomials, "
            f"budget is {guard}"
        )
    witt = witt_dimension(n, m)
    out(
        f"letters={n} weight={m} witt={witt}",
        "command=lyndon", f"letters={n}", f"weight={m}", f"witt={witt}",
    )
    for w in lyndon_words(n, m):
        spelled = "".join(_LETTER_NAMES[i] if i < 26 else f"(g{i})" for i in w)
        shape = _shape_str(bracket_shape(w))
        out(f"  {spelled}  {shape}", f"word={spelled} bracketing={shape}")
    return EXIT_OK


def cmd_selftest(args, guard: int, out) -> int:
    # Imported here so that the other commands do not load the catalogue.
    from .selftest import run_selftest

    return run_selftest(guard, out)


# command -> (handler, {option: (dest, converter, default, required)}); a
# flag has no converter.
_GROUP = {
    "--file": ("file", str, None, True),
    "--class-c": ("c", _positive, 1, False),
    "--class-bound": ("class_bound", _positive, None, False),
    "--kmax": ("k_max", _positive, 6, False),
    "--format": ("fmt", _choice, "text", False),
}
COMMANDS = {
    "multiplier": (cmd_multiplier, _GROUP),
    "semidirect": (cmd_semidirect, {**_GROUP, "--verify": ("verify", None, False, False)}),
    "lyndon": (cmd_lyndon, {
        "--letters": ("letters", _positive, None, True),
        "--weight": ("weight", _positive, None, True),
        "--format": _GROUP["--format"],
    }),
    "selftest": (cmd_selftest, {"--format": _GROUP["--format"]}),
}
# argparse reads a token as a value unless it starts with "-" and is not
# "-", a negative number or spaced.
_VALUE = re.compile(r"(?!-).*|-|-\d+|-\d*\.\d+|.* .*", re.S)


def _option(token: str, options) -> tuple[str | None, str | None]:
    """(option, value after "=") for a token naming an option exactly or by
    a unique prefix; ("", None) for an unknown option, (None, None) for a
    value."""
    name, eq, value = token.partition("=")
    hits = [
        n for n in (*options, "-h", "--help")
        if n == name or (name[:2] == "--" and len(name) > 2 and n.startswith(name))
    ]
    if len(hits) > 1:
        raise ValueError(f"ambiguous option: {name} could match {', '.join(hits)}")
    if hits:
        return ("--help" if hits[0] == "-h" else hits[0]), (value if eq else None)
    return (None, None) if _VALUE.fullmatch(token) else ("", None)


def _read_argv(argv: list[str], args) -> bool:
    """Set args.command and its options' dests from argv as argparse read
    it; False once -h/--help has printed the usage.  Raises ValueError
    naming the argument at fault."""
    cut = argv.index("--") if "--" in argv else len(argv)
    argv, unknown, options, i = argv[:cut], argv[cut:], {}, 0
    while i < len(argv):
        token, i = argv[i], i + 1
        name, value = _option(token, options)
        if name is None and args.command is None:
            try:
                args.command = _choice(token, COMMANDS)
            except ValueError as exc:
                raise ValueError(f"argument command: {exc}") from None
            options = COMMANDS[token][1]
            vars(args).update((d, default) for d, _, default, _ in options.values())
            for later in argv[i:]:
                _option(later, options)  # an ambiguous prefix is refused first
            continue
        if not name:
            unknown.append(token)
            continue
        dest, convert, _, _ = options.get(name, ("help", None, None, False))
        try:
            if value is not None and not convert:
                raise ValueError(f"ignored explicit argument {value!r}")
            if name == "--help":
                print(USAGE, end="")
                return False
            if value is None and convert:
                if i == len(argv) or _option(argv[i], options)[0] is not None:
                    raise ValueError("expected one argument")
                value, i = argv[i], i + 1
            setattr(args, dest, convert(value) if convert else True)
        except ValueError as exc:
            raise ValueError(f"argument {name}: {exc}") from None
    missing = [
        n for n, (d, _, _, need) in options.items() if need and getattr(args, d) is None
    ]
    if args.command is None or missing:
        listed = ", ".join(missing) or "command"
        raise ValueError(f"the following arguments are required: {listed}")
    if unknown:
        raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
    return True


def _usage(command: str | None) -> str:
    """USAGE's synopsis line of command, or the generic one."""
    lines = [" ".join(line.split()) for line in USAGE.splitlines()]
    found = [line for line in lines if command and line.startswith(command + " ")]
    return "baerkit " + (found[0] if found else "COMMAND [OPTIONS]")


def main(argv=None) -> int:
    args = SimpleNamespace(command=None)
    try:
        if not _read_argv(sys.argv[1:] if argv is None else argv, args):
            return EXIT_OK
    except ValueError as exc:
        prog = " ".join(filter(None, ("baerkit", args.command)))
        print(f"usage: {_usage(args.command)}\n{prog}: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        guard = _cap_guard()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    def out(text: str | None, *machine_lines: str) -> None:
        """Print one record: its text line (if any) or its machine lines."""
        for line in machine_lines if args.fmt == "machine" else (text,):
            if line is not None:
                print(line)

    handler = COMMANDS[args.command][0]
    try:
        return handler(args, guard, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ClassUndeterminedError, CertificateError) as exc:
        print(f"class bound: {exc}", file=sys.stderr)
        return EXIT_CLASS
    except CapacityError as exc:
        print(f"capacity guard: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ActionError as exc:
        print("action validation failed:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return EXIT_ACTION


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 success, 1 a verified assertion failed, 2 usage or input error.
All numeric output is exact (rationals as p/q); output is deterministic.

Arguments are parsed on one of two paths, both built from the one option
table `_COMMANDS`.  A call in its plain form (a command, then exact option
names each given once, each with a value that is nonempty and does not start
with "-") is parsed from the table alone and never imports argparse.  Any
other call, including every help request and usage error, goes to argparse,
which accepts abbreviations and --opt=value and words the help and errors.
"""

from __future__ import annotations

import gc
import json
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .algebra import (Mode, SpecError, bracket, central_charge_p1, load_spec,
                      make_virasoro_spec)
from .c2 import certificate_to_json, certify_triplet_p2, verify_certificate
from .derivation import MAX_P, alpha_nonzero_report
from .qseries import (
    MAX_CUTOFF,
    QSeries,
    chi_tilde,
    diff_at_level,
    triplet_character,
    verma_character,
)
from .scalar import SolveError, clipped, parse_rational, quoted, render_poly
from .singular import load_triplet_p2_spec, solve_structure_constants, verify_singular_p2

# compiled on the first `bracket` call, the only command that reads a mode
_MODE_ARG = r"([A-Za-z_][A-Za-z0-9_]*):(-?\d+)"


class InputError(ValueError):
    pass


def _parse_mode(text: str) -> Mode:
    m = re.fullmatch(_MODE_ARG, text.strip())
    if not m:
        raise InputError(f"mode must look like FIELD:INDEX, got {quoted(text)}")
    try:
        return Mode(m.group(1), int(m.group(2)))
    except ValueError:  # more digits than int converts
        raise InputError(f"mode index has too many digits, got {quoted(text)}") from None


def _load_spec_arg(path: str | None):
    if path is None:
        return load_triplet_p2_spec()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read spec {path}: {exc}") from exc
    return load_spec(text)


def _emit(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc


def _series_text(series: QSeries) -> str:
    return "\n".join(series.render_lines())


def _series_json(series: QSeries) -> str:
    return json.dumps(
        [{"exponent": e, "coefficient": str(c)} for e, c in series.render_terms()],
        indent=2,
    )


def _positive_p(args) -> int:
    if args.p < 2:
        raise InputError("--p must be an integer >= 2")
    return args.p


def _character_p(args, cutoff: int) -> int:
    """--p for a character command, if the exponents of its characters
    through `cutoff` can be written out: q^(-c/24 + n) is written
    (a + n b)/b, and `str` converts an int of at most
    `sys.get_int_max_str_digits()` digits (no limit when 0)."""
    p = _positive_p(args)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    offset = -central_charge_p1(p) / 24
    top = abs(offset.numerator) + cutoff * offset.denominator
    # 2**(3 limit) < 10**limit, so a top of at most 3 limit bits is short
    # enough without building 10**limit
    if limit and top.bit_length() > 3 * limit and top >= 10 ** limit:
        raise InputError(f"--p is too large: the exponents of its characters "
                         f"would have more than {limit} digits")
    return p


def _number_text(x: Fraction) -> str:
    """x as a refusal echoes it: clipped, and not written out at all when it
    has more digits than `str` converts."""
    try:
        return clipped(str(x))
    except ValueError:
        return "(too long to write out)"


def _checked_cutoff(cutoff: int) -> int:
    if cutoff < 0:
        raise InputError("--cutoff must be an integer >= 0")
    if cutoff > MAX_CUTOFF:
        raise InputError(f"--cutoff must be at most {MAX_CUTOFF}")
    return cutoff


def _character_series(kind: str, p: int, cutoff: int) -> QSeries:
    if kind == "verma":
        d = 2 * p - 1
        return verma_character([2, d, d, d], central_charge_p1(p), cutoff)
    if kind == "triplet":
        return triplet_character(p, cutoff)
    if kind == "chi-tilde":
        return chi_tilde(p, cutoff)
    raise InputError(f"unknown character {kind!r}")


def cmd_bracket(args) -> int:
    if args.spec is not None and args.virasoro:
        raise InputError("--spec and --virasoro exclude each other")
    if args.c is not None and not args.virasoro:
        raise InputError("--c sets the central charge of --virasoro only")
    if args.spec is not None:
        spec = _load_spec_arg(args.spec)
    elif args.virasoro:
        spec = make_virasoro_spec("c" if args.c is None else args.c)
    else:
        spec = load_triplet_p2_spec()
    left = _parse_mode(args.left)
    right = _parse_mode(args.right)
    ops = bracket(left, right, spec)
    if args.format == "json":
        doc = {
            "left": left.render(),
            "right": right.render(),
            "terms": [
                {"coefficient": render_poly(c), "mode": m.render()}
                for c, m in ops.terms
            ],
            "central": render_poly(ops.central),
        }
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        _emit(f"[{left.render()}, {right.render()}] = {ops.render()}", args.out)
    return 0


def cmd_character(args) -> int:
    cutoff = _checked_cutoff(args.cutoff)
    series = _character_series(args.kind, _character_p(args, cutoff), cutoff)
    _emit(
        _series_json(series) if args.format == "json" else _series_text(series),
        args.out,
    )
    return 0


def cmd_char_diff(args) -> int:
    cutoff = _checked_cutoff(args.cutoff)
    p = _character_p(args, cutoff)
    try:
        level = parse_rational(args.level)
    except ValueError as exc:
        raise InputError(f"bad level: {exc}") from exc
    # Every character leads at q^(-c/24) with coefficient 1 and is exact
    # through its cutoff, so a level off the integers or above the cutoff is
    # refused before either series is computed, and the coefficient at an
    # integer level n needs each series only through q^n.
    if level.denominator != 1 or level > cutoff:
        exponent = -central_charge_p1(p) / 24 + level
        why = ("is off-lattice" if level.denominator != 1
               else f"beyond validity (cutoff index {cutoff})")
        raise InputError(f"bad level {quoted(args.level)}: exponent "
                         f"{_number_text(exponent)} {why}")
    through = max(int(level), 0)
    a = _character_series(args.left, p, through)
    b = _character_series(args.right, p, through)
    value = diff_at_level(a, b, level)
    if args.format == "json":
        doc = {
            "p": p,
            "left": args.left,
            "right": args.right,
            "level": str(level),
            "difference": str(value),
        }
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        _emit(str(value), args.out)
    return 0


def cmd_derive(args) -> int:
    p = _positive_p(args)
    if p > MAX_P:
        raise InputError(f"--p must be at most {MAX_P} for derive")
    report = alpha_nonzero_report(p)
    if args.format == "json":
        _emit(report.to_json(), args.out)
    else:
        lines = [
            f"p = {report.p}, Delta = {report.delta}",
            f"beta_ww_prime   = {report.beta_ww_prime}",
            f"beta_ww         = {render_poly(report.beta_ww)}",
            f"gamma_ww        = {render_poly(report.gamma_ww)}",
            f"gamma_sum       = {render_poly(report.gamma_sum)}",
            f"B (quasiprimary route) = {render_poly(report.B_quasiprimary)}",
            f"B (primary route)      = {render_poly(report.B_primary)}",
            f"xi1 = {render_poly(report.xi[0])}",
            f"xi2 = {render_poly(report.xi[1])}",
            f"xi3 = {render_poly(report.xi[2])}",
            f"difference      = {render_poly(report.difference)}",
            f"alpha_zero_consistent = {report.alpha_zero_consistent}",
        ]
        _emit("\n".join(lines), args.out)
    return 1 if report.alpha_zero_consistent else 0


def cmd_certify_c2(args) -> int:
    spec = _load_spec_arg(args.spec)
    cert = certify_triplet_p2()
    ok, reports = verify_certificate(cert, spec)
    payload = certificate_to_json(cert)
    if args.format == "json":
        _emit(payload, args.out)
    else:
        lines = [
            f"step {r.id:2d} [{'ok' if r.ok else 'FAIL'}] {s.label}"
            for r, s in zip(reports, cert.steps)
        ]
        lines.append(f"targets: {cert.targets}")
        lines.append(f"verified: {ok}")
        _emit("\n".join(lines), args.out)
    return 0 if ok else 1


def cmd_verify_singular(args) -> int:
    spec = _load_spec_arg(args.spec)
    if args.solve_mode:
        solved = solve_structure_constants(spec)
        ok, report = solved.consistent, solved.to_dict()
    else:
        ok, report = verify_singular_p2(spec)
    if args.format == "json":
        _emit(json.dumps({"ok": ok, "report": report}, indent=2, sort_keys=True),
              args.out)
    else:
        lines = [f"singular vectors annihilated: {ok}"]
        if args.solve_mode:
            for k, v in sorted(report.get("assignment", {}).items()):
                lines.append(f"  {k} = {v}")
            if report.get("free"):
                lines.append(f"  free: {report['free']}")
            lines.append(f"  {report.get('detail', '')}")
        elif report.get("failures"):
            for k, v in sorted(report["failures"].items()):
                lines.append(f"  {k}: {v}")
        _emit("\n".join(lines), args.out)
    return 0 if ok else 1


# The option table.  Each option is (flag, kind, default, required, help): a
# kind is int, str, a tuple of choices, or None for a store-true flag.
_FORMAT = ("--format", ("text", "json"), "text", False, None)
_OUT = ("--out", str, None, False, "write output to a file")
_CUTOFF = ("--cutoff", int, 40, False, None)
_SPEC = ("--spec", str, None, False,
         "algebra spec JSON (default: built-in triplet p=2)")
_P = ("--p", int, None, True, None)
_CHARACTERS = ("verma", "triplet", "chi-tilde")

# The one command table: name -> (help line, namespace extras, options in
# argparse's order).  The argparse parsers and the table parser are both
# built from it.
_COMMANDS = {
    "bracket": ("mode commutator under an algebra spec", {"func": cmd_bracket}, (
        ("--left", str, None, True, "mode, e.g. T:2"),
        ("--right", str, None, True, "mode, e.g. W1:-3"),
        ("--virasoro", None, False, False, "use the Virasoro-only spec"),
        ("--c", str, None, False, "central charge for --virasoro (rational or "
         "symbol; default: the symbol c)"),
        _FORMAT, _OUT, _SPEC)),
    "character": ("triplet algebra character",
                  {"func": cmd_character, "kind": "triplet"},
                  (_FORMAT, _OUT, _CUTOFF, _P)),
    "verma-character": ("vacuum Verma module character",
                        {"func": cmd_character, "kind": "verma"},
                        (_FORMAT, _OUT, _CUTOFF, _P)),
    "char-diff": ("coefficient difference of two characters at a level",
                  {"func": cmd_char_diff}, (
        ("--left", _CHARACTERS, None, True, None),
        ("--right", _CHARACTERS, None, True, None),
        ("--level", str, None, True, "rational level, e.g. 8 or 17/2"),
        _FORMAT, _OUT, _CUTOFF, _P)),
    "derive": ("run the coefficient derivation pipeline", {"func": cmd_derive},
               (_FORMAT, _OUT, _P)),
    "certify-c2": ("emit and verify the p=2 C2 membership certificate",
                   {"func": cmd_certify_c2}, (_FORMAT, _OUT, _SPEC)),
    "verify-singular": ("check the level-6 singular vectors are annihilated",
                        {"func": cmd_verify_singular}, (
        ("--solve-mode", None, False, False,
         "solve for the symbolic structure constants"),
        _FORMAT, _OUT, _SPEC)),
}


def _table_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for argv in its plain form: a command,
    then exact option names, each at most once, a store-true flag bare and
    every other option followed by a nonempty value that does not start with
    "-", and every required option present.  None for any other argv, which
    only argparse parses (abbreviations, --opt=value, repeats, -h, negative
    or empty values, extra tokens, missing or invalid values)."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, extras, options = _COMMANDS[argv[0]]
    kinds = {option[0]: option[1] for option in options}
    given: dict = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in kinds or token in given:
            return None
        kind = kinds[token]
        if kind is None:
            given[token] = True
            continue
        value = next(tokens, "")
        if not value or value[0] == "-":
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        given[token] = value
    values = dict(extras)
    for flag, _, default, required, _ in options:
        if required and flag not in given:
            return None
        values[flag[2:].replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(**values)


def _add_options(parser, name: str) -> None:
    """Give an argparse parser the options of one command's table row."""
    _, extras, options = _COMMANDS[name]
    for flag, kind, default, required, help_text in options:
        if kind is None:
            parser.add_argument(flag, action="store_true", help=help_text)
        elif isinstance(kind, tuple):
            parser.add_argument(flag, choices=kind, default=default,
                                required=required, help=help_text)
        else:
            parser.add_argument(flag, type=kind, default=default,
                                required=required, help=help_text)
    parser.set_defaults(**extras)


def build_parser():
    """The full argparse parser: every command as a subparser."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="walgebra",
        description="Exact W-algebra mode computations, characters, "
        "C2 certificates and the coefficient derivation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        _add_options(sub.add_parser(name, help=help_line), name)
    return parser


def _parse_args(argv: list[str]):
    """Parse argv from the table when it is in its plain form; anything
    else (help, abbreviations, `--opt=value`, usage errors) goes to the full
    argparse parser."""
    args = _table_args(argv)
    if args is not None:
        return args
    return build_parser().parse_args(argv)


# whether `main` has moved the process's heap into the oldest generation
_heap_promoted = False


def main(argv: list[str] | None = None) -> int:
    global _heap_promoted
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    if not _heap_promoted:
        # Move every object alive before the first command (the imported
        # modules, the parsed arguments) into the collector's oldest
        # generation in O(1), so that the command's young collections scan
        # only what the command allocates.  unfreeze() empties the permanent
        # generation at once: nothing stays frozen, and the collector's
        # switch and thresholds are left as they are.  Only once: a later
        # call would promote the earlier commands' cyclic garbage too, which
        # only a full collection frees.
        _heap_promoted = True
        gc.freeze()
        gc.unfreeze()
    try:
        return args.func(args)
    except (InputError, SpecError, SolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 success, 1 a verified assertion failed, 2 usage or input error.
All numeric output is exact (rationals as p/q); output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

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
from .scalar import SolveError, render_poly
from .singular import load_triplet_p2_spec, solve_structure_constants, verify_singular_p2

_MODE_ARG = re.compile(r"([A-Za-z_][A-Za-z0-9_]*):(-?\d+)$")


class InputError(ValueError):
    pass


def _parse_mode(text: str) -> Mode:
    m = _MODE_ARG.match(text.strip())
    if not m:
        raise InputError(f"mode must look like FIELD:INDEX, got {text!r}")
    return Mode(m.group(1), int(m.group(2)))


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
    if args.spec and args.virasoro:
        raise InputError("--spec and --virasoro exclude each other")
    if args.c is not None and not args.virasoro:
        raise InputError("--c sets the central charge of --virasoro only")
    if args.spec:
        spec = _load_spec_arg(args.spec)
    elif args.virasoro:
        spec = make_virasoro_spec("c" if args.c is None else args.c)
    else:
        spec = load_triplet_p2_spec()
    left = _parse_mode(args.left)
    right = _parse_mode(args.right)
    try:
        ops = bracket(left, right, spec)
    except SpecError as exc:
        raise InputError(str(exc)) from exc
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
    p = _positive_p(args)
    series = _character_series(args.kind, p, _checked_cutoff(args.cutoff))
    _emit(
        _series_json(series) if args.format == "json" else _series_text(series),
        args.out,
    )
    return 0


def cmd_char_diff(args) -> int:
    p = _positive_p(args)
    try:
        level = Fraction(args.level)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad level {args.level!r}") from exc
    # Every character leads at q^(-c/24) with coefficient 1 and is exact
    # through its cutoff, so a level off the integers or above the cutoff is
    # refused before either series is computed, and the coefficient at an
    # integer level n needs each series only through q^n.
    cutoff = _checked_cutoff(args.cutoff)
    if level.denominator != 1 or level > cutoff:
        exponent = -central_charge_p1(p) / 24 + level
        why = ("is off-lattice" if level.denominator != 1
               else f"beyond validity (cutoff index {cutoff})")
        raise InputError(f"bad level {args.level!r}: exponent {exponent} {why}")
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


def _common(parser, cutoff=False, spec=False, pflag=False) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None, help="write output to a file")
    if cutoff:
        parser.add_argument("--cutoff", type=int, default=40)
    if spec:
        parser.add_argument("--spec", default=None,
                            help="algebra spec JSON (default: built-in triplet p=2)")
    if pflag:
        parser.add_argument("--p", type=int, required=True)


def _bracket_args(parser) -> None:
    parser.add_argument("--left", required=True, help="mode, e.g. T:2")
    parser.add_argument("--right", required=True, help="mode, e.g. W1:-3")
    parser.add_argument("--virasoro", action="store_true",
                        help="use the Virasoro-only spec")
    parser.add_argument("--c", default=None,
                        help="central charge for --virasoro (rational or symbol; "
                        "default: the symbol c)")
    _common(parser, spec=True)
    parser.set_defaults(func=cmd_bracket)


def _character_args(kind: str):
    def configure(parser) -> None:
        _common(parser, cutoff=True, pflag=True)
        parser.set_defaults(func=cmd_character, kind=kind)
    return configure


def _char_diff_args(parser) -> None:
    parser.add_argument("--left", choices=("verma", "triplet", "chi-tilde"),
                        required=True)
    parser.add_argument("--right", choices=("verma", "triplet", "chi-tilde"),
                        required=True)
    parser.add_argument("--level", required=True, help="rational level, e.g. 8 or 17/2")
    _common(parser, cutoff=True, pflag=True)
    parser.set_defaults(func=cmd_char_diff)


def _derive_args(parser) -> None:
    _common(parser, pflag=True)
    parser.set_defaults(func=cmd_derive)


def _certify_c2_args(parser) -> None:
    _common(parser, spec=True)
    parser.set_defaults(func=cmd_certify_c2)


def _verify_singular_args(parser) -> None:
    parser.add_argument("--solve-mode", action="store_true",
                        help="solve for the symbolic structure constants")
    _common(parser, spec=True)
    parser.set_defaults(func=cmd_verify_singular)


# The one command table: name -> (help line, configure(parser)).  Both the
# full parser and a single command's parser are built from it.
_COMMANDS = {
    "bracket": ("mode commutator under an algebra spec", _bracket_args),
    "character": ("triplet algebra character", _character_args("triplet")),
    "verma-character": ("vacuum Verma module character", _character_args("verma")),
    "char-diff": ("coefficient difference of two characters at a level",
                  _char_diff_args),
    "derive": ("run the coefficient derivation pipeline", _derive_args),
    "certify-c2": ("emit and verify the p=2 C2 membership certificate",
                   _certify_c2_args),
    "verify-singular": ("check the level-6 singular vectors are annihilated",
                        _verify_singular_args),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command as a subparser."""
    parser = argparse.ArgumentParser(
        prog="walgebra",
        description="Exact W-algebra mode computations, characters, "
        "C2 certificates and the coefficient derivation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, configure) in _COMMANDS.items():
        configure(sub.add_parser(name, help=help_line))
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse with the named command's parser alone, as the full parser's
    subparser of the same name would.  Anything that parser leaves over,
    and any first argument that is not a command, goes to the full parser,
    which reports it at the top level."""
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"walgebra {argv[0]}")
        _COMMANDS[argv[0]][1](parser)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (InputError, SpecError, SolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import gc
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walgebra import cli
from walgebra.algebra import central_charge_p1
from walgebra.cli import main
from walgebra.qseries import (MAX_CUTOFF, QSeriesError, chi_tilde, diff_at_level,
                              triplet_character, verma_character)

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "walgebra.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


CASES = [
    (("bracket", "--virasoro", "--left", "T:2", "--right", "T:-2"),
     "bracket_virasoro.txt"),
    (("bracket", "--left", "W1:-3", "--right", "W2:-3", "--format", "json"),
     "bracket_ww.json"),
    (("character", "--p", "2", "--cutoff", "8"), "character_p2.txt"),
    (("verma-character", "--p", "2", "--cutoff", "8"), "verma_p2.txt"),
    (("char-diff", "--p", "3", "--left", "verma", "--right", "triplet",
      "--level", "8", "--format", "json"), "chardiff_p3.json"),
    *((("derive", "--p", str(p), "--format", "json"), f"derive_p{p}.json")
      for p in range(2, 9)),
    (("certify-c2",), "certify_text.txt"),
    (("certify-c2", "--format", "json"), "certificate_p2.json"),
    (("verify-singular", "--solve-mode",), "verify_singular_solve.txt"),
]


@pytest.mark.parametrize("args,golden", CASES, ids=[c[1] for c in CASES])
def test_golden(args, golden):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_text()


def test_determinism():
    a = run_cli("derive", "--p", "2", "--format", "json")
    b = run_cli("derive", "--p", "2", "--format", "json")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_char_diff_is_served_at_the_cutoff_bound(capsys):
    # the largest cutoff the CLI accepts is computed, not only the ones above
    # it refused: the p = 2 Verma and quotient characters through q^20000
    bound = str(MAX_CUTOFF)
    assert main(["char-diff", "--p", "2", "--left", "verma", "--right",
                 "chi-tilde", "--level", bound, "--cutoff", bound]) == 0
    out, err = capsys.readouterr()
    assert err == "" and len(out.splitlines()) == 1
    assert out == f"{int(out)}\n"
    c = central_charge_p1(2)
    full = verma_character([2, 3, 3, 3], c, MAX_CUTOFF)
    short = verma_character([2, 3, 3, 3], c, 600)
    assert full.offset == short.offset and full.coeffs[:601] == short.coeffs


def test_usage_errors_exit_2(tmp_path):
    assert run_cli("derive", "--p", "0").returncode == 2
    assert run_cli("derive").returncode == 2
    assert run_cli("bracket", "--left", "junk", "--right", "T:2").returncode == 2
    # a composite has no declared channels: its bracket is refused, not 0
    proc = run_cli("bracket", "--left", "T:2", "--right", "X1:-5")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: X1(-5) is a mode of the composite field")
    assert len(proc.stderr.splitlines()) == 1
    assert run_cli("nonsense").returncode == 2
    assert run_cli("char-diff", "--p", "2", "--left", "verma", "--right",
                   "triplet", "--level", "x").returncode == 2
    # an off-lattice level, and a level beyond the cutoff
    for level, cutoff in (("17/2", "40"), ("41", "40")):
        proc = run_cli("char-diff", "--p", "3", "--left", "verma", "--right",
                       "triplet", "--level", level, "--cutoff", cutoff)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.splitlines()) == 1
    # a negative cutoff, for every character command
    for args in (("character", "--p", "3"), ("verma-character", "--p", "3"),
                 ("char-diff", "--p", "3", "--left", "verma", "--right",
                  "triplet", "--level", "0")):
        proc = run_cli(*args, "--cutoff", "-1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.splitlines()) == 1
    # a cutoff past qseries.MAX_CUTOFF, for every character command, rejected
    # before any work (10^12 once ended in a MemoryError traceback)
    for args in (("character", "--p", "3", "--cutoff", "1000000000000"),
                 ("character", "--p", "3", "--cutoff", "20001"),
                 ("verma-character", "--p", "3", "--cutoff", "20001"),
                 ("char-diff", "--p", "3", "--left", "verma", "--right",
                  "triplet", "--level", "0", "--cutoff", "20001")):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stderr == "error: --cutoff must be at most 20000\n"
    # a p beyond the derivation's recursion depth, rejected before any work
    for p in ("401", "600"):
        proc = run_cli("derive", "--p", p)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.splitlines()) == 1
    # a Virasoro central charge with a zero denominator, neither a rational
    # nor an identifier, or the reserved imaginary unit I (once taken as a
    # symbol, so that c was silently i)
    for c in ("1/0", "1/0x", "I"):
        proc = run_cli("bracket", "--virasoro", "--c", c, "--left", "T:2",
                       "--right", "T:-2")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.splitlines()) == 1
    # an --out that cannot be written: a missing directory, a directory
    for args in (("derive", "--p", "2", "--out", "/nonexistent/x"),
                 ("character", "--p", "3", "--cutoff", "5", "--out", str(tmp_path))):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write")
        assert len(proc.stderr.splitlines()) == 1


_BIG_P = str(10 ** 4000)
_CHARDIFF = ("char-diff", "--p", "3", "--left", "verma", "--right", "triplet")


@pytest.mark.parametrize("argv", [
    # Fraction reads exponent notation by building 10**exponent, which has
    # more digits than str converts back, so each of these once ended in a
    # ValueError traceback while its value was echoed or rendered
    (*_CHARDIFF, "--level", "1e5000"),
    ("bracket", "--virasoro", "--c", "1e5000", "--left", "T:2", "--right", "T:-2"),
    ("verify-singular", "--spec", "{spec}"),
    # a level with as many digits as int reads: its exponent has more
    (*_CHARDIFF, "--level", "9" * 4299),
    (*_CHARDIFF, "--level", "1/" + "9" * 4299),
    # a p whose character exponents have more digits than str converts
    ("character", "--p", _BIG_P, "--cutoff", "5"),
    ("verma-character", "--p", _BIG_P, "--cutoff", "5"),
    ("char-diff", "--p", _BIG_P, "--left", "verma", "--right", "triplet",
     "--level", "1"),
], ids=["level_exponent", "c_exponent", "spec_exponent",
        "level_digits", "level_denominator_digits", "character_p", "verma_p",
        "char_diff_p"])
def test_oversized_numbers_exit_2(tmp_path, argv):
    doc = _triplet_spec_doc()
    doc["central_charge"] = "1e5000"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    proc = run_cli(*[arg.replace("{spec}", str(spec)) for arg in argv])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    line, = proc.stderr.splitlines()
    assert line.startswith("error:") and len(line) <= 300


def test_large_p_characters_still_render():
    # the bound on p comes from rendering, far above any p in use
    for p in (100000, 10 ** 1000):
        for command in ("character", "verma-character"):
            proc = run_cli(command, "--p", str(p), "--cutoff", "5")
            assert proc.returncode == 0 and proc.stderr == ""
            assert len(proc.stdout.splitlines()) >= 1


def _triplet_spec_doc():
    from importlib import resources

    text = resources.files("walgebra.specs").joinpath("triplet_p2.json").read_text()
    return json.loads(text)


def _define_l4(definition):
    return lambda d: d["composite_fields"][0].update(definition=definition)


T_REF = {"gen": "T"}


@pytest.mark.parametrize("edit", [
    lambda d: d["generators"][0].update(weight="x"),
    lambda d: d["d"][0].update(value="2+"),
    lambda d: d.update(central_charge=-2),
    lambda d: d["generators"][0].update(weight=2.7),
    lambda d: d["generators"][1].update(weight=True),
    lambda d: d["composite_fields"][0].update(weight=4.0),
    _define_l4({"deriv": {"base": T_REF, "order": 2.0}}),
    _define_l4({"nprod": {"m": 1.0, "left": T_REF, "right": T_REF}}),
    _define_l4({"qpnop": {"j": "T", "i": "T", "n": False}}),
    lambda d: d["d"][0].update(value=-1),
    lambda d: d["structure_constants"][0].update(value=2),
    # a second entry for one pairing, composite symbol or lowered constant
    lambda d: d["d"].append(dict(d["d"][0])),
    lambda d: d["d"].extend([{"i": "T", "j": "W1", "value": "0"},
                             {"i": "W1", "j": "T", "value": "0"}]),
    lambda d: d["composite_fields"].append(dict(d["composite_fields"][0])),
    lambda d: d.update(c_lower=[{"i": "T", "j": "T", "k": "T", "value": "-2"}] * 2),
    # a key the loader does not read, at any level
    lambda d: d.update(c_lowr=[]),
    lambda d: d["generators"][1].update(bogus=1),
    lambda d: d["d"][0].update(bogus=1),
    _define_l4({"qpnop": {"j": "T", "i": "T", "n": 0, "bogus": 1}}),
    _define_l4({"deriv": {"base": T_REF, "order": 2, "bogus": 1}}),
    # d_TT = 5 is c = 10, not the declared central charge -2
    lambda d: d["d"][0].update(value="5"),
    # a field symbol that is not a string
    lambda d: d["generators"][1].update(symbol=["W1"]),
    _define_l4({"deriv": {"base": {"gen": ["T"]}, "order": 2}}),
    _define_l4({"qpnop": {"j": ["T"], "i": "T"}}),
    # a negative qpnop n or derivative order, at a weight that matches it
    lambda d: d["composite_fields"][0].update(
        weight=3, definition={"qpnop": {"j": "T", "i": "T", "n": -1}}),
    lambda d: d["composite_fields"][0].update(
        weight=1, definition={"deriv": {"base": T_REF, "order": -1}}),
    # a composite that names itself, or a composite listed after it
    _define_l4({"deriv": {"base": {"gen": "L4"}, "order": 0}}),
    lambda d: d["composite_fields"][0].update(weight=5, definition={"gen": "X1"}),
], ids=["non_integer_weight", "malformed_polynomial", "number_central_charge",
        "float_weight", "bool_weight", "float_composite_weight",
        "float_deriv_order", "float_nprod_m", "bool_qpnop_n", "number_d_value",
        "number_structure_constant", "duplicate_d", "duplicate_d_swapped",
        "duplicate_composite", "duplicate_c_lower", "unknown_top_level_key",
        "unknown_generator_key", "unknown_d_key", "unknown_qpnop_key",
        "unknown_deriv_key", "central_charge_not_twice_d_tt", "list_generator_symbol",
        "list_gen_symbol", "list_qpnop_symbol", "negative_qpnop_n",
        "negative_deriv_order", "self_naming_composite", "later_composite"])
def test_malformed_spec_exit_2(tmp_path, edit):
    doc = _triplet_spec_doc()
    edit(doc)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("certify-c2", "--spec", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.splitlines()) == 1


def _bracket_spec_error(tmp_path, doc):
    """The one stderr line of `bracket --spec` on `doc`, which must exit 2."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("bracket", "--spec", str(path), "--left", "T:2", "--right", "T:-2")
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "Error(" not in proc.stderr
    return proc.stderr


@pytest.mark.parametrize("value", [True, 5, None], ids=["bool", "int", "null"])
def test_non_string_channel_symbol_exit_2(tmp_path, value):
    # the channels of (W1, W1) were once sorted by k before validation, so a
    # non-string k raised a TypeError traceback with exit 1
    doc = _triplet_spec_doc()
    entries = [e for e in doc["structure_constants"]
               if e["i"] == "W1" and e["j"] == "W1"]
    for entry in entries[:2]:
        entry["k"], k = value, entry["k"]
        assert _bracket_spec_error(tmp_path, doc) == \
            f"error: structure_constants k must be a string, got {value!r}\n"
        entry["k"] = k


STRING, ARRAY, PAIR = "a string", "a JSON array", "a [coefficient, expression] pair"


@pytest.mark.parametrize("key, kind, edit", [
    ("d i", STRING, lambda d: d["d"][1].update(i=3)),
    ("d j", STRING, lambda d: d["d"][1].update(j=[1])),
    ("structure_constants i", STRING,
     lambda d: d["structure_constants"][0].update(i=1.5)),
    ("c_lower j", STRING, lambda d: d.update(
        c_lower=[{"i": "T", "j": 2, "k": "T", "value": "-2"}])),
    ("composite symbol", STRING, lambda d: d["composite_fields"][0].update(symbol=7)),
    # a list-valued part of another JSON type, once the bare repr
    # "malformed spec document: TypeError(...)" or "ValueError(...)"
    ("generators", ARRAY, lambda d: d.update(generators=5)),
    ("d", ARRAY, lambda d: d.update(d=5)),
    ("structure_constants", ARRAY, lambda d: d.update(structure_constants="T")),
    ("composite_fields", ARRAY,
     lambda d: d.update(composite_fields={"symbol": "L4"})),
    ("c_lower", ARRAY, lambda d: d.update(c_lower=None)),
    # an empty object is refused as a non-empty one is
    ("d", ARRAY, lambda d: d.update(d={})),
    ("c_lower", ARRAY, lambda d: d.update(c_lower={})),
    ("a lincomb body", ARRAY, _define_l4({"lincomb": 5})),
    ("a lincomb term", PAIR, _define_l4({"lincomb": [["1", T_REF, 2]]})),
    ("a lincomb term", PAIR, _define_l4({"lincomb": [5]})),
], ids=["int_d_i", "list_d_j", "float_constant_i", "int_c_lower_j",
        "int_composite_symbol", "int_generators", "int_d",
        "string_structure_constants", "object_composite_fields", "null_c_lower",
        "empty_object_d", "empty_object_c_lower",
        "int_lincomb_body", "triple_lincomb_term", "int_lincomb_term"])
def test_non_string_symbol_names_key_and_value(tmp_path, key, kind, edit):
    doc = _triplet_spec_doc()
    edit(doc)
    stderr = _bracket_spec_error(tmp_path, doc)
    assert stderr.startswith(f"error: {key} must be {kind}, got ")


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["d"][1].update(value="1/0"), "d value: zero denominator in '1/0'"),
    (lambda d: d.update(central_charge="1/0"),
     "central_charge: zero denominator in '1/0'"),
], ids=["d_value", "central_charge"])
def test_zero_denominator_in_spec_exit_2(tmp_path, edit, message):
    # once the bare repr "malformed spec document: ZeroDivisionError(...)"
    doc = _triplet_spec_doc()
    edit(doc)
    assert _bracket_spec_error(tmp_path, doc) == f"error: {message}\n"


@pytest.mark.parametrize("command", ["certify-c2", "verify-singular", "bracket"])
def test_deeply_nested_spec_exit_2(tmp_path, command):
    # nested deeper than the recursion limit, the JSON decoder raises
    # RecursionError; that is one error line and exit 2
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    extra = ["--left", "T:2", "--right", "T:-2"] if command == "bracket" else []
    proc = run_cli(command, "--spec", str(path), *extra)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: not valid JSON:")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


def test_oversized_integer_in_spec_exit_2(tmp_path):
    # a 5,000-digit weight is past the digits int() converts, so the JSON
    # decoder raises a plain ValueError without the key; the refusal names it
    doc = _triplet_spec_doc()
    doc["generators"][1]["weight"] = "@big@"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc).replace('"@big@"', "1" * 5000))
    proc = run_cli("certify-c2", "--spec", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: generator weight must be a JSON integer, got "
                           f"{'1' * 60}... (5000 characters)\n")


@pytest.mark.parametrize("generators, message", [
    ([], "no generators: the first generator must be the weight-2 conformal field"),
    # an empty object is not an empty array: every list part must be an array
    ({}, "generators must be a JSON array, got {}"),
], ids=["list", "object"])
@pytest.mark.parametrize("command", ["certify-c2", "verify-singular", "bracket"])
def test_spec_without_generators_exit_2(tmp_path, command, generators, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"central_charge": "-2", "generators": generators}))
    extra = ["--left", "T:2", "--right", "T:-2"] if command == "bracket" else []
    proc = run_cli(command, "--spec", str(path), *extra)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""


def test_python_m_walgebra_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "walgebra", "derive", "--p", "2", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "derive_p2.json").read_text()


def test_solve_mode_without_unknowns_exit_2(tmp_path):
    # the solved constants substituted: solve mode has nothing to solve for
    solved = {"uT": "3", "uL": "4", "uW": "5*I", "-uW": "-5*I",
              "uX": "12/5*I", "-uX": "-12/5*I"}
    doc = _triplet_spec_doc()
    for entry in doc["structure_constants"]:
        entry["value"] = solved.get(entry["value"], entry["value"])
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("verify-singular", "--solve-mode", "--spec", str(path))
    assert proc.returncode == 2
    assert proc.stderr == "error: spec has no symbolic structure constants to solve for\n"
    # the same spec verifies without solve mode
    assert run_cli("verify-singular", "--spec", str(path)).returncode == 0


VIRASORO_DOC = {
    "central_charge": "-2",
    "generators": [{"symbol": "T", "weight": 2}],
    "d": [{"i": "T", "j": "T", "value": "-1"}],
    "structure_constants": [{"i": "T", "j": "T", "k": "T", "value": "2"}],
}


@pytest.mark.parametrize("command", ["verify-singular", "certify-c2"])
def test_undeclared_field_exit_2(tmp_path, command):
    # the singular vectors and the certificate need W1..W3, which a
    # Virasoro-only spec does not declare
    path = tmp_path / "virasoro.json"
    path.write_text(json.dumps(VIRASORO_DOC))
    proc = run_cli(command, "--spec", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: undeclared field")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("flags", [
    ("--c", "1"),
    ("--spec", "SPEC", "--virasoro"),
    ("--spec", "SPEC", "--c", "1"),
    ("--spec", "", "--virasoro"),
], ids=["c_without_virasoro", "spec_and_virasoro", "spec_and_c",
        "empty_spec_and_virasoro"])
def test_bracket_rejects_ignored_flags(tmp_path, flags):
    path = tmp_path / "virasoro.json"
    path.write_text(json.dumps(VIRASORO_DOC))
    flags = [str(path) if f == "SPEC" else f for f in flags]
    proc = run_cli("bracket", *flags, "--left", "T:2", "--right", "T:-2")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


def test_missing_spec_file_exit_2():
    proc = run_cli("certify-c2", "--spec", "/nonexistent/path.json")
    assert proc.returncode == 2
    assert "error" in proc.stderr


@pytest.mark.parametrize("command", [
    ("certify-c2",),
    ("verify-singular",),
    ("bracket", "--left", "T:2", "--right", "T:-2"),
], ids=["certify-c2", "verify-singular", "bracket"])
def test_non_utf8_spec_exit_2(tmp_path, command):
    path = tmp_path / "spec.json"
    path.write_bytes(b"\xff\xfe\x00{")
    proc = run_cli(*command, "--spec", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: cannot read spec {path}:")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("command", [
    ("certify-c2",),
    ("verify-singular",),
    ("bracket", "--left", "T:2", "--right", "T:-2"),
], ids=["certify-c2", "verify-singular", "bracket"])
def test_empty_spec_exit_2(command):
    # an empty --spec names no file; it is not the packaged spec
    proc = run_cli(*command, "--spec", "")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot read spec :")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


def _main(argv):
    """`main(argv)` in-process: (stdout, stderr, exit code)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("argv,code", [
    (["derive", "--p", "2"], 0),
    (["certify-c2", "--spec", "no-such-spec.json"], 2),
    (["--help"], 0),
], ids=["derive", "error", "help"])
@pytest.mark.parametrize("enabled,threshold", [(True, None), (False, (500, 5, 5))],
                         ids=["collector-on", "collector-off"])
def test_main_leaves_the_collector_as_it_found_it(argv, code, enabled, threshold,
                                                 monkeypatch):
    # main promotes the heap with gc.freeze() then gc.unfreeze() on its first
    # call in a process, as each call here is: nothing may stay frozen, and
    # the switch and thresholds are the caller's
    monkeypatch.setattr(cli, "_heap_promoted", False)
    saved = gc.isenabled(), gc.get_threshold()
    try:
        if threshold is not None:
            gc.set_threshold(*threshold)
        if not enabled:
            gc.disable()
        before = gc.isenabled(), gc.get_threshold()
        out, err, got = _main(argv)
        assert got == code, err
        assert cli._heap_promoted == (argv != ["--help"])
        assert gc.get_freeze_count() == 0
        assert (gc.isenabled(), gc.get_threshold()) == before
    finally:
        gc.set_threshold(*saved[1])
        if saved[0]:
            gc.enable()
        else:
            gc.disable()


# Help texts and usage errors as the CLI printed them when every call built
# the full parser (captured in-process with COLUMNS=80; argparse's wording
# belongs to the Python version recorded in the file).
PARITY = json.loads((GOLDEN / "cli_parser_parity.json").read_text())


@pytest.mark.parametrize("name", sorted(PARITY["cases"]))
def test_parser_parity(name, monkeypatch):
    if "%d.%d" % sys.version_info[:2] != PARITY["python"]:
        pytest.skip(f"argparse wording of Python {PARITY['python']}")
    monkeypatch.setenv("COLUMNS", "80")
    case = PARITY["cases"][name]
    assert _main(case["argv"]) == (case["stdout"], case["stderr"], case["exit"])


# Values the table parser takes for an option of each kind, and values that
# only argparse parses (or refuses).  "OUT" is a file in the working
# directory; no spec file named here exists.
PLAIN_VALUES = {int: ("2", "3", "0", "5", "+4", " 7"),
                str: ("T:2", "W1:-3", "8", "17/2", "no-such-spec.json", "OUT")}
OTHER_VALUES = ("", "-1", "-x", "-", "--", "-h", "--help")
NOT_A_VALUE = {int: ("x", "2.5", "1e3"), str: ()}
STRAY_TOKENS = ("extra", "-h", "--help", "--", "--bogus", "-1", "")


@st.composite
def command_lines(draw):
    """(argv, plain): a command line from a token grammar, and whether it is
    in the plain form the table parser takes."""
    if draw(st.integers(0, 19)) == 0:
        first = draw(st.sampled_from(("nonsense", "-h", "--help", "--format")))
        return [first] + draw(st.lists(st.sampled_from(STRAY_TOKENS), max_size=2)), False
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    options = cli._COMMANDS[name][2]
    flags = [option[0] for option in options]

    def value(kind, plain=True):
        if plain:
            pool = kind if isinstance(kind, tuple) else PLAIN_VALUES[kind]
        else:
            pool = OTHER_VALUES + (("bogus",) if isinstance(kind, tuple)
                                   else NOT_A_VALUE[kind])
        return draw(st.sampled_from(pool))

    def pair(option, plain=True):
        flag, kind = option[:2]
        return [flag] if kind is None else [flag, value(kind, plain)]

    # stray tokens, and the options of every other command
    stray = STRAY_TOKENS + tuple(sorted({o[0] for _, _, opts in cli._COMMANDS.values()
                                         for o in opts} - set(flags)))
    # a required option is left out one time in ten
    chunks = [pair(o) for o in options
              if draw(st.integers(0, 9) if o[3] else st.booleans())]
    plain = all(o[0] in {c[0] for c in chunks} for o in options if o[3])
    for _ in range(draw(st.integers(0, 2))):
        plain = False
        option = draw(st.sampled_from(options))
        flag, kind = option[:2]
        prefixes = [flag[:k] for k in range(3, len(flag)) if flag[:k] not in flags]
        how = draw(st.sampled_from(("abbreviation", "equals", "repeat", "value",
                                    "missing value", "stray")))
        if how == "abbreviation" and prefixes:
            chunks.append([draw(st.sampled_from(prefixes))] + pair(option)[1:])
        elif how == "equals" and kind is not None:
            chunks.append([f"{flag}={value(kind)}"])
        elif how == "repeat" and chunks:
            chunks.append(draw(st.sampled_from(chunks)))
        elif how == "value" and kind is not None:
            chunks.append(pair(option, plain=False))
        elif how == "missing value" and kind is not None:
            chunks = draw(st.permutations(chunks)) + [[flag]]
            return [name] + [t for c in chunks for t in c], False
        else:
            chunks.append([draw(st.sampled_from(stray))])
    chunks = draw(st.permutations(chunks))
    return [name] + [t for c in chunks for t in c], plain


def _argparse_args(argv):
    """vars() of the named command's own argparse parser's result; the exit
    code when it stops, or the tokens it leaves over."""
    import argparse

    parser = argparse.ArgumentParser(prog=f"walgebra {argv[0]}")
    cli._add_options(parser, argv[0])
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args, rest = parser.parse_known_args(argv[1:])
    except SystemExit as exc:
        return exc.code
    return vars(args) if not rest else rest


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_table_parser_matches_argparse(line):
    argv, plain = line
    args = cli._table_args(argv)
    assert (args is not None) == plain, argv
    if args is not None:
        assert vars(args) == _argparse_args(argv)


@settings(max_examples=40, deadline=None)
@given(command_lines())
def test_main_is_the_same_without_the_table_parser(line):
    argv, _ = line
    outputs = []
    here = os.getcwd()
    for table_args in (cli._table_args, lambda argv: None):
        with tempfile.TemporaryDirectory() as work, \
                mock.patch.object(cli, "_table_args", table_args):
            os.chdir(work)
            try:
                result = _main(argv)
            finally:
                os.chdir(here)
            files = {p.name: p.read_text() for p in Path(work).iterdir()}
        outputs.append((result, files))
    assert outputs[0] == outputs[1]


SRC = Path(cli.__file__).resolve().parents[1]
COLD_CALL = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
from walgebra import cli
out, err, codes = io.StringIO(), io.StringIO(), []
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    for argv in {argvs!r}:
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps({{"stdout": out.getvalue(), "stderr": err.getvalue(), "codes": codes,
                  "modules": [m for m in {watched!r} if m in sys.modules]}}))
"""


def _cold_call(*argvs, flags=("-I",), watched=("argparse", "gettext", "locale")):
    """Run `cli.main` on each argv in one fresh interpreter started with
    `flags`; report the output, the exit codes and which of the `watched`
    modules are loaded at the end."""
    script = COLD_CALL.format(src=str(SRC), argvs=list(argvs), watched=list(watched))
    proc = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True,
                          env={**os.environ, "COLUMNS": "80"})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


REPEATED_DERIVE = """
import contextlib, gc, io, sys
sys.path.insert(0, {src!r})
from walgebra import cli
with contextlib.redirect_stdout(io.StringIO()):
    for _ in range(60):
        cli.main(["derive", "--p", "3"])
before = len(gc.get_objects())
gc.collect()
print(before - len(gc.get_objects()))
"""


def test_repeated_calls_in_one_process_leave_bounded_garbage():
    # A derive's spec refers to its engine, and the engine to the spec only
    # weakly, so reference counting frees both when the command returns and
    # 60 calls leave a few hundred objects for the collector.  A strong back
    # reference leaves a cycle of about 700 objects per call (4,000 to
    # 10,000 uncollected); promoting the heap into the oldest generation on
    # every call, not only the first, leaves about 42,000.
    proc = subprocess.run([sys.executable, "-I", "-c", REPEATED_DERIVE.format(src=str(SRC))],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1_000


def _plain_calls(tmp_path) -> list[list[str]]:
    """One call of each command in its plain form."""
    out = ["--out", str(tmp_path / "out")]
    return [["bracket", "--virasoro", "--left", "T:2", "--right", "T:-2", *out],
            ["character", "--p", "2", "--cutoff", "8", *out],
            ["verma-character", "--p", "2", "--cutoff", "8", *out],
            ["char-diff", "--p", "3", "--left", "verma", "--right", "triplet",
             "--level", "8", "--format", "json", *out],
            ["derive", "--p", "2", *out],
            ["certify-c2", "--format", "json", *out],
            ["verify-singular", "--solve-mode", *out]]


def test_plain_calls_never_import_argparse(tmp_path):
    result = _cold_call(*_plain_calls(tmp_path))
    assert result["codes"] == [0] * 7, result["stderr"]
    assert result["modules"] == []


def test_cold_start_imports_no_typing_pathlib_or_zipfile(tmp_path):
    # -S as well as -I: a site .pth file may import these modules before any
    # walgebra code runs.  The calls include a load of the packaged spec.
    result = _cold_call(*_plain_calls(tmp_path), flags=("-I", "-S"),
                        watched=("typing", "importlib.resources", "zipfile", "pathlib"))
    assert result["codes"] == [0] * 7, result["stderr"]
    assert result["modules"] == []


@pytest.mark.parametrize("name", ["derive_help", "derive_bad_p"])
def test_help_and_usage_errors_import_argparse(name):
    case = PARITY["cases"][name]
    result = _cold_call(case["argv"])
    assert "argparse" in result["modules"]
    assert result["codes"] == [case["exit"]]
    if "%d.%d" % sys.version_info[:2] == PARITY["python"]:
        assert (result["stdout"], result["stderr"]) == (case["stdout"], case["stderr"])


CHARACTER_FUNCTIONS = {
    "verma": lambda p, n: verma_character([2] + [2 * p - 1] * 3,
                                          central_charge_p1(p), n),
    "triplet": triplet_character,
    "chi-tilde": chi_tilde,
}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("left, right",
                         list(itertools.permutations(CHARACTER_FUNCTIONS, 2)))
def test_char_diff_matches_full_cutoff(p, left, right):
    # the full series through --cutoff 40, as char-diff once computed them
    a = CHARACTER_FUNCTIONS[left](p, 40)
    b = CHARACTER_FUNCTIONS[right](p, 40)
    for level in ("-1", "0", "6", str(2 * p + 2), str(4 * p - 2), "17/2", "40", "41"):
        try:
            want = (f"{diff_at_level(a, b, Fraction(level))}\n", "", 0)
        except QSeriesError as exc:
            want = ("", f"error: bad level {level!r}: {exc}\n", 2)
        argv = ["char-diff", "--p", str(p), "--left", left, "--right", right,
                "--level", level, "--cutoff", "40"]
        assert _main(argv) == want, argv


def test_char_diff_computes_only_through_its_level(monkeypatch):
    asked = []
    for name in ("verma_character", "triplet_character", "chi_tilde"):
        original = getattr(cli, name)

        def recording(*args, _original=original):
            asked.append(args[-1])
            return _original(*args)

        monkeypatch.setattr(cli, name, recording)
    argv = ["char-diff", "--p", "2", "--left", "verma", "--right", "triplet",
            "--level", "6", "--cutoff"]
    assert _main(argv + ["20000"]) == ("9\n", "", 0)
    assert asked and max(asked) <= 6
    assert _main(argv + ["200"]) == ("9\n", "", 0)


@pytest.mark.parametrize("p, level, cutoff, message", [
    ("2", "1000000", "20000",
     "exponent 12000001/12 beyond validity (cutoff index 20000)"),
    ("3", "41", "40", "exponent 991/24 beyond validity (cutoff index 40)"),
    ("2", "1/2", "50", "exponent 7/12 is off-lattice"),
    ("3", "5/2", "20000", "exponent 67/24 is off-lattice"),
])
def test_char_diff_refuses_a_level_before_computing(monkeypatch, p, level,
                                                    cutoff, message):
    # the Verma character alone took about a minute at cutoff 20000, only
    # for the level to be refused after it
    def refuse(*args):
        raise AssertionError("a character series was computed")

    monkeypatch.setattr(cli, "_character_series", refuse)
    argv = ["char-diff", "--p", p, "--left", "verma", "--right", "chi-tilde",
            "--level", level, "--cutoff", cutoff]
    assert _main(argv) == ("", f"error: bad level {level!r}: {message}\n", 2)


def test_char_diff_values():
    assert run_cli("char-diff", "--p", "3", "--left", "verma", "--right",
                   "triplet", "--level", "8").stdout.strip() == "3"
    assert run_cli("char-diff", "--p", "2", "--left", "chi-tilde", "--right",
                   "triplet", "--level", "6").stdout.strip() == "6"


def test_out_flag(tmp_path):
    target = tmp_path / "out.txt"
    proc = run_cli("char-diff", "--p", "2", "--left", "verma", "--right",
                   "triplet", "--level", "6", "--out", str(target))
    assert proc.returncode == 0
    assert target.read_text().strip() == "9"


def test_derive_json_schema():
    proc = run_cli("derive", "--p", "3", "--format", "json")
    doc = json.loads(proc.stdout)
    for key in ("p", "delta", "beta_ww_prime", "B_quasiprimary", "xi",
                "B_primary", "alpha_zero_consistent", "difference"):
        assert key in doc
    assert doc["p"] == 3 and doc["delta"] == 5
    assert doc["alpha_zero_consistent"] is False
    assert len(doc["xi"]) == 3


def test_golden_certificate_reverifies():
    from walgebra.c2 import certificate_from_json, verify_certificate
    from walgebra.singular import load_triplet_p2_spec

    cert = certificate_from_json((GOLDEN / "certificate_p2.json").read_text())
    ok, _ = verify_certificate(cert, load_triplet_p2_spec())
    assert ok

"""The benchmark's workloads: what one pass runs, and how its outputs are checked.

A pass is a list of operations.  ``plan`` builds it from a seeded RNG; the
worker (a fresh interpreter) runs it; ``check`` judges each result against the
oracles in ``oracles.py``.  An operation *fails* when it raises, exits with the
wrong code or returns the wrong verdict; a completed operation whose output
disagrees with its oracle makes the run incorrect.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import oracles

WORKLOADS = ("derive", "characters", "certify-solve")

# Every job of a timed pass takes about a second or less, so that the
# reference probes around it see the host speed it ran at (see run.py).
# derive --p 5 (about 10 s) therefore runs once per run, ahead of the passes,
# and in every traced pass.
DERIVE_PASS = [2, 3, 4]
DERIVE_HEADLINE = 5
TRIPLET_P, TRIPLET_CUTOFF = 3, 600
VERMA_P, VERMA_CUTOFF = 5, 200
CHI_DIFF = (2, "chi-tilde", "triplet", 6, 200)  # level 4p-2, difference 6
VERMA_DIFF = (5, "verma", "triplet", 12, 200)  # level 2p+2, difference 3

# Factors applied to one term of one certificate step.  Each must be rejected
# on every step and term: the changed coefficient breaks the step's own rule
# or the residual of a later step that cites it.
MULTIPLIERS = ("2", "3", "-1", "-2", "1/2", "1/3", "-3/7", "5/4")
GARBAGE = " + GARBAGE (7) T(-9) junk"
TABLE_NAMES = ("c1", "c2", "c3", "c4", "c5", "c6")


def _cli(name, argv, check, rc=0, phase="pass"):
    return {"kind": "cli", "name": name, "argv": argv, "check": check,
            "rc": rc, "phase": phase}


def _char_diff(p, left, right, level, cutoff):
    return ["char-diff", "--p", str(p), "--left", left, "--right", right,
            "--level", str(level), "--cutoff", str(cutoff)]


def plan(workload: str, rng: random.Random, mode: str = "plain") -> list[dict]:
    """Operations of one pass of ``mode``: ``plain`` (timed), ``traced``,
    ``counted`` (the Poly counters' pass: p = 4 alone for derive) or
    ``headline`` (the once-per-run job: derive --p 5, nothing elsewhere)."""
    if mode == "headline" and workload != "derive":
        return []
    if workload == "derive":
        ps = {"plain": DERIVE_PASS, "traced": DERIVE_PASS + [DERIVE_HEADLINE],
              "counted": [4], "headline": [DERIVE_HEADLINE]}[mode][:]
        rng.shuffle(ps)
        return [_cli(f"derive_p{p}", ["derive", "--p", str(p), "--format", "json"],
                     {"kind": "derive", "p": p}) for p in ps]
    if workload == "characters":
        ops = [
            _cli("triplet_char", ["character", "--p", str(TRIPLET_P),
                                  "--cutoff", str(TRIPLET_CUTOFF)],
                 {"kind": "triplet", "p": TRIPLET_P, "cutoff": TRIPLET_CUTOFF}),
            _cli("verma_char", ["verma-character", "--p", str(VERMA_P),
                                "--cutoff", str(VERMA_CUTOFF)],
                 {"kind": "verma", "p": VERMA_P, "cutoff": VERMA_CUTOFF}),
            _cli("char_diff_chi", _char_diff(*CHI_DIFF),
                 {"kind": "diff", "value": 6}),
            _cli("char_diff_verma", _char_diff(*VERMA_DIFF),
                 {"kind": "diff", "value": "oracle", "p": VERMA_DIFF[0],
                  "level": VERMA_DIFF[3]}),
            # the example level of char-diff's own --help is off the lattice
            _cli("char_diff_off_lattice",
                 ["char-diff", "--p", "3", "--left", "verma", "--right", "triplet",
                  "--level", "17/2"],
                 {"kind": "error_line"}, rc=2),
        ]
        rng.shuffle(ops)
        return ops
    if workload == "certify-solve":
        return [
            _cli("certify", ["certify-c2", "--format", "json"], {"kind": "certificate"},
                 phase="certificate"),
            {"kind": "replay", "name": "replay", "source": "certify",
             "expect": True, "phase": "certificate"},
            {"kind": "corrupt", "name": "corrupt", "source": "certify",
             "seed": rng.randrange(2 ** 32), "multipliers": list(MULTIPLIERS),
             "expect": False, "phase": "certificate"},
            {"kind": "garbage", "name": "garbage_replay", "source": "certify",
             "suffix": GARBAGE, "expect": False, "phase": "certificate"},
            _cli("solve", ["verify-singular", "--solve-mode", "--format", "json"],
                 {"kind": "solve"}, phase="singular"),
            {"kind": "plain_verify", "name": "plain_verify", "source": "solve",
             "expect": True, "phase": "singular"},
        ] + [
            {"kind": "perturb", "name": f"perturb_{name}", "coefficient": name,
             "delta": str(Fraction(rng.choice((1, -1)), 5)), "expect": False,
             "phase": "singular"}
            for name in TABLE_NAMES
        ]
    raise ValueError(f"unknown workload {workload!r}")


class Oracles:
    """Oracle tables, computed once per run and checked before use."""

    def __init__(self):
        self._partitions: list[int] | None = None
        self._verma: dict = {}

    def partitions(self, n_max: int) -> list[int]:
        if self._partitions is None or len(self._partitions) <= n_max:
            self._partitions = oracles.partition_numbers(max(n_max, 1000))
            oracles.check_partitions(self._partitions)
        return self._partitions[: n_max + 1]

    def triplet(self, p: int, n_max: int) -> list[int]:
        return oracles.triplet_coefficients(p, self.partitions(n_max))

    def verma(self, p: int, n_max: int) -> list[int]:
        key = (p, n_max)
        if key not in self._verma:
            self._verma[key] = oracles.verma_coefficients(p, n_max)
        return self._verma[key]


def _series_problems(text: str, p: int, want: list[int]) -> list[str]:
    """Compare rendered ``exponent: coefficient`` lines with an oracle list."""
    lead = -oracles.central_charge(p) / 24
    got: dict[int, Fraction] = {}
    for line in text.splitlines():
        exponent, coefficient = line.split(": ")
        n = Fraction(exponent) - lead
        if n.denominator != 1:
            return [f"exponent {exponent} is not lead + integer"]
        got[int(n)] = Fraction(coefficient)
    expect = {n: Fraction(c) for n, c in enumerate(want) if c}
    if got != expect:
        bad = sorted(n for n in set(got) | set(expect) if got.get(n) != expect.get(n))
        return [f"{len(bad)} coefficients differ from the oracle, first at level {bad[0]}"]
    return []


def _derive_problems(text: str, p: int) -> list[str]:
    doc = json.loads(text)
    problems = []
    if doc["p"] != p or doc["delta"] != 2 * p - 1:
        problems.append("wrong p or delta")
    if doc["alpha_zero_consistent"] is not False:
        problems.append("alpha_zero_consistent is not false")
    fields = {
        "beta_ww_prime": doc["beta_ww_prime"],
        "B_quasiprimary": doc["B_quasiprimary"],
        "B_primary": doc["B_primary"],
        "gamma_sum": doc["gamma_sum"],
        "xi1": doc["xi"][0], "xi2": doc["xi"][1], "xi3": doc["xi"][2],
        "difference": doc["difference"],
    }
    for key, want in oracles.derivation_closed_forms(p).items():
        if oracles.parse_linear(fields[key]) != want:
            problems.append(f"{key} = {fields[key]} disagrees with the closed form")
    return problems


def _cli_problems(check: dict, text: str, stderr: str, tables: Oracles) -> list[str]:
    kind = check["kind"]
    if kind == "derive":
        return _derive_problems(text, check["p"])
    if kind == "triplet":
        want = tables.triplet(check["p"], check["cutoff"])
        if any(c < 0 for c in want):
            return ["triplet oracle has a negative coefficient"]
        return _series_problems(text, check["p"], want)
    if kind == "verma":
        return _series_problems(text, check["p"],
                                tables.verma(check["p"], check["cutoff"]))
    if kind == "diff":
        want = check["value"]
        if want == "oracle":
            p, level = check["p"], check["level"]
            want = tables.verma(p, level)[level] - tables.triplet(p, level)[level]
            if want != 3:
                return [f"oracle difference at level 2p+2 is {want}, not 3"]
        return [] if Fraction(text.strip()) == want else [
            f"difference {text.strip()} != {want}"]
    if kind == "certificate":
        doc = json.loads(text)
        labels = {s["id"]: s["label"] for s in doc["steps"]}
        targets = {labels.get(t) for t in doc["targets"]}
        missing = {"W1(-3)^3 |0> in C2", "L(-2)^6 |0> in C2"} - targets
        return [f"targets lack {sorted(missing)}"] if missing else []
    if kind == "solve":
        doc = json.loads(text)
        report = doc["report"]
        got = {k: oracles.parse_linear(v) for k, v in report["assignment"].items()}
        want = {"uT": {"": Fraction(3)}, "uL": {"": Fraction(4)},
                "uW": {"I": Fraction(5)}, "uX": {"I": Fraction(12, 5)}}
        if doc["ok"] is not True or got != want:
            return [f"solve mode gave {report['assignment']}"]
        return []
    if kind == "error_line":
        lines = stderr.splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: "):
            return [f"expected one 'error:' line, got {stderr!r}"]
        return []
    raise ValueError(f"unknown check {kind!r}")


def check(op: dict, result: dict, tables: Oracles) -> tuple[bool, list[str]]:
    """(failed, problems) for one operation's result."""
    if result.get("error"):
        return True, [result["error"]]
    if op["kind"] != "cli":
        return result["value"] != op["expect"], []
    if result["rc"] != op["rc"]:
        return True, [f"exit code {result['rc']}, expected {op['rc']}"]
    try:
        return False, _cli_problems(op["check"], result["text"], result["stderr"],
                                    tables)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return False, [f"unreadable output: {type(exc).__name__}: {exc}"]

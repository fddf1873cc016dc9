"""Replayable certificates of C_n-membership for the c = -2 triplet algebra.

A claim asserts that the vector of a formal mode expression lies in C_2 of
the vacuum algebra, justified by one of six mechanically checkable rules:

* ManifestMember     -- the leftmost mode is deep enough (math index <= -n,
                        n >= 2, so that C_n lies in C_2);
* PrefixInvariance   -- nonpositive-math-index modes prefix an earlier claim;
* SingularRewrite    -- the vector equals manifest material modulo the
                        declared null vectors, cancelling formally;
* WeightBoundedBracket -- a [W,W] commutator with no central term, whose
                        declared channels all land at math index <= -2,
                        replayed exactly as states;
* Reorder            -- nonpositive conformal modes moved across the W modes
                        of an earlier claim, every commutator fired on the
                        way free of central terms and prefixed-manifest;
* LinearCombination  -- combination of earlier claims plus manifest
                        remainder, cancelling formally.

A rule names the earlier claims it rests on (its `base` or `parts`); replay,
one pass in file order, accepts only steps it has already verified there.
Certificates are self-contained: they carry the null-vector coefficient
table, and verification uses only the algebra spec plus the certificate body.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import AlgebraSpec, Mode, Record, bracket, decoded, keyed, parsed, typed
from .engine import State, render_terms
from .scalar import (PARSE_CACHE_SIZE, Poly, parse_poly, parse_rational, quoted,
                     render_poly, sum_products)
from .singular import DEFAULT_TABLE, SingularTable, null_vector_terms

Expression = tuple[tuple[Poly, tuple[Mode, ...]], ...]
"""A formal sum of (coefficient, mode sequence) terms, each sequence applied
to the vacuum.  `expression` builds every one in its normal form: one nonzero
term per sequence, sorted by sequence."""


class CertificateError(ValueError):
    pass


def expression(*terms) -> Expression:
    """The sum of `(coefficient, mode sequence)` terms in normal form: the
    coefficients of each sequence summed, zero terms dropped and the rest
    sorted by sequence, the order `render_expression` writes.  A coefficient
    is a Poly or an exact number; a term `(coefficient, factor, mode
    sequence)` has the product of the two as its coefficient.  The one
    routine that sums formal terms, so two expressions that state the same
    formal sum are equal tuples; each sequence's coefficient is one
    `scalar.sum_products`."""
    acc: dict[tuple[Mode, ...], list] = {}
    for term in terms:
        if len(term) == 2:
            pair, seq = (term[0], 1), tuple(term[1])
        else:
            pair, seq = term[:2], tuple(term[2])
        acc.setdefault(seq, []).append(pair)
    out = [(c, s) for s, pairs in acc.items() if (c := sum_products(pairs))]
    return tuple(sorted(out, key=lambda t: t[1]))


def expr_prefix(prefix: tuple[Mode, ...], a: Expression) -> Expression:
    return tuple((c, tuple(prefix) + s) for c, s in a)


def math_index(mode: Mode, spec: AlgebraSpec) -> int:
    """The mathematics index of a mode, n + h - 1 for a field of weight h."""
    return mode.n + spec.weight_of(mode.field) - 1


def manifest_member(word: tuple[Mode, ...], n: int, spec: AlgebraSpec) -> bool:
    """Leftmost-mode membership test for C_n: math index <= -n (for n = 1
    additionally the field must have positive weight)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not word:
        return False
    lead = word[0]
    if math_index(lead, spec) > -n:
        return False
    if n == 1 and spec.weight_of(lead.field) <= 0:
        return False
    return True


def prefixed_manifest(seq: tuple[Mode, ...], n: int, spec: AlgebraSpec) -> bool:
    """Composition of the prefix-invariance and leftmost rules: all modes at
    math index <= 0 and some mode at math index <= -n."""
    if not seq:
        return False
    idx = [math_index(m, spec) for m in seq]
    return all(i <= 0 for i in idx) and any(i <= -n for i in idx)


# --- rules -------------------------------------------------------------------


class _Rule(Record):
    """A rule kind: its fields are its JSON params, written by field name,
    and `name` is its name in a certificate.  A rule is the tuple (kind,
    *fields), so it builds, hashes and compares in C, as the key of a
    replay's verdict memo; rules of two kinds never compare equal, whatever
    their fields.

    Each kind defines `check(vector, proved, table, spec)`, the replay of a
    step whose citations and stated vector `_check_rule` has already
    checked, and overrides `cites` and `implied` where it cites earlier
    claims or states its vector outright.  `reads_table` is true for a kind
    whose check reads the null-vector table."""

    __slots__ = ()
    reads_table = False

    def cites(self) -> tuple[int, ...]:
        """The earlier claims the rule rests on, in order."""
        return ()

    def implied(self, proved: dict[int, Expression]) -> Expression | None:
        """The vector the rule states outright, from its params and the
        proved vectors of the claims it cites; None if it states none."""
        return None


class ManifestMemberRule(_Rule):
    __slots__ = ()
    _fields = ("n",)
    _defaults = {"n": 2}
    name = "ManifestMember"

    def check(self, vector, proved, table, spec):
        if self.n < 2:
            return False, f"depth n={self.n} does not imply C2 membership (n >= 2)"
        for _, seq in vector:
            if not manifest_member(seq, self.n, spec):
                return False, f"term {seq} is not manifest at n={self.n}"
        return True, ""


class PrefixInvarianceRule(_Rule):
    __slots__ = ()
    _fields = ("prefix", "base")
    name = "PrefixInvariance"

    def cites(self):
        return (self.base,)

    def implied(self, proved):
        return expr_prefix(self.prefix, proved[self.base])

    def check(self, vector, proved, table, spec):
        for m in self.prefix:
            if math_index(m, spec) > 0:
                return False, f"prefix mode {m} has positive math index"
        return True, ""


class SingularRewriteRule(_Rule):
    # combination sum coeff * N^(a,b) subtracted from the claim vector
    __slots__ = ()
    _fields = ("nulls", "remainder")
    name = "SingularRewrite"
    reads_table = True

    def check(self, vector, proved, table, spec):
        nulls = [(c, null_vector_terms(a, b, table)) for c, (a, b) in self.nulls]
        return _combination(vector, nulls, self.remainder, spec)


class WeightBoundedBracketRule(_Rule):
    """Single commutator [a, b] applied to `right`: every declared channel
    is weight-bounded, hence lands at manifest depth."""

    __slots__ = ()
    _fields = ("a", "b", "right")
    name = "WeightBoundedBracket"

    def implied(self, proved):
        return expression((1, (self.a, self.b) + self.right),
                          (-1, (self.b, self.a) + self.right))

    def check(self, vector, proved, table, spec):
        msum = self.a.n + self.b.n
        for (i, j) in ((self.a.field, self.b.field), (self.b.field, self.a.field)):
            for k, _ in spec.channels(i, j):
                if math_index(Mode(k, msum), spec) > -2:
                    return False, f"channel mode {k}({msum}) is not manifest"
        engine = spec.engine
        ops = bracket(self.a, self.b, spec)
        if ops.central:
            return False, f"central term {render_poly(ops.central)} is not in C2"
        # replay the channel expansion exactly
        lhs = engine.evaluate(vector)
        rhs = State()
        right_state = engine.normal_order(self.right)
        for coeff, mode in ops.terms:
            rhs = rhs + engine.apply_mode(mode, right_state).scale(coeff)
        residual = lhs - rhs
        if residual:
            return False, f"bracket replay residual: {residual.render()}"
        return True, ""


class ReorderRule(_Rule):
    """Move a block of nonpositive-math-index conformal modes across a block
    of W modes; every commutator fired on the way is weight-bounded and its
    term is manifestly deep.  The base claim holds the reordered composition.

    A replayed chain of WeightBoundedBracket steps."""

    __slots__ = ()
    _fields = ("prefix", "block", "base")
    name = "Reorder"

    def cites(self):
        return (self.base,)

    def implied(self, proved):
        return expression((1, self.prefix + self.block))

    def check(self, vector, proved, table, spec):
        for m in self.prefix:
            if math_index(m, spec) > 0 or m.field != "T":
                return False, f"reorder prefix mode {m} not allowed"
        if proved[self.base] != expression((1, self.block + self.prefix)):
            return False, "base claim does not hold the reordered composition"
        failure = _walk_reorder(self.prefix, self.block, spec)
        return not failure, failure


class LinearCombinationRule(_Rule):
    __slots__ = ()
    _fields = ("parts", "remainder")
    _defaults = {"remainder": ()}
    name = "LinearCombination"

    def cites(self):
        return tuple(claim_id for _, claim_id in self.parts)

    def check(self, vector, proved, table, spec):
        parts = [(c, proved[claim_id]) for c, claim_id in self.parts]
        return _combination(vector, parts, self.remainder, spec)


# a dataclass only because bench/worker.py calls dataclasses.replace on a step
@dataclass(frozen=True)
class MembershipClaim:
    id: int
    vector: Expression
    rule: _Rule
    label: str = ""


class Certificate(Record):
    """A certificate's null-vector table, its steps in file order and the ids
    of its targets.  Its step and target lists can grow and have entries
    swapped; `_replace` gives a certificate with another table."""

    __slots__ = ()
    _fields = ("table", "steps", "targets")


class StepReport(namedtuple("StepReport", "id ok label detail", defaults=("",))):
    __slots__ = ()


# --- verification ------------------------------------------------------------


def _combination(vector: Expression, known: list[tuple[Poly, Expression]],
                 remainder: Expression, spec: AlgebraSpec) -> tuple[bool, str]:
    """vector - sum coeff * known - remainder cancels formally, and every
    remainder term is prefixed-manifest."""
    for _, seq in remainder:
        if not prefixed_manifest(seq, 2, spec):
            return False, f"remainder term {seq} is not prefixed-manifest"
    scaled = [(-coeff, terms) for coeff, terms in known]
    residual = expression(*vector, *((c, -1, s) for c, s in remainder),
                          *((c, f, s) for f, terms in scaled for c, s in terms))
    if residual:
        return False, f"residual: {render_expression(residual)}"
    return True, ""


def _walk_reorder(prefix: tuple[Mode, ...], block: tuple[Mode, ...],
                  spec: AlgebraSpec) -> str:
    """Rewrite the composition prefix+block as block+prefix plus bracket
    terms by pairwise mode brackets.  Returns why that fails (a central term,
    or a bracket term that is not prefixed-manifest), or "" if it does not."""
    done: list[tuple[Poly, tuple[Mode, ...]]] = []
    work = [(Poly.const(1), prefix + block)]
    while work:
        coeff, seq = work.pop()
        for i in range(len(seq) - 1):
            x, y = seq[i], seq[i + 1]
            if x.field == "T" and y.field != "T":  # move every T right past every W
                swapped = seq[:i] + (y, x) + seq[i + 2:]
                work.append((coeff, swapped))
                ops = bracket(x, y, spec)
                if ops.central:
                    return (f"[{x.render()}, {y.render()}] has central term "
                            f"{render_poly(ops.central)}, which is not in C2")
                for c2, mode in ops.terms:
                    work.append((coeff * c2, seq[:i] + (mode,) + seq[i + 2:]))
                break
        else:
            done.append((coeff, seq))
    # the swaps alone give block+prefix once; every bracket term is shorter
    for _, seq in expression(*done, (-1, block + prefix)):
        if not prefixed_manifest(seq, 2, spec):
            return f"trace term {seq} is not prefixed-manifest"
    return ""


def _check_rule(claim: MembershipClaim, proved: dict[int, Expression],
                table: SingularTable, spec: AlgebraSpec) -> tuple[bool, str]:
    """Replay one step against the vectors of the steps verified before it:
    its rule's citations must name verified steps, and a vector the rule
    states must be the claim's, before the rule's own `check` runs.

    `verify_certificate` memoizes the verdict under a key of everything read
    here besides the spec, so whatever this starts to read must join that
    key."""
    rule = claim.rule
    if any(claim_id not in proved for claim_id in rule.cites()):
        return False, "cites a claim that is not an earlier verified step"
    want = rule.implied(proved)
    if want is not None and claim.vector != want:
        return False, f"vector is not the one the {rule.name} rule states"
    return rule.check(claim.vector, proved, table, spec)


def verify_certificate(cert: Certificate, spec: AlgebraSpec
                       ) -> tuple[bool, list[StepReport]]:
    """Replay every step in file order, each against the steps verified
    before it; returns overall validity and per-step reports.  Verification
    stops at the first failing step.

    A step's verdict depends only on the spec and on what `_check_rule`
    reads: the rule, the claim vector, the vectors of the steps the rule
    cites (in `cites()` order) and, for a rule that reads it, the table.  It
    is memoized on the spec's engine under that key, so a later replay on
    the same spec checks only the steps whose key it has not seen."""
    memo = spec.engine.verdict_memo
    # the table enters a key as the int pairs of its exact coefficients,
    # worked out once per table
    table_key = cert.table.key
    proved: dict[int, Expression] = {}
    reports: list[StepReport] = []
    for claim in cert.steps:
        if claim.id in proved:
            ok, detail = False, "duplicate step id"
        else:
            rule = claim.rule
            key = (rule, claim.vector, tuple(map(proved.get, rule.cites())),
                   table_key if rule.reads_table else None)
            verdict = memo.get(key)
            if verdict is None:
                verdict = memo[key] = _check_rule(claim, proved, cert.table, spec)
            ok, detail = verdict
        reports.append(StepReport(claim.id, ok, claim.label, detail))
        if not ok:
            return False, reports
        proved[claim.id] = claim.vector
    missing = [t for t in cert.targets if t not in proved]
    if missing:
        reports.append(StepReport(-1, False, "targets",
                                  f"targets {missing} have no step"))
        return False, reports
    return True, reports


# --- the p = 2 certificate ------------------------------------------------------


def _w(a: int, n: int = -3) -> Mode:
    return Mode(f"W{a}", n)


def _t(n: int) -> Mode:
    return Mode("T", n)


def certify_triplet_p2(table: SingularTable | None = None) -> Certificate:
    """Certificate that (W^a_{-3})^m O (m = 3,4,5), the mixed and difference
    quadratics, and L_{-2}^6 O all lie in C_2, from the declared level-6
    null vectors."""
    table = table or DEFAULT_TABLE
    if table.c1 == 0:
        raise CertificateError(
            "the L_{-2}^3 coefficient of the null vector must be nonzero"
        )
    cert = Certificate(table, [], [])
    proved: dict[int, Expression] = {}

    def add(rule, vector=None, label="", target=False):
        """Append a claim; the vector defaults to the one the rule states."""
        claim_id = len(cert.steps) + 1
        if vector is None:
            vector = rule.implied(proved)
        proved[claim_id] = vector
        cert.steps.append(MembershipClaim(claim_id, vector, rule, label))
        if target:
            cert.targets.append(claim_id)
        return claim_id

    def rewrite(vector: Expression, a: int, b: int) -> SingularRewriteRule:
        """vector = N^ab + what remains of vector once N^ab is subtracted."""
        remainder = expression(*vector,
                               *((c, -1, s) for c, s in null_vector_terms(a, b, table)))
        return SingularRewriteRule(((Poly.const(1), (a, b)),), remainder)

    # mixed quadratics W^a W^b O for a != b
    mixed_ids = {}
    for a, b in ((1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2)):
        quadratic = expression((1, (_w(a), _w(b))))
        mixed_ids[(a, b)] = add(
            rewrite(quadratic, a, b),
            quadratic,
            label=f"W{a}(-3) W{b}(-3) |0> in C2",
            target=True,
        )

    # difference of squares
    diff_id = add(
        SingularRewriteRule(
            ((Poly.const(1), (1, 1)), (Poly.const(-1), (2, 2))), ()
        ),
        expression((1, (_w(1), _w(1))), (-1, (_w(2), _w(2)))),
        label="(W1(-3)^2 - W2(-3)^2) |0> in C2",
        target=True,
    )

    # cube: W1^3 = W1 (W1^2 - W2^2) + W2 (W1 W2) + [W1, W2] W2
    sq_prefix = add(
        PrefixInvarianceRule((_w(1),), diff_id),
        label="W1(-3) (W1^2 - W2^2) |0> in C2",
    )
    swap_prefix = add(
        PrefixInvarianceRule((_w(2),), mixed_ids[(1, 2)]),
        label="W2(-3) W1(-3) W2(-3) |0> in C2",
    )
    bracket_id = add(
        WeightBoundedBracketRule(_w(1), _w(2), (_w(2),)),
        label="[W1(-3), W2(-3)] W2(-3) |0> in C2",
    )
    cube_id = add(
        LinearCombinationRule(
            ((Poly.const(1), sq_prefix), (Poly.const(1), swap_prefix),
             (Poly.const(1), bracket_id)),
        ),
        expression((1, (_w(1), _w(1), _w(1)))),
        label="W1(-3)^3 |0> in C2",
        target=True,
    )

    # higher powers
    power_ids = {3: cube_id}
    for m in (4, 5):
        power_ids[m] = add(
            PrefixInvarianceRule((_w(1),), power_ids[m - 1]),
            label=f"W1(-3)^{m} |0> in C2",
            target=True,
        )

    # W1^2 - c1 L_{-2}^3
    l2cube = (_t(-2), _t(-2), _t(-2))
    shifted = expression((1, (_w(1), _w(1))), (-table.c1, l2cube))
    shifted_id = add(
        rewrite(shifted, 1, 1),
        shifted,
        label="(W1(-3)^2 - c1 L(-2)^3) |0> in C2",
    )

    # W1^2 (W1^2 - c1 L^3)
    w2_shift = add(
        PrefixInvarianceRule((_w(1), _w(1)), shifted_id),
        label="W1^2 (W1^2 - c1 L(-2)^3) |0> in C2",
    )

    # W1^2 L^3 = (1/c1)(W1^4 - W1^2 (W1^2 - c1 L^3))
    inv_c1 = Fraction(1) / table.c1
    cross1 = add(
        LinearCombinationRule(
            ((Poly.const(inv_c1), power_ids[4]),
             (Poly.const(-inv_c1), w2_shift)),
        ),
        expression((1, (_w(1), _w(1)) + l2cube)),
        label="W1(-3)^2 L(-2)^3 |0> in C2",
    )

    # L^3 W1^2 = W1^2 L^3 + weight-bounded commutator trace
    cross2 = add(
        ReorderRule(l2cube, (_w(1), _w(1)), cross1),
        label="L(-2)^3 W1(-3)^2 |0> in C2",
    )

    # L^3 (W1^2 - c1 L^3)
    l3_shift = add(
        PrefixInvarianceRule(l2cube, shifted_id),
        label="L(-2)^3 (W1^2 - c1 L(-2)^3) |0> in C2",
    )

    # c1^2 L^6 = (W1^2 - c1 L^3)^2 expanded through the claims above
    inv_c1_sq = inv_c1 * inv_c1
    add(
        LinearCombinationRule(
            (
                (Poly.const(inv_c1_sq), w2_shift),
                (Poly.const(-inv_c1), l3_shift),
                (Poly.const(-inv_c1_sq), power_ids[4]),
                (Poly.const(inv_c1), cross1),
                (Poly.const(inv_c1), cross2),
            ),
        ),
        expression((1, l2cube + l2cube)),
        label="L(-2)^6 |0> in C2",
        target=True,
    )

    return cert


# --- serialization ----------------------------------------------------------------

# The patterns of an expression text, compiled by `_patterns` on first use:
# only a certificate load reads them, so importing c2 compiles nothing.
_MODE_RE = r"([A-Za-z_][A-Za-z0-9_]*)\((-?\d+)\)"
_TERM_RE = r"\(([^)]*)\)\s*((?:\s*[A-Za-z_][A-Za-z0-9_]*\(-?\d+\))*)\s*\|0>"
_SEP_RE = r"\s*\+\s*"


@lru_cache(maxsize=None)
def _patterns() -> tuple[re.Pattern, re.Pattern, re.Pattern]:
    """The mode, term and separator patterns, compiled once."""
    return re.compile(_MODE_RE), re.compile(_TERM_RE), re.compile(_SEP_RE)


def render_expression(a: Expression) -> str:
    return render_terms(sorted(a, key=lambda t: t[1]))


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_expression(text: str) -> Expression:
    """The expression a `render_expression` text states.

    Like `scalar.parse_poly`, the last `PARSE_CACHE_SIZE` distinct texts
    parsed are cached, so a certificate loaded again parses each vector and
    remainder once; every caller gets the same tuple.  A text that does not
    parse raises CertificateError each time it is given (errors are not
    cached)."""
    text = text.strip()
    if text == "0":
        return ()
    mode_re, term_re, sep_re = _patterns()
    out = []
    pos = 0
    while True:
        # each term starts where the previous " + " ended; nothing is skipped
        m = term_re.match(text, pos)
        if m is None:
            raise CertificateError(f"cannot parse expression {quoted(text)} at {pos}")
        try:
            coeff = parse_poly(m.group(1))
        except ValueError as exc:
            raise CertificateError(f"bad coefficient in expression {quoted(text)}: "
                                   f"{exc}") from exc
        out.append(
            (coeff, tuple(Mode(f, int(n)) for f, n in mode_re.findall(m.group(2))))
        )
        pos = m.end()
        if pos == len(text):
            return expression(*out)
        sep = sep_re.match(text, pos)
        if sep is None:
            raise CertificateError(f"cannot parse expression {quoted(text)} at {pos}")
        pos = sep.end()


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def _mode_from_text(text: str) -> Mode | None:
    """The mode a text such as "W1(-3)" states, or None, also for an index
    with more digits than `int` converts; like `parse_expression`, the last
    `PARSE_CACHE_SIZE` distinct texts are cached, so a certificate loaded
    again parses each mode text once."""
    m = _patterns()[0].fullmatch(text.strip())
    if m is None:
        return None
    try:
        return Mode(m.group(1), int(m.group(2)))
    except ValueError:  # past the interpreter's int-conversion digit limit
        return None


_RULES = {rule.name: rule for rule in _Rule.__subclasses__()}
_NULL_COEFFICIENTS = SingularTable._fields


# each JSON object of a certificate: its required keys, then its optional ones
_KEYS = {
    "the certificate": ({"null_coefficients", "steps", "targets"}, frozenset()),
    "null_coefficients": (set(_NULL_COEFFICIENTS), frozenset()),
    "a step": ({"id", "claim", "rule", "params"}, {"label"}),
    "a claim": ({"vector", "space"}, frozenset()),
    "a null": ({"coeff", "a", "b"}, frozenset()),
    "a part": ({"coeff", "id"}, frozenset()),
    **{f"{name} params": (set(rule._fields), frozenset())
       for name, rule in _RULES.items()},
}
# the keys of each object with and without all its optional ones
_KEY_SETS = {what: (required, required | optional)
             for what, (required, optional) in _KEYS.items()}


# The readers of a certificate's fields: each refuses a value it does not
# take in one line that names the key.

def _keyed(doc, what: str) -> dict:
    """The JSON object `what` of a certificate, with exactly the keys
    `_KEYS[what]` allows.  The keys of a well-formed object are compared
    here with its key sets, and `keyed` is called only to accept an object
    that has some but not all of its optional keys, or to say what is wrong
    with the others."""
    required, full = _KEY_SETS[what]
    if isinstance(doc, dict) and (doc.keys() == required or doc.keys() == full):
        return doc
    return keyed(doc, what, *_KEYS[what], error=CertificateError)


def _int(value, what: str) -> int:
    """The params key `n` or `base`: a JSON integer."""
    return typed(value, int, what, CertificateError)


def _expression(value, what: str) -> Expression:
    return parsed(parse_expression, value, what, CertificateError)


def _mode(value, what: str) -> Mode:
    mode = _mode_from_text(typed(value, str, what, CertificateError))
    if mode is None:
        raise CertificateError(f"{what}: bad mode {quoted(value)}")
    return mode


def _modes(value, what: str) -> tuple[Mode, ...]:
    entry = f"a {what} entry"
    return tuple([_mode(s, entry) for s in typed(value, list, what, CertificateError)])


def _null_index(value, what: str) -> int:
    """An index a or b of a null N^ab: 1, 2 or 3, the indices the table's
    vectors have."""
    if typed(value, int, what, CertificateError) not in (1, 2, 3):
        raise CertificateError(f"{what} must be 1, 2 or 3, got {quoted(value)}")
    return value


def _nulls(value, what: str) -> tuple:
    entries = [_keyed(e, "a null") for e in typed(value, list, what, CertificateError)]
    return tuple([(parsed(parse_poly, e["coeff"], "a null coeff", CertificateError),
                   (_null_index(e["a"], "a null a"), _null_index(e["b"], "a null b")))
                  for e in entries])


def _parts(value, what: str) -> tuple:
    entries = [_keyed(e, "a part") for e in typed(value, list, what, CertificateError)]
    return tuple([(parsed(parse_poly, e["coeff"], "a part coeff", CertificateError),
                   typed(e["id"], int, "a part id", CertificateError))
                  for e in entries])


# the reader of each params key, called as reader(value, key)
_PARAMS = {"n": _int, "base": _int, "a": _mode, "b": _mode, "prefix": _modes,
           "block": _modes, "right": _modes, "remainder": _expression,
           "nulls": _nulls, "parts": _parts}


def _param_to_json(key: str, value):
    if key in ("n", "base"):
        return value
    if key in ("a", "b"):
        return value.render()
    if key in ("prefix", "block", "right"):
        return [m.render() for m in value]
    if key == "remainder":
        return render_expression(value)
    if key == "nulls":
        return [{"coeff": render_poly(c), "a": a, "b": b} for c, (a, b) in value]
    return [{"coeff": render_poly(c), "id": i} for c, i in value]  # parts


def _rule_to_dict(rule: _Rule) -> dict:
    return {key: _param_to_json(key, getattr(rule, key)) for key in rule._fields}


def _rule_from_dict(name, params) -> _Rule:
    kind = _RULES.get(typed(name, str, "rule", CertificateError))
    if kind is None:
        raise CertificateError(f"unknown rule name {quoted(name)}")
    params = _keyed(params, f"{name} params")
    return kind(*[_PARAMS[key](params[key], key) for key in kind._fields])


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "null_coefficients": {
            k: str(getattr(cert.table, k)) for k in _NULL_COEFFICIENTS
        },
        "steps": [
            {
                "id": s.id,
                "claim": {"vector": render_expression(s.vector), "space": "C2"},
                "rule": s.rule.name,
                "params": _rule_to_dict(s.rule),
                "label": s.label,
            }
            for s in cert.steps
        ],
        "targets": list(cert.targets),
    }


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True)


def certificate_from_dict(doc: dict) -> Certificate:
    """Load a certificate document; a missing, unknown or ill-typed key, or a
    claim about any space but C2, raises CertificateError."""
    try:
        doc = _keyed(doc, "the certificate")
        coefficients = _keyed(doc["null_coefficients"], "null_coefficients")
        table = SingularTable(*[parsed(parse_rational, coefficients[k],
                                       f"null coefficient {k}", CertificateError)
                                for k in _NULL_COEFFICIENTS])
        steps = []
        for s in typed(doc["steps"], list, "steps", CertificateError):
            s = _keyed(s, "a step")
            claim = _keyed(s["claim"], "a claim")
            if claim["space"] != "C2":
                raise CertificateError(f"claim space {quoted(claim['space'])} is not C2")
            steps.append(MembershipClaim(
                typed(s["id"], int, "step id", CertificateError),
                _expression(claim["vector"], "claim vector"),
                _rule_from_dict(s["rule"], s["params"]),
                typed(s.get("label", ""), str, "label", CertificateError)))
        targets = [typed(t, int, "a target", CertificateError)
                   for t in typed(doc["targets"], list, "targets", CertificateError)]
    except CertificateError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        raise CertificateError(f"malformed certificate: {exc!r}") from exc
    return Certificate(table, steps, targets)


def certificate_from_json(text: str) -> Certificate:
    return certificate_from_dict(decoded(text, CertificateError))

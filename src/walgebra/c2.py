"""Replayable certificates of C_n-membership for the c = -2 triplet algebra.

A claim asserts that the vector of a formal mode expression lies in C_2 of
the vacuum algebra, justified by one of five mechanically checkable rules:

* ManifestMember     -- the leftmost mode is deep enough (math index <= -n);
* PrefixInvariance   -- nonpositive-math-index modes prefix an earlier claim;
* SingularRewrite    -- the vector equals manifest/earlier material modulo
                        the declared null vectors (exact state arithmetic);
* WeightBoundedBracket -- a [W,W] commutator whose declared channels all have
                        weight <= 2h-1, hence land at math index <= -2;
* LinearCombination  -- exact combination of earlier claims plus manifest
                        remainder.

Certificates are self-contained: they carry the null-vector coefficient
table, and verification uses only the algebra spec plus the certificate body.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraSpec, Mode, convert_index
from .engine import Engine, State
from .scalar import Poly, parse_poly, render_poly
from .singular import DEFAULT_TABLE, SingularTable, null_vector_terms

# expression: formal sum of mode compositions applied to the vacuum
Expression = tuple[tuple[Poly, tuple[Mode, ...]], ...]


class CertificateError(ValueError):
    pass


def expression(*terms) -> Expression:
    out = []
    for coeff, seq in terms:
        c = coeff if isinstance(coeff, Poly) else Poly.const(coeff)
        if c:
            out.append((c, tuple(seq)))
    return tuple(out)


def expr_add(a: Expression, b: Expression) -> Expression:
    acc: dict[tuple[Mode, ...], Poly] = {}
    for coeff, seq in a + b:
        acc[seq] = acc.get(seq, Poly.zero()) + coeff
    return tuple(sorted(((c, s) for s, c in acc.items() if c),
                        key=lambda t: t[1]))


def expr_scale(a: Expression, factor) -> Expression:
    f = factor if isinstance(factor, Poly) else Poly.const(factor)
    return tuple((c * f, s) for c, s in a if c * f)


def expr_prefix(prefix: tuple[Mode, ...], a: Expression) -> Expression:
    return tuple((c, tuple(prefix) + s) for c, s in a)


def math_index(mode: Mode, spec: AlgebraSpec) -> int:
    return convert_index(mode.n, spec.weight_of(mode.field), "phys_to_math")


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


@dataclass(frozen=True)
class ManifestMemberRule:
    n: int = 2
    name = "ManifestMember"


@dataclass(frozen=True)
class PrefixInvarianceRule:
    prefix: tuple[Mode, ...]
    base: int
    name = "PrefixInvariance"


@dataclass(frozen=True)
class SingularRewriteRule:
    # combination sum coeff * N^(a,b) subtracted from the claim vector
    nulls: tuple[tuple[Poly, tuple[int, int]], ...]
    remainder: Expression
    name = "SingularRewrite"


@dataclass(frozen=True)
class WeightBoundedBracketRule:
    """Single commutator [a, b] applied to `right`: every declared channel
    is weight-bounded, hence lands at manifest depth."""

    a: Mode
    b: Mode
    right: tuple[Mode, ...]
    name = "WeightBoundedBracket"


@dataclass(frozen=True)
class ReorderRule:
    """Move a block of nonpositive-math-index conformal modes across a block
    of W modes; every commutator fired on the way is weight-bounded and its
    term is manifestly deep.  The base claim holds the reordered composition.

    A replayed chain of WeightBoundedBracket steps."""

    prefix: tuple[Mode, ...]
    block: tuple[Mode, ...]
    base: int
    name = "Reorder"


@dataclass(frozen=True)
class LinearCombinationRule:
    parts: tuple[tuple[Poly, int], ...]
    remainder: Expression = ()
    name = "LinearCombination"


Rule = (ManifestMemberRule | PrefixInvarianceRule | SingularRewriteRule
        | WeightBoundedBracketRule | ReorderRule | LinearCombinationRule)


@dataclass(frozen=True)
class MembershipClaim:
    id: int
    vector: Expression
    rule: Rule
    uses: tuple[int, ...] = ()
    depends_on: tuple[str, ...] = ()
    label: str = ""


@dataclass
class Certificate:
    table: SingularTable
    steps: list[MembershipClaim]
    targets: list[int]

    def step(self, claim_id: int) -> MembershipClaim:
        for s in self.steps:
            if s.id == claim_id:
                return s
        raise KeyError(claim_id)


@dataclass
class StepReport:
    id: int
    ok: bool
    label: str
    detail: str = ""


# --- verification ------------------------------------------------------------


def _check_rule(claim: MembershipClaim, cert: Certificate, engine: Engine
                ) -> tuple[bool, str]:
    spec = engine.spec
    rule = claim.rule
    earlier = {s.id for s in cert.steps if s.id < claim.id}
    if any(u not in earlier for u in claim.uses):
        return False, "claim cites a step that is not strictly earlier"

    if isinstance(rule, ManifestMemberRule):
        for _, seq in claim.vector:
            if not manifest_member(seq, rule.n, spec):
                return False, f"term {seq} is not manifest at n={rule.n}"
        return True, ""

    if isinstance(rule, PrefixInvarianceRule):
        if rule.base not in earlier or rule.base not in claim.uses:
            return False, "prefix base must be cited and earlier"
        for m in rule.prefix:
            if math_index(m, spec) > 0:
                return False, f"prefix mode {m} has positive math index"
        base = cert.step(rule.base)
        want = expr_prefix(rule.prefix, base.vector)
        if expr_add(claim.vector, expr_scale(want, -1)):
            return False, "vector is not the stated prefix of the base claim"
        return True, ""

    if isinstance(rule, SingularRewriteRule):
        residual = claim.vector
        for coeff, (a, b) in rule.nulls:
            null = expr_scale(null_vector_terms(a, b, cert.table), -coeff)
            residual = expr_add(residual, null)
        residual = expr_add(residual, expr_scale(rule.remainder, -1))
        for _, seq in rule.remainder:
            if not prefixed_manifest(seq, 2, spec):
                return False, f"remainder term {seq} is not prefixed-manifest"
        if residual:
            # formal cancellation failed; fall back to exact state arithmetic
            total = engine.evaluate(residual)
            if total:
                return False, f"rewrite residual: {total.render()}"
        return True, ""

    if isinstance(rule, WeightBoundedBracketRule):
        ha = spec.weight_of(rule.a.field)
        hb = spec.weight_of(rule.b.field)
        msum = rule.a.n + rule.b.n
        for (i, j) in ((rule.a.field, rule.b.field), (rule.b.field, rule.a.field)):
            for k, _ in spec.channels(i, j):
                hk = spec.weight_of(k)
                if hk > ha + hb - 1:
                    return False, f"channel {k} of weight {hk} violates the bound"
                if convert_index(msum, hk, "phys_to_math") > -2:
                    return False, f"channel mode {k}({msum}) is not manifest"
        want = expression(
            (1, (rule.a, rule.b) + rule.right),
            (-1, (rule.b, rule.a) + rule.right),
        )
        if expr_add(claim.vector, expr_scale(want, -1)):
            return False, "vector is not the stated commutator expression"
        # replay the channel expansion exactly
        lhs = engine.evaluate(claim.vector)
        rhs = State()
        from .algebra import bracket as _bracket

        ops = _bracket(rule.a, rule.b, spec)
        right_state = engine.normal_order(rule.right)
        for coeff, mode in ops.terms:
            rhs = rhs + engine.apply_mode(mode, right_state).scale(coeff)
        if ops.central:
            rhs = rhs + right_state.scale(ops.central)
        if lhs - rhs:
            return False, f"bracket replay residual: {(lhs - rhs).render()}"
        return True, ""

    if isinstance(rule, ReorderRule):
        if rule.base not in earlier or rule.base not in claim.uses:
            return False, "reorder base must be cited and earlier"
        for m in rule.prefix:
            if math_index(m, spec) > 0 or m.field != "T":
                return False, f"reorder prefix mode {m} not allowed"
        base = cert.step(rule.base)
        if expr_add(base.vector,
                    expr_scale(expression((1, rule.block + rule.prefix)), -1)):
            return False, "base claim does not hold the reordered composition"
        if expr_add(claim.vector,
                    expr_scale(expression((1, rule.prefix + rule.block)), -1)):
            return False, "vector is not the stated composition"
        trace = _commute_T_past_W(rule.prefix, rule.block, spec)
        for _, seq in trace:
            if not prefixed_manifest(seq, 2, spec):
                return False, f"trace term {seq} is not prefixed-manifest"
        return True, ""

    if isinstance(rule, LinearCombinationRule):
        residual = claim.vector
        for coeff, claim_id in rule.parts:
            if claim_id not in earlier or claim_id not in claim.uses:
                return False, f"part {claim_id} must be cited and earlier"
            residual = expr_add(
                residual, expr_scale(cert.step(claim_id).vector, -coeff)
            )
        for _, seq in rule.remainder:
            if not prefixed_manifest(seq, 2, spec):
                return False, f"remainder term {seq} is not prefixed-manifest"
        residual = expr_add(residual, expr_scale(rule.remainder, -1))
        if residual:
            total = engine.evaluate(residual)
            if total:
                return False, f"combination residual: {total.render()}"
        return True, ""

    return False, f"unknown rule {rule!r}"


def verify_certificate(cert: Certificate, spec: AlgebraSpec
                       ) -> tuple[bool, list[StepReport]]:
    """Replay every step; returns overall validity and per-step reports.
    Verification stops at the first failing step."""
    engine = Engine(spec)
    reports: list[StepReport] = []
    seen: set[int] = set()
    for claim in cert.steps:
        if claim.id in seen or any(u >= claim.id for u in claim.uses):
            reports.append(StepReport(claim.id, False, claim.label,
                                      "step ordering violated"))
            return False, reports
        seen.add(claim.id)
        ok, detail = _check_rule(claim, cert, engine)
        reports.append(StepReport(claim.id, ok, claim.label, detail))
        if not ok:
            return False, reports
    missing = [t for t in cert.targets if t not in seen]
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


def _commute_T_past_W(prefix: tuple[Mode, ...], block: tuple[Mode, ...],
                      spec: AlgebraSpec) -> Expression:
    """Rewrite the composition prefix+block as block+prefix plus bracket
    terms, using only pairwise mode brackets.  Returns the bracket terms."""
    from .algebra import bracket as _bracket

    done: list[tuple[Poly, tuple[Mode, ...]]] = []
    work = [(Poly.const(1), tuple(prefix) + tuple(block))]
    target = tuple(block) + tuple(prefix)

    def sort_key(m: Mode) -> int:
        # W modes before T modes: move every T right past every W
        return 0 if m.field != "T" else 1

    while work:
        coeff, seq = work.pop()
        for i in range(len(seq) - 1):
            x, y = seq[i], seq[i + 1]
            if sort_key(x) > sort_key(y):
                swapped = seq[:i] + (y, x) + seq[i + 2:]
                work.append((coeff, swapped))
                ops = _bracket(x, y, spec)
                if ops.central:
                    raise CertificateError("unexpected central term in trace")
                for c2, mode in ops.terms:
                    work.append((coeff * c2, seq[:i] + (mode,) + seq[i + 2:]))
                break
        else:
            done.append((coeff, seq))
    acc: dict[tuple[Mode, ...], Poly] = {}
    for coeff, seq in done:
        acc[seq] = acc.get(seq, Poly.zero()) + coeff
    if acc.get(target) != Poly.const(1):
        raise CertificateError("commutation trace lost the sorted word")
    del acc[target]
    return tuple(sorted(((c, s) for s, c in acc.items() if c),
                        key=lambda t: t[1]))


def certify_triplet_p2(table: SingularTable | None = None,
                       spec: AlgebraSpec | None = None) -> Certificate:
    """Certificate that (W^a_{-3})^m O (m = 3,4,5), the mixed and difference
    quadratics, and L_{-2}^6 O all lie in C_2, from the declared level-6
    null vectors."""
    table = table or DEFAULT_TABLE
    if table.c1 == 0:
        raise CertificateError(
            "the L_{-2}^3 coefficient of the null vector must be nonzero"
        )
    if spec is None:
        from .singular import load_triplet_p2_spec

        spec = load_triplet_p2_spec()
    steps: list[MembershipClaim] = []
    targets: list[int] = []
    next_id = 1

    def add(vector, rule, uses=(), depends=(), label="", target=False):
        nonlocal next_id
        claim = MembershipClaim(next_id, vector, rule, tuple(uses),
                                tuple(depends), label)
        steps.append(claim)
        if target:
            targets.append(next_id)
        next_id += 1
        return claim.id

    def rewrite(vector: Expression, a: int, b: int) -> SingularRewriteRule:
        """vector = N^ab + what remains of vector once N^ab is subtracted."""
        remainder = expr_add(vector, expr_scale(null_vector_terms(a, b, table), -1))
        return SingularRewriteRule(((Poly.const(1), (a, b)),), remainder)

    # mixed quadratics W^a W^b O for a != b
    mixed_ids = {}
    for a, b in ((1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2)):
        quadratic = expression((1, (_w(a), _w(b))))
        mixed_ids[(a, b)] = add(
            quadratic,
            rewrite(quadratic, a, b),
            depends=("c5", "c6"),
            label=f"W{a}(-3) W{b}(-3) |0> in C2",
            target=True,
        )

    # difference of squares
    diff_id = add(
        expression((1, (_w(1), _w(1))), (-1, (_w(2), _w(2)))),
        SingularRewriteRule(
            ((Poly.const(1), (1, 1)), (Poly.const(-1), (2, 2))), ()
        ),
        label="(W1(-3)^2 - W2(-3)^2) |0> in C2",
        target=True,
    )

    # cube: W1^3 = W1 (W1^2 - W2^2) + W2 (W1 W2) + [W1, W2] W2
    sq_prefix = add(
        expr_prefix((_w(1),), steps[diff_id - 1].vector),
        PrefixInvarianceRule((_w(1),), diff_id),
        uses=(diff_id,),
        label="W1(-3) (W1^2 - W2^2) |0> in C2",
    )
    swap_prefix = add(
        expr_prefix((_w(2),), steps[mixed_ids[(1, 2)] - 1].vector),
        PrefixInvarianceRule((_w(2),), mixed_ids[(1, 2)]),
        uses=(mixed_ids[(1, 2)],),
        label="W2(-3) W1(-3) W2(-3) |0> in C2",
    )
    bracket_id = add(
        expression((1, (_w(1), _w(2), _w(2))), (-1, (_w(2), _w(1), _w(2)))),
        WeightBoundedBracketRule(_w(1), _w(2), (_w(2),)),
        label="[W1(-3), W2(-3)] W2(-3) |0> in C2",
    )
    cube_id = add(
        expression((1, (_w(1), _w(1), _w(1)))),
        LinearCombinationRule(
            ((Poly.const(1), sq_prefix), (Poly.const(1), swap_prefix),
             (Poly.const(1), bracket_id)),
        ),
        uses=(sq_prefix, swap_prefix, bracket_id),
        label="W1(-3)^3 |0> in C2",
        target=True,
    )

    # higher powers
    power_ids = {3: cube_id}
    for m in (4, 5):
        power_ids[m] = add(
            expr_prefix((_w(1),), steps[power_ids[m - 1] - 1].vector),
            PrefixInvarianceRule((_w(1),), power_ids[m - 1]),
            uses=(power_ids[m - 1],),
            label=f"W1(-3)^{m} |0> in C2",
            target=True,
        )

    # W1^2 - c1 L_{-2}^3
    l2cube = (_t(-2), _t(-2), _t(-2))
    shifted = expression((1, (_w(1), _w(1))), (-table.c1, l2cube))
    shifted_id = add(
        shifted,
        rewrite(shifted, 1, 1),
        depends=("c1", "c2", "c3", "c4"),
        label="(W1(-3)^2 - c1 L(-2)^3) |0> in C2",
    )

    # W1^2 (W1^2 - c1 L^3)
    w2_shift = add(
        expr_prefix((_w(1), _w(1)), steps[shifted_id - 1].vector),
        PrefixInvarianceRule((_w(1), _w(1)), shifted_id),
        uses=(shifted_id,),
        label="W1^2 (W1^2 - c1 L(-2)^3) |0> in C2",
    )

    # W1^2 L^3 = (1/c1)(W1^4 - W1^2 (W1^2 - c1 L^3))
    inv_c1 = Fraction(1) / table.c1
    cross1 = add(
        expression((1, (_w(1), _w(1)) + l2cube)),
        LinearCombinationRule(
            ((Poly.const(inv_c1), power_ids[4]),
             (Poly.const(-inv_c1), w2_shift)),
        ),
        uses=(power_ids[4], w2_shift),
        depends=("c1",),
        label="W1(-3)^2 L(-2)^3 |0> in C2",
    )

    # L^3 W1^2 = W1^2 L^3 + weight-bounded commutator trace
    cross2 = add(
        expression((1, l2cube + (_w(1), _w(1)))),
        ReorderRule(l2cube, (_w(1), _w(1)), cross1),
        uses=(cross1,),
        depends=("c1",),
        label="L(-2)^3 W1(-3)^2 |0> in C2",
    )

    # L^3 (W1^2 - c1 L^3)
    l3_shift = add(
        expr_prefix(l2cube, steps[shifted_id - 1].vector),
        PrefixInvarianceRule(l2cube, shifted_id),
        uses=(shifted_id,),
        label="L(-2)^3 (W1^2 - c1 L(-2)^3) |0> in C2",
    )

    # c1^2 L^6 = (W1^2 - c1 L^3)^2 expanded through the claims above
    inv_c1_sq = inv_c1 * inv_c1
    add(
        expression((1, l2cube + l2cube)),
        LinearCombinationRule(
            (
                (Poly.const(inv_c1_sq), w2_shift),
                (Poly.const(-inv_c1), l3_shift),
                (Poly.const(-inv_c1_sq), power_ids[4]),
                (Poly.const(inv_c1), cross1),
                (Poly.const(inv_c1), cross2),
            ),
        ),
        uses=(w2_shift, l3_shift, power_ids[4], cross1, cross2),
        depends=("c1",),
        label="L(-2)^6 |0> in C2",
        target=True,
    )

    return Certificate(table, steps, targets)


# --- serialization ----------------------------------------------------------------

_MODE_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\((-?\d+)\)")
_TERM_RE = re.compile(r"\(([^)]*)\)\s*((?:\s*[A-Za-z_][A-Za-z0-9_]*\(-?\d+\))*)\s*\|0>")
_SEP_RE = re.compile(r"\s*\+\s*")


def render_expression(a: Expression) -> str:
    if not a:
        return "0"
    bits = []
    for coeff, seq in sorted(a, key=lambda t: t[1]):
        mods = " ".join(m.render() for m in seq)
        mods = mods + " " if mods else ""
        bits.append(f"({render_poly(coeff)}) {mods}|0>")
    return " + ".join(bits)


def parse_expression(text: str) -> Expression:
    text = text.strip()
    if text == "0":
        return ()
    out = []
    pos = 0
    while True:
        # each term starts where the previous " + " ended; nothing is skipped
        m = _TERM_RE.match(text, pos)
        if m is None:
            raise CertificateError(f"cannot parse expression {text!r} at {pos}")
        out.append(
            (
                parse_poly(m.group(1)),
                tuple(Mode(f, int(n)) for f, n in _MODE_RE.findall(m.group(2))),
            )
        )
        pos = m.end()
        if pos == len(text):
            return expression(*out)
        sep = _SEP_RE.match(text, pos)
        if sep is None:
            raise CertificateError(f"cannot parse expression {text!r} at {pos}")
        pos = sep.end()


def _mode_to_str(m: Mode) -> str:
    return m.render()


def _mode_from_str(s: str) -> Mode:
    m = _MODE_RE.fullmatch(s.strip())
    if not m:
        raise CertificateError(f"bad mode {s!r}")
    return Mode(m.group(1), int(m.group(2)))


def _rule_to_dict(rule: Rule) -> dict:
    if isinstance(rule, ManifestMemberRule):
        return {"n": rule.n}
    if isinstance(rule, PrefixInvarianceRule):
        return {"prefix": [_mode_to_str(m) for m in rule.prefix],
                "base": rule.base}
    if isinstance(rule, SingularRewriteRule):
        return {
            "nulls": [
                {"coeff": render_poly(c), "a": a, "b": b}
                for c, (a, b) in rule.nulls
            ],
            "remainder": render_expression(rule.remainder),
        }
    if isinstance(rule, WeightBoundedBracketRule):
        return {
            "a": _mode_to_str(rule.a),
            "b": _mode_to_str(rule.b),
            "right": [_mode_to_str(m) for m in rule.right],
        }
    if isinstance(rule, ReorderRule):
        return {
            "prefix": [_mode_to_str(m) for m in rule.prefix],
            "block": [_mode_to_str(m) for m in rule.block],
            "base": rule.base,
        }
    if isinstance(rule, LinearCombinationRule):
        return {
            "parts": [{"coeff": render_poly(c), "id": i} for c, i in rule.parts],
            "remainder": render_expression(rule.remainder),
        }
    raise CertificateError(f"unknown rule {rule!r}")


def _typed(value, kind: type):
    if type(value) is not kind:
        raise CertificateError(f"expected {kind.__name__}, got {value!r}")
    return value


def _rule_from_dict(name: str, params: dict) -> Rule:
    if name == "ManifestMember":
        return ManifestMemberRule(_typed(params["n"], int))
    if name == "PrefixInvariance":
        return PrefixInvarianceRule(
            tuple(_mode_from_str(s) for s in params["prefix"]),
            _typed(params["base"], int),
        )
    if name == "SingularRewrite":
        return SingularRewriteRule(
            tuple(
                (parse_poly(e["coeff"]), (_typed(e["a"], int), _typed(e["b"], int)))
                for e in params["nulls"]
            ),
            parse_expression(params["remainder"]),
        )
    if name == "WeightBoundedBracket":
        return WeightBoundedBracketRule(
            _mode_from_str(params["a"]),
            _mode_from_str(params["b"]),
            tuple(_mode_from_str(s) for s in params["right"]),
        )
    if name == "Reorder":
        return ReorderRule(
            tuple(_mode_from_str(s) for s in params["prefix"]),
            tuple(_mode_from_str(s) for s in params["block"]),
            _typed(params["base"], int),
        )
    if name == "LinearCombination":
        return LinearCombinationRule(
            tuple((parse_poly(e["coeff"]), _typed(e["id"], int))
                  for e in params["parts"]),
            parse_expression(params["remainder"]),
        )
    raise CertificateError(f"unknown rule name {name!r}")


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "null_coefficients": {
            k: str(getattr(cert.table, k))
            for k in ("c1", "c2", "c3", "c4", "c5", "c6")
        },
        "steps": [
            {
                "id": s.id,
                "claim": {"vector": render_expression(s.vector), "space": "C2"},
                "rule": s.rule.name,
                "params": _rule_to_dict(s.rule),
                "uses": list(s.uses),
                "depends_on": list(s.depends_on),
                "label": s.label,
            }
            for s in cert.steps
        ],
        "targets": list(cert.targets),
    }


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True)


def certificate_from_dict(doc: dict) -> Certificate:
    """Load a certificate document; a missing or ill-typed field, or a claim
    about any space but C2, raises CertificateError."""
    try:
        table = SingularTable(**{
            k: Fraction(_typed(v, str)) for k, v in doc["null_coefficients"].items()
        })
        steps = []
        for s in doc["steps"]:
            space = s["claim"]["space"]
            if space != "C2":
                raise CertificateError(f"claim space {space!r} is not C2")
            steps.append(
                MembershipClaim(
                    id=_typed(s["id"], int),
                    vector=parse_expression(s["claim"]["vector"]),
                    rule=_rule_from_dict(s["rule"], s["params"]),
                    uses=tuple(_typed(u, int) for u in s["uses"]),
                    depends_on=tuple(_typed(d, str) for d in
                                     _typed(s.get("depends_on", []), list)),
                    label=_typed(s.get("label", ""), str),
                )
            )
        targets = [_typed(t, int) for t in doc["targets"]]
    except CertificateError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        raise CertificateError(f"malformed certificate: {exc!r}") from exc
    return Certificate(table, steps, targets)


def certificate_from_json(text: str) -> Certificate:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(f"not valid JSON: {exc}") from exc
    return certificate_from_dict(doc)

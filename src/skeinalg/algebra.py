"""Conway-style skein algebras over exact Laurent polynomial rings.

An algebra here is a carrier ring together with four binary operations
(written circ, slash, star, sslash) and a unit sequence a(1), a(2), ...
The circ/slash pair resolves crossings between a strand and itself, the
star/sslash pair resolves crossings between different components, and
slash (resp. sslash) is the exact right inverse of circ (resp. star).

All shipped instances have operations of the affine form
x, y -> alpha*x + beta*y + gamma, which keeps every computation inside
one Laurent ring.  The `nonlinear` family stores the k-th power of each
formal value; on stored values its operations coincide with the linear
ones, and only the rendering (a formal k-th root) differs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import add

from .laurent import LaurentError, LaurentPoly, VarTable


class AlgebraError(ValueError):
    pass


class OpKind(enum.Enum):
    CIRC = "circ"
    SLASH = "slash"
    STAR = "star"
    SSLASH = "sslash"


@dataclass(frozen=True)
class AffineOp:
    """x, y -> alpha*x + beta*y + gamma over a fixed table."""

    alpha: LaurentPoly
    beta: LaurentPoly
    gamma: LaurentPoly

    def remap(self, table: VarTable) -> "AffineOp":
        return AffineOp(
            self.alpha.remap(table), self.beta.remap(table), self.gamma.remap(table)
        )


ALGEBRA_NAMES = ("classic3", "homflypt", "gen-conway", "gen-homflypt", "nonlinear")


class ConwayAlgebraSpec:
    """One concrete algebra instance.

    `k` is None for the linear instances; for the nonlinear family it is
    the root index and stored values are understood as k-th powers.
    The unit sequence is produced by a recurrence and memoized; the memo
    is append-only and behaves as a pure cache.
    """

    def __init__(
        self,
        name: str,
        table: VarTable,
        ops: dict[OpKind, AffineOp],
        unit_step,
        k: int | None = None,
    ):
        self.name = name
        self.table = table
        self.ops = ops
        self.k = k
        self._unit_step = unit_step
        self._units: list[LaurentPoly] = [LaurentPoly.const(table, 1)]
        self._remapped: dict[VarTable, dict[OpKind, AffineOp]] = {table: ops}

    @property
    def key(self) -> str:
        return self.name if self.k is None else f"{self.name}(k={self.k})"

    def unit(self, n: int) -> LaurentPoly:
        if n < 1:
            raise AlgebraError(f"unit index must be positive, got {n}")
        while len(self._units) < n:
            self._units.append(self._unit_step(self._units[-1]))
        return self._units[n - 1]

    def _ops_for(self, table: VarTable) -> dict[OpKind, AffineOp]:
        got = self._remapped.get(table)
        if got is None:
            got = {kind: op.remap(table) for kind, op in self.ops.items()}
            self._remapped[table] = got
        return got

    def apply(self, op: OpKind, a, b) -> LaurentPoly:
        if isinstance(a, int):
            a = LaurentPoly.const(self.table, a)
        if isinstance(b, int):
            b = LaurentPoly.const(self.table, b)
        if a.table != b.table:
            raise LaurentError("operands live over different tables")
        f = self._ops_for(a.table)[op]
        # alpha*a + beta*b + gamma, term by term.  Products of valid
        # polynomials keep non-invertible exponents non-negative, so the
        # result skips the constructor's checks; exponents are not
        # re-checked against EXP_LIMIT here.
        out = dict(f.gamma.terms)
        for factor, x in ((f.alpha, a), (f.beta, b)):
            for shift, scale in factor.terms.items():
                for exps, coeff in x.terms.items():
                    e = tuple(map(add, exps, shift))
                    s = out.get(e, 0) + scale * coeff
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return LaurentPoly._trusted(a.table, out)

    def to_formal(self, stored: LaurentPoly) -> str:
        """Render a stored k-th power as a formal root (plainly for k=1)."""
        if self.k is None:
            raise AlgebraError(f"{self.name} stores plain values, not powers")
        if self.k == 1:
            return stored.text()
        return f"root({self.k}, {stored.text()})"

    def render(self, stored: LaurentPoly) -> str:
        """Canonical text of any stored value, root-wrapped when needed."""
        if self.k is None:
            return stored.text()
        return self.to_formal(stored)

    def __repr__(self) -> str:
        return f"<algebra {self.key}>"


def make_algebra(name: str, k: int | None = None) -> ConwayAlgebraSpec:
    """Build one of the named instances.

    classic3      Z[p+-, q+-, z+-]   circ = star = pa + qb + z
    homflypt      Z[v+-, z+-]        circ = star = v^2 a + vz b
    gen-conway    Z[p+-, q+-, r]     circ = pa + qb, star = pa + rb
    gen-homflypt  Z[v+-, z, w+-]     circ = v^2 a + vw b, star = v^2 a + vz b
    nonlinear     Z[p+-, q+-, r+-]   gen-conway's maps on stored k-th powers
    """
    if name == "nonlinear":
        if k is None:
            k = 1
        if k < 1:
            raise AlgebraError(f"nonlinear requires k >= 1, got {k}")
    elif k is not None:
        raise AlgebraError(f"algebra {name!r} takes no k parameter")

    if name == "classic3":
        t = VarTable(("p", "q", "z"), frozenset({"p", "q", "z"}))
        p, q, z = (LaurentPoly.var(t, n) for n in t.names)
        p_inv = p.inverse()
        q_inv = q.inverse()
        circ = AffineOp(p, q, z)
        slash = AffineOp(p_inv, -(p_inv * q), -(p_inv * z))
        one = LaurentPoly.const(t, 1)

        def step(prev: LaurentPoly) -> LaurentPoly:
            return q_inv * ((one - p) * prev - z)

        ops = {OpKind.CIRC: circ, OpKind.SLASH: slash,
               OpKind.STAR: circ, OpKind.SSLASH: slash}
        return ConwayAlgebraSpec(name, t, ops, step)

    if name == "homflypt":
        t = VarTable(("v", "z"), frozenset({"v", "z"}))
        v, z = (LaurentPoly.var(t, n) for n in t.names)
        v_inv = v.inverse()
        circ = AffineOp(v * v, v * z, LaurentPoly.zero(t))
        slash = AffineOp(v_inv * v_inv, -(v_inv * z), LaurentPoly.zero(t))
        ratio = (v_inv - v) * z.inverse()
        ops = {OpKind.CIRC: circ, OpKind.SLASH: slash,
               OpKind.STAR: circ, OpKind.SSLASH: slash}
        return ConwayAlgebraSpec(name, t, ops, lambda prev: ratio * prev)

    if name == "gen-conway" or name == "nonlinear":
        invertible = {"p", "q"} if name == "gen-conway" else {"p", "q", "r"}
        t = VarTable(("p", "q", "r"), frozenset(invertible))
        p, q, r = (LaurentPoly.var(t, n) for n in t.names)
        p_inv = p.inverse()
        zero = LaurentPoly.zero(t)
        ops = {
            OpKind.CIRC: AffineOp(p, q, zero),
            OpKind.SLASH: AffineOp(p_inv, -(p_inv * q), zero),
            OpKind.STAR: AffineOp(p, r, zero),
            OpKind.SSLASH: AffineOp(p_inv, -(p_inv * r), zero),
        }
        ratio = (LaurentPoly.const(t, 1) - p) * q.inverse()
        return ConwayAlgebraSpec(
            name, t, ops, lambda prev: ratio * prev, k=k if name == "nonlinear" else None
        )

    if name == "gen-homflypt":
        t = VarTable(("v", "z", "w"), frozenset({"v", "w"}))
        v, z, w = (LaurentPoly.var(t, n) for n in t.names)
        v_inv = v.inverse()
        zero = LaurentPoly.zero(t)
        ops = {
            OpKind.CIRC: AffineOp(v * v, v * w, zero),
            OpKind.SLASH: AffineOp(v_inv * v_inv, -(v_inv * w), zero),
            OpKind.STAR: AffineOp(v * v, v * z, zero),
            OpKind.SSLASH: AffineOp(v_inv * v_inv, -(v_inv * z), zero),
        }
        ratio = (v_inv - v) * w.inverse()
        return ConwayAlgebraSpec(name, t, ops, lambda prev: ratio * prev)

    raise AlgebraError(f"unknown algebra {name!r}; expected one of {ALGEBRA_NAMES}")


@dataclass(frozen=True)
class AxiomCheck:
    label: str
    passed: bool
    detail: str | None = None


@dataclass(frozen=True)
class AxiomReport:
    algebra: str
    checks: tuple[AxiomCheck, ...] = field(default_factory=tuple)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"axioms for {self.algebra}:"]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            suffix = f"  [{c.detail}]" if c.detail else ""
            lines.append(f"  ({c.label}) {mark}{suffix}")
        return "\n".join(lines)


def check_axioms(alg: ConwayAlgebraSpec, unit_range: int = 6) -> AxiomReport:
    """Verify the defining identities symbolically.

    Four fresh indeterminates a, b, c, d are adjoined to the algebra's
    table and both sides of every identity are expanded there; a check
    passes exactly when the difference polynomial is identically zero.
    The unit identities a(n) = a(n) circ a(n+1) and a(n) = a(n) slash
    a(n+1) are checked for n = 1 .. unit_range.
    """
    fresh = ("a", "b", "c", "d")
    if set(fresh) & set(alg.table.names):
        raise AlgebraError("algebra table already uses the reserved names a,b,c,d")
    ext = alg.table.extend(fresh)
    a, b, c, d = (LaurentPoly.var(ext, n) for n in fresh)
    C, S, T, U = OpKind.CIRC, OpKind.SLASH, OpKind.STAR, OpKind.SSLASH
    ap = alg.apply

    checks: list[AxiomCheck] = []

    def record(label: str, pairs: list[tuple[LaurentPoly, LaurentPoly]]) -> None:
        for i, (lhs, rhs) in enumerate(pairs):
            diff = lhs - rhs
            if not diff.is_zero():
                checks.append(
                    AxiomCheck(label, False, f"case {i + 1} difference: {diff.text()}")
                )
                return
        checks.append(AxiomCheck(label, True))

    record("A", [
        (ap(S, ap(C, a, b), b), a),
        (ap(C, ap(S, a, b), b), a),
        (ap(U, ap(T, a, b), b), a),
        (ap(T, ap(U, a, b), b), a),
    ])
    record("B", [
        (alg.unit(n), ap(C, alg.unit(n), alg.unit(n + 1)))
        for n in range(1, unit_range + 1)
    ])
    record("C", [(ap(C, ap(C, a, b), ap(C, c, d)), ap(C, ap(C, a, c), ap(C, b, d)))])
    record("D", [(ap(T, ap(T, a, b), ap(T, c, d)), ap(T, ap(T, a, c), ap(T, b, d)))])
    record("E", [(ap(C, ap(C, a, b), ap(T, c, d)), ap(C, ap(C, a, c), ap(T, b, d)))])
    record("F", [(ap(T, ap(T, a, b), ap(C, c, d)), ap(T, ap(T, a, c), ap(C, b, d)))])
    record("G", [(ap(T, ap(C, a, b), ap(C, c, d)), ap(C, ap(T, a, c), ap(T, b, d)))])
    record("R1", [(ap(S, ap(C, a, b), ap(C, c, d)), ap(C, ap(S, a, c), ap(S, b, d)))])
    record("R2", [(ap(S, ap(S, a, b), ap(S, c, d)), ap(S, ap(S, a, c), ap(S, b, d)))])
    record("R3", [
        (alg.unit(n), ap(S, alg.unit(n), alg.unit(n + 1)))
        for n in range(1, unit_range + 1)
    ])

    return AxiomReport(alg.key, tuple(checks))

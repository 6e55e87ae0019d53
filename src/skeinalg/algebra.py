"""Conway-style skein algebras over exact Laurent polynomial rings.

An algebra here is a carrier ring together with four binary operations
(written circ, slash, star, sslash) and a unit sequence a(1), a(2), ...
The circ/slash pair resolves crossings between a strand and itself, the
star/sslash pair resolves crossings between different components, and
slash (resp. sslash) is the exact right inverse of circ (resp. star).
`make_algebra` writes only each family's circ and star: axiom A gives
slash and sslash as their inverses, and axiom B the unit sequence from
a(1) = 1 (`_from_circ_star`).

All shipped instances have operations of the affine form
x, y -> alpha*x + beta*y + gamma, which keeps every computation inside
one Laurent ring.  The `nonlinear` family stores the k-th power of each
formal value; on stored values its operations coincide with the linear
ones, and only the rendering (a formal k-th root) differs.

Each operation runs as a kernel compiled once per table and operation
(`_compile_kernel`), with the exponent arithmetic written out for the
table's width.  A kernel combines bare term maps.  The value recursions
of `skein` (`evaluate` on PD input and on braid words, and `replay`)
call the kernels directly and keep bare term maps throughout; each
wraps only the value it returns, through `LaurentPoly._trusted`.  Where
`apply` has been replaced, the recursions call it instead
(`_combiners`).  `ConwayAlgebraSpec.apply` is the door for
`LaurentPoly` operands: it runs the same kernels and wraps every result
the same way.  `check_axioms` and the tests combine values there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from .laurent import LaurentPoly, VarTable


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
        """The same operation with its coefficients over `table`."""
        return AffineOp(self.alpha.substitute({}, into=table),
                        self.beta.substitute({}, into=table),
                        self.gamma.substitute({}, into=table))


def _compile_kernel(op: AffineOp, width: int) -> Callable:
    """A function of two term maps over a table of `width` variables that
    returns the term map of alpha*x + beta*y + gamma.

    Each term of alpha and beta becomes one loop over an operand's terms
    with its shift written out per exponent and its scale folded into
    the coefficient, so a shift of 0 costs nothing and a scale of +-1 no
    multiplication.  Products of valid polynomials keep non-invertible
    exponents non-negative, so the result is as `LaurentPoly._trusted`
    wants it; exponents are not checked against EXP_LIMIT.
    """
    parts = [(shift, scale, "x") for shift, scale in op.alpha.terms.items()]
    parts += [(shift, scale, "y") for shift, scale in op.beta.terms.items()]
    lines = ["def kernel(x, y):"]
    if op.gamma.terms:
        lines.append("    out = dict(GAMMA)")
    elif parts:
        # a single shift is one to one and a product of nonzero
        # coefficients is nonzero: the first part needs no merging
        shift, scale, src = parts.pop(0)
        target, key = _shifted(shift, width)
        lines.append(f"    out = {{{key}: {_scaled(scale)} "
                     f"for {target}, c in {src}.items()}}")
    else:
        lines.append("    out = {}")
    if parts:
        lines.append("    get = out.get")
    for shift, scale, src in parts:
        target, key = _shifted(shift, width)
        lines += [
            f"    for {target}, c in {src}.items():",
            f"        k = {key}",
            f"        s = get(k, 0) + {_scaled(scale)}",
            "        if s:",
            "            out[k] = s",
            "        else:",
            "            del out[k]",
        ]
    lines.append("    return out")
    space = {"GAMMA": op.gamma.terms}
    exec("\n".join(lines), space)
    return space["kernel"]


def _shifted(shift: tuple[int, ...], width: int) -> tuple[str, str]:
    """Loop target and key expression that add `shift` to exponents."""
    if not any(shift):
        return "e", "e"
    names = [f"e{i}" for i in range(width)]
    key = [f"{n} + {d}" if d > 0 else f"{n} - {-d}" if d < 0 else n
           for n, d in zip(names, shift)]
    return f"({', '.join(names)},)", f"({', '.join(key)},)"


def _scaled(scale: int) -> str:
    """The coefficient c of an operand's term times `scale`."""
    return {1: "c", -1: "-c"}.get(scale, f"{scale} * c")


ALGEBRA_NAMES = ("classic3", "homflypt", "gen-conway", "gen-homflypt", "nonlinear")


class ConwayAlgebraSpec:
    """One concrete algebra instance.

    `k` is None for the linear instances; for the nonlinear family it is
    the root index and stored values are understood as k-th powers.
    The unit sequence is produced by a recurrence and memoized; the memo
    is append-only and behaves as a pure cache.  `key` names the instance
    in memo keys and output.  `ops` is read once per table, at the first
    use of its kernels (`_kernels_over`), and compiled into kernels that
    the instance keeps.
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
        self.key = name if k is None else f"{name}(k={k})"
        # table -> op -> kernel, compiled on the first use over the table
        self._kernels: dict[VarTable, dict[OpKind, Callable]] = {}

    def unit(self, n: int) -> LaurentPoly:
        if n < 1:
            raise AlgebraError(f"unit index must be positive, got {n}")
        while len(self._units) < n:
            self._units.append(self._unit_step(self._units[-1]))
        return self._units[n - 1]

    def apply(self, op: OpKind, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        """alpha*a + beta*b + gamma for the operation `op`, over the
        operands' table, through that table's kernel for `op`."""
        a._need_same_table(b)
        return LaurentPoly._trusted(
            a.table, self._kernels_over(a.table)[op](a.terms, b.terms))

    def _kernels_over(self, table: VarTable) -> dict[OpKind, Callable]:
        """The kernel of each operation over `table`: a function of two
        term maps that returns a term map.  Compiled at the first use
        over the table, then kept."""
        kernels = self._kernels.get(table)
        if kernels is None:
            width = len(table.names)
            kernels = {kind: _compile_kernel(f.remap(table), width)
                       for kind, f in self.ops.items()}
            self._kernels[table] = kernels
        return kernels

    def _combiners(self) -> dict[OpKind, Callable]:
        """The function of two term maps over the algebra's own table
        that each operation runs in the value recursions: its kernel,
        or, where `apply` has been replaced on the instance or its class
        (by a subclass, or by a wrapper that watches it), a call through
        `apply`, so that the replacement still sees every combination."""
        if getattr(self.apply, "__func__", None) is _APPLY:
            return self._kernels_over(self.table)
        apply, table, wrap = self.apply, self.table, LaurentPoly._trusted

        def through(op):
            return lambda x, y: apply(op, wrap(table, x), wrap(table, y)).terms

        return {op: through(op) for op in self.ops}

    def render(self, stored: LaurentPoly) -> str:
        """Canonical text of any stored value; a stored k-th power with
        k > 1 reads as a formal root."""
        if self.k is None or self.k == 1:
            return stored.text()
        return f"root({self.k}, {stored.text()})"

    def __repr__(self) -> str:
        return f"<algebra {self.key}>"


# `apply` as defined above, told apart from a replacement by `_combiners`
_APPLY = ConwayAlgebraSpec.apply


def make_algebra(name: str, k: int | None = None) -> ConwayAlgebraSpec:
    """Build one of the named instances from its circ and star; slash,
    sslash and the units follow (`_from_circ_star`).

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
        circ = AffineOp(p, q, z)
        return _from_circ_star(name, t, circ, circ)

    if name == "homflypt":
        t = VarTable(("v", "z"), frozenset({"v", "z"}))
        v, z = (LaurentPoly.var(t, n) for n in t.names)
        circ = AffineOp(v * v, v * z, LaurentPoly.zero(t))
        return _from_circ_star(name, t, circ, circ)

    if name == "gen-conway" or name == "nonlinear":
        invertible = {"p", "q"} if name == "gen-conway" else {"p", "q", "r"}
        t = VarTable(("p", "q", "r"), frozenset(invertible))
        p, q, r = (LaurentPoly.var(t, n) for n in t.names)
        zero = LaurentPoly.zero(t)
        return _from_circ_star(name, t, AffineOp(p, q, zero),
                               AffineOp(p, r, zero), k)

    if name == "gen-homflypt":
        t = VarTable(("v", "z", "w"), frozenset({"v", "w"}))
        v, z, w = (LaurentPoly.var(t, n) for n in t.names)
        zero = LaurentPoly.zero(t)
        return _from_circ_star(name, t, AffineOp(v * v, v * w, zero),
                               AffineOp(v * v, v * z, zero))

    raise AlgebraError(f"unknown algebra {name!r}; expected one of {ALGEBRA_NAMES}")


def _from_circ_star(name: str, t: VarTable, circ: AffineOp, star: AffineOp,
                    k: int | None = None) -> ConwayAlgebraSpec:
    """The algebra over `t` with operations circ and star.  By axiom A,
    slash and sslash are their right inverses, x, b -> alpha^-1 (x -
    beta b - gamma); by axiom B, a(n) = a(n) circ a(n+1), the units
    follow a(n+1) = beta^-1 ((1 - alpha) a(n) - gamma) of circ."""

    def inverse(f: AffineOp) -> AffineOp:
        inv = f.alpha.inverse()
        return AffineOp(inv, -(inv * f.beta), -(inv * f.gamma))

    beta_inv = circ.beta.inverse()
    ratio = beta_inv * (LaurentPoly.const(t, 1) - circ.alpha)
    shift = beta_inv * circ.gamma
    ops = {OpKind.CIRC: circ, OpKind.SLASH: inverse(circ),
           OpKind.STAR: star, OpKind.SSLASH: inverse(star)}
    return ConwayAlgebraSpec(name, t, ops, lambda a: ratio * a - shift, k)


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


_UNIT_RANGE = 6


def check_axioms(alg: ConwayAlgebraSpec) -> AxiomReport:
    """Verify the defining identities symbolically.

    Four fresh indeterminates a, b, c, d are adjoined to the algebra's
    table and both sides of every identity are expanded there; a check
    passes exactly when the difference polynomial is identically zero.
    The unit identities a(n) = a(n) circ a(n+1) and a(n) = a(n) slash
    a(n+1) are checked for n = 1 .. _UNIT_RANGE.
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
        for n in range(1, _UNIT_RANGE + 1)
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
        for n in range(1, _UNIT_RANGE + 1)
    ])

    return AxiomReport(alg.key, tuple(checks))

"""Exact multivariate Laurent polynomials over the integers.

Every algebra in this package computes in a ring of the shape
Z[x1^(+-1), ..., xm^(+-1), y1, ..., yn]: some variables are invertible,
some are not.  A polynomial is a finite map from exponent vectors to
nonzero integer coefficients, kept in normal form at all times, so two
polynomials are equal exactly when their term maps are equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

# Exponents are kept inside machine-friendly bounds on purpose: a runaway
# exponent means a bug upstream, and wrapping silently would corrupt values.
# The constructor enforces the bound, and so do `+`, `-`, `*`, `**` and
# `remap`.  `_trusted` does not, and neither do the compiled kernels of
# `ConwayAlgebraSpec`, whose results it wraps: an operand near the bound
# can give an out-of-range exponent there.
EXP_LIMIT = 2**31


class LaurentError(ValueError):
    pass


@dataclass(frozen=True)
class VarTable:
    """An ordered, immutable set of variable names.

    `invertible` lists the names that may carry negative exponents.
    Polynomials built over different tables never mix.
    """

    names: tuple[str, ...]
    invertible: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise LaurentError(f"duplicate variable names: {self.names}")
        unknown = self.invertible - set(self.names)
        if unknown:
            raise LaurentError(f"invertible names not in table: {sorted(unknown)}")

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise LaurentError(f"unknown variable {name!r}") from None

    def extend(self, extra: Iterable[str]) -> "VarTable":
        """A new table with `extra` names appended (not invertible)."""
        extra = tuple(extra)
        return VarTable(self.names + extra, self.invertible)

    def can_negate(self, idx: int) -> bool:
        return self.names[idx] in self.invertible


def _check_exps(table: VarTable, exps: tuple[int, ...]) -> None:
    for i, e in enumerate(exps):
        if not -EXP_LIMIT < e < EXP_LIMIT:
            raise OverflowError(f"exponent {e} of {table.names[i]} out of range")
        if e < 0 and not table.can_negate(i):
            raise LaurentError(f"negative power of non-invertible {table.names[i]!r}")


class LaurentPoly:
    """Immutable Laurent polynomial in normal form.

    terms: dict mapping exponent tuple -> nonzero int coefficient.
    """

    __slots__ = ("table", "terms", "_hash")

    def __init__(self, table: VarTable, terms: Mapping[tuple[int, ...], int]):
        clean: dict[tuple[int, ...], int] = {}
        width = len(table.names)
        for exps, coeff in terms.items():
            if coeff == 0:
                continue
            if len(exps) != width:
                raise LaurentError(f"exponent tuple {exps} has wrong arity")
            _check_exps(table, exps)
            clean[exps] = coeff
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, table: VarTable, terms: dict[tuple[int, ...], int]) -> "LaurentPoly":
        """Wrap a term map computed inside the library from valid polynomials
        over `table`: no zero coefficients, right arity, and no negative
        power of a non-invertible variable.  `EXP_LIMIT` is not checked."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "table", table)
        object.__setattr__(poly, "terms", terms)
        object.__setattr__(poly, "_hash", None)
        return poly

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "LaurentPoly":
        return cls(table, {})

    @classmethod
    def const(cls, table: VarTable, n: int) -> "LaurentPoly":
        return cls(table, {(0,) * len(table.names): n})

    @classmethod
    def var(cls, table: VarTable, name: str, power: int = 1) -> "LaurentPoly":
        exps = [0] * len(table.names)
        exps[table.index(name)] = power
        return cls(table, {tuple(exps): 1})

    @classmethod
    def monomial(cls, table: VarTable, coeff: int, powers: Mapping[str, int]) -> "LaurentPoly":
        exps = [0] * len(table.names)
        for name, power in powers.items():
            exps[table.index(name)] = power
        return cls(table, {tuple(exps): coeff})

    # -- ring structure ---------------------------------------------------

    def _need_same_table(self, other: "LaurentPoly") -> None:
        if self.table != other.table:
            raise LaurentError(
                f"variable tables differ: {self.table.names} vs {other.table.names}"
            )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._need_same_table(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            s = out.get(exps, 0) + coeff
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return LaurentPoly(self.table, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._need_same_table(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly(self.table, out)

    def scale(self, n: int) -> "LaurentPoly":
        if n == 0:
            return LaurentPoly.zero(self.table)
        return LaurentPoly(self.table, {e: n * c for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            return self.inverse() ** (-n)
        result = LaurentPoly.const(self.table, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.table, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def is_zero(self) -> bool:
        return not self.terms

    # -- units and substitution -------------------------------------------

    def is_unit_monomial(self) -> bool:
        """True when the polynomial is +-1 times a product of variable powers
        and all inversions needed for its reciprocal are allowed."""
        if len(self.terms) != 1:
            return False
        (exps, coeff), = self.terms.items()
        if coeff not in (1, -1):
            return False
        for i, e in enumerate(exps):
            if e != 0 and not self.table.can_negate(i):
                return False
        return True

    def inverse(self) -> "LaurentPoly":
        if len(self.terms) != 1:
            raise LaurentError("can only invert a single-term unit monomial")
        (exps, coeff), = self.terms.items()
        if coeff not in (1, -1):
            raise LaurentError(f"coefficient {coeff} is not invertible over Z")
        return LaurentPoly(self.table, {tuple(-e for e in exps): coeff})

    def substitute(
        self,
        assignment: Mapping[str, "LaurentPoly"],
        into: VarTable | None = None,
    ) -> "LaurentPoly":
        """Replace named variables by polynomials.

        All replacement values must live over one table (`into`, defaulting
        to this polynomial's own); unassigned variables must exist there by
        name.  A variable occurring with a negative exponent may only be
        replaced by a unit monomial, otherwise the result would leave the
        Laurent ring and the call is rejected.
        """
        target = into if into is not None else self.table
        if not assignment and target == self.table:
            return self
        values: dict[int, LaurentPoly] = {}
        for name, value in assignment.items():
            if value.table != target:
                raise LaurentError("substitution value over the wrong table")
            values[self.table.index(name)] = value
        neg_occurs = set()
        for exps in self.terms:
            for i in values:
                if exps[i] < 0:
                    neg_occurs.add(i)
        inverses: dict[int, LaurentPoly] = {}
        for i in neg_occurs:
            if not values[i].is_unit_monomial():
                raise LaurentError(
                    f"substituting {self.table.names[i]!r}, which occurs with a "
                    "negative exponent, requires a unit monomial value"
                )
            inverses[i] = values[i].inverse()
        tindex: dict[int, int] = {}
        width = len(target.names)
        result = LaurentPoly.zero(target)
        for exps, coeff in self.terms.items():
            base = [0] * width
            factor = None
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if i in values:
                    piece = values[i] ** e if e > 0 else inverses[i] ** (-e)
                    factor = piece if factor is None else factor * piece
                else:
                    if i not in tindex:
                        tindex[i] = target.index(self.table.names[i])
                    base[tindex[i]] = e
            term = LaurentPoly(target, {tuple(base): coeff})
            result = result + (term * factor if factor is not None else term)
        return result

    def remap(self, target: VarTable, rename: Mapping[str, str] | None = None) -> "LaurentPoly":
        """Re-express this polynomial over another table.

        Every variable that actually occurs must either keep its name or be
        listed in `rename`; variables with only zero exponents are dropped.
        """
        rename = rename or {}
        width = len(target.names)
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms.items():
            new = [0] * width
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                name = self.table.names[i]
                new[target.index(rename.get(name, name))] = e
            key = tuple(new)
            _check_exps(target, key)
            s = out.get(key, 0) + coeff
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return LaurentPoly(target, out)

    # -- rendering ---------------------------------------------------------

    def _sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        # Graded order, low total degree first; ties broken by reading the
        # exponent vector in table order, larger vector first: one plain
        # sort of (-degree, exponents) pairs, largest first.
        terms = self.terms
        order = sorted(zip([-sum(e) for e in terms], terms), reverse=True)
        return [(exps, terms[exps]) for _, exps in order]

    def text(self) -> str:
        if not self.terms:
            return "0"
        names = self.table.names
        chunks: list[str] = []
        for exps, coeff in self._sorted_terms():
            factors = [n if e == 1 else f"{n}^{e}"
                       for n, e in zip(names, exps) if e]
            sign = " + " if coeff > 0 else " - "
            chunks.append(f"{sign}{abs(coeff)}*{'*'.join(factors)}"
                          if factors else f"{sign}{abs(coeff)}")
        # the first term takes its sign as a prefix, and only when negative
        first = chunks[0]
        chunks[0] = first[3:] if first[1] == "+" else "-" + first[3:]
        return "".join(chunks)

    def json_terms(self) -> list[dict]:
        """Term list for machine output, in the same canonical order as text()."""
        names = self.table.names
        return [{"coeff": coeff,
                 "exps": {n: e for n, e in zip(names, exps) if e}}
                for exps, coeff in self._sorted_terms()]

    def __repr__(self) -> str:
        return f"LaurentPoly({self.text()!r})"

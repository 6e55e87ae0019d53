"""Exact multivariate Laurent polynomials over the integers.

Every algebra in this package computes in a ring of the shape
Z[x1^(+-1), ..., xm^(+-1), y1, ..., yn]: some variables are invertible,
some are not.  A polynomial is a finite map from exponent vectors to
nonzero integer coefficients, kept in normal form at all times, so two
polynomials are equal exactly when their term maps are equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import Iterable, Mapping

from . import diagram

# Exponents are kept inside machine-friendly bounds on purpose: a runaway
# exponent means a bug upstream, and wrapping silently would corrupt values.
# The bound holds where an exponent can grow: the constructor, `*` and
# `**` enforce it, and `substitute` builds through them.  `_trusted` is
# the one unchecked door, for term maps computed inside the library: `+`
# and `-` keep every exponent and build through it, and so do the
# compiled kernels of `ConwayAlgebraSpec`, where an operand near the
# bound can give an out-of-range exponent.  Under the test switch
# `diagram.RECHECK_BUILDS` it compares every term map with its validated
# copy.
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


def _merge(out: dict, terms: Iterable[tuple[tuple[int, ...], int]]) -> dict:
    """Add `terms` into the term map `out`, dropping zero sums."""
    for exps, coeff in terms:
        s = out.get(exps, 0) + coeff
        if s:
            out[exps] = s
        else:
            out.pop(exps, None)
    return out


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
        power of a non-invertible variable.  `EXP_LIMIT` is not checked,
        and nothing is, except under the test switch
        `diagram.RECHECK_BUILDS`, where the map must equal its validated
        copy."""
        if diagram.RECHECK_BUILDS:
            ref = cls(table, terms)
            if ref.terms != terms:
                raise AssertionError(
                    f"library-computed term map {terms} differs from its "
                    f"validated copy {ref.terms}")
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
        return LaurentPoly._trusted(
            self.table, _merge(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(
            self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._need_same_table(other)
        return LaurentPoly(self.table, _merge({}, (
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items())))

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
        replaced by a value that `inverse` accepts, otherwise the result
        would leave the Laurent ring and the call is rejected.

        With an empty assignment this re-expresses the polynomial over
        `into`, dropping variables that do not occur; renaming w to z is
        `substitute({"w": z}, into=...)` with z a variable over `into`.
        """
        target = into if into is not None else self.table
        if not assignment and target == self.table:
            return self
        values: dict[int, LaurentPoly] = {}
        for name, value in assignment.items():
            if value.table != target:
                raise LaurentError("substitution value over the wrong table")
            values[self.table.index(name)] = value
        names = self.table.names
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms.items():
            term = LaurentPoly.monomial(target, coeff, {
                names[i]: e for i, e in enumerate(exps)
                if e and i not in values})
            for i, value in values.items():
                if exps[i]:
                    term = term * value ** exps[i]
            _merge(out, term.terms.items())
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

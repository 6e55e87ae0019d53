import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skeinalg.laurent
from skeinalg.laurent import EXP_LIMIT, LaurentError, LaurentPoly, VarTable

XY = VarTable(("x", "y"))
PQZ = VarTable(("p", "q", "z"), frozenset({"p", "q", "z"}))


def poly_of(terms, table=XY):
    return LaurentPoly(table, terms)


exps_st = st.tuples(st.integers(0, 4), st.integers(0, 4))
terms_st = st.dictionaries(exps_st, st.integers(-6, 6), max_size=5)
poly_st = terms_st.map(poly_of)


# exponents of either sign over a table where every variable inverts
laurent_terms_st = st.dictionaries(
    st.tuples(*[st.integers(-3, 3)] * 3),
    st.integers(-12, 12).filter(bool), max_size=8)


class TestNormalForm:
    def test_zero_coefficients_dropped(self):
        assert poly_of({(1, 0): 0, (0, 1): 2}).terms == {(0, 1): 2}

    def test_equality_is_term_equality(self):
        a = poly_of({(1, 2): 3})
        b = poly_of({(1, 2): 3})
        assert a == b and hash(a) == hash(b)

    def test_wrong_arity_rejected(self):
        with pytest.raises(LaurentError):
            poly_of({(1,): 1})

    def test_negative_power_needs_invertible(self):
        with pytest.raises(LaurentError):
            poly_of({(-1, 0): 1})
        LaurentPoly(PQZ, {(-1, 0, 0): 1})  # fine there

    def test_tables_never_mix(self):
        with pytest.raises(LaurentError):
            LaurentPoly.var(XY, "x") + LaurentPoly.var(PQZ, "p")

    def test_exponent_limit(self):
        with pytest.raises(OverflowError):
            LaurentPoly.var(PQZ, "p") ** EXP_LIMIT

    def test_negative_power_of_non_invertible_rejected(self):
        with pytest.raises(LaurentError) as info:
            LaurentPoly.var(XY, "x") ** -2
        assert str(info.value) == "negative power of non-invertible 'x'"


class TestVarTable:
    @pytest.mark.parametrize("build, message", [
        (lambda: VarTable(("x", "y", "x")),
         "duplicate variable names: ('x', 'y', 'x')"),
        (lambda: VarTable(("x",), frozenset({"x", "y"})),
         "invertible names not in table: ['y']"),
        (lambda: XY.index("z"), "unknown variable 'z'")])
    def test_refusals(self, build, message):
        with pytest.raises(LaurentError) as info:
            build()
        assert str(info.value) == message


class TestTrustedDoor:
    """`+`, `-` and unary `-` keep every exponent and build through
    `LaurentPoly._trusted`."""

    @pytest.fixture
    def checked(self, monkeypatch):
        calls = []
        real = skeinalg.laurent._check_exps

        def counting(table, exps):
            calls.append(exps)
            real(table, exps)

        monkeypatch.setattr(skeinalg.laurent, "_check_exps", counting)
        return calls

    def test_exponent_keeping_operations_check_nothing(self, checked):
        a = LaurentPoly(PQZ, {(i, -i, 1): i + 1 for i in range(-3, 4)})
        b = LaurentPoly(PQZ, {(i, -i, 1): 2 - i for i in range(5)})
        checked.clear()
        for run in (lambda: a + b, lambda: a - b, lambda: -a):
            run()
            assert checked == []
        assert (a - b) + b == a and -(-a) == a

    def test_switch_refuses_what_validation_would_change(self,
                                                         recheck_builds):
        with pytest.raises(AssertionError, match="validated copy"):
            LaurentPoly._trusted(XY, {(1, 0): 2, (0, 1): 0})
        with pytest.raises(LaurentError, match="non-invertible 'x'"):
            LaurentPoly._trusted(XY, {(-1, 0): 1})
        assert LaurentPoly._trusted(XY, {(1, 0): 2}) == poly_of({(1, 0): 2})


class TestRingLaws:
    @given(poly_st, poly_st)
    @settings(max_examples=60)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(poly_st, poly_st, poly_st)
    @settings(max_examples=60)
    def test_multiplication_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(poly_st, poly_st, poly_st)
    @settings(max_examples=60)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(poly_st)
    @settings(max_examples=30)
    def test_additive_inverse(self, a):
        assert a - a == LaurentPoly.zero(XY)

    @given(poly_st, st.integers(0, 5))
    @settings(max_examples=30)
    def test_power_is_repeated_product(self, a, n):
        expected = LaurentPoly.const(XY, 1)
        for _ in range(n):
            expected = expected * a
        assert a ** n == expected


def _eval_int(p: LaurentPoly, vals: dict[str, int]) -> int:
    total = 0
    for exps, coeff in p.terms.items():
        prod = coeff
        for name, e in zip(p.table.names, exps):
            prod *= vals[name] ** e
        total += prod
    return total


class TestSubstitute:
    @given(poly_st, st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=60)
    def test_constant_substitution_matches_evaluation(self, p, xv, yv):
        got = p.substitute({
            "x": LaurentPoly.const(XY, xv),
            "y": LaurentPoly.const(XY, yv),
        })
        assert got == LaurentPoly.const(XY, _eval_int(p, {"x": xv, "y": yv}))

    def test_into_other_table(self):
        p = poly_of({(2, 1): 3})
        w = LaurentPoly.var(PQZ, "q")
        got = p.substitute({"x": w, "y": w}, into=PQZ)
        assert got == LaurentPoly.monomial(PQZ, 3, {"q": 3})

    def test_negative_occurrence_needs_unit_monomial(self):
        p = LaurentPoly.var(PQZ, "p", -2)
        one_plus = LaurentPoly.const(PQZ, 1) + LaurentPoly.var(PQZ, "q")
        with pytest.raises(LaurentError):
            p.substitute({"p": one_plus})
        q = LaurentPoly.var(PQZ, "q")
        assert p.substitute({"p": q}) == LaurentPoly.var(PQZ, "q", -2)

    def test_value_over_the_wrong_table_rejected(self):
        with pytest.raises(LaurentError) as info:
            LaurentPoly.var(XY, "x").substitute(
                {"x": LaurentPoly.var(PQZ, "p")})
        assert str(info.value) == "substitution value over the wrong table"

    def test_unassigned_variables_pass_through(self):
        p = LaurentPoly.var(PQZ, "p") * LaurentPoly.var(PQZ, "z")
        got = p.substitute({"z": LaurentPoly.const(PQZ, 2)})
        assert got == LaurentPoly.monomial(PQZ, 2, {"p": 1})


class TestRemap:
    """Re-expressing a polynomial over another table, renaming included,
    is `substitute` with `into`."""

    ZW = VarTable(("z", "w"))
    Z = VarTable(("z",))

    def test_variables_landing_on_one_add_their_exponents(self):
        z, w = (LaurentPoly.var(self.ZW, n) for n in self.ZW.names)
        z1 = LaurentPoly.var(self.Z, "z")
        moved = (z * w).substitute({"w": z1}, into=self.Z)
        assert moved == LaurentPoly.var(self.Z, "z", 2)
        assert (z * w).substitute({"w": z}) == z * z

    def test_terms_landing_on_one_key_cancel(self):
        z, w = (LaurentPoly.var(self.ZW, n) for n in self.ZW.names)
        z1 = LaurentPoly.var(self.Z, "z")
        assert (z * w - z * z).substitute({"w": z1}, into=self.Z).is_zero()

    def test_reexpressing_over_a_wider_table_round_trips(self):
        a = LaurentPoly(PQZ, {(i, -i, 1): i + 1 for i in range(-3, 4)})
        wide = VarTable(("z", "q", "p", "w"), PQZ.invertible)
        moved = a.substitute({}, into=wide)
        assert len(moved.terms) == len(a.terms)
        assert moved.substitute({}, into=PQZ) == a


class TestCanonicalText:
    def test_unit_expansion_ordering(self):
        q_inv2 = LaurentPoly.var(PQZ, "q", -2)
        p = LaurentPoly.var(PQZ, "p")
        two = LaurentPoly.const(PQZ, 2)
        poly = q_inv2 - two * p * q_inv2 + p * p * q_inv2
        assert poly.text() == "1*q^-2 - 2*p*q^-2 + 1*p^2*q^-2"

    def test_constant_and_zero(self):
        assert LaurentPoly.zero(XY).text() == "0"
        assert LaurentPoly.const(XY, -7).text() == "-7"

    def test_degree_orders_before_lexicographic(self):
        x, y = LaurentPoly.var(XY, "x"), LaurentPoly.var(XY, "y")
        poly = y * y + x + x * x
        # degree 1 first; among degree 2, higher leading exponent first
        assert poly.text() == "1*x + 1*x^2 + 1*y^2"

    @given(poly_st)
    @settings(max_examples=40)
    def test_json_terms_align_with_text(self, p):
        records = p.json_terms()
        degrees = [sum(t["exps"].values()) for t in records]
        assert degrees == sorted(degrees)
        assert all(t["coeff"] != 0 for t in records)

    @given(laurent_terms_st)
    @settings(max_examples=300)
    def test_rendering_matches_the_key_sort_renderer(self, terms):
        p = LaurentPoly(PQZ, terms)
        want_text, want_json = _key_sort_render(p)
        assert p.text() == want_text
        assert p.json_terms() == want_json

    def test_rendering_covers_negative_exponents_and_large_coefficients(self):
        for terms in ({}, {(0, 0, 0): 5}, {(0, 0, 0): -1, (-1, 2, 0): 3},
                      {(-2, -1, 0): -4, (1, 0, 0): 1, (0, 1, 0): -7,
                       (0, 0, 0): 2}):
            p = LaurentPoly(PQZ, terms)
            assert (p.text(), p.json_terms()) == _key_sort_render(p)


def _key_sort_render(p: LaurentPoly):
    """text() and json_terms() as a key-function sort and factor strings
    built one at a time give them: the reference the renderer keeps."""
    def key(item):
        exps, _ = item
        return (sum(exps), tuple(-e for e in exps))

    items = sorted(p.terms.items(), key=key)
    chunks = []
    for exps, coeff in items:
        factors = []
        for name, e in zip(p.table.names, exps):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        if factors:
            body = f"{abs(coeff)}*" + "*".join(factors)
        else:
            body = str(abs(coeff))
        if not chunks:
            chunks.append(body if coeff > 0 else "-" + body)
        else:
            chunks.append((" + " if coeff > 0 else " - ") + body)
    records = [{"coeff": coeff,
                "exps": {n: e for n, e in zip(p.table.names, exps) if e != 0}}
               for exps, coeff in items]
    return "".join(chunks) or "0", records


class TestInverse:
    def test_unit_monomial_inverse(self):
        pq = LaurentPoly.monomial(PQZ, 1, {"p": 1, "q": -1})
        assert pq.inverse() * pq == LaurentPoly.const(PQZ, 1)

    def test_non_monomial_rejected(self):
        p = LaurentPoly.var(PQZ, "p") + LaurentPoly.const(PQZ, 1)
        with pytest.raises(LaurentError):
            p.inverse()

    def test_non_unit_coefficient_rejected(self):
        with pytest.raises(LaurentError):
            LaurentPoly.const(PQZ, 2).inverse()

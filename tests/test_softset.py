"""Soft set algebra: worked examples and algebraic laws."""

import pytest
from hypothesis import given, strategies as st

from bisoft.errors import (
    ContextMismatchError,
    UnknownElementError,
    UnknownParameterError,
)
from bisoft.softset import (
    Context,
    SoftSet,
    absolute_soft_set,
    constant_soft_set,
    extend_parameters,
    member,
    null_soft_set,
    point_soft_set,
    restrict,
    soft_complement,
    soft_difference,
    soft_intersect,
    soft_subset,
    soft_union,
)

from conftest import make_soft

CTX = Context.of(["h1", "h2", "h3"], ["e1", "e2"])


def soft_sets(ctx=CTX):
    return st.integers(min_value=0, max_value=ctx.full_mask).map(
        lambda m: SoftSet(ctx, m)
    )


class TestContext:
    def test_equal_contexts_are_interchangeable(self):
        a = Context.of(["h1", "h2", "h3"], ["e1", "e2"])
        b = Context.of(iter(["h1", "h2", "h3"]), ("e1", "e2"))
        assert a is not b
        assert a == b == CTX
        assert hash(a) == hash(b)
        assert repr(a) == repr(b) == (
            "Context(universe=Universe(elements=('h1', 'h2', 'h3')), "
            "parameters=ParameterSet(parameters=('e1', 'e2')))"
        )
        assert a != Context.of(["h1", "h2", "h3"], ["e2", "e1"])
        assert {a: 1}[b] == 1

    def test_unknown_names_raise(self):
        with pytest.raises(UnknownElementError):
            CTX.element_index("h9")
        with pytest.raises(UnknownElementError):
            CTX.row("e1")
        with pytest.raises(UnknownElementError):
            CTX.subset_mask(["h1", "h9"])
        with pytest.raises(UnknownParameterError):
            CTX.parameter_index("h1")
        with pytest.raises(UnknownParameterError):
            null_soft_set(CTX).block("e9")
        with pytest.raises(UnknownParameterError):
            extend_parameters({"e9": ["h1"]}, CTX)

    def test_unknown_name_errors_read_as_messages(self):
        # both are KeyErrors, whose own str would be the bare repr 'h9'
        with pytest.raises(UnknownElementError) as element:
            CTX.element_index("h9")
        with pytest.raises(UnknownParameterError) as parameter:
            CTX.parameter_index("e9")
        assert str(element.value) == "unknown element 'h9'"
        assert str(parameter.value) == "unknown parameter 'e9'"
        assert isinstance(element.value, KeyError)
        assert element.value.args == ("h9",) and parameter.value.args == ("e9",)


class TestUnion:
    def test_worked_example(self, fx):
        doc = fx("bisoft1")
        h = soft_union(doc.resolve("F1"), doc.resolve("G2"))
        assert h.table() == {"e1": ("h1", "h2"), "e2": ("h1", "h2")}

    @given(soft_sets())
    def test_null_is_identity(self, a):
        assert soft_union(a, null_soft_set(CTX)) == a

    @given(soft_sets())
    def test_union_with_complement_is_absolute(self, a):
        assert soft_union(a, soft_complement(a)) == absolute_soft_set(CTX)

    def test_context_mismatch_rejected(self):
        other = Context.of(["h1", "h2"], ["e1", "e2"])
        with pytest.raises(ContextMismatchError):
            soft_union(null_soft_set(CTX), null_soft_set(other))


class TestIntersection:
    def test_worked_example(self, fx):
        doc = fx("t1a")
        got = soft_intersect(doc.resolve("F1"), doc.resolve("F2"))
        assert got == doc.resolve("F4")
        assert got.table() == {"e1": (), "e2": ("h3",)}

    @given(soft_sets())
    def test_absolute_is_identity(self, a):
        assert soft_intersect(a, absolute_soft_set(CTX)) == a

    @given(soft_sets())
    def test_null_absorbs(self, a):
        assert soft_intersect(a, null_soft_set(CTX)) == null_soft_set(CTX)


class TestComplement:
    def test_null_flips_to_absolute(self):
        assert soft_complement(null_soft_set(CTX)) == absolute_soft_set(CTX)

    def test_worked_example(self, fx):
        doc = fx("t2a")
        got = soft_complement(doc.resolve("G1"))
        assert got.table() == {"e1": ("h1", "h2"), "e2": ("h1", "h2")}

    @given(soft_sets())
    def test_involution(self, a):
        assert soft_complement(soft_complement(a)) == a

    @given(soft_sets(), soft_sets())
    def test_de_morgan(self, a, b):
        assert soft_complement(soft_union(a, b)) == soft_intersect(
            soft_complement(a), soft_complement(b)
        )
        assert soft_complement(soft_intersect(a, b)) == soft_union(
            soft_complement(a), soft_complement(b)
        )

    def test_de_morgan_on_declared_pair(self, fx):
        doc = fx("bisoft1")
        f1, g2 = doc.resolve("F1"), doc.resolve("G2")
        assert soft_complement(soft_union(f1, g2)) == soft_intersect(
            soft_complement(f1), soft_complement(g2)
        )


class TestDifference:
    def test_rough_upper_minus_lower_at_red(self, fx):
        from bisoft.rough import lower_approx, upper_approx

        doc = fx("rough")
        s = doc.space("S")
        target = doc.resolve("F")
        diff = soft_difference(upper_approx(s, target), lower_approx(s, target))
        assert diff.block("Red") == s.context.subset_mask(["x1", "x3", "x5"])

    @given(soft_sets())
    def test_minus_null(self, a):
        assert soft_difference(a, null_soft_set(CTX)) == a

    @given(soft_sets())
    def test_minus_self(self, a):
        assert soft_difference(a, a) == null_soft_set(CTX)


class TestSubset:
    @given(soft_sets())
    def test_null_below_everything(self, a):
        assert soft_subset(null_soft_set(CTX), a)

    def test_inclusion_holds(self, fx):
        doc = fx("bisoft1")
        assert soft_subset(doc.resolve("G4"), doc.resolve("G3"))

    def test_inclusion_fails_at_one_parameter(self, fx):
        doc = fx("bisoft1")
        assert not soft_subset(doc.resolve("F1"), doc.resolve("G1"))

    @given(soft_sets(), soft_sets())
    def test_mutual_inclusion_is_equality(self, a, b):
        both = soft_subset(a, b) and soft_subset(b, a)
        assert both == (a == b)


class TestMember:
    def test_strong_membership(self, fx):
        doc = fx("t0a")
        g2 = doc.resolve("G2")
        assert member("h2", g2)
        assert not member("h1", g2)

    def test_everyone_in_absolute(self):
        top = absolute_soft_set(CTX)
        assert all(member(x, top) for x in CTX.universe.elements)

    @given(soft_sets())
    def test_membership_fails_exactly_on_a_missing_parameter(self, a):
        for x in CTX.universe.elements:
            missing = any(
                x not in a.table()[p] for p in CTX.parameters.parameters
            )
            assert member(x, a) != missing

    def test_unknown_element(self):
        with pytest.raises(UnknownElementError):
            member("h9", null_soft_set(CTX))


class TestBuilders:
    def test_point_soft_set(self):
        assert point_soft_set("h1", CTX).table() == {"e1": ("h1",), "e2": ("h1",)}

    def test_constant_full_and_empty(self):
        assert constant_soft_set(["h1", "h2", "h3"], CTX) == absolute_soft_set(CTX)
        assert constant_soft_set([], CTX) == null_soft_set(CTX)

    def test_extend_total_table_is_identity(self):
        a = make_soft(CTX, e1="h1 h2", e2="h3")
        again = extend_parameters(
            {p: list(v) for p, v in a.table().items()}, CTX
        )
        assert again == a

    def test_extend_empty_table_is_null(self):
        assert extend_parameters({}, CTX) == null_soft_set(CTX)

    def test_extend_fills_missing_parameters_with_empty(self, fx):
        doc = fx("rough")
        target = doc.resolve("F")
        assert target.block("Green") == 0
        assert target.table()["Red"] == ("x2", "x4", "x5")


class TestRestrict:
    @given(soft_sets())
    def test_full_keep_is_identity(self, a):
        assert restrict(a, CTX.universe.elements) == a

    @given(soft_sets())
    def test_empty_keep_is_null(self, a):
        assert restrict(a, []) == null_soft_set(CTX)

    def test_worked_example(self, fx):
        doc = fx("bisoft1")
        got = restrict(doc.resolve("F1"), ["h1", "h2"])
        assert got.table() == {"e1": ("h1",), "e2": ("h1", "h2")}

    @given(soft_sets(), st.sets(st.sampled_from(CTX.universe.elements)))
    def test_equals_intersection_with_constant(self, a, keep):
        assert restrict(a, keep) == soft_intersect(constant_soft_set(keep, CTX), a)


@given(soft_sets(), soft_sets(), soft_sets())
def test_lattice_laws(a, b, c):
    assert soft_union(a, b) == soft_union(b, a)
    assert soft_intersect(a, b) == soft_intersect(b, a)
    assert soft_union(a, soft_union(b, c)) == soft_union(soft_union(a, b), c)
    assert soft_intersect(a, soft_intersect(b, c)) == soft_intersect(
        soft_intersect(a, b), c
    )
    assert soft_union(a, a) == a
    assert soft_intersect(a, a) == a

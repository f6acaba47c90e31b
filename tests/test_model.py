"""Domains, variables, arrays, compact tokens, conditions."""

import pytest
from hypothesis import given, strategies as st

from xcsp3core.errors import (
    DuplicateId,
    IndexOutOfBounds,
    MalformedCompactToken,
    MalformedInterval,
    MatrixContextError,
    OutOfOrder,
    UnknownArray,
)
from xcsp3core.model import (
    Condition,
    CondOp,
    Domain,
    Instantiation,
    Interval,
    IntSet,
    STAR,
    VarArray,
    Variable,
    eval_condition,
    export_id,
)
from xcsp3core.expr import VarRef
from xcsp3core.parser import (
    Context,
    expand_compact_variable_list,
    expand_vxk,
    is_compact_token,
    parse_domain_text,
)


def make_array(name, *dims, lo=0, hi=9):
    dom = Domain(((lo, hi),))
    import itertools
    cells = []
    for idx in itertools.product(*(range(d) for d in dims)):
        cells.append(Variable(name + "".join(f"[{i}]" for i in idx), dom))
    return VarArray(name, tuple(dims), tuple(cells))


# -- domains -------------------------------------------------------------------------

def test_domain_mixes_values_and_intervals():
    d = parse_domain_text("1 3..5 10", "/x")
    assert list(d.values()) == [1, 3, 4, 5, 10]
    assert d.size == 5
    assert d.min_value == 1 and d.max_value == 10
    assert d.contains(4) and not d.contains(2)


def test_domain_order_enforced():
    with pytest.raises(OutOfOrder):
        parse_domain_text("0..10 10", "/x")
    with pytest.raises(OutOfOrder):
        parse_domain_text("5 3", "/x")
    with pytest.raises(OutOfOrder):
        parse_domain_text("1..3 2..5", "/x")


def test_interval_bounds_checked():
    with pytest.raises(MalformedInterval):
        parse_domain_text("5..3", "/x")


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=12, unique=True))
def test_domain_membership_matches_value_list(values):
    values = sorted(values)
    d = parse_domain_text(" ".join(map(str, values)), "/x")
    assert list(d.values()) == values
    for v in range(-55, 56):
        assert d.contains(v) == (v in set(values))


@given(lo=st.integers(-30, 30), size=st.integers(1, 40))
def test_interval_domain_round_trip(lo, size):
    hi = lo + size - 1
    d = parse_domain_text(f"{lo}..{hi}", "/x")
    assert d.size == size
    assert parse_domain_text(d.render(), "/x") == d


# -- v x k shorthand -----------------------------------------------------------------

def test_expand_vxk():
    assert expand_vxk(["1x3", "0", "2x2"]) == [1, 1, 1, 0, 2, 2]


@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 4)),
                min_size=1, max_size=5))
def test_vxk_is_run_length_encoding(pairs):
    tokens = [f"{v}x{k}" for v, k in pairs]
    flat = []
    for v, k in pairs:
        flat.extend([v] * k)
    assert expand_vxk(tokens) == flat


def test_vxk_rejects_zero_count():
    with pytest.raises(Exception):
        expand_vxk(["1x0"])


# -- compact variable tokens ---------------------------------------------------------

def test_compact_list_expansion():
    arr = make_array("x", 3, 3)
    amap = {"x": arr}
    assert expand_compact_variable_list("x[0][]", amap, Context.LIST) == \
        ["x[0][0]", "x[0][1]", "x[0][2]"]
    assert expand_compact_variable_list("x[][1]", amap, Context.LIST) == \
        ["x[0][1]", "x[1][1]", "x[2][1]"]
    assert expand_compact_variable_list("x[1..2][0]", amap, Context.LIST) == \
        ["x[1][0]", "x[2][0]"]


def test_compact_list_is_rowwise_concatenation():
    # flattening the whole array equals concatenating its rows
    arr = make_array("y", 2, 3)
    amap = {"y": arr}
    whole = expand_compact_variable_list("y[][]", amap, Context.LIST)
    rows = [expand_compact_variable_list(f"y[{i}][]", amap, Context.LIST)
            for i in range(2)]
    assert whole == rows[0] + rows[1]


@given(d0=st.integers(1, 4), d1=st.integers(1, 4))
def test_compact_list_concat_property(d0, d1):
    arr = make_array("z", d0, d1)
    amap = {"z": arr}
    whole = expand_compact_variable_list("z[][]", amap, Context.LIST)
    concat = []
    for i in range(d0):
        concat.extend(expand_compact_variable_list(f"z[{i}][]", amap, Context.LIST))
    assert whole == concat


def test_compact_matrix_needs_two_free_dims():
    arr = make_array("x", 3, 3)
    amap = {"x": arr}
    rows = expand_compact_variable_list("x[][]", amap, Context.MATRIX)
    assert rows == [[f"x[{i}][{j}]" for j in range(3)] for i in range(3)]
    with pytest.raises(MatrixContextError):
        expand_compact_variable_list("x[0][]", amap, Context.MATRIX)


def test_compact_errors():
    arr = make_array("x", 3)
    amap = {"x": arr}
    with pytest.raises(UnknownArray):
        expand_compact_variable_list("nope[]", amap, Context.LIST)
    with pytest.raises(IndexOutOfBounds):
        expand_compact_variable_list("x[7]", amap, Context.LIST)
    with pytest.raises(IndexOutOfBounds):
        expand_compact_variable_list("x[][]", amap, Context.LIST)
    with pytest.raises(MalformedCompactToken):
        expand_compact_variable_list("x[1..]", amap, Context.LIST)


def test_is_compact_token():
    assert is_compact_token("x[]")
    assert is_compact_token("x[1..2][0]")
    assert not is_compact_token("x")
    assert not is_compact_token("add(x,1)")


# -- conditions ----------------------------------------------------------------------

def test_condition_pairing_rules():
    Condition(CondOp.LT, 5)
    Condition(CondOp.IN, Interval(1, 3))
    Condition(CondOp.NOTIN, IntSet(frozenset({1, 2})))
    with pytest.raises(ValueError):
        Condition(CondOp.LT, Interval(1, 3))  # order ops need numeric operands
    with pytest.raises(ValueError):
        Condition(CondOp.IN, 5)


@given(v=st.integers(-10, 10), lo=st.integers(-5, 5), size=st.integers(0, 6))
def test_in_interval_equals_ge_and_le(v, lo, size):
    hi = lo + size
    inside = eval_condition(v, Condition(CondOp.IN, Interval(lo, hi)), {})
    both = (eval_condition(v, Condition(CondOp.GE, lo), {})
            and eval_condition(v, Condition(CondOp.LE, hi), {}))
    assert inside == both


def test_condition_with_variable_rhs():
    c = Condition(CondOp.LE, VarRef("k"))
    assert eval_condition(3, c, {"k": 5})
    assert not eval_condition(9, c, {"k": 5})


# -- instantiation mapping -----------------------------------------------------------

def test_instantiation_rejects_duplicates():
    with pytest.raises(DuplicateId):
        Instantiation([("x", 1), ("x", 2)])


def test_instantiation_stars():
    sol = Instantiation([("x", 1), ("y", STAR)])
    assert sol["x"] == 1
    assert sol["y"] is STAR


# -- ids -----------------------------------------------------------------------------

def test_export_id_flattens_brackets():
    assert export_id("x[0][3]") == "x_0_3"
    assert export_id("plain") == "plain"

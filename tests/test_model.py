"""Domains, variables, arrays, compact tokens, conditions."""

import pytest
from hypothesis import given, strategies as st

from xcsp3core.errors import ParseError, UnboundVariable
from xcsp3core.model import (
    Condition,
    CondOp,
    Domain,
    Instance,
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
    _var_ids,
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


def test_array_cells_must_fill_its_size():
    cells = make_array("x", 2, 3).cells
    with pytest.raises(ValueError, match=r"^array x: 5 cells for size \(2, 3\)$"):
        VarArray("x", (2, 3), cells[:5])


@pytest.mark.parametrize("first,second", [("var", "var"), ("array", "var"),
                                          ("var", "array"), ("array", "array")])
def test_an_instance_rejects_an_id_declared_twice(first, second):
    declared = {"var": Variable("x", Domain(((0, 1),))), "array": make_array("x", 2)}
    with pytest.raises(ParseError) as err:
        Instance((declared[first], declared[second]), ())
    assert (err.value.message, err.value.rule) == ("id 'x' declared twice", "duplicate-id")


# -- domains -------------------------------------------------------------------------

def test_domain_mixes_values_and_intervals():
    d = parse_domain_text("1 3..5 10", "/x")
    assert list(d.values()) == [1, 3, 4, 5, 10]
    assert d.size == 5
    assert d.min_value == 1 and d.max_value == 10
    assert d.contains(4) and not d.contains(2)


def test_domain_order_enforced():
    with pytest.raises(ParseError) as err:
        parse_domain_text("0..10 10", "/x")
    assert err.value.rule == "domain-order"
    with pytest.raises(ParseError) as err:
        parse_domain_text("5 3", "/x")
    assert err.value.rule == "domain-order"
    with pytest.raises(ParseError) as err:
        parse_domain_text("1..3 2..5", "/x")
    assert err.value.rule == "domain-order"


def test_interval_bounds_checked():
    with pytest.raises(ParseError) as err:
        parse_domain_text("5..3", "/x")
    assert err.value.rule == "interval-bounds"
    # the parser rejects that text before building a Domain; a caller's is checked too
    with pytest.raises(ParseError) as err:
        Domain(((3, 1),))
    assert err.value.rule == "interval-bounds"


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
    with pytest.raises(ParseError) as err:
        expand_compact_variable_list("x[0][]", amap, Context.MATRIX)
    assert err.value.rule == "matrix-shape"


def test_compact_errors():
    arr = make_array("x", 3)
    amap = {"x": arr}
    with pytest.raises(ParseError) as err:
        expand_compact_variable_list("nope[]", amap, Context.LIST)
    assert err.value.rule == "unknown-array"
    with pytest.raises(ParseError) as err:
        expand_compact_variable_list("x[7]", amap, Context.LIST)
    assert err.value.rule == "index-range"
    with pytest.raises(ParseError) as err:
        expand_compact_variable_list("x[][]", amap, Context.LIST)
    assert err.value.rule == "index-range"
    with pytest.raises(ParseError) as err:
        expand_compact_variable_list("x[1..]", amap, Context.LIST)
    assert err.value.rule == "compact-token"



@pytest.mark.parametrize("token", [
    "x[1][2]", "x[0][0]", "x[2][3]", "x[01][2]", "x[1][00]", "x[3][0]", "x[1][4]", "x[1]",
    "x[1][2][0]", "x[1][99999999999999999999]", "y[0]", "x[+1][2]", "x[-0][2]",
])
def test_a_cell_token_names_what_its_compact_expansion_names(token):
    # _var_ids names a cell that a token spells as it is written, without
    # expanding the token as a compact reference; x[01][2] is x[1][2]
    amap = {"x": make_array("x", 3, 4)}
    try:
        expected = expand_compact_variable_list(token, amap, Context.LIST)
    except ParseError as e:
        with pytest.raises(ParseError) as err:
            _var_ids(token, amap, "/list")
        assert (err.value.rule, err.value.path) == (e.rule, "/list")
    else:
        assert _var_ids(token, amap, "/list") == expected

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
    with pytest.raises(UnboundVariable, match="^k$"):
        eval_condition(3, c, {})


# -- instantiation mapping -----------------------------------------------------------

def test_instantiation_rejects_duplicates():
    with pytest.raises(ParseError) as err:
        Instantiation([("x", 1), ("x", 2)])
    assert err.value.rule == "instantiation-ids"


def test_instantiation_stars():
    sol = Instantiation([("x", 1), ("y", STAR)])
    assert sol["x"] == 1
    assert sol["y"] is STAR


def test_instantiation_views_compare_and_iterate_as_a_dict():
    pairs = [("y", 2), ("x", 1), ("z", STAR)]
    sol, plain = Instantiation(pairs), dict(pairs)
    assert list(sol.items()) == pairs and list(sol.values()) == [2, 1, STAR]
    assert sol.items() == plain.items() and ("x", 1) in sol.items()
    assert list(sol.keys()) == list(sol) == ["y", "x", "z"]
    assert len(sol.items()) == len(sol.values()) == 3
    assert sol == Instantiation(reversed(pairs)) == plain
    assert sol != Instantiation(pairs[:2]) and dict(sol) == plain


# -- ids -----------------------------------------------------------------------------

def test_export_id_flattens_brackets():
    assert export_id("x[0][3]") == "x_0_3"
    assert export_id("plain") == "plain"

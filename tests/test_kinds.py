"""Per-kind guards: one small document per constraint kind.

Each case gives the constraint's scope by hand: the variables it involves
in first-use order, without duplicates. Regular and Mdd name their states
after declared variables so that a scope read from their transitions
would show.
"""

import pytest

from conftest import FIXTURES
from xcsp3core import kinds as K
from xcsp3core.canonical import instances_equivalent, render_instance
from xcsp3core.checker import (
    _CHECKERS,
    check_constraint,
    check_solution,
    eval_objective,
)
from xcsp3core.expr import OpCall, VarRef, free_vars
from xcsp3core.model import STAR, Condition, Instantiation
from xcsp3core.parser import _ConstraintReader, parse_file, parse_string

DECLARATIONS = """
    <var id="a"> 0..3 </var> <var id="b"> 0..3 </var> <var id="c"> 0..3 </var>
    <var id="d"> 0..3 </var> <var id="e"> 0..3 </var>
    <array id="x" size="[3]"> 0..2 </array>
"""

# (kind, constraint element, scope)
CASES = [
    ("Intension", "<intension> eq(add(b,a),mul(b,2)) </intension>", ["b", "a"]),
    ("Extension", "<extension><list> c a </list><supports> (0,1)(1,*) </supports>"
                  "</extension>", ["c", "a"]),
    ("Regular", "<regular><list> c b </list><transitions> (a,0,d)(d,1,e) </transitions>"
                "<start> a </start><final> e </final></regular>", ["c", "b"]),
    ("Mdd", "<mdd><list> c b </list><transitions> (a,0,d)(a,1,d)(d,1,e) </transitions>"
            "</mdd>", ["c", "b"]),
    ("AllDifferent", "<allDifferent> c add(a,c) b </allDifferent>", ["c", "a", "b"]),
    ("AllDifferentLists", "<allDifferent><list> b a </list><list> a c </list>"
                          "</allDifferent>", ["b", "a", "c"]),
    ("AllDifferentMatrix", "<allDifferent><matrix> (b,a)(c,b) </matrix></allDifferent>",
     ["b", "a", "c"]),
    ("AllEqual", "<allEqual> c b c </allEqual>", ["c", "b"]),
    ("Ordered", "<ordered><list> b a c </list><lengths> d 1 </lengths>"
                "<operator> le </operator></ordered>", ["b", "a", "c", "d"]),
    ("Lex", "<lex><list> b a </list><list> c b </list><operator> le </operator></lex>",
     ["b", "a", "c"]),
    ("Lex2", "<lex><matrix> (b,a)(c,d) </matrix><operator> lt </operator></lex>",
     ["b", "a", "c", "d"]),
    ("Sum", "<sum><list> b a </list><coeffs> e 2 </coeffs><condition> (le,a) </condition>"
            "</sum>", ["b", "a", "e"]),
    ("Count", "<count><list> b add(a,c) </list><values> d 1 </values>"
              "<condition> (ge,e) </condition></count>", ["b", "a", "c", "d", "e"]),
    ("NValues", "<nValues><list> c b c </list><condition> (eq,a) </condition></nValues>",
     ["c", "b", "a"]),
    ("Cardinality", "<cardinality><list> b a </list><values> c 1 </values>"
                    "<occurs> d 0..1 </occurs></cardinality>", ["b", "a", "c", "d"]),
    ("Minimum", "<minimum><list> c mul(b,2) </list><condition> (eq,a) </condition>"
                "</minimum>", ["c", "b", "a"]),
    ("Maximum", "<maximum><list> x[] </list><condition> (in,1..2) </condition>"
                "</maximum>", ["x[0]", "x[1]", "x[2]"]),
    ("ElementVarList", "<element><list> c b </list><index> a </index><value> d </value>"
                       "</element>", ["c", "b", "a", "d"]),
    ("ElementValList", "<element><list> 3 1 2 </list><index> b </index>"
                       "<value> a </value></element>", ["b", "a"]),
    ("ElementMatrix", "<element><matrix> (b,a)(c,b) </matrix><index> d e </index>"
                      "<condition> (ne,a) </condition></element>",
     ["b", "a", "c", "d", "e"]),
    ("ChannelOne", "<channel> c a b </channel>", ["c", "a", "b"]),
    ("ChannelTwo", "<channel><list> b a </list><list> c d </list></channel>",
     ["b", "a", "c", "d"]),
    ("ChannelValue", "<channel><list> c b </list><value> a </value></channel>",
     ["c", "b", "a"]),
    ("NoOverlap1", "<noOverlap><origins> b a </origins><lengths> c 1 </lengths>"
                   "</noOverlap>", ["b", "a", "c"]),
    ("NoOverlapK", "<noOverlap><origins> (b,a)(c,d) </origins>"
                   "<lengths> (1,e)(2,a) </lengths></noOverlap>", ["b", "a", "c", "d", "e"]),
    ("Cumulative", "<cumulative><origins> b a </origins><lengths> c 1 </lengths>"
                   "<heights> 1 d </heights><condition> (le,e) </condition></cumulative>",
     ["b", "a", "c", "d", "e"]),
    ("Circuit", "<circuit><list> x[] </list><size> d </size></circuit>",
     ["x[0]", "x[1]", "x[2]", "d"]),
    ("InstantiationCtr", "<instantiation><list> c a </list><values> 1 * </values>"
                         "</instantiation>", ["c", "a"]),
]
IDS = [name for name, _, _ in CASES]


def document(constraint: str) -> str:
    return (f'<instance format="XCSP3" type="CSP"><variables>{DECLARATIONS}</variables>'
            f"<constraints>{constraint}</constraints></instance>")


def only_kind(constraint: str):
    instance = parse_string(document(constraint))
    assert len(instance.constraints) == 1
    return instance.constraints[0].kind


@pytest.mark.parametrize("name,constraint,scope", CASES, ids=IDS)
def test_scope_by_hand(name, constraint, scope):
    kind = only_kind(constraint)
    assert type(kind).__name__ == name
    assert list(kind.var_ids) == scope


def _walk(value, ids):
    """The field walk of var_ids, by isinstance: a str is an id, a VarRef
    gives its id, an expression its free variables, a Condition its operand's
    id; tuples are walked item by item."""
    if isinstance(value, str):
        ids.setdefault(value, None)
    elif isinstance(value, VarRef):
        ids.setdefault(value.id, None)
    elif isinstance(value, OpCall):
        for vid in free_vars(value):
            ids.setdefault(vid, None)
    elif isinstance(value, Condition):
        _walk(value.operand, ids)
    elif isinstance(value, tuple):
        for item in value:
            _walk(item, ids)


def _walked(kind):
    ids = {}
    for name in kind.FIELDS:
        _walk(getattr(kind, name), ids)
    return tuple(ids)


@pytest.mark.parametrize("name,constraint,scope", CASES, ids=IDS)
def test_var_ids_follow_the_field_walk(name, constraint, scope):
    kind = only_kind(constraint)
    expected = (tuple(dict.fromkeys(kind.scope)) if isinstance(kind, K._Scoped)
                else _walked(kind))
    assert kind.var_ids == expected == tuple(scope)


def test_var_ids_follow_the_field_walk_in_every_fixture():
    for path in sorted(FIXTURES.glob("*.xml")):
        instance = parse_file(path)
        for posted in instance.constraints:
            if not isinstance(posted.kind, K._Scoped):
                assert posted.kind.var_ids == _walked(posted.kind), (path.name, posted)
        if instance.objective is not None:
            assert instance.objective.var_ids == _walked(instance.objective), path.name


@pytest.mark.parametrize("name,constraint,scope", CASES, ids=IDS)
def test_round_trip(name, constraint, scope):
    instance = parse_string(document(constraint))
    again = parse_string(render_instance(instance))
    assert instances_equivalent(instance, again)


@pytest.mark.parametrize("name,constraint,scope", CASES, ids=IDS)
def test_var_ids_computed_once(name, constraint, scope):
    kind = only_kind(constraint)
    assert kind.var_ids is kind.var_ids


@pytest.mark.parametrize("constraint", [
    "<regular><list> x[0] x[0] c </list><transitions> (a,0,d)(d,1,e)(e,0,b) </transitions>"
    "<start> a </start><final> b </final></regular>",
    "<mdd><list> c x[0] c </list><transitions> (a,0,d)(d,1,e)(e,0,b) </transitions></mdd>",
    "<extension><list> c x[0] c </list><supports> (0,0,0)(1,1,1) </supports></extension>",
])
def test_repeated_scope_variable_is_involved_once(constraint):
    kind = only_kind(constraint)
    assert len(kind.scope) == 3
    assert kind.var_ids == tuple(dict.fromkeys(kind.scope))
    assert len(kind.var_ids) == 2


@pytest.mark.parametrize("name,constraint,scope", CASES, ids=IDS)
def test_compiled_lazily_and_once(name, constraint, scope):
    kind = only_kind(constraint)
    assert "compiled" not in vars(kind)  # parsing compiles nothing
    check_constraint(kind, {vid: 1 for vid in scope})
    if type(kind).EXPRESSIONS:
        assert "compiled" in vars(kind)  # built by the check
    assert kind.compiled is kind.compiled


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.xml")))
def test_parsing_a_fixture_compiles_nothing(name):
    instance = parse_file(FIXTURES / name)
    holders = [posted.kind for posted in instance.constraints] + [instance.objective]
    assert not any("compiled" in vars(h) for h in holders if h is not None)
    assert not any("table" in vars(h) for h in holders if h is not None)
    assert "useful_ids" not in vars(instance)
    # the first check builds the tables and the instance's state
    lowest = {v.id: v.domain.min_value for v in instance.variables()
              if v.domain is not None}
    check_solution(instance, Instantiation(lowest))
    tables = [posted.kind for posted in instance.constraints
              if isinstance(posted.kind, K.Extension)]
    assert all("table" in vars(kind) for kind in tables)
    assert all((kind.table is None) == (kind.unary is not None
                                        or any(STAR in row for row in kind.tuples))
               for kind in tables)
    assert vars(instance)["useful_ids"] is instance.useful_ids


def test_compiled_holds_each_expression_with_its_free_variables():
    kind = only_kind("<allDifferent> c add(a,c) 2 </allDifferent>")
    env = {"a": 1, "c": 3}
    assert [(evaluate(env), free) for evaluate, free in kind.compiled] == [
        (3, None), (4, ("a", "c")), (2, ())]


def test_expression_fields_by_hand():
    operands = ("operands",)
    expected = {"Intension": ("function",), "AllDifferent": operands,
                "AllEqual": operands, "Sum": ("terms",), "Count": operands,
                "NValues": operands, "Minimum": operands, "Maximum": operands}
    for kind in _concrete_kinds(K.ConstraintKind):
        assert kind.EXPRESSIONS == expected.get(kind.__name__, ()), kind
    assert K.Objective.EXPRESSIONS == ("expression", "operands")


def _concrete_kinds(cls):
    for sub in cls.__subclasses__():
        if not sub.__name__.startswith("_"):
            yield sub
        yield from _concrete_kinds(sub)


@pytest.mark.parametrize("kind", sorted(_concrete_kinds(K.ConstraintKind),
                                        key=lambda k: k.__name__), ids=lambda k: k.__name__)
def test_writer_row_and_roles_follow_fields(kind):
    """The writer's row names each field once (Extension.positive picks the
    <supports> or <conflicts> tag instead); EXPRESSIONS are fields and
    DEFAULTS are the trailing ones. A field added without a row fails here."""
    _, row = K.LAYOUT[kind]
    written = [f for _, names in row for f in ((names,) if type(names) is str else names)]
    expected = [f for f in kind.FIELDS if (kind, f) != (K.Extension, "positive")]
    assert sorted(written) == sorted(expected)
    assert set(kind.EXPRESSIONS) <= set(kind.FIELDS)
    assert tuple(kind.DEFAULTS) == kind.FIELDS[len(kind.FIELDS) - len(kind.DEFAULTS):]


# The attributes beyond id, class and note, and the children, each written
# child@attribute@... with the attributes it takes, that each tag took when
# they were written out by hand: a layout row that widens or narrows what a
# tag accepts fails here.
TAG_COLUMNS = {
    "intension": ("", "function"),
    "extension": ("", "list@startIndex supports conflicts"),
    "regular": ("", "list transitions start final"),
    "mdd": ("", "list transitions"),
    "allDifferent": ("", "list matrix except"),
    "allEqual": ("", "list"),
    "ordered": ("", "list lengths operator"),
    "lex": ("", "list matrix operator"),
    "sum": ("", "list coeffs condition"),
    "count": ("", "list values condition"),
    "nValues": ("", "list except condition"),
    "cardinality": ("", "list values@closed occurs"),
    "minimum": ("", "list condition"),
    "maximum": ("", "list condition"),
    "element": ("", "list@startIndex matrix@startRowIndex@startColIndex index value "
                "condition"),
    "channel": ("", "list@startIndex value"),
    "noOverlap": ("zeroIgnored", "origins lengths"),
    "cumulative": ("", "origins lengths heights condition"),
    "circuit": ("", "list@startIndex size"),
    "instantiation": ("", "list values"),
}


def test_each_tag_takes_the_attributes_and_children_of_its_layout_rows():
    derived = {tag: (extra, children) for tag, (_, extra, children) in _ConstraintReader._TAGS.items()}
    assert derived == {tag: (frozenset(extra.split()),
                             {child: frozenset(attrs) for child, *attrs in
                              (column.split("@") for column in children.split())})
                       for tag, (extra, children) in TAG_COLUMNS.items()}


def test_every_kind_has_a_case_and_a_table_row():
    kinds = set(_concrete_kinds(K.ConstraintKind))
    assert {k.__name__ for k in kinds} == set(IDS)
    assert kinds == set(_CHECKERS)
    assert kinds == set(K.LAYOUT)


def test_an_expression_objective_needs_its_expression():
    with pytest.raises(ValueError, match="^expression objective without an expression$"):
        K.Objective(K.Sense.MINIMIZE, K.ObjKind.EXPRESSION, operands=(VarRef("x"),))


def test_objective_scope():
    doc = document("").replace('type="CSP"', 'type="COP"').replace(
        "</instance>", "<objectives><minimize type=\"sum\"> <list> c x[1] c </list>"
                       "<coeffs> 1 2 3 </coeffs> </minimize></objectives></instance>")
    objective = parse_string(doc).objective
    assert objective.var_ids == ("c", "x[1]")
    assert objective.var_ids is objective.var_ids
    assert "compiled" not in vars(objective)
    assert eval_objective(objective, {"c": 1, "x[1]": 2}) == 1 + 4 + 3
    assert objective.compiled is objective.compiled

"""Record semantics of the model's value classes (expr.Record), and copies
of a parsed, searched instance made by pickle and copy."""

import copy
import dataclasses
import pickle

import pytest

from conftest import FIXTURES
from xcsp3core import expr, kinds as K, model
from xcsp3core.expr import IntConst, OpCall, Record, VarRef
from xcsp3core.model import CondOp, Condition, Domain
from xcsp3core.parser import parse_file
from xcsp3core.solver import SearchConfig, solve

x = VarRef("x")
le3 = Condition(CondOp.LE, 3)


def _records():
    return [cls for module in (expr, model, K) for cls in vars(module).values()
            if isinstance(cls, type) and issubclass(cls, Record)
            and cls.__module__ == module.__name__ and cls.FIELDS]


def test_the_value_classes_are_records_not_dataclasses():
    records = _records()
    assert len(records) == 42
    assert not any(dataclasses.is_dataclass(cls) for cls in records)
    assert dataclasses.is_dataclass(model.Instance)


def test_equal_only_within_a_class():
    assert K.Minimum((x,), le3) == K.Minimum((x,), le3)
    assert K.Minimum((x,), le3) != K.Maximum((x,), le3)
    assert K.Minimum((x,), le3).__eq__(K.Maximum((x,), le3)) is NotImplemented
    assert VarRef("x").__eq__("x") is NotImplemented
    assert OpCall("add", (x, IntConst(1))) != OpCall("add", (x, IntConst(2)))


@pytest.mark.parametrize("name", ["latin_group.xml", "scheduling_small.xml", "mdd_triples.xml"])
def test_equal_records_hash_alike(name):
    a, b = parse_file(FIXTURES / name), parse_file(FIXTURES / name)
    for one, other in zip(a.constraints + a.declarations, b.constraints + b.declarations):
        assert one == other and hash(one) == hash(other)
    assert hash(OpCall("add", (x, IntConst(1)))) == hash(OpCall("add", (VarRef("x"), IntConst(1))))


def test_construction_by_position_keyword_and_default():
    by_keyword = K.Extension(scope=("a",), positive=True, tuples=((1,),))
    assert by_keyword == K.Extension(("a",), True, ((1,),), None)
    assert by_keyword.unary is None
    assert K.Circuit(("a", "b")).size is None
    assert K.NoOverlap1(origins=("a",), lengths=(1,)).zero_ignored is True
    with pytest.raises(TypeError):
        K.Circuit()
    with pytest.raises(ValueError, match="exactly one of tuples/unary"):
        K.Extension(scope=("a",), positive=True)  # validation runs last


def test_fields_cannot_be_assigned_or_deleted():
    kind = K.AllDifferent((x,))
    for record, name in [(x, "id"), (kind, "operands"), (kind, "fresh"), (le3, "op")]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert kind.operands == (x,)


def test_repr_names_each_field():
    assert repr(OpCall("add", (x, IntConst(1)))) == (
        "OpCall(op='add', args=(VarRef(id='x'), IntConst(value=1)))")
    assert repr(Domain(((0, 2),))) == "Domain(items=((0, 2),))"


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.xml")))
def test_a_searched_instance_pickles_and_copies(name):
    """Each copy equals the original and searches alike; the copies of the
    kinds start without the caches the search built."""
    config = SearchConfig(node_limit=20_000, partial_checks=False)
    instance = parse_file(FIXTURES / name)
    result = solve(instance, config)
    for again in (pickle.loads(pickle.dumps(instance)), copy.copy(instance),
                  copy.deepcopy(instance)):
        assert (again.declarations, again.constraints, again.objective) == (
            instance.declarations, instance.constraints, instance.objective)
        if again.constraints and again.constraints is not instance.constraints:
            assert "compiled" not in vars(again.constraints[0].kind)
        repeat = solve(again, config)
        assert (repeat.status, repeat.count, repeat.nodes) == (
            result.status, result.count, result.nodes)


def test_a_kind_keeps_one_bounded_evaluator_per_expression():
    """kinds.bounded keys its result by the bounds of the expression's own
    variables; copies and pickles start without it."""
    e = OpCall("ne", (OpCall("add", (x, IntConst(1))), VarRef("y")))
    kind = K.Intension(e)
    first = kind.bounded(e, {"x": (0, 3), "y": (0, 3), "z": (5, 9)})
    assert kind.bounded(e, {"x": (0, 3), "y": (0, 3)}) is first
    wider = kind.bounded(e, {"x": (0, 2**63 - 1), "y": (0, 3)})
    assert wider is not first and len(vars(kind)["_bounded"]) == 1
    assert (first[1], wider[1]) == (False, True)  # only x + 1 past int64 may raise
    assert kind.bounded(e, {"x": (0, 3), "y": (0, 3)}) is not first
    for again in (pickle.loads(pickle.dumps(kind)), copy.copy(kind), copy.deepcopy(kind)):
        assert again == kind and "_bounded" not in vars(again)

"""Canonical XML emission for parsed instances.

render_instance writes an instance back as XCSP3-core XML that this
package's own parser accepts. Group and slide members come out as plain
constraints whose ids use the flat spelling (g[0] becomes g_0).
instances_equivalent compares two instances modulo that id rewriting.
"""

from __future__ import annotations

from typing import List, Tuple
from xml.sax.saxutils import escape, quoteattr

from . import kinds as K
from .expr import Expr, VarRef, print_expr
from .model import (
    Condition,
    Domain,
    Instance,
    Interval,
    IntSet,
    PostedConstraint,
    Star,
    VarArray,
    Variable,
    export_id,
)


def _val(v: K.Val) -> str:
    return v.id if isinstance(v, VarRef) else str(v)


def _value(v) -> str:
    return "*" if isinstance(v, Star) else str(v)


def _operand(v) -> str:
    if isinstance(v, VarRef):
        return v.id
    if isinstance(v, Interval):
        return f"{v.lo}..{v.hi}"
    if isinstance(v, IntSet):
        return "{" + ",".join(str(x) for x in v.values) + "}"
    return str(v)


def _condition(c: Condition) -> str:
    return f"({c.op.value},{_operand(c.operand)})"


def _tuples(rows) -> str:
    return "".join("(" + ",".join(_value(v) for v in row) + ")" for row in rows)


def _exprs(operands: Tuple[Expr, ...]) -> str:
    return " ".join(print_expr(e) for e in operands)


class _Writer:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0

    def line(self, text: str) -> None:
        self.lines.append("  " * self.depth + text)

    def open(self, tag: str, **attrs) -> None:
        self.line(self._tag(tag, attrs) + ">")
        self.depth += 1

    def close(self, tag: str) -> None:
        self.depth -= 1
        self.line(f"</{tag}>")

    def leaf(self, tag: str, text: str, **attrs) -> None:
        head = self._tag(tag, attrs)
        if text:
            self.line(f"{head}>{escape(text)}</{tag}>")
        else:
            self.line(head + "/>")

    @staticmethod
    def _tag(tag: str, attrs) -> str:
        parts = [f"<{tag}"]
        for key, value in attrs.items():
            if value is not None:
                parts.append(f" {key}={quoteattr(str(value))}")
        return "".join(parts)


def _constraint_attrs(posted: PostedConstraint) -> dict:
    attrs = {}
    if posted.id is not None:
        attrs["id"] = export_id(posted.id)
    if posted.classes:
        attrs["class"] = " ".join(posted.classes)
    if posted.note is not None:
        attrs["note"] = posted.note
    return attrs


def _write_variables(w: _Writer, instance: Instance) -> None:
    if not instance.declarations:
        return
    w.open("variables")
    for decl in instance.declarations:
        if isinstance(decl, Variable):
            w.leaf("var", decl.domain.render() if decl.domain else "", id=decl.id)
        else:
            _write_array(w, decl)
    w.close("variables")


def _write_array(w: _Writer, array: VarArray) -> None:
    size = "".join(f"[{n}]" for n in array.size)
    domains = {cell.domain for cell in array.cells}
    if domains == {None}:
        w.leaf("array", "", id=array.id, size=size)
        return
    if len(domains) == 1:
        w.leaf("array", array.cells[0].domain.render(), id=array.id, size=size)
        return
    # Mixed cell domains: one <domain> entry per distinct domain, cells
    # listed explicitly in declaration order; undefined cells are omitted.
    w.open("array", id=array.id, size=size)
    groups: List[Tuple[Domain, List[str]]] = []
    index = {}
    for cell in array.cells:
        if cell.domain is None:
            continue
        key = cell.domain.items
        if key not in index:
            index[key] = len(groups)
            groups.append((cell.domain, []))
        groups[index[key]][1].append(cell.id)
    for domain, ids in groups:
        w.leaf("domain", domain.render(), **{"for": " ".join(ids)})
    w.close("array")


def _write_constraint(w: _Writer, posted: PostedConstraint) -> None:
    kind = posted.kind
    attrs = _constraint_attrs(posted)
    if isinstance(kind, K.Intension):
        w.leaf("intension", print_expr(kind.function), **attrs)
    elif isinstance(kind, K.Extension):
        tag = "supports" if kind.positive else "conflicts"
        w.open("extension", **attrs)
        w.leaf("list", " ".join(kind.scope))
        if kind.unary is not None:
            w.leaf(tag, kind.unary.render())
        else:
            w.leaf(tag, _tuples(kind.tuples))
        w.close("extension")
    elif isinstance(kind, K.Regular):
        w.open("regular", **attrs)
        w.leaf("list", " ".join(kind.scope))
        w.leaf("transitions", _tuples(kind.transitions))
        w.leaf("start", kind.start)
        w.leaf("final", " ".join(kind.finals))
        w.close("regular")
    elif isinstance(kind, K.Mdd):
        w.open("mdd", **attrs)
        w.leaf("list", " ".join(kind.scope))
        w.leaf("transitions", _tuples(kind.transitions))
        w.close("mdd")
    elif isinstance(kind, K.AllDifferent):
        if kind.excepts:
            w.open("allDifferent", **attrs)
            w.leaf("list", _exprs(kind.operands))
            w.leaf("except", " ".join(str(v) for v in kind.excepts))
            w.close("allDifferent")
        else:
            w.leaf("allDifferent", _exprs(kind.operands), **attrs)
    elif isinstance(kind, K.AllDifferentLists):
        w.open("allDifferent", **attrs)
        for lst in kind.lists:
            w.leaf("list", " ".join(lst))
        if kind.excepts:
            w.leaf("except", _tuples(kind.excepts))
        w.close("allDifferent")
    elif isinstance(kind, K.AllDifferentMatrix):
        w.open("allDifferent", **attrs)
        w.leaf("matrix", _tuples(kind.rows))
        w.close("allDifferent")
    elif isinstance(kind, K.AllEqual):
        w.leaf("allEqual", _exprs(kind.operands), **attrs)
    elif isinstance(kind, K.Ordered):
        w.open("ordered", **attrs)
        w.leaf("list", " ".join(kind.vars))
        if kind.lengths is not None:
            w.leaf("lengths", " ".join(_val(v) for v in kind.lengths))
        w.leaf("operator", kind.op.value)
        w.close("ordered")
    elif isinstance(kind, K.Lex):
        w.open("lex", **attrs)
        for lst in kind.lists:
            w.leaf("list", " ".join(lst))
        w.leaf("operator", kind.op.value)
        w.close("lex")
    elif isinstance(kind, K.Lex2):
        w.open("lex", **attrs)
        w.leaf("matrix", _tuples(kind.rows))
        w.leaf("operator", kind.op.value)
        w.close("lex")
    elif isinstance(kind, K.Sum):
        w.open("sum", **attrs)
        w.leaf("list", _exprs(kind.terms))
        if any(c != 1 for c in kind.coeffs):
            w.leaf("coeffs", " ".join(_val(v) for v in kind.coeffs))
        w.leaf("condition", _condition(kind.condition))
        w.close("sum")
    elif isinstance(kind, K.Count):
        w.open("count", **attrs)
        w.leaf("list", _exprs(kind.operands))
        w.leaf("values", " ".join(_val(v) for v in kind.values))
        w.leaf("condition", _condition(kind.condition))
        w.close("count")
    elif isinstance(kind, K.NValues):
        w.open("nValues", **attrs)
        w.leaf("list", _exprs(kind.operands))
        if kind.excepts:
            w.leaf("except", " ".join(str(v) for v in kind.excepts))
        w.leaf("condition", _condition(kind.condition))
        w.close("nValues")
    elif isinstance(kind, K.Cardinality):
        w.open("cardinality", **attrs)
        w.leaf("list", " ".join(kind.vars))
        values_attrs = {"closed": "true"} if kind.closed else {}
        w.leaf("values", " ".join(_val(v) for v in kind.values), **values_attrs)
        w.leaf("occurs", " ".join(_operand(v) for v in kind.occurs))
        w.close("cardinality")
    elif isinstance(kind, (K.Minimum, K.Maximum)):
        tag = "minimum" if isinstance(kind, K.Minimum) else "maximum"
        w.open(tag, **attrs)
        w.leaf("list", _exprs(kind.operands))
        w.leaf("condition", _condition(kind.condition))
        w.close(tag)
    elif isinstance(kind, (K.ElementVarList, K.ElementValList)):
        w.open("element", **attrs)
        if isinstance(kind, K.ElementVarList):
            w.leaf("list", " ".join(kind.vars))
        else:
            w.leaf("list", " ".join(str(v) for v in kind.values))
        w.leaf("index", kind.index)
        _write_element_rhs(w, kind.rhs)
        w.close("element")
    elif isinstance(kind, K.ElementMatrix):
        w.open("element", **attrs)
        w.leaf("matrix", _tuples(kind.cells))
        w.leaf("index", f"{kind.row_index} {kind.col_index}")
        _write_element_rhs(w, kind.rhs)
        w.close("element")
    elif isinstance(kind, K.ChannelOne):
        w.leaf("channel", " ".join(kind.vars), **attrs)
    elif isinstance(kind, K.ChannelTwo):
        w.open("channel", **attrs)
        w.leaf("list", " ".join(kind.first))
        w.leaf("list", " ".join(kind.second))
        w.close("channel")
    elif isinstance(kind, K.ChannelValue):
        w.open("channel", **attrs)
        w.leaf("list", " ".join(kind.vars))
        w.leaf("value", kind.value)
        w.close("channel")
    elif isinstance(kind, K.NoOverlap1):
        if not kind.zero_ignored:
            attrs["zeroIgnored"] = "false"
        w.open("noOverlap", **attrs)
        w.leaf("origins", " ".join(kind.origins))
        w.leaf("lengths", " ".join(_val(v) for v in kind.lengths))
        w.close("noOverlap")
    elif isinstance(kind, K.NoOverlapK):
        if not kind.zero_ignored:
            attrs["zeroIgnored"] = "false"
        w.open("noOverlap", **attrs)
        w.leaf("origins", _tuples(kind.origins))
        w.leaf("lengths",
               "".join("(" + ",".join(_val(v) for v in row) + ")"
                       for row in kind.lengths))
        w.close("noOverlap")
    elif isinstance(kind, K.Cumulative):
        w.open("cumulative", **attrs)
        w.leaf("origins", " ".join(kind.origins))
        w.leaf("lengths", " ".join(_val(v) for v in kind.lengths))
        w.leaf("heights", " ".join(_val(v) for v in kind.heights))
        w.leaf("condition", _condition(kind.condition))
        w.close("cumulative")
    elif isinstance(kind, K.Circuit):
        if kind.size is None:
            w.leaf("circuit", " ".join(kind.vars), **attrs)
        else:
            w.open("circuit", **attrs)
            w.leaf("list", " ".join(kind.vars))
            w.leaf("size", _val(kind.size))
            w.close("circuit")
    elif isinstance(kind, K.InstantiationCtr):
        w.open("instantiation", **attrs)
        w.leaf("list", " ".join(kind.vars))
        w.leaf("values", " ".join(_value(v) for v in kind.values))
        w.close("instantiation")
    else:
        raise TypeError(f"cannot render constraint kind {type(kind).__name__}")


def _write_element_rhs(w: _Writer, rhs: K.ElementRhs) -> None:
    if isinstance(rhs, Condition):
        w.leaf("condition", _condition(rhs))
    elif isinstance(rhs, VarRef):
        w.leaf("value", rhs.id)
    else:
        w.leaf("value", str(rhs))


def _write_objective(w: _Writer, obj: K.Objective) -> None:
    w.open("objectives")
    tag = "minimize" if obj.sense is K.Sense.MINIMIZE else "maximize"
    if obj.kind is K.ObjKind.EXPRESSION:
        w.leaf(tag, print_expr(obj.expression))
    else:
        w.open(tag, type=obj.kind.value)
        w.leaf("list", _exprs(obj.operands))
        if obj.coeffs is not None:
            w.leaf("coeffs", " ".join(str(c) for c in obj.coeffs))
        w.close(tag)
    w.close("objectives")


def render_instance(instance: Instance) -> str:
    w = _Writer()
    w.open("instance", format="XCSP3", type=instance.framework.value)
    _write_variables(w, instance)
    if instance.constraints:
        w.open("constraints")
        for posted in instance.constraints:
            _write_constraint(w, posted)
        w.close("constraints")
    if instance.objective is not None:
        _write_objective(w, instance.objective)
    if instance.decision is not None:
        w.open("annotations")
        w.leaf("decision", " ".join(instance.decision))
        w.close("annotations")
    w.close("instance")
    return "\n".join(w.lines) + "\n"


def _normalized(instance: Instance):
    constraints = tuple(
        (export_id(c.id) if c.id is not None else None, c.kind, c.classes)
        for c in instance.constraints)
    return (instance.declarations, constraints, instance.objective,
            instance.decision)


def instances_equivalent(a: Instance, b: Instance) -> bool:
    """Structural equality modulo the flat spelling of constraint ids."""
    return _normalized(a) == _normalized(b)

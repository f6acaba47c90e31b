"""Canonical XML emission for parsed instances.

render_instance writes an instance back as XCSP3-core XML that this
package's own parser accepts. Group and slide members come out as plain
constraints whose ids use the flat spelling (g[0] becomes g_0).
instances_equivalent compares two instances modulo that id rewriting.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from . import kinds as K
from .expr import IntConst, OpCall, SetLiteral, VarRef, print_expr
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


# Written here rather than imported from xml.sax.saxutils, whose import
# pulls in urllib.request; the output is the same byte for byte.
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                               "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"})


def escape(text: str) -> str:
    """Escape &, < and > in character data."""
    return text.translate(_TEXT_ESCAPES)


def quoteattr(value: str) -> str:
    """Escape and quote an attribute value.

    Double quotes unless the value holds a double quote and no single
    quote; when it holds both, double quotes with each " as &quot;.
    """
    value = value.translate(_ATTR_ESCAPES)
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    return '"' + value.replace('"', "&quot;") + '"'


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


# How a field value is spelled as element text, by its type: the output side
# of the token readers in parser.py. A tuple of tuples is a (a,b)(c,d) row
# sequence, any other tuple a space-separated list.
def _tuple_text(value: tuple) -> str:
    if value and type(value[0]) is tuple:
        return "".join(["(" + ",".join([_text(v) for v in row]) + ")" for row in value])
    return " ".join([_text(v) for v in value])


_SPELLING: Dict[type, Callable[[Any], str]] = {
    str: str,
    int: str,
    bool: lambda b: "true" if b else "false",
    tuple: _tuple_text,
    VarRef: lambda v: v.id,
    IntConst: print_expr,
    OpCall: print_expr,
    SetLiteral: print_expr,
    Star: lambda _: "*",
    Interval: lambda v: f"{v.lo}..{v.hi}",
    IntSet: lambda v: "{" + ",".join([str(x) for x in v.values]) + "}",
    Condition: lambda c: f"({c.op.value},{_text(c.operand)})",
    Domain: Domain.render,
    K.OrderOp: lambda op: op.value,
}


def _text(value: Any) -> str:
    return _SPELLING[type(value)](value)


# Each kind's element: its tag and its children in the order written, as
# (child tag, field name); a tuple of field names shares one child. A field
# left at its value in the kind's DEFAULTS is not written. The child tag "owner@name"
# writes the field as attribute name= of the child just written, or of the
# constraint element when owner is empty. The rules that no row states are in
# _write_constraint.
_LAYOUT: Dict[type, Tuple[str, tuple]] = {
    K.Intension: ("intension", (("function", "function"),)),
    K.Extension: ("extension", (("list", "scope"), ("supports", "tuples"),
                                ("supports", "unary"))),
    K.Regular: ("regular", (("list", "scope"), ("transitions", "transitions"),
                            ("start", "start"), ("final", "finals"))),
    K.Mdd: ("mdd", (("list", "scope"), ("transitions", "transitions"))),
    K.AllDifferent: ("allDifferent", (("list", "operands"), ("except", "excepts"))),
    K.AllDifferentLists: ("allDifferent", (("list", "lists"), ("except", "excepts"))),
    K.AllDifferentMatrix: ("allDifferent", (("matrix", "rows"),)),
    K.AllEqual: ("allEqual", (("list", "operands"),)),
    K.Ordered: ("ordered", (("list", "vars"), ("lengths", "lengths"), ("operator", "op"))),
    K.Lex: ("lex", (("list", "lists"), ("operator", "op"))),
    K.Lex2: ("lex", (("matrix", "rows"), ("operator", "op"))),
    K.Sum: ("sum", (("list", "terms"), ("coeffs", "coeffs"), ("condition", "condition"))),
    K.Count: ("count", (("list", "operands"), ("values", "values"),
                        ("condition", "condition"))),
    K.NValues: ("nValues", (("list", "operands"), ("except", "excepts"),
                            ("condition", "condition"))),
    K.Cardinality: ("cardinality", (("list", "vars"), ("values", "values"),
                                    ("values@closed", "closed"), ("occurs", "occurs"))),
    K.Minimum: ("minimum", (("list", "operands"), ("condition", "condition"))),
    K.Maximum: ("maximum", (("list", "operands"), ("condition", "condition"))),
    K.ElementVarList: ("element", (("list", "vars"), ("index", "index"), ("value", "rhs"))),
    K.ElementValList: ("element", (("list", "values"), ("index", "index"),
                                   ("value", "rhs"))),
    K.ElementMatrix: ("element", (("matrix", "cells"), ("index", ("row_index", "col_index")),
                                  ("value", "rhs"))),
    K.ChannelOne: ("channel", (("list", "vars"),)),
    K.ChannelTwo: ("channel", (("list", "first"), ("list", "second"))),
    K.ChannelValue: ("channel", (("list", "vars"), ("value", "value"))),
    K.NoOverlap1: ("noOverlap", (("@zeroIgnored", "zero_ignored"), ("origins", "origins"),
                                 ("lengths", "lengths"))),
    K.NoOverlapK: ("noOverlap", (("@zeroIgnored", "zero_ignored"), ("origins", "origins"),
                                 ("lengths", "lengths"))),
    K.Cumulative: ("cumulative", (("origins", "origins"), ("lengths", "lengths"),
                                  ("heights", "heights"), ("condition", "condition"))),
    K.Circuit: ("circuit", (("list", "vars"), ("size", "size"))),
    K.InstantiationCtr: ("instantiation", (("list", "vars"), ("values", "values"))),
}


def _write_constraint(w: _Writer, posted: PostedConstraint) -> None:
    """Write posted by its kind's _LAYOUT row. Beyond the row: sum coefficients
    that are all 1 are left out, a Condition goes in <condition>, the lists
    field gives one <list> per item, a negative table goes in <conflicts>, and
    a lone <list> or <function> child becomes the element's text."""
    kind = posted.kind
    tag, rows = _LAYOUT[type(kind)]
    attrs = _constraint_attrs(posted)
    children: List[Tuple[str, str, Dict[str, str]]] = []
    for child, name in rows:
        if type(name) is str:
            value = getattr(kind, name)
            if name in kind.DEFAULTS and value == kind.DEFAULTS[name]:
                continue
            if name == "coeffs" and all(c == 1 for c in value):
                continue
        else:
            value = tuple(getattr(kind, n) for n in name)
        if "@" in child:
            owner, _, attr = child.partition("@")
            (children[-1][2] if owner else attrs)[attr] = _text(value)
        elif name == "lists":
            children.extend(("list", _text(item), {}) for item in value)
        else:
            if type(value) is Condition:
                child = "condition"
            elif child == "supports" and not kind.positive:
                child = "conflicts"
            children.append((child, _text(value), {}))
    if len(children) == 1 and children[0][0] in ("list", "function"):
        w.leaf(tag, children[0][1], **attrs)
        return
    w.open(tag, **attrs)
    for child, text, child_attrs in children:
        w.leaf(child, text, **child_attrs)
    w.close(tag)


def _write_objective(w: _Writer, obj: K.Objective) -> None:
    w.open("objectives")
    tag = obj.sense.value
    if obj.kind is K.ObjKind.EXPRESSION:
        w.leaf(tag, _text(obj.expression))
    else:
        w.open(tag, type=obj.kind.value)
        w.leaf("list", _text(obj.operands))
        if obj.coeffs is not None:
            w.leaf("coeffs", _text(obj.coeffs))
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
        w.leaf("decision", _text(instance.decision))
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

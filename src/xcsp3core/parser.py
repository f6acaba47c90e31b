"""XML reader for XCSP3-core instances.

The reader is deliberately strict: attribute values must carry no
surrounding whitespace, and no whitespace may appear inside functional
expressions, conditions, tuples or intervals. Element text may be padded
freely. Lenient mode only relaxes which constraints are accepted
(unknown or non-core constraint forms are dropped instead of rejected);
it never relaxes the whitespace rules.
"""

from __future__ import annotations

import itertools
import math
import re
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from . import kinds as K
from .errors import (
    AliasOnForbiddenElement,
    ArityMismatch,
    BadFramework,
    BadSize,
    DuplicateId,
    ForwardAlias,
    LengthMismatch,
    MisplacedOthers,
    MissingArgument,
    MissingVariables,
    ObjectiveCountError,
    OutOfOrder,
    OverlappingFor,
    ParseError,
    RestInsideExpression,
    RestInSlide,
    TemplateNotCore,
    TransitiveAlias,
    UnknownAliasTarget,
    UnknownElement,
    WhitespaceError,
    check_int64,
)
from .expr import Expr, VarRef, is_identifier, parse_expr
from .kinds import Objective, ObjKind, OrderOp, Sense
from .model import (
    _COMPACT_RE,
    _SLOT_RE,
    _parse_slot,
    STAR,
    Condition,
    CondOp,
    Context,
    Domain,
    Instance,
    Interval,
    IntSet,
    PostedConstraint,
    Value,
    VarArray,
    Variable,
    expand_compact_variable_list,
    expand_vxk,
    is_compact_token,
)


@dataclass(frozen=True)
class ParserConfig:
    strict: bool = True
    drop_classes: FrozenSet[str] = frozenset()


@contextmanager
def _at(path: str):
    """Attach an element path to parse errors raised while inside."""
    try:
        yield
    except ParseError as e:
        if e.path is None:
            e.path = path
        raise


# -- raw tree -------------------------------------------------------------------

@dataclass
class RawElement:
    tag: str
    attrs: Dict[str, str]
    children: List["RawElement"]
    text: str
    path: str

    def attr(self, name: str) -> Optional[str]:
        return self.attrs.get(name)

    def find(self, tag: str) -> Optional["RawElement"]:
        for child in self.children:
            if child.tag == tag:
                return child
        return None

    def find_all(self, tag: str) -> List["RawElement"]:
        return [c for c in self.children if c.tag == tag]


def _wrap(el: ET.Element, path: str) -> RawElement:
    for key, value in el.attrib.items():
        if value != value.strip():
            raise WhitespaceError(
                f"attribute {key}={value!r} carries surrounding whitespace", 0,
                path=path, rule="attribute-whitespace")
    children_et = list(el)
    if children_et and (el.text or "").strip():
        raise ParseError(f"<{el.tag}> mixes text with child elements",
                         path=path, rule="mixed-content")
    counts: Dict[str, int] = {}
    for c in children_et:
        counts[c.tag] = counts.get(c.tag, 0) + 1
    seen: Dict[str, int] = {}
    children = []
    for c in children_et:
        if (c.tail or "").strip():
            raise ParseError(f"stray text after <{c.tag}>", path=path, rule="mixed-content")
        seen[c.tag] = seen.get(c.tag, 0) + 1
        sub = f"{path}/{c.tag}"
        if counts[c.tag] > 1:
            sub += f"[{seen[c.tag]}]"
        children.append(_wrap(c, sub))
    text = "" if children_et else (el.text or "")
    return RawElement(el.tag, dict(el.attrib), children, text, path)


def read_xml(text: str) -> RawElement:
    """Parse XML text into the checked raw tree rooted at /<root tag>."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as e:
        raise ParseError(f"malformed XML: {e}", path="/", rule="xml") from None
    return _wrap(root, f"/{root.tag}")


# -- token-level readers ---------------------------------------------------------

_INT_RE = re.compile(r"[+-]?[0-9]+")
_INTERVAL_RE = re.compile(r"([+-]?[0-9]+)\.\.([+-]?[0-9]+)")
_PARAM_RE = re.compile(r"%(?:[0-9]+|\.\.\.)")


def _parse_int(token: str, path: str, what: str = "integer") -> int:
    if not _INT_RE.fullmatch(token):
        raise ParseError(f"bad {what} token {token!r}", path=path, rule="integer")
    return check_int64(int(token), what)


def parse_domain_text(text: str, path: str, allow_empty: bool = False) -> Domain:
    tokens = text.split()
    if not tokens and not allow_empty:
        raise ParseError("empty domain", path=path, rule="var-domain")
    items: List[Tuple[int, int]] = []
    for token in tokens:
        if token == ".." or token.startswith("..") or token.endswith(".."):
            raise WhitespaceError(f"whitespace around '..' near {token!r}", 0,
                                  path=path, rule="interval-whitespace")
        m = _INTERVAL_RE.fullmatch(token)
        if m:
            lo = check_int64(int(m.group(1)), "domain bound")
            hi = check_int64(int(m.group(2)), "domain bound")
            items.append((lo, hi))
        elif _INT_RE.fullmatch(token):
            v = check_int64(int(token), "domain value")
            items.append((v, v))
        else:
            raise ParseError(f"bad domain token {token!r}", path=path, rule="domain-token")
    with _at(path):
        return Domain(tuple(items))


def parse_condition_text(text: str, path: str) -> Condition:
    body = text.strip()
    for i, ch in enumerate(body):
        if ch.isspace():
            raise WhitespaceError("whitespace inside condition", i,
                                  path=path, rule="condition-whitespace")
    if not (body.startswith("(") and body.endswith(")")):
        raise ParseError(f"condition must look like (op,operand): {body!r}",
                         path=path, rule="condition-syntax")
    op_text, sep, operand_text = body[1:-1].partition(",")
    if not sep:
        raise ParseError(f"condition needs an operator and an operand: {body!r}",
                         path=path, rule="condition-syntax")
    try:
        op = CondOp(op_text)
    except ValueError:
        raise ParseError(f"unknown condition operator {op_text!r}",
                         path=path, rule="condition-operator") from None
    operand = _parse_cond_operand(operand_text, path)
    try:
        return Condition(op, operand)
    except ValueError as e:
        raise ParseError(str(e), path=path, rule="condition-operand") from None


def _parse_cond_operand(text: str, path: str):
    if _INT_RE.fullmatch(text):
        return check_int64(int(text), "condition operand")
    m = _INTERVAL_RE.fullmatch(text)
    if m:
        return Interval(check_int64(int(m.group(1)), "interval bound"),
                        check_int64(int(m.group(2)), "interval bound"))
    if text.startswith("{") and text.endswith("}"):
        inner = text[1:-1]
        values = tuple(_parse_int(t, path, "set member") for t in inner.split(",")) \
            if inner else ()
        return IntSet(values)
    if text.startswith("set(") and text.endswith(")"):
        inner = text[4:-1]
        values = tuple(_parse_int(t, path, "set member") for t in inner.split(",")) \
            if inner else ()
        return IntSet(values)
    if is_identifier(text):
        return VarRef(text)
    raise ParseError(f"bad condition operand {text!r}", path=path, rule="condition-operand")


def read_tuples(text: str, path: str, parse_field: Callable[[str], object],
                what: str = "tuple") -> List[Tuple[object, ...]]:
    """Read a ()-delimited tuple sequence. Whitespace may separate tuples
    but never appear inside one."""
    out: List[Tuple[object, ...]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise ParseError(f"expected '(' in {what} sequence, found {ch!r}",
                             path=path, rule="tuple-syntax")
        j = text.find(")", i)
        if j < 0:
            raise ParseError(f"unterminated {what}", path=path, rule="tuple-syntax")
        inner = text[i + 1:j]
        for k, c in enumerate(inner):
            if c.isspace():
                raise WhitespaceError(f"whitespace inside {what}", i + 1 + k,
                                      path=path, rule="tuple-whitespace")
        with _at(path):
            out.append(tuple(parse_field(f) for f in inner.split(",")))
        i = j + 1
    return out


def _expand_token_to_ids(token: str, arrays: Dict[str, VarArray], path: str) -> List[str]:
    if is_compact_token(token):
        with _at(path):
            ids = expand_compact_variable_list(token, arrays, Context.LIST)
        return list(ids)
    if is_identifier(token):
        return [token]
    raise ParseError(f"bad variable token {token!r}", path=path, rule="variable-token")


def read_var_ids(text: str, arrays: Dict[str, VarArray], path: str) -> List[str]:
    ids: List[str] = []
    for token in text.split():
        ids.extend(_expand_token_to_ids(token, arrays, path))
    return ids


def read_exprs(text: str, arrays: Dict[str, VarArray], path: str) -> List[Expr]:
    """Operand list: variables, compact array references or expressions."""
    out: List[Expr] = []
    for token in text.split():
        if "%" in token:
            raise ParseError(f"template parameter {token!r} outside a template",
                             path=path, rule="parameter")
        if is_compact_token(token):
            with _at(path):
                ids = expand_compact_variable_list(token, arrays, Context.LIST)
            out.extend(VarRef(i) for i in ids)
        else:
            out.append(parse_expr(token, path))
    return out


def read_vals(text: str, arrays: Dict[str, VarArray], path: str,
              allow_vxk: bool = False) -> List[K.Val]:
    out: List[K.Val] = []
    for token in text.split():
        if allow_vxk and "x" in token and re.fullmatch(r"[+-]?[0-9]+x[0-9]+", token):
            with _at(path):
                out.extend(expand_vxk([token]))
        elif _INT_RE.fullmatch(token):
            out.append(check_int64(int(token), "value"))
        elif is_compact_token(token):
            with _at(path):
                ids = expand_compact_variable_list(token, arrays, Context.LIST)
            out.extend(VarRef(i) for i in ids)
        elif is_identifier(token):
            out.append(VarRef(token))
        else:
            raise ParseError(f"bad value token {token!r}", path=path, rule="value-token")
    return out


def read_int_values(text: str, path: str, allow_vxk: bool = False,
                    allow_star: bool = False) -> List[Value]:
    out: List[Value] = []
    for token in text.split():
        if allow_star and token == "*":
            out.append(STAR)
        elif allow_vxk:
            with _at(path):
                out.extend(expand_vxk([token]))
        else:
            out.append(_parse_int(token, path, "value"))
    return out


def _read_matrix(el: RawElement, arrays: Dict[str, VarArray],
                 parse_field: Callable[[str], object]) -> List[Tuple[object, ...]]:
    text = el.text.strip()
    if text.startswith("("):
        rows = read_tuples(el.text, el.path, parse_field, what="matrix row")
    else:
        tokens = text.split()
        if len(tokens) != 1:
            raise ParseError("matrix content must be one compact array reference "
                             "or a sequence of rows", path=el.path, rule="matrix-shape")
        with _at(el.path):
            grid = expand_compact_variable_list(tokens[0], arrays, Context.MATRIX)
        rows = [tuple(row) for row in grid]
    if not rows:
        raise ParseError("empty matrix", path=el.path, rule="matrix-shape")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise LengthMismatch("matrix rows differ in length", path=el.path,
                             rule="matrix-shape")
    return rows


def _id_field(token: str) -> str:
    if not is_identifier(token) and not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*(\[[0-9]+\])+", token):
        raise ParseError(f"bad variable token {token!r}", rule="variable-token")
    return token


def _int_field(token: str) -> int:
    if not _INT_RE.fullmatch(token):
        raise ParseError(f"bad integer token {token!r}", rule="integer")
    return check_int64(int(token), "tuple value")


def _int_or_star_field(token: str) -> Value:
    if token == "*":
        return STAR
    return _int_field(token)


def _val_field(token: str) -> K.Val:
    if _INT_RE.fullmatch(token):
        return check_int64(int(token), "tuple value")
    return VarRef(_id_field(token))


# -- variables section -------------------------------------------------------------

_SIZE_RE = re.compile(r"(\[[0-9]+\])+")


def _parse_size(text: str, path: str) -> Tuple[int, ...]:
    if not _SIZE_RE.fullmatch(text):
        raise BadSize(f"bad size attribute {text!r}", path=path, rule="array-size")
    dims = tuple(int(m) for m in re.findall(r"\[([0-9]+)\]", text))
    if any(d <= 0 for d in dims):
        raise BadSize(f"array dimensions must be positive: {text!r}",
                      path=path, rule="array-size")
    return dims


def _for_token_cells(token: str, array_id: str, size: Sequence[int], path: str) -> List[int]:
    """Flat cell indexes selected by one for= token of a <domain> element."""
    if token == array_id:
        return list(range(math.prod(size)))
    m = _COMPACT_RE.fullmatch(token)
    try:
        if not m or m.group(1) != array_id:
            raise ParseError(f"for= token {token!r} does not select cells of {array_id!r}")
        slots = _SLOT_RE.findall(m.group(2))
        if len(slots) != len(size):
            raise ParseError(f"{token!r}: {len(slots)} index slots for "
                             f"{len(size)}-dimensional array")
        flats = [0]
        for slot, dim in zip(slots, size):
            lo, hi, _ = _parse_slot(token, slot, dim)
            if not 0 <= lo <= hi < dim:
                raise ParseError(f"{token!r}: indexes {lo}..{hi} outside 0..{dim - 1}")
            flats = [flat * dim + i for flat in flats for i in range(lo, hi + 1)]
        return flats
    except ParseError as e:
        raise ParseError(e.message, path=path, rule="for-target") from None


# A domain plan tells how to populate an array's cells; storing it by shape
# (not by cell names) lets an alias reuse the plan of its target.
@dataclass(frozen=True)
class _DomainPlan:
    uniform: Optional[Domain]
    groups: Tuple[Tuple[Tuple[str, ...], Domain], ...]  # (for tokens, domain)
    others: Optional[Domain]


class _VariablesBuilder:
    def __init__(self, cfg: ParserConfig):
        self.cfg = cfg
        self.declarations: List[Union[Variable, VarArray]] = []
        self.arrays: Dict[str, VarArray] = {}
        self.var_domains: Dict[str, Optional[Domain]] = {}
        self.array_plans: Dict[str, _DomainPlan] = {}
        self.kind_of: Dict[str, str] = {}
        self.alias_of: Dict[str, Optional[str]] = {}

    def build(self, section: RawElement) -> None:
        order: List[str] = []
        for el in section.children:
            if el.tag not in ("var", "array"):
                raise UnknownElement(f"unexpected <{el.tag}> under <variables>",
                                     path=el.path, rule="variables-content")
            allowed = {"id", "type", "as", "class", "note"}
            if el.tag == "array":
                allowed.add("size")
            for key in el.attrs:
                if key not in allowed:
                    raise UnknownElement(f"unsupported attribute {key}= on <{el.tag}>",
                                         path=el.path, rule="attribute")
            vid = el.attr("id")
            if vid is None:
                raise ParseError(f"<{el.tag}> without id", path=el.path, rule="identifier")
            if not is_identifier(vid):
                raise ParseError(f"bad identifier {vid!r}", path=el.path, rule="identifier")
            if vid in self.kind_of:
                raise DuplicateId(f"id {vid!r} declared twice", path=el.path)
            self.kind_of[vid] = el.tag
            self.alias_of[vid] = el.attr("as")
            order.append(vid)
        position = {vid: i for i, vid in enumerate(order)}
        for el in section.children:
            if el.tag == "var":
                self._build_var(el, position)
            else:
                self._build_array(el, position)

    def _check_type(self, el: RawElement) -> None:
        t = el.attr("type")
        if t is not None and t != "integer":
            raise UnknownElement(f"only integer variables are supported, not {t!r}",
                                 path=el.path, rule="variable-type")

    def _alias_target(self, el: RawElement, vid: str, position: Dict[str, int]) -> str:
        target = self.alias_of[vid]
        assert target is not None
        if el.children or el.text.strip():
            raise ParseError(f"alias {vid!r} must have empty content",
                             path=el.path, rule="alias-content")
        if target not in self.kind_of:
            raise UnknownAliasTarget(f"alias target {target!r} is not declared",
                                     path=el.path, rule="alias-target")
        if position[target] > position[vid]:
            raise ForwardAlias(f"alias target {target!r} is declared later",
                               path=el.path, rule="alias-order")
        if self.alias_of[target] is not None:
            raise TransitiveAlias(f"alias target {target!r} is itself an alias",
                                  path=el.path, rule="alias-chain")
        if self.kind_of[target] != el.tag:
            raise AliasOnForbiddenElement(
                f"{el.tag} {vid!r} cannot alias {self.kind_of[target]} {target!r}",
                path=el.path, rule="alias-kind")
        return target

    def _build_var(self, el: RawElement, position: Dict[str, int]) -> None:
        self._check_type(el)
        vid = el.attr("id")
        if el.children:
            raise UnknownElement(f"unexpected children under <var>", path=el.path,
                                 rule="var-content")
        if self.alias_of[vid] is not None:
            domain = self.var_domains[self._alias_target(el, vid, position)]
        else:
            domain = parse_domain_text(el.text, el.path)
        self.var_domains[vid] = domain
        self.declarations.append(Variable(vid, domain))

    def _build_array(self, el: RawElement, position: Dict[str, int]) -> None:
        self._check_type(el)
        vid = el.attr("id")
        size_text = el.attr("size")
        if size_text is None:
            raise BadSize(f"array {vid!r} without size", path=el.path, rule="array-size")
        size = _parse_size(size_text, el.path)
        if self.alias_of[vid] is not None:
            plan = self.array_plans[self._alias_target(el, vid, position)]
        else:
            plan = self._read_plan(el)
        self.array_plans[vid] = plan
        cells = self._apply_plan(vid, size, plan, el.path)
        array = VarArray(vid, size, tuple(cells))
        self.arrays[vid] = array
        self.declarations.append(array)

    def _read_plan(self, el: RawElement) -> _DomainPlan:
        if not el.children:
            text = el.text.strip()
            uniform = parse_domain_text(text, el.path) if text else None
            return _DomainPlan(uniform, (), None)
        groups: List[Tuple[Tuple[str, ...], Domain]] = []
        others: Optional[Domain] = None
        for i, child in enumerate(el.children):
            if child.tag != "domain":
                raise UnknownElement(f"unexpected <{child.tag}> under <array>",
                                     path=child.path, rule="array-content")
            for_text = child.attr("for")
            if for_text is None:
                raise ParseError("<domain> without for=", path=child.path, rule="for-target")
            domain = parse_domain_text(child.text, child.path)
            tokens = tuple(for_text.split())
            if tokens == ("others",):
                if others is not None:
                    raise MisplacedOthers("several for=\"others\" entries",
                                          path=child.path, rule="for-others")
                if i != len(el.children) - 1:
                    raise MisplacedOthers("for=\"others\" must come last",
                                          path=child.path, rule="for-others")
                others = domain
            elif "others" in tokens:
                raise MisplacedOthers("others cannot be mixed with cell tokens",
                                      path=child.path, rule="for-others")
            else:
                if not tokens:
                    raise ParseError("empty for= attribute", path=child.path,
                                     rule="for-target")
                groups.append((tokens, domain))
        return _DomainPlan(None, tuple(groups), others)

    def _apply_plan(self, vid: str, size: Tuple[int, ...], plan: _DomainPlan,
                    path: str) -> List[Variable]:
        total = math.prod(size)
        assigned: List[Optional[Domain]] = [plan.uniform] * total
        if plan.groups or plan.others is not None:
            taken = [False] * total
            for tokens, domain in plan.groups:
                for token in tokens:
                    for flat in _for_token_cells(token, vid, size, path):
                        if taken[flat]:
                            raise OverlappingFor(
                                f"cell selected by two for= entries in {vid!r}",
                                path=path, rule="for-overlap")
                        taken[flat] = True
                        assigned[flat] = domain
            if plan.others is not None:
                for flat in range(total):
                    if not taken[flat]:
                        assigned[flat] = plan.others
        cells = []
        for flat, idx in enumerate(itertools.product(*(range(n) for n in size))):
            cell_id = vid + "".join(f"[{i}]" for i in idx)
            cells.append(Variable(cell_id, assigned[flat]))
        return cells


# -- constraints section -----------------------------------------------------------

CONSTRAINT_TAGS = frozenset({
    "intension", "extension", "regular", "mdd",
    "allDifferent", "allEqual", "ordered", "lex",
    "sum", "count", "nValues", "cardinality",
    "minimum", "maximum", "element", "channel",
    "noOverlap", "cumulative", "circuit", "instantiation",
})

_STRUCTURAL_TAGS = frozenset({"group", "block", "slide"})


def _classes(el: RawElement) -> Tuple[str, ...]:
    text = el.attr("class")
    return tuple(text.split()) if text else ()


def _bool_attr(el: RawElement, name: str, default: bool) -> bool:
    text = el.attr(name)
    if text is None:
        return default
    if text == "true":
        return True
    if text == "false":
        return False
    raise ParseError(f"{name}= must be true or false, not {text!r}",
                     path=el.path, rule="boolean-attribute")


def _check_start_index(el: RawElement, *names: str) -> None:
    for name in names:
        text = el.attr(name)
        if text is not None and text != "0":
            raise ParseError(f"{name}={text!r} is not supported; indexing is 0-based",
                             path=el.path, rule="start-index")


def _check_attrs(el: RawElement, extra: FrozenSet[str] = frozenset()) -> None:
    allowed = {"id", "class", "note"} | extra
    for key in el.attrs:
        if key == "as":
            raise AliasOnForbiddenElement(f"as= is not allowed on <{el.tag}>",
                                          path=el.path, rule="alias-element")
        if key not in allowed:
            raise UnknownElement(f"unsupported attribute {key}= on <{el.tag}>",
                                 path=el.path, rule="attribute")


def _check_children(el: RawElement, allowed: FrozenSet[str]) -> None:
    for child in el.children:
        if child.tag not in allowed:
            raise UnknownElement(f"unexpected <{child.tag}> under <{el.tag}>",
                                 path=child.path, rule=f"{el.tag}-content")


def _required(el: RawElement, tag: str) -> RawElement:
    child = el.find(tag)
    if child is None:
        raise ParseError(f"<{el.tag}> needs a <{tag}> child", path=el.path,
                         rule=f"{el.tag}-shape")
    return child


class _ConstraintReader:
    def __init__(self, cfg: ParserConfig, arrays: Dict[str, VarArray], used_ids: set):
        self.cfg = cfg
        self.arrays = arrays
        self.used_ids = used_ids
        self.posted: List[PostedConstraint] = []
        self.group_ids: List[str] = []

    # entry point -------------------------------------------------------------

    def read(self, section: RawElement) -> None:
        self._walk(section.children, ())

    def _walk(self, children: List[RawElement], classes: Tuple[str, ...]) -> None:
        for el in children:
            cls = classes + _classes(el)
            if set(cls) & self.cfg.drop_classes:
                continue
            if el.tag == "block":
                _check_attrs(el)
                self._register_id(el, member_base=False)
                self._walk(el.children, cls)
            elif el.tag == "group":
                self._expand_group(el, cls)
            elif el.tag == "slide":
                self._expand_slide(el, cls)
            elif el.tag in CONSTRAINT_TAGS:
                self._post_single(el, cls)
            elif self.cfg.strict:
                raise UnknownElement(f"unsupported constraint <{el.tag}>",
                                     path=el.path, rule="constraint-tag")

    def _post_single(self, el: RawElement, classes: Tuple[str, ...],
                     forced_id: Optional[str] = None) -> None:
        cid = forced_id if forced_id is not None else self._register_id(el)
        try:
            kind = self._dispatch(el)
        except UnknownElement:
            if self.cfg.strict:
                raise
            return
        self.posted.append(PostedConstraint(kind, cid, classes, el.attr("note")))

    def _register_id(self, el: RawElement, member_base: bool = True) -> Optional[str]:
        cid = el.attr("id")
        if cid is None:
            return None
        if not is_identifier(cid):
            raise ParseError(f"bad identifier {cid!r}", path=el.path, rule="identifier")
        if cid in self.used_ids:
            raise DuplicateId(f"id {cid!r} declared twice", path=el.path)
        self.used_ids.add(cid)
        if member_base and el.tag in _STRUCTURAL_TAGS:
            self.group_ids.append(cid)
        return cid

    def _dispatch(self, el: RawElement) -> K.ConstraintKind:
        fn = getattr(self, "_read_" + el.tag, None)
        if fn is None:
            raise UnknownElement(f"unsupported constraint <{el.tag}>",
                                 path=el.path, rule="constraint-tag")
        return fn(el)

    # template machinery --------------------------------------------------------

    def _template_params(self, el: RawElement) -> Tuple[int, bool]:
        """(highest %k index or -1, whether %... occurs) across all text."""
        highest, rest = -1, False
        def scan(node: RawElement) -> None:
            nonlocal highest, rest
            for m in _PARAM_RE.finditer(node.text):
                token = m.group()[1:]
                if token == "...":
                    rest = True
                else:
                    highest = max(highest, int(token))
            for child in node.children:
                scan(child)
        scan(el)
        return highest, rest

    def _substitute(self, el: RawElement, tokens: Sequence[str], highest: int,
                    path: str) -> RawElement:
        def replace(m: re.Match) -> str:
            token = m.group()[1:]
            if token == "...":
                return " ".join(tokens[highest + 1:])
            k = int(token)
            if k >= len(tokens):
                raise MissingArgument(f"no argument for parameter %{k}",
                                      path=path, rule="group-arity")
            return tokens[k]
        children = [self._substitute(c, tokens, highest, path) for c in el.children]
        text = _PARAM_RE.sub(replace, el.text)
        attrs = {k: v for k, v in el.attrs.items() if k != "id"}
        return RawElement(el.tag, attrs, children, text, path)

    def _expand_group(self, el: RawElement, classes: Tuple[str, ...]) -> None:
        _check_attrs(el)
        gid = self._register_id(el)
        if not el.children:
            raise ParseError("empty group", path=el.path, rule="group-shape")
        template, rest_children = el.children[0], el.children[1:]
        if template.tag == "args":
            raise ParseError("group template must come before <args>",
                             path=el.path, rule="group-shape")
        if template.tag not in CONSTRAINT_TAGS:
            raise ParseError(f"<{template.tag}> cannot be a group template",
                             path=template.path, rule="group-template")
        if not rest_children or any(c.tag != "args" for c in rest_children):
            raise ParseError("group needs one template followed by <args> elements",
                             path=el.path, rule="group-shape")
        highest, has_rest = self._template_params(template)
        if has_rest and template.tag == "intension":
            raise RestInsideExpression(
                "%... cannot occur inside a functional expression",
                path=template.path, rule="rest-placement")
        for k, args_el in enumerate(rest_children):
            tokens = args_el.text.split()
            if has_rest:
                if len(tokens) < highest + 1:
                    raise ArityMismatch(
                        f"args #{k} has {len(tokens)} tokens, template needs at "
                        f"least {highest + 1}", path=args_el.path, rule="group-arity")
            elif len(tokens) != highest + 1:
                raise ArityMismatch(
                    f"args #{k} has {len(tokens)} tokens, template takes "
                    f"{highest + 1}", path=args_el.path, rule="group-arity")
            member = self._substitute(template, tokens, highest, args_el.path)
            member_id = f"{gid}[{k}]" if gid is not None else None
            self._post_single(member, classes, forced_id=member_id)

    def _expand_slide(self, el: RawElement, classes: Tuple[str, ...]) -> None:
        _check_attrs(el, frozenset({"circular"}))
        sid = self._register_id(el)
        circular = _bool_attr(el, "circular", False)
        if len(el.children) < 2:
            raise ParseError("slide needs lists and a template", path=el.path,
                             rule="slide-shape")
        lists, template = el.children[:-1], el.children[-1]
        if any(c.tag != "list" for c in lists):
            raise ParseError("slide children must be <list> elements then a template",
                             path=el.path, rule="slide-shape")
        if template.tag not in ("intension", "extension"):
            raise TemplateNotCore(
                f"slide template must be intension or extension, not <{template.tag}>",
                path=template.path, rule="slide-template")
        highest, has_rest = self._template_params(template)
        if has_rest:
            raise RestInSlide("%... cannot occur in a slide template",
                              path=template.path, rule="rest-placement")
        q = highest + 1
        if q < 1:
            raise ParseError("slide template has no parameters", path=template.path,
                             rule="slide-params")
        per_list: List[Tuple[List[str], int, int]] = []
        for lst in lists:
            _check_attrs(lst, frozenset({"offset", "collect", "startIndex"}))
            _check_start_index(lst, "startIndex")
            ids = read_var_ids(lst.text, self.arrays, lst.path)
            offset_text = lst.attr("offset")
            offset = _parse_int(offset_text, lst.path, "offset") if offset_text else 1
            if offset < 1:
                raise ParseError(f"offset must be positive, not {offset}",
                                 path=lst.path, rule="slide-offset")
            collect_text = lst.attr("collect")
            default_collect = q if len(lists) == 1 else 1
            collect = (_parse_int(collect_text, lst.path, "collect")
                       if collect_text else default_collect)
            if collect < 1:
                raise ParseError(f"collect must be positive, not {collect}",
                                 path=lst.path, rule="slide-collect")
            per_list.append((ids, offset, collect))
        if sum(c for _, _, c in per_list) != q:
            raise ArityMismatch(
                f"slide collects {sum(c for _, _, c in per_list)} variables per "
                f"member but the template takes {q}", path=el.path, rule="slide-arity")
        if circular:
            if len(per_list) != 1:
                raise ParseError("circular slide takes a single list",
                                 path=el.path, rule="slide-circular")
            ids, offset, collect = per_list[0]
            if offset != 1:
                raise ParseError("circular slide requires offset 1",
                                 path=el.path, rule="slide-circular")
            n = len(ids)
            if n < q:
                raise LengthMismatch(f"list of {n} variables cannot slide a window "
                                     f"of {q}", path=el.path, rule="slide-length")
            members = [[ids[(i + t) % n] for t in range(q)]
                       for i in range(n - q + 2)]
        else:
            counts = []
            for ids, offset, collect in per_list:
                if len(ids) < collect:
                    raise LengthMismatch(
                        f"list of {len(ids)} variables cannot collect {collect}",
                        path=el.path, rule="slide-length")
                counts.append((len(ids) - collect) // offset + 1)
            if len(set(counts)) > 1:
                raise LengthMismatch(
                    f"slide lists disagree on member count: {counts}",
                    path=el.path, rule="slide-length")
            members = []
            for i in range(counts[0]):
                window: List[str] = []
                for ids, offset, collect in per_list:
                    window.extend(ids[i * offset:i * offset + collect])
                members.append(window)
        for k, window in enumerate(members):
            member = self._substitute(template, window, highest, el.path)
            member_id = f"{sid}[{k}]" if sid is not None else None
            self._post_single(member, classes, forced_id=member_id)

    # single constraints ----------------------------------------------------------

    def _read_intension(self, el: RawElement) -> K.Intension:
        _check_attrs(el)
        if el.children:
            _check_children(el, frozenset({"function"}))
            text = _required(el, "function").text
            path = el.find("function").path
        else:
            text, path = el.text, el.path
        body = text.strip()
        if "%" in body:
            raise ParseError("template parameter outside a template",
                             path=path, rule="parameter")
        expr = parse_expr(body, path)
        return K.Intension(expr)

    def _read_extension(self, el: RawElement) -> K.Extension:
        _check_attrs(el)
        _check_children(el, frozenset({"list", "supports", "conflicts"}))
        list_el = _required(el, "list")
        _check_start_index(list_el, "startIndex")
        scope = tuple(read_var_ids(list_el.text, self.arrays, list_el.path))
        if not scope:
            raise ParseError("extension with empty scope", path=list_el.path,
                             rule="extension-shape")
        supports, conflicts = el.find("supports"), el.find("conflicts")
        if (supports is None) == (conflicts is None):
            raise ParseError("extension needs exactly one of supports/conflicts",
                             path=el.path, rule="extension-tables")
        table = supports if supports is not None else conflicts
        positive = supports is not None
        text = table.text
        if len(scope) == 1 and "(" not in text:
            unary = parse_domain_text(text, table.path, allow_empty=True)
            return K.Extension(scope, positive, unary=unary)
        tuples = read_tuples(text, table.path, _int_or_star_field)
        for t in tuples:
            if len(t) != len(scope):
                raise LengthMismatch(
                    f"tuple of {len(t)} values for a scope of {len(scope)}",
                    path=table.path, rule="tuple-arity")
        if self.cfg.strict and all(not any(isinstance(v, type(STAR)) for v in t)
                                   for t in tuples):
            for a, b in zip(tuples, tuples[1:]):
                if not a < b:
                    raise OutOfOrder(
                        f"table tuples must be lexicographically increasing "
                        f"without repetition: {a} then {b}",
                        path=table.path, rule="table-order")
        return K.Extension(scope, positive, tuples=tuple(tuples))

    def _read_regular(self, el: RawElement) -> K.Regular:
        _check_attrs(el)
        _check_children(el, frozenset({"list", "transitions", "start", "final"}))
        list_el = _required(el, "list")
        scope = tuple(read_var_ids(list_el.text, self.arrays, list_el.path))
        trans_el = _required(el, "transitions")
        transitions = self._read_transitions(trans_el)
        start_el = _required(el, "start")
        start_tokens = start_el.text.split()
        if len(start_tokens) != 1:
            raise ParseError("start must name one state", path=start_el.path,
                             rule="regular-start")
        final_el = _required(el, "final")
        finals = tuple(final_el.text.split())
        if not finals:
            raise ParseError("final must name at least one state",
                             path=final_el.path, rule="regular-final")
        return K.Regular(scope, transitions, start_tokens[0], finals)

    def _read_transitions(self, el: RawElement) -> Tuple[Tuple[str, int, str], ...]:
        def field(token: str) -> str:
            if not token:
                raise ParseError("empty field in transition", rule="transition")
            return token
        raw = read_tuples(el.text, el.path, field, what="transition")
        out = []
        for t in raw:
            if len(t) != 3:
                raise ParseError(f"transition needs (state,value,state): {t}",
                                 path=el.path, rule="transition")
            src, val, dst = t
            out.append((src, _parse_int(val, el.path, "transition value"), dst))
        return tuple(out)

    def _read_mdd(self, el: RawElement) -> K.Mdd:
        _check_attrs(el)
        _check_children(el, frozenset({"list", "transitions"}))
        list_el = _required(el, "list")
        scope = tuple(read_var_ids(list_el.text, self.arrays, list_el.path))
        mdd = K.Mdd(scope, self._read_transitions(_required(el, "transitions")))
        with _at(el.path):
            mdd.root_terminal  # reject a bad shape now, not when checking
        return mdd

    def _read_allDifferent(self, el: RawElement) -> K.ConstraintKind:
        _check_attrs(el)
        _check_children(el, frozenset({"list", "matrix", "except"}))
        matrix = el.find("matrix")
        lists = el.find_all("list")
        except_el = el.find("except")
        if matrix is not None:
            if lists or except_el is not None:
                raise ParseError("matrix form takes no other children",
                                 path=el.path, rule="allDifferent-shape")
            rows = _read_matrix(matrix, self.arrays, _id_field)
            return K.AllDifferentMatrix(tuple(tuple(r) for r in rows))
        if len(lists) >= 2:
            id_lists = [tuple(read_var_ids(l.text, self.arrays, l.path)) for l in lists]
            width = len(id_lists[0])
            if any(len(l) != width for l in id_lists):
                raise LengthMismatch("allDifferent lists differ in length",
                                     path=el.path, rule="lists-length")
            excepts: Tuple[Tuple[int, ...], ...] = ()
            if except_el is not None:
                raw = read_tuples(except_el.text, except_el.path, _int_field)
                for t in raw:
                    if len(t) != width:
                        raise LengthMismatch("except tuple arity differs from lists",
                                             path=except_el.path, rule="tuple-arity")
                excepts = tuple(raw)
            return K.AllDifferentLists(tuple(id_lists), excepts)
        text_el = lists[0] if lists else el
        operands = tuple(read_exprs(text_el.text, self.arrays, text_el.path))
        if not operands:
            raise ParseError("allDifferent without operands", path=el.path,
                             rule="allDifferent-shape")
        except_values: Tuple[int, ...] = ()
        if except_el is not None:
            except_values = tuple(read_int_values(except_el.text, except_el.path))
        return K.AllDifferent(operands, except_values)

    def _read_allEqual(self, el: RawElement) -> K.AllEqual:
        _check_attrs(el)
        _check_children(el, frozenset({"list"}))
        src = el.find("list") or el
        return K.AllEqual(tuple(read_exprs(src.text, self.arrays, src.path)))

    def _read_order_operator(self, el: RawElement) -> OrderOp:
        op_el = _required(el, "operator")
        text = op_el.text.strip()
        try:
            return OrderOp(text)
        except ValueError:
            raise ParseError(f"unknown ordering operator {text!r}",
                             path=op_el.path, rule="order-operator") from None

    def _read_ordered(self, el: RawElement) -> K.Ordered:
        _check_attrs(el)
        _check_children(el, frozenset({"list", "lengths", "operator"}))
        list_el = _required(el, "list")
        ids = tuple(read_var_ids(list_el.text, self.arrays, list_el.path))
        op = self._read_order_operator(el)
        lengths_el = el.find("lengths")
        lengths: Optional[Tuple[K.Val, ...]] = None
        if lengths_el is not None:
            lengths = tuple(read_vals(lengths_el.text, self.arrays, lengths_el.path))
            if len(lengths) != len(ids) - 1:
                raise LengthMismatch(
                    f"{len(lengths)} lengths for {len(ids)} variables",
                    path=lengths_el.path, rule="lengths-count")
        return K.Ordered(ids, op, lengths)

    def _read_lex(self, el: RawElement) -> K.ConstraintKind:
        _check_attrs(el)
        _check_children(el, frozenset({"list", "matrix", "operator"}))
        op = self._read_order_operator(el)
        matrix = el.find("matrix")
        if matrix is not None:
            rows = _read_matrix(matrix, self.arrays, _id_field)
            return K.Lex2(tuple(tuple(r) for r in rows), op)
        lists = el.find_all("list")
        if len(lists) < 2:
            raise ParseError("lex needs at least two lists or a matrix",
                             path=el.path, rule="lex-shape")
        id_lists = [tuple(read_var_ids(l.text, self.arrays, l.path)) for l in lists]
        width = len(id_lists[0])
        if any(len(l) != width for l in id_lists):
            raise LengthMismatch("lex lists differ in length", path=el.path,
                                 rule="lists-length")
        return K.Lex(tuple(id_lists), op)

    def _read_condition(self, el: RawElement) -> Condition:
        cond_el = _required(el, "condition")
        return parse_condition_text(cond_el.text, cond_el.path)

    def _read_sum(self, el: RawElement) -> K.Sum:
        _check_attrs(el)
        _check_children(el, frozenset({"list", "coeffs", "condition"}))
        list_el = _required(el, "list")
        terms = tuple(read_exprs(list_el.text, self.arrays, list_el.path))
        coeffs_el = el.find("coeffs")
        if coeffs_el is not None:
            coeffs = tuple(read_vals(coeffs_el.text, self.arrays, coeffs_el.path,
                                     allow_vxk=True))
            if len(coeffs) != len(terms):
                raise LengthMismatch(f"{len(coeffs)} coefficients for {len(terms)} terms",
                                     path=coeffs_el.path, rule="coeffs-count")
        else:
            coeffs = (1,) * len(terms)
        return K.Sum(terms, coeffs, self._read_condition(el))

    def _read_count(self, el: RawElement) -> K.Count:
        _check_attrs(el)
        _check_children(el, frozenset({"list", "values", "condition"}))
        list_el = _required(el, "list")
        operands = tuple(read_exprs(list_el.text, self.arrays, list_el.path))
        values_el = _required(el, "values")
        values = tuple(read_vals(values_el.text, self.arrays, values_el.path))
        return K.Count(operands, values, self._read_condition(el))

    def _read_nValues(self, el: RawElement) -> K.NValues:
        _check_attrs(el)
        _check_children(el, frozenset({"list", "except", "condition"}))
        list_el = _required(el, "list")
        operands = tuple(read_exprs(list_el.text, self.arrays, list_el.path))
        except_el = el.find("except")
        excepts = (tuple(read_int_values(except_el.text, except_el.path))
                   if except_el is not None else ())
        return K.NValues(operands, self._read_condition(el), excepts)

    def _read_cardinality(self, el: RawElement) -> K.Cardinality:
        _check_attrs(el)
        _check_children(el, frozenset({"list", "values", "occurs"}))
        list_el = _required(el, "list")
        ids = tuple(read_var_ids(list_el.text, self.arrays, list_el.path))
        values_el = _required(el, "values")
        closed = _bool_attr(values_el, "closed", False)
        values = tuple(read_vals(values_el.text, self.arrays, values_el.path))
        occurs_el = _required(el, "occurs")
        occurs: List[Union[int, VarRef, Interval]] = []
        for token in occurs_el.text.split():
            m = _INTERVAL_RE.fullmatch(token)
            if m:
                occurs.append(Interval(int(m.group(1)), int(m.group(2))))
            elif _INT_RE.fullmatch(token):
                occurs.append(_parse_int(token, occurs_el.path, "occurrence"))
            else:
                occurs.extend(VarRef(i) for i in
                              _expand_token_to_ids(token, self.arrays, occurs_el.path))
        if len(values) != len(occurs):
            raise LengthMismatch(f"{len(values)} values for {len(occurs)} occurrences",
                                 path=occurs_el.path, rule="occurs-count")
        return K.Cardinality(ids, values, tuple(occurs), closed)

    def _read_minimum(self, el: RawElement) -> K.Minimum:
        _check_attrs(el)
        _check_children(el, frozenset({"list", "condition"}))
        list_el = _required(el, "list")
        operands = tuple(read_exprs(list_el.text, self.arrays, list_el.path))
        return K.Minimum(operands, self._read_condition(el))

    def _read_maximum(self, el: RawElement) -> K.Maximum:
        _check_attrs(el)
        _check_children(el, frozenset({"list", "condition"}))
        list_el = _required(el, "list")
        operands = tuple(read_exprs(list_el.text, self.arrays, list_el.path))
        return K.Maximum(operands, self._read_condition(el))

    def _read_element_rhs(self, el: RawElement, values_form: bool) -> K.ElementRhs:
        value_el, cond_el = el.find("value"), el.find("condition")
        if (value_el is None) == (cond_el is None):
            raise ParseError("element needs exactly one of value/condition",
                             path=el.path, rule="element-rhs")
        if cond_el is not None:
            return parse_condition_text(cond_el.text, cond_el.path)
        tokens = value_el.text.split()
        if len(tokens) != 1:
            raise ParseError("element value must be a single token",
                             path=value_el.path, rule="element-value")
        token = tokens[0]
        if _INT_RE.fullmatch(token):
            if values_form:
                raise ParseError("element over values needs a variable target",
                                 path=value_el.path, rule="element-value")
            return check_int64(int(token), "element value")
        if is_identifier(token) or is_compact_token(token):
            ids = _expand_token_to_ids(token, self.arrays, value_el.path)
            if len(ids) != 1:
                raise ParseError("element value must be a single variable",
                                 path=value_el.path, rule="element-value")
            return VarRef(ids[0])
        raise ParseError(f"bad element value {token!r}", path=value_el.path,
                         rule="element-value")

    def _read_element(self, el: RawElement) -> K.ConstraintKind:
        _check_attrs(el)
        _check_children(el, frozenset({"list", "matrix", "index", "value", "condition"}))
        index_el = _required(el, "index")
        matrix = el.find("matrix")
        if matrix is not None:
            _check_start_index(matrix, "startRowIndex", "startColIndex")
            text = matrix.text.strip()
            int_cells = bool(re.fullmatch(r"[\s(),+\-0-9]+", text)) and "(" in text
            rows = _read_matrix(matrix, self.arrays,
                                _int_field if int_cells else _id_field)
            indexes = read_var_ids(index_el.text, self.arrays, index_el.path)
            if len(indexes) != 2:
                raise ParseError("matrix element needs two index variables",
                                 path=index_el.path, rule="element-index")
            rhs = self._read_element_rhs(el, values_form=int_cells)
            return K.ElementMatrix(tuple(tuple(r) for r in rows),
                                   indexes[0], indexes[1], rhs)
        list_el = _required(el, "list")
        _check_start_index(list_el, "startIndex")
        tokens = list_el.text.split()
        values_form = bool(tokens) and all(_INT_RE.fullmatch(t) for t in tokens)
        indexes = read_var_ids(index_el.text, self.arrays, index_el.path)
        if len(indexes) != 1:
            raise ParseError("element needs one index variable",
                             path=index_el.path, rule="element-index")
        rhs = self._read_element_rhs(el, values_form=values_form)
        if values_form:
            values = tuple(_parse_int(t, list_el.path, "element value") for t in tokens)
            return K.ElementValList(values, indexes[0], rhs)
        ids = tuple(read_var_ids(list_el.text, self.arrays, list_el.path))
        return K.ElementVarList(ids, indexes[0], rhs)

    def _read_channel(self, el: RawElement) -> K.ConstraintKind:
        _check_attrs(el)
        _check_children(el, frozenset({"list", "value"}))
        lists = el.find_all("list")
        value_el = el.find("value")
        if not lists:
            ids = tuple(read_var_ids(el.text, self.arrays, el.path))
            return K.ChannelOne(ids)
        for lst in lists:
            _check_start_index(lst, "startIndex")
        if len(lists) == 1:
            ids = tuple(read_var_ids(lists[0].text, self.arrays, lists[0].path))
            if value_el is None:
                return K.ChannelOne(ids)
            value_ids = read_var_ids(value_el.text, self.arrays, value_el.path)
            if len(value_ids) != 1:
                raise ParseError("channel value must be a single variable",
                                 path=value_el.path, rule="channel-value")
            return K.ChannelValue(ids, value_ids[0])
        if len(lists) != 2 or value_el is not None:
            raise ParseError("channel takes one or two lists", path=el.path,
                             rule="channel-shape")
        first = tuple(read_var_ids(lists[0].text, self.arrays, lists[0].path))
        second = tuple(read_var_ids(lists[1].text, self.arrays, lists[1].path))
        if len(first) > len(second):
            raise LengthMismatch(
                f"first channel list ({len(first)}) is longer than the second "
                f"({len(second)})", path=el.path, rule="channel-lengths")
        return K.ChannelTwo(first, second)

    def _read_noOverlap(self, el: RawElement) -> K.ConstraintKind:
        _check_attrs(el, frozenset({"zeroIgnored"}))
        _check_children(el, frozenset({"origins", "lengths"}))
        zero_ignored = _bool_attr(el, "zeroIgnored", True)
        origins_el = _required(el, "origins")
        lengths_el = _required(el, "lengths")
        if origins_el.text.strip().startswith("("):
            origin_rows = read_tuples(origins_el.text, origins_el.path, _id_field,
                                      what="origin tuple")
            length_rows = read_tuples(lengths_el.text, lengths_el.path, _val_field,
                                      what="length tuple")
            if len(origin_rows) != len(length_rows):
                raise LengthMismatch(f"{len(origin_rows)} origin tuples for "
                                     f"{len(length_rows)} length tuples",
                                     path=el.path, rule="noOverlap-count")
            dims = {len(t) for t in origin_rows} | {len(t) for t in length_rows}
            if len(dims) != 1:
                raise LengthMismatch("origin/length tuples differ in dimension",
                                     path=el.path, rule="noOverlap-count")
            return K.NoOverlapK(tuple(origin_rows), tuple(length_rows), zero_ignored)
        origins = tuple(read_var_ids(origins_el.text, self.arrays, origins_el.path))
        lengths = tuple(read_vals(lengths_el.text, self.arrays, lengths_el.path))
        if len(origins) != len(lengths):
            raise LengthMismatch(f"{len(origins)} origins for {len(lengths)} lengths",
                                 path=el.path, rule="noOverlap-count")
        return K.NoOverlap1(origins, lengths, zero_ignored)

    def _read_cumulative(self, el: RawElement) -> K.Cumulative:
        _check_attrs(el)
        _check_children(el, frozenset({"origins", "lengths", "heights", "condition"}))
        origins_el = _required(el, "origins")
        origins = tuple(read_var_ids(origins_el.text, self.arrays, origins_el.path))
        lengths_el = _required(el, "lengths")
        lengths = tuple(read_vals(lengths_el.text, self.arrays, lengths_el.path))
        heights_el = _required(el, "heights")
        heights = tuple(read_vals(heights_el.text, self.arrays, heights_el.path))
        if not len(origins) == len(lengths) == len(heights):
            raise LengthMismatch(
                f"{len(origins)} origins, {len(lengths)} lengths, "
                f"{len(heights)} heights", path=el.path, rule="cumulative-count")
        return K.Cumulative(origins, lengths, heights, self._read_condition(el))

    def _read_circuit(self, el: RawElement) -> K.Circuit:
        _check_attrs(el)
        _check_children(el, frozenset({"list", "size"}))
        list_el = el.find("list")
        src = list_el if list_el is not None else el
        if list_el is not None:
            _check_start_index(list_el, "startIndex")
        ids = tuple(read_var_ids(src.text, self.arrays, src.path))
        size_el = el.find("size")
        size: Optional[K.Val] = None
        if size_el is not None:
            vals = read_vals(size_el.text, self.arrays, size_el.path)
            if len(vals) != 1:
                raise ParseError("circuit size must be a single value or variable",
                                 path=size_el.path, rule="circuit-size")
            size = vals[0]
        return K.Circuit(ids, size)

    def _read_instantiation(self, el: RawElement) -> K.InstantiationCtr:
        _check_attrs(el)
        _check_children(el, frozenset({"list", "values"}))
        list_el = _required(el, "list")
        ids = tuple(read_var_ids(list_el.text, self.arrays, list_el.path))
        values_el = _required(el, "values")
        values = tuple(read_int_values(values_el.text, values_el.path,
                                       allow_vxk=True, allow_star=True))
        if len(ids) != len(values):
            raise LengthMismatch(f"{len(ids)} variables for {len(values)} values",
                                 path=el.path, rule="instantiation-count")
        return K.InstantiationCtr(ids, values)


# -- objectives and annotations ------------------------------------------------------

_OBJ_KINDS = {
    "sum": ObjKind.SUM, "minimum": ObjKind.MINIMUM, "maximum": ObjKind.MAXIMUM,
    "nValues": ObjKind.NVALUES, "lex": ObjKind.LEX, "expression": ObjKind.EXPRESSION,
}


def _read_objective(section: RawElement, arrays: Dict[str, VarArray]) -> Objective:
    if section.attr("combination") is not None:
        raise UnknownElement("objective combinations are not supported",
                             path=section.path, rule="objectives-content")
    if len(section.children) != 1:
        raise ObjectiveCountError(
            f"exactly one objective expected, found {len(section.children)}",
            path=section.path, rule="objective-count")
    el = section.children[0]
    if el.tag not in ("minimize", "maximize"):
        raise UnknownElement(f"unexpected <{el.tag}> under <objectives>",
                             path=el.path, rule="objectives-content")
    sense = Sense.MINIMIZE if el.tag == "minimize" else Sense.MAXIMIZE
    _check_attrs(el, frozenset({"type"}))
    type_text = el.attr("type") or "expression"
    obj_kind = _OBJ_KINDS.get(type_text)
    if obj_kind is None:
        raise UnknownElement(f"unsupported objective type {type_text!r}",
                             path=el.path, rule="objective-type")
    with _at(el.path):
        if obj_kind is ObjKind.EXPRESSION:
            if el.children:
                raise ParseError("expression objectives carry the expression as text",
                                 path=el.path, rule="objective-shape")
            body = el.text.strip()
            if "%" in body:
                raise ParseError("template parameter outside a template",
                                 path=el.path, rule="parameter")
            return Objective(sense, obj_kind, expression=parse_expr(body, el.path))
        _check_children(el, frozenset({"list", "coeffs"}))
        src = el.find("list") or el
        operands = tuple(read_exprs(src.text, arrays, src.path))
        coeffs_el = el.find("coeffs")
        coeffs: Optional[Tuple[int, ...]] = None
        if coeffs_el is not None:
            raw = read_int_values(coeffs_el.text, coeffs_el.path, allow_vxk=True)
            coeffs = tuple(v for v in raw if isinstance(v, int))
        try:
            return Objective(sense, obj_kind, operands=operands, coeffs=coeffs)
        except ValueError as e:
            raise ParseError(str(e), path=el.path, rule="objective-shape") from None


def _read_decision(section: RawElement, arrays: Dict[str, VarArray],
                   strict: bool) -> Optional[Tuple[str, ...]]:
    decision: Optional[Tuple[str, ...]] = None
    for el in section.children:
        if el.tag == "decision":
            if decision is not None:
                raise ParseError("several <decision> elements", path=el.path,
                                 rule="annotations-content")
            decision = tuple(read_var_ids(el.text, arrays, el.path))
        elif strict:
            raise UnknownElement(f"unsupported annotation <{el.tag}>",
                                 path=el.path, rule="annotations-content")
    return decision


# -- whole documents --------------------------------------------------------------

_SECTION_ORDER = ("variables", "constraints", "objectives", "annotations")


def parse_string(text: str, config: Optional[ParserConfig] = None) -> Instance:
    cfg = config or ParserConfig()
    root = read_xml(text)
    if root.tag != "instance":
        raise ParseError(f"root element must be <instance>, not <{root.tag}>",
                         path=root.path, rule="root")
    fmt = root.attr("format")
    if fmt != "XCSP3":
        raise BadFramework(f"format attribute must be XCSP3, found {fmt!r}",
                           path=root.path, rule="instance-format")
    type_text = root.attr("type")
    if type_text not in ("CSP", "COP"):
        raise BadFramework(f"type attribute must be CSP or COP, found {type_text!r}",
                           path=root.path, rule="instance-type")

    sections: Dict[str, RawElement] = {}
    last_rank = -1
    for child in root.children:
        if child.tag not in _SECTION_ORDER:
            raise UnknownElement(f"unexpected <{child.tag}> under <instance>",
                                 path=child.path, rule="instance-content")
        rank = _SECTION_ORDER.index(child.tag)
        if child.tag in sections:
            raise ParseError(f"duplicate <{child.tag}> section", path=child.path,
                             rule="section-order")
        if rank < last_rank:
            raise ParseError(f"<{child.tag}> out of order", path=child.path,
                             rule="section-order")
        last_rank = rank
        sections[child.tag] = child

    vars_builder = _VariablesBuilder(cfg)
    if "variables" in sections:
        vars_builder.build(sections["variables"])

    used_ids = set(vars_builder.kind_of)
    reader = _ConstraintReader(cfg, vars_builder.arrays, used_ids)
    if "constraints" in sections:
        reader.read(sections["constraints"])

    objective: Optional[Objective] = None
    if "objectives" in sections:
        objective = _read_objective(sections["objectives"], vars_builder.arrays)
    if type_text == "CSP" and objective is not None:
        raise BadFramework("a CSP instance cannot declare an objective",
                           path=sections["objectives"].path, rule="instance-type")
    if type_text == "COP" and objective is None:
        raise ObjectiveCountError("a COP instance needs an objective",
                                  path=root.path, rule="objective-count")

    decision: Optional[Tuple[str, ...]] = None
    if "annotations" in sections:
        decision = _read_decision(sections["annotations"], vars_builder.arrays,
                                  cfg.strict)

    instance = Instance(tuple(vars_builder.declarations), tuple(reader.posted),
                        objective, decision)
    _validate_references(instance, decision)
    if cfg.strict:
        _check_id_prefixes(vars_builder, reader)
    return instance


def _validate_references(instance: Instance, decision: Optional[Tuple[str, ...]]) -> None:
    def check_useful(vid: str, who: str) -> None:
        if not instance.has_variable(vid):
            raise MissingVariables(f"{who} references undeclared variable {vid!r}",
                                   rule="unknown-variable")
        if instance.variable(vid).domain is None:
            # a variable may be undefined or useful, never both
            raise MissingVariables(f"{who} involves undefined variable {vid!r}",
                                   rule="undefined-useful")

    for position, posted in enumerate(instance.constraints):
        for vid in posted.kind.var_ids:
            check_useful(vid, f"constraint {posted.label(position)}")
    if instance.objective is not None:
        for vid in instance.objective.var_ids:
            check_useful(vid, "objective")
    for vid in decision or ():
        if not instance.has_variable(vid):
            raise MissingVariables(f"decision annotation references undeclared "
                                   f"variable {vid!r}", rule="unknown-variable")


def _check_id_prefixes(vars_builder: _VariablesBuilder,
                       reader: _ConstraintReader) -> None:
    # Array ids and group ids are followed by [k] suffixes in derived names,
    # so they must not be a proper prefix of any other id.
    bases = {vid for vid, k in vars_builder.kind_of.items() if k == "array"}
    bases.update(reader.group_ids)
    for other in reader.used_ids:  # declared ids and constraint ids
        for end in range(1, len(other)):
            if other[:end] in bases:
                raise ParseError(
                    f"id {other[:end]!r} is a prefix of {other!r}; array and group ids "
                    f"must not prefix other ids", rule="id-prefix")


def parse_file(path: str, config: Optional[ParserConfig] = None) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_string(fh.read(), config)

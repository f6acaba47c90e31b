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
import operator
import re
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, NoReturn,
                    Optional, Sequence, Tuple, Union)

from . import kinds as K
from .errors import ParseError, UnknownElement
from .expr import (INDEX_RE, INT_RE, IDENT_RE, Expr, VarRef, binder, is_identifier, operand_leaf,
                   parse_expr, read_int)
from .kinds import Objective, ObjKind, OrderOp, Sense
from .model import (
    STAR,
    Condition,
    CondOp,
    Domain,
    Instance,
    Interval,
    IntSet,
    Operand,
    PostedConstraint,
    Value,
    VarArray,
    Variable,
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


# Deepest nesting of elements a document may have, the root counting as one.
# Wrapping the tree and walking nested blocks recurse once per level, so a
# deeper document is rejected (rule nesting-depth) before it can exhaust the
# interpreter stack.
MAX_XML_DEPTH = 100

# Most variables one document may declare, each array cell counting as one.
# Sizes are read and summed before any variable is built, so a document
# declaring more is rejected (rule array-size) before anything is allocated.
MAX_VARIABLES = 1_000_000


def _wrap(el: ET.Element, path: str, depth: int = 1) -> RawElement:
    for key, value in el.attrib.items():
        if value != value.strip():
            raise ParseError(
                f"attribute {key}={value!r} carries surrounding whitespace (offset 0)",
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
        if depth == MAX_XML_DEPTH:
            raise ParseError(f"elements nested deeper than {MAX_XML_DEPTH} levels",
                             path=sub, rule="nesting-depth")
        children.append(_wrap(c, sub, depth + 1))
    text = "" if children_et else (el.text or "")
    return RawElement(el.tag, dict(el.attrib), children, text, path)


def read_xml(text: str) -> RawElement:
    """Parse XML text into the checked raw tree rooted at /<root tag>."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as e:
        raise ParseError(f"malformed XML: {e}", path="/", rule="xml") from None
    return _wrap(root, f"/{root.tag}")


# -- tokens ------------------------------------------------------------------------
#
# One reader per token form of the format, used by every slot that holds
# it. Integers and identifiers are matched by expr's INT_RE and IDENT_RE,
# which expressions use too; the patterns below are built from them.

_INTERVAL_RE = re.compile(rf"({INT_RE.pattern})\.\.({INT_RE.pattern})")
_VXK_RE = re.compile(rf"({INT_RE.pattern})x({INT_RE.pattern})")
_CELL_RE = re.compile(rf"{IDENT_RE.pattern}(?:{INDEX_RE.pattern})+")
_COMPACT_RE = re.compile(rf"({IDENT_RE.pattern})((?:\[[^\[\]]*\])+)")
_SLOT_RE = re.compile(r"\[([^\[\]]*)\]")
_SIZE_RE = re.compile(rf"(?:{INDEX_RE.pattern})+")
_PARAM_RE = re.compile(r"%(?:[0-9]+|\.\.\.)")


def read_interval(token: str, path: Optional[str] = None) -> Optional[Tuple[int, int]]:
    """(lo, hi) for an interval token lo..hi, None for any other token."""
    m = _INTERVAL_RE.fullmatch(token)
    if m is None:
        return None
    lo = read_int(m.group(1), path, "interval bound")
    hi = read_int(m.group(2), path, "interval bound")
    if lo > hi:
        raise ParseError(f"empty interval {token}", path=path, rule="interval-bounds")
    return lo, hi


def expand_vxk(tokens: Sequence[str], path: Optional[str] = None,
               limit: Optional[int] = None, rule: Optional[str] = None) -> List[int]:
    """Expand a value sequence where ``vxk`` means v repeated k times.

    With a limit, the number of values the slot takes, a repeat that would go
    past it fails with the slot's count rule before it is expanded.
    """
    out: List[int] = []
    for token in tokens:
        m = _VXK_RE.fullmatch(token)
        if m:
            k = read_int(m.group(2), path, "repeat count")
            if k <= 0:
                raise ParseError(f"repeat count must be positive in {token!r}",
                                 path=path, rule="vxk-count")
            v = read_int(m.group(1), path, "vxk value")
            if limit is not None and len(out) + k > limit:
                raise ParseError(f"{token!r} gives {k} values where "
                                 f"{limit - len(out)} are left", path=path, rule=rule)
            out.extend([v] * k)
        elif INT_RE.fullmatch(token):
            out.append(read_int(token, path, "value"))
        else:
            raise ParseError(f"bad integer token {token!r}", path=path, rule="vxk-token")
    return out


def read_var(token: str, path: Optional[str] = None, rule: str = "variable-token") -> str:
    """One variable: an identifier or a cell id such as x[2][0].

    A cell id is checked against the declarations once the instance is
    read, like a cell named inside an expression.
    """
    if is_identifier(token) or _CELL_RE.fullmatch(token):
        return token
    raise ParseError(f"bad variable token {token!r}", path=path, rule=rule)


class Context(Enum):
    """Where a compact array reference appears; governs its expansion."""

    LIST = "list"
    MATRIX = "matrix"


def is_compact_token(token: str) -> bool:
    """True for array references carrying index slots: x[], x[2], x[1..3]."""
    return bool(_COMPACT_RE.fullmatch(token))


def _slot_ranges(token: str, size_of: Callable[[str], Sequence[int]]
                 ) -> Tuple[str, List[range], List[int]]:
    """The array a compact reference names (size_of gives its dimensions or
    raises), the index range of each slot, and the slots not fixed to one index."""
    m = _COMPACT_RE.fullmatch(token)
    if not m:
        raise ParseError(f"not a compact array reference: {token!r}", rule="compact-token")
    name = m.group(1)
    size = size_of(name)
    slots = _SLOT_RE.findall(m.group(2))
    if len(slots) != len(size):
        raise ParseError(
            f"{token!r}: {len(slots)} index slots for {len(size)}-dimensional array",
            rule="index-range")
    ranges: List[range] = []
    free: List[int] = []
    for axis, (slot, dim) in enumerate(zip(slots, size)):
        if INT_RE.fullmatch(slot):
            lo = hi = read_int(slot)
        else:
            free.append(axis)
            interval = (0, dim - 1) if slot == "" else read_interval(slot)
            if interval is None:
                raise ParseError(f"bad index slot [{slot}] in {token!r}", rule="compact-token")
            lo, hi = interval
        if not 0 <= lo <= hi < dim:
            raise ParseError(f"{token!r}: indexes {lo}..{hi} outside 0..{dim - 1}",
                             rule="index-range")
        ranges.append(range(lo, hi + 1))
    return name, ranges, free


def _cell_ids(name: str, ranges: Iterable[range]) -> List[str]:
    """The ids name[i][j]... of the cells over the product of the index
    ranges, in row-major order: each cell's id joins one precomputed suffix
    per axis."""
    suffixes = [[f"[{i}]" for i in indexes] for indexes in ranges]
    return list(map("".join, itertools.product((name,), *suffixes)))


def expand_compact_variable_list(
    token: str,
    arrays: Mapping[str, VarArray],
    context: Context = Context.LIST,
) -> Union[List[str], List[List[str]]]:
    """Expand a compact array reference into cell ids.

    LIST context flattens lexicographically by index tuple. MATRIX context
    yields one row per leading free dimension and requires the token to
    select a 2-dimensional grid (exactly two slots not fixed to a single
    index).
    """
    def size_of(name: str) -> Sequence[int]:
        if name not in arrays:
            raise ParseError(f"unknown array {name!r}", rule="unknown-array")
        return arrays[name].size

    name, ranges, free = _slot_ranges(token, size_of)
    ids = _cell_ids(name, ranges)
    if context is Context.LIST:
        return ids
    if len(free) != 2:
        raise ParseError(
            f"{token!r} selects a {len(free)}-dimensional grid; matrix slots need 2",
            rule="matrix-shape")
    width = len(ranges[free[1]])  # the other slots select one index each
    return [ids[i:i + width] for i in range(0, len(ids), width)]


def _is_cell(token: str, arrays: Mapping[str, VarArray]) -> bool:
    """Whether token is the id of a declared cell as _cell_ids spells it, such
    as x[3][5]: no index with a leading zero, each in range."""
    name, bracket, rest = token.partition("[")
    array = arrays.get(name)
    if array is None or not bracket or not _CELL_RE.fullmatch(token):
        return False
    indexes = rest[:-1].split("][")
    return len(indexes) == len(array.size) and all(
        len(i) < 19 and int(i) < n and (i[0] != "0" or i == "0")
        for i, n in zip(indexes, array.size))


def _var_ids(token: str, arrays: Dict[str, VarArray], path: str) -> List[str]:
    """The variables one token of a variable list names. A token that spells
    a declared cell names that cell, as its compact expansion would, with no
    index ranges built."""
    if _is_cell(token, arrays):
        return [token]
    if is_compact_token(token):
        with _at(path):
            return expand_compact_variable_list(token, arrays, Context.LIST)
    if is_identifier(token):
        return [token]
    raise ParseError(f"bad variable token {token!r}", path=path, rule="variable-token")


def _read_expr(text: str, path: str) -> Expr:
    """An expression outside any template, where no % may be left."""
    if "%" in text:
        raise ParseError(f"template parameter outside a template: {text!r}",
                         path=path, rule="parameter")
    return parse_expr(text, path)


def parse_domain_text(text: str, path: str, allow_empty: bool = False) -> Domain:
    tokens = text.split()
    if not tokens and not allow_empty:
        raise ParseError("empty domain", path=path, rule="var-domain")
    items: List[Tuple[int, int]] = []
    for token in tokens:
        if token == ".." or token.startswith("..") or token.endswith(".."):
            raise ParseError(f"whitespace around '..' near {token!r} (offset 0)",
                             path=path, rule="interval-whitespace")
        interval = read_interval(token, path)
        if interval is not None:
            items.append(interval)
        elif INT_RE.fullmatch(token):
            v = read_int(token, path, "domain value")
            items.append((v, v))
        else:
            raise ParseError(f"bad domain token {token!r}", path=path, rule="domain-token")
    with _at(path):
        return Domain(tuple(items))


def parse_condition_text(text: str, path: str) -> Condition:
    body = text.strip()
    for i, ch in enumerate(body):
        if ch.isspace():
            raise ParseError(f"whitespace inside condition (offset {i})",
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


def _parse_cond_operand(text: str, path: str) -> Operand:
    if INT_RE.fullmatch(text):
        return read_int(text, path, "condition operand")
    interval = read_interval(text, path)
    if interval is not None:
        return Interval(*interval)
    if text.startswith("{") and text.endswith("}"):
        inner = text[1:-1]
    elif text.startswith("set(") and text.endswith(")"):
        inner = text[4:-1]
    else:
        return VarRef(read_var(text, path, rule="condition-operand"))
    return IntSet(tuple(read_int(t, path, "set member") for t in inner.split(","))
                  if inner else ())


# One tuple: "(" up to the first ")". The scan finds tuples one at a time
# and checks the text between them; one pattern repeating a group over the
# whole sequence would hold backtracking state for every tuple.
_TUPLE_RE = re.compile(r"\(([^)]*)\)")
_SPACE_RE = re.compile(r"\s")
# Every character an integer table may hold. int() also takes "_", spaces
# and non-ASCII digits, so it reads a table's fields only if the whole
# text is made of these.
_TABLE_TEXT_RE = re.compile(r"[\s(),*+0-9-]*")


def _tuple_texts(text: str, path: str, what: str) -> Iterator[str]:
    """The text inside each (...) of a tuple sequence, in order. Whitespace
    may separate tuples but never appear inside one."""
    pos = 0
    for m in _TUPLE_RE.finditer(text, 0, text.rfind(")") + 1):
        start = m.start()
        if start != pos and not text[pos:start].isspace():
            found = text[pos:start].lstrip()[0]
            raise ParseError(f"expected '(' in {what} sequence, found {found!r}",
                             path=path, rule="tuple-syntax")
        inner = m.group(1)
        space = _SPACE_RE.search(inner)
        if space is not None:
            raise ParseError(f"whitespace inside {what} "
                             f"(offset {start + 1 + space.start()})",
                             path=path, rule="tuple-whitespace")
        yield inner
        pos = m.end()
    rest = text[pos:].lstrip()
    if rest:
        message = (f"unterminated {what}" if rest[0] == "(" else
                   f"expected '(' in {what} sequence, found {rest[0]!r}")
        raise ParseError(message, path=path, rule="tuple-syntax")


def read_tuples(text: str, path: str, parse_field: Callable[[str], object],
                what: str = "tuple") -> List[Tuple[object, ...]]:
    """Read a ()-delimited tuple sequence, each field with parse_field."""
    with _at(path):
        return [tuple(parse_field(f) for f in inner.split(","))
                for inner in _tuple_texts(text, path, what)]


def read_table(text: str, path: str) -> Tuple[List[Tuple[Value, ...]], bool]:
    """The tuples of an integer table, where a field may be *, and whether
    any tuple holds a *."""
    def field(token: str) -> Value:
        return STAR if token == "*" else read_int(token, path, "tuple value")

    trusted = _TABLE_TEXT_RE.fullmatch(text) is not None
    rows: List[Tuple[Value, ...]] = []
    has_star = False
    for inner in _tuple_texts(text, path, "tuple"):
        fields = inner.split(",")
        if trusted and "*" not in inner:
            try:
                rows.append(tuple(map(int, fields)))
            except ValueError:  # a malformed field, or more digits than int() takes
                rows.append(tuple([field(f) for f in fields]))
            if len(inner) > 18:  # a field of 18 characters or fewer lies in int64
                for f in fields:
                    if len(f) > 18:
                        field(f)
        else:
            has_star = has_star or "*" in fields
            rows.append(tuple([field(f) for f in fields]))
    return rows, has_star


def read_var_ids(text: str, arrays: Dict[str, VarArray], path: str) -> List[str]:
    return [vid for token in text.split() for vid in _var_ids(token, arrays, path)]


def read_exprs(text: str, arrays: Dict[str, VarArray], path: str) -> List[Expr]:
    """Operand list: variables, compact array references or expressions."""
    out: List[Expr] = []
    for token in text.split():
        if "%" not in token and is_compact_token(token):
            out.extend(VarRef(i) for i in _var_ids(token, arrays, path))
        else:
            out.append(_read_expr(token, path))
    return out


def read_vals(text: str, arrays: Dict[str, VarArray], path: str,
              limit: Optional[int] = None, rule: Optional[str] = None) -> List[K.Val]:
    """Values and variables; vxk repeats too where the slot takes limit values."""
    out: List[K.Val] = []
    for token in text.split():
        if limit is not None and _VXK_RE.fullmatch(token):
            out.extend(expand_vxk([token], path, limit - len(out), rule))
        elif INT_RE.fullmatch(token):
            out.append(read_int(token, path, "value"))
        elif is_compact_token(token) or is_identifier(token):
            out.extend(VarRef(i) for i in _var_ids(token, arrays, path))
        else:
            raise ParseError(f"bad value token {token!r}", path=path, rule="value-token")
    return out


def read_int_values(text: str, path: str, limit: Optional[int] = None,
                    rule: Optional[str] = None, allow_star: bool = False) -> List[Value]:
    """Integers; vxk repeats too where the slot takes limit values (see expand_vxk)."""
    out: List[Value] = []
    for token in text.split():
        if allow_star and token == "*":
            out.append(STAR)
        elif limit is not None:
            out.extend(expand_vxk([token], path, limit - len(out), rule))
        else:
            out.append(read_int(token, path, "value"))
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
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError("matrix rows differ in length", path=el.path, rule="matrix-shape")
    return rows


def _val_field(token: str) -> K.Val:
    if INT_RE.fullmatch(token):
        return read_int(token, None, "tuple value")
    return VarRef(read_var(token))


# -- variables section -------------------------------------------------------------

def _parse_size(text: str, path: str) -> Tuple[int, ...]:
    if not _SIZE_RE.fullmatch(text):
        raise ParseError(f"bad size attribute {text!r}", path=path, rule="array-size")
    dims = tuple(read_int(d, path, "array dimension") for d in INDEX_RE.findall(text))
    if any(d <= 0 for d in dims):
        raise ParseError(f"array dimensions must be positive: {text!r}",
                         path=path, rule="array-size")
    return dims


def _for_token_cells(token: str, array_id: str, size: Sequence[int], path: str) -> List[int]:
    """Flat cell indexes selected by one for= token of a <domain> element."""
    if token == array_id:
        return list(range(math.prod(size)))

    def size_of(name: str) -> Sequence[int]:
        if name != array_id:
            raise ParseError(f"for= token {token!r} does not select cells of {array_id!r}",
                             rule="for-target")
        return size

    try:
        _, ranges, _ = _slot_ranges(token, size_of)
    except ParseError as e:
        raise ParseError(e.message, path=path, rule="for-target") from None
    flats = [0]
    for rng, dim in zip(ranges, size):
        flats = [flat * dim + i for flat in flats for i in rng]
    return flats


class _VariablesBuilder:
    def __init__(self, cfg: ParserConfig):
        self.cfg = cfg
        self.declarations: List[Union[Variable, VarArray]] = []
        self.sizes: Dict[str, Tuple[int, ...]] = {}
        self.arrays: Dict[str, VarArray] = {}
        self.kind_of: Dict[str, str] = {}
        self.alias_of: Dict[str, Optional[str]] = {}

    def build(self, section: RawElement) -> None:
        # first pass: every declaration's id, attributes and size; second: domains
        order: List[str] = []
        declared = 0
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
                raise ParseError(f"id {vid!r} declared twice", path=el.path,
                                 rule="duplicate-id")
            self.kind_of[vid] = el.tag
            self.alias_of[vid] = el.attr("as")
            order.append(vid)
            if el.tag == "array":
                size_text = el.attr("size")
                if size_text is None:
                    raise ParseError(f"array {vid!r} without size", path=el.path,
                                     rule="array-size")
                self.sizes[vid] = _parse_size(size_text, el.path)
                declared += math.prod(self.sizes[vid])
            else:
                declared += 1
            if declared > MAX_VARIABLES:
                raise ParseError(f"<{el.tag}> {vid!r} brings the variables declared to "
                                 f"{declared}, more than {MAX_VARIABLES}",
                                 path=el.path, rule="array-size")
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

    def _alias_target(self, el: RawElement, vid: str, position: Dict[str, int]
                      ) -> Union[Variable, VarArray]:
        """The declaration vid aliases; declared earlier, so already built."""
        target = self.alias_of[vid]
        assert target is not None
        if el.children or el.text.strip():
            raise ParseError(f"alias {vid!r} must have empty content",
                             path=el.path, rule="alias-content")
        if target not in self.kind_of:
            raise ParseError(f"alias target {target!r} is not declared",
                             path=el.path, rule="alias-target")
        if position[target] > position[vid]:
            raise ParseError(f"alias target {target!r} is declared later",
                             path=el.path, rule="alias-order")
        if self.alias_of[target] is not None:
            raise ParseError(f"alias target {target!r} is itself an alias",
                             path=el.path, rule="alias-chain")
        if self.kind_of[target] != el.tag:
            raise ParseError(
                f"{el.tag} {vid!r} cannot alias {self.kind_of[target]} {target!r}",
                path=el.path, rule="alias-kind")
        return self.declarations[position[target]]

    def _build_var(self, el: RawElement, position: Dict[str, int]) -> None:
        self._check_type(el)
        vid = el.attr("id")
        if el.children:
            raise UnknownElement(f"unexpected children under <var>", path=el.path,
                                 rule="var-content")
        if self.alias_of[vid] is not None:
            domain = self._alias_target(el, vid, position).domain
        else:
            domain = parse_domain_text(el.text, el.path)
        self.declarations.append(Variable(vid, domain))

    def _build_array(self, el: RawElement, position: Dict[str, int]) -> None:
        self._check_type(el)
        vid = el.attr("id")
        size = self.sizes[vid]
        if self.alias_of[vid] is None:
            domains = self._cell_domains(el, size)
        else:
            # the target's cell domains, index by index; one domain that every
            # cell of the target shares fits any size
            target = self._alias_target(el, vid, position)
            domains = [cell.domain for cell in target.cells]
            if size != target.size:
                if len(set(domains)) > 1:
                    raise ParseError(
                        f"alias {vid!r} of size {el.attr('size')} cannot take the cell "
                        f"domains of {target.id!r}: the sizes differ and the cells of "
                        f"{target.id!r} differ in domain", path=el.path, rule="alias-size")
                domains = domains[:1] * math.prod(size)
        ids = _cell_ids(vid, map(range, size))
        array = VarArray(vid, size, tuple(map(Variable, ids, domains)))
        self.arrays[vid] = array
        self.declarations.append(array)

    @staticmethod
    def _cell_domains(el: RawElement, size: Tuple[int, ...]) -> List[Optional[Domain]]:
        """The domain of each cell, in flat order, from the element's text or
        its <domain for=...> children; None for a cell that none covers."""
        total = math.prod(size)
        if not el.children:
            text = el.text.strip()
            return [parse_domain_text(text, el.path) if text else None] * total
        groups: List[Tuple[List[str], Domain]] = []
        others: Optional[Domain] = None
        for i, child in enumerate(el.children):
            if child.tag != "domain":
                raise UnknownElement(f"unexpected <{child.tag}> under <array>",
                                     path=child.path, rule="array-content")
            for_text = child.attr("for")
            if for_text is None:
                raise ParseError("<domain> without for=", path=child.path, rule="for-target")
            domain = parse_domain_text(child.text, child.path)
            tokens = for_text.split()
            if tokens == ["others"]:
                if i != len(el.children) - 1:
                    raise ParseError("for=\"others\" must come last",
                                     path=child.path, rule="for-others")
                others = domain
            elif "others" in tokens:
                raise ParseError("others cannot be mixed with cell tokens",
                                 path=child.path, rule="for-others")
            elif not tokens:
                raise ParseError("empty for= attribute", path=child.path, rule="for-target")
            else:
                groups.append((tokens, domain))
        vid = el.attr("id")
        assigned: List[Optional[Domain]] = [None] * total
        taken = [False] * total
        for tokens, domain in groups:
            for token in tokens:
                for flat in _for_token_cells(token, vid, size, el.path):
                    if taken[flat]:
                        raise ParseError(f"cell selected by two for= entries in {vid!r}",
                                         path=el.path, rule="for-overlap")
                    taken[flat] = True
                    assigned[flat] = domain
        return [domain if t else others for domain, t in zip(assigned, taken)]


# -- constraints section -----------------------------------------------------------

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
            raise ParseError(f"as= is not allowed on <{el.tag}>",
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


def _read_transitions(el: RawElement) -> Tuple[Tuple[str, int, str], ...]:
    def field(token: str) -> str:
        if not token:
            raise ParseError("empty field in transition", rule="transition")
        return token
    out = []
    for t in read_tuples(el.text, el.path, field, what="transition"):
        if len(t) != 3:
            raise ParseError(f"transition needs (state,value,state): {t}",
                             path=el.path, rule="transition")
        src, val, dst = t
        out.append((src, read_int(val, el.path, "transition value"), dst))
    return tuple(out)


def _read_start(el: RawElement) -> str:
    tokens = el.text.split()
    if len(tokens) != 1:
        raise ParseError("start must name one state", path=el.path, rule="regular-start")
    return tokens[0]


def _read_finals(el: RawElement) -> Tuple[str, ...]:
    finals = tuple(el.text.split())
    if not finals:
        raise ParseError("final must name at least one state", path=el.path,
                         rule="regular-final")
    return finals


# How a field of each name that a plain kind holds is read from its child
# or, for the first field, from the element's text.
_FIELD_READERS: Dict[str, Callable[[RawElement, Dict[str, VarArray]], object]] = {
    "function": lambda el, arrays: _read_expr(el.text.strip(), el.path),
    "operands": lambda el, arrays: tuple(read_exprs(el.text, arrays, el.path)),
    "values": lambda el, arrays: tuple(read_vals(el.text, arrays, el.path)),
    "excepts": lambda el, arrays: tuple(read_int_values(el.text, el.path)),
    "condition": lambda el, arrays: parse_condition_text(el.text, el.path),
    "scope": lambda el, arrays: tuple(read_var_ids(el.text, arrays, el.path)),
    "transitions": lambda el, arrays: _read_transitions(el),
    "start": lambda el, arrays: _read_start(el),
    "finals": lambda el, arrays: _read_finals(el),
}


def _plain_reader(kind: type) -> Callable[["_ConstraintReader", RawElement], K.ConstraintKind]:
    """The reader of a kind whose every field has a _FIELD_READERS entry, by
    its K.LAYOUT row and the writer's rules: each field from its child, a
    field in DEFAULTS left at its default when its child is absent and, when
    the first field is the only required one, that field from the text of an
    element without children."""
    fields = [(child, name, _FIELD_READERS[name], name not in kind.DEFAULTS)
              for child, name in K.LAYOUT[kind][1]]
    as_text = [required for *_, required in fields] == [True] + [False] * (len(fields) - 1)
    read_first = fields[0][2]

    def read(self: "_ConstraintReader", el: RawElement) -> K.ConstraintKind:
        if as_text and not el.children:
            return kind(read_first(el, self.arrays))
        values = {}
        for child, name, read_field, required in fields:
            src = _required(el, child) if required else el.find(child)
            if src is not None:
                values[name] = read_field(src, self.arrays)
        return kind(**values)
    return read


def _tag_table(readers: Dict[str, Callable]
               ) -> Dict[str, Tuple[Callable, FrozenSet[str], FrozenSet[str]]]:
    """Each constraint tag: its reader, the attributes it takes beyond id,
    class and note, and the child tags it allows, each that a K.LAYOUT row of
    one of its kinds names. A tag without an entry in readers names one kind,
    read by _plain_reader. _dispatch checks attributes and children, then
    reads."""
    kinds: Dict[str, List[type]] = {}
    extra: Dict[str, set] = {}
    children: Dict[str, set] = {}
    for kind, (tag, rows) in K.LAYOUT.items():
        kinds.setdefault(tag, []).append(kind)
        for child, _ in rows:
            owner, at, attr = child.partition("@")
            if not at:
                children.setdefault(tag, set()).update(child.split("|"))
            elif not owner:
                extra.setdefault(tag, set()).add(attr)
    return {tag: (readers[tag] if tag in readers else _plain_reader(*kinds[tag]),
                  frozenset(extra.get(tag, ())), frozenset(children[tag]))
            for tag in kinds}


class _ConstraintReader:
    def __init__(self, cfg: ParserConfig, arrays: Dict[str, VarArray], used_ids: set):
        self.cfg = cfg
        self.arrays = arrays
        self.used_ids = used_ids
        self.posted: List[PostedConstraint] = []
        self.group_ids: List[str] = []
        self.removed: List[str] = []  # paths of what drop_classes or lenient mode left out
        self.leaves: Dict[str, Union[Expr, bool]] = {}  # _bind's leaf of each token, or False

    # entry point -------------------------------------------------------------

    def read(self, section: RawElement) -> None:
        self._walk(section.children, ())

    def _walk(self, children: List[RawElement], classes: Tuple[str, ...]) -> None:
        for el in children:
            cls = classes + _classes(el)
            if set(cls) & self.cfg.drop_classes:
                self.removed.append(el.path)
                continue
            if el.tag == "block":
                _check_attrs(el)
                self._register_id(el, member_base=False)
                self._walk(el.children, cls)
            elif el.tag == "group":
                self._expand_group(el, cls)
            elif el.tag == "slide":
                self._expand_slide(el, cls)
            elif el.tag in self._TAGS:
                self._post_single(el, cls)
            elif self.cfg.strict:
                raise UnknownElement(f"unsupported constraint <{el.tag}>",
                                     path=el.path, rule="constraint-tag")
            else:
                self.removed.append(el.path)

    def _post_single(self, el: RawElement, classes: Tuple[str, ...],
                     forced_id: Optional[str] = None) -> None:
        cid = forced_id if forced_id is not None else self._register_id(el)
        try:
            kind = self._dispatch(el)
        except UnknownElement:
            if self.cfg.strict:
                raise
            self.removed.append(el.path)
            return
        self.posted.append(PostedConstraint(kind, cid, classes, el.attr("note")))

    def _register_id(self, el: RawElement, member_base: bool = True) -> Optional[str]:
        cid = el.attr("id")
        if cid is None:
            return None
        if not is_identifier(cid):
            raise ParseError(f"bad identifier {cid!r}", path=el.path, rule="identifier")
        if cid in self.used_ids:
            raise ParseError(f"id {cid!r} declared twice", path=el.path, rule="duplicate-id")
        self.used_ids.add(cid)
        if member_base and el.tag in _STRUCTURAL_TAGS:
            self.group_ids.append(cid)
        return cid

    def _dispatch(self, el: RawElement) -> K.ConstraintKind:
        read, extra, children = self._TAGS[el.tag]
        _check_attrs(el, extra)
        _check_children(el, children)
        return read(self, el)

    # template machinery --------------------------------------------------------
    #
    # A group or slide posts one member per <args> or window: its template
    # with the member's tokens for %0, %1, ... An <intension> template is
    # checked and its expression read once, in expr's template mode, and
    # each member's expression is built by binding its tokens into that
    # tree. Every other member is substituted as text and read as a lone
    # constraint would be: one of another template, of an intension
    # template that template mode cannot read, or with a token that is no
    # leaf. Both routes give the same constraints and the same errors
    # (tests/test_expansion.py).

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
                    highest = max(highest, read_int(token, node.path, "parameter index"))
            for child in node.children:
                scan(child)
        scan(el)
        return highest, rest

    def _substitute(self, el: RawElement, tokens: Sequence[str], highest: int,
                    path: str) -> RawElement:
        def replace(m: re.Match) -> str:  # the caller checked that tokens has each %k
            token = m.group()[1:]
            return " ".join(tokens[highest + 1:]) if token == "..." else tokens[int(token)]
        children = [self._substitute(c, tokens, highest, path) for c in el.children]
        text = _PARAM_RE.sub(replace, el.text)
        attrs = {k: v for k, v in el.attrs.items() if k != "id"}
        return RawElement(el.tag, attrs, children, text, path)

    def _binding(self, template: RawElement
                 ) -> Optional[Tuple[Tuple[int, ...], Callable[..., Expr]]]:
        """For an <intension> template that _dispatch accepts and whose
        expression reads in template mode: the parameters that expression
        uses and the builder of each member's expression from their leaves
        (expr.binder). None for any other template, whose members are each
        substituted and read as text."""
        if template.tag != "intension":
            return None
        _, extra, children = self._TAGS["intension"]
        try:
            _check_attrs(template, extra)
            _check_children(template, children)
            src = template.find("function") or template
            return binder(parse_expr(src.text.strip(), src.path, template=True))
        except ParseError:
            return None

    def _bind(self, tokens: Sequence[str], used: Tuple[int, ...]
              ) -> Optional[List[Optional[Expr]]]:
        """The leaves a member binds: operand_leaf(tokens[k]) at each k in used,
        None at the others; None when some token in used is no leaf."""
        leaves: List[Optional[Expr]] = [None] * len(tokens)
        for k in used:
            token = tokens[k]
            leaf = self.leaves.get(token)
            if leaf is None:
                leaf = self.leaves[token] = operand_leaf(token) or False
            if leaf is False:
                return None
            leaves[k] = leaf
        return leaves

    def _post_members(self, template: RawElement, highest: int,
                      members: Iterator[Tuple[Sequence[str], str]], base_id: Optional[str],
                      classes: Tuple[str, ...]) -> None:
        """Post one constraint per member, template with its tokens for %0,
        %1, ... at the member's path, its id base_id[k] for the k-th: bound
        into the template's expression (_binding, _bind) or, where that
        cannot be, substituted as text and read as it stands."""
        binding, note = self._binding(template), template.attr("note")
        for k, (tokens, path) in enumerate(members):
            member_id = f"{base_id}[{k}]" if base_id is not None else None
            leaves = self._bind(tokens, binding[0]) if binding is not None else None
            if leaves is None:
                member = self._substitute(template, tokens, highest, path)
                self._post_single(member, classes, forced_id=member_id)
            else:
                self.posted.append(PostedConstraint(K.Intension(binding[1](leaves)), member_id,
                                                    classes, note))

    def _expand_group(self, el: RawElement, classes: Tuple[str, ...]) -> None:
        _check_attrs(el)
        gid = self._register_id(el)
        if not el.children:
            raise ParseError("empty group", path=el.path, rule="group-shape")
        template, rest_children = el.children[0], el.children[1:]
        if template.tag == "args":
            raise ParseError("group template must come before <args>",
                             path=el.path, rule="group-shape")
        if template.tag not in self._TAGS:
            if not self.cfg.strict:
                self.removed.append(el.path)  # lenient: the whole group is skipped
                return
            raise ParseError(f"<{template.tag}> cannot be a group template",
                             path=template.path, rule="group-template")
        if not rest_children or any(c.tag != "args" for c in rest_children):
            raise ParseError("group needs one template followed by <args> elements",
                             path=el.path, rule="group-shape")
        highest, has_rest = self._template_params(template)
        if has_rest and template.tag == "intension":
            raise ParseError(
                "%... cannot occur inside a functional expression",
                path=template.path, rule="rest-placement")

        def members() -> Iterator[Tuple[List[str], str]]:
            for k, args_el in enumerate(rest_children):
                tokens = args_el.text.split()
                if has_rest:
                    if len(tokens) < highest + 1:
                        raise ParseError(
                            f"args #{k} has {len(tokens)} tokens, template needs at "
                            f"least {highest + 1}", path=args_el.path, rule="group-arity")
                elif len(tokens) != highest + 1:
                    raise ParseError(
                        f"args #{k} has {len(tokens)} tokens, template takes "
                        f"{highest + 1}", path=args_el.path, rule="group-arity")
                yield tokens, args_el.path
        self._post_members(template, highest, members(), gid, classes)

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
            if not self.cfg.strict:
                self.removed.append(el.path)  # lenient: the whole slide is skipped
                return
            raise ParseError(
                f"slide template must be intension or extension, not <{template.tag}>",
                path=template.path, rule="slide-template")
        highest, has_rest = self._template_params(template)
        if has_rest:
            raise ParseError("%... cannot occur in a slide template",
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
            offset = read_int(offset_text, lst.path, "offset") if offset_text else 1
            if offset < 1:
                raise ParseError(f"offset must be positive, not {offset}",
                                 path=lst.path, rule="slide-offset")
            collect_text = lst.attr("collect")
            default_collect = q if len(lists) == 1 else 1
            collect = (read_int(collect_text, lst.path, "collect")
                       if collect_text else default_collect)
            if collect < 1:
                raise ParseError(f"collect must be positive, not {collect}",
                                 path=lst.path, rule="slide-collect")
            per_list.append((ids, offset, collect))
        if sum(c for _, _, c in per_list) != q:
            raise ParseError(
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
                raise ParseError(f"list of {n} variables cannot slide a window "
                                 f"of {q}", path=el.path, rule="slide-length")
            # one window per start position, wrapping past the end
            members = [[ids[(i + t) % n] for t in range(q)] for i in range(n)]
        else:
            counts = []
            for ids, offset, collect in per_list:
                if len(ids) < collect:
                    raise ParseError(
                        f"list of {len(ids)} variables cannot collect {collect}",
                        path=el.path, rule="slide-length")
                counts.append((len(ids) - collect) // offset + 1)
            if len(set(counts)) > 1:
                raise ParseError(
                    f"slide lists disagree on member count: {counts}",
                    path=el.path, rule="slide-length")
            members = []
            for i in range(counts[0]):
                window: List[str] = []
                for ids, offset, collect in per_list:
                    window.extend(ids[i * offset:i * offset + collect])
                members.append(window)
        self._post_members(template, highest, ((window, el.path) for window in members),
                           sid, classes)

    # single constraints ----------------------------------------------------------

    def _read_extension(self, el: RawElement) -> K.Extension:
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
        tuples, has_star = read_table(text, table.path)
        for t in tuples:
            if len(t) != len(scope):
                raise ParseError(
                    f"tuple of {len(t)} values for a scope of {len(scope)}",
                    path=table.path, rule="tuple-arity")
        if self.cfg.strict and not has_star and not all(map(operator.lt, tuples, tuples[1:])):
            a, b = next((a, b) for a, b in zip(tuples, tuples[1:]) if not a < b)
            raise ParseError(f"table tuples must be lexicographically increasing "
                             f"without repetition: {a} then {b}",
                             path=table.path, rule="table-order")
        return K.Extension(scope, positive, tuples=tuple(tuples))

    def _read_mdd(self, el: RawElement) -> K.Mdd:
        list_el = _required(el, "list")
        scope = tuple(read_var_ids(list_el.text, self.arrays, list_el.path))
        mdd = K.Mdd(scope, _read_transitions(_required(el, "transitions")))
        with _at(el.path):
            mdd.root_terminal  # reject a bad shape now, not when checking
        return mdd

    def _read_allDifferent(self, el: RawElement) -> K.ConstraintKind:
        matrix = el.find("matrix")
        lists = el.find_all("list")
        except_el = el.find("except")
        if matrix is not None:
            if lists or except_el is not None:
                raise ParseError("matrix form takes no other children",
                                 path=el.path, rule="allDifferent-shape")
            rows = _read_matrix(matrix, self.arrays, read_var)
            return K.AllDifferentMatrix(tuple(tuple(r) for r in rows))
        if len(lists) >= 2:
            id_lists = [tuple(read_var_ids(l.text, self.arrays, l.path)) for l in lists]
            width = len(id_lists[0])
            if any(len(l) != width for l in id_lists):
                raise ParseError("allDifferent lists differ in length",
                                 path=el.path, rule="lists-length")
            excepts: Tuple[Tuple[int, ...], ...] = ()
            if except_el is not None:
                raw = read_tuples(except_el.text, except_el.path, read_int)
                for t in raw:
                    if len(t) != width:
                        raise ParseError("except tuple arity differs from lists",
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

    def _read_order_operator(self, el: RawElement) -> OrderOp:
        op_el = _required(el, "operator")
        text = op_el.text.strip()
        try:
            return OrderOp(text)
        except ValueError:
            raise ParseError(f"unknown ordering operator {text!r}",
                             path=op_el.path, rule="order-operator") from None

    def _read_ordered(self, el: RawElement) -> K.Ordered:
        list_el = _required(el, "list")
        ids = tuple(read_var_ids(list_el.text, self.arrays, list_el.path))
        op = self._read_order_operator(el)
        lengths_el = el.find("lengths")
        lengths: Optional[Tuple[K.Val, ...]] = None
        if lengths_el is not None:
            lengths = tuple(read_vals(lengths_el.text, self.arrays, lengths_el.path))
            if len(lengths) != len(ids) - 1:
                raise ParseError(
                    f"{len(lengths)} lengths for {len(ids)} variables",
                    path=lengths_el.path, rule="lengths-count")
        return K.Ordered(ids, op, lengths)

    def _read_lex(self, el: RawElement) -> K.ConstraintKind:
        op = self._read_order_operator(el)
        matrix = el.find("matrix")
        if matrix is not None:
            rows = _read_matrix(matrix, self.arrays, read_var)
            return K.Lex2(tuple(tuple(r) for r in rows), op)
        lists = el.find_all("list")
        if len(lists) < 2:
            raise ParseError("lex needs at least two lists or a matrix",
                             path=el.path, rule="lex-shape")
        id_lists = [tuple(read_var_ids(l.text, self.arrays, l.path)) for l in lists]
        width = len(id_lists[0])
        if any(len(l) != width for l in id_lists):
            raise ParseError("lex lists differ in length", path=el.path, rule="lists-length")
        return K.Lex(tuple(id_lists), op)

    def _read_condition(self, el: RawElement) -> Condition:
        cond_el = _required(el, "condition")
        return parse_condition_text(cond_el.text, cond_el.path)

    def _read_sum(self, el: RawElement) -> K.Sum:
        list_el = _required(el, "list")
        terms = tuple(read_exprs(list_el.text, self.arrays, list_el.path))
        coeffs_el = el.find("coeffs")
        if coeffs_el is not None:
            coeffs = tuple(read_vals(coeffs_el.text, self.arrays, coeffs_el.path,
                                     len(terms), "coeffs-count"))
            if len(coeffs) != len(terms):
                raise ParseError(f"{len(coeffs)} coefficients for {len(terms)} terms",
                                 path=coeffs_el.path, rule="coeffs-count")
        else:
            coeffs = (1,) * len(terms)
        return K.Sum(terms, coeffs, self._read_condition(el))

    def _read_cardinality(self, el: RawElement) -> K.Cardinality:
        list_el = _required(el, "list")
        ids = tuple(read_var_ids(list_el.text, self.arrays, list_el.path))
        values_el = _required(el, "values")
        closed = _bool_attr(values_el, "closed", False)
        values = tuple(read_vals(values_el.text, self.arrays, values_el.path))
        occurs_el = _required(el, "occurs")
        occurs: List[Union[int, VarRef, Interval]] = []
        for token in occurs_el.text.split():
            interval = read_interval(token, occurs_el.path)
            if interval is not None:
                occurs.append(Interval(*interval))
            elif INT_RE.fullmatch(token):
                occurs.append(read_int(token, occurs_el.path, "occurrence"))
            else:
                occurs.extend(VarRef(i) for i in _var_ids(token, self.arrays, occurs_el.path))
        if len(values) != len(occurs):
            raise ParseError(f"{len(values)} values for {len(occurs)} occurrences",
                             path=occurs_el.path, rule="occurs-count")
        return K.Cardinality(ids, values, tuple(occurs), closed)

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
        if INT_RE.fullmatch(token):
            if values_form:
                raise ParseError("element over values needs a variable target",
                                 path=value_el.path, rule="element-value")
            return read_int(token, value_el.path, "element value")
        return VarRef(read_var(token, value_el.path, rule="element-value"))

    def _read_element(self, el: RawElement) -> K.ConstraintKind:
        index_el = _required(el, "index")
        matrix = el.find("matrix")
        if matrix is not None:
            _check_start_index(matrix, "startRowIndex", "startColIndex")
            text = matrix.text.strip()
            int_cells = "(" in text and all(c.isspace() or c in "(),+-0123456789"
                                            for c in text)
            rows = _read_matrix(matrix, self.arrays, read_int if int_cells else read_var)
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
        values_form = bool(tokens) and all(INT_RE.fullmatch(t) for t in tokens)
        indexes = read_var_ids(index_el.text, self.arrays, index_el.path)
        if len(indexes) != 1:
            raise ParseError("element needs one index variable",
                             path=index_el.path, rule="element-index")
        rhs = self._read_element_rhs(el, values_form=values_form)
        if values_form:
            values = tuple(read_int(t, list_el.path, "element value") for t in tokens)
            return K.ElementValList(values, indexes[0], rhs)
        ids = tuple(read_var_ids(list_el.text, self.arrays, list_el.path))
        return K.ElementVarList(ids, indexes[0], rhs)

    def _read_channel(self, el: RawElement) -> K.ConstraintKind:
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
            raise ParseError(
                f"first channel list ({len(first)}) is longer than the second "
                f"({len(second)})", path=el.path, rule="channel-lengths")
        return K.ChannelTwo(first, second)

    def _read_noOverlap(self, el: RawElement) -> K.ConstraintKind:
        zero_ignored = _bool_attr(el, "zeroIgnored", True)
        origins_el = _required(el, "origins")
        lengths_el = _required(el, "lengths")
        if origins_el.text.strip().startswith("("):
            origin_rows = read_tuples(origins_el.text, origins_el.path, read_var,
                                      what="origin tuple")
            length_rows = read_tuples(lengths_el.text, lengths_el.path, _val_field,
                                      what="length tuple")
            if len(origin_rows) != len(length_rows):
                raise ParseError(f"{len(origin_rows)} origin tuples for "
                                 f"{len(length_rows)} length tuples",
                                 path=el.path, rule="noOverlap-count")
            dims = {len(t) for t in origin_rows} | {len(t) for t in length_rows}
            if len(dims) != 1:
                raise ParseError("origin/length tuples differ in dimension",
                                 path=el.path, rule="noOverlap-count")
            return K.NoOverlapK(tuple(origin_rows), tuple(length_rows), zero_ignored)
        origins = tuple(read_var_ids(origins_el.text, self.arrays, origins_el.path))
        lengths = tuple(read_vals(lengths_el.text, self.arrays, lengths_el.path))
        if len(origins) != len(lengths):
            raise ParseError(f"{len(origins)} origins for {len(lengths)} lengths",
                             path=el.path, rule="noOverlap-count")
        return K.NoOverlap1(origins, lengths, zero_ignored)

    def _read_cumulative(self, el: RawElement) -> K.Cumulative:
        origins_el = _required(el, "origins")
        origins = tuple(read_var_ids(origins_el.text, self.arrays, origins_el.path))
        lengths_el = _required(el, "lengths")
        lengths = tuple(read_vals(lengths_el.text, self.arrays, lengths_el.path))
        heights_el = _required(el, "heights")
        heights = tuple(read_vals(heights_el.text, self.arrays, heights_el.path))
        if not len(origins) == len(lengths) == len(heights):
            raise ParseError(
                f"{len(origins)} origins, {len(lengths)} lengths, "
                f"{len(heights)} heights", path=el.path, rule="cumulative-count")
        return K.Cumulative(origins, lengths, heights, self._read_condition(el))

    def _read_circuit(self, el: RawElement) -> K.Circuit:
        list_el = el.find("list")
        src = list_el if list_el is not None else el
        if list_el is not None:
            _check_start_index(list_el, "startIndex")
        ids = tuple(read_var_ids(src.text, self.arrays, src.path))
        if not ids:
            raise ParseError("circuit without variables", path=src.path, rule="circuit-shape")
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
        list_el = _required(el, "list")
        ids = tuple(read_var_ids(list_el.text, self.arrays, list_el.path))
        values_el = _required(el, "values")
        values = tuple(read_int_values(values_el.text, values_el.path, len(ids),
                                       "instantiation-count", allow_star=True))
        if len(ids) != len(values):
            raise ParseError(f"{len(ids)} variables for {len(values)} values",
                             path=el.path, rule="instantiation-count")
        return K.InstantiationCtr(ids, values)

    _TAGS = _tag_table({
        "extension": _read_extension, "mdd": _read_mdd, "allDifferent": _read_allDifferent,
        "ordered": _read_ordered, "lex": _read_lex, "sum": _read_sum,
        "cardinality": _read_cardinality, "element": _read_element, "channel": _read_channel,
        "noOverlap": _read_noOverlap, "cumulative": _read_cumulative,
        "circuit": _read_circuit, "instantiation": _read_instantiation})


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
        raise ParseError(
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
            return Objective(sense, obj_kind,
                             expression=_read_expr(el.text.strip(), el.path))
        _check_children(el, frozenset({"list", "coeffs"}))
        src = el.find("list") or el
        operands = tuple(read_exprs(src.text, arrays, src.path))
        coeffs_el = el.find("coeffs")
        coeffs: Optional[Tuple[int, ...]] = None
        if coeffs_el is not None:
            coeffs = tuple(read_int_values(coeffs_el.text, coeffs_el.path, len(operands),
                                           "objective-shape"))
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
        raise ParseError(f"format attribute must be XCSP3, found {fmt!r}",
                         path=root.path, rule="instance-format")
    type_text = root.attr("type")
    if type_text not in ("CSP", "COP"):
        raise ParseError(f"type attribute must be CSP or COP, found {type_text!r}",
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
        raise ParseError("a CSP instance cannot declare an objective",
                         path=sections["objectives"].path, rule="instance-type")
    if type_text == "COP" and objective is None:
        raise ParseError("a COP instance needs an objective",
                         path=root.path, rule="objective-count")

    decision: Optional[Tuple[str, ...]] = None
    if "annotations" in sections:
        decision = _read_decision(sections["annotations"], vars_builder.arrays,
                                  cfg.strict)

    instance = Instance(tuple(vars_builder.declarations), tuple(reader.posted),
                        objective, decision, tuple(reader.removed))
    _validate_references(instance, decision)
    if cfg.strict:
        _check_id_prefixes(vars_builder, reader)
    return instance


def _validate_references(instance: Instance, decision: Optional[Tuple[str, ...]]) -> None:
    """Raise at the first id that a constraint, the objective or the decision
    annotation names, in that order, and that is undeclared or has no
    domain: a variable may be undefined or useful, never both."""
    for position, posted in enumerate(instance.constraints):
        _check_ids(instance, posted.kind.var_ids,
                   lambda: f"constraint {posted.label(position)}")
    if instance.objective is not None:
        _check_ids(instance, instance.objective.var_ids, lambda: "objective")
    if decision is not None:
        _check_ids(instance, decision, lambda: "decision annotation")


def _check_ids(instance: Instance, ids: Sequence[str], who: Callable[[], str]) -> None:
    """Raise for the first of ids that names no variable with a domain;
    who() names what refers to them."""
    for vid in ids:
        variable = instance.variable(vid)
        if variable is None:
            _undeclared(instance, vid, f"{who()} references")
        if variable.domain is None:
            raise ParseError(f"{who()} involves undefined variable {vid!r}",
                             rule="undefined-useful")


def _undeclared(instance: Instance, vid: str, who: str) -> NoReturn:
    """Raise for an id that names no declared variable: index-range for a
    cell of a declared array, unknown-variable for anything else."""
    array = instance.arrays_by_id.get(vid.partition("[")[0])
    if array is not None and _CELL_RE.fullmatch(vid):
        size = "".join(f"[{n}]" for n in array.size)
        raise ParseError(f"{who} {vid!r}, no cell of array {array.id}{size}",
                         rule="index-range")
    raise ParseError(f"{who} undeclared variable {vid!r}", rule="unknown-variable")


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


def read_text(path: str) -> str:
    """The text of a UTF-8 file; other bytes are a parse error naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text ({e.reason})", path=path, rule="encoding") from None


def parse_file(path: str, config: Optional[ParserConfig] = None) -> Instance:
    return parse_string(read_text(path), config)

"""Parser for the plain-text expression / constraint syntax.

The paper describes "a plain-text syntax for specifying mapping composition
tasks" together with a parser that converts it into the internal algebraic
representation.  This module provides that parser for the syntax documented in
:mod:`repro.algebra.printer` (the printer and parser round-trip).

Relation arities come either from an inline declaration (``R/3``) or from a
signature passed to the parsing functions.  The reserved words are::

    union intersect x select project skolem semijoin antisemijoin
    leftouterjoin tclosure D empty const true false and or not

How it works: one compiled-regex call splits a line into token strings, and
the parser walks that list with an index and an explicit stack, so nesting
depth is bounded by memory, not by Python's recursion limit.  Token positions
are worked out only when an error is reported.  Every malformed input raises
:class:`~repro.exceptions.ParseError` with the offending token's position; a
line holding a character no token can start with reports that character
first, wherever the parse stopped.  (A condition nested too deeply to build
reports position -1.)

All the constraints parsed by one call share their leaves: each distinct
``(name, arity)`` becomes one :class:`Relation` object (the rewrite engine is
DAG-aware).  The textio record parsers keep one leaf table per record.

Example
-------
>>> from repro.algebra.parser import parse_constraint
>>> parse_constraint("project[0,1](select[#3 = 5](Movies/6)) <= FiveStarMovies/3")
...                                         # doctest: +ELLIPSIS
<ContainmentConstraint: ...>
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from repro.algebra.conditions import (
    And,
    Comparison,
    Condition,
    FALSE,
    Not,
    Or,
    TRUE,
)
from repro.algebra.expressions import (
    PREFIX_OPERATOR_TYPES,
    ConstantRelation,
    CrossProduct,
    Difference,
    Domain,
    Empty,
    Expression,
    Intersection,
    Relation,
    SkolemApplication,
    SkolemFunction,
    Union,
)
from repro.algebra.terms import Attribute, Constant
from repro.constraints.constraint import ContainmentConstraint, EqualityConstraint
from repro.exceptions import ParseError, ReproError

__all__ = ["parse_expression", "parse_condition", "parse_constraint", "parse_constraints"]


#: A number: digits, then a fraction, an exponent (``repr`` writes ``1e-05``)
#: or both.  They share one optional group, so after an integer's digits the
#: scanner makes one failed test, not two.
_NUMBER = r"\d+(?:\.\d+(?:e[-+]\d+)?|e[-+]\d+)?"
#: One token: a name, an operator, a number, a quoted string or an attribute
#: ``#i``.  The alternatives start with distinct characters, so their order
#: only sets speed: the most frequent come first.  Whitespace separates
#: tokens and is dropped.
_VALID_TOKEN = (
    r"[A-Za-z_][A-Za-z0-9_.]*"
    r"|[=/()\[\],;]|<=?|>=?|!="
    rf"|{_NUMBER}|-(?:{_NUMBER})?"
    r"|'(?:\\.|[^'\\])*'"
    r"|\#\d+"
)
_VALID_TOKEN_RE = re.compile(_VALID_TOKEN)
#: The tokenizer: any other character becomes a one-character token that no
#: grammar rule accepts, so the parse stops there or earlier.
_TOKEN_RE = re.compile(_VALID_TOKEN + r"|\S")

_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_BINARY = {"union": Union, "intersect": Intersection, "x": CrossProduct, "-": Difference}
_COMPARISONS = frozenset(("=", "!=", "<", "<=", ">", ">="))

# Tokens that start a primary other than a relation leaf, and each prefix
# keyword's class, payload kind and number of operands after the first.  A
# context on the parser's stack ends at a token that continues no binary
# chain: a parenthesis yields its content, and an operator builds its node
# as ``closer(*operands, payload)`` when its closing token is read, as a
# recursive-descent parser would, so the first error raised is the same.
_PREFIX_FORMS = {
    node_type.operator_name: (node_type, node_type.payload_kind, node_type.operand_count - 1)
    for node_type in PREFIX_OPERATOR_TYPES
}
_PREFIX, _OPEN, _SKOLEM, _DOMAIN, _EMPTY, _CONST = range(6)
_PRIMARY = {
    "(": _OPEN,
    "skolem": _SKOLEM,
    "D": _DOMAIN,
    "empty": _EMPTY,
    "const": _CONST,
    **dict.fromkeys(_PREFIX_FORMS, _PREFIX),
}
#: Words that start no primary and name no relation.
_RESERVED = set(_BINARY) - {"-"} | {"true", "false", "and", "or", "not"}
_PAREN, _NO_PAYLOAD = object(), object()


class _Syntax(Exception):
    """A parse error at token ``index``; turned into a located ParseError."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index
        self.message = message


def _unexpected_character(text: str):
    """The error for the first character of ``text`` no token can start with, or ``None``."""
    for match in _TOKEN_RE.finditer(text):
        token = match.group()
        if _VALID_TOKEN_RE.fullmatch(token) is None:
            return ParseError(f"unexpected character {token!r}", match.start(), text)
    return None


def _located(text: str, error: _Syntax) -> ParseError:
    """The :class:`ParseError` for ``error``, with a character position.

    An unexpected character anywhere in the line is reported in its place,
    as a tokenizer that reads the whole line before parsing would.
    """
    unexpected = _unexpected_character(text)
    if unexpected is not None:
        return unexpected
    for number, match in enumerate(_TOKEN_RE.finditer(text)):
        if number == error.index:
            return ParseError(error.message, match.start(), text)
    return ParseError(error.message, len(text), text)


def _expected(tokens: List[str], index: int, value: str) -> _Syntax:
    return _Syntax(index, f"expected {value!r} but found {tokens[index]!r}")


def _open(tokens: List[str], index: int) -> int:
    """The index after the ``(`` expected at ``index``."""
    if tokens[index] != "(":
        raise _expected(tokens, index, "(")
    return index + 1


def _is_number(token: str) -> bool:
    first = token[:1]
    return first.isdecimal() or (first == "-" and len(token) > 1)


def _number(index: int, token: str, integer: bool = True):
    """``token`` (at ``index``) as an int, or as a float when ``integer`` is false."""
    try:
        return int(token) if integer else float(token)
    except ValueError:  # more digits than ``int()`` converts
        raise _Syntax(index, f"invalid number {token!r}") from None


def _integer(tokens: List[str], index: int) -> int:
    token = tokens[index]
    try:
        # Only an integer token converts: every other token starts with a
        # letter, an underscore or a symbol, or holds a decimal point.
        return int(token)
    except ValueError:
        pass
    if not _is_number(token):
        raise _Syntax(index, f"expected 'number' but found {token!r}")
    if "." in token or "e" in token:
        raise _Syntax(index, f"expected an integer, found {token!r}")
    return _number(index, token)


def _literal(tokens: List[str], index: int) -> object:
    token = tokens[index]
    if token[:1] == "'" and len(token) > 1:
        return token[1:-1].replace("\\'", "'").replace("\\\\", "\\")
    if _is_number(token):
        return _number(index, token, "." not in token and "e" not in token)
    raise _Syntax(index, f"expected a literal value, found {token!r}")


def _term(tokens: List[str], index: int):
    token = tokens[index]
    if token[:1] == "#" and len(token) > 1:
        return Attribute(_number(index, token[1:]))
    return Constant(_literal(tokens, index))


def _index_list(tokens: List[str], index: int) -> Tuple[Tuple[int, ...], int]:
    """``[i, j, ...](`` starting at ``index``; returns the indices and the next index."""
    if tokens[index] != "[":
        raise _expected(tokens, index, "[")
    index += 1
    if tokens[index] == "]":
        return (), _open(tokens, index + 1)
    values = []
    while True:
        values.append(_integer(tokens, index))
        index += 1
        if tokens[index] != ",":
            break
        index += 1
    if tokens[index] != "]":
        raise _expected(tokens, index, "]")
    return tuple(values), _open(tokens, index + 1)


def _condition(tokens: List[str], index: int) -> Tuple[Condition, int]:
    """A condition starting at ``index``; returns it and the next index.

    Grammar: ``or := and ('or' and)*``, ``and := atom ('and' atom)*`` and
    ``atom := true | false | not (or) | (or) | term op term``.  Each open
    parenthesis saves the enclosing disjunction and conjunction on a stack.
    """
    stack = []
    disjuncts: List[Condition] = []
    conjuncts: List[Condition] = []
    while True:
        token = tokens[index]
        if token == "true":
            atom = TRUE
            index += 1
        elif token == "false":
            atom = FALSE
            index += 1
        elif token == "not" or token == "(":
            if token == "not":
                index += 1
                if tokens[index] != "(":
                    raise _expected(tokens, index, "(")
            stack.append((token == "not", disjuncts, conjuncts))
            disjuncts, conjuncts = [], []
            index += 1
            continue
        else:
            left = _term(tokens, index)
            op = tokens[index + 1]
            if op not in _COMPARISONS:
                raise _Syntax(index + 1, f"expected a comparison operator, found {op!r}")
            atom = Comparison(left, op, _term(tokens, index + 2))
            index += 3
        # Fold the atom in, closing every group that ends here.
        while True:
            conjuncts.append(atom)
            token = tokens[index]
            if token == "and":
                break
            disjuncts.append(conjuncts[0] if len(conjuncts) == 1 else And(*conjuncts))
            if token == "or":
                conjuncts = []
                break
            inner = disjuncts[0] if len(disjuncts) == 1 else Or(*disjuncts)
            if not stack:
                return inner, index
            if token != ")":
                raise _expected(tokens, index, ")")
            index += 1
            negated, disjuncts, conjuncts = stack.pop()
            atom = Not(inner) if negated else inner
        index += 1


def _condition_in_brackets(tokens: List[str], index: int) -> Tuple[Condition, int]:
    """``[condition](`` starting at ``index``; returns the condition and the next index."""
    if tokens[index] != "[":
        raise _expected(tokens, index, "[")
    condition, index = _condition(tokens, index + 1)
    if tokens[index] != "]":
        raise _expected(tokens, index, "]")
    return condition, _open(tokens, index + 1)


def _constant_relation(tokens: List[str], index: int) -> Tuple[Expression, int]:
    """``(row; row ...)`` after ``const``; returns the relation and the next index."""
    index = _open(tokens, index)
    rows = []
    while True:
        index = _open(tokens, index)
        values = [_literal(tokens, index)]
        index += 1
        while tokens[index] == ",":
            values.append(_literal(tokens, index + 1))
            index += 2
        if tokens[index] != ")":
            raise _expected(tokens, index, ")")
        rows.append(tuple(values))
        index += 1
        if tokens[index] != ";":
            break
        index += 1
    if tokens[index] != ")":
        raise _expected(tokens, index, ")")
    return ConstantRelation(tuples=tuple(rows), constant_arity=len(rows[0])), index + 1


def _arity_call(tokens: List[str], index: int) -> Tuple[int, int]:
    """``(n)`` starting at ``index``; returns ``n`` and the next index."""
    index = _open(tokens, index)
    value = _integer(tokens, index)
    if tokens[index + 1] != ")":
        raise _expected(tokens, index + 1, ")")
    return value, index + 2


def _skolem_application(child: Expression, function: Tuple[str, Tuple[int, ...]]):
    return SkolemApplication(child, SkolemFunction(*function))


class _Reader:
    """Parses lines into the algebra, sharing one leaf table across them."""

    __slots__ = ("signature", "leaves")

    def __init__(self, signature=None):
        self.signature = signature
        self.leaves: Dict[Tuple[str, int], Relation] = {}

    def expression(self, tokens: List[str], index: int) -> Tuple[Expression, int]:
        """An expression starting at ``index``; returns it and the next index.

        ``E := primary (binop primary)*`` (left-associative).  A primary that
        opens a parenthesis pushes the enclosing context — its closer and
        payload, the left operand so far and the pending binary operator —
        and the loop goes on inside it.
        """
        leaves = self.leaves
        stack = []
        left = binary = None
        while True:
            token = tokens[index]
            code = _PRIMARY.get(token)
            if code is None:
                if token[:1] not in _NAME_START:
                    raise _Syntax(index, f"expected an expression, found {token!r}")
                if token in _RESERVED:
                    raise _Syntax(index, f"{token!r} is a reserved word")
                if tokens[index + 1] == "/":
                    arity = _integer(tokens, index + 2)
                    index += 3
                else:
                    signature = self.signature
                    if signature is None or token not in signature:
                        raise _Syntax(
                            index,
                            f"relation {token!r} has no inline arity (use {token}/<arity>) "
                            "and is not in the signature",
                        )
                    arity = signature.arity_of(token)
                    index += 1
                key = (token, arity)
                value = leaves.get(key)
                if value is None:
                    value = leaves[key] = Relation(token, arity)
            elif code == _CONST:
                value, index = _constant_relation(tokens, index + 1)
            elif code == _DOMAIN or code == _EMPTY:
                arity, index = _arity_call(tokens, index + 1)
                value = Domain(arity) if code == _DOMAIN else Empty(arity)
            else:
                # An operator whose operands follow in parentheses: push a
                # context (its closer, its payload, how many operands follow
                # the one being read, and the operands read so far) and
                # parse on inside it.
                if code == _PREFIX:
                    closer, kind, rest = _PREFIX_FORMS[token]
                    if kind == "condition":
                        payload, index = _condition_in_brackets(tokens, index + 1)
                    elif kind == "indices":
                        payload, index = _index_list(tokens, index + 1)
                    else:
                        payload, index = _NO_PAYLOAD, _open(tokens, index + 1)
                elif code == _OPEN:
                    closer, payload, rest, index = _PAREN, None, 0, index + 1
                else:
                    name = tokens[index + 1]
                    if name[:1] not in _NAME_START:
                        raise _expected(tokens, index + 1, "name")
                    depends_on, index = _index_list(tokens, index + 2)
                    closer, payload, rest = _skolem_application, (name, depends_on), 0
                stack.append((closer, payload, rest, (), left, binary))
                left = binary = None
                continue
            # Fold the primary in, closing every context that ends here.
            while True:
                left = value if binary is None else binary(left, value)
                token = tokens[index]
                binary = _BINARY.get(token)
                if binary is not None:
                    break
                if not stack:
                    return left, index
                closer, payload, rest, operands, outer_left, outer_binary = stack.pop()
                if rest:
                    if token != ",":
                        raise _expected(tokens, index, ",")
                    operands += (left,)
                    stack.append((closer, payload, rest - 1, operands, outer_left, outer_binary))
                    left = None
                    break
                if token != ")":
                    raise _expected(tokens, index, ")")
                index += 1
                if closer is _PAREN:
                    value = left
                elif payload is _NO_PAYLOAD:
                    value = closer(*operands, left)
                elif operands:
                    value = closer(*operands, left, payload)
                else:
                    value = closer(left, payload)
                left, binary = outer_left, outer_binary
            index += 1

    def constraint(self, tokens: List[str], index: int):
        """A constraint (``E1 <= E2``, ``E1 >= E2`` or ``E1 = E2``) starting at ``index``."""
        left, index = self.expression(tokens, index)
        op = tokens[index]
        if op not in ("=", "<=", ">="):
            raise _Syntax(index, f"expected '<=', '>=' or '=', found {op!r}")
        right, index = self.expression(tokens, index + 1)
        if op == "=":
            return EqualityConstraint(left, right), index
        if op == "<=":
            return ContainmentConstraint(left, right), index
        return ContainmentConstraint(right, left), index

    def constraint_line(self, text: str):
        """Parse ``text`` as one whole constraint."""
        return _parse_whole(text, self.constraint)


def _parse_whole(text: str, parse):
    """Run ``parse(tokens, 0)`` over ``text``, which it must consume entirely."""
    tokens = _TOKEN_RE.findall(text)
    # End of input reads as "": no rule accepts it, and a lookahead at the
    # last token never runs off the list.
    tokens.append("")
    try:
        value, index = parse(tokens, 0)
        if tokens[index]:
            raise _expected(tokens, index, "eof")
    except _Syntax as error:
        raise _located(text, error) from None
    except RecursionError:
        # Conditions are recursive objects: a condition nested thousands
        # deep cannot be built, however it is parsed.
        raise ParseError("input nests too deeply", -1, text) from None
    except ReproError:
        # Building a node can fail (an arity error, say) before the parse
        # reaches an unexpected character, which takes precedence.
        unexpected = _unexpected_character(text)
        if unexpected is not None:
            raise unexpected from None
        raise
    return value


def parse_expression(text: str, signature=None) -> Expression:
    """Parse a single expression from ``text``."""
    return _parse_whole(text, _Reader(signature).expression)


def parse_condition(text: str) -> Condition:
    """Parse a selection condition from ``text``."""
    return _parse_whole(text, _condition)


def parse_constraint(text: str, signature=None):
    """Parse a single constraint (``E1 <= E2``, ``E1 >= E2`` or ``E1 = E2``)."""
    return _Reader(signature).constraint_line(text)


def parse_constraints(text: str, signature=None) -> list:
    """Parse one constraint per non-empty, non-comment line of ``text``.

    Lines starting with ``#`` are treated as comments.  The constraints share
    one leaf table.
    """
    reader = _Reader(signature)
    constraints = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        constraints.append(reader.constraint_line(stripped))
    return constraints

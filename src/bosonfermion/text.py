"""The one literal grammar, shared by every value type.

A literal is an expression in integers, the atoms of its value type, the
binary operators + - * /, unary signs, parentheses, and ^ with an integer
exponent, bare or in parentheses ("t^-2", "t^(-2)").  Each value type
supplies a Grammar: how an integer becomes a value and which atoms exist
(t; p<i> and q; phi[..]@m and vac(m); 1@[..]).
The arithmetic is done by the values' own operators, so a combination the
type does not define ("phi[1]*phi[1]", "p1/p2") is rejected with ValueError.
"""

import operator
import re
from typing import Callable, Iterable

_BINARY = {
    "+": (1, operator.add),
    "-": (1, operator.sub),
    "*": (2, operator.mul),
    "/": (2, operator.truediv),
}
_FACTOR_START = ("num", "atom", "(")

# the bracket form of a partition, read by partitions.parse_partition
PARTITION = r"\[[^\]]*\]"


class Grammar:
    """Literal syntax of one value type.

    ``what`` names the type in error messages and ``result`` is its class: a
    literal must evaluate to an instance.  ``number`` turns an integer
    literal into a value.  ``atoms`` maps a token name to (regex, build),
    where build turns the regex match into a value; a regex may name its own
    groups, prefixed by the token name, and atoms are tried before integers.
    ``juxtapose`` lets adjacent factors multiply ("p2 p1").
    """

    def __init__(
        self,
        what: str,
        result: type,
        number: Callable[[int], object],
        atoms: dict[str, tuple[str, Callable]],
        juxtapose: bool = True,
    ):
        self.what = what
        self.result = result
        self.number = number
        self.juxtapose = juxtapose
        self.builders = {name: build for name, (_, build) in atoms.items()}
        alternatives = [f"(?P<{name}>{pattern})" for name, (pattern, _) in atoms.items()]
        alternatives += [r"(?P<num>\d+)", r"(?P<op>[-+*/^()])"]
        self.token = re.compile(r"\s*(?:" + "|".join(alternatives) + ")")


def parse(grammar: Grammar, text: str):
    """Parse one literal of the grammar's value type; "0" is its zero."""
    if text.strip() == "0":
        return grammar.result.zero()
    value = _Parser(grammar, text).parse()
    if not isinstance(value, grammar.result):
        raise ValueError(f"{text!r} is not a {grammar.what} literal")
    return value


class _Parser:
    """Precedence climbing over the token list of one literal."""

    def __init__(self, grammar: Grammar, text: str):
        self.grammar = grammar
        self.text = text
        self.tokens = self._tokenize()
        self.pos = 0

    def _error(self, problem: str) -> ValueError:
        return ValueError(f"{problem} in {self.grammar.what} literal {self.text!r}")

    def _tokenize(self) -> list[tuple[str, object]]:
        grammar, text = self.grammar, self.text
        tokens = []
        pos, end = 0, len(text.rstrip())
        while pos < end:
            match = grammar.token.match(text, pos)
            if match is None:
                raise self._error(f"unexpected character {text[pos:].lstrip()[0]!r}")
            kind = match.lastgroup
            if kind == "op":
                tokens.append((match["op"], None))
            elif kind == "num":
                tokens.append(("num", int(match["num"])))
            else:
                tokens.append(("atom", grammar.builders[kind](match)))
            pos = match.end()
        return tokens

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, object]:
        if self.pos >= len(self.tokens):
            raise self._error("truncated input")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def combine(self, op, *args):
        try:
            return op(*args)
        except TypeError:
            raise self._error("unsupported operation") from None
        except ZeroDivisionError:
            raise self._error("division by zero") from None

    def parse(self):
        value = self.expr(1)
        if self.pos != len(self.tokens):
            raise self._error("trailing input")
        return value

    def expr(self, min_prec: int):
        value = self.unary()
        while True:
            kind = self.peek()
            implicit = self.grammar.juxtapose and kind in _FACTOR_START
            if not implicit and kind not in _BINARY:
                return value
            prec, op = _BINARY["*" if implicit else kind]
            if prec < min_prec:
                return value
            if not implicit:
                self.pos += 1
            value = self.combine(op, value, self.expr(prec + 1))

    def unary(self):
        if self.peek() in ("+", "-"):
            sign = self.take()[0]
            value = self.unary()
            return -value if sign == "-" else value
        value = self.atom()
        if self.peek() == "^":
            self.pos += 1
            value = self.combine(operator.pow, value, self.exponent())
        return value

    def exponent(self) -> int:
        """The integer after ^: digits with an optional minus sign, or digits
        in parentheses with an optional sign ("t^-2", "t^(2)", "t^(-2)")."""
        bracketed = self.peek() == "("
        self.pos += bracketed
        signs = ("+", "-") if bracketed else ("-",)
        sign = self.take()[0] if self.peek() in signs else "+"
        kind, exponent = self.take()
        if kind != "num" or bracketed and self.peek() != ")":
            raise self._error("non-integer exponent")
        self.pos += bracketed
        return -exponent if sign == "-" else exponent

    def atom(self):
        kind, payload = self.take()
        if kind == "num":
            return self.grammar.number(payload)
        if kind == "atom":
            return payload
        if kind == "(":
            value = self.expr(1)
            if self.peek() != ")":
                raise self._error("missing closing parenthesis")
            self.pos += 1
            return value
        raise self._error(f"unexpected {kind!r}")


def join_terms(terms: Iterable[tuple[object, str]], number: Callable[[object], str]) -> str:
    """Print (coefficient, basis) pairs as "a - b + c".  A unit coefficient
    is left out before a basis; an empty basis prints the coefficient;
    number prints the magnitude of a coefficient."""
    pieces = []
    for coeff, basis in terms:
        negative = coeff < 0
        mag = -coeff if negative else coeff
        if not basis:
            body = number(mag)
        else:
            body = basis if mag == 1 else f"{number(mag)}*{basis}"
        if pieces:
            pieces.append(("- " if negative else "+ ") + body)
        else:
            pieces.append(("-" if negative else "") + body)
    return " ".join(pieces) if pieces else "0"

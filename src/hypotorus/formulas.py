"""Exact mini-language for coefficient functions on the circle.

Grammar (total, whitespace-insensitive)::

    expr   :=  term (('+' | '-') term)*
    term   :=  unary (('*' unary) | ('/' ['-'] NUMBER) | atom)*   # juxtaposition multiplies
    unary  :=  ('+' | '-')* atom
    atom   :=  NUMBER | 'i' | 'cos' harg | 'sin' harg | 'exp' '(' earg ')' | '(' expr ')'
    harg   :=  ['('] ['+'|'-'] [INT] 't' [')']
    earg   :=  ['+'|'-'] [INT] 'i' [INT] 't'

Only finite trigonometric sums with rational (or exact-decimal)
coefficients are expressible, so every parse is exact: the result is a
:class:`TrigPolynomial` -- a finitely supported map ``k -> ExactComplex``
representing ``sum_k c_k e^{ikt}`` -- and arithmetic on it (including
products, which convolve) never leaves the rationals.  Division is allowed
only by numeric literals; everything else that could break exactness or
totality is rejected with a position-tagged :class:`FormulaError`.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple, Union

from .errors import ConfigError
from .torusfn import TorusFunction

__all__ = ["ExactComplex", "FormulaError", "TrigPolynomial", "parse_formula",
           "parse_rational", "parse_real"]


class FormulaError(ConfigError):
    """The input is not a sentence of the coefficient mini-language, or not
    the number it should be."""


# --------------------------------------------------------------------------- #
# exact complex rationals
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class ExactComplex:
    """A complex number with Fraction real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    # -- ring operations -------------------------------------------------- #
    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)

    def __truediv__(self, q: Union[int, Fraction]) -> "ExactComplex":
        q = Fraction(q)
        if q == 0:
            raise ZeroDivisionError("division of a formula by zero")
        return ExactComplex(self.re / q, self.im / q)

    def conj(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    # -- views -------------------------------------------------------------#
    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


_EC_ZERO = ExactComplex(Fraction(0))
_EC_ONE = ExactComplex(Fraction(1))
_EC_I = ExactComplex(Fraction(0), Fraction(1))
_EC_HALF = ExactComplex(Fraction(1, 2))


# --------------------------------------------------------------------------- #
# trigonometric polynomials with exact coefficients
# --------------------------------------------------------------------------- #

class TrigPolynomial:
    """A finite sum  sum_k c_k e^{ikt}  with ExactComplex coefficients.

    Exact zeros are dropped on construction, so structure queries
    (``is_constant``, ``freqs``) see genuine cancellations -- parsing
    ``cos t - cos t + 1`` yields the constant 1, not a three-term sum.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, ExactComplex]):
        self._coeffs: Dict[int, ExactComplex] = {
            int(k): v for k, v in sorted(coeffs.items()) if not v.is_zero}

    # -- constructors ------------------------------------------------------#
    @classmethod
    def constant(cls, value: Union[ExactComplex, Fraction, int]) -> "TrigPolynomial":
        v = value if isinstance(value, ExactComplex) else ExactComplex(Fraction(value))
        return cls({0: v})

    @classmethod
    def harmonic(cls, k: int, coeff: ExactComplex = _EC_ONE) -> "TrigPolynomial":
        return cls({int(k): coeff})

    # -- structure ----------------------------------------------------------#
    @property
    def coeffs(self) -> Dict[int, ExactComplex]:
        return dict(self._coeffs)

    def coeff(self, k: int) -> ExactComplex:
        return self._coeffs.get(int(k), _EC_ZERO)

    @property
    def freqs(self) -> Tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    @property
    def mean(self) -> ExactComplex:
        return self.coeff(0)

    @property
    def is_constant(self) -> bool:
        return all(k == 0 for k in self._coeffs)

    @property
    def max_freq(self) -> int:
        return max((abs(k) for k in self._coeffs), default=0)

    @property
    def is_real(self) -> bool:
        """Real-valued on the circle: c_{-k} = conj(c_k) for every k."""
        return all(self.coeff(-k) == v.conj() for k, v in self._coeffs.items())

    # -- ring operations -----------------------------------------------------#
    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            out[k] = out.get(k, _EC_ZERO) + v
        return TrigPolynomial(out)

    def __sub__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        return self + (-other)

    def __neg__(self) -> "TrigPolynomial":
        return TrigPolynomial({k: -v for k, v in self._coeffs.items()})

    def __mul__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        out: Dict[int, ExactComplex] = {}
        for k1, v1 in self._coeffs.items():
            for k2, v2 in other._coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, _EC_ZERO) + v1 * v2
        return TrigPolynomial(out)

    def __truediv__(self, q: Union[int, Fraction]) -> "TrigPolynomial":
        return TrigPolynomial({k: v / q for k, v in self._coeffs.items()})

    # -- realizations --------------------------------------------------------#
    def to_torus_function(self, n: int = 256) -> TorusFunction:
        """Sample exactly onto an n-point grid; the band -n/2 <= k < n/2 must
        hold every frequency."""
        out = [k for k in self._coeffs if not -n // 2 <= k < n // 2]
        if out:
            raise FormulaError(f"frequency {out[0]} outside the band of an {n}-point grid")
        return TorusFunction.from_coeff_dict(self._complex_coeffs(), n)

    def _complex_coeffs(self) -> Dict[int, complex]:
        try:
            return {k: v.to_complex() for k, v in self._coeffs.items()}
        except OverflowError:
            raise FormulaError("a coefficient lies beyond the float range") from None


# --------------------------------------------------------------------------- #
# tokenizer
# --------------------------------------------------------------------------- #

_WORDS = ("cos", "sin", "exp", "i", "t")   # prefix-free, so greedy splits are unique
_NUM_RE = _re.compile(r"\d+\.\d*|\.\d+|\d+")
_LETTERS_RE = _re.compile(r"[A-Za-z]+")


@dataclass(frozen=True)
class _Tok:
    kind: str          # NUM, WORD, OP, END
    value: object
    pos: int


def _tokenize(text: str):
    toks = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*/()":
            toks.append(_Tok("OP", ch, pos))
            pos += 1
            continue
        m = _NUM_RE.match(text, pos)
        if m:
            frac = Fraction(m.group(0))
            toks.append(_Tok("NUM", frac, pos))
            pos = m.end()
            continue
        m = _LETTERS_RE.match(text, pos)
        if m:
            run, start = m.group(0), pos
            i = 0
            while i < len(run):
                for w in _WORDS:
                    if run.startswith(w, i):
                        toks.append(_Tok("WORD", w, start + i))
                        i += len(w)
                        break
                else:
                    raise FormulaError(
                        f"unknown word {run[i:]!r} at position {start + i}")
            pos = m.end()
            continue
        raise FormulaError(f"unexpected character {ch!r} at position {pos}")
    toks.append(_Tok("END", None, n))
    return toks


# --------------------------------------------------------------------------- #
# recursive-descent parser
# --------------------------------------------------------------------------- #

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.idx = 0

    # -- token plumbing -----------------------------------------------------#
    def peek(self) -> _Tok:
        return self.toks[self.idx]

    def next(self) -> _Tok:
        t = self.toks[self.idx]
        self.idx += 1
        return t

    def expect_op(self, op: str, what: str) -> None:
        t = self.peek()
        if t.kind == "OP" and t.value == op:
            self.next()
            return
        raise FormulaError(f"expected {what!r} at position {t.pos}")

    def fail(self, msg: str):
        t = self.peek()
        where = "end of input" if t.kind == "END" else f"position {t.pos}"
        raise FormulaError(f"{msg} at {where}")

    # -- grammar --------------------------------------------------------------#
    def parse(self) -> TrigPolynomial:
        p = self.expr()
        if self.peek().kind != "END":
            self.fail(f"unexpected trailing input {self.peek().value!r}")
        return p

    def expr(self) -> TrigPolynomial:
        p = self.term()
        while self.peek().kind == "OP" and self.peek().value in "+-":
            op = self.next().value
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def _starts_atom(self, t: _Tok) -> bool:
        if t.kind == "NUM":
            return True
        if t.kind == "WORD":
            return t.value in ("i", "cos", "sin", "exp")
        return t.kind == "OP" and t.value == "("

    def term(self) -> TrigPolynomial:
        p = self.unary()
        while True:
            t = self.peek()
            if t.kind == "OP" and t.value == "*":
                self.next()
                p = p * self.unary()
            elif t.kind == "OP" and t.value == "/":
                self.next()
                sign = 1
                if self.peek().kind == "OP" and self.peek().value == "-":
                    self.next()
                    sign = -1
                d = self.peek()
                if d.kind != "NUM":
                    raise FormulaError(
                        "division only by numeric literals "
                        f"(position {d.pos})")
                self.next()
                if d.value == 0:
                    raise FormulaError(f"division by zero at position {d.pos}")
                p = p / (sign * d.value)
            elif self._starts_atom(t):
                p = p * self.atom()          # juxtaposition
            else:
                return p

    def unary(self) -> TrigPolynomial:
        sign = 1
        while self.peek().kind == "OP" and self.peek().value in "+-":
            if self.next().value == "-":
                sign = -sign
        p = self.atom()
        return p if sign > 0 else -p

    def atom(self) -> TrigPolynomial:
        t = self.peek()
        if t.kind == "NUM":
            self.next()
            return TrigPolynomial.constant(Fraction(t.value))
        if t.kind == "WORD":
            if t.value == "i":
                self.next()
                return TrigPolynomial.constant(_EC_I)
            if t.value in ("cos", "sin"):
                self.next()
                k = self.harmonic_arg(t.value)
                if t.value == "cos":
                    return TrigPolynomial({k: _EC_HALF, -k: _EC_HALF})
                half_i = ExactComplex(Fraction(0), Fraction(1, 2))
                return TrigPolynomial({k: -half_i, -k: half_i})
            if t.value == "exp":
                self.next()
                k = self.exp_arg()
                return TrigPolynomial.harmonic(k)
            self.fail(f"unexpected {t.value!r}")
        if t.kind == "OP" and t.value == "(":
            self.next()
            p = self.expr()
            self.expect_op(")", ")")
            return p
        self.fail("expected a value")

    def _int_literal(self, what: str) -> Optional[int]:
        t = self.peek()
        if t.kind != "NUM":
            return None
        if t.value.denominator != 1:
            raise FormulaError(
                f"{what} must be an integer, got {t.value} at position {t.pos}")
        self.next()
        return int(t.value)

    def harmonic_arg(self, word: str) -> int:
        """[ ( ] [+|-] [INT] t [ ) ]  ->  signed frequency."""
        paren = False
        if self.peek().kind == "OP" and self.peek().value == "(":
            self.next()
            paren = True
        sign = 1
        if self.peek().kind == "OP" and self.peek().value in "+-":
            if self.next().value == "-":
                sign = -1
        k = self._int_literal(f"{word} frequency")
        k = 1 if k is None else k
        t = self.peek()
        if not (t.kind == "WORD" and t.value == "t"):
            self.fail(f"expected 't' in the argument of {word}")
        self.next()
        if paren:
            self.expect_op(")", ") closing the argument")
        return sign * k

    def exp_arg(self) -> int:
        """( [+|-] [INT] i [INT] t )  ->  signed frequency of e^{ikt}."""
        self.expect_op("(", "( after exp")
        sign = 1
        if self.peek().kind == "OP" and self.peek().value in "+-":
            if self.next().value == "-":
                sign = -1
        pre = self._int_literal("exp frequency")
        t = self.peek()
        if not (t.kind == "WORD" and t.value == "i"):
            self.fail("exp argument must be an imaginary multiple of t, "
                      "like exp(2it)")
        self.next()
        post = self._int_literal("exp frequency")
        if pre is not None and post is not None:
            raise FormulaError("give the exp frequency once, before or after i")
        k = pre if pre is not None else (post if post is not None else 1)
        t = self.peek()
        if not (t.kind == "WORD" and t.value == "t"):
            self.fail("expected 't' in the argument of exp")
        self.next()
        self.expect_op(")", ") closing the exp argument")
        return sign * k


def parse_formula(text: str) -> TrigPolynomial:
    """Parse a coefficient formula into its exact trigonometric polynomial.

    Examples that parse: ``1/2``, ``0.7``, ``i``, ``2 cos 3t``,
    ``i(1 - cos t)``, ``1/2 + i sin t``, ``exp(-2it)``, ``cos t * cos t``.
    Anything outside the finite-trig-sum language raises
    :class:`FormulaError` naming the offending position.
    """
    if not isinstance(text, str):
        raise FormulaError(f"formula must be a string, got {type(text).__name__}")
    return _Parser(text).parse()


def parse_rational(value) -> Fraction:
    """An int, a float or a string such as "1/2" or "0.5" as an exact
    Fraction; FormulaError when it names no finite rational."""
    try:
        return Fraction(value)
    except (ArithmeticError, TypeError, ValueError):
        raise FormulaError(f"{value!r} is not a rational") from None


def parse_real(text: str) -> Union[Fraction, float]:
    """'p/q' and integer strings as exact Fractions, other numbers as floats;
    FormulaError when ``text`` is no number."""
    try:
        return Fraction(text) if "/" in text else Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return float(text)
    except ValueError:
        raise FormulaError(f"{text!r} is neither a rational p/q nor a number") from None

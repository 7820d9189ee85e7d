"""Parser for the ideal input language.

Grammar (whitespace-insensitive, ``#`` comments to end of line)::

    file     := ringdecl ideadecl [ "matrix" rows ";" ]
    ringdecl := "ring" name ("," name)* "over" integer ";"
    ideadecl := "ideal" poly ("," poly)* ";"
    poly     := signed sum of terms
    term     := coefficient? monomial?
    monomial := name("^"int)? ("*" name("^"int)?)*
    rows     := "[" poly ("," poly)* "]" ("," rows)*

The integer after ``over`` is the characteristic (0 for Q).  When a
matrix block is present, the ideal is defined by the maximal minors of
the matrix and the ideadecl must be the single placeholder ``ideal 0;``.
A ``*`` between coefficient and monomial is accepted.
"""

from __future__ import annotations

import re
from itertools import combinations

from .fields import FieldSpec, FieldError
from .polyring import MAX_EXPONENT, Polynomial, Ring, RingError


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.message = message
        self.line = line
        self.col = col


_TOKEN = re.compile(r"""
      (?P<ws>\s+)
    | (?P<comment>\#[^\n]*)
    | (?P<int>\d+)
    | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<sym>[-+*^,;\[\]])
""", re.VERBOSE)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, tok, line, col))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.override = None

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, text: str | None = None) -> _Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            got = t.text or "end of input"
            self.fail(f"expected {want!r}, found {got!r}")
        return self.next()

    # -- grammar ---------------------------------------------------------
    def file(self):
        ring = self.ringdecl()
        gens = self.ideadecl(ring)
        matrix = None
        if self.peek().kind == "name" and self.peek().text == "matrix":
            self.next()
            matrix = self.rows(ring)
            self.expect("sym", ";")
        if self.peek().kind != "eof":
            self.fail(f"trailing input {self.peek().text!r}")
        if matrix is not None:
            if len(gens) != 1 or not gens[0].is_zero():
                self.fail("matrix files must declare the placeholder 'ideal 0;'",
                          self.tokens[0])
            gens = maximal_minors(matrix, ring)
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            self.fail("empty generator list", self.tokens[0])
        return ring, gens

    def ringdecl(self) -> Ring:
        kw = self.expect("name")
        if kw.text != "ring":
            self.fail("expected 'ring'", kw)
        names = [self.expect("name").text]
        while self.peek().text == ",":
            self.next()
            names.append(self.expect("name").text)
        over = self.expect("name")
        if over.text != "over":
            self.fail("expected 'over'", over)
        char_tok = self.expect("int")
        self.expect("sym", ";")
        char = int(char_tok.text) if self.override is None else self.override
        try:
            field = FieldSpec(char)
        except FieldError as exc:
            self.fail(str(exc), char_tok)
        try:
            return Ring(field, names)
        except RingError as exc:
            self.fail(str(exc), kw)

    def ideadecl(self, ring: Ring):
        kw = self.expect("name")
        if kw.text != "ideal":
            self.fail("expected 'ideal'", kw)
        gens = [self.poly(ring)]
        while self.peek().text == ",":
            self.next()
            gens.append(self.poly(ring))
        self.expect("sym", ";")
        return gens

    def rows(self, ring: Ring):
        rows = [self.row(ring)]
        while self.peek().text == ",":
            self.next()
            rows.append(self.row(ring))
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            self.fail("ragged matrix rows", self.tokens[0])
        return rows

    def row(self, ring: Ring):
        self.expect("sym", "[")
        entries = [self.poly(ring)]
        while self.peek().text == ",":
            self.next()
            entries.append(self.poly(ring))
        self.expect("sym", "]")
        return entries

    def poly(self, ring: Ring) -> Polynomial:
        result = ring.zero()
        sign = 1
        t = self.peek()
        if t.text in ("+", "-"):
            self.next()
            sign = -1 if t.text == "-" else 1
        result = result + self.term(ring, sign)
        while self.peek().text in ("+", "-"):
            sign = -1 if self.next().text == "-" else 1
            result = result + self.term(ring, sign)
        return result

    def term(self, ring: Ring, sign: int) -> Polynomial:
        t = self.peek()
        coeff = None
        if t.kind == "int":
            self.next()
            coeff = int(t.text)
            if self.peek().text == "*" and self.tokens[self.pos + 1].kind == "name":
                self.next()
        mono = None
        if self.peek().kind == "name":
            mono = self.monomial(ring)
        if coeff is None and mono is None:
            self.fail("expected a term")
        c = ring.field.raw(sign * (1 if coeff is None else coeff))
        if mono is None:
            return ring.constant(c)
        return ring.monomial(mono, c)

    def monomial(self, ring: Ring):
        expo = [0] * ring.nvars
        while True:
            t = self.expect("name")
            try:
                i = ring.index(t.text)
            except RingError:
                self.fail(f"unknown variable {t.text!r}", t)
            e = 1
            if self.peek().text == "^":
                self.next()
                e_tok = self.peek()
                if e_tok.kind != "int":
                    self.fail("non-integer exponent", e_tok)
                self.next()
                e = int(e_tok.text)
                if e > MAX_EXPONENT:
                    self.fail(f"exponent {e} too large", e_tok)
            expo[i] += e
            if self.peek().text == "*" and self.tokens[self.pos + 1].kind == "name":
                self.next()
                continue
            break
        return tuple(expo)


def minors(matrix, size: int, ring: Ring):
    """Nonzero size x size minors of a rows x cols polynomial matrix, row
    selections outermost, each in lexicographic order."""
    rows, cols = len(matrix), len(matrix[0])
    gens = (determinant([[matrix[i][j] for j in csel] for i in rsel], ring)
            for rsel in combinations(range(rows), size)
            for csel in combinations(range(cols), size))
    return [g for g in gens if not g.is_zero()]


def maximal_minors(matrix, ring: Ring):
    """Generators of the ideal of maximal minors of a polynomial matrix."""
    return minors(matrix, min(len(matrix), len(matrix[0])), ring)


def determinant(matrix, ring: Ring) -> Polynomial:
    """Cofactor expansion along the sparsest column."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    nz = [sum(1 for i in range(n) if matrix[i][j]) for j in range(n)]
    j = nz.index(min(nz))
    total = ring.zero()
    for i in range(n):
        if not matrix[i][j]:
            continue
        minor = [[matrix[r][c] for c in range(n) if c != j]
                 for r in range(n) if r != i]
        cof = determinant(minor, ring)
        term = matrix[i][j] * cof
        total = total + (term if (i + j) % 2 == 0 else -term)
    return total


def parse_ideal_file(text: str, characteristic_override: int | None = None):
    """Parse the input language; returns (Ring, [Polynomial]).

    ``characteristic_override`` re-reads the file over another ground
    field (signs and integer coefficients are reinterpreted there).
    """
    parser = _Parser(text)
    if characteristic_override is not None:
        parser.override = characteristic_override
    return parser.file()

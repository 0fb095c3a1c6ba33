"""Formula language over a regular sequence: parsing and normalization.

Grammar (infix, whitespace-insensitive)::

    formula  := "E" VAR "in" "R" "." formula        existential over R
              | "E" VAR "<=" NUM "." formula        bounded integer existential
              | "A" VAR "in" "R" "." formula        universal (sugar for !E!)
              | or
    or       := and ("|" and)*
    and      := not ("&" not)*
    not      := "!" not | atom
    atom     := "(" formula ")"
              | "D" NUM "(" term ")"                divisibility D3(t)
              | "Sigma" "{" body "}" "(" terms ")"  image-set membership
              | term "in" "R"
              | term ("=" | "!=" | ">") term
    body     := ["C" "=" "[" datom ("," datom)* "]" ","]
                "D" "=" "[" "(" term ")" ("," "(" term ")")* "]"
    term     := prod (("+" | "-") prod)*
    prod     := NUM "*" factor | factor | NUM | "-" prod
    factor   := VAR | "f" "[" NUM ("," NUM)* "]" "(" term ")"
              | "S" "(" term ")" | "(" term ")"

S and operators f[...] apply only to R-sorted arguments (variables or nested
S-chains); iterated S folds into operator offsets during normalization, so a
normalized atom mentions each variable through a single merged operator.

normalize() produces negation normal form over three kinds of signed
literal, each negated by flipping its sign: a range t in [0, c] (t = 0 is
[0, 0], t != 0 its negation), Dm(t), and t in R.  The order abbreviation
t > c means t != 0 & ... & t != c, that is t not in [0, c] (so it is not an
order on negative t): the negated range, whose own negation is the range.
!Dm(t) is one literal for any m, not the disjunction of the divisibility
remark.
"""

import bisect
import itertools

from .jsonio import _read_int

MAX_FORMULA_SIZE = 65536
# Nesting levels (quantifiers, parentheses, operator arguments, '!' and unary
# '-'); deeper input is rejected before it can exhaust the interpreter stack.
MAX_NESTING = 64
# Default search budget of decide (decide.DECIDE_BUDGET is this constant) and
# of eval_ground.
DECIDE_BUDGET = 64


class FormulaSyntaxError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class SortError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_SYMBOLS = ("!=", "<=", "+", "-", "*", "=", ">", "(", ")", "[", "]",
            "{", "}", ",", ".", "&", "|", "!")


def _lex_int(digits, field, pos):
    """The digits of a number or a D<m> modulus, read by the one strict
    integer reader (so digits of other scripts are refused)."""
    try:
        return _read_int(digits, field)
    except ValueError as exc:
        raise FormulaSyntaxError(str(exc), pos) from None


def _lex(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("NUM", _lex_int(text[i:j], "number", i), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            # D<m> is a divisibility head when the digits are glued on
            if word[0] == "D" and len(word) > 1 and word[1:].isdigit():
                tokens.append(("DIV", _lex_int(word[1:], "modulus", i), i))
            else:
                tokens.append(("NAME", word, i))
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append((sym, sym, i))
                i += len(sym)
                break
        else:
            raise FormulaSyntaxError("unexpected character %r" % ch, i)
    tokens.append(("EOF", None, n))
    return tokens


# ---------------------------------------------------------------------------
# Raw AST
# ---------------------------------------------------------------------------

class TConst:
    def __init__(self, value):
        self.value = int(value)


class TVar:
    def __init__(self, name):
        self.name = name


class TOp:
    def __init__(self, coeffs, arg):
        self.coeffs = tuple(int(c) for c in coeffs)
        if not self.coeffs or self.coeffs[-1] == 0:
            raise SortError("operator needs a nonzero leading coefficient")
        self.arg = arg


class TSucc:
    def __init__(self, arg):
        self.arg = arg


class TNeg:
    def __init__(self, arg):
        self.arg = arg


class TAdd:
    def __init__(self, left, right):
        self.left, self.right = left, right


class TSub:
    def __init__(self, left, right):
        self.left, self.right = left, right


class TScale:
    def __init__(self, factor, arg):
        self.factor, self.arg = int(factor), arg


class Eq:
    def __init__(self, left, right):
        self.left, self.right = left, right


class Neq:
    def __init__(self, left, right):
        self.left, self.right = left, right


class Gt:
    def __init__(self, left, right):
        self.left, self.right = left, right


class DivAtom:
    def __init__(self, m, term):
        if m < 2:
            raise FormulaSyntaxError("divisibility modulus must be >= 2", 0)
        self.m, self.term = int(m), term


class InR:
    def __init__(self, term):
        self.term = term


class SigmaAtom:
    """Membership in the image set: args in Sigma_{C,D} iff there are
    y-variables in R satisfying the C divisibilities with row_i(y) = arg_i."""

    def __init__(self, cdivs, rows, args):
        self.cdivs = list(cdivs)   # (m, raw term) pairs over the row variables
        self.rows = list(rows)
        self.args = list(args)
        if len(self.rows) != len(self.args):
            raise SortError("Sigma arity mismatch: %d rows, %d arguments"
                            % (len(self.rows), len(self.args)))


class And:
    def __init__(self, items):
        self.items = list(items)


class Or:
    def __init__(self, items):
        self.items = list(items)


class Not:
    def __init__(self, body):
        self.body = body


class ExistsInR:
    def __init__(self, var, body):
        self.var, self.body = var, body


class ExistsBounded:
    def __init__(self, var, bound, body):
        self.var, self.bound, self.body = var, int(bound), body


class ForallInR:
    def __init__(self, var, body):
        self.var, self.body = var, body


TRUE = And([])
FALSE = Or([])


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.next()
        if tok[0] != kind:
            raise FormulaSyntaxError("expected %s, found %r" % (what or kind, tok[1]),
                                     tok[2])
        return tok

    def at_name(self, word):
        tok = self.peek()
        return tok[0] == "NAME" and tok[1] == word

    def nested(self, parse):
        """parse() one nesting level deeper; every recursion in the grammar
        goes through here."""
        if self.depth >= MAX_NESTING:
            raise FormulaSyntaxError(
                "formula nested deeper than %d levels" % MAX_NESTING, self.peek()[2])
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    # formulas ------------------------------------------------------------

    def formula(self):
        if self.at_name("E") or self.at_name("A"):
            quant = self.next()[1]
            var = self.expect("NAME", "variable")[1]
            tok = self.peek()
            if tok[0] == "NAME" and tok[1] == "in":
                self.next()
                rtok = self.expect("NAME", "R")
                if rtok[1] != "R":
                    raise FormulaSyntaxError("expected R", rtok[2])
                self.expect(".", "'.'")
                body = self.nested(self.formula)
                return ExistsInR(var, body) if quant == "E" else ForallInR(var, body)
            if tok[0] == "<=":
                if quant == "A":
                    raise FormulaSyntaxError("bounded quantifier must be existential",
                                             tok[2])
                self.next()
                bound = self.expect("NUM", "bound")[1]
                self.expect(".", "'.'")
                return ExistsBounded(var, bound, self.nested(self.formula))
            raise FormulaSyntaxError("expected 'in R' or '<='", tok[2])
        return self.disjunction()

    def disjunction(self):
        items = [self.conjunction()]
        while self.peek()[0] == "|":
            self.next()
            items.append(self.conjunction())
        return items[0] if len(items) == 1 else Or(items)

    def conjunction(self):
        items = [self.negation()]
        while self.peek()[0] == "&":
            self.next()
            items.append(self.negation())
        return items[0] if len(items) == 1 else And(items)

    def negation(self):
        if self.peek()[0] == "!":
            self.next()
            return Not(self.nested(self.negation))
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok[0] == "DIV":
            self.next()
            self.expect("(", "'('")
            term = self.term()
            self.expect(")", "')'")
            return DivAtom(tok[1], term)
        if tok[0] == "NAME" and tok[1] == "Sigma":
            return self.sigma()
        if tok[0] == "(":
            # parenthesized formula or parenthesized term: disambiguate by
            # what follows the matching close paren
            save = self.i
            self.next()
            try:
                inner = self.nested(self.formula)
                self.expect(")", "')'")
                if self.peek()[0] in ("=", "!=", ">") or self.at_name("in"):
                    raise FormulaSyntaxError("term context", tok[2])
                return inner
            except FormulaSyntaxError:
                self.i = save
        term = self.term()
        tok = self.peek()
        if tok[0] == "=":
            self.next()
            return Eq(term, self.term())
        if tok[0] == "!=":
            self.next()
            return Neq(term, self.term())
        if tok[0] == ">":
            self.next()
            return Gt(term, self.term())
        if tok[0] == "NAME" and tok[1] == "in":
            self.next()
            rtok = self.expect("NAME", "R")
            if rtok[1] != "R":
                raise FormulaSyntaxError("expected R", rtok[2])
            return InR(term)
        raise FormulaSyntaxError("expected a relation after term", tok[2])

    def sigma(self):
        self.next()  # Sigma
        self.expect("{", "'{'")
        cdivs = []
        rows = []
        while True:
            head = self.expect("NAME", "C or D block")
            if head[1] == "C":
                self.expect("=", "'='")
                self.expect("[", "'['")
                while True:
                    dtok = self.expect("DIV", "divisibility atom")
                    self.expect("(", "'('")
                    t = self.term()
                    self.expect(")", "')'")
                    cdivs.append((dtok[1], t))
                    if self.peek()[0] == ",":
                        self.next()
                        continue
                    break
                self.expect("]", "']'")
            elif head[1] == "D":
                self.expect("=", "'='")
                self.expect("[", "'['")
                while True:
                    self.expect("(", "'('")
                    rows.append(self.term())
                    self.expect(")", "')'")
                    if self.peek()[0] == ",":
                        self.next()
                        continue
                    break
                self.expect("]", "']'")
            else:
                raise FormulaSyntaxError("expected C= or D= in Sigma", head[2])
            if self.peek()[0] == ",":
                self.next()
                continue
            break
        self.expect("}", "'}'")
        self.expect("(", "'('")
        args = [self.term()]
        while self.peek()[0] == ",":
            self.next()
            args.append(self.term())
        self.expect(")", "')'")
        if not rows:
            raise FormulaSyntaxError("Sigma needs a D block", self.peek()[2])
        return SigmaAtom(cdivs, rows, args)

    # terms ---------------------------------------------------------------

    def term(self):
        t = self.product()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.product()
            t = TAdd(t, rhs) if op == "+" else TSub(t, rhs)
        return t

    def product(self):
        tok = self.peek()
        if tok[0] == "-":
            self.next()
            return TNeg(self.nested(self.product))
        if tok[0] == "NUM":
            self.next()
            if self.peek()[0] == "*":
                self.next()
                return TScale(tok[1], self.factor())
            return TConst(tok[1])
        return self.factor()

    def factor(self):
        tok = self.peek()
        if tok[0] == "NAME" and tok[1] == "f":
            self.next()
            self.expect("[", "'['")
            coeffs = [self.signed_int()]
            while self.peek()[0] == ",":
                self.next()
                coeffs.append(self.signed_int())
            self.expect("]", "']'")
            self.expect("(", "'('")
            arg = self.nested(self.term)
            self.expect(")", "')'")
            return TOp(coeffs, arg)
        if tok[0] == "NAME" and tok[1] == "S":
            self.next()
            self.expect("(", "'('")
            arg = self.nested(self.term)
            self.expect(")", "')'")
            return TSucc(arg)
        if tok[0] == "NAME":
            self.next()
            return TVar(tok[1])
        if tok[0] == "NUM":
            self.next()
            return TConst(tok[1])
        if tok[0] == "(":
            self.next()
            t = self.nested(self.term)
            self.expect(")", "')'")
            return t
        raise FormulaSyntaxError("expected a term", tok[2])

    def signed_int(self):
        sign = 1
        while self.peek()[0] in ("-", "+"):
            if self.next()[0] == "-":
                sign = -sign
        return sign * self.expect("NUM", "integer")[1]


def parse(text):
    if len(text) > MAX_FORMULA_SIZE:
        raise FormulaSyntaxError("input exceeds configured size", MAX_FORMULA_SIZE)
    parser = _Parser(_lex(text))
    out = parser.formula()
    parser.expect("EOF", "end of input")
    return out


# ---------------------------------------------------------------------------
# Linear terms: const + sum of merged operators applied to variables
# ---------------------------------------------------------------------------

class LinTerm:
    """const + sum over variables of (merged operator coefficients applied
    at the variable's index).  Identity is the operator (1,); S^k folds to a
    k-shifted identity; repeated mentions of one variable merge."""

    def __init__(self, const=0, ops=None):
        self.const = int(const)
        self.ops = {}
        for var, coeffs in (ops or {}).items():
            cs = _trim(coeffs)
            if cs:
                self.ops[var] = cs

    def variables(self):
        return sorted(self.ops)

    def is_ground(self):
        return not self.ops

    def add(self, other):
        ops = dict(self.ops)
        for var, cs in other.ops.items():
            ops[var] = _padded_add(ops.get(var, ()), cs)
        return LinTerm(self.const + other.const, ops)

    def scale(self, k):
        return LinTerm(self.const * k,
                       {v: tuple(c * k for c in cs) for v, cs in self.ops.items()})

    def plus_const(self, k):
        # the operators are trimmed already, and no LinTerm changes its ops
        # after construction, so the result shares them
        out = LinTerm(self.const + k)
        out.ops = self.ops
        return out

    def evaluate(self, handle, assignment):
        total = self.const
        for var, cs in self.ops.items():
            n = assignment[var]
            total += sum(c * handle.eval(n + i) for i, c in enumerate(cs) if c)
        return total

    def substitute_int(self, var, value):
        """Substitute an integer-sorted variable: only an identity mention is
        well-sorted (operators and S require R-sorted arguments)."""
        if var not in self.ops:
            return self
        cs = self.ops[var]
        if len(cs) != 1:
            raise SortError("operator applied to the integer variable %r" % var)
        ops = {v: c for v, c in self.ops.items() if v != var}
        return LinTerm(self.const + cs[0] * value, ops)

    def render(self):
        parts = []
        for var in sorted(self.ops):
            cs = self.ops[var]
            if cs == (1,):
                parts.append(var)
            else:
                parts.append("f[%s](%s)" % (",".join(str(c) for c in cs), var))
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def _trim(cs):
    cs = tuple(int(c) for c in cs)
    while cs and cs[-1] == 0:
        cs = cs[:-1]
    return cs


def _padded_add(a, b):
    n = max(len(a), len(b))
    return _trim(tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                       for i in range(n)))


def term_to_linear(term):
    """Flatten a raw term tree to a LinTerm, enforcing sort discipline."""
    if isinstance(term, TConst):
        return LinTerm(term.value)
    if isinstance(term, TVar):
        return LinTerm(0, {term.name: (1,)})
    if isinstance(term, TNeg):
        return term_to_linear(term.arg).scale(-1)
    if isinstance(term, TScale):
        return term_to_linear(term.arg).scale(term.factor)
    if isinstance(term, TAdd):
        return term_to_linear(term.left).add(term_to_linear(term.right))
    if isinstance(term, TSub):
        return term_to_linear(term.left).add(term_to_linear(term.right).scale(-1))
    if isinstance(term, TSucc):
        var, offset = _succ_target(term)
        return LinTerm(0, {var: (0,) * offset + (1,)})
    if isinstance(term, TOp):
        var, offset = _succ_target(term.arg)
        return LinTerm(0, {var: (0,) * offset + term.coeffs})
    raise SortError("unrecognized term node %r" % (term,))


def _succ_target(term):
    """The (variable, S-iteration count) under a chain of S applications."""
    offset = 0
    while isinstance(term, TSucc):
        offset += 1
        term = term.arg
    if isinstance(term, TVar):
        return term.name, offset
    raise SortError("S and operators apply only to R-sorted variables")


# ---------------------------------------------------------------------------
# Normalized atoms
# ---------------------------------------------------------------------------

class Literal:
    """A signed predicate on one linear term.  signed(lin, positive) is the
    same predicate on lin with that sign, so negate() only flips the sign;
    holds(value, handle) reads the literal at the term's value."""

    def negate(self):
        return self.signed(self.lin, not self.positive)


class RangeZ(Literal):
    """t in [0, c] for a constant c >= 0.  t = 0 is the range [0, 0] and
    t != 0 its negation; t > c abbreviates t != 0 & ... & t != c, the
    negated range (so it is not an order on negative t)."""

    def __init__(self, lin, c=0, positive=True):
        self.lin = lin
        self.c = c
        self.positive = positive

    def signed(self, lin, positive):
        return RangeZ(lin, self.c, positive)

    def holds(self, value, handle):
        return (0 <= value <= self.c) == self.positive

    def render(self):
        if self.c == 0:
            return "%s %s 0" % (self.lin.render(), "=" if self.positive else "!=")
        text = "%s > %d" % (self.lin.render(), self.c)
        return "!(%s)" % text if self.positive else text


class DivZ(Literal):
    def __init__(self, m, lin, positive=True):
        self.m, self.lin = int(m), lin
        self.positive = positive

    def signed(self, lin, positive):
        return DivZ(self.m, lin, positive)

    def holds(self, value, handle):
        return (value % self.m == 0) == self.positive

    def render(self):
        return "%sD%d(%s)" % ("" if self.positive else "!", self.m, self.lin.render())


class InRZ(Literal):
    def __init__(self, lin, positive=True):
        self.lin = lin
        self.positive = positive

    def signed(self, lin, positive):
        return InRZ(lin, positive)

    def holds(self, value, handle):
        return _in_r(handle, value) == self.positive

    def render(self):
        return "%s %sin R" % (self.lin.render(), "" if self.positive else "not ")


class SigmaZ:
    def __init__(self, cdivs, rows, args, positive=True):
        self.cdivs = cdivs  # list of (m, LinTerm over row variables)
        self.rows = rows    # list of LinTerm over row variables
        self.args = args    # list of LinTerm over outer variables
        self.positive = positive

    def negate(self):
        return SigmaZ(self.cdivs, self.rows, self.args, not self.positive)

    def row_variables(self):
        out = set()
        for _, t in self.cdivs:
            out.update(t.ops)
        for t in self.rows:
            out.update(t.ops)
        return sorted(out)

    def render(self):
        inner = []
        if self.cdivs:
            inner.append("C=[%s]" % ",".join("D%d(%s)" % (m, t.render())
                                             for m, t in self.cdivs))
        inner.append("D=[%s]" % ",".join("(%s)" % t.render() for t in self.rows))
        head = "Sigma{%s}(%s)" % (",".join(inner),
                                  ",".join(a.render() for a in self.args))
        return head if self.positive else "!" + head


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def normalize(ast):
    """Desugar + negation normal form.

    Input may be raw (from parse) or already normalized; the result uses
    RangeZ/DivZ/InRZ/SigmaZ atoms under And/Or and quantifier nodes, with
    negation eliminated (pushed into atoms as their sign, double negation
    dropped, universals rewritten through their existential duals).  t > c
    with c < 0 is TRUE; any other t > c is one negated RangeZ.  Connectives
    are flat: no And directly under an And, no Or under an Or, and none with
    a single item."""
    return _nnf(ast, False)


def _connective(kind, items):
    """kind(items) with same-kind children spliced in; a single item comes
    back bare, and an empty connective (TRUE or FALSE) stays as it is."""
    flat = []
    for x in items:
        if isinstance(x, kind):
            flat.extend(x.items)
        else:
            flat.append(x)
    return flat[0] if len(flat) == 1 else kind(flat)


def _nnf(node, negate):
    if isinstance(node, (And, Or)):
        kind = type(node)
        if negate:
            kind = Or if kind is And else And
        return _connective(kind, [_nnf(x, negate) for x in node.items])
    if isinstance(node, Not):
        return _nnf(node.body, not negate)
    if isinstance(node, (ExistsInR, ExistsBounded)):
        body = _nnf(node.body, False)
        node = ExistsInR(node.var, body) if isinstance(node, ExistsInR) \
            else ExistsBounded(node.var, node.bound, body)
        return NotExists(node) if negate else node
    if isinstance(node, ForallInR):
        # A x in R. phi == ! E x in R. ! phi
        return _nnf(Not(ExistsInR(node.var, Not(node.body))), negate)
    atom = _desugar_atom(node)
    if isinstance(atom, (And, Or)):
        # t > c with c < 0 desugars to TRUE; push the pending negation
        # through it
        return _nnf(atom, negate)
    return atom.negate() if negate else atom


class NotExists:
    """A negated existential kept opaque; decide() handles the top-level
    case (the universal dual) and rejects deeper occurrences."""

    def __init__(self, body):
        self.body = body

    def negate(self):
        return self.body


def _desugar_atom(node):
    if isinstance(node, (Eq, Neq)):
        return RangeZ(term_to_linear(node.left).add(term_to_linear(node.right).scale(-1)),
                      0, isinstance(node, Eq))
    if isinstance(node, Gt):
        # the order abbreviation: t > c is t != 0 & ... & t != c
        rhs = term_to_linear(node.right)
        if not rhs.is_ground():
            raise SortError("order comparisons need a constant right side")
        return RangeZ(term_to_linear(node.left), rhs.const, False) \
            if rhs.const >= 0 else TRUE
    if isinstance(node, DivAtom):
        return DivZ(node.m, term_to_linear(node.term))
    if isinstance(node, InR):
        return InRZ(term_to_linear(node.term))
    if isinstance(node, SigmaAtom):
        return SigmaZ([(m, term_to_linear(t)) for m, t in node.cdivs],
                      [term_to_linear(t) for t in node.rows],
                      [term_to_linear(t) for t in node.args])
    if isinstance(node, (Literal, SigmaZ, NotExists)):
        return node
    raise SortError("unrecognized formula node %r" % (node,))


# ---------------------------------------------------------------------------
# Ground evaluation
# ---------------------------------------------------------------------------

def eval_ground(node, handle, assignment=None, budget=DECIDE_BUDGET):
    """Direct big-integer evaluation of a (normalized or raw) formula under
    an index assignment for its R-variables.

    Quantifiers and Sigma atoms are evaluated by bounded search up to
    ``budget`` indices: sound for True on existentials, and exact for the
    quantifier-free fragment the property tests exercise."""
    assignment = dict(assignment or {})
    return _eval(normalize(node), handle, assignment, budget)


def _eval(node, handle, assignment, budget):
    if isinstance(node, And):
        return all(_eval(x, handle, assignment, budget) for x in node.items)
    if isinstance(node, Or):
        return any(_eval(x, handle, assignment, budget) for x in node.items)
    if isinstance(node, Literal):
        return node.holds(node.lin.evaluate(handle, assignment), handle)
    if isinstance(node, SigmaZ):
        hit = _sigma_search(node, handle, assignment, budget) is not None
        return hit == node.positive
    if isinstance(node, ExistsInR):
        for n in range(budget + 1):
            assignment[node.var] = n
            if _eval(node.body, handle, assignment, budget):
                del assignment[node.var]
                return True
        assignment.pop(node.var, None)
        return False
    if isinstance(node, ExistsBounded):
        for v in range(node.bound + 1):
            sub = _substitute(node.body, node.var, v)
            if _eval(sub, handle, assignment, budget):
                return True
        return False
    if isinstance(node, NotExists):
        return not _eval(node.body, handle, assignment, budget)
    raise SortError("cannot evaluate node %r" % (node,))


def _substitute(node, var, value):
    if isinstance(node, (And, Or)):
        return type(node)([_substitute(x, var, value) for x in node.items])
    if isinstance(node, Literal):
        return node.signed(node.lin.substitute_int(var, value), node.positive)
    if isinstance(node, SigmaZ):
        return SigmaZ(node.cdivs, node.rows,
                      [a.substitute_int(var, value) for a in node.args],
                      node.positive)
    if isinstance(node, ExistsInR):
        return ExistsInR(node.var, _substitute(node.body, var, value))
    if isinstance(node, ExistsBounded):
        return ExistsBounded(node.var, node.bound, _substitute(node.body, var, value))
    if isinstance(node, NotExists):
        return NotExists(_substitute(node.body, var, value))
    raise SortError("cannot substitute into %r" % (node,))


def _in_r(handle, value):
    """Whether value is a term of the sequence.  The cache is extended one
    term at a time until its last term is at least the value, which
    evaluates the terms a walk from index 0 would, in the same order (so
    the same error is raised), and then bisected."""
    if value < handle.eval(0):
        return False
    cache = handle.cache
    while cache[-1] < value:
        handle.eval(len(cache))
    return cache[bisect.bisect_left(cache, value)] == value


def _sigma_search(sigma, handle, assignment, budget):
    """Bounded witness search for a Sigma atom under a ground assignment."""
    targets = [a.evaluate(handle, assignment) for a in sigma.args]
    yvars = sigma.row_variables()
    for combo in itertools.product(range(budget + 1), repeat=len(yvars)):
        env = dict(zip(yvars, combo))
        if any(t.evaluate(handle, env) % m != 0 for m, t in sigma.cdivs):
            continue
        if all(row.evaluate(handle, env) == targets[i]
               for i, row in enumerate(sigma.rows)):
            return env
    return None


def free_variables(node):
    """Free R/integer variables of a normalized formula."""
    out = set()

    def walk(n, bound):
        if isinstance(n, (And, Or)):
            for x in n.items:
                walk(x, bound)
        elif isinstance(n, Literal):
            out.update(v for v in n.lin.ops if v not in bound)
        elif isinstance(n, SigmaZ):
            row_bound = bound | set(n.row_variables())
            for _, t in n.cdivs:
                out.update(v for v in t.ops if v not in row_bound)
            for t in n.rows:
                out.update(v for v in t.ops if v not in row_bound)
            for a in n.args:
                out.update(v for v in a.ops if v not in bound)
        elif isinstance(n, (ExistsInR, ExistsBounded)):
            walk(n.body, bound | {n.var})
        elif isinstance(n, NotExists):
            walk(n.body, bound)
        else:
            raise SortError("unrecognized node %r" % (n,))

    walk(node, set())
    return sorted(out)

"""Parser, normal form, and ground evaluation of the decision language.

The soundness property pits eval_ground (which normalizes first) against a
reference evaluator defined right here on the raw parse tree, over the
integer-sorted bounded fragment where both semantics are total.  Comparison
atoms in random formulas keep a bare variable on the left because the
greater-than expansion presumes a value that is never negative, which bounded
integer variables guarantee.
"""

import random

import pytest

from regseq import formulas as F
from regseq.sequences import SequenceSpec, make_handle

POW2 = make_handle(SequenceSpec.power(2))
FIB = make_handle(SequenceSpec.recurrence([1, 1], [1, 2]))


# ---------------------------------------------------------------------------
# Reference semantics on the raw AST (integer-sorted bounded fragment)
# ---------------------------------------------------------------------------

def raw_term(node, env):
    if isinstance(node, F.TConst):
        return node.value
    if isinstance(node, F.TVar):
        return env[node.name]
    if isinstance(node, F.TNeg):
        return -raw_term(node.arg, env)
    if isinstance(node, F.TAdd):
        return raw_term(node.left, env) + raw_term(node.right, env)
    if isinstance(node, F.TSub):
        return raw_term(node.left, env) - raw_term(node.right, env)
    if isinstance(node, F.TScale):
        return node.factor * raw_term(node.arg, env)
    raise AssertionError("term kind outside the reference fragment")


def raw_eval(node, handle, env):
    if isinstance(node, F.And):
        return all(raw_eval(x, handle, env) for x in node.items)
    if isinstance(node, F.Or):
        return any(raw_eval(x, handle, env) for x in node.items)
    if isinstance(node, F.Not):
        return not raw_eval(node.body, handle, env)
    if isinstance(node, F.Eq):
        return raw_term(node.left, env) == raw_term(node.right, env)
    if isinstance(node, F.Neq):
        return raw_term(node.left, env) != raw_term(node.right, env)
    if isinstance(node, F.Gt):
        return raw_term(node.left, env) > raw_term(node.right, env)
    if isinstance(node, F.DivAtom):
        return raw_term(node.term, env) % node.m == 0
    if isinstance(node, F.InR):
        value = raw_term(node.term, env)
        n = 0
        while handle.eval(n) < value:
            n += 1
        return handle.eval(n) == value
    if isinstance(node, F.ExistsBounded):
        return any(raw_eval(node.body, handle, dict(env, **{node.var: v}))
                   for v in range(node.bound + 1))
    raise AssertionError("node kind outside the reference fragment")


# ---------------------------------------------------------------------------
# Canonical shape of normalized formulas (swaps repr for deep comparison)
# ---------------------------------------------------------------------------

def canon(node):
    if isinstance(node, F.And):
        return ("and",) + tuple(canon(x) for x in node.items)
    if isinstance(node, F.Or):
        return ("or",) + tuple(canon(x) for x in node.items)
    if isinstance(node, F.NotExists):
        return ("notexists", canon(node.body))
    if isinstance(node, F.ExistsInR):
        return ("existsR", node.var, canon(node.body))
    if isinstance(node, F.ExistsBounded):
        return ("existsB", node.var, node.bound, canon(node.body))
    return node.render()


# ---------------------------------------------------------------------------
# Parsing and sorts
# ---------------------------------------------------------------------------

def test_parse_quantifiers_and_atoms():
    ast = F.parse("E x in R. D3(x + 2) & x > 1")
    assert isinstance(ast, F.ExistsInR)
    ast = F.parse("E k <= 9. k = 4")
    assert isinstance(ast, F.ExistsBounded) and ast.bound == 9
    ast = F.parse("A x in R. x > 0")
    assert isinstance(ast, F.ForallInR)


def test_connective_precedence():
    # ! binds tighter than &, and & tighter than |
    text = "E k <= 3. !k = 1 & k = 2 | k = 3"
    assert F.eval_ground(F.parse(text), POW2)
    narrowed = "E k <= 2. !k = 1 & k = 2 | k = 3"
    assert F.eval_ground(F.parse(narrowed), POW2)
    none = "E k <= 1. !k = 1 & k = 2 | k = 3"
    assert not F.eval_ground(F.parse(none), POW2)


def test_sort_errors():
    # shifting an integer-sorted variable is caught when the bounded
    # quantifier substitutes a value into the shifted occurrence
    with pytest.raises(F.SortError):
        F.eval_ground(F.parse("E k <= 5. S(k) = 2"), POW2)
    with pytest.raises(F.SortError):
        F.normalize(F.parse("E x in R. f[1,1](3) = 2"))
    # scaling and shifting an R variable is fine
    F.normalize(F.parse("E x in R. 2*S(x) = 4"))


def test_successor_folds_into_operator_coefficients():
    norm = F.normalize(F.parse("E x in R. f[5](S(S(x))) = 0"))
    atom = norm.body
    assert isinstance(atom, F.RangeZ) and atom.positive and atom.c == 0
    assert atom.lin.ops == {"x": (0, 0, 5)}
    assert atom.lin.const == 0


def test_negated_divisibility_is_one_literal():
    # the sign flips, for any modulus; the divisibility remark is not applied
    for m in (3, 200000):
        body = F.normalize(F.parse("E x in R. !D%d(x + 1)" % m)).body
        assert isinstance(body, F.DivZ) and body.m == m and not body.positive
        assert body.render() == "!D%d(x + 1)" % m
        assert body.negate().positive and body.negate().negate().render() == body.render()
        for n in range(8):
            assert F.eval_ground(body, POW2, {"x": n}) == ((2 ** n + 1) % m != 0)


def test_ground_greater_than_expansion():
    assert F.eval_ground(F.parse("E k <= 8. k > 6"), POW2)
    assert not F.eval_ground(F.parse("E k <= 5. k > 6"), POW2)
    # negative right side is vacuously true for bounded variables
    assert F.eval_ground(F.parse("E k <= 0. k > 0 - 3"), POW2)


def test_normalize_universal_as_dual():
    norm = F.normalize(F.parse("A x in R. x != 7"))
    assert isinstance(norm, F.NotExists)
    inner = norm.body
    assert isinstance(inner, F.ExistsInR)
    assert isinstance(inner.body, F.RangeZ) and inner.body.positive


def test_normalize_is_idempotent_on_fixtures():
    texts = ["E x in R. D3(x + 2) & x > 1",
             "A x in R. x != 7 | D2(x)",
             "E k <= 6. !(k = 2 | D3(k + 1))",
             "E x in R. E y in R. x + y = 12"]
    for text in texts:
        once = F.normalize(F.parse(text))
        twice = F.normalize(once)
        assert canon(once) == canon(twice), text


def test_eval_ground_spec_examples():
    assert not F.eval_ground(F.parse("E x in R. E y in R. x + y = 7"), POW2)
    assert F.eval_ground(F.parse("E x in R. E y in R. x + y = 12"), POW2)
    assert F.eval_ground(F.parse("E x in R. D3(x + 2) & x > 1"), POW2)
    assert F.eval_ground(F.parse("E x in R. S(S(x)) = 8"), POW2)
    assert not F.eval_ground(F.parse("E x in R. S(x) = 3"), POW2)


def test_sigma_atom_membership():
    text = "Sigma{D=[(y1 + y2)]}(12)"
    assert F.eval_ground(F.parse(text), POW2)
    text = "Sigma{D=[(y1 + y2)]}(7)"
    assert not F.eval_ground(F.parse(text), POW2)
    # a congruence side condition filters the witnesses: y1 even-indexed
    text = "Sigma{C=[D3(y1 + 1)],D=[(y1 + y2)]}(3)"
    assert F.eval_ground(F.parse(text), POW2)  # y1 = r_1 = 2 (2+1 divisible by 3), y2 = 1


def test_free_variables_reported():
    norm = F.normalize(F.parse("E x in R. x + z = 9"))
    assert "z" in F.free_variables(norm)
    closed = F.normalize(F.parse("E x in R. x = 9"))
    assert not F.free_variables(closed)


def test_parse_errors():
    for bad in ["E x in R. (x = 1", "E x in R. x + = 2", "x =",
                "E k <= 3. 3 k = 3"]:
        with pytest.raises(F.FormulaSyntaxError):
            F.parse(bad)


# ---------------------------------------------------------------------------
# Randomized soundness of normalization
# ---------------------------------------------------------------------------

def random_sentence(rng):
    """A closed formula in the bounded integer fragment, as text."""
    vars_in_scope = []

    def term(depth):
        choices = ["const", "var", "add", "sub", "scale"]
        if depth <= 0 or not vars_in_scope:
            choices = ["const", "var"] if vars_in_scope else ["const"]
        kind = rng.choice(choices)
        if kind == "const":
            return str(rng.randint(0, 9))
        if kind == "var":
            return rng.choice(vars_in_scope)
        if kind == "add":
            return "(%s + %s)" % (term(depth - 1), term(depth - 1))
        if kind == "sub":
            return "(%s - %s)" % (term(depth - 1), term(depth - 1))
        return "%d*%s" % (rng.randint(2, 4), term(depth - 1))

    def atom():
        kind = rng.choice(["eq", "neq", "gt", "div", "inr"])
        if kind == "eq":
            return "%s = %s" % (term(1), term(1))
        if kind == "neq":
            return "%s != %s" % (term(1), term(1))
        if kind == "gt" and vars_in_scope:
            return "%s > %d" % (rng.choice(vars_in_scope), rng.randint(0, 6))
        if kind == "div":
            return "D%d(%s)" % (rng.randint(2, 5), term(1))
        return "%s in R" % term(1)

    def body(depth):
        if depth <= 0:
            return atom()
        kind = rng.choice(["atom", "atom", "and", "or", "not"])
        if kind == "atom":
            return atom()
        if kind == "not":
            return "!(%s)" % body(depth - 1)
        join = " & " if kind == "and" else " | "
        return "(%s)" % join.join(body(depth - 1) for _ in range(2))

    quantifiers = []
    for i in range(rng.randint(1, 2)):
        var = "k%d" % i
        vars_in_scope.append(var)
        quantifiers.append("E %s <= %d. " % (var, rng.randint(0, 6)))
    return "".join(quantifiers) + body(2)


def test_normalization_preserves_truth_on_random_sentences():
    rng = random.Random(20260814)
    for i in range(100):
        text = random_sentence(rng)
        ast = F.parse(text)
        handle = POW2 if i % 2 == 0 else FIB
        expected = raw_eval(ast, handle, {})
        assert F.eval_ground(ast, handle) == expected, text


def test_normalize_idempotent_on_random_sentences():
    rng = random.Random(777)
    for _ in range(60):
        text = random_sentence(rng)
        once = F.normalize(F.parse(text))
        assert canon(F.normalize(once)) == canon(once), text


# ---------------------------------------------------------------------------
# Flat normal form by construction, against the old normalize-then-flatten
# ---------------------------------------------------------------------------

def reference_normalize(ast):
    """normalize as it was: negation normal form first, then a second pass
    that splices nested connectives and unwraps single-item ones."""
    return _ref_flatten_deep(_ref_nnf(ast, False))


def _ref_flatten_deep(node):
    if isinstance(node, (F.And, F.Or)):
        node = _ref_flatten(type(node)([_ref_flatten_deep(x) for x in node.items]))
        if len(node.items) == 1:
            return node.items[0]
        return node
    if isinstance(node, F.ExistsInR):
        return F.ExistsInR(node.var, _ref_flatten_deep(node.body))
    if isinstance(node, F.ExistsBounded):
        return F.ExistsBounded(node.var, node.bound, _ref_flatten_deep(node.body))
    if isinstance(node, F.NotExists):
        return F.NotExists(_ref_flatten_deep(node.body))
    return node


def _ref_flatten(node):
    if isinstance(node, (F.And, F.Or)):
        items = []
        for x in node.items:
            x = _ref_flatten(x)
            if isinstance(x, type(node)):
                items.extend(x.items)
            else:
                items.append(x)
        return type(node)(items)
    return node


def _ref_nnf(node, negate):
    if isinstance(node, F.And):
        items = [_ref_nnf(x, negate) for x in node.items]
        return F.Or(items) if negate else F.And(items)
    if isinstance(node, F.Or):
        items = [_ref_nnf(x, negate) for x in node.items]
        return F.And(items) if negate else F.Or(items)
    if isinstance(node, F.Not):
        return _ref_nnf(node.body, not negate)
    if isinstance(node, F.ExistsInR):
        body = _ref_nnf(node.body, False)
        if negate:
            return F.NotExists(F.ExistsInR(node.var, body))
        return F.ExistsInR(node.var, body)
    if isinstance(node, F.ExistsBounded):
        body = _ref_nnf(node.body, False)
        if negate:
            return F.NotExists(F.ExistsBounded(node.var, node.bound, body))
        return F.ExistsBounded(node.var, node.bound, body)
    if isinstance(node, F.ForallInR):
        return _ref_nnf(F.Not(F.ExistsInR(node.var, F.Not(node.body))), negate)
    atom = F._desugar_atom(node)
    if isinstance(atom, (F.And, F.Or)):
        return _ref_nnf(atom, negate)
    return atom.negate() if negate else atom


def random_formula(rng):
    """Formula text over every construct normalize rewrites: > (a negative
    right side included), D2 to D5 under negation, nested !,
    A, bounded E, Sigma atoms, and And/Or chains of any length."""
    r_vars, k_vars = [], []

    def term():
        kind = rng.choice(["const", "var", "var", "succ", "op", "sum"])
        if kind == "const" or not r_vars + k_vars:
            return str(rng.randint(0, 9))
        if kind == "var":
            return rng.choice(r_vars + k_vars)
        if kind in ("succ", "op") and r_vars:
            x = rng.choice(r_vars)
            return "S(%s)" % x if kind == "succ" else "f[1,-2](%s)" % x
        return "%s + %d" % (rng.choice(r_vars + k_vars), rng.randint(1, 5))

    def atom():
        kind = rng.choice(["eq", "neq", "gt", "div", "inr", "sigma"])
        if kind == "eq":
            return "%s = %s" % (term(), term())
        if kind == "neq":
            return "%s != %s" % (term(), term())
        if kind == "gt":
            return "%s > %d" % (term(), rng.randint(-1, 3))
        if kind == "div":
            return "D%d(%s)" % (rng.randint(2, 5), term())
        if kind == "inr":
            return "%s in R" % term()
        return rng.choice(["Sigma{D=[(y1 + y2)]}(%s)",
                           "Sigma{C=[D2(y1)], D=[(y1 - y2)]}(%s)"]) % term()

    def formula(depth):
        kind = rng.choice(["atom", "atom", "not", "and", "or", "E", "A", "Ek"]
                          if depth > 0 else ["atom"])
        if kind == "atom":
            return atom()
        if kind == "not":
            return "!" * rng.randint(1, 3) + "(%s)" % formula(depth - 1)
        if kind in ("and", "or"):
            join = " & " if kind == "and" else " | "
            return "(%s)" % join.join(formula(depth - 1)
                                      for _ in range(rng.randint(1, 4)))
        pool = k_vars if kind == "Ek" else r_vars
        var = ("k%d" if kind == "Ek" else "x%d") % len(pool)
        pool.append(var)
        head = "E %s <= %d. " % (var, rng.randint(0, 3)) if kind == "Ek" else \
            "%s %s in R. " % (kind, var)
        return "(%s%s)" % (head, formula(depth - 1))

    return formula(rng.randint(1, 4))


def test_flat_normal_form_matches_normalize_then_flatten():
    rng = random.Random(20261018)
    for _ in range(2000):
        text = random_formula(rng)
        ast = F.parse(text)
        norm = F.normalize(ast)
        assert canon(norm) == canon(reference_normalize(ast)), text
        assert canon(F.normalize(norm)) == canon(reference_normalize(norm)), text


def reference_in_r(handle, value):
    # the walk from index 0 that _in_r replaced
    if value < handle.eval(0):
        return False
    n = 0
    while handle.eval(n) < value:
        n += 1
    return handle.eval(n) == value


def in_r_outcome(fn, spec, value):
    handle = make_handle(spec)
    try:
        result = fn(handle, value)
    except ValueError as exc:
        result = (type(exc), str(exc))
    return result, len(handle.cache)


@pytest.mark.parametrize("spec", [
    SequenceSpec.power(2), SequenceSpec.recurrence([1, 1], [1, 2]),
    SequenceSpec.table([], generator="2**n + n"), SequenceSpec.table([1, 4, 9]),
    SequenceSpec.table([1, 3], generator="4")])
def test_membership_evaluates_the_terms_of_the_walk(spec):
    # the same answer, the same terms cached and the same error as the walk
    for value in list(range(-2, 40)) + [2 ** 20, 2 ** 20 + 1, 10946, 10947]:
        assert in_r_outcome(F._in_r, spec, value) == \
            in_r_outcome(reference_in_r, spec, value), value


def test_membership_bisects_the_cached_terms():
    handle = make_handle(SequenceSpec.recurrence([1, 1], [1, 2]))
    handle.eval(3000)
    calls = []
    real = handle.eval
    handle.eval = lambda n: calls.append(n) or real(n)
    assert F._in_r(handle, real(2999)) and not F._in_r(handle, real(2999) + 1)
    assert calls == [0, 0]

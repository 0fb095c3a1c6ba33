"""Deciding existential sentences over a regular sequence expansion.

decide() takes a normalized sentence whose quantifier prefix is existential
(over R, plus bounded integer existentials), reduces the matrix to a
disjunction of literal conjunctions in one DNF walk, which expands each
Sigma atom where it stands (and each range t in [0, c] with c > 0 on several
variables, such as !(t > c), into the equations t = 0, ..., t = c), and
resolves each disjunct with the exact machinery available:

  * single-variable range literals (t = 0, t != 0, t > c and !(t > c)) go
    through operator classification and one scan for the values of their
    range, producing finite or cofinite index sets; a classification is
    made once per decide() call;
  * divisibility literals go through the congruence profiles, producing
    eventually periodic index sets, and a negated one is the complement;
  * one multi-variable equality per disjunct is searched for a witness in
    increasing index sum, in stages (index sums up to 8, 16, 32, ...), and
    stops at the first stage that holds one.  A stage of side at most
    equations.BOUNDED_BOX, on which every solution description is complete,
    is solved from the equation itself by one box scan; only a search that
    goes past those stages, or has to refute, builds the description with
    the equation solver, walks its later stages and certifies it empty.

Everything else falls back to bounded search (at most
BOUNDED_ASSIGNMENT_CAP assignments), and the verdict records the
degradation: True always carries a witness that re-checks by direct
arithmetic, False always carries a Proved completeness certificate, and
anything resting on an exhausted budget is reported as UnknownBeyond rather
than guessed.

One rule, _disjunction, combines the parts both over the DNF disjuncts and
over the assignments of the bounded integer variables: the first True part
wins; otherwise the whole is UnknownBeyond if any part is, or if a negated
Sigma atom was left undecided within the budget (reason
negated-sigma-at-budget, even when no disjunct is left); otherwise it is
False on the merged certificates of the parts.  A disjunct that needs terms
past the handle's cache budget (sequences.CacheBudgetExceeded) is an
UnknownBeyond part with reason cache-budget-exceeded.

verify_ax5 and verify_ax6 check the two shape axioms of the theory on a
concrete sequence: the first reports the constant beyond which a unary
operator either vanishes or stays nonzero, the second reports the offset
patterns covering all non-degenerate solutions of a homogeneous equation --
or exhibits solution pairs at unboundedly growing gaps, which no finite
collection of offset patterns can absorb.
"""

import functools
import heapq
import itertools
import math

from . import certs
from . import formulas as F
from .congruence import PeriodicIndexSet, divisibility_set
from .equations import BOUNDED_BOX, EquationProblem, _box_scan, _completeness_data, \
    _trivial_operator, _value_table, solve_full, solve_nondegenerate
from .operators import DEFAULT_BUDGET, CofiniteZero, FiniteRoots, Operator, \
    classify, solve_range, values
from .sequences import CacheBudgetExceeded
from .subsums import _meet_in_the_middle

DNF_CAP = 256
INT_PRODUCT_CAP = 4096
CANDIDATE_CAP = 4096
# Default budget of decide (formulas' own, which eval_ground shares), and of
# verify_ax5 and verify_ax6.
DECIDE_BUDGET = F.DECIDE_BUDGET
AXIOM_BUDGET = 200
# Least windows, whatever the budget: of a one-variable literal's index scan
# and of the witness search of an equation.
LITERAL_WINDOW = 64
EQUATION_WINDOW = 16
# Members of an index set tried as candidates: STREAM_HEAD for one or two
# independent variables, HEAD_DEPTH for more and for each variable outside
# an equation.
STREAM_HEAD = 24
HEAD_DEPTH = 8

# Side of the exhaustive index box, by number of variables (1, 2, 3, 4 or
# more), for each bounded scan; a caller's budget can only shrink it.
BOX_BUDGETS = {
    "bounded-search": (20, 20, 12, 8),
    "ax6-revalidation": (200, 200, 36, 16),
    "ax6-empirical": (200, 200, 60, 25),
}

# Most assignments the bounded search tries: the four-variable box, 9^4.
# With five or more variables the side shrinks to stay within it (5, 4 and
# 3 values per variable for five, six and seven).
BOUNDED_ASSIGNMENT_CAP = 9 ** 4


def _box_side(scan, nvars, budget):
    return min(budget, BOX_BUDGETS[scan][min(nvars, 4) - 1])


class OutOfFragment(ValueError):
    """The sentence falls outside the decidable fragment this procedure
    implements; .reason names the offending feature."""

    def __init__(self, reason, detail=None):
        self.reason = reason
        super().__init__(reason if detail is None else "%s: %s" % (reason, detail))


class Verdict:
    TRUE = "True"
    FALSE = "False"
    UNKNOWN = "UnknownBeyond"

    def __init__(self, kind, witness=None, certificate=None, horizon=None,
                 reason=None):
        self.kind = kind
        self.witness = witness          # var -> ("index", n) or ("value", v)
        self.certificate = certificate
        self.horizon = horizon
        self.reason = reason

    def is_true(self):
        return self.kind == Verdict.TRUE

    def is_false(self):
        return self.kind == Verdict.FALSE

    def exit_code(self):
        return {Verdict.TRUE: 0, Verdict.FALSE: 1, Verdict.UNKNOWN: 2}[self.kind]

    def to_json(self, handle=None):
        out = {"verdict": self.kind}
        if self.kind == Verdict.TRUE:
            witness = {}
            for var, (sort, value) in sorted(self.witness.items()):
                if sort == "index":
                    entry = {"index": value}
                    if handle is not None:
                        entry["element"] = handle.eval(value)
                    witness[var] = entry
                else:
                    witness[var] = {"value": value}
            out["witness"] = witness
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        if self.horizon is not None:
            out["horizon"] = self.horizon
        if self.reason is not None:
            out["reason"] = self.reason
        return out


# ---------------------------------------------------------------------------
# Literal compilation
# ---------------------------------------------------------------------------

def _single_var_set(handle, lit, budget):
    """Compile a one-variable DivZ or InRZ literal to an index set for that
    variable.  Where no exact route applies, the set is the window scan: the
    indices n <= max(LITERAL_WINDOW, budget) where the literal holds at
    f(n) + c, as BoundedCheck."""
    (var, g), = lit.lin.ops.items()
    c = lit.lin.const
    op = Operator(g)
    if isinstance(lit, F.DivZ):
        try:
            divisible = divisibility_set(handle, op, c, lit.m)
            return divisible if lit.positive else divisible.complement()
        except ValueError:  # a refused profile or a MonotonicityError
            pass
    elif g == (1,) and c == 0:  # x in R
        return PeriodicIndexSet.full() if lit.positive else \
            PeriodicIndexSet.finite((), certs.Proved("vacuous-constraint"))
    return PeriodicIndexSet.finite(*_window_scan(
        handle, op, c, budget, lambda v: lit.holds(v, handle)))


def _window_scan(handle, op, c, budget, test):
    """The indices n <= max(LITERAL_WINDOW, budget) where test(f(n) + c)
    holds, and the BoundedCheck of that window."""
    window = max(LITERAL_WINDOW, budget)
    hits = [n for n, v in enumerate(values(op, handle, window + 1)) if test(v + c)]
    return hits, certs.BoundedCheck(window)


def _classify(classified, op, handle, budget):
    """classify(op, handle, budget), made once per decide() call: classified
    is that call's memo."""
    key = (op.coeffs, budget)
    if key not in classified:
        classified[key] = classify(op, handle, budget)
    return classified[key]


def _operator_set(handle, lit, budget, classified):
    """Compile a one-variable RangeZ literal on f(x) + k to an index set:
    f(x) + k lies in [0, c] where f(x) lies in [-k, c - k]; a negated
    literal holds on the complement.

    The value 0 is read from the classification of f at DEFAULT_BUDGET, as
    classify gives its roots or exceptions; every other value of the range
    from one solve_range scan under the classification at the decide budget.
    Both are made once per decide() call.  A range that holds a value f
    takes on its whole scanned tail (solve_range's solid value) gets the
    window scan of the whole range instead."""
    (_, g), = lit.lin.ops.items()
    op = Operator(g)
    lo = -lit.lin.const
    hi = lo + lit.c
    parts = []      # sets whose union is the range's
    if lo <= 0 <= hi:
        cls = _classify(classified, op, handle, DEFAULT_BUDGET)
        parts.append(PeriodicIndexSet.finite(list(cls.roots), cls.cert)
                     if isinstance(cls, FiniteRoots) else
                     PeriodicIndexSet.cofinite(list(cls.exceptions), cls.cert))
    if (lo, hi) != (0, 0):
        cls = _classify(classified, op, handle, max(DEFAULT_BUDGET, budget))
        hits, cert, solid = solve_range(op, handle, lo, hi, cls)
        parts.append(PeriodicIndexSet.finite(hits, cert) if solid is None else
                     _window_range_set(handle, op, lo, hi, budget))
    if len(parts) == 1:
        return parts[0] if lit.positive else parts[0].complement()
    outside = functools.reduce(PeriodicIndexSet.intersect,
                               [s.complement() for s in parts])
    return outside.complement() if lit.positive else outside


def _window_range_set(handle, op, lo, hi, budget):
    """The window scan of lo <= f(x) <= hi, for a range that holds a value f
    takes on its whole scanned tail."""
    hits, cert = _window_scan(handle, op, 0, budget, lambda v: lo <= v <= hi)
    if len(hits) == cert.n + 1:
        # the scanned prefix is solid; treat the set as unknown beyond the
        # window rather than pretending it is finite
        return PeriodicIndexSet(cert.n + 1, 1, (0,), hits, cert)
    return PeriodicIndexSet.finite(hits, cert)


# ---------------------------------------------------------------------------
# The decision procedure
# ---------------------------------------------------------------------------

def decide(ast, handle, budget=DECIDE_BUDGET):
    """Three-valued verdict for a sentence of the existential fragment."""
    node = F.normalize(ast)
    free = F.free_variables(node)
    if free:
        raise OutOfFragment("free-variables", ", ".join(free))

    if isinstance(node, F.NotExists):
        inner = decide(node.body, handle, budget)
        if inner.is_true():
            return Verdict(Verdict.FALSE,
                           certificate=certs.Proved("witnessed-dual"))
        if inner.is_false():
            # every False verdict carries a Proved certificate
            return Verdict(Verdict.TRUE, witness={},
                           certificate=inner.certificate)
        return inner

    rvars, ivars, matrix = _prefix(node)

    combos = 1
    for _, bound in ivars:
        combos *= bound + 1
        if combos > INT_PRODUCT_CAP:
            raise OutOfFragment("bounded-product-too-large", str(combos))

    classified = {}     # the classifications made in this call

    def assignments():
        for values in itertools.product(*[range(b + 1) for _, b in ivars]):
            ground = matrix
            for (var, _), v in zip(ivars, values):
                ground = F._substitute(ground, var, v)
            kind, data = _decide_matrix(handle, list(rvars), ground, budget,
                                        classified)
            if kind == "true":
                data = dict(data)
                data.update((var, ("value", v)) for (var, _), v in zip(ivars, values))
            yield kind, data

    kind, data = _disjunction(assignments())
    if kind == "true":
        return Verdict(Verdict.TRUE, witness=data,
                       certificate=certs.Proved("checked-witness"))
    if kind == "false":
        return Verdict(Verdict.FALSE, certificate=data)
    return Verdict(Verdict.UNKNOWN, horizon=budget, reason=data)


def _prefix(node):
    rvars, ivars = [], []
    seen = set()
    while isinstance(node, (F.ExistsInR, F.ExistsBounded)):
        if node.var in seen:
            raise OutOfFragment("duplicate-variable", node.var)
        seen.add(node.var)
        if isinstance(node, F.ExistsInR):
            rvars.append(node.var)
        else:
            ivars.append((node.var, node.bound))
        node = node.body
    _reject_quantifiers(node)
    return rvars, ivars, node


def _reject_quantifiers(node):
    if isinstance(node, (F.And, F.Or)):
        for x in node.items:
            _reject_quantifiers(x)
    elif isinstance(node, (F.ExistsInR, F.ExistsBounded, F.NotExists)):
        raise OutOfFragment("non-prenex-quantifier")


def _disjunction(outcomes, tainted=False):
    """The one disjunction rule over ('true', witness) / ('false', cert) /
    ('unknown', reason) outcomes, read lazily: the first True wins; otherwise
    any Unknown part, or a taint from a negated Sigma left undecided within
    the budget, makes the whole Unknown (the last Unknown part names the
    reason); otherwise it is False on the parts' merged certificates, Proved
    for no parts at all."""
    certificates = []
    unknown = None
    for outcome in outcomes:
        if outcome[0] == "true":
            return outcome
        if outcome[0] == "false":
            certificates.append(outcome[1])
        else:
            unknown = outcome[1]
    if unknown is None and tainted:
        unknown = "negated-sigma-at-budget"
    if unknown is not None:
        return ("unknown", unknown)
    cert = certs.merge(certificates, reason="fragment-decision") \
        if certificates else certs.Proved("empty-disjunction")
    return ("false", cert)


def _decide_matrix(handle, rvars, matrix, budget, classified):
    """('true', witness) / ('false', cert) / ('unknown', reason) for an
    existential R-prefix over a quantifier-free matrix.

    The DNF walk expands each Sigma atom where it stands: a positive one is
    one conjunction over fresh R variables (its row equations and
    divisibility side constraints); a negated one with ground arguments is
    decided recursively, and holds only where non-membership is proved.  An
    undecided one proves nothing and taints the whole."""
    fresh = []
    tags = itertools.count()
    taint = False

    def sigma(atom):
        nonlocal taint
        if atom.positive:
            tag = next(tags)
            renaming = {v: "_sig%d_%s" % (tag, v) for v in atom.row_variables()}
            fresh.extend(renaming[v] for v in sorted(renaming))
            return [_sigma_parts(atom, renaming)]
        if any(not a.is_ground() for a in atom.args):
            raise OutOfFragment("negated-sigma-with-variables")
        verdict = decide(_sigma_sentence(atom), handle, budget)
        taint = taint or not (verdict.is_true() or verdict.is_false())
        return [[]] if verdict.is_false() else []

    def outcomes():
        for lits in disjuncts:
            try:
                yield _solve_disjunct(handle, rvars + fresh, lits, budget, classified)
            except CacheBudgetExceeded:
                # a term past the cache's bit budget leaves the disjunct
                # undecided within the budget; it is no error
                yield ("unknown", "cache-budget-exceeded")

    disjuncts = _dnf(matrix, sigma)
    return _disjunction(outcomes(), taint)


def _rename(lin, renaming):
    return F.LinTerm(lin.const,
                     {renaming.get(v, v): cs for v, cs in lin.ops.items()})


def _sigma_parts(sigma, renaming):
    """The literals of a Sigma atom over its (renamed) row variables: the C
    divisibilities, then row_i = arg_i for every row."""
    return [F.DivZ(m, _rename(t, renaming)) for m, t in sigma.cdivs] + \
        [F.RangeZ(_rename(row, renaming).add(arg.scale(-1)))
         for row, arg in zip(sigma.rows, sigma.args)]


def _sigma_sentence(sigma):
    body = F.And(_sigma_parts(sigma, {}))
    for v in reversed(sigma.row_variables()):
        body = F.ExistsInR(v, body)
    return body


def _dnf(node, sigma):
    """The disjuncts of node, each a list of its literals, with sigma(atom)
    the disjuncts of a Sigma atom.  An And item with one disjunct extends
    each partial conjunction in place; only one with several copies them."""
    if isinstance(node, F.Or):
        out = []
        for x in node.items:
            out.extend(_dnf(x, sigma))
            if len(out) > DNF_CAP:
                raise OutOfFragment("dnf-too-large")
        return out
    if isinstance(node, F.And):
        out = [[]]
        for x in node.items:
            branches = _dnf(x, sigma)
            if len(branches) == 1:
                for a in out:
                    a.extend(branches[0])
                continue
            out = [a + b for a in out for b in branches]
            if len(out) > DNF_CAP:
                raise OutOfFragment("dnf-too-large")
        return out
    if isinstance(node, F.SigmaZ):
        return sigma(node)
    if isinstance(node, F.RangeZ) and node.positive and node.c \
            and len(node.lin.ops) > 1:
        # t in [0, c] on several variables: the equations t = 0, ..., t = c
        if node.c >= DNF_CAP:
            raise OutOfFragment("dnf-too-large")
        return [[F.RangeZ(node.lin.plus_const(-i))] for i in range(node.c + 1)]
    return [[node]]


def _solve_disjunct(handle, rvars, lits, budget, classified):
    constraints = {v: PeriodicIndexSet.full() for v in rvars}
    equations = []
    side = []       # multi-variable negated ranges, checked on candidates
    bounded = []    # multi-variable Div/InR literals: bounded route only
    for lit in lits:
        if not isinstance(lit, F.Literal):
            raise OutOfFragment("unsupported-literal", type(lit).__name__)
        mentioned = lit.lin.variables()
        if not mentioned:
            if not F._eval(lit, handle, {}, budget):
                return ("false", certs.Proved("ground-contradiction"))
            continue
        if len(mentioned) == 1:
            compiled = _operator_set(handle, lit, budget, classified) \
                if isinstance(lit, F.RangeZ) else \
                _single_var_set(handle, lit, budget)
            constraints[mentioned[0]] = constraints[mentioned[0]].intersect(compiled)
            continue
        if isinstance(lit, F.RangeZ):
            # _dnf leaves a positive range on several variables at c = 0 only
            (equations if lit.positive else side).append(lit)
        else:
            bounded.append(lit)

    # before the route is chosen: a window constraint is exact on the
    # bounded box, whose side is at most the budget
    empty_exact = [v for v in rvars
                   if constraints[v].is_empty() and constraints[v].cert.is_proved]
    if empty_exact:
        return ("false", constraints[empty_exact[0]].cert)
    if any(constraints[v].is_empty() for v in rvars):
        return ("unknown", "bounded-constraint-empty")

    if bounded or len(equations) > 1:
        return _bounded_disjunct(handle, rvars, lits, budget)
    if not equations:
        return _independent_disjunct(handle, rvars, lits, constraints, side,
                                     budget)
    return _equation_disjunct(handle, rvars, lits, constraints, side,
                              equations[0], budget)


def _check_assignment(handle, lits, assignment, budget):
    return F._eval(F.And(list(lits)), handle, dict(assignment), budget)


def _smallest_combinations(heads):
    """The first CANDIDATE_CAP tuples of the product of the strictly
    increasing lists `heads`, in increasing (sum, tuple) order, built lazily.

    Best-first over index vectors: the one parent of a vector lowers its last
    nonzero position by one and has a smaller key, so each vector is pushed
    once, when its parent is popped, and the pops come out in key order.
    Index order is value order in every position, so ties on the sum break
    on the index vector."""
    heap = [(sum(h[0] for h in heads), (0,) * len(heads))] if all(heads) else []
    for popped in range(1, CANDIDATE_CAP + 1):
        if not heap:
            return
        total, idx = heapq.heappop(heap)
        yield tuple(h[i] for h, i in zip(heads, idx))
        last = max((j for j, i in enumerate(idx) if i), default=0)
        for j in range(last, len(idx)):
            i = idx[j]
            if i + 1 < len(heads[j]):
                heapq.heappush(heap, (total - heads[j][i] + heads[j][i + 1],
                                      idx[:j] + (i + 1,) + idx[j + 1:]))
        # Only the smallest CANDIDATE_CAP - popped entries can still be popped.
        left = CANDIDATE_CAP - popped
        if len(heap) > 2 * left:
            heap = heapq.nsmallest(left, heap)


def _whole_sets(constraints, vs, heads):
    """The positions of vs whose set is finite, Proved and longer than its
    head (a one-variable t in [0, c], say), if their members make at most
    DNF_CAP tuples: such a set is tried whole, one member at a time."""
    sets = [constraints[v] for v in vs]
    whole = [i for i, (s, h) in enumerate(zip(sets, heads))
             if s.is_finite() and s.cert.is_proved and len(s.members) > len(h)]
    return whole if math.prod(len(sets[i].members) for i in whole) <= DNF_CAP else []


def _independent_disjunct(handle, rvars, lits, constraints, side, budget):
    depth = STREAM_HEAD if len(rvars) <= 2 else HEAD_DEPTH
    heads = [constraints[v].head(depth) for v in rvars]
    whole = _whole_sets(constraints, rvars, heads) if side else []
    # after the heads, each tuple of the whole sets' members with the first
    # CANDIDATE_CAP combinations of the other heads
    rounds = [heads] + [
        [[pin[whole.index(i)]] if i in whole else h for i, h in enumerate(heads)]
        for pin in itertools.product(*[constraints[rvars[i]].members for i in whole])
        if whole]
    for combo in itertools.chain.from_iterable(map(_smallest_combinations, rounds)):
        assignment = dict(zip(rvars, combo))
        if _check_assignment(handle, lits, assignment, budget):
            return ("true", {v: ("index", n) for v, n in assignment.items()})
    if not side:
        # with no cross-variable side conditions a nonempty product must
        # have produced a witness
        return ("unknown", "candidate-enumeration-exhausted")
    # Exhausted only when every head not tried whole is its whole finite set:
    # a Proved set with more members was checked on its head alone.
    rest = [(constraints[v], h) for i, (v, h) in enumerate(zip(rvars, heads))
            if i not in whole]
    exhaustive = all(s.is_finite() and len(h) == len(s.members) for s, h in rest) \
        and math.prod(len(h) for _, h in rest) <= CANDIDATE_CAP
    if exhaustive and all(constraints[v].cert.is_proved for v in rvars):
        cert = certs.merge([constraints[v].cert for v in rvars],
                           reason="finite-exhaustion")
        return ("false", cert)
    return ("unknown", "side-conditions-at-budget")


def _equation_disjunct(handle, rvars, lits, constraints, side, eq, budget):
    evars = eq.lin.variables()
    others = [v for v in rvars if v not in evars]
    problem = EquationProblem(handle, [Operator(eq.lin.ops[v]) for v in evars],
                              -eq.lin.const)
    solutions = _StagedSolutions(problem)
    other_heads = [constraints[v].head(HEAD_DEPTH) for v in others]
    # each tuple of the whole sets' members has CANDIDATE_CAP candidates
    whole = _whole_sets(constraints, others, other_heads)
    cap = CANDIDATE_CAP
    for i in whole:
        other_heads[i] = constraints[others[i]].members
        cap *= len(other_heads[i])
    checked = 0
    for tup in _by_index_sum(solutions, max(EQUATION_WINDOW, budget)):
        if any(not constraints[v].contains(n) for v, n in zip(evars, tup)):
            continue
        for combo in itertools.product(*other_heads):
            assignment = dict(zip(evars, tup))
            assignment.update(zip(others, combo))
            checked += 1
            if _check_assignment(handle, lits, assignment, budget):
                return ("true", {v: ("index", n) for v, n in assignment.items()})
            if checked > cap:
                return ("unknown", "equation-candidates-at-budget")

    empty, cert_or_reason = _description_empty(handle, solutions.description(),
                                               constraints, evars)
    if empty:
        used = [cert_or_reason] + [constraints[v].cert for v in rvars]
        if all(c.is_proved for c in used):
            return ("false", certs.merge(used, reason="equation-completeness"))
        return ("unknown", "equation-emptiness-at-budget")
    return ("unknown", cert_or_reason)


class _StagedSolutions:
    """The solutions of an equation in [0, S]^s, by stage side S, for
    _by_index_sum.  Every description is complete on [0, BOUNDED_BOX] (a
    Proved one everywhere, a bounded one on its box of at least that side),
    so a stage of side at most BOUNDED_BOX is solved from the equation by
    one box scan, repeated indices and zero terms included, as instantiate
    gives them.  The description is built by solve_full on first need: a
    later stage, or the emptiness check."""

    def __init__(self, problem):
        self.problem = problem
        self._description = None

    def instantiate(self, side):
        if side <= BOUNDED_BOX:
            return _meet_in_the_middle(_value_table(self.problem, side),
                                       self.problem.z)
        return self.description().instantiate(side)

    def description(self):
        if self._description is None:
            self._description = solve_full(self.problem)
        return self._description


def _by_index_sum(description, window):
    """The tuples of description.instantiate(window) in increasing
    (index sum, tuple) order, expanded in stages S = 8, 16, 32, ... up to
    the window: stage S yields the tuples of instantiate(S) whose index sum
    lies in (previous S, S].  A tuple with index sum at most S lies in
    [0, S]^s, so every stage is complete, and the last stage, at the window,
    yields the rest.  A search that stops at a witness expands only the
    stages up to it.  Given a _StagedSolutions, the exact stages come from
    box scans and the later ones from the description, each searched once."""
    done = -1
    side = 8
    while side < window:
        yield from sorted((t for t in description.instantiate(side)
                           if done < sum(t) <= side), key=_sum_key)
        done = side
        side *= 2
    yield from sorted((t for t in description.instantiate(window) if sum(t) > done),
                      key=_sum_key)


def _sum_key(t):
    return sum(t), t


def _description_empty(handle, description, constraints, evars):
    """Whether the constrained solution set is certifiably empty.  Returns
    (True, certificate) or (False, reason).

    Every position in a partition class shares one index, so the class
    constraint is the intersection over its members; an empty class
    constraint kills the whole case.  Pattern families are excluded by
    shifting each class constraint back to the anchor and intersecting."""
    for case in description.cases:
        class_sets = []
        for cls in case.partition:
            combined = PeriodicIndexSet.full()
            for pos in cls:
                combined = combined.intersect(constraints[evars[pos]])
            class_sets.append(combined)
        if any(s.is_empty() and s.cert.is_proved for s in class_sets):
            continue
        distinct = case.distinct
        if distinct is None:
            # all classes cancelled: any distinct index choice solves
            return (False, "free-case-not-excluded")
        if distinct.splits:
            return (False, "split-families-at-budget")
        for tup in distinct.sporadic:
            if all(class_sets[ci].contains(tup[idx])
                   for idx, ci in enumerate(case.active_positions)):
                return (False, "sporadic-survives-constraints")
        for pattern in distinct.patterns:
            anchor = PeriodicIndexSet.cofinite(pattern.exceptions,
                                               certs.Proved("pattern-validity"))
            for idx, ci in enumerate(case.active_positions):
                anchor = anchor.intersect(class_sets[ci].shift(pattern.offsets[idx]))
            if not anchor.is_empty():
                return (False, "pattern-survives-constraints")
            if not anchor.cert.is_proved:
                return (False, "pattern-exclusion-at-budget")
    return (True, description.certificate)


def _bounded_disjunct(handle, rvars, lits, budget):
    k = len(rvars)
    box = _box_side("bounded-search", k, budget) if rvars else 0
    while (box + 1) ** k > BOUNDED_ASSIGNMENT_CAP:
        box -= 1
    for combo in itertools.product(range(box + 1), repeat=k):
        assignment = dict(zip(rvars, combo))
        if _check_assignment(handle, lits, assignment, budget):
            return ("true", {v: ("index", n) for v, n in assignment.items()})
    return ("unknown", "bounded-search-at-budget")


# ---------------------------------------------------------------------------
# Axiom verification
# ---------------------------------------------------------------------------

class AxiomReport:
    def __init__(self, axiom, status, data, certificate):
        self.axiom = axiom
        self.status = status      # "constants" | "violation" | "inconclusive"
        self.data = data
        self.certificate = certificate

    def to_json(self):
        out = {"axiom": self.axiom, "status": self.status}
        out.update(self.data)
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


def verify_ax5(handle, op, budget=AXIOM_BUDGET):
    """The unary shape axiom: beyond some element constant c the operator
    either vanishes identically or never vanishes.  Classification picks the
    branch; the constant is revalidated on a fresh index window."""
    op = op if isinstance(op, Operator) else Operator(op)
    cls = classify(op, handle, budget=max(DEFAULT_BUDGET, budget))
    if isinstance(cls, CofiniteZero):
        branch = "vanishes-beyond"
        last = max(cls.exceptions) if cls.exceptions else None
    else:
        branch = "nonzero-beyond"
        last = max(cls.roots) if cls.roots else None
    c_index = last if last is not None else -1
    constant = handle.eval(c_index) if c_index >= 0 else 0
    window = (c_index + 1, c_index + budget)
    vanishes = branch == "vanishes-beyond"
    for n, value in enumerate(values(op, handle, window[1] + 1)[window[0]:],
                              window[0]):
        if (value == 0) != vanishes:
            raise AssertionError("classification contradicted at index %d" % n)
    return AxiomReport("Ax5", "constants",
                       {"branch": branch, "c": constant, "c_index": c_index,
                        "revalidated_window": list(window)},
                       cls.cert)


def verify_ax6(handle, ops, budget=AXIOM_BUDGET):
    """The solution-shape axiom for a homogeneous equation: either finitely
    many offset patterns (plus a constant) absorb all non-degenerate
    solutions, or solutions occur at gaps growing past any fixed offset set,
    which refutes every candidate shape within the budget."""
    problem = EquationProblem(handle, ops, 0)
    if _trivial_operator(problem) is not None:
        return AxiomReport("Ax6", "inconclusive",
                           {"reason": "trivial-operator-present"}, None)
    # only a proved completeness route can prove the shape; solve there alone
    if _completeness_data(handle, problem.operators, 0, problem.s).cert.is_proved:
        solutions = solve_nondegenerate(problem)
        if solutions.certificate.is_proved:
            return _ax6_constants(handle, problem, solutions, budget)
    return _ax6_empirical(problem, budget)


def _ax6_constants(handle, problem, solutions, budget):
    offset_sets = [tuple(p.offsets[i] - p.offsets[0]
                         for i in range(1, len(p.offsets)))
                   for p in solutions.patterns]
    spill = [i for tup in solutions.sporadic for i in tup]
    for p in solutions.patterns:
        spill.extend(p.exceptions)
    c_index = max(spill) if spill else -1
    constant = handle.eval(c_index) if c_index >= 0 else 0
    # every pattern instance past the constant (and its exceptions) solves
    anchors = range(c_index + 1, c_index + 1 + budget)
    for p in solutions.patterns:
        rows = [values(op, handle, anchors.stop + m)[anchors.start + m:]
                for op, m in zip(problem.operators, p.offsets)]
        for l, total in zip(anchors, map(sum, zip(*rows))):
            if total != 0:
                raise AssertionError("pattern fails at anchor %d" % l)
    # and a brute-force window finds nothing off-pattern
    window = _box_side("ax6-revalidation", problem.s, budget)
    sporadic = set(solutions.sporadic)
    for tup in _box_scan(_value_table(problem, window), problem.z):
        if not any(p.matches(tup) for p in solutions.patterns) \
                and tup not in sporadic:
            raise AssertionError("off-pattern solution %r" % (tup,))
    return AxiomReport("Ax6", "constants",
                       {"k": len(solutions.patterns),
                        "offset_sets": offset_sets,
                        "c": constant, "c_index": c_index,
                        "sporadic": [list(t) for t in solutions.sporadic],
                        "revalidated_window": window},
                       solutions.certificate)


def _ax6_empirical(problem, budget):
    """The Ax6 report from the non-degenerate solutions in the window
    [0, W]^s, W = _box_side("ax6-empirical", s, budget): 200, 200, 60 and 25
    for one, two, three and four or more unknowns, cut to the budget.

    The solutions are grouped by span, max - min of the tuple.  Spans that
    each pass three times the last one taken make the ladder; three rungs or
    more are a violation, each rung witnessed by its least tuple in
    (min, tuple) order.  Otherwise the report lists every offset set found.
    A pair is read from the value classes of its two rows and no pair is
    listed (_PairSpans); three or more unknowns group the box scan's tuples
    (_ScanSpans)."""
    window = _box_side("ax6-empirical", problem.s, budget)
    rows = _value_table(problem, window)
    spans = (_PairSpans if problem.s == 2 else _ScanSpans)(rows, problem.z)
    return _ax6_report(spans, window)


def _witness_key(tup):
    return min(tup), tup


class _ScanSpans:
    """The non-degenerate solutions over the value rows, from one box scan,
    grouped by span: .spans in increasing order, the least solution of a
    span in (min, tuple) order, and the sorted offset sets of them all."""

    def __init__(self, rows, z):
        self.found = _box_scan(rows, z)
        self.by_span = {}
        for tup in self.found:
            self.by_span.setdefault(max(tup) - min(tup), []).append(tup)
        self.spans = sorted(self.by_span)

    def witness(self, span):
        return min(self.by_span[span], key=_witness_key)

    def offset_sets(self):
        return sorted({tuple(n - tup[0] for n in tup[1:]) for tup in self.found})


class _PairSpans:
    """_ScanSpans for two rows f and g, with no solution listed.  A pair
    (x, y) is non-degenerate when x != y and both terms are nonzero, so the
    solutions are read from value classes: for each nonzero v, the bitset X
    of the x with f(x) = v and the bitset Y of the y with g(y) = z - v != 0.
    The pairs (x, x + d) of a class have spans d at the bits of X & (Y >> d),
    the pairs (y + d, y) at those of Y & (X >> d); bit 0 (x = y) is not a
    span.  The spans present are the bits of the OR over the classes of
    Y >> x for x in X, and of X >> y for y in Y: one shift per index."""

    def __init__(self, rows, z):
        f, g = rows
        xs, ys = {}, {}
        for x, v in enumerate(f):
            if v:
                xs.setdefault(v, []).append(x)
        for y, w in enumerate(g):
            if w and z - w in xs:
                ys.setdefault(z - w, []).append(y)
        self.classes = [(_bitset(xs[v]), _bitset(ys[v])) for v in ys]
        ahead = behind = 0      # bit d: some (x, x + d), some (y + d, y)
        for v, (bx, by) in zip(ys, self.classes):
            for x in xs[v]:
                ahead |= by >> x
            for y in ys[v]:
                behind |= bx >> y
        ahead &= ~1
        behind &= ~1
        self.ahead, self.behind = _bits(ahead), _bits(behind)
        self.spans = _bits(ahead | behind)

    def witness(self, span):
        found = []
        for bx, by in self.classes:
            ahead = bx & (by >> span)
            if ahead:
                x = _lowest(ahead)
                found.append((x, x + span))
            behind = by & (bx >> span)
            if behind:
                y = _lowest(behind)
                found.append((y + span, y))
        return min(found, key=_witness_key)

    def offset_sets(self):
        return [(-d,) for d in reversed(self.behind)] + [(d,) for d in self.ahead]


def _bitset(indices):
    return sum(1 << i for i in indices)


def _bits(n):
    """The positions of the set bits of n >= 0, increasing."""
    return [i for i, bit in enumerate(reversed(bin(n)[2:])) if bit == "1"]


def _lowest(n):
    return (n & -n).bit_length() - 1


def _ax6_report(spans, window):
    """The empirical Ax6 report of a _ScanSpans or _PairSpans."""
    ladder = []
    for span in spans.spans:
        if not ladder or span > 3 * ladder[-1]:
            ladder.append(span)
    if len(ladder) >= 3:
        return AxiomReport(
            "Ax6", "violation",
            {"gaps": ladder,
             "witnesses": [list(spans.witness(g)) for g in ladder],
             "window": window,
             "reason": "solution-gaps-exceed-any-offset-set"},
            certs.BoundedCheck(window))
    offset_sets = spans.offset_sets()
    return AxiomReport(
        "Ax6", "constants",
        {"k": len(offset_sets), "offset_sets": offset_sets,
         "c": 0, "c_index": -1, "window": window,
         "note": "bounded-search-only"},
        certs.BoundedCheck(window))

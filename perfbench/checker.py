"""Answer checks, run after the timed loop.

Each answer is checked against an independent computation (brute force,
direct evaluation, exhaustive search).  Reference values come from handles
the checker builds itself, never from the handles that produced the answer.
(Answers are deterministic: the runner checks the first answer to each
question here and requires every repeat to be byte-identical to it.)
"""

import itertools
import json
import re
import sys
import traceback
from fractions import Fraction

from regseq import equations, formulas as F, operators
from regseq.sequences import SequenceSpec, make_handle

from workloads import SEQS

SOLVE_WINDOW = {3: 20, 4: 12}
# Brute-force window for False verdicts, by number of R-variables.  Two
# variables reach index 80, past the ROADMAP item 1 witness (70, 69).
FALSE_WINDOW = {0: 300, 1: 300, 2: 80, 3: 30, 4: 14}
SCAN_WINDOW = 300
AX6_WINDOW = {2: 60, 3: 30}


class Checker:
    def __init__(self):
        self._handles = {}
        self._monoids = {}

    def handle(self, name):
        if name not in self._handles:
            self._handles[name] = make_handle(SequenceSpec.from_json(SEQS[name]))
        return self._handles[name]

    def check(self, q, rec):
        """Whether the answer is right.  rec: 'text' (the answer's canonical
        JSON, or None), 'error' (exception type name, or None), 'obj' (the
        answer object, for solve questions) and, for CLI questions, 'exit'
        and 'stderr'."""
        try:
            return bool(self._check(q, rec))
        except Exception:  # a malformed answer can crash a check: count it wrong
            sys.stderr.write("check failed with an exception for %s:\n%s"
                             % (json.dumps(q)[:200], traceback.format_exc()))
            return False

    def _check(self, q, rec):
        if q["kind"] == "cli":
            return self._check_cli(q, rec)
        if q["kind"] == "spec":
            return rec["error"] == "ValueError"
        if rec["error"] is not None:
            # rejecting an over-deep formula as malformed input is also right
            return "defect" in q and rec["error"] in ("ValueError",
                                                       "FormulaSyntaxError")
        value = json.loads(rec["text"])
        if q["kind"] == "solve":
            return self._check_solve(q, rec["obj"])
        return self._check_json(q, value)

    # -- in-process and CLI answers, as JSON ---------------------------------

    def _check_json(self, q, value):
        kind = q["kind"]
        if kind == "decide":
            return self._check_decide(q["seq"], q["text"], value)
        if kind == "classify":
            return self._check_classify(q["seq"], q["op"], value)
        if kind == "profile":
            return self._check_profile(q["seq"], q["m"], value)
        if kind == "eval":
            return self._check_eval(q["seq"], q["n"], q.get("op"), value)
        if kind == "ax5":
            return self._check_ax5(q["seq"], q["op"], value)
        if kind == "ax6":
            return self._check_ax6(q["seq"], q["ops"], value)
        if kind == "gap-runs":
            terms = self._terms_up_to(q["seq"], q["horizon"])
            elements = {a + b for a in terms for b in terms if a + b <= q["horizon"]}
            return _check_gap_runs(elements, q["horizon"], q["d"], value)
        if kind == "gap-runs-monoid":
            elements = {v for v in self._monoid_up_to(q["gens"], q["horizon"]) if v >= 0}
            return _check_gap_runs(elements, q["horizon"], q["d"], value)
        if kind == "cover":
            image = set(self._terms_up_to(q["seq"], q["horizon"]))
            return _check_cover(q["a"], q["d"], q["horizon"], image, value)
        if kind in ("mann-hom", "mann-trace"):
            coeffs = [Fraction(c) for c in q["coeffs"]]
            ok = all(self._mann_tuple_ok(q["gens"], q["exp"], coeffs, 0, t)
                     for t in value["base"])
            if kind == "mann-trace":
                ok = ok and all(sum(a * Fraction(s) for a, s in zip(coeffs, ratios)) == 0
                                for ratios in value["ratios"])
            return ok
        if kind == "mann-unit":
            coeffs = [Fraction(c) for c in q["coeffs"]]
            return all(self._mann_tuple_ok(q["gens"], q["exp"], coeffs, 1, t)
                       for t in value["solutions"])
        raise ValueError("no check for %r" % kind)

    def _check_solve(self, q, description):
        problem = equations.EquationProblem(self.handle(q["seq"]), q["ops"], q["z"])
        n = SOLVE_WINDOW[len(q["ops"])]
        want = {t for t, _tag in equations.brute_force(problem, n)}
        return description.instantiate(n) == want

    def _check_decide(self, seq, text, value):
        h = self.handle(seq)
        ast = F.parse(text)
        nvars = len(re.findall(r"[EA] \w+ in R", text)) + len(set(re.findall(r"y\d+", text)))
        window = FALSE_WINDOW[min(nvars, 4)]
        verdict = value["verdict"]
        if verdict == "UnknownBeyond":
            return True
        if verdict == "False":
            return not F.eval_ground(ast, h, {}, budget=window)
        witness = value.get("witness", {})
        node = F.normalize(ast)
        assignment = {}
        while isinstance(node, F.ExistsInR) and node.var in witness:
            assignment[node.var] = int(witness[node.var]["index"])
            node = node.body
        return F.eval_ground(node, h, assignment, budget=window)

    def _check_classify(self, seq, op, value):
        h = self.handle(seq)
        zeros = {n for n in range(SCAN_WINDOW + 1)
                 if operators.apply(operators.Operator(op), h, n) == 0}
        if value["kind"] == "FiniteRoots":
            return zeros == {int(r) for r in value["roots"] if int(r) <= SCAN_WINDOW}
        excluded = {int(e) for e in value["exceptions"]}
        return zeros == set(range(SCAN_WINDOW + 1)) - excluded

    def _check_profile(self, seq, m, value):
        h = self.handle(seq)
        rho, p = int(value["preperiod"]), int(value["period"])
        residues = [int(r) for r in value["residues"]]
        if int(value["m"]) != m or len(residues) != rho + p:
            return False
        for n in range(min(rho + 5 * p + 1, 2 * SCAN_WINDOW)):
            predicted = residues[n] if n < rho else residues[rho + (n - rho) % p]
            if predicted != h.eval(n) % m:
                return False
        return True

    def _check_eval(self, seq, n, op, value):
        h = self.handle(seq)
        if op is None:
            return int(value["element"]) == h.eval(n)
        return int(value["value"]) == sum(a * h.eval(n + i) for i, a in enumerate(op))

    def _check_ax5(self, seq, op, value):
        h = self.handle(seq)
        f = operators.Operator(op)
        c_index = int(value["c_index"])
        vanishes = value["branch"] == "vanishes-beyond"
        window = range(c_index + 1, c_index + 1 + SCAN_WINDOW)
        if any((operators.apply(f, h, n) == 0) != vanishes for n in window):
            return False
        return c_index < 0 or (operators.apply(f, h, c_index) == 0) != vanishes

    def _check_ax6(self, seq, ops, value):
        h = self.handle(seq)
        fs = [operators.Operator(c) for c in ops]

        def solves(tup):
            terms = [operators.apply(f, h, n) for f, n in zip(fs, tup)]
            return (sum(terms) == 0 and len(set(tup)) == len(tup)
                    and _no_vanishing_subsum(terms))

        if value["status"] == "violation":
            witnesses = [tuple(int(v) for v in t) for t in value["witnesses"]]
            spans = [max(t) - min(t) for t in witnesses]
            return (len(witnesses) >= 3 and all(solves(t) for t in witnesses)
                    and all(a < b for a, b in zip(spans, spans[1:])))
        if value["status"] != "constants":
            return True
        offsets = {tuple(int(v) for v in s) for s in value["offset_sets"]}
        sporadic = {tuple(int(v) for v in t) for t in value.get("sporadic", [])}
        c_index = int(value["c_index"])
        window = AX6_WINDOW[len(fs)]
        for tup in itertools.product(range(c_index + 1, window + 1), repeat=len(fs)):
            if solves(tup) and tup not in sporadic \
                    and tuple(v - tup[0] for v in tup[1:]) not in offsets:
                return False
        return True

    # -- CLI answers ---------------------------------------------------------

    def _check_cli(self, q, rec):
        code = rec["exit"]
        if "Traceback" in rec["stderr"]:
            return False
        if q["cmd"] == "malformed":
            if code == 3:
                return len(rec["stderr"].strip().splitlines()) >= 1
            # the over-deep formula may also be parsed and answered
            return q.get("defect") == "deep-nesting" and code == 0 \
                and json.loads(rec["text"])["verdict"] == "True"
        value = json.loads(rec["text"])
        opts = _options(q["argv"])
        opt = opts.__getitem__
        seq = opts["--seq"][:-len(".json")] if "--seq" in opts else None
        cmd = q["cmd"]
        if cmd == "decide":
            expect = {"True": 0, "False": 1, "UnknownBeyond": 2}[value["verdict"]]
            text = next(f["text"] for f in q["files"] if f["name"].endswith(".trf"))
            return code == expect and self._check_decide(seq, text, value)
        if code != q["expect"]:
            return False
        if cmd == "classify":
            return self._check_classify(seq, json.loads(opt("--op")), value)
        if cmd == "eval":
            return self._check_eval(seq, int(opt("--n")), None, value)
        if cmd == "periodicity":
            return self._check_profile(seq, int(opt("--modulus")), value)
        if cmd == "solve":
            check = value.get("oracle-check", {})
            return check.get("status") == "match" and int(check["bound"]) == int(opt("--oracle"))
        if cmd == "mann-enumerate":
            gens = [int(g) for g in opt("--gens").split(",")]
            want = sorted(self._monoid_up_to(gens, int(opt("--bound"))))
            return [int(v) for v in value["elements"]] == want
        if cmd == "gap-runs":
            spec = json.loads(q["files"][0]["text"])
            horizon = int(opt("--horizon"))
            elements = set(range(int(spec["a"]), horizon + 1, int(spec["d"])))
            return _check_gap_runs(elements, horizon, int(opt("--d")), value)
        raise ValueError("no check for CLI command %r" % cmd)

    # -- independent references ----------------------------------------------

    def _terms_up_to(self, seq, bound):
        h = self.handle(seq)
        out = []
        n = 0
        while h.eval(n) <= bound:
            out.append(h.eval(n))
            n += 1
        return out

    def _monoid_up_to(self, gens, bound):
        """Products of the generators with absolute value <= bound."""
        out = {1}
        frontier = [1]
        while frontier:
            nxt = []
            for v in frontier:
                for g in gens:
                    w = v * g
                    if abs(w) <= bound and w not in out:
                        out.add(w)
                        nxt.append(w)
            frontier = nxt
        return out

    def _monoid_window(self, gens, exp):
        key = (tuple(gens), exp)
        if key not in self._monoids:
            elements = set()
            for exps in itertools.product(range(exp + 1), repeat=len(gens)):
                v = 1
                for g, e in zip(gens, exps):
                    v *= g ** e
                elements.add(v)
            self._monoids[key] = elements
        return self._monoids[key]

    def _mann_tuple_ok(self, gens, exp, coeffs, rhs, tup):
        tup = [int(v) for v in tup]
        window = self._monoid_window(gens, exp)
        terms = [a * x for a, x in zip(coeffs, tup)]
        return (len(tup) == len(coeffs) and all(v in window for v in tup)
                and sum(terms) == rhs and _no_vanishing_subsum(terms))


def _options(argv):
    """{"--name": value} for both "--name value" and "--name=value"."""
    out = {}
    for i, arg in enumerate(argv):
        if arg.startswith("--"):
            name, eq, value = arg.partition("=")
            out[name] = value if eq else (argv[i + 1] if i + 1 < len(argv) else "")
    return out


def _no_vanishing_subsum(terms):
    return not any(sum(sub) == 0 for size in range(1, len(terms))
                   for sub in itertools.combinations(terms, size))


def _check_gap_runs(elements, horizon, d, value):
    top = sorted(v for v in elements if horizon // 2 < v <= horizon)
    best = run = 0
    for a, b in zip(top, top[1:]):
        run = run + 1 if b - a <= d else 0
        best = max(best, run)
    density = Fraction(len([v for v in elements if 0 <= v <= horizon]), horizon + 1)
    return int(value["longest_run"]) == best and Fraction(value["density"]) == density


def _check_cover(a, d, horizon, image, value):
    progression = range(a, horizon + 1, d)
    if value.get("covered"):
        return all(t in image for t in progression)
    w = int(value["witness"])
    return w in progression and w not in image \
        and all(t in image for t in progression if t < w)

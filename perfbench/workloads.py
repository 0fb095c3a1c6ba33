"""The four workloads: seeded question lists, set-up, and how to answer.

A question is a small JSON-able dict, so a seed's question list can be
hashed and printed.  Questions come in rounds: every round holds the same
slots (one per question template) with seeded sequences, constants and
order, so the cost mix of a run does not hinge on which seed drew which
template, while the inputs themselves still vary with the seed.

Nothing here imports regseq at module import time: the set-up step times
``import regseq`` itself.
"""

import hashlib
import json
import random
import time
from fractions import Fraction

SEQS = {
    "pow2": {"kind": "power", "q": "2"},
    "pow3": {"kind": "power", "q": "3"},
    "fib": {"kind": "recurrence", "coeffs": ["1", "1"], "initials": ["1", "2"]},
    "trib": {"kind": "recurrence", "coeffs": ["1", "1", "1"],
             "initials": ["1", "2", "4"]},
    "pell": {"kind": "recurrence", "coeffs": ["1", "2"], "initials": ["1", "2"]},
    "sum23": {"kind": "sum", "parts": [{"kind": "power", "q": "2"},
                                       {"kind": "power", "q": "3"}]},
    "table": {"kind": "table", "values": [], "generator": "2**n + n"},
    "factorial": {"kind": "factorial"},
}

# Operators for classify / eval / verify_ax5 questions (degree <= 4).
OPERATORS = [[-2, 1], [1, 1, -1], [-3, 1], [0, 0, 0, 0, 1], [1, -3, 1],
             [-1, 1], [2, -1], [-6, 5, -1], [9, 0, -9, 0, 1], [1, 2],
             [3, -1, 1], [-4, 0, 1], [5, -2], [1, 0, -1], [2, 3, -1]]

# Distinct rounds per seed; the timed loop cycles through them.  query-warm
# repeats a short list, which keeps the number of distinct questions (and
# the checker's work) small while the stream runs for thousands of answers.
ROUNDS = {"cli-cold": 40, "solve-deep": 40, "mann-scan": 40, "query-warm": 64}
WARM_N = 1600            # query-warm evaluates handles this far in set-up
WARM_MODULI = range(2, 13)
WARM_SEQS = ("pow2", "fib", "pell", "sum23", "table", "factorial")


# ---------------------------------------------------------------------------
# Question lists
# ---------------------------------------------------------------------------

def _solve_deep_round(rng):
    out = []
    for seq in ("fib", "trib", "pell", "sum23", "table"):
        for ops in ([[1], [1], [-1]], [[1], [1], [-1], [-1]], [[1], [1], [1], [-1]]):
            out.append({"kind": "solve", "seq": seq, "ops": ops, "z": 0})
        out.append({"kind": "solve", "seq": seq, "ops": [[1], [1], [-1]],
                    "z": rng.randint(1, 9)})
        out.append({"kind": "solve", "seq": seq, "ops": [[1], [-1], [1], [-1]],
                    "z": rng.randint(1, 5)})
    for seq in ("trib", "table"):
        out.append({"kind": "solve", "seq": seq, "ops": [[2], [1], [-1]], "z": 0})
    templates = [
        (("fib", "trib", "pell", "sum23", "table"),
         "E x in R. E y in R. E z in R. x + y = z + %d", (1, 9)),
        (("fib", "trib", "pell", "table"),
         "E x in R. E y in R. E z in R. x + y + z = %d", (20, 200)),
        (("fib", "trib", "table"),
         "E x in R. E y in R. E z in R. E w in R. x + y = z + w & x != z & x != w",
         None),
        (("fib", "trib", "pell", "table"),
         "E x in R. E y in R. E z in R. E w in R. x + y + z = w + %d", (1, 9)),
    ]
    for seqs, text, constants in templates:
        for seq in seqs:
            out.append({"kind": "decide", "seq": seq,
                        "text": text % rng.randint(*constants) if constants else text})
    for seq, ops in (("table", [[2, -3, 1], [-2, 3, -1]]), ("fib", [[1], [1], [-1]]),
                     ("pow2", [[2], [-1]])):
        out.append({"kind": "ax6", "seq": seq, "ops": ops})
    rng.shuffle(out)
    return out


def _spread(rng, values):
    """The values in seeded order: each round uses every value once, so the
    round's cost does not depend on the seed."""
    values = list(values)
    rng.shuffle(values)
    return values


def _mann_scan_round(rng):
    # Every round scans each monoid at every exponent bound of the heavy
    # templates, so the slowest questions (which set the tail) are the same
    # for every seed; the seed picks coefficients, light bounds and order.
    out = []
    two = ([2, 3], [2, 5], [3, 5], [2, 7], [-2, 3])
    for gens in two:
        for e in (8, 12, 16):
            out.append({"kind": "mann-hom", "gens": gens, "exp": e,
                        "coeffs": rng.choice([[1, 1, -1], [1, 2, -1], [1, -1, -1]])})
    # induced_trace repeats the homogeneous scan; bounds up to 12 keep it
    # below the heaviest scans, whose grid above fixes the tail
    for gens, e in zip(two, _spread(rng, (8, 9, 10, 11, 12))):
        out.append({"kind": "mann-trace", "gens": gens, "exp": e,
                    "coeffs": rng.choice([[1, 1, -1], [1, 2, -1]])})
    for gens, e in zip(two, _spread(rng, (8, 10, 12, 14, 16))):
        out.append({"kind": "mann-unit", "gens": gens, "exp": e,
                    "coeffs": rng.choice([["1", "-1"], ["1/2", "1/2"], ["2", "-1"]])})
    # a three-term unit scan is quadratic in the window, so smaller bounds
    for gens, e in zip(two, _spread(rng, (4, 5, 6, 7, 8))):
        out.append({"kind": "mann-unit", "gens": gens, "exp": e,
                    "coeffs": ["1", "1", "-1"]})
    for gens in ([2, 3, 5], [2, 3, 7]):
        for e in (4, 5):
            out.append({"kind": "mann-hom", "gens": gens, "coeffs": [1, 1, -1], "exp": e})
        for e in (3, 4):
            out.append({"kind": "mann-unit", "gens": gens, "coeffs": ["1", "1", "-1"],
                        "exp": e})
    rng.shuffle(out)
    return out


def _query_warm_round(rng):
    seqs = list(WARM_SEQS)
    out = []
    for _ in range(4):
        out.append({"kind": "classify", "seq": rng.choice(seqs),
                    "op": rng.choice(OPERATORS)})
    for _ in range(2):
        out.append({"kind": "profile", "seq": rng.choice(seqs),
                    "m": rng.choice(list(WARM_MODULI))})
    # (n+2)! past n = 1450 has more digits than Python prints by default
    printable = [s for s in seqs if s != "factorial"]
    out.append({"kind": "eval", "seq": rng.choice(printable),
                "n": rng.randint(WARM_N // 2, WARM_N - 8)})
    out.append({"kind": "eval", "seq": rng.choice(printable),
                "n": rng.randint(WARM_N // 2, WARM_N - 8),
                "op": rng.choice(OPERATORS)})
    one_var = [
        "E x in R. D%d(x + %d) & x > %d" % (rng.randint(2, 7), rng.randint(0, 5),
                                            rng.randint(1, 100)),
        "E k <= %d. E x in R. x = k + %d" % (rng.randint(3, 9), rng.randint(0, 30)),
        "Sigma{D=[(y1 + y2)]}(%d)" % rng.randint(2, 120),
        "A x in R. x != %d" % rng.randint(2, 120),
    ]
    two_var = [
        "E x in R. E y in R. x + y = %d & x != y" % rng.randint(2, 120),
        "E x in R. E y in R. x - y = %d" % rng.randint(1, 60),
    ]
    for text in one_var + two_var:
        # Dm on the table sequence costs 30-180 ms (candidate search over
        # generated terms), outside this workload's cheap band
        choices = [s for s in seqs if s != "table"] \
            if text.startswith("E x in R. D") else seqs
        out.append({"kind": "decide", "seq": rng.choice(choices), "text": text})
    for _ in range(2):
        out.append({"kind": "ax5", "seq": rng.choice(seqs),
                    "op": rng.choice(OPERATORS)})
    out.append({"kind": "gap-runs", "seq": rng.choice(["pow2", "fib", "pell"]),
                "ops": [[1], [1]], "horizon": 2 ** rng.randint(10, 14),
                "d": rng.randint(2, 16)})
    out.append({"kind": "gap-runs-monoid", "gens": rng.choice([[2, 3], [2, 5], [3, 5]]),
                "horizon": 10 ** rng.randint(3, 5), "d": rng.randint(2, 16)})
    out.append({"kind": "cover", "seq": rng.choice(["pow2", "fib"]),
                "a": rng.randint(0, 6), "d": rng.randint(2, 7),
                "horizon": rng.choice([500, 1000, 2000])})
    rng.shuffle(out)
    return out


def _cli_round(rng):
    seq_file = lambda name: {"name": "%s.json" % name, "text": json.dumps(SEQS[name])}
    three = ["pow2", "fib", "pell", "sum23"]
    out = []
    s = rng.choice(three)
    out.append({"kind": "cli", "cmd": "classify", "expect": 0, "files": [seq_file(s)],
                "argv": ["classify", "--seq", "%s.json" % s,
                         "--op", json.dumps(rng.choice(OPERATORS))]})
    s = rng.choice(three + ["table"])
    out.append({"kind": "cli", "cmd": "eval", "expect": 0, "files": [seq_file(s)],
                "argv": ["eval", "--seq", "%s.json" % s, "--n", str(rng.randint(5, 400))]})
    s = rng.choice(three + ["factorial"])
    out.append({"kind": "cli", "cmd": "periodicity", "expect": 0, "files": [seq_file(s)],
                "argv": ["periodicity", "--seq", "%s.json" % s,
                         "--modulus", str(rng.randint(2, 12))]})
    s = rng.choice(three)
    text = rng.choice(["E x1 in R. E x2 in R. x1 + x2 = %d" % rng.randint(3, 80),
                       "E x in R. D%d(x + %d) & x > %d"
                       % (rng.randint(2, 7), rng.randint(0, 5), rng.randint(1, 50))])
    out.append({"kind": "cli", "cmd": "decide", "expect": None,
                "files": [seq_file(s), {"name": "f.trf", "text": text}],
                "argv": ["decide", "--seq", "%s.json" % s, "--formula", "f.trf"]})
    s = rng.choice(["fib", "pow2", "pell"])
    problem = {"operators": [["1"], ["1"], ["-1"]], "target": str(rng.randint(0, 6))}
    out.append({"kind": "cli", "cmd": "solve", "expect": 0,
                "files": [seq_file(s), {"name": "p.json", "text": json.dumps(problem)}],
                "argv": ["solve", "--seq", "%s.json" % s, "--problem", "p.json",
                         "--oracle", str(rng.randint(8, 14))]})
    gens = rng.choice(["2,3", "2,5", "3,7", "-2,3"])
    # "--gens=-2,3": a separate "-2,3" would be read as an option
    out.append({"kind": "cli", "cmd": "mann-enumerate", "expect": 0, "files": [],
                "argv": ["mann", "enumerate", "--gens=" + gens,
                         "--bound", str(rng.randint(100, 5000))]})
    progression = {"kind": "progression", "a": str(rng.randint(0, 9)),
                   "d": str(rng.randint(2, 9))}
    out.append({"kind": "cli", "cmd": "gap-runs", "expect": 0,
                "files": [{"name": "set.json", "text": json.dumps(progression)}],
                "argv": ["syndetic", "gap-runs", "--set", "set.json",
                         "--horizon", str(rng.randint(100, 2000)),
                         "--d", str(rng.randint(2, 12))]})
    out.append(rng.choice(_MALFORMED))
    rng.shuffle(out)
    return out


# Malformed inputs that the seed commit rejects with exit 3, as it must.
_MALFORMED = [
    {"kind": "cli", "cmd": "malformed", "expect": 3, "files": [],
     "argv": ["classify", "--seq", "missing.json", "--op", "[1]"]},
    {"kind": "cli", "cmd": "malformed", "expect": 3,
     "files": [{"name": "pow2.json", "text": json.dumps(SEQS["pow2"])}],
     "argv": ["classify", "--seq", "pow2.json", "--op", "[1,"]},
    {"kind": "cli", "cmd": "malformed", "expect": 3,
     "files": [{"name": "pow2.json", "text": json.dumps(SEQS["pow2"])}],
     "argv": ["eval", "--seq", "pow2.json", "--n", "-1"]},
    {"kind": "cli", "cmd": "malformed", "expect": 3,
     "files": [{"name": "bad.json", "text": '{"kind": "spiral"}'}],
     "argv": ["eval", "--seq", "bad.json", "--n", "3"]},
    {"kind": "cli", "cmd": "malformed", "expect": 3, "files": [],
     "argv": ["mann", "solve", "--gens", "2,3", "--eq", "x1 + x3 = 0"]},
]

_ROUND_MAKERS = {"cli-cold": _cli_round, "solve-deep": _solve_deep_round,
                 "mann-scan": _mann_scan_round, "query-warm": _query_warm_round}
WORKLOADS = tuple(_ROUND_MAKERS)


def question_rounds(workload, seed):
    """The seed's question list, as ROUNDS[workload] rounds."""
    rng = random.Random("%s:%d" % (workload, seed))
    return [_ROUND_MAKERS[workload](rng) for _ in range(ROUNDS[workload])]


def list_hash(rounds):
    return hashlib.sha256(json.dumps(rounds, sort_keys=True).encode()).hexdigest()[:16]


# Known defects of the seed commit (ROADMAP item 1).  They are asked in every
# run, after the timed loop, and counted as failures while they reproduce.
ITEM1_TEXT = "E x in R. E y in R. x - y = 590295810358705651713"
DEEP_FORMULA = "E x in R. " + "(" * 5000 + "x = 4" + ")" * 5000
DEFECTS = [
    {"kind": "decide", "seq": "table", "text": ITEM1_TEXT, "defect": "item1-false-proved"},
    {"kind": "spec", "spec": {"kind": "power", "q": ["2"]}, "defect": "list-valued-q"},
    {"kind": "decide", "seq": "pow2", "text": DEEP_FORMULA, "defect": "deep-nesting"},
]
CLI_DEFECTS = [
    {"kind": "cli", "cmd": "decide", "expect": None, "defect": "item1-false-proved",
     "files": [{"name": "table.json", "text": json.dumps(SEQS["table"])},
               {"name": "item1.trf", "text": ITEM1_TEXT}],
     "argv": ["decide", "--seq", "table.json", "--formula", "item1.trf"]},
    {"kind": "cli", "cmd": "malformed", "expect": 3, "defect": "list-valued-q",
     "files": [{"name": "badq.json", "text": json.dumps({"kind": "power", "q": ["2"]})}],
     "argv": ["classify", "--seq", "badq.json", "--op", "[-2,1]"]},
    {"kind": "cli", "cmd": "malformed", "expect": 3, "defect": "deep-nesting",
     "files": [{"name": "pow2.json", "text": json.dumps(SEQS["pow2"])},
               {"name": "deep.trf", "text": DEEP_FORMULA}],
     "argv": ["decide", "--seq", "pow2.json", "--formula", "deep.trf"]},
]


# ---------------------------------------------------------------------------
# Set-up and answers (in-process workloads)
# ---------------------------------------------------------------------------

class State:
    """What set-up leaves for the timed loop: the regseq package, the parsed
    sequence specs and, for query-warm, the shared warm handles."""

    def __init__(self, workload):
        self.workload = workload
        self.regseq = None
        self.specs = {}
        self.handles = {}
        self.setup_s = None


def setup(workload):
    """Import regseq and prepare handles; returns a State with setup_s, the
    wall time spent in regseq before the first timed question."""
    state = State(workload)
    start = time.perf_counter()
    if workload == "cli-cold":
        import regseq.cli  # noqa: F401  -- what every CLI process pays first
    else:
        import regseq
        state.regseq = regseq
        state.specs = {k: regseq.sequences.SequenceSpec.from_json(v)
                       for k, v in SEQS.items()}
        if workload == "query-warm":
            _warm(state)
    state.setup_s = time.perf_counter() - start
    return state


def _warm(state):
    R = state.regseq
    for name in WARM_SEQS:
        h = R.sequences.make_handle(state.specs[name])
        h.eval(WARM_N + 8)
        R.sequences.certify(h)
        R.operators.classify(R.operators.Operator([1, -3, 1]), h)
        for m in WARM_MODULI:
            R.congruence.profile(h, m)
        state.handles[name] = h
    # one round of every template, so first-call paths are warm too
    for q in _query_warm_round(random.Random("warm-up")):
        answer(state, q)


def answer(state, q):
    """Ask regseq one question; returns (answer object, handle or None).
    query-warm asks on its shared warm handles; the other workloads build a
    fresh handle per question, so every question pays its own
    certification."""
    R = state.regseq
    kind = q["kind"]
    if kind == "spec":
        spec = R.sequences.SequenceSpec.from_json(q["spec"])
        return R.sequences.make_handle(spec), None
    if kind.startswith("mann"):
        monoid = R.mann.MannMonoid(q["gens"])
        if kind == "mann-hom":
            return R.mann.solve_homogeneous(q["coeffs"], monoid, q["exp"]), None
        if kind == "mann-trace":
            return R.mann.induced_trace(q["coeffs"], monoid, q["exp"]), None
        return R.mann.solve_unit([Fraction(c) for c in q["coeffs"]], monoid,
                                 q["exp"]), None
    if kind == "gap-runs-monoid":
        enum = R.syndetic.EnumerableSet.monoid_stream(R.mann.MannMonoid(q["gens"]))
        return R.syndetic.gap_runs(enum, q["horizon"], q["d"]), None
    if state.workload == "query-warm":
        h = state.handles[q["seq"]]
    else:
        h = R.sequences.make_handle(state.specs[q["seq"]])
    if kind == "solve":
        problem = R.equations.EquationProblem(h, q["ops"], q["z"])
        return R.equations.solve_full(problem), h
    if kind == "decide":
        return R.decide.decide(R.formulas.parse(q["text"]), h), h
    if kind == "ax6":
        return R.decide.verify_ax6(h, [R.operators.Operator(c) for c in q["ops"]]), h
    if kind == "ax5":
        return R.decide.verify_ax5(h, R.operators.Operator(q["op"])), h
    if kind == "classify":
        return R.operators.classify(R.operators.Operator(q["op"]), h), h
    if kind == "profile":
        return R.congruence.profile(h, q["m"]), h
    if kind == "eval":
        if "op" in q:
            return R.operators.apply(R.operators.Operator(q["op"]), h, q["n"]), h
        return h.eval(q["n"]), h
    if kind == "gap-runs":
        enum = R.syndetic.EnumerableSet.image_sum(h, q["ops"])
        return R.syndetic.gap_runs(enum, q["horizon"], q["d"]), h
    if kind == "cover":
        image = R.syndetic.EnumerableSet.image_sum(h, [[1]])
        return R.syndetic.cover_check(q["a"], q["d"], [image], q["horizon"]), h
    raise ValueError("unknown question kind %r" % kind)


def answer_json(q, obj, handle):
    """The answer as the JSON value the CLI would print for it."""
    kind = q["kind"]
    if kind == "decide":
        return obj.to_json(handle)
    if kind == "eval" and "op" in q:
        return {"n": q["n"], "op": q["op"], "value": obj}
    if kind == "eval":
        return {"n": q["n"], "element": obj}
    if kind == "mann-unit":
        tuples, cert = obj
        return {"solutions": [list(t) for t in tuples],
                "certificate": cert.to_json()}
    if kind == "mann-trace":
        out = obj.to_json()
        out["base"] = [list(b) for b in obj.solution_set.base]
        out["scanned"] = len(obj.solution_set.scanned)
        return out
    if kind == "mann-hom":
        out = obj.to_json()
        out["scanned"] = len(obj.scanned)
        return out
    if kind == "spec":
        return {"spec": obj.spec.to_json()}
    return obj.to_json()


def handle_terms(handle):
    """(terms cached, bits of the largest cached term) over a handle and its
    parts."""
    terms = len(handle.cache)
    bits = handle.cache[-1].bit_length() if handle.cache else 0
    for part in handle.parts or ():
        t, b = handle_terms(part)
        terms += t
        bits = max(bits, b)
    return terms, bits

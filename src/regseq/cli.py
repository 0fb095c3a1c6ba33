"""Command-line entry point: sequence specs in, canonical JSON reports out.

Exit codes are uniform across subcommands: 0 for success / a True verdict,
1 for a False verdict or a reported violation, 2 for Unknown, 3 for usage,
IO, or parse errors and for every other exception (a MemoryError, a
RecursionError, a failed self-check), which is reported on one stderr line
that names its class: exit 1 never comes from an error.  All reports go
through the canonical serializer, so a fixed invocation produces
byte-identical output across runs.

Sequence-spec files are JSON objects with integer fields as decimal strings,
for example {"kind": "power", "q": "2"} or
{"kind": "recurrence", "coeffs": ["1", "1"], "initials": ["1", "2"]}.
Set-spec files for the syndetic subcommands take
{"kind": "progression", "a": ..., "d": ...},
{"kind": "image-sum", "seq": <sequence spec>, "ops": [[..], ..], "z": ...},
{"kind": "monoid", "generators": [..]}, or {"kind": "list", "values": [..]};
the --images and --parts files hold one set spec or a list of them.

At module level only the standard library and jsonio are imported.  Each
handler imports the layers it runs, and _load_set those of each set kind, so
a call compiles only what its subcommand needs: `eval` loads sequences,
polyops and certs; `mann` loads mann, subsums and certs; `syndetic` on a
progression or list loads syndetic alone; `decide` loads every layer except
mann and syndetic.  The parser defaults that come from a layer (operators'
DEFAULT_BUDGET, decide's DECIDE_BUDGET and AXIOM_BUDGET, mann's
DEFAULT_EXPONENT) are None and are resolved in the handler, so those
constants stay the one source of the values.

Integer options are parsed as text and read after parsing by jsonio's strict
reader, so a malformed value, like one out of range, is a one-line error.
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from . import jsonio
from .jsonio import _json_int, _json_ints, _json_list, _read_int

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3

# Ranges of the numeric options.  Each admits every documented example; far
# past the ceiling one call could take minutes or gigabytes (the 2**n + n
# table at --budget 100000 took 16 s and 670 MB).  A value outside exits 3.
# `eval` computes every term up to n, at a cost growing about as n^2.  Reports
# print integers of up to jsonio.MAX_DIGITS digits, which covers the built-in
# kinds at the ceiling of --n (factorial's r_10000 = 10002!, 35,668 digits);
# a longer element, such as a power of a 100-digit base, exits 3.  The
# congruence walk stops at the same ceiling (congruence.MAX_STATES).
OPTION_RANGES = {"budget": (1, 10_000), "horizon": (1, 2 ** 20),
                 "bound": (1, 10 ** 12), "exp_bound": (0, 4096),
                 "n": (0, 10_000)}
INT_OPTIONS = ("a", "budget", "bound", "d", "exp_bound", "horizon", "modulus",
               "n", "oracle")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; our convention reserves 2 for Unknown,
    so usage errors are remapped to 3, with the one-line error and without
    the usage line (``--help`` prints that)."""

    def error(self, message):
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(EXIT_USAGE)


def _read_options(args):
    """Read the integer options strictly, then check their ranges."""
    for name in INT_OPTIONS:
        text = getattr(args, name, None)
        if text is not None:
            setattr(args, name, _read_int(text, "--" + name.replace("_", "-")))
    for name, (lo, hi) in OPTION_RANGES.items():
        value = getattr(args, name, None)
        if value is not None and not lo <= value <= hi:
            raise ValueError("--%s must be between %d and %d, not %d"
                             % (name.replace("_", "-"), lo, hi, value))


def _emit(obj, out_path=None):
    text = jsonio.dumps(obj)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _make_handle(obj):
    from . import sequences
    return sequences.make_handle(sequences.SequenceSpec.from_json(obj))


def _load_handle(path):
    return _make_handle(jsonio.load_path(path))


def _parse_op(text):
    from . import operators
    return operators.Operator.from_json(
        json.loads(text, parse_int=lambda digits: _read_int(digits, "operator coefficient")))


def _parse_ops(text):
    return [_parse_op(part) for part in text.split(";") if part.strip()]


_TERM_RE = re.compile(r"\s*([+-]?)\s*([0-9]*)\s*\*?\s*x([0-9]+)")


def _parse_equation(text):
    """Parse 'x1 + x2 - x3 = 0' into (coefficient list, right-hand side)."""
    if text.count("=") != 1:
        raise ValueError("equation needs exactly one '='")
    lhs, rhs_text = text.split("=")
    rhs = _read_int(rhs_text.strip(), "right-hand side")
    coeffs = {}
    pos = 0
    lhs = lhs.strip()
    while pos < len(lhs):
        m = _TERM_RE.match(lhs, pos)
        if not m or m.end() == pos:
            raise ValueError("cannot parse equation near %r" % lhs[pos:])
        sign = -1 if m.group(1) == "-" else 1
        coef = _read_int(m.group(2), "coefficient") if m.group(2) else 1
        idx = _read_int(m.group(3), "variable index")
        coeffs[idx] = coeffs.get(idx, 0) + sign * coef
        pos = m.end()
    if not coeffs or sorted(coeffs) != list(range(1, len(coeffs) + 1)):
        raise ValueError("variables must be x1..xn with none skipped")
    out = [coeffs[i] for i in range(1, len(coeffs) + 1)]
    if any(c == 0 for c in out):
        raise ValueError("zero net coefficient for some variable")
    return out, rhs


def _load_set(obj):
    from . import syndetic
    if not isinstance(obj, dict):
        raise ValueError("set spec must be a JSON object")
    kind = obj.get("kind")
    if kind == "progression":
        return syndetic.EnumerableSet.progression(_json_int(obj.get("a"), "a"),
                                                  _json_int(obj.get("d"), "d"))
    if kind == "image-sum":
        handle = _make_handle(obj.get("seq"))
        ops = [_json_ints(row, "ops") for row in _json_list(obj.get("ops"), "ops")]
        return syndetic.EnumerableSet.image_sum(handle, ops,
                                                _json_int(obj.get("z", 0), "z"))
    if kind == "monoid":
        from . import mann
        monoid = mann.MannMonoid(_json_ints(obj.get("generators"), "generators"))
        return syndetic.EnumerableSet.monoid_stream(monoid)
    if kind == "list":
        return syndetic.EnumerableSet.from_list(_json_ints(obj.get("values"), "values"))
    raise ValueError("unknown set kind %r" % (kind,))


def _load_sets(path, option):
    """The sets of a file holding one set spec or a list of them."""
    specs = jsonio.load_path(path)
    if isinstance(specs, dict):
        specs = [specs]
    if not isinstance(specs, list):
        raise ValueError("%s must hold a set spec or a list of set specs" % option)
    return [_load_set(obj) for obj in specs]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_eval(args):
    handle = _load_handle(args.seq)
    if args.op:
        from . import operators
        op = _parse_op(args.op)
        top = OPTION_RANGES["n"][1]
        if args.n + op.degree > top:
            raise ValueError("--n plus the operator degree must be at most %d"
                             % top)
        report = {"n": args.n, "op": op.to_json(),
                  "value": operators.apply(op, handle, args.n)}
    else:
        report = {"n": args.n, "element": handle.eval(args.n)}
    _emit(report)
    return EXIT_TRUE


def _cmd_classify(args):
    from . import operators
    handle = _load_handle(args.seq)
    budget = operators.DEFAULT_BUDGET if args.budget is None else args.budget
    cls = operators.classify(_parse_op(args.op), handle, budget=budget)
    _emit(cls.to_json())
    return EXIT_TRUE


def _cmd_solve(args):
    from . import equations
    handle = _load_handle(args.seq)
    problem = equations.EquationProblem.from_json(handle,
                                                  jsonio.load_path(args.problem))
    description = equations.solve_full(problem)
    report = description.to_json()
    if args.oracle is not None:
        expected = {t for t, _tag in equations.brute_force(problem, args.oracle)}
        got = description.instantiate(args.oracle)
        if got != expected:
            diff = {"oracle-check": "MISMATCH",
                    "bound": args.oracle,
                    "missing": sorted(expected - got),
                    "extra": sorted(got - expected)}
            _emit(diff)
            return EXIT_USAGE
        report["oracle-check"] = {"bound": args.oracle,
                                  "tuples": len(expected),
                                  "status": "match"}
    _emit(report)
    return EXIT_TRUE


def _cmd_decide(args):
    from . import decide, formulas
    handle = _load_handle(args.seq)
    with open(args.formula, "r", encoding="utf-8") as fh:
        text = fh.read()
    budget = decide.DECIDE_BUDGET if args.budget is None else args.budget
    verdict = decide.decide(formulas.parse(text), handle, budget=budget)
    _emit(verdict.to_json(handle))
    return verdict.exit_code()


def _cmd_periodicity(args):
    from . import congruence
    handle = _load_handle(args.seq)
    _emit(congruence.profile(handle, args.modulus).to_json())
    return EXIT_TRUE


def _cmd_gap_runs(args):
    from . import syndetic
    enum_set = _load_set(jsonio.load_path(args.set))
    report = syndetic.gap_runs(enum_set, args.horizon, args.d,
                               by_gap=args.by_gap)
    _emit(report.to_json())
    return EXIT_TRUE


def _cmd_cover_check(args):
    from . import syndetic
    report = syndetic.cover_check(args.a, args.d,
                                  _load_sets(args.images, "--images"),
                                  args.horizon)
    _emit(report.to_json())
    return EXIT_TRUE if report.covered else EXIT_FALSE


def _cmd_brown(args):
    from . import syndetic
    enum_set = _load_set(jsonio.load_path(args.set))
    report = syndetic.brown_decompose(enum_set, _load_sets(args.parts, "--parts"),
                                      args.horizon, args.d)
    _emit(report.to_json())
    return EXIT_TRUE


def _monoid(args):
    from . import mann
    return mann.MannMonoid(_read_int(g, "--gens") for g in args.gens.split(","))


def _exp_bound(args):
    from .mann import DEFAULT_EXPONENT
    return DEFAULT_EXPONENT if args.exp_bound is None else args.exp_bound


def _cmd_mann_solve(args):
    from . import mann
    monoid = _monoid(args)
    coeffs, rhs = _parse_equation(args.eq)
    exp_bound = _exp_bound(args)
    if rhs == 0:
        sols = mann.solve_homogeneous(coeffs, monoid, exp_bound)
        _emit(sols.to_json())
    else:
        qs = [Fraction(c, rhs) for c in coeffs]
        tuples, cert = mann.solve_unit(qs, monoid, exp_bound)
        _emit({"equation": args.eq,
               "monoid": monoid.to_json(),
               "solutions": [list(t) for t in tuples],
               "exponent_bound": exp_bound,
               "certificate": cert.to_json()})
    return EXIT_TRUE


def _cmd_mann_enumerate(args):
    from .mann import WINDOW_BITS
    monoid = _monoid(args)
    _emit({"monoid": monoid.to_json(), "bound": args.bound,
           "elements": monoid.enumerate(args.bound, WINDOW_BITS)})
    return EXIT_TRUE


def _cmd_mann_trace(args):
    from . import mann
    monoid = _monoid(args)
    coeffs, rhs = _parse_equation(args.eq)
    if rhs != 0:
        raise ValueError("trace needs a homogeneous equation (rhs 0)")
    _emit(mann.induced_trace(coeffs, monoid, _exp_bound(args)).to_json())
    return EXIT_TRUE


def _cmd_verify_ax5(args):
    from . import decide
    handle = _load_handle(args.seq)
    budget = decide.AXIOM_BUDGET if args.budget is None else args.budget
    report = decide.verify_ax5(handle, _parse_op(args.op), budget=budget)
    _emit(report.to_json())
    return EXIT_TRUE


def _cmd_verify_ax6(args):
    from . import decide
    handle = _load_handle(args.seq)
    budget = decide.AXIOM_BUDGET if args.budget is None else args.budget
    report = decide.verify_ax6(handle, _parse_ops(args.ops), budget=budget)
    _emit(report.to_json())
    if report.status == "violation":
        return EXIT_FALSE
    if report.status == "inconclusive":
        return EXIT_UNKNOWN
    return EXIT_TRUE


def _cmd_suite(args):
    report = run_suite()
    _emit(report, out_path=args.out)
    return EXIT_TRUE


def run_suite():
    """Fixed batch across every module; used for determinism checks."""
    from . import congruence, decide, equations, formulas, mann, operators, \
        syndetic
    from .sequences import SequenceSpec, make_handle
    pow2 = make_handle(SequenceSpec.power(2))
    fib = make_handle(SequenceSpec.recurrence([1, 1], [1, 2]))
    fact = make_handle(SequenceSpec.factorial())
    table = make_handle(SequenceSpec.table([], generator="2**n + n"))

    report = {}

    battery = [[-2, 1], [1, -3, 1], [0, 0, 1], [-4, 0, 1], [6, -5, 1]]
    report["classify"] = [
        {"op": list(map(str, cs)),
         "result": operators.classify(operators.Operator(cs), pow2).to_json()}
        for cs in battery]

    problem = equations.EquationProblem(fib, [[1], [1], [-1]], 0)
    report["solve"] = equations.solve_full(problem).to_json()

    texts = ["E x1 in R. E x2 in R. x1 + x2 = 7",
             "E x1 in R. E x2 in R. x1 + x2 = 12",
             "E x in R. D3(x + 2) & x > 1"]
    report["decide"] = [
        {"formula": text,
         "verdict": decide.decide(formulas.parse(text), pow2).to_json(pow2)}
        for text in texts]

    report["periodicity"] = [
        {"seq": label, "modulus": m, "profile": congruence.profile(h, m).to_json()}
        for label, h, m in [("pow2", pow2, 3), ("fib", fib, 2),
                            ("factorial", fact, 4)]]

    report["verify-ax5"] = decide.verify_ax5(
        pow2, operators.Operator([-2, 1])).to_json()
    report["verify-ax6"] = decide.verify_ax6(
        table, [operators.Operator([2, -3, 1]),
                operators.Operator([-2, 3, -1])]).to_json()

    two_powers = syndetic.EnumerableSet.image_sum(pow2, [[1], [1]],
                                                  label="2^a+2^b")
    report["syndetic"] = {
        "gap-runs": syndetic.gap_runs(two_powers, 2 ** 20, 16).to_json(),
        "cover-check": syndetic.cover_check(
            3, 4, [syndetic.EnumerableSet.image_sum(pow2, [[1]])],
            10 ** 3).to_json()}

    monoid = mann.MannMonoid([2, 3])
    unit, unit_cert = mann.solve_unit([1, -1], monoid, 30)
    report["mann"] = {
        "unit": {"solutions": [list(t) for t in unit],
                 "certificate": unit_cert.to_json()},
        "homogeneous": mann.solve_homogeneous([1, 1, -1], monoid, 20).to_json()}
    return report


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def _build_parser():
    parser = _Parser(prog="regseq",
                     description="exact solvers for operators, equations, "
                                 "congruences, and decision problems over "
                                 "regular integer sequences")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("eval", help="evaluate an element or operator value")
    p.add_argument("--seq", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--op", help="optional operator coefficient list")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("classify", help="operator dichotomy verdict")
    p.add_argument("--seq", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--budget")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("solve", help="solution families of a linear equation")
    p.add_argument("--seq", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--oracle",
                   help="cross-check against brute force on [0,N]^s")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("decide", help="bounded decision for a sentence")
    p.add_argument("--seq", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--budget")
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("periodicity", help="congruence profile mod m")
    p.add_argument("--seq", required=True)
    p.add_argument("--modulus", required=True)
    p.set_defaults(fn=_cmd_periodicity)

    p = sub.add_parser("syndetic", help="gap-run and covering reports")
    ssub = p.add_subparsers(dest="syndetic_command", required=True,
                            parser_class=_Parser)
    q = ssub.add_parser("gap-runs")
    q.add_argument("--set", required=True)
    q.add_argument("--horizon", required=True)
    q.add_argument("--d", required=True)
    q.add_argument("--by-gap", action="store_true")
    q.set_defaults(fn=_cmd_gap_runs)
    q = ssub.add_parser("cover-check")
    q.add_argument("--a", required=True)
    q.add_argument("--d", required=True)
    q.add_argument("--images", required=True,
                   help="JSON file: set spec or list of set specs")
    q.add_argument("--horizon", required=True)
    q.set_defaults(fn=_cmd_cover_check)
    q = ssub.add_parser("brown")
    q.add_argument("--set", required=True)
    q.add_argument("--parts", required=True,
                   help="JSON file: set spec or list of set specs "
                        "partitioning the set")
    q.add_argument("--horizon", required=True)
    q.add_argument("--d", required=True)
    q.set_defaults(fn=_cmd_brown)

    p = sub.add_parser("mann", help="equations over multiplicative monoids")
    msub = p.add_subparsers(dest="mann_command", required=True,
                            parser_class=_Parser)
    q = msub.add_parser("solve")
    q.add_argument("--gens", required=True)
    q.add_argument("--eq", required=True)
    q.add_argument("--exp-bound")
    q.set_defaults(fn=_cmd_mann_solve)
    q = msub.add_parser("enumerate")
    q.add_argument("--gens", required=True)
    q.add_argument("--bound", required=True)
    q.set_defaults(fn=_cmd_mann_enumerate)
    q = msub.add_parser("trace")
    q.add_argument("--gens", required=True)
    q.add_argument("--eq", required=True)
    q.add_argument("--exp-bound")
    q.set_defaults(fn=_cmd_mann_trace)

    p = sub.add_parser("verify-ax5", help="constant-shift axiom instance")
    p.add_argument("--seq", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--budget")
    p.set_defaults(fn=_cmd_verify_ax5)

    p = sub.add_parser("verify-ax6", help="offset-family axiom instance")
    p.add_argument("--seq", required=True)
    p.add_argument("--ops", required=True,
                   help="semicolon-separated operator lists, e.g. '[1];[-1]'")
    p.add_argument("--budget")
    p.set_defaults(fn=_cmd_verify_ax6)

    p = sub.add_parser("suite", help="fixed batch across all modules")
    p.add_argument("--out", help="also write the report to this path")
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _read_options(args)
        return args.fn(args)
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except Exception as exc:
        return _report_crash(exc)


def _report_crash(exc):
    """Any other exception (an exhausted resource, a failed self-check) is
    an error too, and exit 1 would read as a False verdict: exit 3, with one
    stderr line that names its class."""
    detail = " ".join(str(exc).split())
    sys.stderr.write("error: %s%s\n" % (type(exc).__name__,
                                         ": " + detail if detail else ""))
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

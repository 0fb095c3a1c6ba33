"""regseq benchmark: four closed-loop workloads against the code in src/.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S

One client asks one question at a time and waits for the answer (a closed
loop; regseq is a library and a one-shot CLI, there is no server).  The loop
runs whole rounds of the seeded question list until S seconds have passed,
then every answer is checked outside the timed region, and the seed
commit's known defects are asked once more and counted.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes over the same rounds and prints the per-layer metrics;
their spans go to .perfbench_out/.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  ``--all`` runs every
workload untraced, one process each, and prints a table.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))
import workloads as W  # noqa: E402  -- imports no regseq

SETUP_SAMPLES = 5        # set-ups per run; setup_s is their median
REF_EVERY_S = 0.2        # how often the timed loop times the reference loop
REF_NOMINAL_S = 0.002    # the reference loop's time at nominal machine speed
TAIL_BEYOND = 10         # samples that must lie beyond the tail percentile
CHILD_TIMEOUT_S = 60
POLYOPS_FUNCTIONS = ("sturm_chain", "isolate_largest_root_above",
                     "refine_root_interval", "is_irreducible")
END_TO_END = (("answer_p50_ms", "ms"), ("answer_tail_ms", "ms"),
              ("answers_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _probe(args):
    """Run a short child to completion and return its last stdout line."""
    proc = subprocess.run([sys.executable] + args, env=_child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("probe %s failed: %s" % (args, proc.stderr[-2000:]))
    return proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""


def _setup_probe(workload):
    return float(_probe([str(HERE / "run.py"), "--setup-only", "--workload", workload]))


def _interp_probe():
    start = time.perf_counter()
    _probe(["-c", "pass"])
    return time.perf_counter() - start


def reference_loop():
    """Seconds taken by a fixed pure-Python loop: the run's yardstick for how
    fast the machine is at the moment, timed between questions."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - start


def _spawn_timed(argv, cwd, out_path, err_path):
    """Run one child; return (seconds from spawn to reaped, exit code, peak
    RSS in KiB).  The child is killed after CHILD_TIMEOUT_S."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


# ---------------------------------------------------------------------------
# Asking questions
# ---------------------------------------------------------------------------

def _outcome(rec):
    return rec["text"], rec["error"], rec.get("exit")


class Answers:
    """A run's answers, kept per distinct question: the first answer, how
    often the question was asked, and each later answer that differed from
    the first.  Answers are deterministic, so a differing one is wrong; the
    rest stand or fall with the first.  Memory stays bounded by the number
    of distinct questions, not by how many the program answered."""

    def __init__(self):
        self.first = {}          # key -> (question, record)
        self.count = {}          # key -> times asked
        self.differing = []      # (key, question, record)

    def add(self, q, rec):
        key = json.dumps(q, sort_keys=True)
        if key not in self.first:
            self.first[key] = (q, rec)
            self.count[key] = 1
            return
        self.count[key] += 1
        if _outcome(rec) != _outcome(self.first[key][1]):
            self.differing.append((key, q, rec))

    def __len__(self):
        return sum(self.count.values())

    def _same_as_first(self, key):
        return self.count[key] - sum(1 for k, _q, _rec in self.differing if k == key)

    def weighted(self):
        """(question, record, times that record was given)."""
        for key, (q, rec) in self.first.items():
            yield q, rec, self._same_as_first(key)
        for _key, q, rec in self.differing:
            yield q, rec, 1

    def failures(self, checker):
        """Number of wrong answers: every differing one, and every copy of a
        first answer that fails its check."""
        failed = len(self.differing)
        for key, (q, rec) in self.first.items():
            if not checker.check(q, rec):
                failed += self._same_as_first(key)
        return failed


class Session:
    """One run's state: what was asked, what came back, how long it took."""

    def __init__(self, workload, trace):
        self.workload = workload
        self.trace = trace
        self.answers = Answers()
        self.asked = 0
        self.times = {False: [], True: []}   # by traced
        self.terms = []          # sequence terms computed, per question
        self.max_bits = 0
        self.child_rss_kib = 0
        self.span_files = []
        self.refs = []           # reference-loop timings through the run
        self.state = None
        self.tracer = None
        self.workdir = None

    def ask(self, q, traced=False):
        """Ask one question in process; returns its record."""
        self.asked += 1
        if traced:
            self.tracer.question = self.asked
            self.tracer.install()
        warm = list(self.state.handles.values())
        before = sum(W.handle_terms(h)[0] for h in warm)
        start = time.perf_counter()
        try:
            obj, handle = W.answer(self.state, q)
            error = None
        except Exception as exc:  # an unexpected exception is a failed answer
            obj = handle = None
            error = type(exc).__name__
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.remove()
        self.times[traced].append(elapsed)
        rec = {"error": error, "text": None}
        if error is None:
            from regseq.jsonio import dumps
            try:
                rec["text"] = dumps(W.answer_json(q, obj, handle))
            except ValueError as exc:  # the CLI could not print it either
                rec["error"] = type(exc).__name__
            if q["kind"] == "solve":
                rec["obj"] = obj  # the checker expands the description
        if warm:
            self.terms.append(sum(W.handle_terms(h)[0] for h in warm) - before)
            self.max_bits = max([self.max_bits] + [W.handle_terms(h)[1] for h in warm])
        elif handle is not None:
            terms, bits = W.handle_terms(handle)
            self.terms.append(terms)
            self.max_bits = max(self.max_bits, bits)
        else:
            self.terms.append(0)
        return rec

    def ask_cli(self, q, traced=False):
        """Ask one question as a fresh regseq process; returns its record."""
        self.asked += 1
        for f in q["files"]:
            (self.workdir / f["name"]).write_text(f["text"])
        out_path = self.workdir / ("out%d" % self.asked)
        err_path = self.workdir / ("err%d" % self.asked)
        if traced:
            spans = self.workdir / ("spans%d" % self.asked)
            argv = [sys.executable, str(HERE / "cli_child.py"), str(spans), "--"]
            self.span_files.append(spans)
        else:
            argv = [sys.executable, "-m", "regseq.cli"]
        elapsed, code, rss = _spawn_timed(argv + q["argv"], self.workdir,
                                          out_path, err_path)
        self.times[traced].append(elapsed)
        if not traced and "defect" not in q:
            self.child_rss_kib = max(self.child_rss_kib, rss)
        if traced:
            counters = json.loads(Path(str(spans) + ".json").read_text())
            self.terms.append(counters["terms"])
            self.max_bits = max(self.max_bits, counters["bits"])
        rec = {"error": None, "exit": code,
               "text": out_path.read_text().strip(),
               "stderr": err_path.read_text()}
        out_path.unlink()
        err_path.unlink()
        return rec

    def ask_any(self, q, traced=False):
        if self.workload == "cli-cold":
            return self.ask_cli(q, traced)
        return self.ask(q, traced)


def _timed_loop(session, rounds, seconds):
    """Whole rounds, as many as come nearest to `seconds`: a round holds the
    workload's full mix, so cutting one short would skew the mix.  Traced
    runs ask every round twice, untraced and traced, alternating which pass
    goes first."""
    start = time.perf_counter()
    next_ref = start
    r = 0
    while True:
        questions = rounds[r % len(rounds)]
        passes = [False]
        if session.trace:
            passes = [False, True] if r % 2 == 0 else [True, False]
        for traced in passes:
            for q in questions:
                session.answers.add(q, session.ask_any(q, traced))
                if time.perf_counter() >= next_ref:
                    session.refs.append(reference_loop())
                    next_ref = time.perf_counter() + REF_EVERY_S
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / r / 2 >= seconds:
            return elapsed, r


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(samples):
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum if there are too few."""
    ordered = sorted(samples)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < 0:
        index = len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def checker():
    from checker import Checker
    return Checker()


def fail_frac(stream_failed, stream_attempted, defects_reproduced, defects_asked):
    return (stream_failed + defects_reproduced) / (stream_attempted + defects_asked)


def _answer_stats(answers):
    """Diagnostics read from the answers themselves (0 where a workload asks
    no question of that kind)."""
    seen = {k: [] for k in ("operators", "equations", "box", "decide",
                            "unknown", "scanned", "base", "exit3")}
    for q, rec, times in answers.weighted():
        if rec.get("exit") is not None:
            seen["exit3"] += [rec["exit"] == 3] * times
        if rec["error"] is not None or not rec["text"].startswith("{"):
            continue
        value = json.loads(rec["text"])
        kind = q.get("cmd", q["kind"])
        proved = value.get("certificate", {}).get("level") == "Proved"
        if kind in ("classify", "ax5"):
            seen["operators"] += [proved] * times
        elif kind == "solve":
            seen["equations"] += [proved] * times
            seen["box"] += [max([int(c["solutions"]["bound"])
                                 for c in value["cases"] if "solutions" in c] or [0])] * times
        elif kind == "decide":
            seen["decide"] += [proved] * times
            seen["unknown"] += [value["verdict"] == "UnknownBeyond"] * times
        elif kind in ("mann-hom", "mann-trace"):
            seen["scanned"] += [int(value["scanned"])] * times
            seen["base"] += [len(value["base"])] * times
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    return {"operators.proved_frac": (mean(seen["operators"]), "share"),
            "equations.proved_frac": (mean(seen["equations"]), "share"),
            "equations.box_mean": (mean(seen["box"]), "index"),
            "decide.proved_frac": (mean(seen["decide"]), "share"),
            "decide.unknown_frac": (mean(seen["unknown"]), "share"),
            "mann.scanned": (mean(seen["scanned"]), "count/q"),
            "mann.base": (mean(seen["base"]), "count/q"),
            "cli.exit3_frac": (mean(seen["exit3"]), "share")}


def _layer_metrics(session, traced_questions, scale):
    """Per-layer metrics per traced question; times scaled like the
    end-to-end ones."""
    from tracer import LAYERS, layer_times, merge_spans, write_spans
    per_q = lambda x: x / max(traced_questions, 1)
    if session.workload == "cli-cold":
        names, columns = merge_spans([str(p) for p in session.span_files])
    else:
        names, columns = session.tracer.names, session.tracer.columns
    functions = ["polyops." + f for f in POLYOPS_FUNCTIONS] + \
        ["mann.MannMonoid.enumerate", "mann.MannMonoid.contains"]
    per_layer, per_fn = layer_times(names, columns, functions)
    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".calls"] = (per_q(per_layer[layer]["calls"]), "count/q")
        metrics[layer + ".busy_s"] = (per_q(per_layer[layer]["busy_s"]) * scale, "s/q")
        metrics[layer + ".self_s"] = (per_q(per_layer[layer]["self_s"]) * scale, "s/q")
    for f in POLYOPS_FUNCTIONS:
        metrics["polyops.%s.calls" % f] = (per_q(per_fn["polyops." + f]["calls"]), "count/q")
        metrics["polyops.%s.busy_s" % f] = (per_q(per_fn["polyops." + f]["busy_s"]) * scale,
                                            "s/q")
    metrics["mann.enumerate_calls"] = (per_q(per_fn["mann.MannMonoid.enumerate"]["calls"]),
                                       "count/q")
    metrics["mann.contains_calls"] = (per_q(per_fn["mann.MannMonoid.contains"]["calls"]),
                                      "count/q")
    out_path = OUT_DIR / ("trace-%s.spans" % session.workload)
    OUT_DIR.mkdir(exist_ok=True)
    write_spans(str(out_path), names, columns)
    return metrics, out_path


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def _environment(seed, rounds):
    try:
        from importlib.metadata import version
        sympy_version = version("sympy")
    except Exception:  # metadata missing: report, do not fail the run
        sympy_version = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return ("seed=%d questions=%s (%d rounds of %d) commit=%s python=%s sympy=%s nproc=%s"
            % (seed, W.list_hash(rounds), len(rounds), len(rounds[0]), commit,
               sys.version.split()[0], sympy_version, os.cpu_count()))


def run_workload(workload, seed, seconds, trace):
    rounds = W.question_rounds(workload, seed)
    print("# regseq benchmark workload=%s trace=%d %s"
          % (workload, trace, _environment(seed, rounds)), flush=True)
    session = Session(workload, trace)
    TMP_ROOT.mkdir(exist_ok=True)
    session.workdir = TMP_ROOT / ("%s-%d-%d" % (workload, seed, os.getpid()))
    session.workdir.mkdir()
    try:
        return _run(session, rounds, seconds)
    finally:
        shutil.rmtree(session.workdir, ignore_errors=True)


def _run(session, rounds, seconds):
    workload = session.workload
    in_process = workload != "cli-cold"
    setup_refs = []

    def between_refs(step):
        """Run a set-up step with a reference timing on either side."""
        setup_refs.append(reference_loop())
        value = step()
        setup_refs.append(reference_loop())
        return value

    setups = [between_refs(lambda: _setup_probe(workload))
              for _ in range(SETUP_SAMPLES - (1 if in_process else 0))]
    probes = {}
    if session.trace:
        probes["cli.interp_s"] = between_refs(_interp_probe)
        probes["cli.import_s"] = between_refs(lambda: _setup_probe("cli-cold"))
    if in_process:
        session.state = between_refs(lambda: W.setup(workload))
        setups.append(session.state.setup_s)
        if session.trace:
            from tracer import Tracer
            session.tracer = Tracer()

    elapsed, nrounds = _timed_loop(session, rounds, seconds)
    if in_process:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        rss_mb = session.child_rss_kib / 1024
    asked = len(session.answers)
    terms, max_bits = list(session.terms), session.max_bits
    untraced, traced = list(session.times[False]), list(session.times[True])

    defects = W.CLI_DEFECTS if workload == "cli-cold" else W.DEFECTS
    defect_records = [(q, session.ask_any(q)) for q in defects]
    check_start = time.perf_counter()
    check = checker()
    stream_failed = session.answers.failures(check)
    reproduced = [q["defect"] for q, rec in defect_records if not check.check(q, rec)]
    check_s = time.perf_counter() - check_start
    frac = fail_frac(stream_failed, asked, len(reproduced), len(defects))
    print("answers: %d (%d distinct) in %d rounds over %.2f s, checked in %.2f s; "
          "fail_frac %.6f = (%d wrong in the timed stream + %d of %d known defects "
          "reproduced [%s]) / %d asked"
          % (asked, len(session.answers.first), nrounds, elapsed, check_s, frac,
             stream_failed, len(reproduced), len(defects),
             ", ".join(reproduced) or "none", asked + len(defects)))

    # The machine's speed drifts by tens of percent over minutes, so every
    # time metric is scaled to nominal speed by the reference loop timed
    # around it: loop timings for answers, set-up timings for set-up.
    loop_ref, setup_ref = statistics.median(session.refs), statistics.median(setup_refs)
    scale, setup_scale = REF_NOMINAL_S / loop_ref, REF_NOMINAL_S / setup_ref
    print("machine speed: reference loop %.4f ms in the timed loop (%d timings), %.4f ms "
          "around set-up (%d), nominal %.4f ms; time metrics are wall times scaled by "
          "%.4f and %.4f" % (loop_ref * 1000, len(session.refs), setup_ref * 1000,
                             len(setup_refs), REF_NOMINAL_S * 1000, scale, setup_scale))
    notes = {}
    if not session.trace:
        tail_value, tail_pct = tail(untraced)
        wall = {"answer_p50_ms": statistics.median(untraced) * 1000,
                "answer_tail_ms": tail_value * 1000,
                "answers_per_s": len(untraced) / sum(untraced),
                "setup_s": statistics.median(setups)}
        print("unscaled wall times: " + ", ".join("%s %.6f" % kv for kv in wall.items()))
        metrics = {"answer_p50_ms": (wall["answer_p50_ms"] * scale, "ms"),
                   "answer_tail_ms": (wall["answer_tail_ms"] * scale, "ms"),
                   "answers_per_s": (wall["answers_per_s"] / scale, "1/s"),
                   "setup_s": (wall["setup_s"] * setup_scale, "s"),
                   "peak_rss_mb": (rss_mb, "MB")}
        shown = dict(metrics, fail_frac=(frac, "share"))
        notes["answer_tail_ms"] = "p%.2f of %d answers" % (tail_pct, len(untraced))
        notes["setup_s"] = "median of %d set-ups" % len(setups)
        notes["answers_per_s"] = "%d answers in %.2f s timed" % (len(untraced), sum(untraced))
    else:
        metrics = {name: (value * setup_scale, "s") for name, value in probes.items()}
        layers, spans_path = _layer_metrics(session, len(traced), scale)
        metrics.update(layers)
        metrics.update(_answer_stats(session.answers))
        metrics["sequences.terms_computed"] = (statistics.fmean(terms), "count/q")
        metrics["sequences.max_bits"] = (max_bits, "bits")
        paired = min(len(traced), len(untraced))
        metrics["trace.overhead_frac"] = (
            sum(traced[:paired]) / sum(untraced[:paired]) - 1, "share")
        metrics["checker.fail_frac"] = (frac, "share")
        metrics["checker.defects_reproduced"] = (len(reproduced), "count")
        metrics["machine.ref_ms"] = (loop_ref * 1000, "ms")
        notes["trace.overhead_frac"] = "%d answers traced and untraced" % paired
        shown = metrics
        print("spans written to %s" % spans_path.relative_to(ROOT))
    for name, (value, unit) in shown.items():
        note = "  (%s)" % notes[name] if name in notes else ""
        print("%-40s %18.6f %-8s%s" % (name, value, unit, note))
    return {"correct": not stream_failed, "attempted": asked,
            "failed": stream_failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(seed, seconds):
    """Every workload untraced, one process each; prints a table."""
    rows = []
    ok = True
    for workload in W.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            ok = False
            continue
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        frac = next(float(l.split("fail_frac ")[1].split()[0]) for l in lines
                    if l.startswith("answers:"))
        rows.append((workload, result, frac))
    names = [n for n, _ in END_TO_END] + ["fail_frac"]
    print()
    print("%-12s" % "workload" + "".join("%18s" % n for n in names))
    for workload, result, frac in rows:
        values = [result["metrics"][n]["value"] for n, _ in END_TO_END] + [frac]
        print("%-12s" % workload + "".join("%18.4f" % v for v in values))
    print("%-12s" % "unit" + "".join("%18s" % u for _, u in END_TO_END) + "%18s" % "share")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and print a table")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up of --workload and print it")
    args = parser.parse_args(argv)
    if not (SRC / "regseq" / "__init__.py").is_file():
        sys.stderr.write("error: no regseq sources at %s\n" % SRC)
        return 2
    if args.all:
        return 0 if run_all(args.seed, args.seconds) else 1
    if args.workload is None:
        parser.error("--workload or --all is required")
    if args.setup_only:
        print(repr(W.setup(args.workload).setup_s))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

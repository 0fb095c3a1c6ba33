"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Runs a one-second instance of every workload, untraced and traced, and
asserts that each metric named in BENCHMARK.json is printed with its unit,
both in the report and in the final JSON line.  Then feeds deliberately
wrong answers to the checker and asserts that they are counted in
fail_frac.  Exits 0 when everything holds.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402


def _tiny_run(workload, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (workload, trace, proc.stderr[-3000:])
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["attempted"] >= 1 and result["correct"], (workload, result)
    return lines[:-1], result


def check_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in W.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            report, result = _tiny_run(workload, trace)
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted, (workload, trace, set(got) ^ set(wanted))
            for name, unit in wanted.items():
                assert any(line.split()[:1] == [name] and unit in line.split()
                           for line in report), (workload, name)
            assert any("fail_frac" in line for line in report), workload
            print("ok  %-10s trace=%d  %d metrics with units" % (workload, trace, len(wanted)))


def check_wrong_answers_counted():
    session = run.Session("solve-deep", trace=0)
    session.state = W.setup("solve-deep")
    questions = [
        {"kind": "solve", "seq": "fib", "ops": [[1], [1], [-1]], "z": 0},
        {"kind": "decide", "seq": "pow2", "text": "E x1 in R. E x2 in R. x1 + x2 = 12"},
        {"kind": "mann-unit", "gens": [2, 3], "coeffs": ["1", "-1"], "exp": 10},
        {"kind": "mann-hom", "gens": [2, 3], "coeffs": [1, 1, -1], "exp": 8},
    ]
    answers = run.Answers()
    for q in questions:
        for _ in range(2):
            answers.add(q, session.ask(q))
    assert answers.failures(run.checker()) == 0, "honest answers must pass"

    solve, decide, unit, hom = (answers.first[k][1] for k in answers.first)
    solve["obj"].cases = []      # no longer matches brute force
    verdict = json.loads(decide["text"])
    verdict["verdict"] = "False"     # but 4 + 8 = 12
    decide["text"] = json.dumps(verdict)
    value = json.loads(unit["text"])
    value["solutions"].append(["5", "4"])    # 5 is not in the monoid
    unit["text"] = json.dumps(value)
    answers.add(W._MALFORMED[0], {"error": None, "exit": 1, "text": "",
                                  "stderr": "error: x\n"})     # must exit 3
    answers.add(questions[3], dict(hom, text=hom["text"].replace("1", "2", 1)))
    failed = answers.failures(run.checker())
    assert failed == 8, failed
    frac = run.fail_frac(failed, len(answers), 0, 0)
    assert frac == 0.8, frac
    print("ok  wrong answers counted: fail_frac %.2f = %d of %d doctored or repeated"
          % (frac, failed, len(answers)))


if __name__ == "__main__":
    check_wrong_answers_counted()
    check_metrics_printed()
    print("selftest passed")

"""Record the benchmark's end-to-end metrics in a committed BENCH_<n>.json.

    python3 tools/bench_record.py --out BENCH_26.json --seed 13 --seconds 24 \\
        --runs 6 --runs solve-deep=10 --point parent=HEAD~1 --point change=HEAD

Each point is a commit of this repository, extracted with `git archive` into
a fresh directory.  For each workload of BENCHMARK.json the runs alternate
between the points, one fresh `perfbench/run.py --workload W --seed S
--seconds T` process each, and each round of runs takes the points in the
other order than the last, so that a drift of the machine's speed falls on
every point alike.  The last stdout line of a run is its JSON result.

The record holds, per point and workload, the median and quartiles of each
end-to-end metric and of the answer count, with every run's values and its
failed answers; per workload, the number of run pairs in which the last
point beats the first on each metric; and the seed, the run length, the
Python version and `nproc`.  `--runs W=N` sets the runs of one workload.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _extract(commit, into):
    """The committed files of commit, in the fresh directory into."""
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return into


def _run(tree, workload, seed, seconds):
    """One perfbench run in tree: its JSON result, or None if it failed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("run failed: %s %s\n%s" % (tree, workload, proc.stderr[-2000:]))
        return None
    return json.loads(lines[-1])


def _summary(values):
    """Median and quartiles (inclusive method) of values."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _record(results, end_to_end):
    """The summary of one point's runs of one workload."""
    done = [r for r in results if r is not None]
    out = {"runs": len(results), "failed_runs": len(results) - len(done)}
    if not done:
        return out
    answers = [r["attempted"] for r in done]
    out["answers"] = dict(_summary(answers), values=answers)
    out["failed_answers"] = [r["failed"] for r in done]
    out["metrics"] = {}
    for metric in end_to_end:
        values = [r["metrics"][metric["name"]]["value"] for r in done]
        out["metrics"][metric["name"]] = dict(_summary(values), unit=metric["unit"],
                                              values=values)
    return out


def _pairs(first, last, end_to_end):
    """Per metric, the run pairs in which last beats first."""
    out = {}
    for metric in end_to_end:
        sign = 1 if metric["better"] == "higher" else -1
        name = metric["name"]
        pairs = [(a, b) for a, b in zip(first, last) if a is not None and b is not None]
        better = sum(sign * (b["metrics"][name]["value"] - a["metrics"][name]["value"]) > 0
                     for a, b in pairs)
        out[name] = {"better": better, "of": len(pairs)}
    return out


def _runs_per_workload(specs, workloads):
    runs = dict.fromkeys(workloads, 5)
    for spec in specs:
        name, _, count = spec.rpartition("=")
        for workload in ([name] if name else workloads):
            if workload not in runs:
                raise SystemExit("error: unknown workload %r" % workload)
            runs[workload] = int(count)
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="the record to write")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--runs", action="append", default=[],
                        help="runs per workload and point (default 5), or W=N for one")
    parser.add_argument("--point", action="append", default=[],
                        help="LABEL=COMMIT (default: change=HEAD)")
    parser.add_argument("--workload", action="append", default=[],
                        help="a workload to run (default: all of BENCHMARK.json)")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = bench["end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    runs = _runs_per_workload(args.runs, workloads)
    points = [p.partition("=")[::2] for p in args.point or ["change=HEAD"]]
    record = {"seed": args.seed, "seconds": args.seconds,
              "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
              "points": [{"label": label, "commit": _git("rev-parse", commit)}
                         for label, commit in points],
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_record_") as scratch:
        trees = [_extract(point["commit"], Path(scratch) / point["label"])
                 for point in record["points"]]
        for workload in workloads:
            results = [[] for _ in trees]
            for i in range(runs[workload]):
                order = list(zip(trees, results))[::1 if i % 2 == 0 else -1]
                for tree, out in order:
                    result = _run(tree, workload, args.seed, args.seconds)
                    out.append(result)
                    shown = result and {k: round(v["value"], 3)
                                        for k, v in result["metrics"].items()}
                    print("%s %s run %d: %s" % (tree.name, workload, i + 1, shown), flush=True)
            entry = {"points": {point["label"]: _record(out, end_to_end)
                                for point, out in zip(record["points"], results)}}
            if len(trees) > 1:
                entry["pairs"] = _pairs(results[0], results[-1], end_to_end)
            record["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

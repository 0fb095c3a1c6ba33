"""Traced stand-in for ``python -m regseq.cli``.

    python3 perfbench/cli_child.py SPANS_PATH -- <regseq arguments>

Runs the same ``regseq.cli.main`` with every layer wrapped, then writes the
spans to SPANS_PATH and the sequence-cache counters to SPANS_PATH.json, and
exits with the CLI's own exit code (a traceback still exits 1).
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import regseq.cli  # noqa: E402
from regseq import sequences  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import handle_terms  # noqa: E402


def main(argv):
    spans_path = argv[0]
    if argv[1] != "--":
        raise SystemExit("usage: cli_child.py SPANS_PATH -- ARGS...")
    handles = []
    init = sequences.SequenceHandle.__init__

    def recording_init(self, spec):
        init(self, spec)
        handles.append(self)

    sequences.SequenceHandle.__init__ = recording_init
    tracer = Tracer()
    tracer.install()
    tracer.question = 0
    try:
        return regseq.cli.main(argv[2:])
    finally:
        tracer.remove()
        tracer.dump(spans_path)
        # parts are handles of their own and were recorded separately
        terms = sum(len(h.cache) for h in handles)
        bits = max([handle_terms(h)[1] for h in handles] or [0])
        with open(spans_path + ".json", "w") as fh:
            json.dump({"terms": terms, "bits": bits}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

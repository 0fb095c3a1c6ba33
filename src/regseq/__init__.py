"""regseq: exact solvers for regular integer sequences.

Submodules:

* sequences   -- sequence specs, evaluation, Kepler limits, dominance bounds
* operators   -- integer shift operators and the finite-roots/cofinite-zero
                 dichotomy with certificates
* equations   -- shift-pattern solver for sums of operators over a sequence
* congruence  -- eventual periodicity of r_n mod m and divisibility index sets
* formulas    -- parser and normal forms for the decision language
* decide      -- bounded three-valued decision procedure and axiom checks
* syndetic    -- gap-run statistics, covering checks, partition diagnostics
* mann        -- unit and homogeneous equations over multiplicative monoids
* cli         -- the ``regseq`` command-line entry point

Submodules load on first use: ``import regseq`` loads none of them, and
``regseq.<name>`` or ``from regseq import <name>`` imports the one named
(with what it imports itself) through the module ``__getattr__`` below
(PEP 562).  A one-shot ``regseq`` process thus compiles only the layers its
subcommand runs, which is most of its start-up time when no cached bytecode
is at hand.
"""

import importlib

__version__ = "0.1.0"

__all__ = ["certs", "polyops", "sequences", "operators", "equations",
           "congruence", "formulas", "decide", "syndetic", "mann",
           "jsonio", "cli", "__version__"]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

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
* cli         -- the ``regseq`` command-line entry point (not imported here,
                 so ``python -m regseq.cli`` runs the module once)
"""

__version__ = "0.1.0"

from . import certs
from . import polyops
from . import sequences
from . import operators
from . import equations
from . import congruence
from . import formulas
from . import decide
from . import syndetic
from . import mann
from . import jsonio

__all__ = ["certs", "polyops", "sequences", "operators", "equations",
           "congruence", "formulas", "decide", "syndetic", "mann",
           "jsonio", "cli", "__version__"]

"""Proof-level certificates attached to verdicts.

Every nontrivial answer in this package carries one of two tags:

* ``Proved(reason)`` -- the statement holds for *all* indices, backed by an
  exact argument (growth dominance, nonvanishing at the limit ratio, or
  polynomial divisibility).
* ``BoundedCheck(N)`` -- the statement was verified exhaustively for all
  indices up to N and nothing more is claimed.

Certificates are deliberately tiny value objects so they can be embedded in
JSON reports and compared in tests.
"""

# Canonical reasons used by the operator classifier.  Dominance and
# completeness machinery may attach more specific internal reasons
# ("exact-ratio", "contraction").
REASON_THETA_INFINITE = "theta-infinite-dominance"
REASON_NONVANISHING = "nonvanishing-at-theta"
REASON_MINPOLY_DIVIDES = "minpoly-divides"


class Certificate:
    """Base class; use the ``Proved`` / ``BoundedCheck`` constructors."""

    __slots__ = ()

    @property
    def is_proved(self):
        return isinstance(self, Proved)

    def to_json(self):
        raise NotImplementedError


class Proved(Certificate):
    __slots__ = ("reason",)

    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return "Proved(%r)" % (self.reason,)

    def __eq__(self, other):
        return isinstance(other, Proved) and other.reason == self.reason

    def __hash__(self):
        return hash(("Proved", self.reason))

    def to_json(self):
        return {"level": "Proved", "reason": self.reason}


class BoundedCheck(Certificate):
    __slots__ = ("n",)

    def __init__(self, n):
        self.n = int(n)

    def __repr__(self):
        return "BoundedCheck(%d)" % (self.n,)

    def __eq__(self, other):
        return isinstance(other, BoundedCheck) and other.n == self.n

    def __hash__(self):
        return hash(("BoundedCheck", self.n))

    def to_json(self):
        return {"level": "BoundedCheck", "N": str(self.n)}


def merge(certs, reason):
    """Combine sub-certificates: Proved(reason) only if every part is Proved
    (so an empty list gives Proved(reason)).

    When some part is a bounded check, the merged certificate keeps the
    smallest verified window (the weakest link).
    """
    certs = list(certs)
    if all(c.is_proved for c in certs):
        return Proved(reason)
    window = min(c.n for c in certs if not c.is_proved)
    return BoundedCheck(window)

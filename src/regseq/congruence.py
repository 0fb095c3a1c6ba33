"""Eventual periodicity of (r_n mod m) and divisibility index sets.

Every supported sequence kind reduces to a finite-state machine modulo m:
a recurrence walks its window of k residues (a power q^n is the order-1
case), factorial growth carries (residue, n mod m) since the step
multiplier n+3 only matters mod m (until the residue is 0), and sums run
their parts' machines in lockstep.  The finite state space forces the orbit
onto a rho-shaped tail, which a first-repeat dictionary walk finds with
minimal state preperiod and period; a residue-level minimization pass
afterwards shrinks them further when the state carries extra bookkeeping
(factorial does, and sum parts with unequal preperiods do).  The walk stops
at MAX_STATES states: a longer orbit is refused (BoundedProfileError), and
decide then scans its window instead.

Table-backed sequences, and sums with a table part, have no finite state
guarantee.  Their terms are streamed instead: the period is detected
empirically, with a 5-period verification window, and the profile is only
evidence over the streamed window (a BoundedCheck certificate).  A table
without a generator, or a part that runs out within the stream, is refused
outright (BoundedProfileError).
"""

import bisect
from math import gcd

from . import sequences as sq
from .certs import Proved, BoundedCheck, merge

STREAM_BUDGET = 4096
# Most states a state-machine profile walks; past it the profile is refused
# (BoundedProfileError).  It matches the ceiling of `eval --n`
# (cli.OPTION_RANGES), so no index a profile hands to decide costs more to
# evaluate than the CLI admits.  Without it, fib mod 1000003 would walk its
# whole period of 2,000,008 states.
MAX_STATES = 10_000


class BoundedProfileError(ValueError):
    """No certified profile; carries the scanned residue prefix."""

    def __init__(self, message, prefix):
        self.prefix = list(prefix)
        super().__init__(message)


class CongruenceProfile:
    """(r_n mod m) is periodic with period p from preperiod rho on; the
    residues table covers n < rho + p, which determines every value.  The
    certificate is Proved for a state-machine profile and a BoundedCheck
    over the streamed window for a detected one."""

    def __init__(self, m, rho, p, residues, cert):
        self.m = int(m)
        self.rho = int(rho)
        self.p = int(p)
        self.residues = tuple(int(r) for r in residues)
        self.cert = cert
        assert len(self.residues) == self.rho + self.p

    def predict(self, n):
        if n < self.rho:
            return self.residues[n]
        return self.residues[self.rho + (n - self.rho) % self.p]

    def __repr__(self):
        return "CongruenceProfile(m=%d, rho=%d, p=%d)" % (self.m, self.rho, self.p)

    def to_json(self):
        return {"m": str(self.m), "preperiod": str(self.rho), "period": str(self.p),
                "residues": [str(r) for r in self.residues]}


class PeriodicIndexSet:
    """An eventually periodic set of indices: below rho the members are
    listed explicitly; at rho and beyond, membership is n mod p in classes.
    The certificate records whether this is an exact description or a
    bounded approximation."""

    def __init__(self, rho, p, classes, members, cert):
        self.rho = max(0, int(rho))
        self.p = max(1, int(p))
        self.classes = frozenset(int(c) % self.p for c in classes)
        self.members = tuple(sorted(set(int(m) for m in members if m < self.rho)))
        self.cert = cert

    @staticmethod
    def full():
        return PeriodicIndexSet(0, 1, (0,), (), Proved("vacuous-constraint"))

    @staticmethod
    def finite(members, cert):
        rho = (max(members) + 1) if members else 0
        return PeriodicIndexSet(rho, 1, (), members, cert)

    @staticmethod
    def cofinite(excluded, cert):
        rho = (max(excluded) + 1) if excluded else 0
        excluded = set(excluded)
        members = [n for n in range(rho) if n not in excluded]
        return PeriodicIndexSet(rho, 1, (0,), members, cert)

    def contains(self, n):
        if n < self.rho:
            # the members are sorted: a bisection, not a scan of the tuple
            i = bisect.bisect_left(self.members, n)
            return i < len(self.members) and self.members[i] == n
        return (n % self.p) in self.classes

    def is_empty(self):
        return not self.members and not self.classes

    def is_finite(self):
        return not self.classes

    def complement(self):
        if self.is_finite():
            return PeriodicIndexSet.cofinite(
                [n for n in range(self.rho) if self.contains(n)], self.cert)
        members = [n for n in range(self.rho) if not self.contains(n)]
        classes = [c for c in range(self.p) if c not in self.classes]
        return PeriodicIndexSet(self.rho, self.p, classes, members, self.cert)

    def shift(self, k):
        """The set { l : l + k in self } for k >= 0."""
        classes = frozenset((c - k) % self.p for c in self.classes)
        members = [l for l in range(self.rho) if self.contains(l + k)]
        return PeriodicIndexSet(self.rho, self.p, classes, members, self.cert)

    def intersect(self, other):
        p = self.p * other.p // gcd(self.p, other.p)
        rho = max(self.rho, other.rho)
        members = [n for n in range(rho)
                   if self.contains(n) and other.contains(n)]
        classes = []
        for c in range(p):
            n = rho + ((c - rho) % p)
            if self.contains(n) and other.contains(n):
                classes.append(c)
        cert = merge([self.cert, other.cert], reason="index-set-arithmetic")
        return PeriodicIndexSet(rho, p, classes, members, cert)

    def head(self, k):
        """The k smallest members (all of them when the set is smaller)."""
        out = list(self.members[:k])
        n = self.rho
        while self.classes and len(out) < k:
            if (n % self.p) in self.classes:
                out.append(n)
            n += 1
        return out


# ---------------------------------------------------------------------------
# State machines mod m
# ---------------------------------------------------------------------------

def _machine(spec, m):
    """(initial_state, step, residue_of) for the sequence modulo m, or None
    when the kind has no finite-state presentation (tables)."""
    if spec.kind == sq.KIND_RECURRENCE:
        k = len(spec.coeffs)
        init = tuple(v % m for v in spec.initials)
        coeffs = spec.coeffs

        def step(s):
            nxt = sum(c * r for c, r in zip(coeffs, s)) % m
            return s[1:] + (nxt,)

        return init, step, (lambda s: s[0])
    if spec.kind == sq.KIND_FACTORIAL:
        # r_0 = 2 and r_{n+1} = (n+3) r_n; the multiplier is n+3 mod m.  A
        # residue 0 stays 0, so its counter is dropped: (0, 0) is a fixed
        # point, and mod a prime p the walk takes p states, not 2p - 1.
        def step(s):
            res, nm = s
            res = (res * ((nm + 3) % m)) % m
            return (res, (nm + 1) % m if res else 0)

        return (2 % m, 0), step, (lambda s: s[0])
    if spec.kind == sq.KIND_SUM:
        subs = [_machine(p, m) for p in spec.parts]
        if any(s is None for s in subs):
            return None
        inits = tuple(s[0] for s in subs)

        def step(states):
            return tuple(sub[1](st) for sub, st in zip(subs, states))

        def residue(states):
            return sum(sub[2](st) for sub, st in zip(subs, states)) % m

        return inits, step, residue
    return None


def _minimize(residues, rho, p):
    """Shrink (rho, p) to the residue-level minimum.

    residues must cover [0, rho + 2p).  The minimal eventual period divides
    any eventual period, so only divisors of p are candidates; a candidate
    verified on [rho', rho + p) extends to all n by the known p-periodicity.
    """
    for cand in sorted(d for d in range(1, p + 1) if p % d == 0):
        if all(residues[n + cand] == residues[n] for n in range(rho, rho + p)):
            r = rho
            while r > 0 and residues[r - 1 + cand] == residues[r - 1]:
                r -= 1
            return r, cand
    return rho, p


def profile(handle, m):
    """The congruence profile of the sequence mod m (cached on the handle)."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    key = m
    if key in handle._profiles:
        return handle._profiles[key]
    spec = handle.spec
    machine = _machine(spec, m)
    if machine is not None:
        init, step, residue_of = machine
        seen = {}
        state = init
        residues = []
        n = 0
        while state not in seen:
            if n == MAX_STATES:
                raise BoundedProfileError(
                    "no state repeats within %d steps modulo %d "
                    "(congruence.MAX_STATES): no certified profile"
                    % (MAX_STATES, m), residues)
            seen[state] = n
            residues.append(residue_of(state))
            state = step(state)
            n += 1
        rho0 = seen[state]
        p0 = n - rho0
        # ensure residues cover rho0 + 2 p0 for the minimization pass
        while len(residues) < rho0 + 2 * p0:
            residues.append(residue_of(state))
            state = step(state)
        rho, p = _minimize(residues, rho0, p0)
        cert = Proved("congruence-profile")
    else:
        residues, rho, p = _stream_profile(handle, m)
        cert = BoundedCheck(STREAM_BUDGET)
    prof = CongruenceProfile(m, rho, p, residues[:rho + p], cert)
    handle._profiles[key] = prof
    return prof


def _stream_profile(handle, m):
    """(residues, rho, p) detected on the first STREAM_BUDGET terms."""
    spec = handle.spec
    if spec.kind == sq.KIND_TABLE and handle._generator is None:
        prefix = [v % m for v in spec.values]
        raise BoundedProfileError(
            "table sequence without generator: no certified profile "
            "(scanned %d residues)" % len(prefix), prefix)
    budget = STREAM_BUDGET
    residues = []
    try:
        for n in range(budget):
            residues.append(handle.eval(n) % m)
    except sq.TableExhausted as exc:
        raise BoundedProfileError("%s: no certified profile" % exc, residues)
    for p in range(1, budget // 6 + 1):
        # tail check first (cheap reject), then extend to the minimal rho
        if all(residues[n] == residues[n + p] for n in range(budget - 4 * p, budget - p)):
            rho = budget - 4 * p
            while rho > 0 and residues[rho - 1] == residues[rho - 1 + p]:
                rho -= 1
            if all(residues[n] == residues[n + p] for n in range(rho, budget - p)) \
                    and rho + 5 * p <= budget:
                return residues, rho, p
    raise BoundedProfileError(
        "no period detected within the stream budget", residues[:64])


def divisibility_set(handle, op, k, m):
    """{ n : m | f(n) + k } for the operator f, as a periodic index set.

    Past the profile preperiod, f(n) + k mod m is a function of n mod p
    because every tap r_{n+i} is; below it the membership is listed
    explicitly.  The set is exact when the profile is Proved; a streamed
    profile vouches only for the indices whose taps it streamed.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    prof = profile(handle, m)
    rho, p = prof.rho, prof.p

    def hit(n):
        total = sum(a * prof.predict(n + i) for i, a in enumerate(op.coeffs))
        return (total + k) % m == 0

    classes = []
    for c in range(p):
        n_c = rho + ((c - rho) % p)  # smallest n >= rho with n = c mod p
        if hit(n_c):
            classes.append(c)
    members = [n for n in range(rho) if hit(n)]
    cert = prof.cert
    if not cert.is_proved:  # the taps of index n reach n + degree
        cert = BoundedCheck(max(0, cert.n - op.degree))
    return PeriodicIndexSet(rho, p, classes, members, cert)

"""Canonical JSON for reports: deterministic bytes, exact numbers.

Every integer is rendered as a decimal string so arbitrary-precision values
survive any JSON reader, fractions render as "p/q", and floats are rejected
outright — all arithmetic in this package is exact and a float in a report
is a bug.  Keys are sorted and separators fixed, so equal reports produce
byte-identical output.  An integer of more than MAX_DIGITS digits is refused
with a ValueError naming the ceiling.

The _json_* validators read the integer and list fields of input specs
(sequence specs and set specs alike): an integer is a JSON integer or a
decimal string, and anything else is a ValueError naming the field.
_read_int is the one reader of integers written as text, in specs, options,
equations and formulas alike, and of the integers of JSON files: an optional
sign and ASCII digits, without the underscores, blanks and other scripts'
digits that int() also accepts, and at most MAX_READ_DIGITS digits.
"""

import json
from fractions import Fraction

# Most digits of an integer in a report.  It covers the built-in sequence
# kinds at the ceiling of `eval --n` (cli.OPTION_RANGES): the factorial kind's
# r_10000 is 10002!, 35,668 digits.
MAX_DIGITS = 40_000

# Most digits of an integer read from input.  It is checked before int(), so a
# longer integer gets this module's one-line refusal, not the interpreter's
# (whose limit is by default also 4,300 digits, and may be unset).  It stays
# far below MAX_DIGITS: on the sum of 2^n and 3^n, `classify` of an operator
# with 4,200-digit coefficients takes 6.2 s, against 0.3 s at 1,000 digits
# (2 CPUs, Python 3.11.7).
MAX_READ_DIGITS = 4_300


def _decimal(n):
    """n in decimal.  str() converts at most 4,300 digits, so a longer n (past
    14,000 bits) goes through decimal, which has no such limit."""
    if n.bit_length() <= 14_000:
        return str(n)
    if abs(n) >= 10 ** MAX_DIGITS:
        raise ValueError("an integer in the report has more than %d digits "
                         "(jsonio.MAX_DIGITS)" % MAX_DIGITS)
    from decimal import Decimal
    return str(Decimal(n))


def canonical(obj):
    """Recursively convert a report structure to its canonical form."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return _decimal(obj)
    if isinstance(obj, Fraction):
        return "%s/%s" % (_decimal(obj.numerator), _decimal(obj.denominator))
    if isinstance(obj, float):
        raise TypeError("floats are not canonical; use int or Fraction")
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError("object keys must be strings, got %r" % (k,))
            out[k] = canonical(v)
        return out
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    raise TypeError("cannot serialize %r" % (type(obj).__name__,))


def dumps(obj):
    """Canonical JSON text (no trailing newline)."""
    return json.dumps(canonical(obj), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=True)


def _read_int(text, field):
    """An optional sign and ASCII digits as an int; ValueError otherwise."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("%s must be a decimal integer, not %r" % (field, text))
    if len(digits) > MAX_READ_DIGITS:
        raise ValueError("%s has %d digits, more than %d (jsonio.MAX_READ_DIGITS)"
                         % (field, len(digits), MAX_READ_DIGITS))
    return int(text)


def _json_int(value, field):
    """A JSON integer or decimal string as an int; ValueError otherwise."""
    if isinstance(value, str):
        return _read_int(value, field)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError("%s must be an integer or a decimal string, not %r" % (field, value))


def _json_list(value, field):
    if not isinstance(value, list):
        raise ValueError("%s must be a JSON list" % field)
    return value


def _json_ints(value, field):
    return [_json_int(v, field) for v in _json_list(value, field)]


def load_path(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_int=lambda text: _read_int(text, "a JSON integer"))

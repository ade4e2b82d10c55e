"""Exception types shared across the package, the shape check for
records read from files, and canonical_json, the one text form of a
record, which files and the command line's JSON output both use.

Every domain error derives from RankfuzzError so callers can catch the
whole family at once; most also derive from the matching builtin
(ValueError, ZeroDivisionError) so generic handling keeps working.
"""

import gc
import json


class RankfuzzError(Exception):
    """Base class for all errors raised by this package.

    reason, where a raise site sets it, is the token the command line
    prints as "reason: <token>" in place of the "error:" line."""

    def __init__(self, *args, reason=None):
        super().__init__(*args)
        self.reason = reason


class NonPrimeQ(RankfuzzError, ValueError):
    """The base field size q is not a prime in the supported range."""


class DegreeOutOfRange(RankfuzzError, ValueError):
    """Extension degree m outside the supported range 1..64."""


class MismatchedField(RankfuzzError, ValueError):
    """Operands belong to different fields, or an element is out of range."""


class TwistMismatch(RankfuzzError, ValueError):
    """Two linearized polynomials use different twist exponents."""


class DivisionByZero(RankfuzzError, ZeroDivisionError):
    """Inverse or division by the zero field element."""


class DivisionByZeroPoly(RankfuzzError, ZeroDivisionError):
    """Division by the zero linearized polynomial."""


class LengthMismatch(RankfuzzError, ValueError):
    """Vector or point-list length differs from what the operation needs."""


class DimensionMismatch(RankfuzzError, ValueError):
    """Matrix or system shapes are inconsistent."""


class DependentPoints(RankfuzzError, ValueError):
    """Evaluation points are linearly dependent over F_q."""


class DependentFeatures(RankfuzzError, ValueError):
    """A feature set is linearly dependent over F_q."""


class DuplicateFeatures(RankfuzzError, ValueError):
    """A feature set contains a repeated element."""


class DependentRestriction(RankfuzzError, ValueError):
    """A restriction basis for a rank computation is dependent."""


class BadTwist(RankfuzzError, ValueError):
    """Twist exponent s violates 1 <= s and gcd(s, m) = 1."""


class BadDimensions(RankfuzzError, ValueError):
    """Code or scheme dimensions violate their constraints."""


class BadRange(RankfuzzError, ValueError):
    """A numeric parameter is outside its allowed range."""


class TooLarge(RankfuzzError, ValueError):
    """The requested exhaustive computation exceeds the feasibility guard."""


class ParamMismatch(RankfuzzError, ValueError):
    """Stored parameters do not match the objects they are used with."""


class InfeasibleShape(RankfuzzError, RuntimeError):
    """Requested random shape could not be sampled (impossible or retries exhausted)."""


class MalformedRecord(RankfuzzError, ValueError):
    """A record read from a file is not an object of the expected shape."""


def check_record(data, what: str, schema: dict) -> None:
    """Check that data is a JSON object with exactly the keys of schema
    and that each value has exactly the type schema names for it, or one
    of the types of a tuple, so that neither a float nor a bool passes as
    an int."""
    if not isinstance(data, dict):
        raise MalformedRecord(f"{what} must be a JSON object, got {type(data).__name__}")
    missing = sorted(schema.keys() - data.keys())
    unexpected = sorted(data.keys() - schema.keys())
    if missing:
        raise MalformedRecord(f"{what}: missing keys {missing}")
    if unexpected:
        raise MalformedRecord(f"{what}: unexpected keys {unexpected}")
    for key, value in data.items():
        types = schema[key] if isinstance(schema[key], tuple) else (schema[key],)
        if type(value) not in types:
            names = " or ".join(t.__name__ for t in types)
            raise MalformedRecord(f"{what}: {key} must be {names}, got {value!r}")


def canonical_json(obj) -> str:
    """A record as ASCII JSON with two-space indent and sorted keys, so
    equal records give equal text."""
    return json.dumps(obj, indent=2, sort_keys=True)


def save_json(obj, path) -> None:
    """Write a record's canonical JSON and a final newline."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(canonical_json(obj) + "\n")


def load_json(path):
    """Read a JSON file; records are pure ASCII, so other bytes are an error.
    Nesting too deep for the parser is a MalformedRecord naming the path.

    The cyclic collector is paused while the parser allocates, since a
    vault's tens of thousands of small lists would set it off repeatedly,
    and left as it was found."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, encoding="ascii") as fh:
            return json.load(fh)
    except RecursionError:
        raise MalformedRecord(f"{path}: JSON nested too deeply") from None
    finally:
        if enabled:
            gc.enable()


class DecodingFailure(RankfuzzError):
    """No codeword within the decoding radius could be recovered.

    check names the test that refused: "remainder" (the Euclid stop
    remainder is no left multiple of its cofactor), "quotient_degree"
    (the quotient has degree >= k) or "rank" (the re-encoded candidate
    lies at rank > t).  stop_degree and quotient_degree are the degrees
    of the stop remainder and the quotient; rank and t are set by the
    rank check only."""

    def __init__(self, message, check, stop_degree, quotient_degree, rank=None, t=None):
        super().__init__(message)
        self.check = check
        self.stop_degree = stop_degree
        self.quotient_degree = quotient_degree
        self.rank = rank
        self.t = t


class ClaimViolation(RankfuzzError, AssertionError):
    """A hard inequality that must hold on every trial was violated."""

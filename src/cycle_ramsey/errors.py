"""Exception types shared across the toolkit, and the ASCII decoding,
integer and rational parsing that every input reader goes through."""

import re
from fractions import Fraction


class CycleRamseyError(Exception):
    """Base class for the errors a caller's input can cause (CLI exit
    3).  A broken invariant is a bug: it raises AssertionError with an
    explicit `raise`, which `python -O` keeps (CLI exit 4)."""


class LoopEdge(CycleRamseyError):
    pass


class DuplicateEdge(CycleRamseyError):
    pass


class VertexOutOfRange(CycleRamseyError):
    pass


class CycleTooShort(CycleRamseyError):
    """Cycle lengths below 3 are meaningless for simple graphs."""


class ColorOutOfRange(CycleRamseyError):
    pass


class InvalidParams(CycleRamseyError):
    pass


class EvenCycleLength(CycleRamseyError):
    """Raised by odd-cycle-only certificate logic when given an even length."""


class OddCycleLength(CycleRamseyError):
    """Raised by the even-cycle engine when given an odd length."""


class TargetTooLarge(CycleRamseyError):
    pass


class ParamOutOfRange(CycleRamseyError):
    pass


class FormatError(CycleRamseyError):
    """Malformed graph/coloring file or rational literal."""


def _require_int(name: str, value) -> None:
    """Refuse anything but a plain int; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParams(f"{name} must be an int, not {type(value).__name__}")


def ascii_text(data: bytes) -> str:
    """`data` decoded as ASCII; any other byte is a FormatError naming
    its line."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(
            f"line {line}: non-ASCII byte 0x{data[exc.start]:02x}"
        ) from None


def ascii_int(token: str) -> int:
    """`token` as an integer if it is plain ASCII `-?[0-9]+`, else a
    FormatError.  `int()` alone also takes `+`, `_` separators and
    non-ASCII digits, which would turn a typo into another instance."""
    if token.isascii() and (
        token.isdigit() or token[:1] == "-" and token[1:].isdigit()
    ):
        return int(token)
    raise FormatError(f"bad integer {token!r}: expected ASCII digits")


def _ints(tokens: list[str], lineno: int) -> list[int]:
    """`ascii_int` of each token, a FormatError naming line `lineno`."""
    try:
        return [ascii_int(t) for t in tokens]
    except FormatError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None


_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


def parse_rational(text: str) -> Fraction:
    """Parse a strict `p/q` (or integer) literal of ASCII digits.
    `Fraction()` alone also reads decimals, `_` separators, padding and
    non-ASCII digits, and raises ZeroDivisionError on a zero
    denominator."""
    if not _RATIONAL_RE.fullmatch(text):
        raise FormatError(
            f"bad rational {text!r}: expected 'p/q' or an integer "
            "(decimals are not accepted)"
        )
    return Fraction(text)

"""One check per kind of typed, bounded field: every config section's
`__post_init__` and the file readers' integer fields go through these.

Each failure raises with a message that starts with the field's name and
shows the offending value. A config section names its fields bare
(`grid_n`); `cli.config_from_dict` prefixes the section's dotted path
(`env.grid_n`, `student.bc.lr`). A file reader passes its path as part of
the name (`<path>: rows`) and its own exception class. JSON true and false
load as Python bools, which are ints, so no check here takes a bool for a
number.
"""

import numbers
import sys


def is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def integer(name: str, value, least=None, error=ValueError) -> None:
    """An integer, at least `least` when given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        bound = "" if least is None else f" >= {least}"
        raise error(f"{name} {value!r} is not an integer{bound}")
    if least is not None and value < least:
        raise error(f"{name} must be >= {least}, not {value!r}")


def real(name: str, value, low=None, high=None, low_open=False) -> None:
    """A real number a finite float can hold, in [low, high), or in
    (low, high) when `low_open`; a bound left None is not checked."""
    ok = is_real(value) and abs(value) <= sys.float_info.max
    if ok and low is not None:
        ok = value > low if low_open else value >= low
    if ok and high is not None:
        ok = value < high
    if not ok:
        if low is None:
            bound = ""
        elif high is None:
            bound = f" {'>' if low_open else '>='} {low}"
        else:
            bound = f" in {'(' if low_open else '['}{low}, {high})"
        raise ValueError(f"{name} {value!r} is not a finite number{bound}")


def boolean(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ValueError(f"{name} {value!r} is not a boolean")


def choice(name: str, value, choices: tuple) -> None:
    if value not in choices:
        raise ValueError(f"{name} {value!r} is not one of {', '.join(map(repr, choices))}")


def text(name: str, value) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} {value!r} is not a nonempty string")

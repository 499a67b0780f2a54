"""Outside values in, model values out: numbers, counts and JSON fields.

The one place where values from files, the command line and library
callers become model values; it depends on nothing in the package but
``errors``.  Numbers are exact, finite rationals: a float means its
shortest decimal repr (0.1 is 1/10), and JSON decimals and ``"p/q"``
strings are read exactly.  On output an integer stays an integer, a
rational whose shortest float repr reads back exactly stays a decimal,
and any other rational becomes ``"p/q"``, so every value survives a save
and a load.  Counts are ``int``, never ``bool``.  The JSON field readers
name the offending field in their ``ParseError``.

Model records derive from ``_Record``: immutable ``__slots__`` objects
whose ``==``, ``hash()`` and ``repr()`` run over their fields, as a
frozen dataclass's would, and whose ``replace`` builds a new object
through the constructor, so that it is validated again.  Each record
gets ``_store``, a constructor compiled from its ``_fields`` that takes
them by position or keyword and stores them.  A record without checks
uses it as its ``__init__``; one that checks or normalizes its fields,
or gives them defaults, writes its own ``__init__`` and ends it with
``self._store(...)``.

Identifiers are interned: ``get_field`` returns one shared object for
every equal ``str`` it reads, so a task name, channel endpoint, op id, op
class or dependence endpoint costs one string however often it appears
and however many graphs mention it.  The ``json`` module makes a fresh
string for each occurrence of a value, and a program that holds many
loaded graphs (a sweep over many designs) would keep every copy.  A
``str`` subclass is returned as it is, since ``sys.intern`` accepts only
exact strings.
"""

from __future__ import annotations

import json
import math
import re
import sys
from decimal import MAX_EMAX, MIN_EMIN, Context
from fractions import Fraction
from pathlib import Path
from typing import Union

from .errors import ParseError, ValidationError

Rational = Union[int, float, Fraction]

_RATIO = re.compile(r"-?[0-9]+/[0-9]+")
_MISSING = object()
# six significant digits at any exponent, for numbers beyond float range
_WIDE = Context(prec=6, Emax=MAX_EMAX, Emin=MIN_EMIN)
# how a record stores its fields, and derived facts, past the frozen __setattr__
_set = object.__setattr__


class _Record:
    """Immutable record over the fields named in ``_fields``.

    ``_fields`` lists the constructor's parameters in order; they are
    compared, hashed, shown by ``repr()`` (except those in ``_hidden``)
    and copied by ``replace``.  Other slots hold facts derived from them.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # compiled once per record, as namedtuple compiles its __new__: Python
        # binds the arguments, so a call costs what hand-written stores cost
        params = ", ".join(cls._fields)
        stores = "".join(f"\n    _set(self, {f!r}, {f})" for f in cls._fields)
        ns = {}
        exec(f"def __init__(self, {params}):{stores}", {"_set": _set}, ns)
        cls._store = ns["__init__"]
        cls._store.__qualname__ = f"{cls.__qualname__}.__init__"
        if "__init__" not in cls.__dict__:
            cls.__init__ = cls._store

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields if f not in self._hidden
        )
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes):
        """A copy with ``changes`` applied, built and validated by the constructor."""
        return type(self)(**({f: getattr(self, f) for f in self._fields} | changes))


def as_fraction(x: Rational) -> Fraction:
    """Exact rational from an int, Fraction, or finite decimal-intended float."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValidationError(f"expected a number, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if not math.isfinite(x):
        raise ValidationError(f"expected a finite number, got {x!r}")
    # str() round-trips the shortest decimal, so 0.1 means 1/10, not the
    # nearest binary double
    return Fraction(str(x))


def _fmt_g(x) -> str:
    """``f"{float(x):g}"``, also for rationals beyond float range, large or small."""
    x = as_fraction(x)
    if not x or sys.float_info.min <= abs(x) <= sys.float_info.max:
        return f"{float(x):g}"
    return format(_WIDE.divide(x.numerator, x.denominator).normalize(_WIDE), "g")


def is_int(v, least: int | None = None) -> bool:
    """Whether ``v`` is an ``int`` but not a ``bool``, and at least ``least`` if given."""
    return isinstance(v, int) and not isinstance(v, bool) and (least is None or v >= least)


def load_json(path: Union[str, Path]):
    """Parse a JSON file, with decimal literals as exact rationals."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror or e}") from None
    try:
        return json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    except ValueError:  # a number beyond the int-string conversion limit
        raise ParseError(f"{path}: {_too_long()}") from None


def _too_long() -> str:
    return f"number has more than {sys.get_int_max_str_digits()} digits"


def save_json(data, path: Union[str, Path]) -> None:
    """Write ``data`` as indented JSON with a trailing newline."""
    Path(path).write_text(json.dumps(data, indent=2) + "\n")


def num_from_json(v, where: str) -> Fraction:
    """Exact rational from a finite JSON number or a ``"p/q"`` string."""
    if isinstance(v, str):
        try:
            if _RATIO.fullmatch(v) and int(v.partition("/")[2]) != 0:
                return Fraction(v)
        except ValueError:  # a number beyond the int-string conversion limit
            raise ParseError(f"{where}: {_too_long()}") from None
        raise ParseError(f'{where}: expected a number or a "p/q" string')
    if isinstance(v, bool) or not isinstance(v, (int, float, Fraction)):
        raise ParseError(f"{where}: expected a number")
    if isinstance(v, float) and not math.isfinite(v):
        # NaN and Infinity, which the json module accepts as literals
        raise ParseError(f"{where}: expected a finite number")
    return as_fraction(v)


def num_to_json(x: Fraction):
    """JSON value that reads back as exactly ``x``: int, decimal or ``"p/q"``."""
    if x.denominator == 1:
        return int(x)
    try:
        f = float(x)
        if Fraction(repr(f)) == x:
            return f
    except OverflowError:  # beyond float range, where no decimal reads back as x
        pass
    return f"{x.numerator}/{x.denominator}"


# JSON field readers: errors name where.key; an absent or null field gives the default, if any;
# get_field interns the strings it returns (see the module docstring)
def get_field(rec: dict, key: str, typ, where: str):
    v = rec.get(key, _MISSING)
    if type(v) is typ:
        return sys.intern(v) if typ is str else v
    if v is _MISSING:
        raise ParseError(f"{where}.{key}: missing required field")
    if not isinstance(v, typ) or isinstance(v, bool):
        raise ParseError(f"{where}.{key}: expected {typ.__name__}")
    return sys.intern(v) if type(v) is str else v


def get_int(rec: dict, key: str, where: str, default=_MISSING):
    if key not in rec or rec[key] is None:
        if default is _MISSING:
            raise ParseError(f"{where}.{key}: missing required field")
        return default
    v = rec[key]
    if not is_int(v):
        raise ParseError(f"{where}.{key}: expected an integer")
    return v


def get_num(rec: dict, key: str, where: str, default=_MISSING):
    if key not in rec or rec[key] is None:
        if default is _MISSING:
            raise ParseError(f"{where}.{key}: missing required field")
        return default
    return num_from_json(rec[key], f"{where}.{key}")

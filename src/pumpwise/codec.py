"""JSON reading and the exact encoding of rational numbers in files.

Graph and plan files hold rationals.  Decimal literals are read as exact
rationals, not binary floats.  On output an integer stays an integer, a
rational whose shortest float repr reads back exactly stays a decimal,
and any other rational is written as the string ``"p/q"``, so that every
value survives a save and a load unchanged.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Union

from .errors import ParseError
from .ii import as_fraction

_RATIO = re.compile(r"-?[0-9]+/[0-9]+")


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


def num_from_json(v, where: str) -> Fraction:
    """Exact rational from a JSON number or a ``"p/q"`` string."""
    if isinstance(v, str):
        if _RATIO.fullmatch(v) and int(v.partition("/")[2]) != 0:
            return Fraction(v)
        raise ParseError(f'{where}: expected a number or a "p/q" string')
    if isinstance(v, bool) or not isinstance(v, (int, float, Fraction)):
        raise ParseError(f"{where}: expected a number")
    return as_fraction(v)


def num_to_json(x: Fraction):
    """JSON value that reads back as exactly ``x``: int, decimal or ``"p/q"``."""
    if x.denominator == 1:
        return int(x)
    f = float(x)
    if Fraction(repr(f)) == x:
        return f
    return f"{x.numerator}/{x.denominator}"

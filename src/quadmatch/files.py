"""Every file the package reads or writes, each format spelled once.

A CSV is a header line, then one comma-joined line per row, with each float
written by ``repr`` so that it reads back exactly and two runs on the same
seeds give byte-identical files. A JSON file is indented by 2 with sorted
keys. Every file is UTF-8. An array read from a JSON file becomes a float
ndarray through ``float_array`` alone.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidInputError


def csv_text(header: str, rows) -> str:
    """``header``, then one line per row: floats by ``repr``, the rest by ``str``."""
    lines = [header] + [",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
                        for row in rows]
    return "".join(line + "\n" for line in lines)


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def read_json(path):
    """The JSON value in the file at ``path``; a file that is not UTF-8, or
    not JSON, raises ``InvalidInputError`` naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def float_array(value, what: str) -> np.ndarray:
    """``value`` as a float ndarray; raise ``InvalidInputError`` naming
    ``what`` unless it is a rectangular array of numbers."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what} is not a rectangular array of numbers ({exc})") from exc

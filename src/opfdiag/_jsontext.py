"""The text of every JSON report: ``json.dumps(obj, indent=2,
sort_keys=True, allow_nan=False)``, byte for byte, without its pure-Python
encoder. A NaN or an infinity is not JSON, so a report that holds one
raises ValueError instead of being written.

An indent sends ``json.dumps`` through that encoder, item by item. Here
the indented layout is written by recursion over dicts and lists, and
each array whose items are all numbers, bools or nulls goes whole to the
C encoder; its ``", "`` separators then become the indented lines. A
string item is never batched, as it may itself contain ``", "``. A dict
with a key that is not a string is left to ``json.dumps`` and indented
to its depth: JSON text has no raw newline outside its layout.

It stays because the stdlib call writes the same bytes about twice as
slowly: 5.1 against 2.9 ms for a 102 KB 24x24 check report (best of 5,
2-vCPU Xeon).
"""

from __future__ import annotations

import json

_encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode
_INDENT = "  "


def _scalars(items) -> bool:
    """Whether every item is a number, a bool or None, decided on the
    items' types."""
    return all(t is type(None) or issubclass(t, (int, float))
               for t in set(map(type, items)))


def _write(obj, newline: str, out: list[str]) -> None:
    """Append the text of ``obj`` at the depth whose line break, with its
    indent, is ``newline``."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
        elif not all(isinstance(key, str) for key in obj):
            out.append(json.dumps(obj, indent=2, sort_keys=True,
                                  allow_nan=False).replace("\n", newline))
        else:
            inner = newline + _INDENT
            sep = "{" + inner
            for key, value in sorted(obj.items()):
                out.append(sep + _encode(key) + ": ")
                _write(value, inner, out)
                sep = "," + inner
            out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + _INDENT
        if _scalars(obj):
            items = _encode(obj)[1:-1].replace(", ", "," + inner)
            out.append("[" + inner + items + newline + "]")
            return
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write(value, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(_encode(obj))


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)

"""Canonical JSON, the one rule by which the package writes its replies
and its sweep lines: sorted keys, ``,`` and ``:`` separators, integers
only, and a tuple written as an array, byte for byte as
``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` writes it.

The encoders are CPython's ``_json`` accelerator, built once at import and
used without the ``json`` package; there is no pure-Python fallback, so an
interpreter without it fails to import this module.  A sweep that shares
fields across its lines encodes each shared value once and fills it into
a :func:`line_format` made here, so its lines follow this rule too.
"""

from __future__ import annotations

from _json import encode_basestring_ascii, make_encoder


def _refuse(obj):
    """The default of both encoders: what JSON cannot hold is refused with
    the ``TypeError`` that ``json.JSONEncoder.default`` raises."""
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


# The C encoders that ``json.dumps(obj, sort_keys=True, separators=(",",
# ":"))`` and ``json.dumps(obj, sort_keys=True)`` would build on every call,
# built once.  Their markers argument is None, so they keep no
# circular-reference table: a shared one would keep the ids a failed encode
# left in it and refuse a later encode of the same objects as circular.
ENCODE = make_encoder(
    None, _refuse, encode_basestring_ascii, None, ":", ",", True, False, True)
_ENCODE_TEXT = make_encoder(
    None, _refuse, encode_basestring_ascii, None, ": ", ", ", True, False, True)


def dumps(obj) -> str:
    """The canonical JSON text of ``obj``."""
    return "".join(ENCODE(obj, 0))


def line(record: dict) -> str:
    """The canonical JSON line of ``record``, newline included."""
    return dumps(record) + "\n"


def text(obj) -> str:
    """``obj`` as the text format writes a value: JSON with sorted keys and
    the ``json.dumps`` default separators."""
    return "".join(_ENCODE_TEXT(obj, 0))


def line_format(*slots: str, **fields) -> str:
    """The canonical JSON line, newline included, of the flat record with
    the keys of ``slots`` and ``fields``, as a ``%`` format: each slot is a
    ``%s`` that takes the JSON text of its value, and each field is written
    here.  The slots are filled in the order given, which must be the
    strictly increasing order of their keys, the order in which the line
    holds them: a repeated or unsorted slot, or a slot that is also a
    field, is refused with ``ValueError``.

    >>> line_format("levi", check="head-oracle", n=3, ok=True) % dumps((1, 2))
    '{"check":"head-oracle","levi":[1,2],"n":3,"ok":true}\\n'
    """
    if any(a >= b for a, b in zip(slots, slots[1:])) or set(slots) & fields.keys():
        raise ValueError(f"slots {slots!r} must be sorted and not among the fields")
    values = {key: dumps(value).replace("%", "%%") for key, value in fields.items()}
    values.update(dict.fromkeys(slots, "%s"))
    return "{" + ",".join(dumps(key).replace("%", "%%") + ":" + values[key]
                          for key in sorted(values)) + "}\n"

"""Canonical JSON serialization shared by the CLI and the file formats.

Rationals travel as decimal strings "p" or "p/q" in lowest terms; files end
with a newline; key order is insertion order so identical inputs always
produce byte-identical output.

Reading refuses an object that repeats a key, which json would otherwise
collapse to its last value, and `array` refuses a non-list where a list
belongs, which would otherwise be iterated (a string, one character at a
time); `strings` also refuses a list entry that is not a string where
strings belong.
"""

from __future__ import annotations

import json

# CPython's built-in SHA-256; `hashlib` would load OpenSSL's libcrypto
# (about 3.6 MB of resident memory) for this one digest
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256


def dumps(obj):
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _object(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"JSON object repeats the key {key!r}")
        obj[key] = value
    return obj


def loads(text):
    return json.loads(text, object_pairs_hook=_object)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=_object)


def array(value, key):
    """value, the entry read at key, if it is a JSON list; raises TypeError otherwise."""
    if not isinstance(value, list):
        raise TypeError(f"{key!r} must be a JSON list, got {type(value).__name__}")
    return value


def strings(value, key):
    """value, the entry read at key, if it is a JSON list of strings; raises TypeError otherwise."""
    for entry in array(value, key):
        if not isinstance(entry, str):
            raise TypeError(f"{key!r} must hold JSON strings, got {type(entry).__name__}")
    return value


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def sha256_file(path):
    h = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()

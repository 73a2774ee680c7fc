"""Canonical serialization.

Hashes, signatures and Merkle leaves must be computed over a canonical
byte representation; two semantically equal values must serialize to the
same bytes on every platform.  We use JSON with sorted keys and no
insignificant whitespace, with a small extension for ``bytes`` (hex
tagged) and big integers (JSON handles arbitrary ints natively).

Encoding is delegated to :mod:`repro.common.encoding` — the encode-once
layer with flat fast paths for the str/int/dict shapes that dominate
update payloads and verbatim splicing of pre-encoded
:class:`~repro.common.encoding.RawJson` fragments.  Its output is
byte-identical to the original ``json.JSONEncoder`` path (kept in
``tests/test_encoding.py`` as the oracle the encoding goldens compare
against), so every root, signature payload, and WAL frame is unchanged.
Type subclasses (an ``IntEnum``, a ``str`` subtype) are refused.
"""

import json
from typing import Any

from repro.common.encoding import (
    _BYTES_TAG,
    encode_canonical,
    encode_canonical_bytes,
)
from repro.common.errors import SerializationError


def canonical_json(value: Any) -> str:
    """Serialize ``value`` to a canonical JSON string."""
    return encode_canonical(value)


def canonical_bytes(value: Any) -> bytes:
    """Serialize ``value`` to canonical UTF-8 bytes (hash/sign input)."""
    return encode_canonical_bytes(value)


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value.keys()) == {_BYTES_TAG}:
            return bytes.fromhex(value[_BYTES_TAG])
        return {key: _decode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode(item) for item in value]
    return value


def from_canonical_json(text: str) -> Any:
    """Inverse of :func:`canonical_json` (restores tagged bytes)."""
    try:
        return _decode(json.loads(text))
    except (ValueError, TypeError) as exc:
        raise SerializationError(str(exc)) from exc

"""The encode-once layer: a fast canonical encoder and pre-encoded
JSON fragments.

Profiling the batched Figure-2 pipeline after the fast-math backend
landed showed the plaintext path encode/hash-bound: the same frozen
update record was canonically JSON-encoded three independent times per
submit — once for the signing payload, once for the Merkle leaf, once
for the WAL frame.  This module attacks both halves of that cost:

* :func:`encode_canonical` — a specialized canonical encoder with flat,
  loop-based fast paths for the str/int/dict shapes that dominate
  update payloads.  It validates dict keys *while* encoding (the old
  path paid a separate pre-walk), and anything outside the fast shapes
  (type subclasses, exotic objects) falls back to the legacy
  ``json.JSONEncoder`` path for that subtree, so the emitted bytes are
  identical to the original encoder on every input — the canonical
  goldens in ``tests/test_encoding.py`` pin this byte-for-byte.

* :class:`RawJson` — a wrapper marking a string as *already* canonical
  JSON.  The encoder splices it verbatim, which is what lets the anchor
  stage encode each decision payload exactly once and reuse the bytes
  for the ledger's Merkle leaf, the WAL's anchor frame, and the
  ``/trace`` re-verification (see ``repro.ledger.central`` and
  ``repro.core.pipeline``).  Canonical JSON is deterministic, so
  splicing a canonical fragment into a larger canonical document
  yields the same bytes as encoding the whole value from scratch.

The fragment is the only resident copy of an anchored payload: a
``LedgerEntry`` *is* its canonical leaf bytes and decodes the payload
on demand.  Mutable objects (notably
:class:`repro.model.update.Update`, whose tamper-detection semantics
*require* re-encoding after mutation) are never identity-cached.
"""

import json
from json.encoder import encode_basestring_ascii as _escape
from typing import Any

from repro.common.errors import SerializationError

_BYTES_TAG = "__bytes_hex__"

_INF = float("inf")


class RawJson:
    """A canonical-JSON fragment to splice verbatim into an encoding.

    The constructor trusts its input: ``text`` must be the exact output
    of :func:`encode_canonical` for some value, or the surrounding
    document stops being canonical.  Only encode-once call sites that
    just produced the fragment should build these.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RawJson({self.text!r})"


def _assert_string_keys(value: Any) -> None:
    """Reject non-string dict keys anywhere in the value (the legacy
    pre-walk, still used ahead of legacy-encoder subtree fallbacks —
    ``json.dumps`` would silently coerce such keys, changing the
    canonical bytes)."""
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError(f"non-string dict key: {key!r}")
            if isinstance(item, (dict, list, tuple)):
                _assert_string_keys(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            if isinstance(item, (dict, list, tuple)):
                _assert_string_keys(item)


def _json_default(value: Any) -> Any:
    """Legacy-encoder hook for the non-JSON types we support."""
    if isinstance(value, bytes):
        return {_BYTES_TAG: value.hex()}
    to_dict = getattr(value, "to_dict", None)
    if to_dict is not None:
        return to_dict()
    raise SerializationError(f"cannot canonically serialize {type(value)!r}")


# The original encoder (one shared instance: json.dumps() with
# non-default arguments builds a fresh JSONEncoder per call).  It now
# serves two roles: the byte-identity reference for the goldens, and
# the subtree fallback for values outside the fast paths.
LEGACY_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=_json_default
)


def legacy_canonical_json(value: Any) -> str:
    """The pre-encode-once path, kept verbatim as the byte-identity
    oracle (``tests/test_encoding.py`` compares every corpus shape
    against it) and as the exotic-value fallback."""
    _assert_string_keys(value)
    return LEGACY_ENCODER.encode(value)


def _encode_fallback(value: Any, put) -> None:
    """Encode one node outside the fast shapes.

    bytes and ``to_dict`` objects convert and re-enter the fast
    encoder; anything else (str/int/float/dict/list *subclasses*,
    whose repr or iteration may differ from the base type) goes
    through the legacy encoder for the whole subtree, keeping the
    emitted bytes identical to the original path.
    """
    if isinstance(value, bytes):
        put('{"%s":"%s"}' % (_BYTES_TAG, value.hex()))
        return
    to_dict = getattr(value, "to_dict", None)
    if to_dict is not None:
        _encode(to_dict(), put)
        return
    if isinstance(value, (str, int, float, dict, list, tuple)):
        put(legacy_canonical_json(value))
        return
    raise SerializationError(f"cannot canonically serialize {type(value)!r}")


def _encode(value: Any, put) -> None:
    """Append the canonical encoding of ``value`` via ``put``.

    Exact-type checks keep the fast paths honest: a subclass (IntEnum,
    a str subtype, an OrderedDict) drops to :func:`_encode_fallback`
    so its bytes come from the same machinery as before.  Flat dicts
    and lists — the dominant update-payload shape — encode in a single
    loop with no recursion.
    """
    t = type(value)
    if t is str:
        put(_escape(value))
    elif t is int:
        put(repr(value))
    elif t is dict:
        if not value:
            put("{}")
            return
        try:
            keys = sorted(value)
        except TypeError:
            # Mixed key types cannot sort; a non-string key is the only
            # way that happens on valid inputs — surface it with the
            # canonical error.  (All-string keys always sort.)
            for key in value:
                if not isinstance(key, str):
                    raise SerializationError(
                        f"non-string dict key: {key!r}"
                    ) from None
            raise
        put("{")
        first = True
        for key in keys:
            if first:
                first = False
            else:
                put(",")
            if type(key) is not str and not isinstance(key, str):
                raise SerializationError(f"non-string dict key: {key!r}")
            put(_escape(key))
            put(":")
            _encode(value[key], put)
        put("}")
    elif t is list or t is tuple:
        if not value:
            put("[]")
            return
        put("[")
        first = True
        for item in value:
            if first:
                first = False
            else:
                put(",")
            _encode(item, put)
        put("]")
    elif value is None:
        put("null")
    elif t is bool:
        put("true" if value else "false")
    elif t is float:
        if -_INF < value < _INF:
            put(repr(value))
        elif value != value:
            put("NaN")
        else:
            put("Infinity" if value > 0 else "-Infinity")
    elif t is RawJson:
        put(value.text)
    else:
        _encode_fallback(value, put)


def encode_canonical(value: Any) -> str:
    """Serialize ``value`` to a canonical JSON string.

    Byte-identical to :func:`legacy_canonical_json` for every value
    the legacy path accepts, plus :class:`RawJson` fragments, which it
    splices verbatim.
    """
    parts = []
    _encode(value, parts.append)
    return "".join(parts)


def encode_canonical_bytes(value: Any) -> bytes:
    """Canonical UTF-8 bytes of ``value`` (hash/sign input).

    Canonical JSON is ASCII (``ensure_ascii`` escaping), so the final
    UTF-8 encode is a fast, allocation-only pass.
    """
    return encode_canonical(value).encode("utf-8")

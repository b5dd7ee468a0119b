"""Bit-exact reimplementation of the reference row-key hash.

Reference: ``src/tools/Hasher.java:8-38`` — SHA-1 of the UTF-8 bytes,
each digest byte rendered through a 256-entry two-letter alphabet.

The alphabet is ``byte2chars[i] = chr(ord('a') + i % 26) + "acegikmoqs"[i // 26]``
(first chars cycle a..z, second char steps through the ten odd letters),
matching the literal table at ``Hasher.java:8-26``.

Sign-fixup quirk (``Hasher.java:35``): the Java code maps a signed byte
``b`` to index ``b`` if ``b > 0`` else ``255 + b``.  For an unsigned
byte value ``u`` that means:

- ``1 <= u <= 127``  -> index ``u``
- ``u == 0``         -> index ``255`` (renders ``"vs"``, NOT ``"aa"``)
- ``128 <= u <= 255``-> index ``u - 1``

A faithful reimplementation must replicate this to reproduce the
reference's URL-seen-set keys exactly.
"""

from __future__ import annotations

import hashlib

_SECOND = "acegikmoqs"
BYTE2CHARS = [chr(ord("a") + i % 26) + _SECOND[i // 26] for i in range(256)]

# Pre-resolved unsigned-byte -> two-char string, with the sign-fixup quirk
# baked in so the hot loop is a single table lookup.
_U2CHARS = [
    BYTE2CHARS[u if 1 <= u <= 127 else (255 if u == 0 else u - 1)] for u in range(256)
]


# byte-pair form of the table: joining 20 two-byte entries and decoding
# once halves the per-key cost vs joining 20 str objects (the crawl
# preps ~740k URLs/wave through this).
_U2PAIRS = [c.encode("ascii") for c in _U2CHARS]


def ref_hash(x: str) -> str:
    """``Hasher.hash`` (``Hasher.java:27-38``): 40-char lowercase key."""
    digest = hashlib.sha1(x.encode("utf-8")).digest()
    return b"".join([_U2PAIRS[u] for u in digest]).decode("ascii")


def ref_hash_array(strings):
    """:func:`ref_hash` of every string of an arrow string array, as an
    arrow string array: one SHA-1 per string, then one lookup in the
    table as little-endian ``uint16`` pairs over all the digests'
    bytes."""
    import numpy as np
    import pyarrow as pa

    sha1 = hashlib.sha1
    digests = b"".join(
        [sha1(b).digest() for b in strings.cast(pa.binary()).to_pylist()]
    )
    pairs = np.frombuffer(b"".join(_U2PAIRS), "<u2")
    return pa.StringArray.from_buffers(
        len(strings),
        pa.py_buffer(np.arange(0, 40 * len(strings) + 1, 40, dtype=np.int32)),
        pa.py_buffer(pairs[np.frombuffer(digests, np.uint8)]),
    )


_KEY_ALLOWED = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-")


def key_encode(key: str) -> str:
    """Filesystem-safe row-key encoding (``src/tools/KeyEncoder.java:5-15``).

    REFERENCE BUG, reproduced faithfully: the escape is ``_`` +
    ``Integer.toHexString(c)`` (variable length) while :func:`key_decode`
    always consumes exactly two hex chars (``KeyEncoder.java:20-23``),
    so the pair only round-trips for code points in ``[0x10, 0xFF]``."""
    out = []
    for ch in key:
        if ch in _KEY_ALLOWED:
            out.append(ch)
        else:
            out.append("_" + format(ord(ch), "x"))
    return "".join(out)


def key_decode(s: str) -> str:
    """Inverse of :func:`key_encode` (``KeyEncoder.java:17-28``)."""
    out = []
    i = 0
    while i < len(s):
        if s[i] == "_":
            out.append(chr(int(s[i + 1 : i + 3], 16)))
            i += 3
        else:
            out.append(s[i])
            i += 1
    return "".join(out)


def xor_fingerprint_pairs(hashes, urls) -> int:
    """Order-invariant 64-bit fingerprint of a ``url_hash -> url``
    mapping: XOR of the top 64 bits of ``md5("hash|url")`` per entry.

    XOR is associative and commutative, so per-shard partials combine
    with one XOR on the driver — the crawl-conformance scalar never
    ships the seen/queue sets off their shards (each SeenShard hashes
    its own slice; the driver folds S 8-byte ints).  Used by both the
    engine (``SeenShard.fingerprints``) and the reference-semantics
    oracle side of the conformance tests, so equality of fingerprints
    is equality of the underlying sets up to md5 collisions (2^-64).
    """
    fp = 0
    for h, u in zip(hashes, urls):
        fp ^= int.from_bytes(
            hashlib.md5(f"{h}|{u}".encode("utf-8")).digest()[:8], "big"
        )
    return fp

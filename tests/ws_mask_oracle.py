"""Per-byte reference for RFC 6455 masking — the WebSocket codec oracle.

A direct transcription of section 5.3: octet *i* of the transformed data
is octet *i* of the original XOR octet ``i MOD 4`` of the masking key.
The production codec in :mod:`repro.fleet.protocol` masks four bytes at
a time through numpy and must reproduce these bytes exactly.  It is two
orders of magnitude slower on a chunk-sized frame, so it lives here and
serves only the codec properties.
"""

from __future__ import annotations


def mask(payload: bytes, mask_key: bytes) -> bytes:
    """Mask (or unmask: the transform is its own inverse) one payload."""
    return bytes(b ^ mask_key[i % 4] for i, b in enumerate(payload))


"""Deterministic seed derivation shared by the harness and the flow sources."""

from __future__ import annotations

import hashlib


def derive_seed(master: int, *parts) -> int:
    """Stable 63-bit seed derived from the master seed and any labels."""
    text = repr((int(master),) + tuple(parts)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little") >> 1

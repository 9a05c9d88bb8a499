"""Shared helpers: named-stream seed derivation and file hashing."""

import hashlib


def derive_seed(master: int, stream: str) -> int:
    """Derive a stable per-stream seed from a master seed.

    Uses SHA-256 so results are identical across platforms and processes,
    which keeps fan-out runs independent of worker count.
    """
    digest = hashlib.sha256(f"{master}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return sha256_hex(fh.read())

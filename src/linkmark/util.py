"""Shared helpers: named-stream seed derivation, file hashing, a bounded
binary reader and BLAS thread pinning."""

import ctypes
import hashlib
import os
import struct

import numpy as np


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


class Cursor:
    """Bounded reader over a blob: each read checks its size against the
    bytes that remain before anything is allocated, and a short or overlong
    `what` raises ValueError."""

    def __init__(self, data, what: str):
        self.data = memoryview(data)
        self.pos = 0
        self.what = what

    def take(self, size: int) -> memoryview:
        if size > len(self.data) - self.pos:
            raise ValueError(f"truncated {self.what}: {size} bytes wanted at offset "
                             f"{self.pos}, {len(self.data) - self.pos} left")
        self.pos += size
        return self.data[self.pos - size:self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        return np.frombuffer(self.take(count * np.dtype(dtype).itemsize), dtype).copy()

    def counted(self, dtype) -> np.ndarray:
        (count,) = self.unpack("<I")
        return self.array(dtype, count)

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise ValueError(f"{len(self.data) - self.pos} trailing bytes in {self.what}")


def pin_blas_threads() -> None:
    """One BLAS thread, as a threaded GEMM sums in another order: set for child
    processes, and through ctypes for each OpenBLAS loaded here (Linux)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    maps = "/proc/self/maps" if os.path.exists("/proc/self/maps") else os.devnull
    with open(maps) as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line.lower() and ".so" in line.split()[-1]}
    names = [f"{p}openblas_set_num_threads{s}" for p in ("", "scipy_") for s in ("", "64_")]
    for lib in map(ctypes.CDLL, libs):
        for fn in (getattr(lib, name) for name in names if hasattr(lib, name)):
            fn.argtypes, fn.restype = [ctypes.c_int], None
            fn(1)

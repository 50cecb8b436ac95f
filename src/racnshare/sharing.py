"""Threshold secret sharing over GF(256).

Arithmetic uses the field of order 256 with reduction polynomial
x^8 + x^4 + x^3 + x + 1 (0x11B): addition is XOR, and a*b is byte b of
a's row, the 256 products of a, built by shift-and-reduce on a's first use
and cached. Each secret byte is split independently: a random polynomial
of degree k-1 with the byte as constant term is evaluated at the share
indexes, and Lagrange interpolation at 0 recovers the byte from any k shares.
Recovery maps each whole payload through the row of its Lagrange basis value
with one ``bytes.translate`` and XORs the results as integers.

Without a seed the coefficients come from ``os.urandom``, so fewer than k
shares say nothing about the secret. A seed makes a split reproducible, but
anyone who knows it can recompute the coefficients: for tests and examples.
"""

from __future__ import annotations

import functools
import os
import random
from dataclasses import dataclass

from .errors import InvalidParameterError

_POLY = 0x11B


@functools.cache
def _row(a: int) -> bytes:
    """a's products with 0..255: ``_row(a)[b]`` is a*b, the XOR of a*x^i over
    the bits i of b. Each step doubles the row and shifts a, reducing by _POLY."""
    row = [0]
    for _ in range(8):
        row += [r ^ a for r in row]
        a = (a << 1) ^ (_POLY if a & 0x80 else 0)
    return bytes(row)


def gf_mul(a: int, b: int) -> int:
    return _row(a)[b]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return _row(a).index(1)


def gf_eval(coeffs: list[int], x: int) -> int:
    """Evaluate a polynomial given low-to-high coefficients, by Horner."""
    row = _row(x)
    acc = 0
    for c in reversed(coeffs):
        acc = row[acc] ^ c
    return acc


@dataclass(frozen=True)
class SecretConfig:
    """Split parameters: recover with any ``threshold`` of ``share_count``."""

    threshold: int
    share_count: int
    seed: int | None = None  # >= 0: random.Random seeds from abs(), so -t would repeat t's byte 0

    def __post_init__(self) -> None:
        k, n, seed = self.threshold, self.share_count, self.seed
        if not (type(k) is int and type(n) is int and (seed is None or type(seed) is int)):
            raise InvalidParameterError("threshold, share_count, seed must be integers")
        if seed is not None and seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {seed}")
        if not 1 <= k <= n <= 255:
            raise InvalidParameterError(
                f"need 1 <= threshold <= share_count <= 255, got k={k}, n={n}"
            )


@dataclass(frozen=True)
class Share:
    index: int
    payload: bytes

    def __post_init__(self) -> None:
        if type(self.index) is not int or not 1 <= self.index <= 255:
            raise InvalidParameterError(f"share index must be in 1..255, got {self.index}")
        if not self.payload:
            raise InvalidParameterError("share payload must be nonempty")


def split(secret: bytes, cfg: SecretConfig) -> list[Share]:
    """Split into cfg.share_count shares, any cfg.threshold of which recover.

    Each byte's k-1 coefficients come from ``os.urandom``, or with a seed
    from ``random.Random((seed << 64) | i)`` for byte i, so shares of a long
    secret do not depend on how earlier bytes consumed randomness.
    """
    if not isinstance(secret, (bytes, bytearray)) or len(secret) == 0:
        raise InvalidParameterError("secret must be a nonempty byte string")
    secret = bytes(secret)
    payloads = [bytearray(len(secret)) for _ in range(cfg.share_count)]
    width = cfg.threshold - 1
    if cfg.seed is None:
        pool = os.urandom(len(secret) * width)
    else:
        pool = bytes(
            rng.randrange(256)
            for rng in (random.Random((cfg.seed << 64) | i) for i in range(len(secret)))
            for _ in range(width)
        )
    for byte_index, byte in enumerate(secret):
        coeffs = [byte, *pool[byte_index * width:(byte_index + 1) * width]]
        for s in range(cfg.share_count):
            payloads[s][byte_index] = gf_eval(coeffs, s + 1)
    return [Share(index=s + 1, payload=bytes(payloads[s])) for s in range(cfg.share_count)]


def reconstruct(shares: list[Share], k: int) -> bytes:
    """Lagrange-interpolate at 0 using all given shares (at least k): each whole
    payload maps through its basis value's row, and the results XOR as integers."""
    if type(k) is not int:
        raise InvalidParameterError(f"threshold k must be an integer, got {k!r}")
    if k < 1:
        raise InvalidParameterError(f"threshold k must be >= 1, got {k}")
    if len(shares) < k:
        raise InvalidParameterError(f"got {len(shares)} shares, need at least {k}")
    indexes = [s.index for s in shares]
    if len(set(indexes)) != len(indexes):
        raise InvalidParameterError("share indexes must be distinct")
    length = len(shares[0].payload)
    if any(len(s.payload) != length for s in shares):
        raise InvalidParameterError("share payloads differ in length")
    # basis[i] = prod_{j != i} x_j / (x_j + x_i), evaluated at x = 0
    basis = []
    for i, xi in enumerate(indexes):
        num, den = 1, 1
        for j, xj in enumerate(indexes):
            if j == i:
                continue
            num = gf_mul(num, xj)
            den = gf_mul(den, xj ^ xi)
        basis.append(_row(gf_mul(num, gf_inv(den))))
    acc = 0
    for share, row in zip(shares, basis):
        acc ^= int.from_bytes(share.payload.translate(row), "big")
    return acc.to_bytes(length, "big")

"""Shared validation helpers: primality, coprimality, resource guards."""

from __future__ import annotations

import math

# Listed primes: residues are kept in machine words, and an elimination mod p
# needs p(p-1) < 2^63.  Only the CRT primes are smaller (below 2^29, see
# gfp_core.CRT_PRIME_BOUND), so that one of them times p <= 5 still fits.
MAX_PRIME = 2**31

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class GuardError(RuntimeError):
    """A computation was refused because it exceeds a stated resource guard."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if p >= MAX_PRIME:
        raise ValueError(f"p={p} exceeds the word-size limit {MAX_PRIME}")
    return p


def require_coprime_degree(p: int, d: int) -> None:
    """Experiments pairing a modulus with a degree require gcd(p, d) = 1."""
    if math.gcd(p, d) != 1:
        raise ValueError(f"gcd(p={p}, d={d}) must be 1")


def require_word(name: str, value: int) -> int:
    """value in [0, 2^64): a Philox key word, which must not alias another."""
    if not 0 <= value < 2**64:
        raise ValueError(f"{name}={value} must lie in [0, 2^64)")
    return value


def require_degree(d: int) -> int:
    if d < 3:
        raise ValueError(f"degree d={d} must be >= 3")
    return d

"""Exact combinatorial coefficients.

The derivative-exchange coefficients c_{i,j} of the Laplace identities and
the partition tables behind the higher-order chain rule, in exact integer
arithmetic (Python ints, so there is no overflow limit; the partition
enumeration is capped at n = 12 simply because table sizes grow quickly).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

__all__ = [
    "cn_coefficient",
    "BellPartitionTable",
    "bell_partitions",
]


def cn_coefficient(i: int, j: int) -> int:
    """c_{i,j} = binom(i,j) i!/j!, zero above the diagonal (j > i).

    These coefficients exchange i-fold differentiation with multiplication by
    t^i: (t^i f)^(i) = sum_j c_{i,j} t^j f^(j).
    """
    if i < j:
        return 0
    return comb(i, j) * factorial(i) // factorial(j)


@dataclass(frozen=True)
class BellPartitionTable:
    """Multi-indices and counts for the n-th derivative of a composition.

    Each entry (coeff, k, (m_1, ..., m_n)) contributes

        coeff * f^(k)(phi(z)) * prod_j (phi^(j)(z)) ** m_j

    to (f o phi)^(n)(z), where sum_j j*m_j = n and sum_j m_j = k, and
    coeff = n! / prod_j ((j!)^m_j * m_j!) counts the set partitions of that
    block structure.
    """

    n: int
    entries: tuple[tuple[int, int, tuple[int, ...]], ...]


BELL_PARTITION_MAX_N = 12


def bell_partitions(n: int) -> BellPartitionTable:
    if not 1 <= n <= BELL_PARTITION_MAX_N:
        raise ValueError(f"n must lie in 1..{BELL_PARTITION_MAX_N}")
    entries = []
    for multi in _multi_indices(n, n):
        k = sum(multi)
        coeff = factorial(n)
        for j, mj in enumerate(multi, start=1):
            coeff //= factorial(j) ** mj * factorial(mj)
        entries.append((coeff, k, tuple(multi)))
    entries.sort(key=lambda e: (-e[1], e[2]))
    return BellPartitionTable(n, tuple(entries))


def _multi_indices(n: int, length: int):
    """All (m_1..m_length) with sum j*m_j = n."""

    def rec(j: int, remaining: int, prefix: list[int]):
        if j > length:
            if remaining == 0:
                yield list(prefix)
            return
        for mj in range(remaining // j + 1):
            yield from rec(j + 1, remaining - j * mj, prefix + [mj])

    yield from rec(1, n, [])

"""Exact combinatorial coefficients, and the one order warranty.

The derivative-exchange coefficients c_{i,j} of the Laplace identities and
the partition tables behind the higher-order chain rule, in exact integer
arithmetic (Python ints, so there is no overflow limit).

The kernel, the jets, the partition tables and the symbol estimates take the
one order warranty n = 0..MAX_ORDER, refusing any other n by one check; exact
algebra that none of them bounds takes any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

__all__ = [
    "cn_coefficient",
    "BellPartitionTable",
    "bell_partitions",
]

#: the highest order of the one warranty, n = 0..MAX_ORDER
MAX_ORDER = 16


def _check_order(n: int) -> None:
    """Refuse an order outside the warranty 0..MAX_ORDER."""
    if not 0 <= n <= MAX_ORDER:
        raise ValueError(f"the order must lie in 0..{MAX_ORDER}, got {n}")


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


def bell_partitions(n: int) -> BellPartitionTable:
    """The table of (f o phi)^(n), n = 0..MAX_ORDER; at n = 0 its one entry is f itself."""
    _check_order(n)
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

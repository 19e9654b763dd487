"""Number-theoretic primitives: Mobius sieve, the Mertens function at the exact
method's block ends, integer-argument zeta, multi-way GCD."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class MobiusTable:
    """Tabulated Mobius function mu(j) for 1 <= j <= limit.

    ``values`` is an int8 array of length ``limit + 1``; ``values[j]`` is
    mu(j) and slot 0 is unused (kept zero so indices line up with j).
    """

    limit: int
    values: np.ndarray


def sieve_mobius(limit: int) -> MobiusTable:
    """Sieve mu(j) for all j <= limit.

    Only the primes p <= sqrt(limit) are sieved: each flips the sign of mu on
    its multiples, zeroes mu on multiples of p^2 and multiplies ``prod`` by p
    on its multiples. A squarefree j <= limit has at most one prime factor
    above sqrt(limit), and has one exactly when ``prod[j] < j``, so one
    vectorised step supplies that factor's sign (mu is already 0 at every
    other j with ``prod[j] < j``). That is O(sqrt(limit) / log limit)
    Python-level steps and O(limit log log limit) array work, with flat int8
    storage. ``prod[j]`` is a product of distinct primes dividing j, so at
    most j: ``prod`` and its index range are int32, so a limit of 2**31 or
    more is refused before any allocation (the exact method sieves to <= 10**7).
    """
    if not 1 <= limit < 2**31:
        raise ValueError(f"sieve limit must be in [1, 2**31), got {limit}")
    import numpy as np

    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    root = math.isqrt(limit)
    is_prime = np.ones(root + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    prod = np.ones(limit + 1, dtype=np.int32)
    for p in np.flatnonzero(is_prime):
        p = int(p)
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        prod[p::p] *= p
    mu[prod < np.arange(limit + 1, dtype=np.int32)] *= -1
    return MobiusTable(limit=limit, values=mu)


def mertens_at_quotients(ends: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Block ends b of the ints n >= 0 in ``ends`` and the Mertens function there.

    With K the largest n, b lists 1..isqrt(K) and every n // q with
    q <= isqrt(n), ascending and once each, as int64; m[i] is
    M(b[i]) = mu(1) + ... + mu(b[i]). Up to T, M is the cumulative sum of a
    sieve to T. Above T, one ascending loop fills M(v) = 1 - sum over d >= 2
    of M(v // d) (Deleglise and Rivat, "Computing the summation of the Mobius
    function", Exp. Math. 5, 1996): the d <= isqrt(v) are summed one by one,
    reading M(v // d) from the sieve or from the values filled before, and
    the larger d are grouped by their quotient q <= isqrt(v), which is at
    most T. Each v costs O(sqrt(v)) vectorised steps, and there are at most
    K / T of them per n, so E = len(ends) values cost about E K / sqrt(T)
    steps against the sieve's O(T). T = (E K)^(2/3), capped at K, balances
    the two; at T = K the loop does not run.
    """
    import numpy as np

    top = max(ends)
    runs = [n // np.arange(math.isqrt(n), 0, -1) for n in ends]
    b = np.concatenate([np.arange(1, math.isqrt(top) + 1), *runs])
    # A stable sort merges the ascending runs; np.unique's full sort is slower.
    b.sort(kind="stable")
    b = b[np.diff(b, prepend=0) > 0]
    # T >= isqrt(K), so every quotient in a group lies inside the sieve.
    t = max(1, min(top, round((len(ends) * top) ** (2 / 3))))
    # |M(x)| <= x <= t < 2**31, the sieve's bound, so the sum fits in int32.
    small = np.cumsum(sieve_mobius(t).values, dtype=np.int32)
    low = int(np.searchsorted(b, t, side="right"))
    m = np.empty(len(b), dtype=np.int64)
    m[:low] = small[b[:low]]
    d = np.arange(math.isqrt(top) + 2)
    for k, v in enumerate(b[low:].tolist(), low):
        r = math.isqrt(v)
        hi = v // (t + 1) + 1  # v // d > t exactly for 2 <= d < hi
        s = v // (r + 1)  # largest quotient of a d > r
        w = v // d[1 : s + 2]  # w[q - 1] - w[q] values of d give v // d = q
        # Each v // d > t is in b, below v: v = n // q, so v // d = n // (qd),
        # and qd <= isqrt(n) because otherwise n // (qd) <= isqrt(n) <= t.
        m[k] = 1 - (
            m[np.searchsorted(b, v // d[2:hi])].sum()
            + small[v // d[hi : r + 1]].sum()
            + np.dot(w[:-1] - w[1:], small[1 : s + 1])
        )
    return b, m


ZETA_TOL = 1e-12  # certified error bound of zeta_int


def zeta_int(m: int) -> float:
    """Riemann zeta at an integer argument m >= 2 with error < ZETA_TOL.

    Sums the series head and closes it with an integral tail estimate plus
    Euler-Maclaurin correction terms; the first omitted term bounds the
    truncation error, so the cutoff J stays small even at 1e-12. For
    m > 1,100, zeta(m) - 1 < 2^(1-m) lies below the smallest positive double,
    so 1.0 is returned before m is turned into a float (which overflows for
    m above about 1e102).
    """
    if m < 2:
        raise ValueError(f"zeta series diverges for m < 2, got {m}")
    if m > 1_100:
        return 1.0
    # Error after the B2 term is below m(m+1)(m+2)/720 * J^-(m+3).
    c4 = m * (m + 1) * (m + 2) / 720.0
    J = max(2, math.ceil((c4 / (ZETA_TOL / 2.0)) ** (1.0 / (m + 3))))
    head = math.fsum(j ** -float(m) for j in range(1, J))
    tail = (
        J ** (1.0 - m) / (m - 1)
        + 0.5 * J ** -float(m)
        + (m / 12.0) * J ** -(m + 1.0)
    )
    return head + tail


def gcd_all(values: Iterable[int] | Sequence[int]) -> int:
    """GCD of a non-empty collection of positive integers."""
    values = [int(v) for v in values]
    if not values:
        raise ValueError("gcd_all requires at least one value")
    for v in values:
        if v < 1:
            raise ValueError(f"all values must be positive integers, got {v}")
    return math.gcd(*values)

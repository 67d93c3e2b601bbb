"""Host speed probe: a fixed pure-Python kernel timed between invocations.

On a shared host the same interpreter runs the same code up to twice as
slowly when another tenant loads the physical core, in spells of a fraction
of a second to minutes.  The probe does a fixed amount of work of the kind
stratakit does (exact elimination over GF(3) and over Q, dictionary
counting) but none of stratakit's code, so no change to the program under
test changes its time.  Its time, next to an invocation, tells how fast the
host was at that moment.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Time of one probe on a quiet host (a 2 GHz Xeon vCPU, Python 3.11).  Only a
# scale: probed times are reported as the seconds they would take there.
REFERENCE_S = 0.022


def _entries(count: int) -> list[int]:
    """A fixed pseudo-random sequence (a linear congruential generator)."""
    x, out = 1, []
    for _ in range(count):
        x = (1103515245 * x + 12345) % 2**31
        out.append(x >> 16)
    return out


def _rank_mod(p: int, n: int) -> int:
    e = _entries(n * n)
    m = [[e[i * n + j] % p for j in range(n)] for i in range(n)]
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, n) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(n):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _rank_q(n: int) -> int:
    e = _entries(2 * n * n)
    q = [[Fraction(e[2 * (i * n + j)] % 7 - 3, 1 + e[2 * (i * n + j) + 1] % 4) for j in range(n)]
         for i in range(n)]
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, n) if q[i][c]), None)
        if piv is None:
            continue
        q[rank], q[piv] = q[piv], q[rank]
        for i in range(n):
            if i != rank and q[i][c]:
                f = q[i][c] / q[rank][c]
                q[i] = [a - f * b for a, b in zip(q[i], q[rank])]
        rank += 1
    return rank


def _count(n: int) -> int:
    d: dict = {}
    for i in range(n):
        key = (i % 97, i % 89)
        d[key] = d.get(key, 0) + 1
    return len(d)


def kernel() -> tuple[int, int, int]:
    return _rank_mod(3, 56), _rank_q(12), _count(30000)


# The kernel's answer; a probe that computes anything else is not timing the kernel.
EXPECTED = (56, 12, 8633)


def probe() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    got = kernel()
    elapsed = time.perf_counter() - start
    if got != EXPECTED:
        raise RuntimeError(f"speed probe computed {got}, not {EXPECTED}")
    return elapsed

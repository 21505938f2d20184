"""Reference product expansion by Euler's recurrence, for tests only.

This is the recurrence that qcore.packed_product replaced with one
Kronecker-packed integer: it expands a product of binomials one
coefficient at a time from the log-derivative, O(n^2) multiply-adds with
no digit width to prove.  Tests compare the packed expansion with it.
"""

from fractions import Fraction
from operator import mul

from qseries.series import _norm


def euler_product(factors, n: int):
    """Coefficients 0..n-1 of prod (1 - c*t^m)^sign over (c, m, sign), m > 0.

    A divisor sieve builds G = t*(log F)': each factor adds -sign*m*c^j to
    G_{mj}.  Euler's recurrence m*F_m = sum_{k=1..m} G_k*F_{m-k} (Knuth,
    TAOCP vol. 2, 4.7) then gives F one coefficient at a time, skipping the
    zero G_k.  With integer c every F_m is an integer, and each division is
    checked to be exact.
    """
    if n <= 0:
        return []
    integral = all(type(c) is int for c, _, _ in factors)
    g = [0] * n
    for c, m, sign in factors:
        w = -sign * m
        cj = 1
        for k in range(m, n, m):
            cj *= c
            g[k] += w * cj
    ks = [k for k in range(1, n) if g[k]]
    gs = [_norm(g[k]) for k in ks]
    f = [1] + [0] * (n - 1)
    used = 0
    for m in range(1, n):
        while used < len(ks) and ks[used] <= m:
            used += 1
        back = f[m::-1]  # back[k] == f[m - k]
        s = sum(map(mul, gs[:used], map(back.__getitem__, ks[:used])))
        if integral:
            f[m], r = divmod(s, m)
            if r:
                raise ArithmeticError(f"Euler recurrence: coefficient {m} of an integral product is {s}/{m}")
        else:
            f[m] = _norm(Fraction(s, m))
    return f


def expand_factors(single, tails, root, n):
    """The binomials (c, m, sign) with m < n of the peeled singles and the tails."""
    return list(single) + [(c, m, sign) for c, e, sign in tails for m in range(e, n, root)]

"""Coefficient kernels for truncated series arithmetic.

All functions operate on plain lists of exact numbers (int or Fraction),
indexed from the valuation: a[i] is the coefficient of t**(minexp + i).
Offset bookkeeping lives in qseries.series; these loops only ever see
window-relative indices.

Every loop returns canonical coefficients: an int wherever the value is
integral, a Fraction only where it is not.  Integer arithmetic stays on
ints by itself, so only an output that holds a Fraction is rewritten.
"""

from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd
from operator import add, mul, sub

IMPLEMENTATION = "python"


def canonical(out):
    """out with every integral Fraction replaced by its int.

    math.gcd takes integers only and raises at the first other value, so it
    tests at C speed that out is all ints, the common case, which needs
    nothing.
    """
    try:
        gcd(*out)
    except TypeError:
        return [x.numerator if type(x) is Fraction and x.denominator == 1 else x for x in out]
    return out


def mul_dense(a, b, nmax):
    """Cauchy product of a and b, truncated to nmax coefficients."""
    la, lb = len(a), len(b)
    n = min(nmax, la + lb - 1) if la and lb else 0
    out = [0] * n
    for i in range(min(la, n)):
        ai = a[i]
        if not ai:
            continue
        for j, bj in enumerate(b[: n - i], i):
            if bj:
                out[j] += ai * bj
    return canonical(out)


def mul_sparse(a, b, nmax):
    """a times the sparse polynomial b, truncated to nmax coefficients.

    b is a sequence of (offset, coefficient) pairs with distinct offsets
    >= 0 and nonzero coefficients; each pair is one pass that adds
    coefficient * a into the output from its offset on.
    """
    la = len(a)
    n = min(nmax, la + max(off for off, _ in b)) if la and b else 0
    out = [0] * n
    for off, c in b:
        end = min(n, off + la)     # past n the slice is empty and nothing changes
        if c == 1:
            out[off:end] = map(add, out[off:end], a)
        elif c == -1:
            out[off:end] = map(sub, out[off:end], a)
        else:
            out[off:end] = map(add, out[off:end], map(mul, a, repeat(c)))
    return canonical(out)


def _padded(a, n):
    """a cut or padded with zeros to n coefficients, as a new list."""
    la = len(a)
    if la >= n:
        return list(a[:n])
    out = list(a)
    out += [0] * (n - la)
    return out


def mul_binom(a, e, c, nmax):
    """Multiply a by (1 - c*t**e) with e > 0, truncated to nmax coefficients.

    c == 1, every step of the catalog, is one subtraction of the shifted
    window.
    """
    n = len(a) + e
    if nmax < n:
        n = nmax
    out = _padded(a, n)
    if c == 1:
        out[e:] = map(sub, out[e:], a)   # n - e <= len(a), so map stops with out[e:]
        return canonical(out)
    for i, ai in enumerate(a[: max(0, n - e)], e):
        if ai:
            out[i] -= c * ai
    return canonical(out)


def div_binom(a, e, c, nmax):
    """Divide a by (1 - c*t**e) with e > 0, extended to nmax coefficients.

    c == 1 is a running sum with stride e: accumulate for e == 1, else a
    branch-free loop (strided slices are short at the catalog's orders).
    """
    out = _padded(a, nmax)
    if c == 1:
        if e == 1:
            return canonical(list(accumulate(out)))
        for i in range(e, nmax):
            out[i] += out[i - e]
        return canonical(out)
    for i in range(e, nmax):
        prev = out[i - e]
        if prev:
            out[i] += c * prev
    return canonical(out)


def inv_dense(a, nmax):
    """Inverse of a series with a[0] != 0, to nmax coefficients."""
    lead = a[0]
    la = len(a)
    inv = 1 if lead == 1 else 1 / Fraction(lead)
    out = [inv] + [0] * (nmax - 1)
    for k in range(1, nmax):
        acc = 0
        for i in range(1, min(k, la - 1) + 1):
            ai = a[i]
            if ai:
                acc += ai * out[k - i]
        if acc:
            out[k] = -acc * inv
    return canonical(out)


def add_shifted(a, b, off, nmax):
    """a + t**off * b (off >= 0), truncated to nmax coefficients."""
    la = len(a)
    n = min(nmax, max(la, len(b) + off))
    out = list(a[:n]) + [0] * (n - min(la, n))
    for j, bj in enumerate(b[: max(0, n - off)], off):
        if bj:
            out[j] += bj
    return canonical(out)


def scale(a, c):
    """Multiply every coefficient by the nonzero scalar c."""
    return canonical([c * x if x else 0 for x in a])

"""q-calculus layer: exact q-exponents, Pochhammer symbols, partition patterns.

All q-expressions are evaluated through a ring object so the same formulas
run in two modes:

* SeriesRing   -- truncated Laurent series in t, with q = t**root.  This is
  the symbolic mode used for identity verification.
* RationalRing -- exact rational numbers, with t = r for a chosen rational r
  (so q = r**root).  This is the oracle mode: finite identities checked with
  zero tolerance.

A q-exponent is always an integer multiple of 1/root; it is stored as that
integer (the t-exponent).  Mixing roots inside one computation is a
construction-time error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from qseries.series import LaurentSeries, _inv_scalar, _norm

DEFAULT_ROOT = 12


class RootMismatch(ValueError):
    """A q-exponent is not an integer multiple of 1/root."""


class DivergentProduct(ArithmeticError):
    """Infinite Pochhammer product whose factors never approach 1."""


class PoleError(ArithmeticError):
    """Gamma-type evaluation at a nonpositive integer."""


@dataclass(frozen=True)
class QExp:
    """Exponent of q as the exact multiple num/root."""

    num: int
    root: int = DEFAULT_ROOT

    @staticmethod
    def of(x, root=DEFAULT_ROOT):
        """Build from a rational exponent of q, validating divisibility."""
        x = Fraction(x)
        num = x * root
        if num.denominator != 1:
            raise RootMismatch(f"exponent {x} is not a multiple of 1/{root}")
        return QExp(int(num), root)

    def as_fraction(self):
        return Fraction(self.num, self.root)


@dataclass(frozen=True)
class QMono:
    """An exact monomial coeff * q**(texp/root), stored via its t-exponent."""

    coeff: Fraction | int = 1
    texp: int = 0

    def __mul__(self, other):
        if isinstance(other, QMono):
            return QMono(self.coeff * other.coeff, self.texp + other.texp)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, QMono):
            c = Fraction(self.coeff, 1) / other.coeff
            if c.denominator == 1:
                c = int(c)
            return QMono(c, self.texp - other.texp)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k >= 0:
            return QMono(self.coeff**k, self.texp * k)
        c = Fraction(1, 1) / Fraction(self.coeff) ** (-k)
        if c.denominator == 1:
            c = int(c)
        return QMono(c, self.texp * k)

    @property
    def is_one(self):
        return self.coeff == 1 and self.texp == 0


def qpow(exponent, root=DEFAULT_ROOT):
    """The monomial q**exponent for a rational exponent."""
    return QMono(1, QExp.of(exponent, root).num)


# --------------------------------------------------------------------- rings


class SeriesRing:
    """Truncated-Laurent-series evaluation: q = t**root, window [*, order)."""

    mode = "series"

    def __init__(self, order, root=DEFAULT_ROOT):
        if root <= 0 or order <= 0:
            raise ValueError("root and order must be positive")
        self.root = root
        self.order = order

    def mono(self, coeff, texp=0):
        return LaurentSeries.monomial(coeff, texp)

    def one(self):
        return LaurentSeries.one()

    def zero(self):
        return LaurentSeries.zero(self.order)

    def of_qmono(self, m: QMono):
        return LaurentSeries.monomial(m.coeff, m.texp)

    def times_binom(self, v, coeff, texp):
        """v * (1 - coeff*q^(texp/root)) as a t-binomial."""
        return v.times_binom(coeff, texp)

    def over_binom(self, v, coeff, texp):
        return v.over_binom(coeff, texp, self.order)

    def inv(self, v):
        return v.inverse(self.order)

    def is_zero(self, v):
        return v.is_zero

    def eq(self, u, v):
        return u.first_difference(v, self.order) is None


class RationalRing:
    """Exact rational evaluation at t = r (so q = r**root) for rational r."""

    mode = "rational"

    def __init__(self, r, root=DEFAULT_ROOT):
        self.root = root
        self.r = Fraction(r)
        if not (0 < abs(self.r) < 1):
            raise ValueError("need 0 < |r| < 1 for convergent q-products")
        self.order = None

    def mono(self, coeff, texp=0):
        return coeff * self.r**texp

    def one(self):
        return Fraction(1)

    def zero(self):
        return Fraction(0)

    def of_qmono(self, m: QMono):
        return m.coeff * self.r**m.texp

    def times_binom(self, v, coeff, texp):
        return v * (1 - coeff * self.r**texp)

    def over_binom(self, v, coeff, texp):
        return v / (1 - coeff * self.r**texp)

    def inv(self, v):
        return 1 / v

    def is_zero(self, v):
        return v == 0

    def eq(self, u, v):
        return u == v


# --------------------------------------------------------- partition pattern


@dataclass(frozen=True)
class PartitionPattern:
    """Integer data (Lam, eps_*, lam_*) splitting n into four floor parts."""

    Lam: int
    eps: tuple[int, int, int, int]
    lam: tuple[int, int, int, int]

    def __post_init__(self):
        if self.Lam <= 0:
            raise ValueError("Lam must be positive")
        if sum(self.lam) != self.Lam:
            raise ValueError("lam entries must sum to Lam")
        if any(e < 0 for e in self.eps) or any(l < 0 for l in self.lam):
            raise ValueError("pattern entries must be nonnegative")
        for n in range(0, 64):
            if sum(self.indices(n)) != n:
                raise ValueError(f"floor identity fails at n={n}")

    def indices(self, n):
        """The four parts <n>_b, <n>_c, <n>_d, <n>_e."""
        return tuple((e + n * l) // self.Lam for e, l in zip(self.eps, self.lam))


DUPLICATE = PartitionPattern(2, (0, 0, 1, 0), (1, 0, 1, 0))
TRIPLICATE = PartitionPattern(3, (0, 1, 2, 0), (1, 1, 1, 0))
TRIPLICATE_SPLIT = PartitionPattern(3, (1, 0, 1, 0), (1, 0, 2, 0))


def partition_indices(pattern: PartitionPattern, n: int):
    return pattern.indices(n)


# ------------------------------------------------------------------ products


def poch_finite(ring, x: QMono, n: int, step: QMono | None = None):
    """(x; s)_n = prod_{k<n} (1 - x*s^k), with step s defaulting to q."""
    if n < 0:
        raise ValueError("finite Pochhammer needs n >= 0")
    s = step if step is not None else QMono(1, ring.root)
    acc = ring.one()
    c, e = x.coeff, x.texp
    for _ in range(n):
        acc = ring.times_binom(acc, c, e)
        c *= s.coeff
        e += s.texp
    return acc


def poch_infinite(ring: SeriesRing, x: QMono, step: QMono | None = None, on_zero="zero"):
    """(x; s)_inf as a truncated series, exact to the ring order.

    Factors are multiplied until (1 - x*s^k) deviates from 1 only at or
    beyond the truncation order.  Leading factors with nonpositive valuation
    are carried exactly.  A factor equal to (1 - 1) either annihilates the
    product (on_zero="zero") or is dropped and counted (on_zero="drop").
    """
    if ring.mode != "series":
        raise TypeError("infinite products require the series ring")
    s = step if step is not None else QMono(1, ring.root)
    if s.texp <= 0:
        raise DivergentProduct("step must have positive valuation")
    acc = ring.one()
    drops = 0
    c, e = x.coeff, x.texp
    while True:
        v = acc.val_floor()
        if v is None:  # exact zero: an earlier factor was (1 - 1)
            break
        if e >= ring.order - min(v, 0):
            break
        if c == 1 and e == 0 and on_zero == "drop":
            drops += 1
        else:
            acc = ring.times_binom(acc, c, e)
        c *= s.coeff
        e += s.texp
    acc = acc.truncate(ring.order)
    if on_zero == "drop":
        return acc, drops
    return acc


def poch_quotient(ring: SeriesRing, num, den):
    """prod_{x in num} (x;q)_inf / prod_{y in den} (y;q)_inf, exact to the ring order.

    Factors with nonpositive valuation are taken out exactly: (1 - c*t^e)
    with e < 0 is -c*t^e * (1 - t^-e/c), and (1 - c) with c != 1 is a
    scalar.  What remains is a product of binomials (1 - c*t^m)^(+-1) with
    m > 0, expanded by euler_product to exactly order - valuation
    coefficients.  An identically-zero factor (1 - q^0) is dropped.

    Returns (series, dropped): dropped lists (from_num, i) for each product
    that lost a zero factor, numerator products first, in index order.
    """
    if ring.mode != "series":
        raise TypeError("infinite products require the series ring")
    lead = Fraction(1)
    val = 0
    single = []   # (c, m, sign): peeled binomials (1 - c*t^m)^sign, m > 0
    tails = []    # (c, e, sign): (c*t^e; q)_inf^sign with e > 0
    dropped = []
    for sign, monos in ((1, num), (-1, den)):
        for i, x in enumerate(monos):
            c, e = _norm(x.coeff), x.texp
            if not c:
                continue
            while e <= 0:
                if e < 0:
                    lead = lead * -c if sign > 0 else lead / -c
                    val += sign * e
                    single.append((_norm(_inv_scalar(c)), -e, sign))
                elif c != 1:
                    lead = lead * (1 - c) if sign > 0 else lead / (1 - c)
                else:
                    dropped.append((sign > 0, i))
                e += ring.root
            tails.append((c, e, sign))
    n = ring.order - val
    factors = single + [(c, m, sign) for c, e, sign in tails for m in range(e, n, ring.root)]
    lead = _norm(lead)
    coeffs = euler_product(factors, n)
    if lead != 1:
        coeffs = [_norm(lead * f) for f in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return LaurentSeries(val if coeffs else 0, coeffs, ring.order, _trusted=True), dropped


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


def gauss_binom(ring, m: int, n: int):
    """Gaussian binomial coefficient [m, n] as a ring element."""
    if n < 0 or n > m:
        return ring.zero() if ring.mode == "series" else Fraction(0)
    n = min(n, m - n)
    q = QMono(1, ring.root)
    num = poch_finite(ring, q ** (m - n + 1), n)
    den = poch_finite(ring, q, n)
    return num * ring.inv(den)


# --------------------------------------------------------------------- theta


def _binom2(m: int) -> int:
    return m * (m - 1) // 2


def theta_monomial(pattern: PartitionPattern, a: QMono, b: QMono, c: QMono, d: QMono,
                   m: int, root: int = DEFAULT_ROOT) -> QMono:
    """The monomial weight q^(C(m,2) - sum C(<m>,2)) * (a/b)^.. (bcd/qa)^.. ."""
    ib, ic, id_, ie = pattern.indices(m)
    texp = root * (_binom2(m) - _binom2(ib) - _binom2(ic) - _binom2(id_) - _binom2(ie))
    q = QMono(1, root)
    out = QMono(1, texp)
    for ratio, k in (((a / b), ib), ((a / c), ic), ((a / d), id_), ((b * c * d / (q * a)), ie)):
        out = out * ratio**k
    return out


# ------------------------------------------------------------ q-gamma checks


def q_gamma_numeric(x, q, ctx=None):
    """Gamma_q(x) = (1-q)^(1-x) (q;q)_inf / (q^x;q)_inf at numeric 0 < q < 1.

    Both infinite products are truncated at the first factor within
    10^-(digits+10) of 1 (ten guard digits).
    """
    import mpmath

    if ctx is None:
        ctx = mpmath.ctx_mp.MPContext()
        ctx.dps = 30
    x = Fraction(x)
    if x.denominator == 1 and x <= 0:
        raise PoleError(f"Gamma_q pole at {x}")
    qv = ctx.mpf(q.numerator) / q.denominator if isinstance(q, Fraction) else ctx.mpf(q)
    if not (0 < qv < 1):
        raise ValueError("need 0 < q < 1")
    tiny = ctx.mpf(10) ** (-(ctx.dps + 10))

    def infprod(z):
        acc = ctx.mpf(1)
        while abs(z) > tiny:
            acc *= 1 - z
            z *= qv
        return acc

    xf = ctx.mpf(x.numerator) / x.denominator
    return ctx.power(1 - qv, 1 - xf) * infprod(qv) / infprod(ctx.power(qv, xf))

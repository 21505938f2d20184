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


class ConvergenceError(ArithmeticError):
    """A numeric expansion did not reach its tolerance within its term budget."""


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


# ------------------------------------------------------ numeric q-products

_HEAD = 64            # factors multiplied directly before the tail
_MAX_HEAD = 4096      # factor budget of a head that must bring x*q^k down to q^_HEAD
_EM_TERMS = 100       # Bernoulli-term budget of the Euler-Maclaurin tail
_EULERIAN = [[1]]     # row n: the Eulerian numbers A(n, i), i < max(n, 1)


def q_pochhammer_numeric(x, q, ctx):
    """(x;q)_inf = prod_{k>=0} (1 - x*q^k) at numeric x >= 0 and 0 < q < 1.

    The value has the precision of ctx.  x and q are anything ctx.convert
    accepts, converted at the working precision; log (x;q)_inf moves by
    about 1/(1-q)^2 times a relative change of q, so pass q exactly (a
    Fraction) near 1.

    The first _HEAD factors (and, for x > 1, the further ones until
    x*q^k <= q^_HEAD) are multiplied directly; the product stops there once
    z = x*q^N is below min(1, t) times the tolerance 10^-(dps+5), with
    t = -ln q, so that the rest, about z/t, is below the tolerance.
    Otherwise the rest, sum_{k>=N} log(1 - z*q^k), is added in log space in
    closed form:

    * z <= 3/4: the exact series -sum_{m>=1} z^m / (m*(1 - q^m));
    * otherwise Euler-Maclaurin, -Li_2(z)/t + log(1-z)/2
      - sum_{j>=1} B_2j/(2j)! * t^(2j-1) * Li_{2-2j}(z), where each
      Li_{-n}(z) = z*A_n(z)/(1-z)^(n+1) is a rational function (A_n the
      Eulerian polynomial) and the sum stops at its first term below the
      tolerance.

    The Euler-Maclaurin series is asymptotic and needs z near 1 (its terms
    shrink like (t/(2*pi*(1-z)))^2j); the log series converges like z^m.
    So the cost depends on the precision, not on 1 - q.  The work runs with
    log10(1/t) + 5 guard digits: the tail is about -pi^2/(6t), and
    quotients of such products cancel.  Raises ValueError unless x >= 0 and
    0 < q < 1, and ConvergenceError when the head needs more than _MAX_HEAD
    factors or the Bernoulli sum has not converged after _EM_TERMS terms
    (near q = 1 that caps the precision at about 140 digits).
    """
    qv = ctx.convert(q)
    if not 0 < qv < 1:
        raise ValueError("need 0 < q < 1")
    if ctx.convert(x) < 0:
        raise ValueError("need x >= 0")
    tol = ctx.mpf(10) ** -(ctx.dps + 5)
    guard = max(0, int(ctx.log10(-1 / ctx.ln(qv)))) + 5
    with ctx.extradps(guard):
        x, q = ctx.convert(x), ctx.convert(q)
        t = -ctx.ln(q)
        acc, z, k = ctx.one, x, 0
        floor, stop = q**_HEAD, tol * min(1, t)
        while (k < _HEAD or z > floor) and z >= stop:
            if k == _MAX_HEAD:
                raise ConvergenceError(f"(x;q)_inf head: x*q^k still above q^{_HEAD} after {k} factors")
            acc *= 1 - z
            z *= q
            k += 1
        if z >= stop:
            acc *= ctx.exp(_log_tail(z, q, t, tol, ctx))
    return +acc


def _log_tail(z, q, t, tol, ctx):
    """sum_{k>=0} log(1 - z*q^k) for 0 < z <= q^_HEAD, t = -ln q (see q_pochhammer_numeric)."""
    if z <= 0.75:
        tail, zm, qm, m = ctx.zero, z, q, 1
        while zm >= tol * (1 - qm):
            tail -= zm / (m * (1 - qm))
            zm *= z
            qm *= q
            m += 1
        return tail
    tail = -ctx.polylog(2, z) / t + ctx.ln(1 - z) / 2
    w = t / (1 - z)
    for j in range(1, _EM_TERMS + 1):
        # t^(2j-1) * Li_{2-2j}(z) = z * A_{2j-2}(z) * w^(2j-1)
        poly = ctx.zero
        for a in reversed(_eulerian(2 * j - 2)):
            poly = poly * z + a
        term = ctx.bernoulli(2 * j) / ctx.fac(2 * j) * z * poly * w ** (2 * j - 1)
        tail -= term
        if abs(term) < tol:
            return tail
    raise ConvergenceError(f"(x;q)_inf tail: Euler-Maclaurin sum not below tolerance after {_EM_TERMS} terms")


def _eulerian(n):
    """Row n of the Eulerian numbers: A(n, i) = (i+1)*A(n-1, i) + (n-i)*A(n-1, i-1)."""
    while len(_EULERIAN) <= n:
        m, prev = len(_EULERIAN), _EULERIAN[-1]
        _EULERIAN.append([(i + 1) * (prev[i] if i < len(prev) else 0) + (m - i) * (prev[i - 1] if i else 0)
                          for i in range(m)])
    return _EULERIAN[n]


def q_gamma_numeric(x, q, ctx=None):
    """Gamma_q(x) = (1-q)^(1-x) (q;q)_inf / (q^x;q)_inf at numeric 0 < q < 1.

    Both infinite products come from q_pochhammer_numeric: a direct head of
    64 factors and a closed-form tail (Euler-Maclaurin near q = 1), so the
    cost does not grow as q -> 1.  The default context has 30 digits.
    """
    import mpmath

    if ctx is None:
        ctx = mpmath.ctx_mp.MPContext()
        ctx.dps = 30
    x = Fraction(x)
    if x.denominator == 1 and x <= 0:
        raise PoleError(f"Gamma_q pole at {x}")
    qv = ctx.convert(q)
    if not (0 < qv < 1):
        raise ValueError("need 0 < q < 1")
    xf = ctx.convert(x)
    return ctx.power(1 - qv, 1 - xf) * q_pochhammer_numeric(q, q, ctx) / q_pochhammer_numeric(ctx.power(qv, xf), q, ctx)

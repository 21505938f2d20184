"""q-calculus layer: exact q-monomials, Pochhammer symbols, numeric q-products.

All q-expressions are evaluated through a ring object so the same formulas
run in two modes:

* SeriesRing   -- truncated Laurent series in t, with q = t**root.  This is
  the symbolic mode used for identity verification.
* RationalRing -- exact rational numbers, with t = r for a chosen rational r
  (so q = r**root).  This is the oracle mode: finite identities checked with
  zero tolerance.

A q-exponent is always an integer multiple of 1/root; it is stored as that
integer (the t-exponent).
"""

from __future__ import annotations

from fractions import Fraction
from math import exp, expm1, factorial, inf, lcm, log, log1p, log2, pi

from qseries.series import LaurentSeries, _inv_scalar, _norm

DEFAULT_ROOT = 12


class PoleError(ArithmeticError):
    """Gamma-type evaluation at a nonpositive integer."""


class ConvergenceError(ArithmeticError):
    """A numeric expansion did not reach its tolerance within its term budget."""


class QMono:
    """An exact monomial coeff * q**(texp/root), stored via its t-exponent.

    A value: equal and hashed by (coeff, texp), and never changed after
    construction.  A plain class rather than a tuple, so that QMono * 3 is
    an error and not a repetition.
    """

    __slots__ = ("coeff", "texp")

    def __init__(self, coeff: Fraction | int = 1, texp: int = 0):
        self.coeff = coeff
        self.texp = texp

    def __repr__(self):
        return f"QMono(coeff={self.coeff!r}, texp={self.texp!r})"

    def __eq__(self, other):
        if other.__class__ is QMono:
            return self.coeff == other.coeff and self.texp == other.texp
        return NotImplemented

    def __hash__(self):
        return hash((self.coeff, self.texp))

    def __mul__(self, other):
        if isinstance(other, QMono):
            return QMono(self.coeff * other.coeff, self.texp + other.texp)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, QMono):
            a, b = self.coeff, other.coeff
            if type(a) is int and type(b) is int and not a % b:
                c = a // b  # the common case, kept off Fraction arithmetic
            else:
                c = Fraction(a, 1) / b
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

    def times_mono(self, v, coeff, texp):
        """v * coeff*q^(texp/root), a shift and a scaling of the window."""
        return v.shift(texp).scale(coeff)

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

    def times_mono(self, v, coeff, texp):
        return v * (coeff * self.r**texp)

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


# ------------------------------------------------------------------ products


def poch_finite(ring, x: QMono, n: int):
    """(x; q)_n = prod_{k<n} (1 - x*q^k)."""
    if n < 0:
        raise ValueError("finite Pochhammer needs n >= 0")
    acc = ring.one()
    c, e = x.coeff, x.texp
    for _ in range(n):
        acc = ring.times_binom(acc, c, e)
        e += ring.root
    return acc


def poch_infinite(ring: SeriesRing, x: QMono, on_zero="zero"):
    """(x; q)_inf as a truncated series, exact to the ring order.

    Factors are multiplied until (1 - x*q^k) deviates from 1 only at or
    beyond the truncation order.  Leading factors with nonpositive valuation
    are carried exactly.  A factor equal to (1 - 1) either annihilates the
    product (on_zero="zero") or is dropped and counted (on_zero="drop").
    """
    if ring.mode != "series":
        raise TypeError("infinite products require the series ring")
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
        e += ring.root
    acc = acc.truncate(ring.order)
    if on_zero == "drop":
        return acc, drops
    return acc


def poch_quotient(num, den, root: int, order: int):
    """prod_{x in num} (x;q)_inf / prod_{y in den} (y;q)_inf, exact to t^order, with q = t^root.

    Factors with nonpositive valuation are taken out exactly: (1 - c*t^e)
    with e < 0 is -c*t^e * (1 - t^-e/c), and (1 - c) with c != 1 is a
    scalar.  What remains is a product of binomials (1 - c*t^m)^(+-1) with
    m > 0: the peeled ones and the tails (c*t^e; q)_inf with e > 0, which
    packed_product expands as one Kronecker-packed integer to exactly
    order - valuation coefficients.  An identically-zero factor (1 - q^0)
    is dropped.

    Returns (series, dropped): dropped lists (from_num, i) for each product
    that lost a zero factor, numerator products first, in index order.
    """
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
                    single.append((_inv_scalar(c), -e, sign))
                elif c != 1:
                    lead = lead * (1 - c) if sign > 0 else lead / (1 - c)
                else:
                    dropped.append((sign > 0, i))
                e += root
            tails.append((c, e, sign))
    lead = _norm(lead)
    coeffs = packed_product(single, tails, root, order - val)
    if lead != 1:
        coeffs = [_norm(lead * f) for f in coeffs]
    return LaurentSeries(val, coeffs, order, _canonical=True), dropped


def packed_product(single, tails, root: int, n: int):
    """Coefficients 0..n-1 of prod (1 - c*t^m)^sign over single and the tails.

    single holds binomials (c, m, sign) with m > 0; a tail (c, e, sign)
    with e > 0 is (c*t^e; t^root)_inf^sign, of which the factors with
    m < n matter.  Each c is an int or a Fraction.

    With L the lcm of the denominators of every c, put t = L*u: each factor
    becomes (1 - c*L^m * u^m) with an integer coefficient, and the product
    G(u) = F(L*u) has integer coefficients g_j = f_j * L^j.  Evaluating at
    u = 2^B is a ring homomorphism Z[u]/(u^n) -> Z/2^(nB), and every factor
    (1 - c'*u^m) is a unit on both sides (its image is odd).  So the
    integer X = G(2^B) mod 2^(nB) is built exactly, however large the
    coefficients of the partial products get:

    * a numerator factor maps X to X - c'*(X << mB), mod 2^(nB);
    * a denominator factor uses 1/(1 - y) = prod_{j<J} (1 + y^(2^j)) mod u^n,
      with y = c'*u^m and m*2^J >= n, one shift-add per j.

    When every |g_j| < 2^(B-1), X holds the g_j as its balanced base-2^B
    digits, and that representation is unique, so one pass over X's bytes
    reads them back.  digit_width proves such a B.  A factor with c' = 1
    costs no multiplication.
    """
    if n <= 0:
        return []
    scale = lcm(*(c.denominator for c, _, _ in single + tails))
    width = digit_width(single, tails, root, n, scale)
    mask = (1 << n * width) - 1
    x = 1
    for c, m, sign in single + [(c, m, sign) for c, e, sign in tails for m in range(e, n, root)]:
        if scale != 1:
            c = c.numerator * (scale**m // c.denominator)
        if sign > 0:
            y = x << m * width
            x = (x - (y if c == 1 else c * y)) & mask
        else:
            while m < n:
                y = x << m * width
                x = (x + (y if c == 1 else c * y)) & mask
                m, c = 2 * m, c * c
    w = width // 8
    raw = x.to_bytes(n * w, "little")
    digits = [int.from_bytes(raw[i:i + w], "little", signed=True) for i in range(0, n * w, w)]
    coeffs = [d + (p < 0) for d, p in zip(digits, [0] + digits)]  # a negative digit borrowed one
    if scale != 1:
        out, power = [], 1
        for g in coeffs:
            out.append(_norm(Fraction(g, power)))
            power *= scale
        coeffs = out
    return coeffs


_GUARD_BITS = 1.0       # for the float rounding of the bound
_LN2 = log(2)
_ZETA2 = pi * pi / 6    # Li_2(1)


def digit_width(single, tails, root: int, n: int, scale: int) -> int:
    """A width B, in whole bytes, with |g_j| < 2^(B-1) for every j < n (see packed_product).

    Cauchy's bound on a majorant (Flajolet and Sedgewick, Analytic
    Combinatorics, VIII.2): with every (1 - c*t^m) replaced by
    (1 + |c|*t^m) and every 1/(1 - c*t^m) by 1/(1 - |c|*t^m), the product
    H has nonnegative coefficients that dominate |f_j|, so for 0 < r < 1
    inside H's radius |f_j| <= H(r)/r^j, and |g_j| = L^j*|f_j| <=
    H(r)*(L/r)^(n-1).  log H(r) sums, with a = |c|*r^m:

    * log(1 + a) for a peeled numerator, -log(1 - a) for a denominator;
    * for a numerator tail, with a = |c|*r^e and q = r^root:
      sum_k log(1 + a*q^k) <= sum_k a*q^k = a/(1 - q);
    * for a denominator tail, as -log(1 - a*q^x) falls with x,
      sum_k -log(1 - a*q^k) <= -log(1 - a) + integral_0^inf -log(1 - a*q^x) dx
      = -log(1 - a) + Li_2(a)/lambda <= -log(1 - a) + (pi^2/6)*a/lambda,
      lambda = -ln q (Li_2(a) <= a*Li_2(1) for 0 <= a <= 1).

    The exponent is convex in log r, so the scan over the grid
    r = R*(1 - 2^(-k/2)), k = 1, 2, ..., stops at its first rise; the grid
    ends near 1 - 1/n, where -(n-1)*log r is about 1.  R is 1 or the
    smallest radius |c|^(-1/m) of any factor, so every a stays below 1
    (the tails need r < 1, and a denominator (1 - 2t) puts R at 1/2).
    _GUARD_BITS more bits cover the rounding of the floats.
    """
    single = [(_log_abs(c), m, sign) for c, m, sign in single]
    tails = [(_log_abs(c), e, sign) for c, e, sign in tails]
    log_radius = min([0.0] + [-lc / m for lc, m, _ in single + tails])
    best = inf
    for k in range(1, 2 * n.bit_length() + 3):
        s = log_radius + log1p(-2 ** (-k / 2))
        lam = -root * s
        one_minus_q = -expm1(-lam)
        total = -(n - 1) * s
        for lc, m, sign in single:
            a = exp(lc + m * s)
            total += log1p(a) if sign > 0 else -log1p(-a)
        for lc, e, sign in tails:
            a = exp(lc + e * s)
            total += a / one_minus_q if sign > 0 else a * _ZETA2 / lam - log1p(-a)
        if total >= best:
            break
        best = total
    bits = best / _LN2 + (n - 1) * log2(scale) + _GUARD_BITS
    return (int(bits) + 9) // 8 * 8   # B - 1 > bits


def _log_abs(c):
    """ln |c| for an int or Fraction c != 0, also past the float range."""
    return log(abs(c.numerator)) - log(c.denominator)


def gauss_binom(ring, m: int, n: int):
    """Gaussian binomial coefficient [m, n] as a ring element."""
    if n < 0 or n > m:
        return ring.zero()
    n = min(n, m - n)
    q = QMono(1, ring.root)
    num = poch_finite(ring, q ** (m - n + 1), n)
    den = poch_finite(ring, q, n)
    return num * ring.inv(den)


# ------------------------------------------------------ numeric q-products

_HEAD = 64            # factors multiplied directly before the tail
_MAX_HEAD = 4096      # factor budget of a head that must bring x*q^k down to q^_HEAD
_EM_TERMS = 100       # Bernoulli-term budget of the Euler-Maclaurin tail
_EULERIAN = [[1]]     # row n: the Eulerian numbers A(n, i), i < max(n, 1)
_BERNOULLI = []       # entry j-1: B_2j/(2j)! as (numerator, denominator)


def q_pochhammer_numeric(x, q, ctx):
    """(x;q)_inf = prod_{k>=0} (1 - x*q^k) at numeric x >= 0 and 0 < q < 1.

    One call of q_pochhammer_of(q, ctx); a product of several (x;q)_inf at
    one q should take that function once and call it on each x.
    """
    return q_pochhammer_of(q, ctx)(x)


def q_pochhammer_of(q, ctx):
    """The function x -> (x;q)_inf at numeric 0 < q < 1, with the per-q set-up done here, once.

    The set-up is everything that depends on q and ctx alone: the guard
    digits, q and t = -ln q in fixed point, the floor q^_HEAD and the stop
    tolerance.  The values have the precision ctx has at the set-up.  x and
    q are anything ctx.convert accepts, converted at the working precision
    wp (ctx's precision plus log10(1/t) + 5 guard digits, t = -ln q: the
    tail is about -pi^2/(6t), and quotients of such products cancel);
    log (x;q)_inf moves by about 1/(1-q)^2 times a relative change of q, so
    pass q exactly (a Fraction) near 1.

    The first _HEAD factors (and, for x > 1, the further ones until
    x*q^k <= q^_HEAD) are multiplied directly; the product stops there once
    z = x*q^N is below min(1, t) times the tolerance 10^-(dps+5), so that
    the rest, about z/t, is below the tolerance.  Otherwise the rest,
    sum_{k>=N} log(1 - z*q^k), is added in log space in closed form:

    * z <= 3/4: the exact series -sum_{m>=1} z^m / (m*(1 - q^m));
    * otherwise Euler-Maclaurin, -Li_2(z)/t + log(1-z)/2
      - sum_{j>=1} B_2j/(2j)! * t^(2j-1) * Li_{2-2j}(z), where each
      Li_{-n}(z) = z*A_n(z)/(1-z)^(n+1) is a rational function (A_n the
      Eulerian polynomial) and the sum stops at its first term below the
      tolerance.  Li_2(z) comes from the reflection
      pi^2/6 - ln z ln(1-z) - sum_{k>=1} (1-z)^k/k^2, whose ratio 1 - z
      is below 1/4.

    The Euler-Maclaurin series is asymptotic and needs z near 1 (its terms
    shrink like (t/(2*pi*(1-z)))^2j); the log series converges like z^m.
    So the cost depends on the precision, not on 1 - q.

    All of it runs on Python ints with P = wp + 32 fractional bits, and the
    result is rounded once into an mpf at the end.  z, q, t, 1 - z, the
    logarithms and every partial sum are fixed-point ints (value * 2^P);
    the head's product is an int mantissa acc times 2^scale, cut back to P
    bits after each factor.  The error budget, in units u = 2^-P:

    * z_k = x*q^k is truncated once per step, so it is off by at most about
      2(k+1) u relative to max(1, z_k); the cut of acc adds 2u relative.  A
      head of at most _MAX_HEAD = 4096 factors so loses at most
      sum_{k<4096} 2(k+2) u, about 2^24 u, times each factor's own
      condition max(1, z)/|1 - z|, which the product itself has.
    * The tail truncates once per series term: at most P/2 terms of the
      Li_2 series, 2j Horner steps and one quotient per Bernoulli term,
      and one step per log-series term, a few hundred u in all; -Li_2/t
      magnifies that by 1/t, which the guard digits in wp already cover.
      w^(2j-1) = t^(2j-1)/(1-z)^(2j-1) is kept as an exact ratio of int
      powers: as a fixed-point power it would underflow.
    * ln z, ln(1-z), pi, t and exp of the tail come from mpmath's raw mpf
      functions at P bits.

    So the head and the tail together stay below 2^25 u, and the 32 extra
    bits keep that below one unit in the last place of wp.  Raises
    ValueError unless 0 < q < 1 (here) and x >= 0 (at the call), and
    ConvergenceError when the head needs more than _MAX_HEAD factors or the
    Bernoulli sum has not converged after _EM_TERMS terms (near q = 1 that
    caps the precision at about 140 digits).
    """
    from mpmath import libmp

    qv = ctx.convert(q)
    if not 0 < qv < 1:
        raise ValueError("need 0 < q < 1")
    dps, (prec, rnd) = ctx.dps, ctx._prec_rounding
    guard = max(0, int(ctx.log10(-1 / ctx.ln(qv)))) + 5
    with ctx.extradps(guard):
        bits = ctx.prec + 32
        qf = ctx.convert(q)._mpf_
    one = 1 << bits
    qx = libmp.to_fixed(qf, bits)
    tf = libmp.mpf_neg(libmp.mpf_log(qf, bits))
    t = libmp.to_fixed(tf, bits)
    tol = one // 10 ** (dps + 5)
    floor = libmp.to_fixed(libmp.mpf_pow_int(qf, _HEAD, bits), bits)
    stop = tol if t >= one else tol * t >> bits

    def at(x):
        if ctx.convert(x) < 0:
            raise ValueError("need x >= 0")
        with ctx.extradps(guard):
            z = libmp.to_fixed(ctx.convert(x)._mpf_, bits)
        acc, scale, k = one, -bits, 0
        while (k < _HEAD or z > floor) and z >= stop:
            if k == _MAX_HEAD:
                raise ConvergenceError(f"(x;q)_inf head: x*q^k still above q^{_HEAD} after {k} factors")
            acc *= one - z
            shift = acc.bit_length() - bits
            if shift > 0:
                acc >>= shift
                scale += shift
            scale -= bits
            z = z * qx >> bits
            k += 1
        if z >= stop:
            _, man, exp, _ = libmp.mpf_exp(libmp.from_man_exp(_log_tail(z, qx, t, tf, tol, bits), -bits), bits)
            acc *= man
            scale += exp
        return ctx.make_mpf(libmp.from_man_exp(acc, scale, prec, rnd))

    return at


def _log_tail(z, q, t, tf, tol, bits):
    """sum_{k>=0} log(1 - z*q^k) for 0 < z <= q^_HEAD, in fixed point (see q_pochhammer_numeric).

    z, q, t = -ln q and tol are ints scaled by 2^bits, tf is t as a raw mpf;
    returns the sum scaled by 2^bits.
    """
    from mpmath import libmp

    one = 1 << bits
    if 4 * z <= 3 * one:
        tail, zm, qm, m = 0, z, q, 1
        while zm >= tol * (one - qm) >> bits:
            tail -= (zm << bits) // (m * (one - qm))
            zm = zm * z >> bits
            qm = qm * q >> bits
            m += 1
        return tail
    u = one - z
    ln_z = libmp.to_fixed(libmp.mpf_log(libmp.from_man_exp(z, -bits), bits), bits)
    ln_u = libmp.to_fixed(libmp.mpf_log(libmp.from_man_exp(u, -bits), bits), bits)
    pi = libmp.to_fixed(libmp.mpf_pi(bits), bits)
    li2, uk, k = pi * pi // (6 * one) - (ln_z * ln_u >> bits), u, 1
    while uk >= k * k:
        li2 -= uk // (k * k)
        uk = uk * u >> bits
        k += 1
    li2_t = libmp.to_fixed(libmp.mpf_div(libmp.from_man_exp(li2, -bits), tf, bits), bits)
    tail = -li2_t + (ln_u >> 1)
    # w^(2j-1) = t^(2j-1) / (1-z)^(2j-1), kept as the ratio wn / wd
    wn, wd, t2, u2 = t, u, t * t, u * u
    for j in range(1, _EM_TERMS + 1):
        # t^(2j-1) * Li_{2-2j}(z) = z * A_{2j-2}(z) * w^(2j-1)
        poly = 0
        for a in reversed(_eulerian(2 * j - 2)):
            poly = (poly * z >> bits) + (a << bits)
        bn, bd = _bernoulli_over_factorial(j)
        term = bn * (poly * z >> bits) * wn // (bd * wd)
        tail -= term
        if abs(term) < tol:
            return tail
        wn *= t2
        wd *= u2
    raise ConvergenceError(f"(x;q)_inf tail: Euler-Maclaurin sum not below tolerance after {_EM_TERMS} terms")


def _bernoulli_over_factorial(j):
    """B_2j/(2j)! as an exact (numerator, denominator) pair of ints, cached on first use."""
    import mpmath

    while len(_BERNOULLI) < j:
        n = 2 * len(_BERNOULLI) + 2
        num, den = mpmath.bernfrac(n)
        _BERNOULLI.append((num, den * factorial(n)))
    return _BERNOULLI[j - 1]


def _eulerian(n):
    """Row n of the Eulerian numbers: A(n, i) = (i+1)*A(n-1, i) + (n-i)*A(n-1, i-1)."""
    while len(_EULERIAN) <= n:
        m, prev = len(_EULERIAN), _EULERIAN[-1]
        _EULERIAN.append([(i + 1) * (prev[i] if i < len(prev) else 0) + (m - i) * (prev[i - 1] if i else 0)
                          for i in range(m)])
    return _EULERIAN[n]


def q_guard_digits(qv, ctx):
    """log10(1/(1-q)) + 5: the extra digits for q^a ahead of (q^a;q)_inf at 0 < q < 1."""
    return max(0, int(ctx.log10(1 / (1 - qv)))) + 5


def q_gamma_numeric(x, q, ctx=None):
    """Gamma_q(x) = (1-q)^(1-x) (q;q)_inf / (q^x;q)_inf at numeric 0 < q < 1.

    Both infinite products come from one q_pochhammer_of(q, ctx): a direct
    head of 64 factors and a closed-form tail (Euler-Maclaurin near q = 1),
    so the cost does not grow as q -> 1.  q^x and 1 - q are taken from q as given
    (pass it exactly, as a Fraction, near 1) with log10(1/(1-q)) + 5 guard
    digits, since (q^x;q)_inf magnifies an error in q^x about 1/(1-q)
    times.  The default context has 30 digits.
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
    with ctx.extradps(q_guard_digits(qv, ctx)):
        qe, xf = ctx.convert(q), ctx.convert(x)
        scale, qx = ctx.power(1 - qe, 1 - xf), ctx.power(qe, xf)
    poch = q_pochhammer_of(q, ctx)
    return scale * poch(q) / poch(qx)

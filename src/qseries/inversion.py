"""Jackson's well-poised sum, inverse series relations, and the finite dual identity.

The layer has two tiers:

1. jackson_lhs / jackson_rhs: the terminating very-well-poised sum and its
   closed product form, the root oracle for everything else.
2. The inversion pairs (classical, q-analogue, extended, reformulated) with
   an exact round-trip driver, plus the finite dual identity (lemma_H) and
   its nonterminating limit assembled from Theta/phi/H building blocks.

None of it runs when the catalog is verified: the five specialized theorems
and their evaluator are in qseries.theorems, which the test suite checks
against the general dual machinery here.  The command line loads this
module only for its oracle command.  The exact q-exponents (QExp, qpow) and
the partition patterns with their Theta monomials live here too, since
nothing else uses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from qseries.qcore import DEFAULT_ROOT, QMono, gauss_binom, poch_finite
from qseries.theorems import WPParams


class ParameterError(ValueError):
    """Inadmissible well-poised parameters (vanishing structural factor)."""


class DegenerateSpec(ValueError):
    """phi-polynomial vanishes at an evaluation point of an inversion pair."""


class RootMismatch(ValueError):
    """A q-exponent is not an integer multiple of 1/root."""


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


def qpow(exponent, root=DEFAULT_ROOT):
    """The monomial q**exponent for a rational exponent."""
    return QMono(1, QExp.of(exponent, root).num)


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


def params_from_exponents(ea, eb, ec, ed, root=12):
    """Build WPParams from rational exponents of q."""

    def mono(e):
        num = Fraction(e) * root
        if num.denominator != 1:
            raise ParameterError(f"exponent {e} incompatible with root {root}")
        return QMono(1, int(num))

    return WPParams(mono(ea), mono(eb), mono(ec), mono(ed))


# ------------------------------------------------------------------- Jackson


def _poch_quotient(ring, num, den, k):
    """prod (x;q)_k over num divided by the same over den, checking zeros."""
    acc = ring.one()
    for x in num:
        acc = acc * poch_finite(ring, x, k)
    for y in den:
        val = poch_finite(ring, y, k)
        if ring.is_zero(val):
            raise ParameterError(f"denominator Pochhammer ({y.coeff}*q^{y.texp}/L;q)_{k} vanishes")
        acc = acc * ring.inv(val)
    return acc


def jackson_lhs(ring, p: WPParams, n: int):
    """The terminating very-well-poised sum Omega_n(a;b,c,d)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    root = ring.root
    q = QMono(1, root)
    e = q ** (n + 1) * p.a**2 / (p.b * p.c * p.d)
    if p.a.is_one:
        raise ParameterError("a = 1 makes the well-poised prefactor singular")
    num = (p.a, p.b, p.c, p.d, e, q**-n)
    den = (q, q * p.a / p.b, q * p.a / p.c, q * p.a / p.d, q * p.a / e, q ** (n + 1) * p.a)
    total = ring.zero()
    one_minus_a = ring.times_binom(ring.one(), p.a.coeff, p.a.texp)
    inv_1ma = ring.inv(one_minus_a)
    for k in range(n + 1):
        term = _poch_quotient(ring, num, den, k)
        qa2k = p.a * q ** (2 * k)
        term = ring.times_binom(term, qa2k.coeff, qa2k.texp) * inv_1ma
        term = term * ring.mono(1, k * root)
        total = total + term
    return total


def jackson_rhs(ring, p: WPParams, n: int):
    """Closed form: the four-over-four product of finite Pochhammers."""
    root = ring.root
    q = QMono(1, root)
    num = (q * p.a, q * p.a / (p.b * p.c), q * p.a / (p.b * p.d), q * p.a / (p.c * p.d))
    den = (q * p.a / p.b, q * p.a / p.c, q * p.a / p.d, q * p.a / (p.b * p.c * p.d))
    return _poch_quotient(ring, num, den, n)


# ----------------------------------------------------------- inversion pairs


@dataclass(frozen=True)
class InversionSpec:
    """phi-polynomial data: phi(x;n) = prod_{k<n} (a_k + x*b_k), plus sigma."""

    a_seq: tuple[QMono, ...]
    b_seq: tuple[QMono, ...]
    sigma: QMono | None = None


def phi_poly(ring, spec: InversionSpec, x, n: int):
    """phi(x;n) for a ring element x."""
    acc = ring.one()
    for k in range(n):
        acc = acc * (ring.of_qmono(spec.a_seq[k]) + x * ring.of_qmono(spec.b_seq[k]))
    return acc


def _inv_or_degenerate(ring, v, what):
    if ring.is_zero(v):
        raise DegenerateSpec(f"{what} vanishes at an evaluation point")
    return ring.inv(v)


VARIANTS = ("classical", "carlitz", "extended", "reformulated")


def gould_hsu_roundtrip(ring, spec: InversionSpec, g, N: int, variant: str) -> bool:
    """Compute f from g by the forward relation, recover g by the dual one.

    Returns True iff the recovery is exact for all n <= N.  The variant
    selects one of the four catalogued inversion pairs.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if len(g) < N + 1:
        raise ValueError("need g(0..N)")
    root = ring.root
    q = QMono(1, root)
    qm = lambda m: ring.of_qmono(m)

    if variant == "classical":
        def forward(n):
            return sum(
                ((-1) ** k * math.comb(n, k)) * phi_poly(ring, spec, ring.mono(k, 0), n) * g[k]
                for k in range(n + 1)
            )

        def dual(n, f):
            acc = ring.zero()
            for k in range(n + 1):
                w = qm(spec.a_seq[k]) + k * qm(spec.b_seq[k])
                den = _inv_or_degenerate(ring, phi_poly(ring, spec, ring.mono(n, 0), k + 1), "phi(n;k+1)")
                acc = acc + ((-1) ** k * math.comb(n, k)) * w * den * f[k]
            return acc

    elif variant == "carlitz":
        def forward(n):
            return sum(
                (-1) ** k * gauss_binom(ring, n, k)
                * phi_poly(ring, spec, qm(q**-k), n) * g[k]
                for k in range(n + 1)
            )

        def dual(n, f):
            acc = ring.zero()
            for k in range(n + 1):
                w = qm(spec.a_seq[k]) + qm(q**-k) * qm(spec.b_seq[k])
                den = _inv_or_degenerate(ring, phi_poly(ring, spec, qm(q**-n), k + 1), "phi(q^-n;k+1)")
                acc = acc + ((-1) ** k) * gauss_binom(ring, n, k) * ring.mono(1, _binom2(n - k) * root) * w * den * f[k]
            return acc

    elif variant == "extended":
        sig = spec.sigma
        if sig is None:
            raise DegenerateSpec("extended pair needs sigma")

        def forward(n):
            acc = ring.zero()
            for k in range(n + 1):
                t = (-1) ** k * gauss_binom(ring, n, k)
                t = t * phi_poly(ring, spec, qm(q**k * sig), n)
                t = t * phi_poly(ring, spec, qm(q**-k), n)
                two = q ** (2 * k) * sig
                t = ring.times_binom(t, two.coeff, two.texp)
                t = t * _inv_or_degenerate(ring, poch_finite(ring, q**n * sig, k + 1), "(q^n sig;q)_{k+1}")
                acc = acc + t * g[k]
            return acc

        def dual(n, f):
            acc = ring.zero()
            for k in range(n + 1):
                t = (-1) ** k * gauss_binom(ring, n, k) * ring.mono(1, _binom2(n - k) * root)
                t = t * (qm(spec.a_seq[k]) + qm(q**k * sig) * qm(spec.b_seq[k]))
                t = t * (qm(spec.a_seq[k]) + qm(q**-k) * qm(spec.b_seq[k]))
                t = t * _inv_or_degenerate(ring, phi_poly(ring, spec, qm(q**n * sig), k + 1), "phi(q^n sig;k+1)")
                t = t * _inv_or_degenerate(ring, phi_poly(ring, spec, qm(q**-n), k + 1), "phi(q^-n;k+1)")
                t = t * poch_finite(ring, q**k * sig, n)
                acc = acc + t * f[k]
            return acc

    else:  # reformulated
        sig = spec.sigma
        if sig is None:
            raise DegenerateSpec("reformulated pair needs sigma")

        def big_phi(x: QMono, n: int):
            return phi_poly(ring, spec, qm(x * sig), n) * phi_poly(ring, spec, qm(x**-1), n)

        def psi(x: QMono, n: int):
            return poch_finite(ring, x * sig, n)

        def forward(n):
            acc = ring.zero()
            for k in range(n + 1):
                t = (-1) ** k * gauss_binom(ring, n, k)
                t = t * big_phi(q**k, n)
                t = t * _inv_or_degenerate(ring, psi(q**n, k + 1), "psi(q^n;k+1)")
                t = t * psi(q**k, k + 1)
                t = t * _inv_or_degenerate(ring, psi(q**k, k), "psi(q^k;k)")
                acc = acc + t * g[k]
            return acc

        def dual(n, f):
            acc = ring.zero()
            for k in range(n + 1):
                t = (-1) ** k * gauss_binom(ring, n, k) * ring.mono(1, _binom2(n - k) * root)
                t = t * psi(q**k, n)
                t = t * _inv_or_degenerate(ring, big_phi(q**n, k + 1), "phi(q^n;k+1)")
                t = t * big_phi(q**k, k + 1)
                t = t * _inv_or_degenerate(ring, big_phi(q**k, k), "phi(q^k;k)")
                acc = acc + t * f[k]
            return acc

    f = [forward(n) for n in range(N + 1)]
    for n in range(N + 1):
        if not ring.eq(dual(n, f), g[n]):
            return False
    return True


# ------------------------------------------- pattern phi / H / Theta / duals


@dataclass(frozen=True)
class PatternSystem:
    """Well-poised parameters joined with a partition pattern."""

    p: WPParams
    pattern: PartitionPattern
    root: int = 12

    def _q(self):
        return QMono(1, self.root)

    def arg_groups(self):
        """(first-row args, mirrored args): both indexed b, c, d, e."""
        p, q = self.p, self._q()
        row = (p.b, p.c, p.d, q * p.a**2 / (p.b * p.c * p.d))
        mirror = (p.b / p.a, p.c / p.a, p.d / p.a, q * p.a / (p.b * p.c * p.d))
        return row, mirror

    def phi(self, ring, x: QMono, n: int):
        """phi(x;n): eight pattern-indexed Pochhammers at sigma = a."""
        idx = self.pattern.indices(n)
        row, mirror = self.arg_groups()
        acc = ring.one()
        for arg, k in zip(row, idx):
            acc = acc * poch_finite(ring, arg * x, k)
        for arg, k in zip(mirror, idx):
            acc = acc * poch_finite(ring, arg / x, k)
        return acc

    def H(self, ring, n: int):
        """The shifted-factorial quotient H(n) of the finite dual identity."""
        p, q = self.p, self._q()
        ib, ic, id_, ie = self.pattern.indices(n)
        a, b, c, d = p.a, p.b, p.c, p.d
        e = q * a**2 / (b * c * d)
        num = [
            (b, ib), (c, ic), (d, id_), (e, ie),
            (b * c / a, ib + ic), (q * a / (b * c), id_ + ie),
            (b * d / a, ib + id_), (q * a / (b * d), ic + ie),
            (c * d / a, ic + id_), (q * a / (c * d), ib + ie),
        ]
        den = [
            (q, n), (b * c * d / a, ib + ic + id_),
            (q * a / b, ic + id_ + ie),
            (q * a / c, ib + id_ + ie),
            (q * a / d, ib + ic + ie),
        ]
        acc = ring.one()
        for arg, k in num:
            acc = acc * poch_finite(ring, arg, k)
        for arg, k in den:
            acc = acc * ring.inv(poch_finite(ring, arg, k))
        return acc

    def theta(self, m: int) -> QMono:
        return theta_monomial(self.pattern, self.p.a, self.p.b, self.p.c, self.p.d, m, self.root)

    def dual_term(self, ring, m: int):
        """Summand m of the nonterminating dual: Theta(m+1) * phi-ratio * H(m)."""
        q = self._q()
        num = self.phi(ring, q**m, m + 1)
        den = self.phi(ring, q**m, m)
        ratio = num * ring.inv(den)
        th = self.theta(m + 1)
        return -(ring.of_qmono(th) * ratio * self.H(ring, m))


def lemma_H_value(ring, p: WPParams, pattern: PartitionPattern, n: int):
    return PatternSystem(p, pattern, ring.root).H(ring, n)


def lemma_H_verify(ring, p: WPParams, pattern: PartitionPattern, n: int) -> bool:
    """Check the finite dual identity at order n (exactly in rational mode)."""
    sys = PatternSystem(p, pattern, ring.root)
    q = QMono(1, ring.root)
    a, b, c, d = p.a, p.b, p.c, p.d
    e = q * a**2 / (b * c * d)
    lhs = _poch_quotient(
        ring, (b, c, d, e), (q * a / b, q * a / c, q * a / d, b * c * d / a), n
    )
    rhs = ring.zero()
    for k in range(n + 1):
        t = ring.mono(1, (k - n) * ring.root)
        t = t * poch_finite(ring, q**n * a, k)
        t = t * poch_finite(ring, q**-n, k)
        t = t * ring.inv(sys.phi(ring, q**n, k + 1))
        t = t * sys.phi(ring, q**k, k + 1)
        t = t * ring.inv(sys.phi(ring, q**k, k))
        t = t * sys.H(ring, k)
        rhs = rhs + t
    return ring.eq(lhs, rhs)


def dual_series_term(ring, sysm: PatternSystem, delta: int, variant: str, n: int, i: int):
    """The (n, i) inner term of the general dual theorems.

    variant "U": delta <= i < delta + Lam (n >= 0);
    variant "V": delta - Lam <= i < delta (n >= 1).
    """
    Lam = sysm.pattern.Lam
    if not 0 <= delta < Lam:
        raise ValueError("need 0 <= delta < Lam")
    if variant == "U":
        if not (delta <= i < delta + Lam):
            raise IndexError(f"U-variant window is [{delta}, {delta + Lam})")
    elif variant == "V":
        if not (delta - Lam <= i < delta):
            raise IndexError(f"V-variant window is [{delta - Lam}, {delta})")
        if n < 1:
            raise IndexError("V-variant inner sum starts at n = 1")
    else:
        raise ValueError("variant must be 'U' or 'V'")
    return sysm.dual_term(ring, i + n * Lam)


def general_dual_group(ring, sysm: PatternSystem, delta: int, variant: str, n: int):
    """Sum of the inner window at outer index n."""
    Lam = sysm.pattern.Lam
    window = range(delta, delta + Lam) if variant == "U" else range(delta - Lam, delta)
    acc = ring.zero()
    for i in window:
        acc = acc + dual_series_term(ring, sysm, delta, variant, n, i)
    return acc


def general_dual_prefix(ring, sysm: PatternSystem, delta: int):
    """The singled-out initial delta terms."""
    acc = ring.zero()
    for k in range(delta):
        acc = acc + sysm.dual_term(ring, k)
    return acc

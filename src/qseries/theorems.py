"""The five specialized nonterminating dual theorems as structured data.

Each theorem is a recipe: an eight-factor infinite-product left side and a
right side summed over n, where term n is

    prefactor(n) * [finite Pochhammer block](n) * W_n

with W_n a ratio of binomial products times one or more brace groups (sums
of binomial-quotient expressions).  Everything is a q-monomial binomial
(1 - coeff * q^(cn*n + cc) * mono), so a term evaluates by O(order) binomial
multiplications and divisions per factor; no dense products are needed.
W_n is never formed on its own: it is distributed onto the running block.
Each brace term starts from block * coeff*q^e (a shift and a scaling) and
takes its own binomial steps, the group's terms are summed into the next
block, and the outer w_num/w_den binomials act on that sum.

The same recipe shape (SeriesRecipe) also carries catalogued identities that
are stored explicitly: displayed sums whose theorem form is singular, and
the reduced single-sum series produced by the reverse bisection method.

Terms are summed until a rigorous quadratic lower bound on the term
valuation clears the truncation order; each evaluated term is checked
against its own bound (NonmonotoneValuation guards the stop rule).

The finite Pochhammer block is carried across n (carried_terms): block n+1
is block n times only the new factors of each (x; t^step)_{kn*n+kc}, kept
at the precision the later terms still need, which shrinks as the quadratic
prefactor grows.  It is the only right-side evaluator the engine runs; a
term that falls short of the order or of its valuation bound raises
NonmonotoneValuation.  carried_terms compiles the recipe once per call
(Pochhammer factors to integer progressions, brace and weight atoms to int
tuples, each term's valuation bound and weight margin evaluated once) and
steps raw (minexp, coefficients, order) windows with the binomial rules of
qseries.series, building a LaurentSeries only for each finished term; a
brace group's terms without num or den atoms are one sparse product there.
theorem_series sums the regularized terms on one integer window, scaled by
the lcm of their weights' denominators, and divides once.  eval_term builds
one term from scratch in one pass on LaurentSeries; it is the per-term
reference and the evaluator of the rational ring.

Reduced root: every exponent of a recipe may share a factor g with its root
(root_gcd).  Both sides are then series in s = t^g, and reduce_root rewrites
the recipe in s, so that every series and every binomial step is g times
shorter.  The verification driver (registry) runs there and reports in t.

The left side takes a separate path (qcore.poch_quotient): the factors of
nonpositive valuation are taken out of the eight products exactly, and the
remaining product of binomials is expanded as one Kronecker-packed integer
(qcore.packed_product): F evaluated at t = 2^B modulo 2^(nB), one big-int
shift-add per factor, read back once as n balanced base-2^B digits.  The
digit width B comes from Cauchy's bound on a majorant of F
(qcore.digit_width), so the expansion is exact to the ring order; the
right side stays on the coefficient-list kernels, independent of it.

Parameter specializations may make a fixed binomial factor (1 - q^0) vanish
identically on both sides of an identity (for instance a = d).  Evaluation
then drops the factor from both sides and counts it, so the regularized
identity is checked instead; the drop counts must match, which
theorem_series checks against the left side's count.  n-dependent
vanishing denominators are never dropped: they raise
VanishingDenominatorFactor.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import NamedTuple

from qseries import kernel
from qseries.qcore import QMono, SeriesRing, poch_quotient
from qseries.series import (
    LaurentSeries,
    _norm,
    window_add,
    window_over_binom,
    window_scale,
    window_times_binom,
    window_times_sparse,
    window_truncate,
)


class VanishingDenominatorFactor(ArithmeticError):
    """A weight-function denominator factor (1 - q^...) vanished at some n."""

    def __init__(self, n, description):
        super().__init__(f"denominator factor {description} vanishes at n={n}")
        self.n = n
        self.description = description


class NonmonotoneValuation(ArithmeticError):
    """A series term fell below its structural valuation bound."""


class SingularMismatch(ArithmeticError):
    """The two sides of an identity do not share the same vanishing factors."""


class WPParams(NamedTuple):
    """The four free parameters; the fifth is pinned by the side condition."""

    a: QMono
    b: QMono
    c: QMono
    d: QMono


class BExp(NamedTuple):
    """coeff * t^(ncoef*n + const): a monomial whose exponent is linear in n."""

    ncoef: int
    const: int
    coeff: Fraction | int = 1

    def texp(self, n):
        return self.ncoef * n + self.const

    def is_unit(self):
        """The monomial is identically 1, so (1 - it) is identically zero."""
        return self.coeff == 1 and self.ncoef == 0 and self.const == 0

    def describe(self, unit=1):
        """The binomial as text, with exponents in t for a recipe written in t^unit."""
        return f"(1 - {self.coeff}*t^({self.ncoef * unit}n{self.const * unit:+d}))"


class PochF(NamedTuple):
    """((coeff*t^texp; t^step)_{kn*n+kc})^(+/-1)."""

    coeff: Fraction | int
    texp: int
    kn: int
    kc: int
    step: int

    def count(self, n):
        return self.kn * n + self.kc


class BraceTerm(NamedTuple):
    mono: BExp
    num: tuple[BExp, ...] = ()
    den: tuple[BExp, ...] = ()


class SeriesRecipe(NamedTuple):
    """One catalogued series identity: LHS product and RHS term recipe."""

    name: str
    root: int
    lhs_num: tuple[QMono, ...]
    lhs_den: tuple[QMono, ...]
    pref_quad: int        # t-exponent of term n is pref_quad*n^2 + pref_lin*n + pref_const
    pref_lin: int
    pref_base: Fraction | int  # coefficient base: base**n multiplies term n
    poch_num: tuple[PochF, ...]
    poch_den: tuple[PochF, ...]
    w_num: tuple[BExp, ...]
    w_den: tuple[BExp, ...]
    braces: tuple[tuple[BraceTerm, ...], ...]
    leading_one: bool = False
    n_start: int = 0
    sign_alt: bool = False     # multiply term n by (-1)^n
    pref_const: int = 0
    # exponents count powers of t^unit (reduce_root's g); messages report t
    unit: int = 1


def bind_theorem(name: str, p: WPParams, root: int = 12) -> SeriesRecipe:
    """Resolve a theorem's symbolic recipe at concrete parameters."""
    q = QMono(1, root)
    a, b, c, d = p.a, p.b, p.c, p.d
    one = QMono(1, 0)

    def B(cn, cc, m=one):
        return BExp(cn * root, cc * root + m.texp, m.coeff)

    M = B  # same payload, monomial interpretation

    def P(m, kn, kc=0):
        return PochF(m.coeff, m.texp, kn, kc, root)

    if name == "2U":
        pref_m = a * a / (b * d)
        return SeriesRecipe(
            name, root,
            lhs_num=(b, c, q * d, q * a**2 / (b * c * d)),
            lhs_den=(q * a / b, q * a / c, a / d, b * c * d / a),
            pref_quad=root, pref_lin=pref_m.texp, pref_base=pref_m.coeff,
            poch_num=(
                P(b * d / a, 2), P(b, 1), P(q * d, 1),
                P(q**2 * a / (b * c), 1), P(b * c / a, 1),
                P(q * a / (c * d), 1), P(c * d / a, 1),
            ),
            poch_den=(
                P(q, 2), P(q * a / c, 2), P(b * c * d / a, 2),
                P(q * a / b, 1), P(q * a / d, 1),
            ),
            w_num=(B(0, 1, a / (b * c)), B(1, 0, c * d / a), B(2, 0, b * d / a), B(3, 1, b)),
            w_den=(B(0, 0, a / d), B(2, 1), B(2, 1, a / c), B(2, 0, b * c * d / a)),
            braces=((
                BraceTerm(M(1, 0, a / d)),
                BraceTerm(
                    M(0, 0),
                    num=(B(1, 0, a / d), B(2, 1), B(2, 1, a / c), B(2, 0, b * c * d / a), B(3, 0, d)),
                    den=(B(1, 1, a / (b * c)), B(1, 0, d), B(1, 0, c * d / a), B(2, 0, b * d / a), B(3, 1, b)),
                ),
            ),),
            leading_one=False, n_start=0,
        )

    if name == "2V":
        pref_m = a * a / (b * d)
        return SeriesRecipe(
            name, root,
            lhs_num=(b, c, q * d, q * a**2 / (b * c * d)),
            lhs_den=(q * a / b, q * a / c, a / d, b * c * d / a),
            pref_quad=root, pref_lin=pref_m.texp, pref_base=pref_m.coeff,
            poch_num=(
                P(b * d / a, 2), P(b, 1), P(d, 1),
                P(q * a / (b * c), 1), P(b * c / a, 1),
                P(q * a / (c * d), 1), P(c * d / a, 1),
            ),
            poch_den=(
                P(q, 2), P(q * a / c, 2), P(b * c * d / a, 2),
                P(q * a / b, 1), P(a / d, 1),
            ),
            w_num=(B(3, 0, d),),
            w_den=(B(0, 0, d),),
            braces=((
                BraceTerm(M(0, 0)),
                BraceTerm(
                    M(0, 0, QMono(-1, 0)),
                    num=(B(2, 0), B(-1, 0, b / a), B(2, 0, a / c), B(2, -1, b * c * d / a), B(3, -2, b)),
                    den=(B(1, 0, a / (c * d)), B(1, -1, b), B(1, -1, b * c / a), B(2, -1, b * d / a), B(3, 0, d)),
                ),
            ),),
            leading_one=True, n_start=1,
        )

    if name == "3U":
        pref_m = a**3 / (b * c * d)
        return SeriesRecipe(
            name, root,
            lhs_num=(b, q * c, q * d, q * a**2 / (b * c * d)),
            lhs_den=(q * a / b, q * a / c, q * a / d, b * c * d / a),
            pref_quad=3 * root, pref_lin=pref_m.texp, pref_base=pref_m.coeff,
            poch_num=(
                P(b, 1), P(c, 1), P(q * d, 1),
                P(q * a / (b * c), 1), P(q * a / (b * d), 1), P(q * a / (c * d), 1),
                P(b * c / a, 2), P(b * d / a, 2), P(c * d / a, 2),
            ),
            poch_den=(
                P(q * a / b, 2), P(q * a / c, 2), P(q * a / d, 2),
                P(q, 3), P(b * c * d / a, 3),
            ),
            w_num=(B(2, 0, b * d / a), B(1, 1, a / (b * c)), B(2, 0, c * d / a), B(4, 1, c)),
            w_den=(B(3, 1), B(0, 0, c), B(2, 1, a / b), B(3, 0, b * c * d / a)),
            braces=((
                BraceTerm(M(2, 0, a / d)),
                BraceTerm(
                    M(0, 0),
                    num=(B(2, 0, a / d), B(3, 0, b * c * d / a), B(4, 0, d), B(2, 1, a / b), B(3, 1)),
                    den=(B(1, 0, d), B(2, 0, b * d / a), B(2, 0, c * d / a), B(1, 1, a / (b * c)), B(4, 1, c)),
                ),
                BraceTerm(
                    M(4, 1, a**2 / (c * d)),
                    num=(B(1, 0, c), B(2, 0, b * c / a), B(1, 1, a / (b * d)), B(2, 1, c * d / a), B(4, 2, b)),
                    den=(B(2, 1, a / c), B(2, 1, a / d), B(3, 1, b * c * d / a), B(3, 2), B(4, 1, c)),
                ),
            ),),
            leading_one=False, n_start=0,
        )

    if name == "3V":
        pref_m = a**3 / (b * c * d)
        return SeriesRecipe(
            name, root,
            lhs_num=(b, c, q * d, q * a**2 / (b * c * d)),
            lhs_den=(q * a / b, q * a / c, a / d, b * c * d / a),
            pref_quad=3 * root, pref_lin=pref_m.texp - 2 * root, pref_base=pref_m.coeff,
            poch_num=(
                P(b, 1), P(c, 1), P(d, 1),
                P(q * a / (b * c), 1), P(q * a / (b * d), 1), P(a / (c * d), 1),
                P(b * c / a, 2), P(b * d / a, 2), P(c * d / a, 2),
            ),
            poch_den=(
                P(a / b, 2), P(a / c, 2), P(a / d, 2),
                P(q, 3), P(b * c * d / a, 3),
            ),
            w_num=(B(3, 0), B(0, 0, b / a), B(0, 0, c / a), B(3, -1, b * c * d / a), B(4, -2, b)),
            w_den=(B(0, 0, c * d / a), B(0, 0, d**-1), B(1, -1, b), B(2, -1, b * c / a), B(2, -1, b * d / a)),
            braces=((
                BraceTerm(M(0, 0)),
                BraceTerm(
                    M(0, 0, QMono(-1, 0)),
                    num=(B(1, -1, b), B(2, -1, b * c / a), B(2, -1, b * d / a), B(1, 0, a / (c * d)), B(4, 0, d)),
                    den=(B(3, 0), B(-2, 0, b / a), B(2, 0, a / c), B(3, -1, b * c * d / a), B(4, -2, b)),
                ),
                BraceTerm(
                    M(0, 0, QMono(-1, 0)),
                    num=(B(3, -1), B(-2, 1, c / a), B(2, -1, a / d), B(3, -2, b * c * d / a), B(4, -3, c)),
                    den=(B(1, -1, c), B(2, -2, b * c / a), B(1, 0, a / (b * d)), B(2, -1, c * d / a), B(4, -2, b)),
                ),
            ),),
            leading_one=True, n_start=1,
        )

    if name == "p23U":
        pref_m = a**3 / (b * d * d)
        return SeriesRecipe(
            name, root,
            lhs_num=(b, c, q * d, q * a**2 / (b * c * d)),
            lhs_den=(q * a / b, q * a / c, a / d, b * c * d / a),
            pref_quad=2 * root, pref_lin=pref_m.texp, pref_base=pref_m.coeff,
            poch_num=(
                P(q * a / (c * d), 1), P(b, 1), P(b * c / a, 1),
                P(q * a / (b * c), 2), P(q * d, 2), P(c * d / a, 2),
                P(b * d / a, 3),
            ),
            poch_den=(
                P(q * a / d, 1), P(q * a / b, 2),
                P(q, 3), P(q * a / c, 3), P(b * c * d / a, 3),
            ),
            w_num=(B(2, 1, a / (b * c)), B(2, 0, c * d / a), B(3, 0, b * d / a), B(4, 1, b)),
            w_den=(B(3, 1), B(3, 1, a / c), B(0, 0, a / d), B(3, 0, b * c * d / a)),
            braces=((
                BraceTerm(M(1, 0, a / d)),
                BraceTerm(
                    M(0, 0),
                    num=(B(1, 0, a / d), B(3, 1), B(3, 1, a / c), B(3, 0, b * c * d / a), B(5, 0, d)),
                    den=(B(2, 1, a / (b * c)), B(2, 0, c * d / a), B(2, 0, d), B(3, 0, b * d / a), B(4, 1, b)),
                ),
                BraceTerm(
                    M(3, 1, a**2 / (b * d)),
                    num=(B(1, 0, b), B(1, 0, b * c / a), B(1, 1, a / (c * d)), B(3, 1, b * d / a), B(5, 3, d)),
                    den=(B(2, 1, a / b), B(3, 2), B(3, 2, a / c), B(3, 1, b * c * d / a), B(4, 1, b)),
                ),
            ),),
            leading_one=False, n_start=0,
        )

    raise ValueError(f"unknown theorem {name!r}")


THEOREM_NAMES = ("2U", "2V", "3U", "3V", "p23U")


# ------------------------------------------------------------ root reduction


def _atoms(bt: SeriesRecipe):
    """Every BExp of the weight: the w_num/w_den atoms and each brace term's."""
    yield from bt.w_num
    yield from bt.w_den
    for group in bt.braces:
        for t in group:
            yield t.mono
            yield from t.num
            yield from t.den


def root_gcd(bt: SeriesRecipe) -> int:
    """The largest g such that both sides of bt are series in s = t^g.

    g divides the root (so q = s^(root/g)), every left-side monomial, every
    Pochhammer exponent and step, the prefactor's exponent coefficients and
    every weight and brace exponent, which are all the t-exponents a term or
    a product factor is built from.
    """
    exps = [bt.root, bt.pref_quad, bt.pref_lin, bt.pref_const]
    exps += [m.texp for m in (*bt.lhs_num, *bt.lhs_den)]
    for f in (*bt.poch_num, *bt.poch_den):
        exps += (f.texp, f.step)
    for x in _atoms(bt):
        exps += (x.ncoef, x.const)
    return gcd(*exps)


def reduce_root(bt: SeriesRecipe) -> tuple[SeriesRecipe, int]:
    """(bt written in s = t^g, g) with g = root_gcd(bt): every t-exponent over g.

    g = 1 returns bt itself.  Shadow recipes need no reduction: only their
    exponents' values enter, as the perturbation forms of dropped factors.
    """
    g = root_gcd(bt)
    if g == 1:
        return bt, 1

    def mono(m):
        return QMono(m.coeff, m.texp // g)

    def poch(f):
        return PochF(f.coeff, f.texp // g, f.kn, f.kc, f.step // g)

    def atom(x):
        return BExp(x.ncoef // g, x.const // g, x.coeff)

    return bt._replace(
        root=bt.root // g, unit=bt.unit * g,
        lhs_num=tuple(map(mono, bt.lhs_num)), lhs_den=tuple(map(mono, bt.lhs_den)),
        pref_quad=bt.pref_quad // g, pref_lin=bt.pref_lin // g, pref_const=bt.pref_const // g,
        poch_num=tuple(map(poch, bt.poch_num)), poch_den=tuple(map(poch, bt.poch_den)),
        w_num=tuple(map(atom, bt.w_num)), w_den=tuple(map(atom, bt.w_den)),
        braces=tuple(
            tuple(BraceTerm(atom(t.mono), tuple(map(atom, t.num)), tuple(map(atom, t.den))) for t in group)
            for group in bt.braces
        ),
    ), g


# ---------------------------------------------------------- term-block ratios


class RatioError(ValueError):
    """A quotient of term blocks that is not a monomial times finite atoms.

    source is the (tag, field) of the part at fault: the tag the caller gave
    its recipe and a field such as "poch-num".
    """

    def __init__(self, message, source):
        super().__init__(message)
        self.source = source


def term_ratio(parts, normalized=False, polynomial=False):
    """A quotient of term blocks in y = q^n, as (monomial, numerator atoms, denominator atoms).

    parts holds (power, recipe, alpha, beta, tag): the term block of recipe
    at alpha*n + beta, to the power +1 or -1.  A term block is the
    prefactor (its pref_base is 1 on every catalog recipe and is not read),
    the Pochhammer blocks and the w atoms, not the braces; normalized
    divides each by its recipe's product side.  The monomial is
    (texp, ypow) for t^texp * y^ypow and each atom (texp, ypow, multiplicity)
    stands for (1 - t^texp * y^ypow).

    (c t^e; t^s)_(Kn+C) is K residue blocks (c t^e0; t^(sK))_n, e0 in
    (0, sK], times finite atoms, and (c t^e; t^s)_inf one residue block
    times constants.  RatioError, naming a part at fault, is raised when
    the residue blocks or the n^2 terms of the prefactors do not cancel, a
    y-power is not integral, an atom is not of that form, or polynomial is
    set and a denominator atom is left.  A block left over is blamed on a
    part tagged None only when no other part holds one.
    """
    atoms, blocks, origin = {}, {}, {}
    root = parts[0][1].root

    def add(table, key, m, src):
        table[key] = table.get(key, 0) + m
        origin.setdefault(key, src)

    def residue(c, f, step, finite, m, src):
        # (c t^f; t^step)_n = (c t^e0; t^step)_n * prod (1 - c t^(e0 + i step) y^.) / (1 - c t^(e0 + i step))
        k = (f - 1) // step
        e0 = f - k * step
        mk = m if k > 0 else -m
        for i in range(min(k, 0), max(k, 0)):
            if finite:
                add(atoms, (c, step, e0 + i * step), mk, src)
            add(atoms, (c, 0, e0 + i * step), -mk, src)
        add(blocks, (c, e0, step, finite), m, src)

    quad = lin = const = 0
    for m, r, al, be, tag in parts:
        quad += m * r.pref_quad * al * al
        lin += m * (2 * r.pref_quad * be + r.pref_lin) * al
        const += m * ((r.pref_quad * be + r.pref_lin) * be + r.pref_const)
        for field, fs, s in (("poch-num", r.poch_num, m), ("poch-den", r.poch_den, -m)):
            for f in fs:
                K, C = f.kn * al, f.kn * be + f.kc
                for j in range(K):
                    residue(f.coeff, f.texp + f.step * j, f.step * K, True, s, (tag, field))
                for i in range(min(C, 0), max(C, 0)):
                    add(atoms, (f.coeff, f.step * K, f.texp + f.step * i), s if C > 0 else -s, (tag, field))
        for field, ws, s in (("w-num", r.w_num, m), ("w-den", r.w_den, -m)):
            for w in ws:
                add(atoms, (w.coeff, w.ncoef * al, w.const + w.ncoef * be), s, (tag, field))
        if normalized:
            for field, xs, s in (("lhs-num", r.lhs_num, -m), ("lhs-den", r.lhs_den, m)):
                for x in xs:
                    residue(x.coeff, x.texp, r.root, False, s, (tag, field))
    left = [key for key, m in blocks.items() if m]
    if left:
        key = min(left, key=lambda k: origin[k][0] is None)
        kind = "Pochhammer block" if key[3] else "infinite product"
        raise RatioError(f"{kind} ({key[0]}*t^{key[1]}; t^{key[2]}) does not cancel", origin[key])
    pref = (parts[-1][4], "pref")
    if quad:
        raise RatioError(f"the prefactors differ by t^({quad}n^2 + ...), not a monomial", pref)

    def ypow(ncoef, src):
        if ncoef % root:
            raise RatioError(f"y-power {ncoef}/{root} is not an integer", src)
        return ncoef // root

    num, den = [], []
    for (c, ncoef, texp), m in atoms.items():
        if m:
            src = origin[c, ncoef, texp]
            y = ypow(ncoef, src)
            if c != 1 or texp < 0 or texp == y == 0:
                raise RatioError(f"atom (1 - {c}*t^{texp}*y^{y}) is not (1 - t^a*y^b) with a >= 0", src)
            if m < 0 and polynomial:
                raise RatioError(f"denominator atom (1 - t^{texp}*y^{y})", src)
            (num if m > 0 else den).append((texp, y, abs(m)))
    return (const, ypow(lin, pref)), tuple(num), tuple(den)


# ------------------------------------------------------------- term assembly


def _poch_val(f: PochF, n: int) -> int:
    """Exact valuation of ((x;s)_{count}) for x = coeff*t^texp."""
    cnt = f.kn * n + f.kc
    if cnt <= 0 or f.texp >= 0:
        return 0
    # factors (1 - coeff*t^(texp + j*step)) have negative valuation while the exponent is < 0
    jneg = min(cnt, (-f.texp + f.step - 1) // f.step)
    return jneg * f.texp + f.step * jneg * (jneg - 1) // 2


def term_valuation_bound(bt: SeriesRecipe, n: int) -> int:
    """Exact lower bound for the valuation of term n (cancellation only raises it).

    The prefactor's exponent, the Pochhammer blocks' valuations, the negative
    exponents of the w_num (less those of the w_den) atoms, and for each
    brace group its lowest term: the monomial's exponent plus the negative
    exponents of the term's numerator atoms less those of its denominator.
    """
    lb = bt.pref_quad * n * n + bt.pref_lin * n + bt.pref_const
    for f in bt.poch_num:
        if f.texp < 0:
            lb += _poch_val(f, n)
    for f in bt.poch_den:
        if f.texp < 0:
            lb -= _poch_val(f, n)
    for x in bt.w_num:
        e = x.ncoef * n + x.const
        if e < 0:
            lb += e
    for x in bt.w_den:
        e = x.ncoef * n + x.const
        if e < 0:
            lb -= e
    for group in bt.braces:
        low = None
        for t in group:
            v = t.mono.ncoef * n + t.mono.const
            for x in t.num:
                e = x.ncoef * n + x.const
                if e < 0:
                    v += e
            for x in t.den:
                e = x.ncoef * n + x.const
                if e < 0:
                    v -= e
            if low is None or v < low:
                low = v
        lb += low
    return lb


def _stop_estimate(bt: SeriesRecipe, order: int) -> int:
    """An N with term_valuation_bound(n) >= order for all n >= N, from a quadratic.

    term_valuation_bound(n) >= alpha*n^2 - k1*n - k0 for n >= 0, where k1
    and k0 collect only the parts that can lower the valuation: the
    negative parts of the prefactor's linear and constant terms, of the
    w_num atoms and of each brace term's monomial and numerator atoms
    (the worst term of a group), and the negative-valuation factors of the
    numerator Pochhammer blocks.  Denominator factors only raise it.  Past
    the larger root of that quadratic every term clears the order.
    """
    alpha = bt.pref_quad
    if alpha <= 0:
        raise NonmonotoneValuation("term exponent is not quadratically increasing")

    def neg(x):
        return max(0, -x)

    k1 = neg(bt.pref_lin)
    k0 = neg(bt.pref_const)
    for f in bt.poch_num:
        if f.texp < 0:
            jneg = (-f.texp + f.step - 1) // f.step
            k0 += -(jneg * f.texp + f.step * jneg * (jneg - 1) // 2)
    for a in bt.w_num:
        k1 += neg(a.ncoef)
        k0 += neg(a.const)
    for group in bt.braces:
        k1 += max(neg(t.mono.ncoef) + sum(neg(x.ncoef) for x in t.num) for t in group)
        k0 += max(neg(t.mono.const) + sum(neg(x.const) for x in t.num) for t in group)
    # alpha*n^2 - k1*n - k0 >= order for n >= (k1 + sqrt(disc)) / (2*alpha)
    disc = k1 * k1 + 4 * alpha * (k0 + max(order, 0))
    return -(-(k1 + isqrt(disc) + 1) // (2 * alpha))


def stop_index(bt: SeriesRecipe, order: int) -> int:
    """Smallest N such that term_valuation_bound(n) >= order for all n >= N.

    Below _stop_estimate the exact bound is checked n by n, down to the last
    n that does not clear the order.
    """
    n = _stop_estimate(bt, order)
    while n > 0 and term_valuation_bound(bt, n - 1) >= order:
        n -= 1
    return n


class TermValue:
    """One right-side term: its series, net dropped zero factors (None: the term vanished) and their weight."""

    __slots__ = ("series", "net_drops", "phi")

    def __init__(self, series: LaurentSeries, net_drops: int | None, phi: Fraction | int = 1):
        self.series = series
        self.net_drops = net_drops
        self.phi = phi


SHADOW_BASE = 64


def shadow_params(p: WPParams, root: int):
    """Companion parameters for reading off vanishing-factor linear forms.

    Exponents are scaled by SHADOW_BASE**4 and offset by independent units,
    so a factor that vanishes identically at the true parameters has a
    small nonzero shadow exponent equal to its perturbation form.
    """
    big = SHADOW_BASE**4
    offs = (1, SHADOW_BASE, SHADOW_BASE**2, SHADOW_BASE**3)
    monos = [QMono(m.coeff, m.texp * big + u) for m, u in zip((p.a, p.b, p.c, p.d), offs)]
    return WPParams(*monos), root * big


def has_unit_factor(bt: SeriesRecipe) -> bool:
    """Whether a product, Pochhammer or weight factor of bt can be (1 - 1).

    Only such a factor is dropped and weighed by its shadow form, so a recipe
    without one never consults a shadow recipe.  (The n-dependent zeros of
    brace terms and of w_num/w_den atoms need no shadow.)
    """
    for m in (*bt.lhs_num, *bt.lhs_den):
        if m.coeff == 1 and m.texp <= 0 and m.texp % bt.root == 0:
            return True
    for f in (*bt.poch_num, *bt.poch_den):
        # some j >= 0 with texp + j*step == 0
        if f.coeff == 1 and (f.texp == 0 or f.step and -f.texp % f.step == 0 and -f.texp // f.step > 0):
            return True
    return any(x.is_unit() for x in (*bt.w_num, *bt.w_den))


def _apply_poch(ring, acc, f: PochF, n: int, invert: bool, fsh: PochF | None):
    """Multiply or divide by the finite Pochhammer, dropping (1-1) factors.

    Dropped factors multiply phi by their shadow exponent (the perturbation
    form), keeping the regularization orientation-exact.
    """
    drops = 0
    phi = 1
    c, e = f.coeff, f.texp
    esh = fsh.texp if fsh is not None else None
    for _ in range(f.count(n)):
        if c == 1 and e == 0:
            if fsh is None:
                raise SingularMismatch("vanishing Pochhammer factor in an explicit record")
            drops += 1
            phi = phi / Fraction(esh) if invert else phi * esh
        elif invert:
            acc = ring.over_binom(acc, c, e)
        else:
            acc = ring.times_binom(acc, c, e)
        e += f.step
        if esh is not None:
            esh += fsh.step
    return acc, drops, phi


def _eval_brace(ring, group, n: int, block, unit: int = 1):
    """block times one brace group, distributed over the group's terms.

    Each term starts from block * coeff*t^e and takes its own binomial
    steps; a term with an n-dependent (1 - 1) numerator factor is zero.
    """
    total = ring.zero()
    for t in group:
        if any(x.coeff == 1 and x.texp(n) == 0 for x in t.num):
            continue
        part = ring.times_mono(block, t.mono.coeff, t.mono.texp(n))
        for x in t.num:
            part = ring.times_binom(part, x.coeff, x.texp(n))
        for x in t.den:
            if x.coeff == 1 and x.texp(n) == 0:
                raise VanishingDenominatorFactor(n, x.describe(unit))
            part = ring.over_binom(part, x.coeff, x.texp(n))
        total = total + part
    return total


def eval_weight(ring, bt: SeriesRecipe, n: int, block, shadow: SeriesRecipe | None = None):
    """block * W_n by binomial steps only, plus net dropped zero factors.

    Each brace group acts on the running value term by term (_eval_brace),
    then the outer w_num/w_den atoms act on the result.
    """
    net = 0
    phi = 1
    acc = block
    for group in bt.braces:
        acc = _eval_brace(ring, group, n, acc, bt.unit)
    for i, x in enumerate(bt.w_num):
        if x.is_unit():
            if shadow is None:
                raise SingularMismatch("vanishing weight factor in an explicit record")
            net -= 1
            phi = phi * shadow.w_num[i].texp(n)
        elif x.coeff == 1 and x.texp(n) == 0:
            return ring.zero(), 0, 1, True  # n-dependent zero in the numerator
        else:
            acc = ring.times_binom(acc, x.coeff, x.texp(n))
    for i, x in enumerate(bt.w_den):
        if x.is_unit():
            if shadow is None:
                raise SingularMismatch("vanishing weight factor in an explicit record")
            net += 1
            phi = phi / Fraction(shadow.w_den[i].texp(n))
        elif x.coeff == 1 and x.texp(n) == 0:
            raise VanishingDenominatorFactor(n, x.describe(bt.unit))
        else:
            acc = ring.over_binom(acc, x.coeff, x.texp(n))
    return acc, net, phi, False


def _prefactor(bt: SeriesRecipe, n: int):
    """(coefficient, t-exponent) of the prefactor monomial of term n."""
    coeff = bt.pref_base**n if bt.pref_base != 1 else 1
    if bt.sign_alt and n % 2:
        coeff = -coeff
    return coeff, bt.pref_quad * n * n + bt.pref_lin * n + bt.pref_const


def _weight_margin(bt: SeriesRecipe, n: int) -> int:
    """Working-order headroom for W_n's negative exponents at term n.

    The negative exponents of the w_num atoms, and for each brace group the
    most any of its terms lowers the value: its monomial's negative exponent
    plus those of its numerator atoms.
    """
    gross = 0
    for x in bt.w_num:
        e = x.ncoef * n + x.const
        if e < 0:
            gross -= e
    for group in bt.braces:
        most = 0
        for t in group:
            v = t.mono.ncoef * n + t.mono.const
            v = -v if v < 0 else 0
            for x in t.num:
                e = x.ncoef * n + x.const
                if e < 0:
                    v -= e
            if v > most:
                most = v
        gross += most
    return gross


def _resolved(minexp, coeffs, known, order: int, bound: int, n: int, unit: int):
    """The window (minexp, coeffs, known) as a series cut to the order.

    The window must be known to the order (known is its order, None when
    exact) and clear the valuation bound.
    """
    if known is not None and known < order:
        raise NonmonotoneValuation(
            f"term n={n} resolved only to t^{known * unit} < requested t^{order * unit}"
        )
    acc = LaurentSeries(minexp, coeffs, order, _canonical=True)
    if not acc.is_zero and acc.minexp < bound:
        raise NonmonotoneValuation(
            f"term n={n} valuation {acc.minexp * unit} below structural bound {bound * unit}"
        )
    return acc


def eval_term(ring, bt: SeriesRecipe, n: int, shadow: SeriesRecipe | None = None) -> TermValue:
    """Regularized term n from scratch: value, net dropped zero factors, and their weight.

    One pass at ring.order + _weight_margin(bt, n) resolves the term: the
    prefactor and the numerator Pochhammer factors act while the value is
    still exact, and the first division cuts it at the working order, so
    only W_n's negative exponents act below that cut.  A term that still
    falls short, or below its valuation bound, raises NonmonotoneValuation.
    """
    series = ring.mode != "rational"
    work = SeriesRing(order=ring.order + _weight_margin(bt, n), root=ring.root) if series else ring
    acc = work.mono(*_prefactor(bt, n))
    net = 0
    phi = 1
    for invert, facs, shs in ((False, bt.poch_num, shadow and shadow.poch_num),
                              (True, bt.poch_den, shadow and shadow.poch_den)):
        for i, f in enumerate(facs):
            acc, dr, ph = _apply_poch(work, acc, f, n, invert, shs[i] if shs else None)
            net += dr if invert else -dr
            phi = phi * ph
    acc, wnet, wphi, dead = eval_weight(work, bt, n, acc, shadow)
    if dead:
        return TermValue(ring.zero(), None)
    if series:
        acc = _resolved(acc.minexp, acc.coeffs, acc.order, ring.order, term_valuation_bound(bt, n), n, bt.unit)
    return TermValue(acc, net + wnet, phi * wphi)


def _compiled_poch(bt: SeriesRecipe, shadow: SeriesRecipe | None):
    """Each Pochhammer factor as the integer progression (c, texp, step, kn, kc, invert, sh).

    sh is the shadow factor's (texp, step), or None without a shadow recipe.
    """
    out = []
    for invert, facs, shs in ((False, bt.poch_num, shadow and shadow.poch_num),
                              (True, bt.poch_den, shadow and shadow.poch_den)):
        for i, f in enumerate(facs):
            sh = (shs[i].texp, shs[i].step) if shs else None
            out.append((_norm(f.coeff), f.texp, f.step, f.kn, f.kc, invert, sh))
    return out


def _compiled_atom(x: BExp):
    return x.ncoef, x.const, _norm(x.coeff)


def _compiled_weight(bt: SeriesRecipe, shadow: SeriesRecipe | None):
    """The brace groups and the w_num/w_den atoms as (ncoef, const, coeff) int tuples.

    Each brace group is split into (pure, mixed): pure holds the monomials
    of its terms without num or den atoms, zero monomials left out, and
    mixed the other terms as (mono, num, den).  A w_num/w_den atom also
    carries whether it is the unit monomial and its shadow atom's
    (ncoef, const), or None without a shadow.
    """
    braces = tuple(
        (tuple(_compiled_atom(t.mono) for t in group if not t.num and not t.den and t.mono.coeff),
         tuple((_compiled_atom(t.mono), tuple(map(_compiled_atom, t.num)), tuple(map(_compiled_atom, t.den)))
               for t in group if t.num or t.den))
        for group in bt.braces
    )

    def outer(atoms, shs):
        return tuple((*_compiled_atom(x), x.is_unit(), (shs[i].ncoef, shs[i].const) if shs else None)
                     for i, x in enumerate(atoms))

    return braces, outer(bt.w_num, shadow and shadow.w_num), outer(bt.w_den, shadow and shadow.w_den)


def _weight_window(win, n: int, work: int, weight, unit: int):
    """The window times W_n, as eval_weight takes it, on raw windows.

    A brace group's pure monomials, at their shifts at n and merged where
    they meet, multiply the window once (series.window_times_sparse), known
    as far as the sum of the separately shifted windows would be; each
    other term starts from the window times its monomial and takes its own
    atom steps.  Returns (window, net drops, phi), or None when an
    n-dependent numerator zero kills the term.  Divisions are known below
    the working order.
    """
    braces, w_num, w_den = weight
    for pure, mixed in braces:
        total = (0, (), work)
        m, a, o = win
        if pure:
            poly = {}
            for mn, mc, mcoef in pure:
                s = mn * n + mc
                poly[s] = poly.get(s, 0) + mcoef
            total = window_add(*total, *window_times_sparse(m, a, o, poly))
        for (mn, mc, mcoef), num, den in mixed:
            if any(c == 1 and kn * n + kc == 0 for kn, kc, c in num):
                continue
            s = mn * n + mc
            part = window_scale(m + s, a, None if o is None else o + s, mcoef)
            for kn, kc, c in num:
                part = window_times_binom(*part, c, kn * n + kc)
            for kn, kc, c in den:
                e = kn * n + kc
                if c == 1 and e == 0:
                    raise VanishingDenominatorFactor(n, BExp(kn, kc, c).describe(unit))
                part = window_over_binom(*part, c, e, work)
            total = window_add(*total, *part)
        win = total
    net, phi = 0, 1
    for kn, kc, c, unit_atom, sh in w_num:
        e = kn * n + kc
        if unit_atom:
            if sh is None:
                raise SingularMismatch("vanishing weight factor in an explicit record")
            net -= 1
            phi = phi * (sh[0] * n + sh[1])
        elif c == 1 and e == 0:
            return None
        else:
            win = window_times_binom(*win, c, e)
    for kn, kc, c, unit_atom, sh in w_den:
        e = kn * n + kc
        if unit_atom:
            if sh is None:
                raise SingularMismatch("vanishing weight factor in an explicit record")
            net += 1
            phi = phi / Fraction(sh[0] * n + sh[1])
        elif c == 1 and e == 0:
            raise VanishingDenominatorFactor(n, BExp(kn, kc, c).describe(unit))
        else:
            win = window_over_binom(*win, c, e, work)
    return win, net, phi


def carried_terms(ring, bt: SeriesRecipe, shadow: SeriesRecipe | None = None):
    """(n, TermValue) for each term of the right side, each block built from the one before.

    The terms are those theorem_series sums: n from n_start through
    stop_index whose valuation bound is below the ring order.  The finite
    Pochhammer block B(n) (numerator over denominator products, without the
    prefactor) is carried across n: block n is the previous block times only
    the new factors of each (x; t^step)_{kn*n+kc}, with the drop count and
    phi carried along.  Term n is t^P(n)*c^n * B(n) * W_n, so B(n) is needed
    to t^(order + _weight_margin(n) - P(n)): less as the quadratic
    prefactor P grows.  Before each step the block is cut to the most any
    later term still needs, plus how far the new numerator factors of
    negative exponent will shift it down.

    The recipe is compiled once per call: each Pochhammer factor to an
    integer progression, each brace and weight atom to an int tuple, each
    brace group split into its pure monomials (terms without num or den
    atoms) and its other terms (_compiled_poch, _compiled_weight), and each
    term's valuation bound and weight margin are evaluated once.  The
    block, the brace groups and the w_num/w_den atoms then run on raw
    (minexp, coefficients, order) windows (series.window_times_binom and
    its siblings, the rules LaurentSeries itself steps by): at each n a
    group's pure monomials are merged into one sparse polynomial that
    multiplies the window once (series.window_times_sparse), and each other
    term takes its own steps (_weight_window).  A LaurentSeries is built
    only for each finished term, in _resolved.  Nothing compiled outlives
    the call.

    Every term equals eval_term(ring, bt, n, shadow), the per-term
    reference, and raises what it raises: NonmonotoneValuation for a term
    short of the order or below its bound, and for a vanishing factor the
    error of the first term whose block holds it.  A count that shrinks with
    n (kn < 0) cannot be carried and raises ValueError.
    """
    if any(f.kn < 0 for f in (*bt.poch_num, *bt.poch_den)):
        raise ValueError("a Pochhammer count must not shrink with n (kn < 0)")
    order, unit = ring.order, bt.unit
    # past _stop_estimate every bound clears the order, so these are stop_index's terms
    terms = [(n, b) for n in range(bt.n_start, _stop_estimate(bt, order) + 1)
             if (b := term_valuation_bound(bt, n)) < order]
    poch = _compiled_poch(bt, shadow)
    weight = _compiled_weight(bt, shadow)
    pref = [_prefactor(bt, n) for n, _ in terms]
    margin = [_weight_margin(bt, n) for n, _ in terms]
    low = [-sum(_poch_val(f, n) for f in bt.poch_num) for n, _ in terms]   # downward shift of B(n)
    # reach[i]: the precision B(n_i) needs plus low[i], then the most of it any later term needs
    reach = [order + m - texp + lo for (_, texp), m, lo in zip(pref, margin, low)]
    for i in range(len(reach) - 2, -1, -1):
        reach[i] = max(reach[i], reach[i + 1])
    done = [0] * len(poch)
    block, net, phi, shifted = (0, (1,), None), 0, 1, 0
    for i, (n, bound) in enumerate(terms):
        keep = reach[i] - shifted
        block = window_truncate(*block, keep)
        target = max(keep, 1)      # the working order of the block's divisions, positive as a ring's
        for k, (c, texp, step, kn, kc, invert, sh) in enumerate(poch):
            first, count = done[k], kn * n + kc
            if count <= first:
                continue
            done[k] = count
            e = texp + first * step
            esh = sh[0] + first * sh[1] if sh else None
            for _ in range(first, count):
                if c == 1 and e == 0:
                    if sh is None:
                        raise SingularMismatch("vanishing Pochhammer factor in an explicit record")
                    if invert:
                        net += 1
                        phi = phi / Fraction(esh)
                    else:
                        net -= 1
                        phi = phi * esh
                elif invert:
                    block = window_over_binom(*block, c, e, target)
                else:
                    block = window_times_binom(*block, c, e)
                e += step
                if sh:
                    esh += sh[1]
        shifted = low[i]
        coeff, texp = pref[i]
        m, a, o = block
        term = _weight_window(window_scale(m + texp, a, None if o is None else o + texp, coeff),
                              n, order + margin[i], weight, unit)
        if term is None:
            yield n, TermValue(ring.zero(), None)
        else:
            win, wnet, wphi = term
            yield n, TermValue(_resolved(*win, order, bound, n, unit), net + wnet, phi * wphi)


class SeriesResult:
    """The summed right side, the drop count it was checked against, and the terms it summed."""

    __slots__ = ("series", "net_drops", "terms_used")

    def __init__(self, series: LaurentSeries, net_drops: int, terms_used: int):
        self.series = series
        self.net_drops = net_drops
        self.terms_used = terms_used


def theorem_series(ring, bt: SeriesRecipe, shadow: SeriesRecipe | None = None,
                   expected_net: int = 0, divisor=1) -> SeriesResult:
    """Right side of a catalogued identity, summed exactly to the ring order, over divisor.

    Identically-vanishing binomial factors are dropped; each drop weighs the
    term by its shadow form, so terms enter as naive_value * phi.  Terms less
    singular than expected_net (notably the V-form leading 1 when the
    identity is regularized) are annihilated; a more singular term is a
    genuine mismatch.  expected_net is the left side's drop count, 0 for a
    recipe without a shadow.  divisor (the left side's shadow weight, for a
    regularized record) divides the whole sum.

    The sum is taken on one integer window: each weight phi/divisor is
    brought to the lcm L of their denominators, each term enters times its
    integer multiple of 1/L, and the window is divided by L once.
    """
    order = ring.order
    terms = list(carried_terms(ring, bt, shadow))
    terms_used = len(terms)
    # a term with net_drops None vanished through an n-dependent numerator zero
    terms = [(n, tv) for n, tv in terms if tv.net_drops is not None]
    parts = []
    for n, tv in terms:
        if tv.net_drops > expected_net:
            raise SingularMismatch(
                f"{bt.name}: term n={n} is more singular ({tv.net_drops} drops) "
                f"than the identity ({expected_net})"
            )
        if tv.net_drops == expected_net and tv.series.coeffs:
            parts.append((tv.series.minexp, tv.series.coeffs, Fraction(tv.phi) / divisor))
    if bt.leading_one and expected_net == 0:
        parts.append((0, (1,), 1 / Fraction(divisor)))
    if not parts:
        return SeriesResult(ring.zero(), expected_net, terms_used)
    lcm_den = lcm(*(w.denominator for _, _, w in parts))
    lo = min(m for m, _, _ in parts)
    total = [0] * (order - lo)
    for m, coeffs, w in parts:
        k = w.numerator * (lcm_den // w.denominator)
        for i, c in enumerate(coeffs, m - lo):
            if c:
                total[i] += k * c
    total = kernel.scale(total, Fraction(1, lcm_den) if lcm_den != 1 else 1)
    return SeriesResult(LaurentSeries(lo, total, order, _canonical=True), expected_net, terms_used)


def theorem_weight(ring, name: str, p: WPParams, n: int):
    """The weight function W_n of a specialized theorem, evaluated exactly.

    Identically-zero factors are dropped (regularized); consult eval_weight
    for the drop accounting.  n-dependent vanishing denominators raise
    VanishingDenominatorFactor.
    """
    bt = bind_theorem(name, p, ring.root)
    psh, rsh = shadow_params(p, ring.root)
    w, _net, _phi, dead = eval_weight(ring, bt, n, ring.one(), bind_theorem(name, psh, rsh))
    return ring.zero() if dead else w


def theorem_lhs(ring, bt: SeriesRecipe, shadow: SeriesRecipe | None = None):
    """Left side: the infinite-product quotient, with drop accounting.

    The quotient comes from one exact expansion (qcore.poch_quotient):
    leading factors of nonpositive valuation are taken out exactly, and the
    rest is expanded as one Kronecker-packed integer whose digit width is
    proven by Cauchy's bound on a majorant, to exactly the ring order.

    Returns (series, net_drops, phi): net_drops counts identically-zero
    (1 - q^0) factors removed from the products, phi is the product of
    their shadow forms (numerator drops over denominator drops).  The
    regularized identity is then series * phi == theorem_series(...).
    """
    series, dropped = poch_quotient(ring, bt.lhs_num, bt.lhs_den)
    net = 0
    phi = 1
    for from_num, i in dropped:
        if shadow is None:
            raise SingularMismatch("vanishing product factor in an explicit record")
        m = (bt.lhs_num if from_num else bt.lhs_den)[i]
        msh = (shadow.lhs_num if from_num else shadow.lhs_den)[i]
        form = msh.texp + (-m.texp // bt.root) * shadow.root
        if from_num:
            net -= 1
            phi = phi * form
        else:
            net += 1
            phi = phi / Fraction(form)
    return series, net, phi

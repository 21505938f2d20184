"""The reverse bisection method: recover a single alternating series.

A specialized triplicate summand, cleared of denominators, becomes a
polynomial P(y) (y standing for q^n).  P is built without rational
functions, as a list of coefficient rows (one plain list of t-coefficients
per power of y) changed only by atom steps.  Every factor is an atom
(1 - c*t^a*y^b): times an atom, row k takes -c*t^a times row k-b; over an
atom, which has constant term 1 in y, an ascending recurrence divides
exactly, and any nonzero remainder raises ExactDivisionFailed.  Equal
numerator and denominator atoms cancel before any step.  The ansatz series
T_n carries an unknown polynomial Q evaluated at q^(n/2), and matching

    P(y) = Q(y)*A(y) +- shift * Q(q^(1/2)y) * B(y)

coefficientwise yields an overdetermined linear system over the polynomial
ring in t.  Its first deg Q + 1 rows (powers of y) are lower triangular, so
Q is solved by forward substitution and the rows above check it.  At most
one sign admits a solution; the solved Q turns the double-width sum into
sum(+-1)^n T_n.

Case data ships in the catalog: the clearing factor, the functional-equation
factors, and two series recipes, the unreduced double-width series (pp)
and the term block T_n of the reduced series (t).  pp_recipe puts P(q^n)
into pp's braces and reduced_recipe puts the solved Q into t's.  The
weight polynomial itself is rebuilt from the theorem recipe, never
transcribed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from qseries.polyring import Poly, RatFunc
from qseries.qcore import SeriesRing
from qseries.registry import BisectionCase, IdentityRecord
from qseries.theorems import (
    BExp,
    BraceTerm,
    SeriesRecipe,
    bind_theorem,
    carried_terms,
)


class ExactDivisionFailed(ArithmeticError):
    """A denominator atom does not divide the numerator of P exactly."""


class NoBisection(ArithmeticError):
    """Neither sign admits a polynomial Q up to the degree bound."""


class VanishingDiagonal(ArithmeticError):
    """A diagonal entry of the triangular y-rows is zero (fe-shift 0 0, sign -, A[0] = B[0])."""


class AmbiguousSign(ArithmeticError):
    """Both signs admit solutions; both are attached to the exception."""

    def __init__(self, results):
        super().__init__("both signs are consistent")
        self.results = results


# ------------------------------------------------- y-polynomials over QQ[t]
#
# A y-polynomial is a list of rows: row k is the plain list of int/Fraction
# t-coefficients of y^k.  Rows change only by atom steps, times or over one
# atom (c, texp, ypow) standing for (1 - c * t^texp * y^ypow), and are turned
# into Poly entries only where they leave this module's arithmetic.


def _axpy(row, src, c, texp):
    """row + c * t^texp * src, as a new row."""
    out = row + [0] * (len(src) + texp - len(row))
    for j, x in enumerate(src, texp):
        if x:
            out[j] += c * x
    return out


def _ytimes(rows, atoms):
    """rows times the product of the atoms (c, texp, ypow).

    Each atom is one step: row k -= c * t^texp * row(k-ypow), top row first,
    so every row reads its source before that source changes.
    """
    for c, texp, ypow in atoms:
        rows = rows + [[]] * ypow
        for k in range(len(rows) - 1, ypow - 1, -1):
            rows[k] = _axpy(rows[k], rows[k - ypow], -c, texp)
    return rows


def _ysum(parts):
    """The row-wise sum of y-polynomials, without trailing zero rows."""
    out = []
    for part in parts:
        out += [[]] * (len(part) - len(out))
        for k, row in enumerate(part):
            out[k] = _axpy(out[k], row, 1, 0)
    while out and not any(out[-1]):
        out.pop()
    return out


def _case_atoms(triples):
    """Catalog (t-exp, y-power, multiplicity) triples as a list of unit atoms."""
    return [(1, texp, ypow) for texp, ypow, mult in triples for _ in range(mult)]


def _tdiv_atom(row, c, texp: int, what: str):
    """row / (1 - c * t^texp) in QQ[t], by the ascending recurrence q_i = p_i + c * q_(i-texp)."""
    if texp == 0:
        if c == 1:
            raise ExactDivisionFailed(f"{what}: atom (1 - 1) is identically zero")
        inv = 1 / (1 - Fraction(c))
        return [x * inv for x in row]
    size = len(row) - texp
    q = []
    for i, x in enumerate(row):
        if i >= texp:
            x = x + c * q[i - texp]
        if i < size:
            q.append(x)
        elif x:
            raise ExactDivisionFailed(f"{what}: (1 - {c}*t^{texp}) leaves a remainder in t")
    return q


def _ydiv_atom(rows, atom, what: str):
    """rows / (1 - c * t^texp * y^ypow) in QQ[t][y], for atom = (c, texp, ypow).

    The atom has constant term 1 in y, so the quotient follows the ascending
    recurrence Q_k = N_k + c * t^texp * Q_(k-ypow); the division is exact
    when the top ypow rows leave zero.  A y^0 atom divides every row.
    """
    c, texp, ypow = atom
    if ypow == 0:
        return [_tdiv_atom(row, c, texp, what) for row in rows]
    size = len(rows) - ypow
    q = []
    for k, row in enumerate(rows):
        if k >= ypow:
            row = _axpy(row, q[k - ypow], c, texp)
        if k < size:
            q.append(row)
        elif any(row):
            raise ExactDivisionFailed(
                f"{what}: (1 - {c}*t^{texp}*y^{ypow}) leaves a remainder in y")
    return q


def _atom_to_y(x: BExp, root: int, what: str):
    if x.ncoef % root:
        raise ExactDivisionFailed(f"{what}: atom exponent {x.ncoef}n is not integral in y")
    if x.const < 0:
        raise ExactDivisionFailed(f"{what}: atom coefficient t^{x.const} is not polynomial")
    return x.coeff, x.const, x.ncoef // root


def weight_y_fraction(case: BisectionCase):
    """The theorem weight at the case parameters as (brace numerator, numerator atoms, denominator atoms).

    The brace numerator is a y-polynomial in rows: a row-wise sum of one atom
    product per brace term, each started from the term's monomial.  The
    atoms (c, texp, ypow) each stand for (1 - c * t^texp * y^ypow).
    """
    bt = bind_theorem(case.theorem, case.params, case.root)

    def atoms(xs, what):
        return [_atom_to_y(x, case.root, what) for x in xs]

    if len(bt.braces) != 1:
        raise ExactDivisionFailed("theorem weight must have a single brace group")
    group = bt.braces[0]
    dens = [atoms(t.den, "brace denominator") for t in group]
    parts = []
    for i, t in enumerate(group):
        c, texp, ypow = _atom_to_y(t.mono, case.root, "brace monomial")
        part = _ytimes([[]] * ypow + [[0] * texp + [c]], atoms(t.num, "brace numerator"))
        for j, dj in enumerate(dens):
            if j != i:
                part = _ytimes(part, dj)
        parts.append(part)
    wden = atoms(bt.w_den, "weight denominator")
    return _ysum(parts), atoms(bt.w_num, "weight numerator"), wden + [x for d in dens for x in d]


def build_P(case: BisectionCase):
    """clearing-factor * weight as an exact polynomial in y over QQ[t].

    Numerator atoms (clearing factor, weight) cancel against equal
    denominator atoms (clearing factor, weight, brace terms); the brace
    numerator takes the atom steps of the numerator atoms left, and every
    denominator atom left is divided out exactly, one at a time.  Returns
    one Poly in t per power of y.
    """
    brace, wnum, wden = weight_y_fraction(case)
    num = Counter(_case_atoms(case.clear_num) + wnum)
    den = Counter(_case_atoms(case.clear_den) + wden)
    common = num & den
    del common[1, 0, 0]  # the zero atom (1 - 1) never cancels
    P = _ytimes(brace, (num - common).elements())
    for atom in (den - common).elements():
        P = _ydiv_atom(P, atom, f"case {case.id}")
    return [Poly(row) for row in P]


@dataclass
class BisectionSolution:
    case: str
    sign: str
    degree: int
    coeffs: list            # RatFunc entries, a_0 normalized to 1
    terms: list | None      # per entry: [(coeff, t-exp), ...] when polynomial
    consistent: bool


def _poly_terms(r: RatFunc):
    """The (coeff, t-exponent) terms of a polynomial solution entry."""
    if r.is_zero:
        return []
    if not r.is_polynomial():
        return None
    p = r.as_poly()
    return [(Fraction(c), i) for i, c in enumerate(p.coeffs) if c]


def _fe_system(case: BisectionCase):
    """P and the functional-equation factors A and B of a case."""
    return (
        build_P(case),
        [Poly(row) for row in _ytimes([[1]], _case_atoms(case.fe_a))],
        [Poly(row) for row in _ytimes([[1]], _case_atoms(case.fe_b))],
    )


def solve_Q(case: BisectionCase, forced_sign: str | None = None):
    """Assemble and solve the functional-equation system for each sign, at case.deg_q.

    Returns a BisectionSolution for the unique consistent sign.  Raises
    NoBisection when neither sign works, AmbiguousSign when both do, and
    VanishingDiagonal when a sign's system has a zero diagonal entry.
    """
    return _solve_signs(case, _fe_system(case), case.deg_q, forced_sign)


def _solve_signs(case: BisectionCase, system, deg_q: int, forced_sign: str | None):
    P, A, B = system
    rows = len(P)
    if rows - 1 < deg_q:
        raise NoBisection(f"deg P = {rows - 1} cannot balance deg Q = {deg_q}")

    results = {}
    for sign_label, sign in (("+", 1), ("-", -1)):
        if forced_sign is not None and sign_label != forced_sign:
            continue
        num = _forward_solve(case, system, deg_q, sign)
        if num is None or num[0].is_zero:
            continue
        sol = [RatFunc(n, num[0]) for n in num]  # a_0 normalized to 1
        terms = [_poly_terms(s) for s in sol]
        results[sign_label] = BisectionSolution(
            case.id, sign_label, deg_q, sol,
            terms if all(t is not None for t in terms) else None, True,
        )
    if not results:
        if forced_sign is not None:
            return BisectionSolution(case.id, forced_sign, deg_q, [], None, False)
        raise NoBisection(f"case {case.id}: no consistent sign at degree {deg_q}")
    if len(results) == 2:
        raise AmbiguousSign(results)
    return next(iter(results.values()))


def _forward_solve(case: BisectionCase, system, deg_q: int, sign: int):
    """Numerators of Q over one common denominator, or None when no Q fits P.

    Row k of the system reads P_k = sum_i M[k][i] * Q_i with
    M[k][i] = A[k-i] + sign * t^(shift_texp + half*i) * B[k - shift_ypow - i],
    which is zero for i > k (shift_ypow >= 0), so rows 0..deg_q are lower
    triangular: Q_k = (P_k - sum_(i<k) M[k][i] * Q_i) / M[k][k], one row at a
    time, each entry built when its row needs it.  Every Q_i is kept as
    num[i] / den, all in QQ[t]: den stays 1 while each division by M[k][k]
    is exact, and a division that leaves a remainder multiplies den and the
    num[i] before it by M[k][k] instead, so no rational function (and no
    gcd) is formed here.  The rows above deg_q must then leave zero.
    """
    P, A, B = system
    shift_texp, shift_ypow = case.fe_shift
    half = case.root // 2

    def entry(k, i):
        out = A[k - i] if k - i < len(A) else Poly()
        jb = k - shift_ypow - i
        if 0 <= jb < len(B) and not B[jb].is_zero:
            # sign * t^(shift_texp + half*i) * B[jb], as a shift of B[jb]'s coefficients
            out = out + Poly((0,) * (shift_texp + half * i) + tuple(sign * c for c in B[jb].coeffs))
        return out

    num = []
    den = Poly.const(1)
    for k, acc in enumerate(P):
        if den.coeffs != (1,):
            acc = acc * den
        for i, n in enumerate(num):
            if not n.is_zero:
                m = entry(k, i)
                if not m.is_zero:
                    acc = acc - m * n
        if k > deg_q:
            if not acc.is_zero:
                return None
            continue
        d = entry(k, k)
        if d.is_zero:
            label = "+" if sign > 0 else "-"
            raise VanishingDiagonal(f"case {case.id}: sign {label}, y-row {k}: the diagonal "
                                    f"entry vanishes, so forward substitution has no pivot")
        if d.coeffs != (1,):
            quo, rem = acc.divmod(d)
            if rem.is_zero:
                acc = quo
            else:
                den = den * d
                num = [n * d for n in num]
        num.append(acc)
    return num


def degree_search(case: BisectionCase, max_deg: int):
    """Smallest Q-degree admitting a consistent sign, with its solution.

    A VanishingDiagonal is not a missing solution and ends the search.
    """
    system = _fe_system(case)
    for deg in range(max_deg + 1):
        try:
            return deg, _solve_signs(case, system, deg, None)
        except NoBisection:
            continue
    raise NoBisection(f"case {case.id}: no solution up to degree {max_deg}")


def functional_equation_residual(case: BisectionCase, sol: BisectionSolution):
    """P - [Q*A + sign*shift*Q(q^(1/2)y)*B] as a y-polynomial (must be zero).

    Both products start from -Q (the second one already shifted and with
    its coefficient i at t^(half*i)) and take the atom steps of A and B.
    """
    shift_texp, shift_ypow = case.fe_shift
    sign = 1 if sol.sign == "+" else -1
    half = case.root // 2
    qa = []
    qb = [[]] * shift_ypow
    for i, r in enumerate(sol.coeffs):
        c = r.as_poly().coeffs
        qa.append([-x for x in c])
        qb.append([0] * (shift_texp + half * i) + [-sign * x for x in c])
    P = [p.coeffs for p in build_P(case)]
    residual = _ysum([P, _ytimes(qa, _case_atoms(case.fe_a)), _ytimes(qb, _case_atoms(case.fe_b))])
    return [Poly(row) for row in residual]


# ------------------------------------------------------------ emitted series


def reduced_recipe(case: BisectionCase, sol: BisectionSolution) -> SeriesRecipe:
    """The single-sum series recipe from the solved Q (evaluated at q^(n/2))."""
    if sol.terms is None:
        raise NoBisection(f"case {case.id}: solution coefficients are not polynomial in t")
    half = case.root // 2
    qgroup = tuple(
        BraceTerm(BExp(half * i, texp, coeff), (), ())
        for i, entry in enumerate(sol.terms)
        for coeff, texp in entry
    )
    return replace(case.t, braces=(qgroup,), sign_alt=sol.sign == "-")


def pp_recipe(case: BisectionCase) -> SeriesRecipe:
    """The double-width (unreduced) series with P(q^n) as its weight."""
    group = tuple(
        BraceTerm(BExp(k * case.root, texp, coeff), (), ())
        for k, c in enumerate(build_P(case))
        for texp, coeff in enumerate(c.coeffs)
        if coeff
    )
    return replace(case.pp, braces=(group,))


def emit_reduced(case: BisectionCase, sol: BisectionSolution) -> IdentityRecord:
    """An IdentityRecord for the reduced series, verifiable by the registry."""
    return IdentityRecord(
        id=case.emit_id, kind="bisected", section="4.1",
        theorem=None, params=None, root=case.root,
        recipe=reduced_recipe(case, sol), case=case.id, sign=sol.sign,
        classical=None,
    )


def pairing_check(case: BisectionCase, sol: BisectionSolution, order: int) -> bool:
    """T_{2n} +- T_{2n+1} must reproduce the unreduced summand exactly.

    The terms of both series below the order come from carried_terms, which
    stops at each series' stop index, so the check is bounded; a term left
    out is zero to that order.  NonmonotoneValuation is raised when a
    valuation does not grow quadratically.
    """
    ring = SeriesRing(order=order, root=case.root)
    t = {n: tv.series for n, tv in carried_terms(ring, reduced_recipe(case, sol))}
    pp = {n: tv.series for n, tv in carried_terms(ring, pp_recipe(case))}
    zero = ring.zero()
    for n in sorted(set(pp) | {k // 2 for k in t}):
        pair = t.get(2 * n, zero) + t.get(2 * n + 1, zero)
        if pair.first_difference(pp.get(n, zero), order) is not None:
            return False
    return True

"""The reverse bisection method: recover a single alternating series.

A specialized triplicate summand, cleared of denominators, becomes a
polynomial P(y) (y standing for q^n).  P is built without rational
functions, as a list of coefficient rows (one sparse map {t-exponent:
nonzero coefficient} per power of y, so a step touches only nonzero terms)
changed only by atom steps.  Every factor is an atom (1 - c*t^a*y^b):
times an atom, row k takes -c*t^a times row k-b; over an atom, which has
constant term 1 in y, an ascending recurrence divides exactly, and any
nonzero remainder raises ExactDivisionFailed.  Equal numerator and
denominator atoms cancel before any step.  The ansatz series T_n carries
an unknown polynomial Q evaluated at q^(n/2), and matching

    P(y) = Q(y)*A(y) +- shift * Q(q^(1/2)y) * B(y)

coefficientwise yields an overdetermined linear system over the polynomial
ring in t.  Its first deg Q + 1 rows (powers of y) are lower triangular, so
Q is solved by forward substitution on the same sparse rows and every row
above, up to the top of the system, checks it.  At most one sign admits a
solution; the solved Q turns the double-width sum into sum(+-1)^n T_n.
P, A, B and Q cross the module boundary as Poly entries.

A catalog case holds the theorem, its parameters and two series recipes,
the unreduced double-width series (pp) and the term block T_n of the
reduced series (t).  The clearing factor and the functional-equation
factors A, B and shift are derived from them at load
(registry._parse_case, by theorems.term_ratio).  pp_recipe puts P(q^n)
into pp's braces and reduced_recipe puts the solved Q into t's.  The
weight polynomial itself is rebuilt from the theorem recipe, never
transcribed.  P is built once per solve (solve_Q, degree_search) and the
solution carries it: functional_equation_residual and pairing_check read
BisectionSolution.P and reject a solution of another case.
"""

from __future__ import annotations

from collections import Counter
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
    """A diagonal entry of the triangular y-rows is zero (shift 1, sign -, A[0] = B[0])."""


class AmbiguousSign(ArithmeticError):
    """Both signs admit solutions; both are attached to the exception."""

    def __init__(self, results):
        super().__init__("both signs are consistent")
        self.results = results


# ------------------------------------------------- y-polynomials over QQ[t]
#
# A y-polynomial is a list of rows: row k is the sparse map {t-exponent:
# nonzero coefficient} of y^k, so every step touches only nonzero terms.
# Rows change only by atom steps, times or over one atom (c, texp, ypow)
# standing for (1 - c * t^texp * y^ypow).  No row is changed in place, so
# rows may be shared.  Steps on int rows with int atoms stay on ints, as the
# catalog's do; a Fraction atom brings Fractions.  Rows become Poly entries
# (and Poly entries rows) only where they cross this module's boundary, and
# a Poly holds an int wherever a coefficient is integral.

_ONE = {0: 1}


def _row(p: Poly):
    return {j: x for j, x in enumerate(p.coeffs) if x}


def _poly(row) -> Poly:
    coeffs = [0] * (max(row) + 1) if row else []
    for j, x in row.items():
        coeffs[j] = x
    return Poly(coeffs)


def _addmul(acc, a, b, s=1):
    """acc + s * a * b for rows acc, a and b, as a new row; only nonzero terms are touched."""
    out = dict(acc)
    for i, x in a.items():
        x *= s
        if not x:              # the step of an atom with c = 0
            continue
        for j, y in b.items():
            j += i
            if j in out:
                v = out[j] + x * y
                if v:
                    out[j] = v
                else:
                    del out[j]
            else:
                out[j] = x * y
    return out


def _ytimes(rows, atoms):
    """rows times the product of the atoms (c, texp, ypow).

    Each atom is one step: row k -= c * t^texp * row(k-ypow), top row first,
    so every row reads its source before that source changes.
    """
    for c, texp, ypow in atoms:
        step = {texp: -c}
        rows = rows + [{}] * ypow
        for k in range(len(rows) - 1, ypow - 1, -1):
            if rows[k - ypow]:
                rows[k] = _addmul(rows[k], step, rows[k - ypow])
    return rows


def _ysum(parts):
    """The row-wise sum of y-polynomials, without trailing zero rows."""
    out = []
    for part in parts:
        out += [{}] * (len(part) - len(out))
        for k, row in enumerate(part):
            if row:
                out[k] = _addmul(out[k], _ONE, row)
    while out and not out[-1]:
        out.pop()
    return out


def _case_atoms(triples):
    """A case's (t-exp, y-power, multiplicity) triples as a list of unit atoms."""
    return [(1, texp, ypow) for texp, ypow, mult in triples for _ in range(mult)]


def _tdiv_atom(row, c, texp: int, what: str):
    """row / (1 - c * t^texp) in QQ[t]: the series quotient, exact when it stops at deg row - texp.

    The quotient follows q_j = row_j + c * q_(j-texp), one chain per residue
    of j mod texp; a chain is walked from each term of row that no chain
    has reached, until it leaves zero.
    """
    if texp == 0:
        if c == 1:
            raise ExactDivisionFailed(f"{what}: atom (1 - 1) is identically zero")
        inv = 1 / (1 - Fraction(c))
        return {j: x * inv for j, x in row.items()}
    top = max(row, default=-1) - texp       # the degree of an exact quotient
    q = {}
    for j in sorted(row):
        if j > top or j - texp in q:
            continue
        x = row[j]
        while x:
            q[j] = x
            j += texp
            if j > top:
                break
            x = row.get(j, 0) + c * x
    for j in range(top + 1, top + texp + 1):
        if row.get(j, 0) + c * q.get(j - texp, 0):
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
    step = {texp: c}
    size = len(rows) - ypow
    q = []
    for k, row in enumerate(rows):
        if k >= ypow and q[k - ypow]:
            row = _addmul(row, step, q[k - ypow])
        if k < size:
            q.append(row)
        elif row:
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
        part = _ytimes([{}] * ypow + [{texp: c}], atoms(t.num, "brace numerator"))
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
    return [_poly(row) for row in P]


class BisectionSolution:
    """A solved (or forced-sign) Q of one case; equality and repr leave out P."""

    __slots__ = ("case", "sign", "degree", "coeffs", "terms", "consistent", "P")

    def __init__(self, case: str, sign: str, degree: int, coeffs: list, terms: list | None,
                 consistent: bool, P: list):
        self.case = case
        self.sign = sign
        self.degree = degree
        self.coeffs = coeffs          # RatFunc entries, a_0 normalized to 1
        self.terms = terms            # per entry: [(coeff, t-exp), ...] when polynomial
        self.consistent = consistent
        self.P = P                    # build_P(case), the P it was solved against

    def _key(self):
        return self.case, self.sign, self.degree, self.coeffs, self.terms, self.consistent

    def __eq__(self, other):
        if other.__class__ is BisectionSolution:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._key()))
        return f"BisectionSolution({fields})"


def _solved_P(case: BisectionCase, sol: BisectionSolution):
    """The P that sol was solved against; sol must belong to case."""
    if sol.case != case.id:
        raise ValueError(f"solution of case {sol.case} given for case {case.id}")
    return sol.P


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
        [_poly(row) for row in _ytimes([_ONE], _case_atoms(case.fe_a))],
        [_poly(row) for row in _ytimes([_ONE], _case_atoms(case.fe_b))],
    )


def solve_Q(case: BisectionCase, forced_sign: str | None = None):
    """Assemble and solve the functional-equation system for each sign, at case.deg_q.

    Returns a BisectionSolution for the unique consistent sign, carrying
    the P it was solved against.  Raises
    NoBisection when neither sign works, AmbiguousSign when both do, and
    VanishingDiagonal when a sign's system has a zero diagonal entry.
    """
    return _solve_signs(case, _fe_system(case), case.deg_q, forced_sign)


def _solve_signs(case: BisectionCase, system, deg_q: int, forced_sign: str | None):
    P = system[0]
    rows = len(P)
    if rows - 1 < deg_q:
        raise NoBisection(f"deg P = {rows - 1} cannot balance deg Q = {deg_q}")

    sparse = [[_row(p) for p in part] for part in system]
    results = {}
    for sign_label, sign in (("+", 1), ("-", -1)):
        if forced_sign is not None and sign_label != forced_sign:
            continue
        num = _forward_solve(case, sparse, deg_q, sign)
        if num is None or num[0].is_zero:
            continue
        sol = [RatFunc(n, num[0]) for n in num]  # a_0 normalized to 1
        terms = [_poly_terms(s) for s in sol]
        results[sign_label] = BisectionSolution(
            case.id, sign_label, deg_q, sol,
            terms if all(t is not None for t in terms) else None, True, P,
        )
    if not results:
        if forced_sign is not None:
            return BisectionSolution(case.id, forced_sign, deg_q, [], None, False, P)
        raise NoBisection(f"case {case.id}: no consistent sign at degree {deg_q}")
    if len(results) == 2:
        raise AmbiguousSign(results)
    return next(iter(results.values()))


def _forward_solve(case: BisectionCase, system, deg_q: int, sign: int):
    """Numerators of Q (Poly) over one common denominator, or None when no Q fits P.

    system is P, A and B as lists of rows.  Row k of the system reads
    P_k = sum_i M[k][i] * Q_i with
    M[k][i] = A[k-i] + sign * t^(shift_texp + half*i) * B[k - shift_ypow - i],
    which is zero for i > k (shift_ypow >= 0), so rows 0..deg_q are lower
    triangular: Q_k = (P_k - sum_(i<k) M[k][i] * Q_i) / M[k][k], one row at a
    time, each entry built when its row needs it.  Every Q_i is kept as
    num[i] / den, all rows in QQ[t]: den stays 1 while each division by
    M[k][k] is exact (a unit diagonal, the catalog's case, needs none; any
    other goes through Poly.divmod), and a division that leaves a remainder
    multiplies den and the num[i] before it by M[k][k] instead, so no
    rational function (and no gcd) is formed here.  Every row above deg_q
    must then leave zero, up to the top of the system,
    deg_q + max(deg A, shift_ypow + deg B), or of P if that is higher; P has
    no rows past its degree.
    """
    P, A, B = system
    shift_texp, shift_ypow = case.fe_shift
    half = case.root // 2
    top = deg_q + max(len(A) - 1, shift_ypow + len(B) - 1)

    def entry(k, i):
        out = A[k - i] if k - i < len(A) else {}
        jb = k - shift_ypow - i
        if 0 <= jb < len(B) and B[jb]:
            out = _addmul(out, {shift_texp + half * i: sign}, B[jb])
        return out

    num = []
    den = _ONE
    for k in range(max(len(P), top + 1)):
        acc = P[k] if k < len(P) else {}
        if den != _ONE:
            acc = _addmul({}, acc, den)
        for i, n in enumerate(num):
            if n:
                m = entry(k, i)
                if m:
                    acc = _addmul(acc, m, n, -1)
        if k > deg_q:
            if acc:
                return None
            continue
        d = entry(k, k)
        if not d:
            label = "+" if sign > 0 else "-"
            raise VanishingDiagonal(f"case {case.id}: sign {label}, y-row {k}: the diagonal "
                                    f"entry vanishes, so forward substitution has no pivot")
        if d != _ONE:
            quo, rem = _poly(acc).divmod(_poly(d))
            if rem.is_zero:
                acc = _row(quo)
            else:
                den = _addmul({}, den, d)
                num = [_addmul({}, n, d) for n in num]
        num.append(acc)
    return [_poly(n) for n in num]


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

    P is the one sol was solved against (sol.P); a solution of another
    case raises ValueError.  Both products start from -Q (the second one
    already shifted and with its coefficient i at t^(half*i)) and take the
    atom steps of A and B.
    """
    P = [_row(p) for p in _solved_P(case, sol)]
    shift_texp, shift_ypow = case.fe_shift
    sign = 1 if sol.sign == "+" else -1
    half = case.root // 2
    qa = []
    qb = [{}] * shift_ypow
    for i, r in enumerate(sol.coeffs):
        c = r.as_poly().coeffs
        qa.append({j: -x for j, x in enumerate(c) if x})
        qb.append({j: -sign * x for j, x in enumerate(c, shift_texp + half * i) if x})
    residual = _ysum([P, _ytimes(qa, _case_atoms(case.fe_a)), _ytimes(qb, _case_atoms(case.fe_b))])
    return [_poly(row) for row in residual]


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
    return case.t._replace(braces=(qgroup,), sign_alt=sol.sign == "-")


def pp_recipe(case: BisectionCase, sol: BisectionSolution) -> SeriesRecipe:
    """The double-width (unreduced) series with P(q^n) as its weight.

    P is the one sol was solved against (sol.P); a solution of another case
    raises ValueError.  The weight is one brace group of pure monomials,
    one per nonzero coefficient of P.
    """
    group = tuple(
        BraceTerm(BExp(k * case.root, texp, coeff), (), ())
        for k, c in enumerate(_solved_P(case, sol))
        for texp, coeff in enumerate(c.coeffs)
        if coeff
    )
    return case.pp._replace(braces=(group,))


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

    The unreduced summand is weighted by the P that sol was solved against
    (pp_recipe); a solution of another case raises ValueError.  The terms
    of both series below the order come from carried_terms, which stops at
    each series' stop index, so the check is bounded; a term left out is
    zero to that order.  NonmonotoneValuation is raised when a valuation
    does not grow quadratically.
    """
    ring = SeriesRing(order=order, root=case.root)
    t = {n: tv.series for n, tv in carried_terms(ring, reduced_recipe(case, sol))}
    pp = {n: tv.series for n, tv in carried_terms(ring, pp_recipe(case, sol))}
    zero = ring.zero()
    for n in sorted(set(pp) | {k // 2 for k in t}):
        pair = t.get(2 * n, zero) + t.get(2 * n + 1, zero)
        if pair.first_difference(pp.get(n, zero), order) is not None:
            return False
    return True

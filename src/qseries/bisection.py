"""The reverse bisection method: recover a single alternating series.

A specialized triplicate summand, cleared of denominators, becomes a
polynomial P(y) (y standing for q^n).  Every y-polynomial here (P, the
functional-equation factors A and B, the solved Q and the residual) is a
list of coefficient rows, one sparse map {t-exponent: nonzero coefficient}
per power of y, so a step touches only nonzero terms.  Rows change only by
atom steps and one exact division.  Every factor is an atom
(1 - c*t^a*y^b): times an atom, row k takes -c*t^a times row k-b; over an
atom with b > 0, which has constant term 1 in y, an ascending recurrence
divides exactly.  A row is divided by any row in t (a y^0 atom, a diagonal
entry of the solve) from its lowest term up, and any nonzero remainder
raises ExactDivisionFailed.  Equal numerator and denominator atoms cancel
before any step.  The ansatz series T_n carries an unknown polynomial Q
evaluated at q^(n/2), and matching

    P(y) = Q(y)*A(y) +- shift * Q(q^(1/2)y) * B(y)

coefficientwise yields an overdetermined linear system over the polynomial
ring in t.  Its first deg Q + 1 rows (powers of y) are lower triangular, so
Q is solved by forward substitution and every row above, up to the top of
the system, checks it.  Q is kept as solved: numerator rows over one
denominator row, which stays 1 exactly when Q is polynomial in t.  At most
one sign admits a solution; the solved Q turns the double-width sum into
sum(+-1)^n T_n.  Only build_P returns Poly entries; the solve converts them
to rows once.

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

from qseries.polyring import Poly
from qseries.registry import BisectionCase, IdentityRecord, qpoly_group
from qseries.series import LaurentSeries
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
# Row k of a y-polynomial is the sparse map {t-exponent: nonzero
# coefficient} of y^k.  An atom (c, texp, ypow) stands for
# (1 - c * t^texp * y^ypow).  No row is changed in place, so rows may be
# shared.  Steps on int rows with int atoms stay on ints, as the catalog's
# do; a Fraction atom brings Fractions, and _tdiv gives an int wherever a
# quotient term is integral.

_ONE = {0: 1}


def _row(p: Poly):
    return {j: x for j, x in enumerate(p.coeffs) if x}


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


def _tdiv(row, d, what: str, name: str):
    """row / d in QQ[t] for a nonzero row d: the quotient, or ExactDivisionFailed.

    The quotient is taken from the lowest term up: with d_m * t^m the lowest
    term of d, q_j = (row_(j+m) - sum_(i > m) d_i * q_(j+m-i)) / d_m up to
    the degree deg row - deg d of an exact quotient.  The division is exact
    when no term of row is left (below t^m or above that degree); name is
    the divisor as the messages print it.
    """
    if not d:
        raise ExactDivisionFailed(f"{what}: {name} is identically zero")
    m = min(d)
    lead = d[m]
    rest = [(i, -x) for i, x in d.items() if i != m]
    rem = dict(row)
    q = {}
    for j in range(max(row, default=-1) - max(d) + 1):
        x = rem.pop(j + m, 0)
        if not x:
            continue
        if lead != 1:
            x = Fraction(x, lead)
        if type(x) is Fraction and x.denominator == 1:
            x = x.numerator
        q[j] = x
        for i, y in rest:
            i += j
            v = rem.get(i, 0) + x * y
            if v:
                rem[i] = v
            else:
                del rem[i]
    if rem:
        raise ExactDivisionFailed(f"{what}: {name} leaves a remainder in t")
    return q


def _ydiv_atom(rows, atom, what: str):
    """rows / (1 - c * t^texp * y^ypow) in QQ[t][y], for atom = (c, texp, ypow).

    The atom has constant term 1 in y, so the quotient follows the ascending
    recurrence Q_k = N_k + c * t^texp * Q_(k-ypow); the division is exact
    when the top ypow rows leave zero.  A y^0 atom divides every row by _tdiv.
    """
    c, texp, ypow = atom
    if ypow == 0:
        d = _addmul(_ONE, {texp: -c}, _ONE)
        name = f"(1 - {c}*t^{texp})" if texp else f"atom (1 - {c})"
        return [_tdiv(row, d, what, name) for row in rows]
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

    The brace terms are brought to the lcm of their denominator atoms (per
    atom the largest multiplicity in any term): the brace numerator is a
    y-polynomial in rows, a row-wise sum of one atom product per brace term,
    each started from the term's monomial.  The atoms (c, texp, ypow) each
    stand for (1 - c * t^texp * y^ypow).
    """
    bt = bind_theorem(case.theorem, case.params, case.root)

    def atoms(xs, what):
        return [_atom_to_y(x, case.root, what) for x in xs]

    if len(bt.braces) != 1:
        raise ExactDivisionFailed("theorem weight must have a single brace group")
    group = bt.braces[0]
    dens = [Counter(atoms(t.den, "brace denominator")) for t in group]
    lcm = Counter()
    for d in dens:
        lcm |= d
    parts = []
    for t, d in zip(group, dens):
        c, texp, ypow = _atom_to_y(t.mono, case.root, "brace monomial")
        parts.append(_ytimes([{}] * ypow + [{texp: c}],
                             atoms(t.num, "brace numerator") + list((lcm - d).elements())))
    wden = atoms(bt.w_den, "weight denominator")
    return _ysum(parts), atoms(bt.w_num, "weight numerator"), wden + list(lcm.elements())


def build_P(case: BisectionCase):
    """clearing-factor * weight as an exact polynomial in y over QQ[t].

    Numerator atoms (clearing factor, weight) cancel against equal
    denominator atoms (clearing factor, weight, brace lcm); the brace
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
    return [Poly([row.get(j, 0) for j in range(max(row, default=-1) + 1)]) for row in P]


class BisectionSolution:
    """A solved (or forced-sign) Q of one case; equality and repr leave out P."""

    __slots__ = ("case", "sign", "degree", "num", "den", "terms", "consistent", "P")

    def __init__(self, case: str, sign: str, degree: int, num: list, den: dict, terms: list | None,
                 consistent: bool, P: list):
        self.case = case
        self.sign = sign
        self.degree = degree
        self.num = num                # Q as solved: its numerator rows over den
        self.den = den                # one denominator row, {0: 1} when Q is polynomial
        self.terms = terms            # per entry: [(Fraction coeff, t-exp), ...] when polynomial
        self.consistent = consistent
        self.P = P                    # the rows of build_P(case), the P it was solved against

    def _key(self):
        return self.case, self.sign, self.degree, self.num, self.den, self.terms, self.consistent

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


def _scope(case: BisectionCase, bound: str) -> str:
    """The case, the ansatz it covers and a degree bound on Q, as messages name them."""
    return f"case {case.id}, ansatz T_n = {case.t.name}(n)*Q(q^(n/2)) of its t- keys, deg Q {bound}"


def _fe_system(case: BisectionCase):
    """P, A and B of a case as rows; P is converted from build_P once."""
    return (
        [_row(p) for p in build_P(case)],
        _ytimes([_ONE], _case_atoms(case.fe_a)),
        _ytimes([_ONE], _case_atoms(case.fe_b)),
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
    """solve_Q on the rows (P, A, B) of _fe_system at degree deg_q.

    A Q whose constant entry a_0 is zero does not count as a solution.
    """
    P = system[0]
    if len(P) - 1 < deg_q:
        raise NoBisection(f"{_scope(case, f'= {deg_q}')}: deg P = {len(P) - 1} cannot balance it")
    results = {}
    for sign_label, sign in (("+", 1), ("-", -1)):
        if forced_sign is not None and sign_label != forced_sign:
            continue
        solved = _forward_solve(case, system, deg_q, sign)
        if solved is None or not solved[0][0]:
            continue
        num, den = solved
        terms = [[(Fraction(x), j) for j, x in sorted(n.items())] for n in num] if den == _ONE else None
        results[sign_label] = BisectionSolution(case.id, sign_label, deg_q, num, den, terms, True, P)
    if not results:
        if forced_sign is not None:
            return BisectionSolution(case.id, forced_sign, deg_q, [], _ONE, None, False, P)
        raise NoBisection(f"{_scope(case, f'= {deg_q}')}: no consistent sign")
    if len(results) == 2:
        raise AmbiguousSign(results)
    return next(iter(results.values()))


def _forward_solve(case: BisectionCase, system, deg_q: int, sign: int):
    """Q as (numerator rows, one denominator row), or None when no Q fits P.

    system is P, A and B as lists of rows.  Row k of the system reads
    P_k = sum_i M[k][i] * Q_i with
    M[k][i] = A[k-i] + sign * t^(shift_texp + half*i) * B[k - shift_ypow - i],
    which is zero for i > k (shift_ypow >= 0), so rows 0..deg_q are lower
    triangular: Q_k = (P_k - sum_(i<k) M[k][i] * Q_i) / M[k][k], one row at a
    time, each entry built when its row needs it.  Every Q_i is kept as
    num[i] / den, all rows in QQ[t]: den stays 1 while each division by
    M[k][k] is exact (a unit diagonal, the catalog's case, needs none; any
    other goes through _tdiv), and a division that leaves a remainder
    multiplies den and the num[i] before it by M[k][k] instead, so no
    rational function (and no gcd) is formed.  Hence den is 1 exactly when
    every Q_i is a polynomial.  Every row above deg_q must then leave zero,
    up to the top of the system, deg_q + max(deg A, shift_ypow + deg B), or
    of P if that is higher; P has no rows past its degree.
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
            try:
                acc = _tdiv(acc, d, f"case {case.id}", f"the y-row {k} diagonal")
            except ExactDivisionFailed:
                den = _addmul({}, den, d)
                num = [_addmul({}, n, d) for n in num]
        num.append(acc)
    return num, den


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
    raise NoBisection(f"{_scope(case, f'<= {max_deg}')}: no consistent sign")


def functional_equation_residual(case: BisectionCase, sol: BisectionSolution):
    """den*P - [N*A + sign*shift*N(q^(1/2)y)*B] as rows (must be []), for Q = N / den.

    P is the one sol was solved against (sol.P); a solution of another
    case raises ValueError.  Both products start from -N (the second one
    already shifted and with its entry i at t^(half*i)) and take the atom
    steps of A and B.
    """
    P = _solved_P(case, sol)
    if sol.den != _ONE:
        P = [_addmul({}, row, sol.den) for row in P]
    shift_texp, shift_ypow = case.fe_shift
    sign = 1 if sol.sign == "+" else -1
    half = case.root // 2
    qa = [{j: -x for j, x in n.items()} for n in sol.num]
    qb = [{}] * shift_ypow + [
        {j + shift_texp + half * i: -sign * x for j, x in n.items()} for i, n in enumerate(sol.num)]
    return _ysum([P, _ytimes(qa, _case_atoms(case.fe_a)), _ytimes(qb, _case_atoms(case.fe_b))])


# ------------------------------------------------------------ emitted series


def reduced_recipe(case: BisectionCase, sol: BisectionSolution) -> SeriesRecipe:
    """The single-sum series recipe from the solved Q (evaluated at q^(n/2)).

    Its Q group comes from registry.qpoly_group, as a catalog record's does.
    """
    if sol.terms is None:
        raise NoBisection(f"{_scope(case, f'= {sol.degree}')}: the solved Q is not polynomial in t")
    terms = [(i, coeff, texp) for i, entry in enumerate(sol.terms) for coeff, texp in entry]
    return case.t._replace(braces=(qpoly_group(terms, case.root),), sign_alt=sol.sign == "-")


def pp_recipe(case: BisectionCase, sol: BisectionSolution) -> SeriesRecipe:
    """The double-width (unreduced) series with P(q^n) as its weight.

    P is the one sol was solved against (sol.P); a solution of another case
    raises ValueError.  The weight is one brace group of pure monomials,
    one per nonzero coefficient of P, in ascending t-exponent per row.
    """
    group = tuple(
        BraceTerm(BExp(k * case.root, texp, coeff), (), ())
        for k, row in enumerate(_solved_P(case, sol))
        for texp, coeff in sorted(row.items())
    )
    return case.pp._replace(braces=(group,))


def emit_reduced(case: BisectionCase, sol: BisectionSolution) -> IdentityRecord:
    """An IdentityRecord for the reduced series, verifiable by the registry."""
    return IdentityRecord(
        id=case.emit_id, kind="bisected", section="4.1",
        theorem=None, params=None, root=case.root,
        recipe=reduced_recipe(case, sol), case=case.id, classical=None,
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
    t = {n: tv.series for n, tv in carried_terms(reduced_recipe(case, sol), order)}
    pp = {n: tv.series for n, tv in carried_terms(pp_recipe(case, sol), order)}
    zero = LaurentSeries.zero(order)
    for n in sorted(set(pp) | {k // 2 for k in t}):
        pair = t.get(2 * n, zero) + t.get(2 * n + 1, zero)
        if pair.first_difference(pp.get(n, zero), order) is not None:
            return False
    return True

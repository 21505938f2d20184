"""Reverse bisection: P construction, the sign systems, emitted series."""

import re
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qseries import bisection, linsolve, theorems
from qseries.bisection import (
    AmbiguousSign,
    BisectionSolution,
    ExactDivisionFailed,
    NoBisection,
    VanishingDiagonal,
    _atom_to_y,
    _case_atoms,
    _fe_system,
    _solve_signs,
    _tdiv,
    _ydiv_atom,
    _ytimes,
    build_P,
    degree_search,
    emit_reduced,
    functional_equation_residual,
    pairing_check,
    pp_recipe,
    reduced_recipe,
    solve_Q,
    weight_y_fraction,
)
from qseries.linsolve import poly_solve_overdetermined
from qseries.polyring import Poly, RatFunc
from qseries.registry import BisectionCase, CatalogError, load_catalog, record_sides
from qseries.theorems import NonmonotoneValuation, bind_theorem, theorem_lhs, theorem_series

F = Fraction

# Atoms (1 - c t^a y^b) as (c, a, b): Fraction c, b = 0, and a = b = 0.
SYNTHETIC_ATOMS = [(F(2, 3), 5, 2), (-3, 4, 1), (F(-1, 2), 3, 0), (3, 0, 0), (F(1, 5), 0, 1)]


# ----------------------------- dense reference: y-polynomials as Poly lists


def _ymono(texp, ypow, coeff=1):
    return [Poly()] * ypow + [Poly.monomial(coeff, texp)]


def _ymul(a, b):
    if not a or not b:
        return []
    out = [Poly() for _ in range(len(a) + len(b) - 1)]
    for i, pa in enumerate(a):
        if pa.is_zero:
            continue
        for j, pb in enumerate(b):
            if not pb.is_zero:
                out[i + j] = out[i + j] + pa * pb
    return out


def _yadd(a, b):
    out = [Poly() for _ in range(max(len(a), len(b)))]
    for i, p in enumerate(a):
        out[i] = out[i] + p
    for i, p in enumerate(b):
        out[i] = out[i] + p
    while out and out[-1].is_zero:
        out.pop()
    return out


def _yatoms_poly(atoms):
    """Product of the atoms (1 - c * t^texp * y^ypow), given as (c, texp, ypow)."""
    acc = [Poly.const(1)]
    for c, texp, ypow in atoms:
        acc = _ymul(acc, _yadd([Poly.const(1)], _ymono(texp, ypow, -c)))
    return acc


def _ydiv(num, den):
    """num / den in QQ[t][y] by ascending long division, each step an exact t-division."""
    q = []
    for k in range(len(num) - len(den) + 1):
        acc = num[k]
        for j in range(1, min(k, len(den) - 1) + 1):
            acc = acc - den[j] * q[k - j]
        quo = acc.exact_div(den[0])  # Fraction coefficients: keep the integral ones as int
        q.append(Poly([x.numerator if x.denominator == 1 else x for x in quo.coeffs]))
    assert _yadd(num, [-p for p in _ymul(q, den)]) == []
    return q


def _polys(rows):
    """Sparse rows {t-exponent: coefficient} as dense Polys."""
    return [Poly([row.get(j, 0) for j in range(max(row, default=-1) + 1)]) for row in rows]


def _rows(polys):
    """Polys as sparse rows {t-exponent: nonzero coefficient}."""
    return [{j: c for j, c in enumerate(p.coeffs) if c} for p in polys]


def _solved_Q(sol):
    """The solved Q of a solution, num[i] / den, as reduced RatFunc entries."""
    den = _polys([sol.den])[0]
    return [RatFunc(n, den) for n in _polys(sol.num)]


def _dense_weight(case):
    """The theorem weight at the case parameters as a multiplied-out (num, den)."""
    bt = bind_theorem(case.theorem, case.params, case.root)

    def atoms_poly(xs):
        return _yatoms_poly([_atom_to_y(x, case.root, "reference") for x in xs])

    group = bt.braces[0]
    dens = [atoms_poly(t.den) for t in group]
    brace = []
    for i, t in enumerate(group):
        c, texp, ypow = _atom_to_y(t.mono, case.root, "reference")
        part = _ymul(_ymono(texp, ypow, c), atoms_poly(t.num))
        for j, dj in enumerate(dens):
            if j != i:
                part = _ymul(part, dj)
        brace = _yadd(brace, part)
    den = atoms_poly(bt.w_den)
    for d in dens:
        den = _ymul(den, d)
    return _ymul(atoms_poly(bt.w_num), brace), den


def _reference_P(case):
    """Multiply the numerator and the denominator out, then divide."""
    wnum, wden = _dense_weight(case)
    num = _ymul(_yatoms_poly(_case_atoms(case.clear_num)), wnum)
    den = _ymul(_yatoms_poly(_case_atoms(case.clear_den)), wden)
    return _ydiv(num, den)


def _reference_residual(case, sol, P):
    """den*P - [N*A + sign*shift*N(q^(1/2)y)*B] for Q = N / den, multiplied out densely."""
    A = _yatoms_poly(_case_atoms(case.fe_a))
    B = _yatoms_poly(_case_atoms(case.fe_b))
    sign = 1 if sol.sign == "+" else -1
    half = case.root // 2
    N = _polys(sol.num)
    Nshift = [c * Poly.monomial(1, half * i) for i, c in enumerate(N)]
    shifted = _ymul(_ymul(Nshift, B), _ymono(case.fe_shift[0], case.fe_shift[1], sign))
    rhs = _yadd(_ymul(N, A), shifted)
    return _yadd(_ymul(_polys([sol.den]), P), [-p for p in rhs])


@pytest.fixture(scope="module")
def cat():
    return load_catalog()


@pytest.fixture(scope="module")
def ref_P(cat):
    return {cid: _reference_P(cat.cases[cid]) for cid in ("v1x3", "v3x1")}


@pytest.fixture(scope="module")
def sols(cat):
    return {cid: solve_Q(cat.cases[cid]) for cid in ("v1x3", "v3x1")}


def test_P_degree_19(cat):
    for cid in ("v1x3", "v3x1"):
        assert len(build_P(cat.cases[cid])) - 1 == 19


def test_pp_form_verifies_against_product(cat, sols):
    # the double-width series with P(q^n) reproduces its displayed product
    for cid in ("v1x3", "v3x1"):
        bt = pp_recipe(cat.cases[cid], sols[cid])
        lhs, net, phi = theorem_lhs(bt, 120)
        assert net == 0
        res = theorem_series(bt, 120)
        assert lhs.first_difference(res.series, 120) is None


def q_terms(sol):
    return [[(c, e) for c, e in entry] for entry in sol.terms]


def test_v1x3_solution_matches_paper(sols):
    sol = sols["v1x3"]
    assert sol.sign == "-"
    assert q_terms(sol) == [
        [(1, 0)], [(1, 4)], [(1, 6), (1, 8)], [], [(-1, 10), (-1, 12)], [(-1, 14)], [(-1, 18)],
    ]


def test_v3x1_solution_matches_paper(sols):
    sol = sols["v3x1"]
    assert sol.sign == "-"
    assert q_terms(sol) == [
        [(1, 0)], [(1, 2)], [(1, 2), (1, 4)], [], [(-1, 2), (-1, 4)], [(-1, 4)], [(-1, 6)],
    ]


def test_plus_sign_inconsistent(cat):
    for cid in ("v1x3", "v3x1"):
        plus = solve_Q(cat.cases[cid], forced_sign="+")
        assert not plus.consistent


def test_functional_equation_residual_zero(cat, sols):
    for cid, sol in sols.items():
        assert functional_equation_residual(cat.cases[cid], sol) == []
        assert sol.den == {0: 1}


@pytest.mark.parametrize("cid", ["v1x3", "v3x1"])
def test_functional_equation_residual_matches_reference(cat, sols, ref_P, cid):
    case = cat.cases[cid]
    sol = sols[cid]
    plus = _solution(sol, sign="+")  # the solved Q under the wrong sign
    forced = solve_Q(case, forced_sign="+")    # no Q at all: the residual is P
    assert _polys(functional_equation_residual(case, sol)) == _reference_residual(case, sol, ref_P[cid]) == []
    for wrong in (plus, forced):
        residual = functional_equation_residual(case, wrong)
        assert _polys(residual) == _reference_residual(case, wrong, ref_P[cid])
        assert residual != []
    assert _polys(functional_equation_residual(case, forced)) == build_P(case)


def test_normalization_invariance(cat):
    # scaling the clearing factor by a nonzero factor scales P accordingly,
    # and when the same factor scales both functional-equation sides the
    # solved Q is unchanged: each non-unit diagonal divides exactly
    case = cat.cases["v3x1"]
    extra = (6, 0, 1)  # the factor (1 - t^6)
    scaled = BisectionCase(**{**case._asdict(), "clear_num": case.clear_num + (extra,)})
    P0, P1 = build_P(case), build_P(scaled)
    factor = Poly((1,)) - Poly.monomial(1, 6)
    assert len(P1) == len(P0) and all(a == b * factor for a, b in zip(P1, P0))

    both = BisectionCase(**{
        **case._asdict(),
        "clear_num": case.clear_num + (extra,),
        "fe_a": case.fe_a + (extra,),
        "fe_b": case.fe_b + (extra,),
    })
    scaled_sol, sol = solve_Q(both), solve_Q(case)
    assert (scaled_sol.num, scaled_sol.den) == (sol.num, sol.den)
    assert sol.den == {0: 1}


def test_exact_division_failure_names_case(cat):
    case = cat.cases["v3x1"]
    # removing the clearing factor entirely leaves the weight's own poles behind
    broken = BisectionCase(**{**case._asdict(), "clear_num": (), "clear_den": ()})
    with pytest.raises(ExactDivisionFailed) as exc:
        build_P(broken)
    assert "v3x1" in str(exc.value)


def _num_and_den(case):
    """The numerator and the multiplied-out denominator that build_P divides."""
    brace, wnum, wden = weight_y_fraction(case)
    num = _ymul(_yatoms_poly(_case_atoms(case.clear_num) + wnum), _polys(brace))
    return num, _yatoms_poly(_case_atoms(case.clear_den) + wden)


def _with(case, **changes):
    return BisectionCase(**{**case._asdict(), **changes})


def _solution(sol, **changes):
    """sol with some fields changed, P included."""
    return BisectionSolution(**{**{k: getattr(sol, k) for k in BisectionSolution.__slots__}, **changes})


def test_P_times_denominator_is_numerator(cat):
    # a multiplication-based reference, independent of the atom-by-atom division
    for cid in ("v1x3", "v3x1"):
        case = cat.cases[cid]
        num, den = _num_and_den(case)
        assert _ymul(build_P(case), den) == num


def test_y0_atom_on_both_sides_leaves_P_unchanged(cat):
    case = cat.cases["v1x3"]
    extra = (6, 0, 1)  # (1 - t^6) in the numerator and the denominator
    both = _with(case, clear_num=case.clear_num + (extra,), clear_den=case.clear_den + (extra,))
    P = build_P(both)
    assert P == build_P(case)
    num, den = _num_and_den(both)
    assert _ymul(P, den) == num


def test_division_by_non_unit_atoms(cat):
    # atoms (1 - c t^a y^b) with c not 1, including Fraction c, b = 0 and a = b = 0
    P = build_P(cat.cases["v3x1"])
    atoms = SYNTHETIC_ATOMS
    num = _rows(_ymul(P, _yatoms_poly(atoms)))
    for atom in atoms:
        num = _ydiv_atom(num, atom, "synthetic")
    num = _polys(num)
    assert num == P


def test_atom_steps_match_dense_product(cat):
    P = build_P(cat.cases["v3x1"])
    for k in range(len(SYNTHETIC_ATOMS) + 1):
        atoms = SYNTHETIC_ATOMS[:k]
        assert _polys(_ytimes(_rows(P), atoms)) == _ymul(P, _yatoms_poly(atoms))


def _integral_fractions(rows):
    return [c for row in rows for c in row.values() if type(c) is Fraction and c.denominator == 1]


@pytest.mark.parametrize("cid", ["v1x3", "v3x1"])
def test_P_solution_and_residual_hold_no_integral_fraction(cat, sols, cid, monkeypatch):
    # every row that leaves the module keeps an int wherever a coefficient is integral
    case, sol = cat.cases[cid], sols[cid]
    residual = functional_equation_residual(case, _solution(sol, sign="+"))
    assert residual != []
    assert _integral_fractions([*sol.P, *sol.num, sol.den, *residual]) == []
    # also where Fraction atoms pass through the rows on the way
    weight = bisection.weight_y_fraction

    def padded(case):
        brace, num, den = weight(case)
        return _rows(_ymul(_polys(brace), _yatoms_poly(SYNTHETIC_ATOMS))), num, den + SYNTHETIC_ATOMS

    monkeypatch.setattr(bisection, "weight_y_fraction", padded)
    P = build_P(case)
    assert _rows(P) == sol.P and _integral_fractions(_rows(P)) == []


_coeff = st.integers(-3, 3).filter(bool) | st.fractions(-3, 3, max_denominator=4).filter(bool)
_sparse_row = st.dictionaries(st.integers(0, 12), _coeff, max_size=5)
# (c, texp, ypow): Fraction c, b = 0 and a = b = 0 included, the zero atom (1 - 1) left out
_atom = st.tuples(_coeff, st.integers(0, 5), st.integers(0, 2)).filter(lambda a: a != (1, 0, 0))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_sparse_row, max_size=4), atoms=st.lists(_atom, max_size=3))
def test_sparse_atom_steps_match_dense_reference(rows, atoms):
    dense = _polys(rows)
    times = _ytimes(rows, atoms)
    assert _yadd(_polys(times), []) == _yadd(_ymul(dense, _yatoms_poly(atoms)), [])
    back = times
    for atom in reversed(atoms):
        back = _ydiv_atom(back, atom, "drawn")
    assert _yadd(_polys(back), []) == _yadd(dense, [])
    assert all(0 not in row.values() for row in times + back)   # rows keep nonzero terms only


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_sparse_row, max_size=4), atom=_atom, texp=st.integers(0, 12), ypow=st.integers(0, 3))
def test_sparse_division_remainder_keeps_its_text(rows, atom, texp, ypow):
    # a multiple of the atom plus one monomial is a multiple only when the atom is a constant
    c, a, b = atom
    num = _rows(_yadd(_ymul(_polys(rows), _yatoms_poly([atom])), _ymono(texp, ypow)))
    if a == b == 0:
        assert _polys(_ydiv_atom(num, atom, "drawn")) == _ydiv(_polys(num), _yatoms_poly([atom]))
        return
    with pytest.raises(ExactDivisionFailed) as exc:
        _ydiv_atom(num, atom, "drawn")
    where = f"*y^{b}) leaves a remainder in y" if b else ") leaves a remainder in t"
    assert str(exc.value) == f"drawn: (1 - {c}*t^{a}{where}"


def test_zero_atom_division_keeps_its_text():
    with pytest.raises(ExactDivisionFailed) as exc:
        _ydiv_atom([{}, {2: 1}], (1, 0, 0), "drawn")
    assert str(exc.value) == "drawn: atom (1 - 1) is identically zero"


@settings(max_examples=300, deadline=None)
@given(quo=_sparse_row, d=_sparse_row.filter(bool), extra=_sparse_row)
def test_sparse_division_matches_dense_divmod(quo, d, extra):
    # any nonzero divisor, its lowest term not necessarily constant: the
    # quotient of quo*d + extra is Poly.divmod's when its remainder is zero
    num = _rows(_yadd(_ymul(_polys([quo]), _polys([d])), _polys([extra])))
    num = num[0] if num else {}
    q, r = _polys([num])[0].divmod(_polys([d])[0])
    if r.is_zero:
        got = _tdiv(num, d, "drawn", "d")
        assert _polys([got]) == [q] and _integral_fractions([got]) == []
    else:
        with pytest.raises(ExactDivisionFailed) as exc:
            _tdiv(num, d, "drawn", "d")
        assert str(exc.value) == "drawn: d leaves a remainder in t"


@pytest.mark.parametrize("cid", ["v1x3", "v3x1"])
def test_build_P_matches_multiplied_out_reference(cat, ref_P, cid):
    assert build_P(cat.cases[cid]) == ref_P[cid]


@pytest.mark.parametrize("extra", [(6, 0, 1), (3, 2, 2), (4, 1, 1)])
def test_build_P_with_matching_case_atoms_matches_reference(cat, extra):
    # (t-exp, y-power, multiplicity) added to the clearing numerator and denominator
    case = cat.cases["v1x3"]
    both = _with(case, clear_num=case.clear_num + (extra,), clear_den=case.clear_den + (extra,))
    assert build_P(both) == _reference_P(both) == build_P(case)


@pytest.mark.parametrize("cid", ["v1x3", "v3x1"])
def test_build_P_with_matching_weight_atoms_matches_reference(cat, ref_P, cid, monkeypatch):
    # non-unit, Fraction, y^0 and constant atoms multiplied into the brace
    # numerator and divided out again leave the unpadded case's P
    weight = bisection.weight_y_fraction

    def padded(case):
        brace, num, den = weight(case)
        return _rows(_ymul(_polys(brace), _yatoms_poly(SYNTHETIC_ATOMS))), num, den + SYNTHETIC_ATOMS

    monkeypatch.setattr(bisection, "weight_y_fraction", padded)
    assert build_P(cat.cases[cid]) == ref_P[cid]


def test_zero_atom_does_not_cancel(cat, monkeypatch):
    # (1 - 1) in the numerator and the denominator is 0/0, not 1
    weight = bisection.weight_y_fraction

    def zeroed(case):
        brace, num, den = weight(case)
        return brace, num + [(1, 0, 0)], den + [(1, 0, 0)]

    monkeypatch.setattr(bisection, "weight_y_fraction", zeroed)
    with pytest.raises(ExactDivisionFailed, match="identically zero"):
        build_P(cat.cases["v3x1"])


@pytest.mark.parametrize("extra, level", [((1, 1, 1), "in y"), ((7, 0, 1), "in t")])
def test_atom_that_does_not_divide_names_case(cat, extra, level):
    case = cat.cases["v3x1"]
    broken = _with(case, clear_den=case.clear_den + (extra,))
    with pytest.raises(ExactDivisionFailed) as exc:
        build_P(broken)
    assert "v3x1" in str(exc.value) and level in str(exc.value)


def test_solve_residual_pairing_build_P_once(cat, monkeypatch):
    # the solution carries the P it was solved against; residual and pairing
    # read it, and a degree search converts P's entries to rows once
    built = []
    converted = []
    row = bisection._row

    def spy(case):
        built.append(case.id)
        return build_P(case)

    def counted(p):
        converted.append(p)
        return row(p)

    monkeypatch.setattr(bisection, "build_P", spy)
    monkeypatch.setattr(bisection, "_row", counted)
    deg, sol = degree_search(cat.cases["v1x3"], 8)
    assert deg == 6 and len(converted) == len(sol.P) == 20
    built.clear()
    for cid in ("v1x3", "v3x1"):
        case = cat.cases[cid]
        sol = solve_Q(case)
        assert _polys(sol.P) == build_P(case)
        assert functional_equation_residual(case, sol) == []
        assert pairing_check(case, sol, 60)
        assert built.count(cid) == 1
        deg, sol = degree_search(case, 8)
        assert functional_equation_residual(case, sol) == []
        assert built.count(cid) == 2
    assert built == ["v1x3", "v1x3", "v3x1", "v3x1"]


def test_solution_of_another_case_is_rejected(cat, sols):
    case = cat.cases["v1x3"]
    for check in (lambda: functional_equation_residual(case, sols["v3x1"]),
                  lambda: pairing_check(case, sols["v3x1"], 60),
                  lambda: pp_recipe(case, sols["v3x1"])):
        with pytest.raises(ValueError, match="solution of case v3x1 given for case v1x3"):
            check()


def test_solution_equality_ignores_P(sols):
    sol = sols["v1x3"]
    assert _solution(sol, P=[]) == sol


def test_pairing_check_rejects_flat_valuation(cat, sols):
    case = cat.cases["v3x1"]
    flat = _with(case, pp=case.pp._replace(pref_quad=0))
    with pytest.raises(NonmonotoneValuation):
        pairing_check(flat, sols["v3x1"], 120)


def test_degree_search_finds_six(cat):
    deg, sol = degree_search(cat.cases["v1x3"], 8)
    assert deg == 6 and sol.sign == "-"


def test_degree_search_synthetic_degree(cat):
    # a perturbed P admits no Q at small degree
    case = cat.cases["v3x1"]
    broken = BisectionCase(**{**case._asdict(), "fe_shift": (case.fe_shift[0] + 1, case.fe_shift[1])})
    with pytest.raises(NoBisection):
        degree_search(broken, 4)


_T_POCH_NUM = "  t-poch-num 1/2:1:n 2/3:1:n 1/2:1/2:n 1/2:1/2:n 5/6:1/2:n\n"


@pytest.mark.parametrize("old, new", [
    ("1/2:1:n ", "1/2:1:n+1 "), ("2/3:1:n ", "2/3:1:n+1 "), ("5/6:1/2:n", "5/6:1/2:n+1"),
    ("1/2:1:n ", "1/3:1:n "), ("2/3:1:n ", "2/3:1:2n "), ("5/6:1/2:n", "5/6:1/4:n"),
    ("1/2:1:n ", "1/2:1:n-1 "), ("5/6:1/2:n", "1/3:1/2:n"),
])
def test_changed_t_poch_atom_gives_no_bisection_or_a_located_error(cat, tmp_path, old, new):
    # one atom of v1x3's t-poch-num changed: the derived A and B change, and
    # the case is refused at a line of its own or solve_Q finds no Q
    text = resources.files("qseries").joinpath("data/catalog.txt").read_text()
    assert text.count(_T_POCH_NUM) == 1
    p = tmp_path / "catalog.txt"
    p.write_text(text.replace(_T_POCH_NUM, _T_POCH_NUM.replace(old, new, 1)))
    try:
        case = load_catalog(p).cases["v1x3"]
    except CatalogError as exc:
        # a line from pp-lhs-num to t-poch-num, the keys the derivation reads
        block = text.index("\ncase v1x3\n")
        first, last = (text.count("\n", 0, text.index(f"\n  {key} ", block) + 1) + 1
                       for key in ("pp-lhs-num", "t-poch-num"))
        line = re.match(r"case v1x3 \(line (\d+)\): ", str(exc))
        assert line and first <= int(line.group(1)) <= last
        return
    shipped = cat.cases["v1x3"]
    assert (case.fe_a, case.fe_b) != (shipped.fe_a, shipped.fe_b)
    with pytest.raises(NoBisection):
        solve_Q(case)


def test_emitted_records_verify(cat, sols):
    for cid, sol in sols.items():
        rec = emit_reduced(cat.cases[cid], sol)
        assert rec.id == cat.cases[cid].emit_id
        lhs, rhs, _ = record_sides(rec, 120)
        assert lhs.first_difference(rhs, 120) is None


def test_emitted_matches_shipped_catalog_record(cat, sols):
    # the shipped bisected records print exactly the re-derived Q, up to the order of its terms
    for cid, sol in sols.items():
        (derived,) = reduced_recipe(cat.cases[cid], sol).braces
        (shipped,) = cat.get(cat.cases[cid].emit_id).recipe.braces
        assert sorted(derived) == sorted(shipped)


@pytest.mark.parametrize("cid", ["v1x3", "v3x1"])
def test_reduced_recipe_is_the_shipped_record_but_its_braces(cat, sols, cid):
    # the case's term block with the solved Q is the emitted record, field for field
    case = cat.cases[cid]
    derived = reduced_recipe(case, sols[cid])
    shipped = cat.get(case.emit_id).recipe
    assert derived._replace(braces=shipped.braces) == shipped


def test_pairwise_combination_matches_unreduced(cat, sols, monkeypatch):
    # every term comes from the carried path, never from the per-term reference
    def no_reference(*args, **kwargs):
        raise AssertionError("pairing_check fell back to eval_term")

    monkeypatch.setattr(theorems, "eval_term", no_reference)
    # bisection may hold its own binding, from `from qseries.theorems import eval_term`
    monkeypatch.setattr(bisection, "eval_term", no_reference, raising=False)
    for cid, sol in sols.items():
        assert pairing_check(cat.cases[cid], sol, 120)


@pytest.mark.parametrize("cid", ["v1x3", "v3x1"])
@pytest.mark.parametrize("entry", [0, 1, 6])
def test_pairing_check_rejects_perturbed_Q_coefficient(cat, sols, cid, entry):
    sol = sols[cid]
    terms = [list(t) for t in sol.terms]
    coeff, texp = terms[entry][0]
    terms[entry][0] = (coeff + 1, texp)
    assert not pairing_check(cat.cases[cid], _solution(sol, terms=terms), 120)


@pytest.mark.parametrize("cid", ["v1x3", "v3x1"])
def test_pairing_check_rejects_flipped_sign(cat, sols, cid):
    flipped = _solution(sols[cid], sign="+" if sols[cid].sign == "-" else "-")
    assert not pairing_check(cat.cases[cid], flipped, 120)


# --------------------- the functional-equation solve against the Bareiss oracle


def _poly_terms(r):
    """The (Fraction coeff, t-exponent) terms of a polynomial RatFunc entry, else None."""
    if not r.is_polynomial():
        return None
    return [(Fraction(c), i) for i, c in enumerate(r.as_poly().coeffs) if c]


def _bareiss_signs(case, system, deg_q, forced_sign):
    """_solve_signs by Bareiss elimination of the full R x C system (the reference).

    The rows run to the top of Q*A and of the shifted Q*B, or of P if that is
    higher, with P's rows past its degree zero.  The solved entries n_i / d_i
    are put over the one denominator d_0 * d_1 * ..., as _solve_signs keeps Q.
    """
    P, A, B = (_polys(part) for part in system)
    shift_texp, shift_ypow = case.fe_shift
    half = case.root // 2
    if len(P) - 1 < deg_q:
        raise NoBisection("deg P too small")
    height = max(len(P), deg_q + len(A), deg_q + shift_ypow + len(B))
    rhs = list(P) + [Poly()] * (height - len(P))
    results = {}
    for sign_label, sign in (("+", 1), ("-", -1)):
        if forced_sign is not None and sign_label != forced_sign:
            continue
        M = []
        for k in range(height):
            row = []
            for i in range(deg_q + 1):
                entry = A[k - i] if 0 <= k - i < len(A) else Poly()
                jb = k - shift_ypow - i
                if 0 <= jb < len(B):
                    entry = entry + Poly.monomial(sign, shift_texp + half * i) * B[jb]
                row.append(entry)
            M.append(row)
        sol, ok = poly_solve_overdetermined(M, rhs)
        if ok and not sol[0].is_zero:
            den = Poly.const(1)
            for s in sol:
                den = den * s.den
            num = _rows([s.num * den.exact_div(s.den) for s in sol])
            terms = [_poly_terms(s) for s in sol]
            results[sign_label] = BisectionSolution(
                case.id, sign_label, deg_q, num, _rows([den])[0], None if None in terms else terms, True,
                system[0])
    if not results:
        if forced_sign is not None:
            return BisectionSolution(case.id, forced_sign, deg_q, [], {0: 1}, None, False, system[0])
        raise NoBisection("no consistent sign")
    if len(results) == 2:
        raise AmbiguousSign(results)
    return next(iter(results.values()))


def _outcome(solve, case, system, deg_q, forced_sign):
    def fields(sol):
        return sol.sign, sol.degree, _solved_Q(sol), sol.terms, sol.consistent

    try:
        return fields(solve(case, system, deg_q, forced_sign))
    except NoBisection:
        return "NoBisection"
    except AmbiguousSign as exc:
        return {sign: fields(sol) for sign, sol in exc.results.items()}


def _fe_image(case, Q, sign):
    """Q*A + sign*shift*Q(q^(1/2)y)*B for Poly entries Q, multiplied out densely."""
    A = _yatoms_poly(_case_atoms(case.fe_a))
    B = _yatoms_poly(_case_atoms(case.fe_b))
    half = case.root // 2
    Qshift = [c * Poly.monomial(1, half * i) for i, c in enumerate(Q)]
    shifted = _ymul(_ymul(Qshift, B), _ymono(case.fe_shift[0], case.fe_shift[1], sign))
    return _yadd(_ymul(Q, A), shifted)


def _row_system(case, P):
    """The rows of P (dense) and of the multiplied-out A and B of a case."""
    return _rows(P), _rows(_yatoms_poly(_case_atoms(case.fe_a))), _rows(_yatoms_poly(_case_atoms(case.fe_b)))


@pytest.mark.parametrize("cid", ["v1x3", "v3x1"])
def test_catalog_solve_matches_bareiss_at_every_degree(cat, cid):
    case = cat.cases[cid]
    system = _fe_system(case)
    for deg in range(9):
        for forced in (None, "+", "-"):
            got = _outcome(_solve_signs, case, system, deg, forced)
            assert got == _outcome(_bareiss_signs, case, system, deg, forced), (deg, forced)
            assert (got == "NoBisection") == (forced is None and deg < 6)


def test_rows_above_deg_P_are_checked(cat):
    # v3x1 with its fe-shift t-exponent raised by one has no solution, but at
    # degree 19 no row up to deg P is left to show it: only the rows of Q*A and
    # of the shifted Q*B above deg P do
    case = cat.cases["v3x1"]
    bad = _with(case, fe_shift=(case.fe_shift[0] + 1, case.fe_shift[1]))
    system = _fe_system(bad)
    assert len(system[0]) - 1 == 19
    with pytest.raises(NoBisection):
        _solve_signs(bad, system, 19, None)
    with pytest.raises(NoBisection):
        degree_search(bad, 19)
    assert _outcome(_bareiss_signs, bad, system, 19, None) == "NoBisection"
    for sign in ("+", "-"):
        assert not _solve_signs(bad, system, 19, sign).consistent


_y_atoms = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(1, 2)).filter(lambda a: a[0] or a[1]),
    max_size=3,
)
_t_poly = st.lists(st.integers(-2, 2), max_size=3).map(Poly)


CASE = load_catalog().cases["v3x1"]


@st.composite
def _fe_cases(draw):
    """A synthetic case, its system P, A, B and a degree: P is the image of a random Q,
    then, by mode, left alone, perturbed in one coefficient, or divided by a y^0
    atom D put into both A and B (so the solution is Q/D, not polynomial)."""
    deg_q = draw(st.integers(0, 4))
    fe_a, fe_b = draw(_y_atoms), draw(_y_atoms)
    shift = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    root = draw(st.sampled_from([2, 4]))  # small t-shifts keep the Bareiss reference fast
    case = _with(CASE, fe_a=tuple(fe_a), fe_b=tuple(fe_b), fe_shift=shift, root=root)
    Q = draw(st.lists(_t_poly, min_size=deg_q + 1, max_size=deg_q + 1))
    P = _fe_image(case, Q, draw(st.sampled_from([1, -1])))
    mode = draw(st.sampled_from(["consistent", "perturbed", "rational"]))
    if mode == "perturbed":
        k = draw(st.integers(0, len(P)))
        P = _yadd(P, _ymono(draw(st.integers(0, 3)), k, draw(st.sampled_from([1, -1]))))
    elif mode == "rational":
        D = (draw(st.integers(1, 3)), 0, 1)
        case = _with(case, fe_a=case.fe_a + (D,), fe_b=case.fe_b + (D,))
    return case, _row_system(case, P), deg_q


@settings(max_examples=150, deadline=None)
@given(drawn=_fe_cases(), forced=st.sampled_from([None, "+", "-"]))
def test_forward_solve_matches_bareiss(drawn, forced):
    case, system, deg_q = drawn
    P, A, B = system
    if len(P) > deg_q and case.fe_shift == (0, 0) and A[0] == B[0] and forced != "+":
        with pytest.raises(VanishingDiagonal):
            _solve_signs(case, system, deg_q, forced)
        return
    assert _outcome(_solve_signs, case, system, deg_q, forced) == _outcome(
        _bareiss_signs, case, system, deg_q, forced)


def test_rational_solution_entry(cat):
    # A and B carry the y^0 atom D = 1 - t^2 and P does not, so the solution
    # is Q / D for Q = [t, 1], kept as solved: no entry is normalized
    case = _with(cat.cases["v3x1"], fe_a=((2, 0, 1), (1, 1, 1)), fe_b=((2, 0, 1),), fe_shift=(1, 1))
    plain = _with(case, fe_a=((1, 1, 1),), fe_b=())
    P = _fe_image(plain, [Poly((0, 1)), Poly((1,))], -1)
    sol = _solve_signs(case, _row_system(case, P), 1, "-")
    assert sol.consistent and sol.terms is None and sol.den != {0: 1}
    D = Poly((1, 0, -1))
    assert _solved_Q(sol) == [RatFunc(Poly((0, 1)), D), RatFunc(Poly((1,)), D)]
    assert functional_equation_residual(case, sol) == []
    with pytest.raises(NoBisection) as exc:
        reduced_recipe(case, sol)
    assert str(exc.value) == (f"case v3x1, ansatz T_n = {case.t.name}(n)*Q(q^(n/2)) of its t- keys, "
                              "deg Q = 1: the solved Q is not polynomial in t")


def test_solution_keeps_its_constant_entry(cat):
    # Q = [2, t] is the solution as it stands; a_0 = 1 would halve it to [1, t/2]
    case = _with(cat.cases["v3x1"], fe_a=((1, 1, 1),), fe_b=(), fe_shift=(1, 1))
    P = _fe_image(case, [Poly((2,)), Poly((0, 1))], -1)
    sol = _solve_signs(case, _row_system(case, P), 1, "-")
    assert sol.consistent and sol.den == {0: 1}
    assert sol.terms == [[(2, 0)], [(1, 1)]]
    assert all(type(c) is Fraction for entry in sol.terms for c, _ in entry)
    assert functional_equation_residual(case, sol) == []
    assert functional_equation_residual(case, _solution(sol, num=[{0: 1}, {1: Fraction(1, 2)}])) != []


def test_no_bisection_messages_name_case_ansatz_and_bound(cat):
    case = cat.cases["v3x1"]
    ansatz = "ansatz T_n = v3x1a(n)*Q(q^(n/2)) of its t- keys"
    system = _fe_system(case)
    with pytest.raises(NoBisection) as exc:
        _solve_signs(case, system, 20, None)
    assert str(exc.value) == f"case v3x1, {ansatz}, deg Q = 20: deg P = 19 cannot balance it"
    bad = _with(case, fe_shift=(case.fe_shift[0] + 1, case.fe_shift[1]))
    with pytest.raises(NoBisection) as exc:
        solve_Q(bad)
    assert str(exc.value) == f"case v3x1, {ansatz}, deg Q = 6: no consistent sign"
    with pytest.raises(NoBisection) as exc:
        degree_search(bad, 4)
    assert str(exc.value) == f"case v3x1, {ansatz}, deg Q <= 4: no consistent sign"


def test_vanishing_diagonal_is_a_located_error(cat):
    # fe-shift 0 0 and equal y^0 parts of A and B: under '-' the y^0 diagonal is A[0] - B[0] = 0
    case = _with(cat.cases["v1x3"], fe_shift=(0, 0), fe_b=cat.cases["v1x3"].fe_a)
    for run in (lambda: solve_Q(case), lambda: solve_Q(case, "-"), lambda: degree_search(case, 8)):
        with pytest.raises(VanishingDiagonal) as exc:
            run()
        assert not isinstance(exc.value, NoBisection)
        assert "case v1x3: sign -, y-row 0" in str(exc.value)
    assert not solve_Q(case, "+").consistent  # the '+' diagonal is A[0] + B[0] = 2


def test_solve_does_not_call_the_reference_solver(cat, monkeypatch):
    def no_reference(*args, **kwargs):
        raise AssertionError("bisection called linsolve.poly_solve_overdetermined")

    monkeypatch.setattr(linsolve, "poly_solve_overdetermined", no_reference)
    monkeypatch.setattr(bisection, "poly_solve_overdetermined", no_reference, raising=False)
    for cid in ("v1x3", "v3x1"):
        case = cat.cases[cid]
        assert solve_Q(case).consistent
        deg, sol = degree_search(case, 8)
        assert deg == 6 and sol.consistent

"""Reverse bisection: P construction, the sign systems, emitted series."""

from fractions import Fraction

import pytest

from qseries.bisection import (
    ExactDivisionFailed,
    NoBisection,
    _case_atoms,
    _ydiv_atom,
    _yatoms_poly,
    _ymul,
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
from qseries.inversion import NonmonotoneValuation
from qseries.polyring import Poly
from qseries.qcore import SeriesRing
from qseries.registry import BisectionCase, load_catalog, record_sides
from qseries.theorems import eval_term, theorem_lhs, theorem_series

F = Fraction


@pytest.fixture(scope="module")
def cat():
    return load_catalog()


@pytest.fixture(scope="module")
def sols(cat):
    return {cid: solve_Q(cat.cases[cid]) for cid in ("v1x3", "v3x1")}


def test_P_degree_19(cat):
    for cid in ("v1x3", "v3x1"):
        assert len(build_P(cat.cases[cid])) - 1 == 19


def test_pp_form_verifies_against_product(cat):
    # the double-width series with P(q^n) reproduces its displayed product
    ring = SeriesRing(order=120)
    for cid in ("v1x3", "v3x1"):
        bt = pp_recipe(cat.cases[cid])
        lhs, net, phi = theorem_lhs(ring, bt)
        assert net == 0
        res = theorem_series(ring, bt)
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


def test_normalization_invariance(cat):
    # scaling the clearing factor by a nonzero factor scales P accordingly,
    # and when the same factor scales both functional-equation sides the
    # a_0 = 1 normalized Q is unchanged
    case = cat.cases["v3x1"]
    extra = (6, 0, 1)  # the factor (1 - t^6)
    scaled = BisectionCase(**{**case.__dict__, "clear_num": case.clear_num + (extra,)})
    P0, P1 = build_P(case), build_P(scaled)
    factor = Poly((1,)) - Poly.monomial(1, 6)
    assert len(P1) == len(P0) and all(a == b * factor for a, b in zip(P1, P0))

    both = BisectionCase(**{
        **case.__dict__,
        "clear_num": case.clear_num + (extra,),
        "fe_a": case.fe_a + (extra,),
        "fe_b": case.fe_b + (extra,),
    })
    assert solve_Q(both).coeffs == solve_Q(case).coeffs


def test_exact_division_failure_names_case(cat):
    case = cat.cases["v3x1"]
    # removing the clearing factor entirely leaves the weight's own poles behind
    broken = BisectionCase(**{**case.__dict__, "clear_num": (), "clear_den": ()})
    with pytest.raises(ExactDivisionFailed) as exc:
        build_P(broken)
    assert "v3x1" in str(exc.value)


def _num_and_den(case):
    """The numerator and the multiplied-out denominator that build_P divides."""
    wnum, wden = weight_y_fraction(case)
    num = _ymul(_yatoms_poly(_case_atoms(case.clear_num)), wnum)
    return num, _yatoms_poly(_case_atoms(case.clear_den) + wden)


def _with(case, **changes):
    return BisectionCase(**{**case.__dict__, **changes})


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
    atoms = [(F(2, 3), 5, 2), (-3, 4, 1), (F(-1, 2), 3, 0), (3, 0, 0), (F(1, 5), 0, 1)]
    num = _ymul(P, _yatoms_poly(atoms))
    for atom in atoms:
        num = _ydiv_atom(num, atom, "synthetic")
    assert num == P


@pytest.mark.parametrize("extra, level", [((1, 1, 1), "in y"), ((7, 0, 1), "in t")])
def test_atom_that_does_not_divide_names_case(cat, extra, level):
    case = cat.cases["v3x1"]
    broken = _with(case, clear_den=case.clear_den + (extra,))
    with pytest.raises(ExactDivisionFailed) as exc:
        build_P(broken)
    assert "v3x1" in str(exc.value) and level in str(exc.value)


def test_pairing_check_rejects_flat_valuation(cat, sols):
    case = cat.cases["v3x1"]
    flat = _with(case, pp_pref=(0,) + case.pp_pref[1:])
    with pytest.raises(NonmonotoneValuation):
        pairing_check(flat, sols["v3x1"], 120)


def test_degree_search_finds_six(cat):
    deg, sol = degree_search(cat.cases["v1x3"], 8)
    assert deg == 6 and sol.sign == "-"


def test_degree_search_synthetic_degree(cat):
    # a perturbed P admits no Q at small degree
    case = cat.cases["v3x1"]
    broken = BisectionCase(**{**case.__dict__, "fe_shift": (case.fe_shift[0] + 1, case.fe_shift[1])})
    with pytest.raises(NoBisection):
        degree_search(broken, 4)


def test_emitted_records_verify(cat, sols):
    for cid, sol in sols.items():
        rec = emit_reduced(cat.cases[cid], sol)
        assert rec.id == cat.cases[cid].emit_id
        lhs, rhs, _ = record_sides(rec, 120)
        assert lhs.first_difference(rhs, 120) is None


def test_emitted_matches_shipped_catalog_record(cat, sols):
    # the shipped bisected records carry exactly the re-derived Q
    ring = SeriesRing(order=100)
    for cid, sol in sols.items():
        derived = reduced_recipe(cat.cases[cid], sol)
        shipped = cat.get(cat.cases[cid].emit_id).recipe
        for n in range(4):
            a = eval_term(ring, derived, n).series
            b = eval_term(ring, shipped, n).series
            assert a.first_difference(b, 100) is None


def test_pairwise_combination_matches_unreduced(cat, sols):
    for cid, sol in sols.items():
        assert pairing_check(cat.cases[cid], sol, 120)

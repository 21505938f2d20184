"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to watch them live).
Tolerances are pinned here: exact (zero tolerance) for all q-series
checks, 1e-40 for the 60-digit classical limits, 1% for rate fits.
"""

import random
import time
from fractions import Fraction

import pytest

from qseries.inversion import (
    DUPLICATE,
    TRIPLICATE,
    TRIPLICATE_SPLIT,
    InversionSpec,
    ParameterError,
    gould_hsu_roundtrip,
    jackson_lhs,
    jackson_rhs,
    lemma_H_verify,
    params_from_exponents,
    qpow,
)
from qseries.limits import BigFloatCtx, eval_closed_form, eval_series, measure_rate
from qseries.qcore import QMono, RationalRing
from qseries.registry import load_catalog, verify_all
from qseries.series import LaurentSeries

F = Fraction


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} {criterion}: {detail}")
    assert ok, f"{criterion} {detail}"


@pytest.fixture(scope="module")
def cat():
    return load_catalog()


def _admissible(ring, p, nmax):
    try:
        jackson_lhs(ring, p, nmax)
        return True
    except (ParameterError, ZeroDivisionError):
        return False


def test_criterion_1_jackson_oracle():
    """Jackson LHS = RHS exactly at rational q for n = 0..8, 5 random tuples."""
    t0 = time.time()
    rng = random.Random(20210622)
    for r in (F(2, 3), F(1, 2), F(3, 5)):
        ring = RationalRing(r)
        found = 0
        while found < 5:
            exps = [F(rng.randrange(-12, 25), 12) for _ in range(4)]
            p = params_from_exponents(*exps)
            if not _admissible(ring, p, 8):
                continue
            found += 1
            for n in range(9):
                assert jackson_lhs(ring, p, n) == jackson_rhs(ring, p, n), (r, exps, n)
    dt = time.time() - t0
    report("criterion-1", dt < 10, f"jackson oracle exact, 3 bases x 5 tuples x n<=8 in {dt:.1f}s")


def test_criterion_2_inversion_roundtrips():
    """All four inversion pairs recover g exactly for N = 8, 5 random specs."""
    rng = random.Random(1973)
    ring = RationalRing(F(2, 3))
    N = 8
    for variant in ("classical", "carlitz", "extended", "reformulated"):
        for _ in range(5):
            spec = InversionSpec(
                tuple(QMono(rng.randrange(1, 4), rng.randrange(-8, 9)) for _ in range(N + 2)),
                tuple(QMono(rng.randrange(1, 4), rng.randrange(-8, 9)) for _ in range(N + 2)),
                QMono(1, rng.randrange(1, 10)),
            )
            g = [F(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(N + 1)]
            assert gould_hsu_roundtrip(ring, spec, g, N, variant), variant
    report("criterion-2", True, "four inversion pairs, N=8, 5 random specs each, exact")


def test_criterion_3_lemma_H():
    """Finite dual identity exact for n = 0..6 under all three patterns."""
    ring = RationalRing(F(2, 3))
    p = params_from_exponents(F(3, 2), 1, 1, F(5, 6))
    p2 = params_from_exponents(F(4, 3), F(7, 6), F(1, 2), F(5, 6))
    for pattern in (DUPLICATE, TRIPLICATE, TRIPLICATE_SPLIT):
        for params in (p, p2):
            for n in range(7):
                assert lemma_H_verify(ring, params, pattern, n), (pattern, n)
    report("criterion-3", True, "duplicate, triplicate, split patterns, n <= 6, exact")


def test_criterion_4_identity_suite(cat):
    """Every catalogued example verified LHS = RHS to t^200 within 5 minutes."""
    t0 = time.time()
    reports = verify_all(cat, order=200)
    dt = time.time() - t0
    bad = [(r.id, r.status, r.first_diff_exp, r.cause) for r in reports if r.status != "verified"]
    for b in bad:
        print("  NOT VERIFIED:", b)
    report(
        "criterion-4",
        not bad and dt < 300,
        f"{len(reports) - len(bad)}/{len(reports)} records verified at t^200 in {dt:.1f}s",
    )


def test_criterion_5_bisection_regression(cat):
    """solve_Q reproduces the paper's Q for both cases; '+' is inconsistent."""
    from qseries.bisection import solve_Q

    expected = {
        "v1x3": [[(1, 0)], [(1, 4)], [(1, 6), (1, 8)], [], [(-1, 10), (-1, 12)],
                 [(-1, 14)], [(-1, 18)]],
        "v3x1": [[(1, 0)], [(1, 2)], [(1, 2), (1, 4)], [], [(-1, 2), (-1, 4)],
                 [(-1, 4)], [(-1, 6)]],
    }
    for cid, want in expected.items():
        sol = solve_Q(cat.cases[cid])
        assert sol.sign == "-", cid
        assert [[(c, e) for c, e in entry] for entry in sol.terms] == want, cid
    plus = solve_Q(cat.cases["v1x3"], forced_sign="+")
    assert not plus.consistent
    report("criterion-5", True, "Q(y) exact for v1x3 and v3x1 after a0=1; '+' inconsistent")


def test_criterion_6_emitted_series(cat):
    """Emitted reduced series verify to t^120 and pair back exactly."""
    from qseries.bisection import emit_reduced, pairing_check, solve_Q
    from qseries.registry import record_sides

    for cid in ("v1x3", "v3x1"):
        case = cat.cases[cid]
        sol = solve_Q(case)
        rec = emit_reduced(case, sol)
        lhs, rhs, _ = record_sides(rec, 120)
        assert lhs.first_difference(rhs, 120) is None, cid
        assert pairing_check(case, sol, 120), cid
    report("criterion-6", True, "reduced series = LHS product to t^120; pairwise terms match")


def test_criterion_7_classical_limits(cat):
    """Named classical limits within 1e-40 at 60 digits and 40 terms."""
    t0 = time.time()
    ctx = BigFloatCtx(digits=60)
    targets = ["g1x5pp", "v3x1a", "v3x1b", "w1+2d", "w1+1+1a"]
    for rid in targets:
        s = cat.get(rid).classical
        val, _ = eval_series(s, 40, ctx)
        want = eval_closed_form(s, ctx)
        assert abs(val - want) < ctx.tolerance(40), rid
    dt = time.time() - t0
    report("criterion-7", dt < 30, f"five pinned limits within 1e-40 in {dt:.1f}s")


def test_criterion_8_rate_measurement(cat):
    """Fitted term-ratio bases within 1% of 1/16 and -1/27 by n = 30."""
    n16 = n27 = 0
    for rec in cat.records:
        s = rec.classical
        if s.rate == F(1, 16) and rec.section.startswith("3"):
            _, fitted = measure_rate(s, 30)
            assert abs((fitted - s.rate) / s.rate) <= F(1, 100), rec.id
            n16 += 1
        elif s.rate == F(-1, 27):
            _, fitted = measure_rate(s, 30)
            assert abs((fitted - s.rate) / s.rate) <= F(1, 100), rec.id
            n27 += 1
    report("criterion-8", n16 >= 19 and n27 >= 20,
           f"{n16} series at 1/16 and {n27} at -1/27, all within 1%")


def test_criterion_9_kernel_properties():
    """Pochhammer cocycle, Laurent inverse, solver vs Cramer: 100 cases each."""
    from qseries.linsolve import poly_solve_overdetermined
    from qseries.polyring import Poly, RatFunc
    from qseries.qcore import poch_finite

    rng = random.Random(9)
    ring = RationalRing(F(2, 3))
    q = qpow(1)
    for _ in range(100):
        x = QMono(rng.randrange(1, 3), rng.randrange(-10, 11))
        n, m = rng.randrange(0, 9), rng.randrange(0, 9)
        lhs = poch_finite(ring, x, n) * poch_finite(ring, x * q**n, m)
        assert lhs == poch_finite(ring, x, n + m)

    for _ in range(100):
        cs = [rng.randrange(-6, 7) for _ in range(rng.randrange(1, 7))]
        v = rng.randrange(-4, 5)
        s = LaurentSeries(v, cs, v + len(cs) + 12)
        if s.is_zero:
            continue
        assert (s * s.inverse()).first_difference(LaurentSeries.one(), s.order) is None

    done = 0
    while done < 100:
        size = rng.choice((2, 3))
        vals = [F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(size * size + size)]
        rows = [vals[i * size:(i + 1) * size] for i in range(size)]
        b = vals[size * size:]
        det = _det(rows)
        if det == 0:
            continue
        done += 1
        A = [[Poly.const(x) for x in row] for row in rows]
        x, ok = poly_solve_overdetermined(A, [Poly.const(x) for x in b])
        assert ok
        for j in range(size):
            mj = [list(r) for r in rows]
            for i in range(size):
                mj[i][j] = b[i]
            assert x[j] == RatFunc(_det(mj) / det)
    report("criterion-9", True, "cocycle, inverse round-trip, Cramer oracle: 100 exact cases each")


def _det(m):
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )

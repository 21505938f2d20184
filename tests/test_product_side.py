"""The left (product) side against the dense product path.

The left side is expanded as one Kronecker-packed integer
(qcore.packed_product) with a digit width from Cauchy's bound on a
majorant (qcore.digit_width); tests/test_packed_product.py checks that
expansion against Euler's recurrence.

The reference is the quotient built factor by factor from poch_infinite,
series products and series inverses, with the same drop accounting.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from qseries.inversion import params_from_exponents
from qseries.qcore import QMono, SeriesRing, poch_infinite
from qseries.registry import load_catalog, record_sides, verify_identity
from qseries.theorems import SingularMismatch, bind_theorem, shadow_params, theorem_lhs

F = Fraction

CATALOG = load_catalog()


def reference_lhs(ring, bt, shadow):
    """The product quotient through poch_infinite, `*` and ring.inv."""
    acc = ring.one()
    net = 0
    phi = 1
    for from_num, monos in ((True, bt.lhs_num), (False, bt.lhs_den)):
        for i, m in enumerate(monos):
            val, dr = poch_infinite(ring, m, on_zero="drop")
            if dr:
                if shadow is None:
                    raise SingularMismatch("vanishing product factor in an explicit record")
                msh = (shadow.lhs_num if from_num else shadow.lhs_den)[i]
                form = msh.texp + (-m.texp // bt.root) * shadow.root
                net += -dr if from_num else dr
                phi = phi * form if from_num else phi / F(form)
            acc = acc * (val if from_num else ring.inv(val))
    return acc.truncate(ring.order), net, phi


def record_recipes(rec):
    if rec.kind == "theorem":
        return rec.recipe, bind_theorem(rec.theorem, *shadow_params(rec.params, rec.root))
    return rec.recipe, None


def assert_matches_reference(ring, bt, shadow):
    ref, ref_net, ref_phi = reference_lhs(ring, bt, shadow)
    lhs, net, phi = theorem_lhs(ring, bt, shadow=shadow)
    assert (net, phi) == (ref_net, ref_phi)
    assert lhs.order == ring.order
    assert lhs.minexp == ref.minexp
    assert all(lhs.coeff(e) == ref.coeff(e) for e in range(ref.minexp, ref.order))


@pytest.mark.parametrize("rec", CATALOG.records, ids=lambda r: r.id)
def test_catalog_lhs_matches_dense_products(rec):
    bt, shadow = record_recipes(rec)
    assert_matches_reference(SeriesRing(order=120, root=rec.root), bt, shadow)


# Shapes the catalog lacks: all of its factor coefficients are 1.
BASE = bind_theorem("2U", params_from_exponents(F(3, 2), 1, 1, F(5, 6)))
SYNTHETIC = {
    "coeff-minus-one-half": ((QMono(-1, 1), QMono(F(-1, 2), 2)), (QMono(-1, 5),)),
    "coeff-two-half": ((QMono(2, 7), QMono(F(1, 2), 3)), (QMono(2, 1), QMono(F(1, 2), 11), QMono(-1, 4))),
    "scalar-factors": ((QMono(3, 0), QMono(-1, -12)), (QMono(F(1, 2), 0), QMono(2, -24))),
    "negative-valuation": ((QMono(1, -7), QMono(2, -13)), (QMono(1, -5), QMono(F(1, 3), -30), QMono(-1, 2))),
    "dropped-both-sides": ((QMono(1, -12), QMono(1, 0), QMono(1, 5)), (QMono(1, -24), QMono(1, 0), QMono(2, -1))),
}


def synthetic(num, den):
    bt = BASE._replace(lhs_num=num, lhs_den=den)
    shadow = BASE._replace(
        lhs_num=tuple(QMono(m.coeff, 1000 * m.texp + 3 + i) for i, m in enumerate(num)),
        lhs_den=tuple(QMono(m.coeff, 1000 * m.texp + 7 + i) for i, m in enumerate(den)),
        root=1000 * 12,
    )
    return bt, shadow


@pytest.mark.parametrize("order", [1, 60, 120])
@pytest.mark.parametrize("shape", SYNTHETIC)
def test_synthetic_lhs_matches_dense_products(shape, order):
    bt, shadow = synthetic(*SYNTHETIC[shape])
    assert_matches_reference(SeriesRing(order=order), bt, shadow)


def test_dropped_factors_on_both_sides_are_weighed():
    bt, shadow = synthetic(*SYNTHETIC["dropped-both-sides"])
    _, net, phi = theorem_lhs(SeriesRing(order=40), bt, shadow=shadow)
    # drops: k=1 of (q^-1;q)_inf and k=0 of (1;q)_inf above, k=2 of (q^-2;q)_inf and k=0 of (1;q)_inf below
    assert net == 0
    assert phi == F(3 * 4, 7 * 8)


def test_explicit_record_with_vanishing_factor_is_a_mismatch():
    bt, _ = synthetic(*SYNTHETIC["dropped-both-sides"])
    ring = SeriesRing(order=40)
    with pytest.raises(SingularMismatch):
        reference_lhs(ring, bt, None)
    with pytest.raises(SingularMismatch):
        theorem_lhs(ring, bt)


@pytest.mark.parametrize("rec", CATALOG.records, ids=lambda r: r.id)
def test_lhs_known_to_requested_order(rec):
    assert record_sides(rec, 120)[0].order == 120


DEEP_REPORTS = {r["id"]: r for r in json.loads((Path(__file__).parent / "data" / "verify_all_t1600.json").read_text())}


@pytest.mark.parametrize("rid", [r.id for r in CATALOG.records])
def test_deep_tier_verifies_at_1600(rid):
    # the whole catalog; g1x5pp has a dropped (1 - q^0) factor, u2-12 a negative-valuation one
    rep = verify_identity(CATALOG.get(rid), 1600)
    assert (rep.status, rep.order) == ("verified", 1600)
    assert rep.to_json(include_elapsed=False) == DEEP_REPORTS[rid]

"""The right (term-sum) side: the distributed weight against the product it replaced.

A term is the prefactor times the finite Pochhammer block times W_n.  The
engine applies W_n to the block by binomial steps only (each brace term
starts from the block times its monomial); the reference builds W_n on its
own from ring.one() and multiplies it into the block with one product, the
way terms were built before.
"""

from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qseries import kernel
from qseries.inversion import params_from_exponents
from qseries.qcore import RationalRing, SeriesRing
from qseries.registry import load_catalog, verify_identity
from qseries.series import LaurentSeries
from qseries.theorems import (
    THEOREM_NAMES,
    BExp,
    BraceTerm,
    NonmonotoneValuation,
    PochF,
    SeriesRecipe,
    TermValue,
    VanishingDenominatorFactor,
    _apply_poch,
    _poch_val,
    _prefactor,
    _weight_margin,
    bind_theorem,
    eval_term,
    eval_weight,
    shadow_params,
    stop_index,
    term_valuation_bound,
)

F = Fraction

CATALOG = load_catalog()
DEEP = ("u2-02", "g1x5pp", "u2-12")      # one record per left-side shape: plain, dropped, negative valuation
GENERIC = {
    "2U": (F(3, 2), 1, 1, F(5, 6)),
    "2V": (F(3, 2), 1, 1, F(5, 6)),
    "3U": (F(3, 2), 1, 1, F(5, 6)),
    "3V": (F(3, 2), F(7, 6), 1, F(5, 6)),
    "p23U": (F(3, 2), 1, 1, F(5, 6)),
}
EQUAL = (F(1, 2), F(1, 2), F(1, 2), F(1, 2))   # a = b = c = d: dropped zero factors


def undistributed_core(work, bt, n, shadow):
    """Term n as block * W_n, with W_n evaluated from ring.one()."""
    acc = work.mono(
        (bt.pref_base**n if bt.pref_base != 1 else 1) * (-1 if bt.sign_alt and n % 2 else 1),
        bt.pref_quad * n * n + bt.pref_lin * n + bt.pref_const,
    )
    net = 0
    phi = 1
    for invert, facs, shs in ((False, bt.poch_num, shadow and shadow.poch_num),
                              (True, bt.poch_den, shadow and shadow.poch_den)):
        for i, f in enumerate(facs):
            acc, dr, ph = _apply_poch(work, acc, f, n, invert, shs[i] if shs else None)
            net += dr if invert else -dr
            phi = phi * ph
    w, wnet, wphi, dead = eval_weight(work, bt, n, work.one(), shadow)
    if dead:
        return None, None, 1, True
    return acc * w, net + wnet, phi * wphi, False


def gross_margin(bt, n):
    """Headroom for every negative-valuation factor: prefactor, numerator block and W_n."""
    return (max(0, -_prefactor(bt, n)[1]) + _weight_margin(bt, n)
            - sum(_poch_val(f, n) for f in bt.poch_num))


def undistributed_term(ring, bt, n, shadow):
    """Term n by undistributed_core, at a gross margin widened up to twice.

    The product acc * W_n loses the precision of both factors, so this
    reference needs headroom for the block's negative exponents as well as
    W_n's, and a retry when that is not enough.
    """
    if ring.mode == "rational":
        acc, net, phi, dead = undistributed_core(ring, bt, n, shadow)
        return TermValue(ring.zero(), None) if dead else TermValue(acc, net, phi)
    margin = gross_margin(bt, n)
    for _ in range(3):
        work = SeriesRing(order=ring.order + margin, root=ring.root)
        acc, net, phi, dead = undistributed_core(work, bt, n, shadow)
        if dead:
            return TermValue(ring.zero(), None)
        if acc.order is None or acc.order >= ring.order:
            return TermValue(acc.truncate(ring.order), net, phi)
        margin = 2 * margin + ring.order
    raise NonmonotoneValuation(f"reference term n={n} did not resolve")


def record_recipes(rec):
    if rec.kind == "theorem":
        return rec.recipe, bind_theorem(rec.theorem, *shadow_params(rec.params, rec.root))
    return rec.recipe, None


def outcome(fn, *args):
    try:
        tv = fn(*args)
    except (VanishingDenominatorFactor, ArithmeticError) as exc:
        return type(exc), str(exc)
    return tv.series, tv.net_drops, tv.phi


def assert_terms_match(rec, order):
    bt, shadow = record_recipes(rec)
    ring = SeriesRing(order=order, root=rec.root)
    evaluated = 0
    for n in range(bt.n_start, stop_index(bt, order) + 1):
        if term_valuation_bound(bt, n) >= order:
            continue
        new = outcome(eval_term, ring, bt, n, shadow)
        assert new == outcome(undistributed_term, ring, bt, n, shadow), (rec.id, n)
        if isinstance(new[0], LaurentSeries):
            assert new[0].order == order
        evaluated += 1
    assert evaluated


@pytest.mark.parametrize("rec", CATALOG.records, ids=lambda r: r.id)
def test_catalog_terms_match_undistributed_weight(rec):
    assert_terms_match(rec, 120)


@pytest.mark.parametrize("rid", DEEP)
def test_deep_terms_match_undistributed_weight(rid):
    assert_terms_match(CATALOG.get(rid), 400)


@pytest.mark.parametrize("name", THEOREM_NAMES)
@pytest.mark.parametrize("exps", [GENERIC, EQUAL], ids=["generic", "equal"])
def test_rational_terms_match_undistributed_weight(name, exps):
    ring = RationalRing(F(2, 3))
    p = params_from_exponents(*(exps[name] if isinstance(exps, dict) else exps))
    bt = bind_theorem(name, p, 12)
    shadow = bind_theorem(name, *shadow_params(p, 12))
    for n in range(5):
        assert outcome(eval_term, ring, bt, n, shadow) == outcome(undistributed_term, ring, bt, n, shadow)


def test_right_side_uses_no_dense_products(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kernel, "mul_dense", counted("mul_dense", kernel.mul_dense))
    monkeypatch.setattr(LaurentSeries, "__mul__", counted("__mul__", LaurentSeries.__mul__))
    monkeypatch.setattr(LaurentSeries, "__rmul__", counted("__rmul__", LaurentSeries.__rmul__))
    for rec in CATALOG.records:
        assert verify_identity(rec, 120).status == "verified", rec.id
    for rid in DEEP:
        assert verify_identity(CATALOG.get(rid), 400).status == "verified", rid
    assert calls == []
    # the counters do see a product
    LaurentSeries.one() * LaurentSeries.one()
    assert calls == ["__mul__", "mul_dense"]


@pytest.mark.parametrize("order", [24, 120, 400, 1600])
def test_stop_index_bound_holds_past_it(order):
    for rec in CATALOG.records:
        bt, _ = record_recipes(rec)
        stop = stop_index(bt, order)
        assert all(term_valuation_bound(bt, n) >= order for n in range(stop, stop + 201)), rec.id


SYNTHETIC = {
    "pref_lin": dict(pref_lin=-500),
    "pref_const": dict(pref_const=-3000),
    "poch_num": dict(poch_num=(PochF(1, -600, 1, 0, 12),)),
    "poch_num_count_2n": dict(poch_num=(PochF(1, -300, 2, 1, 6),)),
    "w_num_slope": dict(w_num=(BExp(-30, 0),)),
    "w_num_const": dict(w_num=(BExp(0, -2000),)),
    "brace_mono": dict(braces=((BraceTerm(BExp(-40, -100)), BraceTerm(BExp(0, 0))),)),
    "brace_num": dict(braces=((BraceTerm(BExp(0, 0), num=(BExp(-20, -500),)),),)),
    "denominators_raise": dict(pref_lin=-200, poch_den=(PochF(1, -600, 1, 0, 12),),
                               w_den=(BExp(-30, -900),), braces=((BraceTerm(BExp(0, 0), den=(BExp(-9, -90),)),),)),
}


@pytest.mark.parametrize("parts", SYNTHETIC.values(), ids=SYNTHETIC)
def test_stop_index_is_smallest_valid_on_synthetic_shapes(parts):
    """Each part that can lower the valuation, alone, sets the stop index."""
    fields = dict(pref_quad=12, pref_lin=0, pref_base=1, poch_num=(), poch_den=(), w_num=(), w_den=(), braces=())
    bt = SeriesRecipe("synthetic", 12, (), (), **{**fields, **parts})
    for order in (1, 24, 120, 400, 1600):
        stop = stop_index(bt, order)
        assert all(term_valuation_bound(bt, n) >= order for n in range(stop, stop + 401)), order
        assert stop == 0 or term_valuation_bound(bt, stop - 1) < order, order


def test_stop_index_ignores_raising_parts(tmp_path):
    """A large positive linear term only raises the valuation."""
    text = resources.files("qseries").joinpath("data/catalog.txt").read_text()
    start = text.index("record g1x5pp")
    end = text.index("end", start)
    block = text[start:end]
    assert "\n  a 1/2\n" in block
    path = tmp_path / "catalog.txt"
    path.write_text(text[:start] + block.replace("\n  a 1/2\n", "\n  a 999\n") + text[end:])
    rec = load_catalog(path).get("g1x5pp")
    bt, _ = record_recipes(rec)
    assert stop_index(bt, 24) <= 5
    rep = verify_identity(rec, 24)
    assert rep.status == "verified" and rep.terms_used == 2


# Random recipes with every part that lowers the valuation: a negative
# prefactor, numerator Pochhammer factors of negative exponent, and negative
# w_num atoms, brace monomials and brace numerator atoms, with and without
# denominators.  Coefficients are never 1, so no factor vanishes.
_coeff = st.sampled_from([2, -1, F(1, 2), F(-3, 2), F(2, 3)])
_atom = st.builds(BExp, st.integers(-4, 3), st.integers(-24, 10), _coeff)
_poch = st.builds(PochF, _coeff, st.integers(-24, 10), st.integers(0, 2), st.integers(-1, 3), st.integers(1, 12))
_brace_term = st.builds(BraceTerm, _atom, st.tuples() | st.tuples(_atom) | st.tuples(_atom, _atom),
                        st.tuples() | st.tuples(_atom))
_brace_group = st.lists(_brace_term, min_size=1, max_size=3).map(tuple)


@st.composite
def one_pass_recipes(draw):
    dens = draw(st.booleans())
    return SeriesRecipe(
        "random", 12, (), (),
        pref_quad=draw(st.integers(6, 24)), pref_lin=draw(st.integers(-24, 10)),
        pref_const=draw(st.integers(-40, 10)), pref_base=draw(st.sampled_from([1, -2, F(1, 3)])),
        sign_alt=draw(st.booleans()), n_start=draw(st.integers(0, 2)),
        poch_num=tuple(draw(st.lists(_poch, max_size=3))),
        poch_den=tuple(draw(st.lists(_poch, min_size=1, max_size=2))) if dens else (),
        w_num=tuple(draw(st.lists(_atom, max_size=2))),
        w_den=tuple(draw(st.lists(_atom, max_size=2))) if dens else (),
        braces=tuple(draw(st.lists(_brace_group, min_size=1, max_size=2))),
    )


@settings(max_examples=60, deadline=None)
@given(bt=one_pass_recipes(), order=st.integers(12, 120))
def test_one_pass_term_matches_undistributed_reference(bt, order):
    """eval_term's single pass at order + _weight_margin resolves every term."""
    ring = SeriesRing(order=order, root=12)
    for n in range(bt.n_start, stop_index(bt, order) + 1):
        if term_valuation_bound(bt, n) < order:
            assert outcome(eval_term, ring, bt, n, None) == outcome(undistributed_term, ring, bt, n, None), n

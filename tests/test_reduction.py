"""Reduced root and carried Pochhammer blocks against the unreduced, per-term path.

Both sides of a record are computed in s = t^g, g = root_gcd of its recipe,
and the right side builds each term's finite Pochhammer block from the one
before (carried_terms).  The references are the same functions at the
catalog root, and eval_term, which builds every block from scratch.
"""

from fractions import Fraction
from importlib import resources
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qseries import bisection, theorems
from qseries.inversion import params_from_exponents
from qseries.qcore import QMono, SeriesRing
from qseries.registry import load_catalog, reduced_sides, record_sides, verify_identity
from qseries.series import LaurentSeries
from qseries.theorems import (
    THEOREM_NAMES,
    BExp,
    BraceTerm,
    NonmonotoneValuation,
    PochF,
    SeriesRecipe,
    SingularMismatch,
    bind_theorem,
    carried_terms,
    eval_term,
    has_unit_factor,
    reduce_root,
    root_gcd,
    shadow_params,
    stop_index,
    term_valuation_bound,
    theorem_lhs,
    theorem_series,
)

F = Fraction

CATALOG = load_catalog()
DEEP = ("u2-02", "g1x5pp", "u2-12")      # one record per left-side shape: plain, dropped, negative valuation
EXPONENT_FIELDS = {"root", "texp", "step", "ncoef", "const", "pref_quad", "pref_lin", "pref_const"}


def exponents(obj):
    """Every t-exponent field of a recipe, found by walking its records (NamedTuples and QMono)."""
    names = obj._fields if hasattr(obj, "_fields") else QMono.__slots__ if isinstance(obj, QMono) else None
    if names is not None:
        for name in names:
            value = getattr(obj, name)
            if name in EXPONENT_FIELDS:
                yield value
            else:
                yield from exponents(value)
    elif isinstance(obj, tuple):
        for x in obj:
            yield from exponents(x)


def shadow_of(rec):
    return bind_theorem(rec.theorem, *shadow_params(rec.params, rec.root)) if rec.kind == "theorem" else None


def unreduced_sides(rec, order):
    """record_sides at the catalog root, with no reduction."""
    ring = SeriesRing(order=order, root=rec.root)
    shadow = shadow_of(rec)
    lhs, net, phi = theorem_lhs(ring, rec.recipe, shadow=shadow)
    res = theorem_series(ring, rec.recipe, shadow=shadow, expected_net=net if shadow else 0)
    return lhs, res.series.scale(1 / F(phi)), res.terms_used


def values(n, tv):
    return n, tv.series, tv.series.order, tv.net_drops, tv.phi


def carried_outcomes(ring, bt, shadow):
    """carried_terms' terms and the exception that ended them, if any."""
    out = []
    try:
        for n, tv in carried_terms(ring, bt, shadow):
            out.append(values(n, tv))
    except ArithmeticError as exc:
        out.append((type(exc), str(exc)))
    return out


def reference_outcomes(ring, bt, shadow):
    """eval_term at each term below the order, up to the first exception."""
    out = []
    for n in evaluated(bt, ring.order):
        try:
            out.append(values(n, eval_term(ring, bt, n, shadow)))
        except ArithmeticError as exc:
            out.append((type(exc), str(exc)))
            break
    return out


def evaluated(bt, order):
    return [n for n in range(bt.n_start, stop_index(bt, order) + 1) if term_valuation_bound(bt, n) < order]


def assert_carried_match(bt, shadow, order, monkeypatch=None):
    """carried_terms equals eval_term; with monkeypatch, it also never called eval_term."""
    ring = SeriesRing(order=order, root=bt.root)
    assert evaluated(bt, order)
    fallbacks = []
    if monkeypatch is not None:
        monkeypatch.setattr(theorems, "eval_term", lambda *args: fallbacks.append(args) or eval_term(*args))
    carried = carried_outcomes(ring, bt, shadow)
    if monkeypatch is not None:
        monkeypatch.undo()
    assert carried == reference_outcomes(ring, bt, shadow)
    assert fallbacks == []


# ------------------------------------------------------------ root reduction


@pytest.mark.parametrize("rec", CATALOG.records, ids=lambda r: r.id)
def test_root_gcd_is_the_gcd_of_every_exponent(rec):
    exps = list(exponents(rec.recipe))
    g = root_gcd(rec.recipe)
    assert all(e % g == 0 for e in exps)
    assert gcd(*(e // g for e in exps)) == 1     # no multiple of g divides them all


def test_root_gcd_counts_on_the_catalog():
    counts = {}
    for rec in CATALOG.records:
        g = root_gcd(rec.recipe)
        counts[g] = counts.get(g, 0) + 1
    assert counts == {2: 37, 3: 9, 6: 14, 1: 2}
    assert {r.id for r in CATALOG.records if root_gcd(r.recipe) == 1} == {"v1x3a", "v3x1a"}


def test_reduce_root_is_the_identity_at_g_1():
    bt = CATALOG.get("v1x3a").recipe
    assert reduce_root(bt) == (bt, 1) and reduce_root(bt)[0] is bt


def test_reduced_recipe_has_root_gcd_1():
    for rec in CATALOG.records:
        bs, g = reduce_root(rec.recipe)
        assert bs.root * g == rec.root
        assert root_gcd(bs) == 1
        assert [e * g for e in exponents(bs)] == list(exponents(rec.recipe))


@pytest.mark.parametrize("rec", CATALOG.records, ids=lambda r: r.id)
def test_reduced_sides_inflate_to_unreduced_sides(rec):
    lhs_s, rhs_s, terms, g = reduced_sides(rec, 120)
    assert (lhs_s.order, rhs_s.order) == (-(-120 // g),) * 2
    lhs, rhs, terms_t = unreduced_sides(rec, 120)
    assert lhs_s.inflate(g).truncate(120) == lhs
    assert rhs_s.inflate(g).truncate(120) == rhs
    assert terms == terms_t
    assert record_sides(rec, 120) == (lhs, rhs, terms)


def test_inflate():
    s = LaurentSeries(-1, [1, F(1, 2), 0, 3], 5)
    t = s.inflate(3)
    assert (t.minexp, t.order) == (-3, 15)
    assert [t.coeff(e) for e in range(-3, 15)] == [1, 0, 0, F(1, 2), 0, 0, 0, 0, 0, 3] + [0] * 8
    assert s.inflate(1) is s
    assert LaurentSeries.zero(4).inflate(2) == LaurentSeries.zero(8)


def mutated_record(tmp_path, rid, old, new):
    """Record rid of the shipped catalog with one line of its block replaced."""
    text = resources.files("qseries").joinpath("data/catalog.txt").read_text()
    start = text.index(f"record {rid}\n")
    end = text.index("\nend", start)
    block = text[start:end]
    assert old in block
    path = tmp_path / "catalog.txt"
    path.write_text(text[:start] + block.replace(old, new) + text[end:])
    return load_catalog(path).get(rid)


def test_pinned_mismatch_in_reduced_root(tmp_path):
    """A wrong brace coefficient in u2-05 (g = 2): the report of the unreduced engine."""
    rec = mutated_record(tmp_path, "u2-05", "  brace -1 0:0 |", "  brace -2 0:0 |")
    assert root_gcd(rec.recipe) == 2
    rep = verify_identity(rec, 120)
    assert rep.to_json(include_elapsed=False) == {
        "id": "u2-05", "status": "mismatch", "first_diff_exp": 4, "lhs_coeff": "1",
        "rhs_coeff": "2", "terms_used": 4, "order": 120,
    }


def test_unverified_cause_is_in_t(tmp_path):
    """d = q^-1 makes a weight denominator of v2-12 (g = 6) vanish: the cause the unreduced engine gave."""
    rec = mutated_record(tmp_path, "v2-12", "  d -1/3\n", "  d -1\n")
    assert root_gcd(rec.recipe) == 6
    rep = verify_identity(rec, 48)
    assert (rep.status, rep.cause) == ("unverified", "denominator factor (1 - 1*t^(24n-24)) vanishes at n=1")


# ------------------------------------------------------------- carried block


@pytest.mark.parametrize("rec", CATALOG.records, ids=lambda r: r.id)
def test_carried_terms_match_eval_term(rec, monkeypatch):
    bs, g = reduce_root(rec.recipe)
    assert_carried_match(bs, shadow_of(rec), -(-120 // g), monkeypatch)
    assert_carried_match(rec.recipe, shadow_of(rec), 120, monkeypatch)


@pytest.mark.parametrize("rid", DEEP)
def test_deep_carried_terms_match_eval_term(rid, monkeypatch):
    rec = CATALOG.get(rid)
    bs, g = reduce_root(rec.recipe)
    assert_carried_match(bs, shadow_of(rec), -(-400 // g), monkeypatch)


@pytest.fixture(scope="module")
def bisect_sols():
    return {cid: bisection.solve_Q(CATALOG.cases[cid]) for cid in ("v1x3", "v3x1")}


def pure_groups(bt):
    """The size of each brace group's merged part: its terms without num or den atoms."""
    return [len(pure) for pure, _ in theorems._compiled_weight(bt, None)[0]]


@pytest.mark.parametrize("cid", ["v1x3", "v3x1"])
def test_bisection_series_carried_terms_match_eval_term(cid, bisect_sols, monkeypatch):
    """The unreduced series with P(q^n) (one group of many pure monomials) and the emitted record."""
    case, sol = CATALOG.cases[cid], bisect_sols[cid]
    pp = bisection.pp_recipe(case, sol)
    assert pure_groups(pp) == [len(pp.braces[0])] and len(pp.braces[0]) > 1
    assert_carried_match(pp, None, 120, monkeypatch)
    bs, g = reduce_root(pp)
    assert_carried_match(bs, None, -(-120 // g), monkeypatch)
    emitted = bisection.emit_reduced(case, sol).recipe
    assert_carried_match(emitted, None, 120, monkeypatch)


# pure monomials of one group at n = 1, 2: shifts {-4 twice, cancelling, 5}, {-8, -2, 5}; a zero monomial
CANCELLING = (BraceTerm(BExp(-4, 0, 1)), BraceTerm(BExp(2, -6, -1)), BraceTerm(BExp(0, 5, 3)),
              BraceTerm(BExp(0, 1, 0)), BraceTerm(BExp(1, 2, 1), num=(BExp(1, 1, F(1, 2)),)))
# negative pure monomials beside terms with num and den atoms
NEGATIVE_BESIDE_ATOMS = (BraceTerm(BExp(0, -6, 2)), BraceTerm(BExp(1, 1), (BExp(1, 2, F(1, 2)),), (BExp(2, 1, -1),)),
                         BraceTerm(BExp(-1, -3, F(1, 3))), BraceTerm(BExp(0, -2, -1), den=(BExp(1, 3),)))


@pytest.mark.parametrize("brace, pure, known", [(CANCELLING, 3, 116), (NEGATIVE_BESIDE_ATOMS, 2, 114)],
                         ids=["cancelling", "negative_beside_atoms"])
def test_merged_pure_monomials_match_eval_term(brace, pure, known, monkeypatch):
    bt = CATALOG.get("u2-05").recipe._replace(poch_num=(PochF(F(1, 2), 2, 1, 0, 12),),
                                              poch_den=(PochF(1, 3, 0, 2, 12),), braces=(brace,), n_start=1)
    assert pure_groups(bt) == [pure]
    for order in (24, 120):
        assert_carried_match(bt, None, order, monkeypatch)
    # with no headroom for W_n the known order shows: at n = 1 the cancelled shift -4 still sets it
    monkeypatch.setattr(theorems, "_weight_margin", lambda bt, n: 0)
    ring = SeriesRing(order=120, root=12)
    short = carried_outcomes(ring, bt, None)
    assert short == reference_outcomes(ring, bt, None)
    assert short == [(NonmonotoneValuation, f"term n=1 resolved only to t^{known} < requested t^120")]


EQUAL = (F(1, 2), F(1, 2), F(1, 2), F(1, 2))   # a = b = c = d: dropped zero factors


@pytest.mark.parametrize("name", THEOREM_NAMES)
def test_carried_terms_with_dropped_factors(name):
    p = params_from_exponents(*EQUAL)
    assert_carried_match(bind_theorem(name, p, 12), bind_theorem(name, *shadow_params(p, 12)), 150)


SHAPES = {
    # a numerator block of negative valuation: the carried window moves down
    "negative_numerator": dict(poch_num=(PochF(1, -40, 1, 0, 12), PochF(F(1, 3), -7, 2, 1, 5))),
    # a denominator block of negative valuation and a constant count
    "negative_denominator": dict(poch_den=(PochF(2, -30, 1, 0, 12), PochF(1, 6, 0, 4, 12))),
    "count_starts_negative": dict(poch_num=(PochF(1, 3, 2, -3, 12),), poch_den=(PochF(1, 5, 1, -2, 4),)),
    "n_start_and_sign": dict(n_start=2, sign_alt=True, pref_base=F(-2, 3), pref_lin=-30, poch_num=(PochF(1, 1, 1, 0, 12),)),
    "weight_below_zero": dict(w_num=(BExp(-5, -20),), poch_num=(PochF(1, 2, 1, 0, 12),)),
}


@pytest.mark.parametrize("parts", SHAPES.values(), ids=SHAPES)
def test_carried_terms_on_synthetic_shapes(parts):
    base = CATALOG.get("u2-05").recipe
    bt = base._replace(**{"poch_num": (), "poch_den": (), **parts})
    for order in (24, 120, 400):
        assert_carried_match(bt, None, order)


def test_carried_zero_terms_match_eval_term():
    """n-dependent (1 - 1) numerators: a brace term skipped at n = 1, the whole term dead at n = 2."""
    brace = (BraceTerm(BExp(0, 0, 1)), BraceTerm(BExp(0, 0, 2), num=(BExp(1, -1),)))
    bt = CATALOG.get("u2-05").recipe._replace(poch_num=(PochF(F(1, 2), 2, 1, 0, 12),),
                                              w_num=(BExp(1, -2),), braces=(brace,))
    ring = SeriesRing(order=120, root=12)
    carried = carried_outcomes(ring, bt, None)
    assert carried == reference_outcomes(ring, bt, None)
    assert [x[0] for x in carried] == [0, 1, 2] and carried[2][3] is None
    assert carried[1][1] == eval_term(ring, bt._replace(braces=(brace[:1],)), 1).series


def test_carried_vanishing_factor_raises_as_eval_term():
    """An explicit record with a (1 - 1) block factor from n = 3 on."""
    bt = CATALOG.get("u2-05").recipe._replace(poch_num=(PochF(1, -24, 1, 0, 12),))
    ring = SeriesRing(order=120, root=12)
    carried = carried_outcomes(ring, bt, None)
    assert carried == reference_outcomes(ring, bt, None)
    assert [x[0] for x in carried] == [0, 1, 2, SingularMismatch]


def test_carried_terms_reject_a_shrinking_count():
    """A count kn*n + kc with kn < 0 cannot be carried; eval_term still evaluates it."""
    shrinking = PochF(1, 3, -1, 6, 12)
    bt = CATALOG.get("u2-05").recipe._replace(poch_num=(shrinking,), poch_den=())
    ring = SeriesRing(order=120, root=12)
    with pytest.raises(ValueError, match="kn < 0"):
        next(carried_terms(ring, bt))
    for n in evaluated(bt, 120):
        # at each n the block is (t^3; t^12)_{6-n}, the same as a constant count
        fixed = bt._replace(poch_num=(shrinking._replace(kn=0, kc=max(0, shrinking.count(n))),))
        assert values(n, eval_term(ring, bt, n)) == values(n, eval_term(ring, fixed, n))


def test_term_short_of_the_order_raises_on_both_paths(monkeypatch):
    """With no headroom for W_n, term 0 of u2-12 falls short of the order on either path."""
    bt = CATALOG.get("u2-12").recipe
    ring = SeriesRing(order=120, root=12)
    monkeypatch.setattr(theorems, "_weight_margin", lambda bt, n: 0)
    short = (NonmonotoneValuation, "term n=0 resolved only to t^110 < requested t^120")
    assert carried_outcomes(ring, bt, None) == [short]
    assert reference_outcomes(ring, bt, None) == [short]


def test_carried_raises_as_eval_term_below_the_valuation_bound(monkeypatch):
    """A term below its structural bound raises what eval_term raises."""
    ring = SeriesRing(order=120, root=12)
    monkeypatch.setattr(theorems, "term_valuation_bound", lambda bt, n: ring.order - 1)
    bt = CATALOG.get("u2-05").recipe
    carried = carried_outcomes(ring, bt, None)
    assert carried == reference_outcomes(ring, bt, None)
    assert carried == [(NonmonotoneValuation, "term n=0 valuation 0 below structural bound 119")]
    # in the reduced root (g = 2; the patched bound follows ring) the message still counts powers of t
    bs, g = reduce_root(bt)
    ring = SeriesRing(order=60, root=bs.root)
    assert carried_outcomes(ring, bs, None) == [(NonmonotoneValuation, "term n=0 valuation 0 below structural bound 118")]


# Random recipes for the compiled path: binomial coefficients c of -1, 2,
# 1/2 and 1/3, which the catalog never has at these orders, besides 1;
# Fraction prefactor bases; negative brace, W and Pochhammer exponents; and
# Pochhammer factors and w_num/w_den atoms that are identically (1 - 1),
# dropped and weighed by a shadow recipe, or raising without one.  A
# coefficient of 1 on a brace or weight atom also gives n-dependent zeros:
# a skipped brace term and a vanishing denominator (a dead term is rare
# here, so test_carried_zero_terms_match_eval_term pins one).
_c = st.sampled_from([1, -1, 2, F(1, 2), F(1, 3)])
_atom = st.builds(BExp, st.integers(-3, 3), st.integers(-20, 12) | st.integers(-3, 0), _c)
_weight = st.lists(_atom | _atom | st.just(BExp(0, 0, 1)), max_size=2).map(tuple)
_brace_term = st.builds(BraceTerm, _atom, st.lists(_atom, max_size=2).map(tuple),
                        st.lists(_atom, max_size=2).map(tuple))


@st.composite
def _poch(draw):
    step = draw(st.integers(1, 12))
    if draw(st.integers(0, 2)) == 0:       # reaches t^0 at factor j: dropped
        return PochF(1, -step * draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(-1, 3)), step)
    return PochF(draw(_c), draw(st.integers(-24, 10)), draw(st.integers(0, 2)), draw(st.integers(-1, 3)), step)


@st.composite
def compiled_cases(draw):
    """(recipe, shadow or None): a shadow moves every exponent off zero by a small form."""
    bt = SeriesRecipe(
        "random", 12, (), (),
        pref_quad=draw(st.integers(2, 12)), pref_lin=draw(st.integers(-24, 10)),
        pref_const=draw(st.integers(-30, 10)),
        pref_base=draw(st.sampled_from([1, -2, F(1, 3), F(-3, 2)])),
        sign_alt=draw(st.booleans()), n_start=draw(st.integers(0, 2)),
        poch_num=tuple(draw(st.lists(_poch(), max_size=3))),
        poch_den=tuple(draw(st.lists(_poch(), max_size=2))),
        w_num=draw(_weight), w_den=draw(_weight),
        braces=tuple(draw(st.lists(st.lists(_brace_term, min_size=1, max_size=3).map(tuple),
                                   min_size=1, max_size=2))),
    )
    if draw(st.integers(0, 2)) == 0:
        return bt, None
    u, v = draw(st.integers(1, 5)), draw(st.integers(6, 9))

    def poch(f):
        return f._replace(texp=64 * f.texp + u, step=64 * f.step + v)

    def atom(x):
        return x._replace(ncoef=64 * x.ncoef + u, const=64 * x.const + v)

    return bt, bt._replace(poch_num=tuple(map(poch, bt.poch_num)), poch_den=tuple(map(poch, bt.poch_den)),
                           w_num=tuple(map(atom, bt.w_num)), w_den=tuple(map(atom, bt.w_den)))


@settings(max_examples=80, deadline=None)
@given(case=compiled_cases(), order=st.integers(24, 160))
def test_compiled_carried_terms_match_eval_term(case, order):
    """Term by term, the compiled carried path equals eval_term, or raises its type and message."""
    bt, shadow = case
    ring = SeriesRing(order=order, root=12)
    assert carried_outcomes(ring, bt, shadow) == reference_outcomes(ring, bt, shadow)


# ------------------------------------------------------------ shadow recipes


def test_has_unit_factor_on_synthetic_factors():
    base = CATALOG.get("u2-05").recipe._replace(lhs_num=(), lhs_den=(), poch_num=(), poch_den=(),
                                                w_num=(), w_den=())
    assert not has_unit_factor(base)
    unit = {
        "lhs": dict(lhs_num=(QMono(1, -24),)),
        "lhs_den_zero": dict(lhs_den=(QMono(1, 0),)),
        "poch_reaches_zero": dict(poch_num=(PochF(1, -24, 1, 0, 12),)),
        "poch_at_zero": dict(poch_den=(PochF(1, 0, 0, 1, 0),)),
        "poch_down_to_zero": dict(poch_den=(PochF(1, 10, 1, 0, -5),)),
        "weight": dict(w_den=(BExp(0, 0),)),
    }
    never = {
        "lhs_off_grid": dict(lhs_num=(QMono(1, -6), QMono(2, -12))),
        "poch_off_grid": dict(poch_num=(PochF(1, -25, 1, 0, 12), PochF(3, -24, 1, 0, 12))),
        "poch_away_from_zero": dict(poch_num=(PochF(1, 10, 1, 0, 5), PochF(1, -10, 1, 0, -5))),
        "weight_n_dependent": dict(w_num=(BExp(1, -3),), w_den=(BExp(0, 0, 2),)),
    }
    assert all(has_unit_factor(base._replace(**parts)) for parts in unit.values())
    assert not any(has_unit_factor(base._replace(**parts)) for parts in never.values())


@pytest.mark.parametrize("rec", [r for r in CATALOG.records if r.kind == "theorem"], ids=lambda r: r.id)
def test_no_drop_without_a_unit_factor(rec):
    """A theorem record bound without its shadow never needed it."""
    bs, g = reduce_root(rec.recipe)
    ring = SeriesRing(order=-(-400 // g), root=bs.root)
    _, net, _ = theorem_lhs(ring, bs, shadow=shadow_of(rec))
    drops = {tv.net_drops for _, tv in carried_terms(ring, bs, shadow_of(rec))}
    assert has_unit_factor(bs) or (net, drops <= {0, None}) == (0, True)

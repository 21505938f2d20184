"""Catalog of identities: loading, validation, verification, reporting.

The catalog is a human-editable block text file (see data/catalog.txt and
docs/catalog-format.md).  Three record kinds exist:

* theorem  -- parameters a,b,c,d for one of the five specialized theorems;
  the theorem recipe is bound at those parameters at load time and kept.
* explicit -- the displayed sum is stored directly (used where the theorem
  form is singular at the record's parameters and the displayed identity is
  the regularized limit, which factor-dropping cannot reproduce).
* bisected -- a reduced single-sum alternating series produced by the
  reverse bisection method, stored with its Q-polynomial.

Verification computes the left product and the right series independently
and compares coefficients; a mismatch reports the lowest differing exponent
and both coefficients.  Mismatches are results, never silently corrected.
Both sides run in the record's reduced root s = t^g (g = root_gcd of its
recipe), where every series is g times shorter; reported exponents and
orders are in t.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from qseries.inversion import (
    SingularMismatch,
    VanishingDenominatorFactor,
    WPParams,
    params_from_exponents,
)
from qseries.qcore import QMono, SeriesRing
from qseries.theorems import (
    BExp,
    BraceTerm,
    PochF,
    SeriesRecipe,
    THEOREM_NAMES,
    bind_theorem,
    has_unit_factor,
    reduce_root,
    shadow_params,
    theorem_lhs,
    theorem_series,
)


class CatalogError(ValueError):
    """Schema violation or failed record validation, with location info."""


# ----------------------------------------------------------- classical data


@dataclass(frozen=True)
class LinearFactor:
    """(c0 + c1*n)**power, a factor of a classical brace term."""

    c0: Fraction
    c1: Fraction
    power: int = 1


@dataclass(frozen=True)
class BraceRational:
    """coeff * n^npow * prod(num) / prod(den): one term of a classical brace."""

    coeff: Fraction
    npow: int
    num: tuple[LinearFactor, ...]
    den: tuple[LinearFactor, ...]


@dataclass(frozen=True)
class FactorialFactor:
    """((p)_{kn*n+kc})**power with the rising factorial (p)_m."""

    p: Fraction
    kn: int
    kc: int
    power: int


@dataclass(frozen=True)
class ClassicalSeries:
    """A classical (q -> 1) limit: closed-form value and term recipe."""

    value_factors: tuple[tuple[str, Fraction, int], ...]  # (kind, arg, power)
    base: Fraction           # explicit geometric factor base**n (1 when embedded)
    rate: Fraction           # declared convergence-rate label
    fnum: tuple[FactorialFactor, ...]
    fden: tuple[FactorialFactor, ...]
    poly: tuple[Fraction, ...]
    polyden: tuple[Fraction, ...]
    braces: tuple[BraceRational, ...]
    factor_num: tuple[LinearFactor, ...]
    factor_den: tuple[LinearFactor, ...]
    start: int
    prefix: Fraction


# ----------------------------------------------------------------- records


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    kind: str                      # theorem | explicit | bisected
    section: str
    theorem: str | None            # for kind == theorem
    params: WPParams | None
    root: int
    recipe: SeriesRecipe           # theorem records: bound from the parameters at load
    case: str | None               # bisection case id for bisected records
    sign: str | None
    classical: ClassicalSeries | None

    def lhs_exponents(self):
        """(numerator, denominator) q-exponent lists of the left product."""
        num = tuple(Fraction(m.texp, self.root) for m in self.recipe.lhs_num)
        den = tuple(Fraction(m.texp, self.root) for m in self.recipe.lhs_den)
        return num, den


@dataclass(frozen=True)
class BisectionCase:
    """Data of one reverse-bisection derivation (see qseries.bisection)."""

    id: str
    theorem: str
    params: WPParams
    root: int
    clear_num: tuple[tuple[int, int, int], ...]   # (t-exp of q-coeff, y-power, multiplicity)
    clear_den: tuple[tuple[int, int, int], ...]
    fe_a: tuple[tuple[int, int, int], ...]
    fe_shift: tuple[int, int]                      # (t-exp, y-power)
    fe_b: tuple[tuple[int, int, int], ...]
    deg_q: int
    sign: str
    pp_lhs_num: tuple[int, ...]                    # t-exponents
    pp_lhs_den: tuple[int, ...]
    pp_pref: tuple[int, int, int]
    pp_poch_num: tuple[PochF, ...]
    pp_poch_den: tuple[PochF, ...]
    pp_w_num: tuple[BExp, ...]
    pp_w_den: tuple[BExp, ...]
    t_pref: tuple[int, int, int]
    t_poch_num: tuple[PochF, ...]
    t_poch_den: tuple[PochF, ...]
    t_w_num: tuple[BExp, ...]
    t_w_den: tuple[BExp, ...]
    emit_id: str


@dataclass
class Catalog:
    root: int
    records: list[IdentityRecord]
    cases: dict[str, BisectionCase]

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    def get(self, rid):
        for r in self.records:
            if r.id == rid:
                return r
        raise KeyError(rid)


# ------------------------------------------------------------------- parser


_COUNT_RE = re.compile(r"^(?:(\d*)n)?(?:\+?(-?\d+))?$")


def _parse_count(text, where):
    m = _COUNT_RE.match(text)
    if not m or text == "":
        raise CatalogError(f"{where}: bad count {text!r}")
    kn = 0
    if text.find("n") >= 0:
        kn = int(m.group(1)) if m.group(1) else 1
    kc = int(m.group(2)) if m.group(2) else 0
    return kn, kc


def _frac(text, where):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CatalogError(f"{where}: bad rational {text!r}") from exc


def _int(text, where):
    try:
        return int(text)
    except ValueError as exc:
        raise CatalogError(f"{where}: bad integer {text!r}") from exc


def _pref(body, key, where):
    """The three integer t-exponent coefficients of a prefactor line."""
    pref = tuple(_int(x, where) for x in _single(body, key, where).split())
    if len(pref) != 3:
        raise CatalogError(f"{where}: {key} needs three t-exponent coefficients")
    return pref


def _texp(x: Fraction, root: int, where):
    v = x * root
    if v.denominator != 1:
        raise CatalogError(f"{where}: exponent {x} is not a multiple of 1/{root}")
    return int(v)


def _parse_poch(tok, root, where):
    parts = tok.split(":")
    if len(parts) != 3:
        raise CatalogError(f"{where}: Pochhammer factor needs exp:step:count, got {tok!r}")
    arg = _texp(_frac(parts[0], where), root, where)
    step = _texp(_frac(parts[1], where), root, where)
    kn, kc = _parse_count(parts[2], where)
    return PochF(1, arg, kn, kc, step)


def _parse_atom(tok, root, where):
    parts = tok.split(":")
    if len(parts) != 2:
        raise CatalogError(f"{where}: atom needs ncoef:const (q-units), got {tok!r}")
    u = _frac(parts[0], where)
    v = _frac(parts[1], where)
    return BExp(_texp(u, root, where), _texp(v, root, where), 1)


def _parse_value_expr(text, where):
    out = []
    for tok in text.split():
        m = re.match(r"^([a-z]+)(?:\(([^)]*)\))?(?:\^(-?\d+))?$", tok)
        if m:
            kind, arg, power = m.group(1), m.group(2), int(m.group(3) or 1)
            if kind != "pi" and arg is None:
                raise CatalogError(f"{where}: value factor {tok!r} needs an argument")
            if kind == "pi":
                out.append(("pi", Fraction(0), power))
            elif kind == "gamma":
                out.append(("gamma", _frac(arg, where), power))
            elif kind == "sqrt":
                out.append(("root", Fraction(_int(arg, where), 2), power))  # arg^(1/2): store base/index
            elif kind == "root":
                base, _, idx = arg.partition(",")
                idx = _int(idx, where)
                if idx == 0:
                    raise CatalogError(f"{where}: root index 0 in {tok!r}")
                out.append(("root", Fraction(_int(base, where), idx), power))
            else:
                raise CatalogError(f"{where}: unknown value factor {tok!r}")
        else:
            out.append(("rat", _frac(tok, where), 1))
    return tuple(out)


def _parse_brace_line(text, where):
    """coeff [n^k] (c0+c1n)^k ... / (c0+c1n)^k ...

    The fraction bar must be a standalone token (coefficients like 1/4 keep
    their slash).
    """
    text = text.strip()
    if text.startswith("/ "):
        left, right = "", text[2:]
    elif text.endswith(" /"):
        left, right = text[:-2], ""
    elif " / " in text:
        left, right = text.split(" / ", 1)
    else:
        left, right = text, ""

    def parse_side(side):
        coeff = None
        npow = 0
        factors = []
        for tok in side.split():
            if re.match(r"^-?\d+(/\d+)?$", tok):
                if coeff is not None:
                    raise CatalogError(f"{where}: two coefficients in brace term")
                coeff = _frac(tok, where)
                continue
            m = re.match(r"^n(?:\^(\d+))?$", tok)
            if m:
                npow += int(m.group(1) or 1)
                continue
            m = re.match(r"^\((-?\d+(?:/\d+)?)([+-]\d+(?:/\d+)?)n\)(?:\^(\d+))?$", tok)
            if m:
                factors.append(LinearFactor(_frac(m.group(1), where), _frac(m.group(2), where),
                                            int(m.group(3) or 1)))
                continue
            raise CatalogError(f"{where}: bad brace factor {tok!r}")
        return coeff, npow, factors

    coeff, npow, num = parse_side(left)
    dcoeff, dnpow, den = parse_side(right)
    if dcoeff is not None or dnpow:
        raise CatalogError(f"{where}: denominators take only linear factors")
    return BraceRational(coeff if coeff is not None else Fraction(1), npow, tuple(num), tuple(den))


def _parse_ffactor(tok, where):
    parts = tok.split(":")
    if len(parts) != 3:
        raise CatalogError(f"{where}: factorial factor needs p:count:power, got {tok!r}")
    p = _frac(parts[0], where)
    kn, kc = _parse_count(parts[1], where)
    power = _int(parts[2], where)
    if power < 0:
        raise CatalogError(f"{where}: factorial factor power must be nonnegative, got {tok!r}")
    return FactorialFactor(p, kn, kc, power)


def _parse_yatoms(toks, root, where):
    out = []
    for tok in toks:
        parts = tok.split(":")
        if len(parts) not in (2, 3):
            raise CatalogError(f"{where}: y-atom needs qexp:ypow[:mult], got {tok!r}")
        texp = _texp(_frac(parts[0], where), root, where)
        ypow = _int(parts[1], where)
        mult = _int(parts[2], where) if len(parts) == 3 else 1
        if mult < 1:
            raise CatalogError(f"{where}: y-atom {tok!r} needs a positive multiplicity")
        if ypow < 0:
            raise CatalogError(f"{where}: y-atom {tok!r} needs a nonnegative y-power")
        if texp < 0:
            raise CatalogError(f"{where}: y-atom {tok!r} needs a nonnegative q-exponent")
        if texp == ypow == 0:
            raise CatalogError(f"{where}: y-atom {tok!r} is identically zero")
        out.append((texp, ypow, mult))
    return tuple(out)


def _blocks(text):
    """Yield (kind, name, body, lines, line_no): body maps each key to its
    values and lines maps it to the line number of each value."""
    cur = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()
        if cur is None:
            if head[0] in ("record", "case") and len(head) == 2:
                cur = (head[0], head[1], {}, {}, lineno)
            elif head[0] == "root" and len(head) == 2:
                yield ("root", head[1], {}, {}, lineno)
            else:
                raise CatalogError(f"line {lineno}: expected 'record <id>' or 'case <id>', got {line!r}")
        elif line == "end":
            yield cur
            cur = None
        else:
            key, _, rest = line.partition(" ")
            cur[2].setdefault(key, []).append(rest.strip())
            cur[3].setdefault(key, []).append(lineno)
    if cur is not None:
        raise CatalogError(f"unterminated block starting at line {cur[4]}")


# The keys each block kind reads; any other key is an error.  `note` is a
# comment key: allowed everywhere and read by nothing.
_RECORD_KEYS = {
    "kind", "section", "note",
    "classical-value", "classical-base", "classical-rate", "classical-start", "classical-prefix",
    "classical-upper", "classical-lower", "classical-fnum", "classical-fden", "classical-factor",
    "classical-poly", "classical-polyden", "classical-brace",
}
_BLOCK_KEYS = {
    "theorem": _RECORD_KEYS | {"theorem", "a", "b", "c", "d"},
    "explicit": _RECORD_KEYS | {
        "lhs-num", "lhs-den", "pref", "sign-alt", "start", "leading-one", "poch-num", "poch-den",
        "w-num", "w-den", "brace", "qpoly",
    },
    "case": {
        "note", "theorem", "a", "b", "c", "d", "clear-num", "clear-den", "fe-a", "fe-shift", "fe-b",
        "deg-q", "sign", "pp-lhs-num", "pp-lhs-den", "pp-pref", "pp-poch-num", "pp-poch-den",
        "pp-w-num", "pp-w-den", "t-pref", "t-poch-num", "t-poch-den", "t-w-num", "t-w-den", "emit-id",
    },
}
_BLOCK_KEYS["bisected"] = _BLOCK_KEYS["explicit"] | {"case", "sign"}
_REPEATABLE_KEYS = {"note", "brace", "qpoly", "classical-brace"}


def _check_keys(lines, kind, label):
    """Reject a key the block kind does not read, or a repeated one, at its own line."""
    for key, at in lines.items():
        if key not in _BLOCK_KEYS[kind]:
            raise CatalogError(f"{label} (line {at[0]}): unknown key {key!r} (kind {kind})")
        if len(at) > 1 and key not in _REPEATABLE_KEYS:
            raise CatalogError(f"{label} (line {at[1]}): duplicate key {key!r}")


def _check_sign(body, lines, label):
    """A bisected record's sign is '-' exactly when its terms alternate (sign-alt true)."""
    if "sign" not in body:
        return
    sign, alt = body["sign"][0], _single(body, "sign-alt", label, "false")
    where = f"{label} (line {lines['sign'][0]})"
    if sign not in ("+", "-"):
        raise CatalogError(f"{where}: sign must be '+' or '-', got {sign!r}")
    if (sign == "-") != (alt == "true"):
        raise CatalogError(f"{where}: sign {sign} contradicts sign-alt {alt}")


def _single(body, key, where, default=None):
    vals = body.get(key)
    if not vals:
        if default is not None:
            return default
        raise CatalogError(f"{where}: missing key {key!r}")
    return vals[0]


def _parse_classical(body, where):
    if "classical-value" not in body:
        if any(k.startswith("classical-") for k in body):
            raise CatalogError(f"{where}: classical keys without classical-value")
        return None
    value = _parse_value_expr(_single(body, "classical-value", where), where)
    base = _frac(_single(body, "classical-base", where, "1"), where)
    rate = _frac(_single(body, "classical-rate", where, str(base) if base != 1 else "1"), where)
    if ("classical-rate" in body or base != 1) and not 0 < abs(rate) < 1:
        # the tail estimate |last term| * r/(1 - r) needs 0 < r < 1; rate 1 is
        # kept only as the default for a series with no geometric factor
        raise CatalogError(f"{where}: classical rate {rate} needs 0 < |rate| < 1")
    fnum = []
    fden = []
    for r in _single(body, "classical-upper", where, "-").split():
        if r != "-":
            fnum.append(FactorialFactor(_frac(r, where), 1, 0, 1))
    for r in _single(body, "classical-lower", where, "-").split():
        if r != "-":
            fden.append(FactorialFactor(_frac(r, where), 1, 0, 1))
    for tok in body.get("classical-fnum", [""])[0].split():
        fnum.append(_parse_ffactor(tok, where))
    for tok in body.get("classical-fden", [""])[0].split():
        fden.append(_parse_ffactor(tok, where))
    poly = tuple(_frac(x, where) for x in _single(body, "classical-poly", where, "-").split() if x != "-")
    polyden = tuple(_frac(x, where) for x in _single(body, "classical-polyden", where, "-").split() if x != "-")
    braces = tuple(_parse_brace_line(t, where) for t in body.get("classical-brace", []))
    fact = body.get("classical-factor", [None])[0]
    fnum2, fden2 = (), ()
    if fact:
        bl = _parse_brace_line(fact, where)
        if bl.coeff != 1 or bl.npow:
            raise CatalogError(f"{where}: classical-factor takes only linear factors")
        fnum2, fden2 = bl.num, bl.den
    return ClassicalSeries(
        value_factors=value, base=base, rate=rate,
        fnum=tuple(fnum), fden=tuple(fden),
        poly=poly, polyden=polyden, braces=braces,
        factor_num=fnum2, factor_den=fden2,
        start=_int(_single(body, "classical-start", where, "0"), where),
        prefix=_frac(_single(body, "classical-prefix", where, "0"), where),
    )


def _parse_explicit_recipe(rid, body, root, where):
    lhs_num = tuple(QMono(1, _texp(_frac(x, where), root, where))
                    for x in _single(body, "lhs-num", where).split())
    lhs_den = tuple(QMono(1, _texp(_frac(x, where), root, where))
                    for x in _single(body, "lhs-den", where).split())
    pref = _pref(body, "pref", where)
    poch_num = tuple(_parse_poch(t, root, where) for t in _single(body, "poch-num", where, "-").split() if t != "-")
    poch_den = tuple(_parse_poch(t, root, where) for t in _single(body, "poch-den", where, "-").split() if t != "-")
    w_num = tuple(_parse_atom(t, root, where) for t in body.get("w-num", [""])[0].split())
    w_den = tuple(_parse_atom(t, root, where) for t in body.get("w-den", [""])[0].split())
    groups = []
    brace_terms = []
    for line in body.get("brace", []):
        segs = [s.strip() for s in line.split("|")]
        if len(segs) != 3:
            raise CatalogError(f"{where}: brace line needs 'coeff mono | num | den'")
        head = segs[0].split()
        coeff = _frac(head[0], where)
        mono = _parse_atom(head[1], root, where) if len(head) > 1 else BExp(0, 0, 1)
        num = tuple(_parse_atom(t, root, where) for t in segs[1].split())
        den = tuple(_parse_atom(t, root, where) for t in segs[2].split())
        brace_terms.append(BraceTerm(BExp(mono.ncoef, mono.const, coeff), num, den))
    if brace_terms:
        groups.append(tuple(brace_terms))
    qpoly_terms = []
    for line in body.get("qpoly", []):
        toks = line.split()
        if len(toks) != 3:
            raise CatalogError(f"{where}: qpoly line needs 'ypow coeff qexp'")
        ypow = _int(toks[0], where)
        coeff = _frac(toks[1], where)
        texp = _texp(_frac(toks[2], where), root, where)
        if root % 2:
            raise CatalogError(f"{where}: half-step Q-polynomial needs an even root")
        qpoly_terms.append(BraceTerm(BExp(ypow * root // 2, texp, coeff), (), ()))
    if qpoly_terms:
        groups.append(tuple(qpoly_terms))
    if not groups:
        groups.append((BraceTerm(BExp(0, 0, 1), (), ()),))
    return SeriesRecipe(
        name=rid, root=root,
        lhs_num=lhs_num, lhs_den=lhs_den,
        pref_quad=pref[0], pref_lin=pref[1], pref_const=pref[2], pref_base=1,
        poch_num=poch_num, poch_den=poch_den,
        w_num=w_num, w_den=w_den,
        braces=tuple(groups),
        leading_one=_single(body, "leading-one", where, "false") == "true",
        n_start=_int(_single(body, "start", where, "0"), where),
        sign_alt=_single(body, "sign-alt", where, "false") == "true",
    )


def _parse_case(cid, body, root, where):
    exps = [_frac(_single(body, k, where), where) for k in ("a", "b", "c", "d")]
    fe_shift = _single(body, "fe-shift", where).split()
    if len(fe_shift) != 2:
        raise CatalogError(f"{where}: fe-shift needs 'qexp ypow'")
    fe_shift = (_texp(_frac(fe_shift[0], where), root, where), _int(fe_shift[1], where))
    if min(fe_shift) < 0:
        raise CatalogError(f"{where}: fe-shift needs a nonnegative q-exponent and y-power")
    deg_q = _int(_single(body, "deg-q", where), where)
    if deg_q < 0:
        raise CatalogError(f"{where}: deg-q must be nonnegative, got {deg_q}")
    return BisectionCase(
        id=cid,
        theorem=_single(body, "theorem", where),
        params=params_from_exponents(*exps, root=root),
        root=root,
        clear_num=_parse_yatoms(_single(body, "clear-num", where).split(), root, where),
        clear_den=_parse_yatoms(_single(body, "clear-den", where).split(), root, where),
        fe_a=_parse_yatoms(_single(body, "fe-a", where).split(), root, where),
        fe_shift=fe_shift,
        fe_b=_parse_yatoms(_single(body, "fe-b", where).split(), root, where),
        deg_q=deg_q,
        sign=_single(body, "sign", where),
        pp_lhs_num=tuple(_texp(_frac(x, where), root, where)
                         for x in _single(body, "pp-lhs-num", where).split()),
        pp_lhs_den=tuple(_texp(_frac(x, where), root, where)
                         for x in _single(body, "pp-lhs-den", where).split()),
        pp_pref=_pref(body, "pp-pref", where),
        pp_poch_num=tuple(_parse_poch(t, root, where) for t in _single(body, "pp-poch-num", where).split()),
        pp_poch_den=tuple(_parse_poch(t, root, where) for t in _single(body, "pp-poch-den", where).split()),
        pp_w_num=tuple(_parse_atom(t, root, where) for t in body.get("pp-w-num", [""])[0].split()),
        pp_w_den=tuple(_parse_atom(t, root, where) for t in body.get("pp-w-den", [""])[0].split()),
        t_pref=_pref(body, "t-pref", where),
        t_poch_num=tuple(_parse_poch(t, root, where) for t in _single(body, "t-poch-num", where).split()),
        t_poch_den=tuple(_parse_poch(t, root, where) for t in _single(body, "t-poch-den", where).split()),
        t_w_num=tuple(_parse_atom(t, root, where) for t in body.get("t-w-num", [""])[0].split()),
        t_w_den=tuple(_parse_atom(t, root, where) for t in body.get("t-w-den", [""])[0].split()),
        emit_id=_single(body, "emit-id", where),
    )


def load_catalog(path=None) -> Catalog:
    """Load and validate the catalog; raises CatalogError with diagnostics."""
    if path is None:
        text = resources.files("qseries").joinpath("data/catalog.txt").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    root = 12
    records = []
    cases = {}
    seen = set()
    for kind, name, body, lines, lineno in _blocks(text):
        label = f"{kind} {name}"
        where = f"{label} (line {lineno})"
        if kind == "root":
            root = _int(name, where)
            if root <= 0:
                raise CatalogError(f"{where}: root must be positive")
            continue
        if kind == "case":
            _check_keys(lines, "case", label)
            cases[name] = _parse_case(name, body, root, where)
            continue
        if name in seen:
            raise CatalogError(f"{where}: duplicate record id")
        seen.add(name)
        rkind = _single(body, "kind", where, "theorem")
        if rkind not in ("theorem", "explicit", "bisected"):
            raise CatalogError(f"{where}: unknown kind {rkind!r}")
        _check_keys(lines, rkind, label)
        if rkind == "bisected":
            _check_sign(body, lines, label)
        section = _single(body, "section", where, "?")
        classical = _parse_classical(body, where)
        if rkind == "theorem":
            thm = _single(body, "theorem", where)
            if thm not in THEOREM_NAMES:
                raise CatalogError(f"{where}: unknown theorem {thm!r}")
            exps = [_frac(_single(body, k, where), where) for k in ("a", "b", "c", "d")]
            try:
                params = params_from_exponents(*exps, root=root)
                recipe = bind_theorem(thm, params, root)  # re-validates the side condition data
            except (ValueError, ArithmeticError) as exc:
                raise CatalogError(f"{where}: {exc}") from exc
            records.append(IdentityRecord(name, rkind, section, thm, params, root,
                                          recipe, None, None, classical))
        else:
            recipe = _parse_explicit_recipe(name, body, root, where)
            records.append(IdentityRecord(
                name, rkind, section, None, None, root, recipe,
                body.get("case", [None])[0], body.get("sign", [None])[0], classical,
            ))
    for r in records:
        if r.kind == "bisected" and r.case not in cases:
            raise CatalogError(f"record {r.id}: unknown bisection case {r.case!r}")
    return Catalog(root, records, cases)


# ------------------------------------------------------------- verification


@dataclass
class VerificationReport:
    id: str
    status: str                   # verified | mismatch | unverified
    first_diff_exp: int | None
    lhs_coeff: str | None
    rhs_coeff: str | None
    terms_used: int
    order: int
    elapsed_ms: float
    cause: str | None = None

    def to_json(self, include_elapsed=True):
        payload = {
            "id": self.id,
            "status": self.status,
            "first_diff_exp": self.first_diff_exp,
            "lhs_coeff": self.lhs_coeff,
            "rhs_coeff": self.rhs_coeff,
            "terms_used": self.terms_used,
            "order": self.order,
        }
        if self.cause is not None:
            payload["cause"] = self.cause
        if include_elapsed:
            payload["elapsed_ms"] = self.elapsed_ms
        return payload


def reduced_sides(rec: IdentityRecord, order: int):
    """(lhs, rhs, terms_used, g): both sides as series in s = t^g, to s^ceil(order/g).

    g = root_gcd of the record's recipe, so every exponent of both sides is
    a multiple of g and the s-series hold every coefficient below t^order.
    For a regularized record (identically-vanishing factors dropped on both
    sides) the right side is rescaled by the common shadow weight, so both
    series are normalized with constant term 1; the shadow recipe is bound
    only for a theorem record with such a factor.
    """
    bt, g = reduce_root(rec.recipe)
    ring = SeriesRing(order=-(-order // g), root=bt.root)
    if rec.kind == "theorem":
        bsh = bind_theorem(rec.theorem, *shadow_params(rec.params, rec.root)) if has_unit_factor(bt) else None
        lhs, net, phi = theorem_lhs(ring, bt, shadow=bsh)
        res = theorem_series(ring, bt, shadow=bsh, expected_net=net)
        return lhs, res.series.scale(1 / Fraction(phi)) if phi != 1 else res.series, res.terms_used, g
    lhs, net, phi = theorem_lhs(ring, bt)
    if net:
        raise SingularMismatch(f"{rec.id}: explicit record has a vanishing product factor")
    res = theorem_series(ring, bt)
    return lhs, res.series, res.terms_used, g


def record_sides(rec: IdentityRecord, order: int):
    """(lhs_series, rhs_series, terms_used) in t at the given truncation order.

    The sides of reduced_sides with s = t^g put back.
    """
    lhs, rhs, terms, g = reduced_sides(rec, order)
    return lhs.inflate(g).truncate(order), rhs.inflate(g).truncate(order), terms


def verify_identity(rec: IdentityRecord, order: int = 200) -> VerificationReport:
    """Compare the two sides to the given order; mismatches are results."""
    t0 = time.perf_counter()
    try:
        lhs, rhs, terms, g = reduced_sides(rec, order)
    except (VanishingDenominatorFactor, SingularMismatch, ArithmeticError, ValueError) as exc:
        return VerificationReport(rec.id, "unverified", None, None, None, 0, order,
                                  (time.perf_counter() - t0) * 1000, cause=str(exc))
    diff = lhs.first_difference(rhs, -(-order // g))
    ms = (time.perf_counter() - t0) * 1000
    if diff is None:
        return VerificationReport(rec.id, "verified", None, None, None, terms, order, ms)
    e, cl, cr = diff
    return VerificationReport(rec.id, "mismatch", e * g, str(cl), str(cr), terms, order, ms)


def verify_all(cat: Catalog, order: int = 200, parallel: bool = False):
    """Verify every record; failures are data, not exceptions."""
    if parallel:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor() as pool:
            futs = [pool.submit(verify_identity, r, order) for r in cat.records]
            return [f.result() for f in futs]
    return [verify_identity(r, order) for r in cat.records]


def summary_table(reports):
    lines = []
    width = max((len(r.id) for r in reports), default=4)
    for r in reports:
        extra = ""
        if r.status == "mismatch":
            extra = f"  first_diff_exp={r.first_diff_exp} lhs={r.lhs_coeff} rhs={r.rhs_coeff}"
        elif r.status == "unverified":
            extra = f"  cause={r.cause}"
        lines.append(f"{r.id:<{width}}  {r.status:<10} terms={r.terms_used:<3}{extra}")
    n_ok = sum(1 for r in reports if r.status == "verified")
    lines.append(f"-- {n_ok}/{len(reports)} verified")
    return "\n".join(lines)

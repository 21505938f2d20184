"""Catalog of identities: loading, validation, verification, reporting.

The catalog is a human-editable block text file (see data/catalog.txt and
docs/catalog-format.md).  Three record kinds exist:

* theorem  -- parameters a,b,c,d for one of the five specialized theorems;
  the theorem recipe is bound at those parameters at load time and kept.
* explicit -- the displayed sum is stored directly (used where the theorem
  form is singular at the record's parameters and the displayed identity is
  the regularized limit, which factor-dropping cannot reproduce).
* bisected -- a reduced single-sum alternating series produced by the
  reverse bisection method: its case's term block with the record's
  Q-polynomial as its braces (qpoly_group) and the case's sign.

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
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from qseries.qcore import QMono
from qseries.theorems import (
    BExp,
    BraceTerm,
    PochF,
    RatioError,
    SeriesRecipe,
    THEOREM_NAMES,
    WPParams,
    bind_theorem,
    has_unit_factor,
    reduce_root,
    shadow_params,
    term_ratio,
    theorem_lhs,
    theorem_series,
)


class CatalogError(ValueError):
    """Schema violation or failed record validation, with location info."""


# ----------------------------------------------------------- classical data


class LinearFactor(NamedTuple):
    """(c0 + c1*n)**power, a factor of a classical brace term."""

    c0: Fraction | int
    c1: Fraction | int
    power: int = 1


class BraceRational(NamedTuple):
    """coeff * n^npow * prod(num) / prod(den): one term of a classical brace."""

    coeff: Fraction | int
    npow: int
    num: tuple[LinearFactor, ...]
    den: tuple[LinearFactor, ...]


class FactorialFactor(NamedTuple):
    """((p)_{kn*n+kc})**power with the rising factorial (p)_m."""

    p: Fraction | int
    kn: int
    kc: int
    power: int


class ClassicalSeries(NamedTuple):
    """A classical (q -> 1) limit: closed-form value and term recipe.

    Its rationals are read by _frac: an int where the catalog writes an
    integer, a Fraction otherwise.
    """

    value_factors: tuple[tuple[str, Fraction | int, int], ...]  # (kind, arg, power)
    base: Fraction | int     # explicit geometric factor base**n (1 when embedded)
    rate: Fraction | int     # declared convergence-rate label
    fnum: tuple[FactorialFactor, ...]
    fden: tuple[FactorialFactor, ...]
    poly: tuple[Fraction | int, ...]
    polyden: tuple[Fraction | int, ...]
    braces: tuple[BraceRational, ...]
    factor_num: tuple[LinearFactor, ...]
    factor_den: tuple[LinearFactor, ...]
    start: int
    prefix: Fraction | int


# ----------------------------------------------------------------- records


class IdentityRecord(NamedTuple):
    id: str
    kind: str                      # theorem | explicit | bisected
    section: str
    theorem: str | None            # for kind == theorem
    params: WPParams | None
    root: int
    recipe: SeriesRecipe           # theorem records: bound from the parameters at load
    case: str | None               # bisection case id for bisected records
    classical: ClassicalSeries | None

    def lhs_exponents(self):
        """(numerator, denominator) q-exponent lists of the left product."""
        num = tuple(Fraction(m.texp, self.root) for m in self.recipe.lhs_num)
        den = tuple(Fraction(m.texp, self.root) for m in self.recipe.lhs_den)
        return num, den


class BisectionCase(NamedTuple):
    """Data of one reverse-bisection derivation (see qseries.bisection)."""

    id: str
    theorem: str
    params: WPParams
    root: int
    # derived at load from the recipes (registry._parse_case); each atom is
    # (t-exp, y-power, multiplicity) for (1 - t^t-exp * y^y-power), y = q^n
    clear_num: tuple[tuple[int, int, int], ...]   # theta(n)/pp(n) on pp's product side
    clear_den: tuple[tuple[int, int, int], ...]
    fe_a: tuple[tuple[int, int, int], ...]        # A = t(2n)/pp(n)
    fe_shift: tuple[int, int]                      # (t-exp, y-power) of shift, shift*B = t(2n+1)/pp(n)
    fe_b: tuple[tuple[int, int, int], ...]
    deg_q: int
    sign: str                                      # the declared sign; its records alternate on '-'
    pp: SeriesRecipe      # the unreduced double-width series; bisection puts P(q^n) in its braces
    t: SeriesRecipe       # the term block T_n of the reduced series, on pp's product side
    emit_id: str


class Catalog:
    """The loaded catalog: its root, the records in file order and the bisection cases by id."""

    __slots__ = ("root", "records", "cases")

    def __init__(self, root: int, records: list[IdentityRecord], cases: dict[str, BisectionCase]):
        self.root = root
        self.records = records
        self.cases = cases

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
    """A rational token: an int for an integer, else a Fraction.

    It accepts and rejects exactly what Fraction(text) does on Python 3.10,
    on every Python: later versions also take underscores (3.11) and
    whitespace around the slash (3.12), which a catalog must not depend on.
    An integer or an integer/integer token is read with int(), which agrees
    with Fraction's parser on these, and skips the parser's regular expression.
    """
    num, slash, den = text.partition("/")
    try:
        if (num[1:] if num[:1] in "+-" else num).isdecimal() and (not slash or den.isdecimal()):
            return Fraction(int(num), int(den)) if slash else int(num)
        if "_" in text or slash and (num[-1:].isspace() or den[:1].isspace()):
            raise ValueError(f"not a Python 3.10 Fraction literal: {text!r}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CatalogError(f"{where}: bad rational {text!r}") from exc


def _int(text, where):
    try:
        return int(text)
    except ValueError as exc:
        raise CatalogError(f"{where}: bad integer {text!r}") from exc


def _texp(x: Fraction | int, root: int, where):
    texp, rest = divmod(x.numerator * root, x.denominator)
    if rest:
        raise CatalogError(f"{where}: exponent {x} is not a multiple of 1/{root}")
    return texp


def _parse_poch(tok, root, where):
    parts = tok.split(":")
    if len(parts) != 3:
        raise CatalogError(f"{where}: Pochhammer factor needs exp:step:count, got {tok!r}")
    arg = _texp(_frac(parts[0], where), root, where)
    step = _texp(_frac(parts[1], where), root, where)
    if step <= 0:
        raise CatalogError(f"{where}: Pochhammer step must be positive, got {parts[1]}")
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


class _Block:
    """One catalog block: the values of each key and the line of each value."""

    __slots__ = ("kind", "name", "lineno", "body", "lines")

    def __init__(self, kind: str, name: str, lineno: int):
        self.kind = kind      # record | case | root
        self.name = name
        self.lineno = lineno
        self.body = {}        # key -> [value, ...]
        self.lines = {}       # key -> [line number, ...]

    def where(self, key=None, i=0):
        """The block and the line of value i of key, or of the block itself."""
        line = self.lines[key][i] if key in self.lines else self.lineno
        return f"{self.kind} {self.name} (line {line})"

    def value(self, key, default=None):
        """(value, where) of a single key; a missing key takes the default at the block's line."""
        if key in self.body:
            return self.body[key][0], self.where(key)
        if default is None:
            raise CatalogError(f"{self.where()}: missing key {key!r}")
        return default, self.where()

    def values(self, key):
        """(value, where) of every line of a repeatable key."""
        return [(v, self.where(key, i)) for i, v in enumerate(self.body.get(key, []))]


def _blocks(text):
    """Yield each block of the catalog text as a _Block."""
    cur = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()
        if cur is None:
            if head[0] in ("record", "case") and len(head) == 2:
                cur = _Block(head[0], head[1], lineno)
            elif head[0] == "root" and len(head) == 2:
                yield _Block("root", head[1], lineno)
            else:
                raise CatalogError(f"line {lineno}: expected 'record <id>' or 'case <id>', got {line!r}")
        elif line == "end":
            yield cur
            cur = None
        else:
            key, _, rest = line.partition(" ")
            cur.body.setdefault(key, []).append(rest.strip())
            cur.lines.setdefault(key, []).append(lineno)
    if cur is not None:
        raise CatalogError(f"unterminated block starting at line {cur.lineno}")


# The keys of one series recipe, read by _parse_recipe.  Explicit records
# read them all; a bisection case reads its unreduced series under "pp-"
# and its term block T_n under "t-", which takes the product side of "pp-".
# A bisected record reads only its case and its Q-polynomial (_parse_bisected).
_PRODUCT_KEYS = ("lhs-num", "lhs-den")
_TERM_KEYS = ("pref", "poch-num", "poch-den", "w-num", "w-den")
_SERIES_KEYS = _PRODUCT_KEYS + _TERM_KEYS + ("sign-alt", "start", "leading-one", "brace")

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
    "explicit": _RECORD_KEYS | set(_SERIES_KEYS),
    "bisected": _RECORD_KEYS | {"case", "qpoly"},
    "case": {
        "note", "theorem", "a", "b", "c", "d", "deg-q", "sign", "emit-id",
    } | {"pp-" + k for k in _PRODUCT_KEYS + _TERM_KEYS} | {"t-" + k for k in _TERM_KEYS},
}
_REPEATABLE_KEYS = {"note", "brace", "qpoly", "classical-brace"}


def _check_keys(blk, kind):
    """Reject a key the block kind does not read, or a repeated one, at its own line."""
    for key, at in blk.lines.items():
        if key not in _BLOCK_KEYS[kind]:
            raise CatalogError(f"{blk.where(key)}: unknown key {key!r} (kind {kind})")
        if len(at) > 1 and key not in _REPEATABLE_KEYS:
            raise CatalogError(f"{blk.where(key, 1)}: duplicate key {key!r}")


def _parse_theorem(blk, root):
    """(name, params) of a theorem record or a bisection case."""
    thm, at = blk.value("theorem")
    if thm not in THEOREM_NAMES:
        raise CatalogError(f"{at}: unknown theorem {thm!r}")
    monos = []
    for key in ("a", "b", "c", "d"):
        text, at = blk.value(key)
        monos.append(QMono(1, _texp(_frac(text, at), root, at)))
    return thm, WPParams(*monos)


def _parse_classical(blk):
    if "classical-value" not in blk.body:
        if any(k.startswith("classical-") for k in blk.body):
            raise CatalogError(f"{blk.where()}: classical keys without classical-value")
        return None
    value = _parse_value_expr(*blk.value("classical-value"))
    base = _frac(*blk.value("classical-base", "1"))
    rate = _frac(*blk.value("classical-rate", str(base) if base != 1 else "1"))
    if ("classical-rate" in blk.body or base != 1) and not 0 < abs(rate) < 1:
        # the tail estimate |last term| * r/(1 - r) needs 0 < r < 1; rate 1 is
        # kept only as the default for a series with no geometric factor
        raise CatalogError(f"{blk.where()}: classical rate {rate} needs 0 < |rate| < 1")
    fnum = []
    fden = []
    for key, out in (("classical-upper", fnum), ("classical-lower", fden)):
        text, at = blk.value(key, "-")
        out.extend(FactorialFactor(_frac(r, at), 1, 0, 1) for r in text.split() if r != "-")
    for key, out in (("classical-fnum", fnum), ("classical-fden", fden)):
        text, at = blk.value(key, "")
        out.extend(_parse_ffactor(tok, at) for tok in text.split())
    text, at = blk.value("classical-poly", "-")
    poly = tuple(_frac(x, at) for x in text.split() if x != "-")
    text, at = blk.value("classical-polyden", "-")
    polyden = tuple(_frac(x, at) for x in text.split() if x != "-")
    braces = tuple(_parse_brace_line(t, at) for t, at in blk.values("classical-brace"))
    fact, at = blk.value("classical-factor", "")
    fnum2, fden2 = (), ()
    if fact:
        bl = _parse_brace_line(fact, at)
        if bl.coeff != 1 or bl.npow:
            raise CatalogError(f"{at}: classical-factor takes only linear factors")
        fnum2, fden2 = bl.num, bl.den
    return ClassicalSeries(
        value_factors=value, base=base, rate=rate,
        fnum=tuple(fnum), fden=tuple(fden),
        poly=poly, polyden=polyden, braces=braces,
        factor_num=fnum2, factor_den=fden2,
        start=_int(*blk.value("classical-start", "0")),
        prefix=_frac(*blk.value("classical-prefix", "0")),
    )


def _parse_recipe(name, blk, root, prefix="", product=None):
    """The series recipe stored under prefix + _SERIES_KEYS.

    product, a (lhs_num, lhs_den) pair, stands in for the lhs keys.
    """
    def value(key, default=None):
        return blk.value(prefix + key, default)

    def monos(key):
        text, at = value(key)
        return tuple(QMono(1, _texp(_frac(x, at), root, at)) for x in text.split())

    def pochs(key):
        text, at = value(key, "-")
        return tuple(_parse_poch(t, root, at) for t in text.split() if t != "-")

    def atoms(key):
        text, at = value(key, "")
        return tuple(_parse_atom(t, root, at) for t in text.split())

    lhs_num, lhs_den = product or (monos("lhs-num"), monos("lhs-den"))
    text, at = value("pref")
    pref = tuple(_int(x, at) for x in text.split())
    if len(pref) != 3:
        raise CatalogError(f"{at}: {prefix}pref needs three t-exponent coefficients")
    if pref[0] <= 0:
        raise CatalogError(f"{at}: {prefix}pref needs a positive quadratic coefficient, got {pref[0]}")
    brace_terms = []
    for line, at in blk.values(prefix + "brace"):
        segs = [s.strip() for s in line.split("|")]
        if len(segs) != 3:
            raise CatalogError(f"{at}: brace line needs 'coeff mono | num | den'")
        head = segs[0].split()
        coeff = _frac(head[0], at)
        mono = _parse_atom(head[1], root, at) if len(head) > 1 else BExp(0, 0, 1)
        num = tuple(_parse_atom(t, root, at) for t in segs[1].split())
        den = tuple(_parse_atom(t, root, at) for t in segs[2].split())
        brace_terms.append(BraceTerm(BExp(mono.ncoef, mono.const, coeff), num, den))
    if not brace_terms:
        brace_terms.append(BraceTerm(BExp(0, 0, 1), (), ()))
    return SeriesRecipe(
        name=name, root=root,
        lhs_num=lhs_num, lhs_den=lhs_den,
        pref_quad=pref[0], pref_lin=pref[1], pref_const=pref[2], pref_base=1,
        poch_num=pochs("poch-num"), poch_den=pochs("poch-den"),
        w_num=atoms("w-num"), w_den=atoms("w-den"),
        braces=(tuple(brace_terms),),
        leading_one=value("leading-one", "false")[0] == "true",
        n_start=_int(*value("start", "0")),
        sign_alt=value("sign-alt", "false")[0] == "true",
    )


def qpoly_group(terms, root: int) -> tuple[BraceTerm, ...]:
    """The brace group of Q(q^(n/2)) from the terms (ypow, coeff, t-exp) of Q.

    A term stands for coeff * t^t-exp * y^ypow with y = q^(n/2), so its
    monomial grows by t^(ypow*root/2) per n; root is even, as a case's is.
    The catalog's bisected records and bisection.reduced_recipe both build
    their Q here.
    """
    half = root // 2
    return tuple(BraceTerm(BExp(ypow * half, texp, coeff), (), ()) for ypow, coeff, texp in terms)


def _parse_bisected(blk, case: BisectionCase) -> SeriesRecipe:
    """A bisected record's recipe: its case's t recipe, which carries pp's product side, with
    the record's qpoly lines (read in the case's root) as its braces and the case's sign.
    """
    terms = []
    for line, at in blk.values("qpoly"):
        toks = line.split()
        if len(toks) != 3:
            raise CatalogError(f"{at}: qpoly line needs 'ypow coeff qexp'")
        terms.append((_int(toks[0], at), _frac(toks[1], at), _texp(_frac(toks[2], at), case.root, at)))
    braces = (qpoly_group(terms, case.root),) if terms else case.t.braces
    return case.t._replace(name=blk.name, braces=braces, sign_alt=case.sign == "-")


def _derive(blk, what, parts, normalized=False, polynomial=False):
    """term_ratio(parts), its RatioError located at the key of the part at fault."""
    try:
        return term_ratio(parts, normalized, polynomial)
    except RatioError as exc:
        tag, field = exc.source
        raise CatalogError(f"{blk.where('theorem' if tag is None else tag + field)}: {what}: {exc}") from exc


def _parse_case(blk, root):
    """A bisection case, its functional equation and clearing factor derived from its recipes.

    With y = q^n and theta the theorem's term block at the case parameters
    (its weight W is rebuilt by bisection.weight_y_fraction): A = t(2n)/pp(n),
    shift*B = t(2n+1)/pp(n), and the clearing factor theta(n)/pp(n) times
    pp's product side over the theorem's.
    """
    if root % 2:
        raise CatalogError(f"{blk.where()}: a bisection case needs an even root, for Q at q^(n/2); got {root}")
    thm, params = _parse_theorem(blk, root)
    sign, at = blk.value("sign")
    if sign not in ("+", "-"):
        raise CatalogError(f"{at}: sign must be '+' or '-', got {sign!r}")
    deg_q = _int(*blk.value("deg-q"))
    if deg_q < 0:
        raise CatalogError(f"{blk.where('deg-q')}: deg-q must be nonnegative, got {deg_q}")
    pp = _parse_recipe(f"{blk.name}-pp", blk, root, "pp-")
    emit_id = blk.value("emit-id")[0]
    t = _parse_recipe(emit_id, blk, root, "t-", (pp.lhs_num, pp.lhs_den))
    (texp, ypow), fe_a, _ = _derive(blk, "A = t(2n)/pp(n)", [(1, t, 2, 0, "t-"), (-1, pp, 1, 0, "pp-")],
                                    polynomial=True)
    if texp or ypow:
        raise CatalogError(f"{blk.where('t-pref')}: A = t(2n)/pp(n) has the monomial t^{texp}*y^{ypow}, not 1")
    fe_shift, fe_b, _ = _derive(blk, "shift*B = t(2n+1)/pp(n)", [(1, t, 2, 1, "t-"), (-1, pp, 1, 0, "pp-")],
                                polynomial=True)
    if fe_shift[0] < 0:
        raise CatalogError(f"{blk.where('t-pref')}: the shift t^{fe_shift[0]}*y^{fe_shift[1]} has a negative t-exponent")
    theta = bind_theorem(thm, params, root)._replace(w_num=(), w_den=())
    (texp, ypow), clear_num, clear_den = _derive(
        blk, "clearing factor", [(1, theta, 1, 0, None), (-1, pp, 1, 0, "pp-")], normalized=True)
    if texp or ypow:
        raise CatalogError(f"{blk.where('pp-pref')}: the clearing factor has the monomial t^{texp}*y^{ypow}, not 1")
    return BisectionCase(
        id=blk.name, theorem=thm, params=params, root=root,
        clear_num=clear_num, clear_den=clear_den,
        fe_a=fe_a, fe_shift=fe_shift, fe_b=fe_b,
        deg_q=deg_q, sign=sign, pp=pp, t=t, emit_id=emit_id,
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
    bisected = []   # (index in records, block): the recipe is read once every case is
    for blk in _blocks(text):
        if blk.kind == "root":
            root = _int(blk.name, blk.where())
            if root <= 0:
                raise CatalogError(f"{blk.where()}: root must be positive")
            continue
        if blk.kind == "case":
            if blk.name in cases:
                raise CatalogError(f"{blk.where()}: duplicate case id")
            _check_keys(blk, "case")
            cases[blk.name] = _parse_case(blk, root)
            continue
        if blk.name in seen:
            raise CatalogError(f"{blk.where()}: duplicate record id")
        seen.add(blk.name)
        rkind, at = blk.value("kind", "theorem")
        if rkind not in ("theorem", "explicit", "bisected"):
            raise CatalogError(f"{at}: unknown kind {rkind!r}")
        _check_keys(blk, rkind)
        section = blk.value("section", "?")[0]
        classical = _parse_classical(blk)
        if rkind == "theorem":
            thm, params = _parse_theorem(blk, root)
            records.append(IdentityRecord(blk.name, rkind, section, thm, params, root,
                                          bind_theorem(thm, params, root), None, classical))
        elif rkind == "explicit":
            records.append(IdentityRecord(blk.name, rkind, section, None, None, root,
                                          _parse_recipe(blk.name, blk, root), None, classical))
        else:
            bisected.append((len(records), blk))
            records.append(IdentityRecord(blk.name, rkind, section, None, None, root, None, None, classical))
    for i, blk in bisected:
        cid, at = blk.value("case")
        case = cases.get(cid)
        if case is None:
            raise CatalogError(f"{at}: unknown bisection case {cid!r}")
        records[i] = records[i]._replace(root=case.root, recipe=_parse_bisected(blk, case), case=cid)
    return Catalog(root, records, cases)


# ------------------------------------------------------------- verification


class VerificationReport:
    """The outcome of one record's verification (see to_json for its payload)."""

    __slots__ = ("id", "status", "first_diff_exp", "lhs_coeff", "rhs_coeff", "terms_used", "order",
                 "elapsed_ms", "cause")

    def __init__(self, id: str, status: str, first_diff_exp: int | None, lhs_coeff: str | None,
                 rhs_coeff: str | None, terms_used: int, order: int, elapsed_ms: float,
                 cause: str | None = None):
        self.id = id
        self.status = status                  # verified | mismatch | unverified
        self.first_diff_exp = first_diff_exp
        self.lhs_coeff = lhs_coeff
        self.rhs_coeff = rhs_coeff
        self.terms_used = terms_used
        self.order = order
        self.elapsed_ms = elapsed_ms
        self.cause = cause

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
    s_order = -(-order // g)
    bsh = None
    if rec.kind == "theorem" and has_unit_factor(bt):
        bsh = bind_theorem(rec.theorem, *shadow_params(rec.params, rec.root))
    lhs, net, phi = theorem_lhs(bt, s_order, shadow=bsh)
    res = theorem_series(bt, s_order, shadow=bsh, expected_net=net, divisor=phi)
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
    except (ArithmeticError, ValueError) as exc:
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

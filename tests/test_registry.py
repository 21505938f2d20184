"""Catalog loading, validation, and the verification driver."""

import re
import textwrap
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qseries.registry import (
    CatalogError,
    _blocks,
    _frac,
    _parse_recipe,
    load_catalog,
    verify_all,
    verify_identity,
)


@pytest.fixture(scope="module")
def cat():
    return load_catalog()


def test_shipped_catalog_size(cat):
    assert len(cat.records) >= 38
    ids = [r.id for r in cat.records]
    assert len(ids) == len(set(ids))
    assert set(cat.cases) == {"v1x3", "v3x1"}


def test_every_record_has_classical(cat):
    assert all(r.classical is not None for r in cat.records)


def test_empty_catalog(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("# nothing here\nroot 12\n")
    c = load_catalog(p)
    assert len(c.records) == 0
    assert verify_all(c) == []


def test_bad_exponent_rejected(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text(
        textwrap.dedent(
            """
            root 12
            record broken
              kind theorem
              theorem 2U
              section 3.1
              a 1/5
              b 1
              c 1
              d 1
            end
            """
        )
    )
    with pytest.raises(CatalogError) as exc:
        load_catalog(p)
    assert "broken" in str(exc.value)


_CATALOG = resources.files("qseries").joinpath("data/catalog.txt").read_text()


def _line(key, block=None):
    """The shipped catalog's line number of the first line '  key ...' after the
    header line block (from the top without one), as _mutated and
    _edited_in_block find it; with key None, of the header itself."""
    start = _CATALOG.index(f"\n{block}\n") + 1 if block else 0
    if key is not None:
        start = _CATALOG.index(f"\n  {key} ", start) + 1
    return _CATALOG.count("\n", 0, start) + 1


def _mutated(tmp_path, key, edit):
    """The shipped catalog with the first line starting with key rewritten by edit."""
    text = resources.files("qseries").joinpath("data/catalog.txt").read_text()
    start = text.index(f"\n  {key} ") + 1
    end = text.index("\n", start)
    p = tmp_path / "catalog.txt"
    p.write_text(text[:start] + edit(text[start:end]) + text[end:])
    return p


# Fraction's string grammar on Python 3.10, the one the catalog keeps on every
# Python: 3.11 adds underscores and 3.12 whitespace around the slash
_RATIONAL_3_10 = re.compile(r"""
    \A\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*)
    (?:(?:/(?P<denom>\d+))?|(?:\.(?P<decimal>\d*))?(?:E(?P<exp>[-+]?\d+))?)
    \s*\Z
""", re.VERBOSE | re.IGNORECASE)


def _fraction_or_error(text):
    if not _RATIONAL_3_10.match(text):
        return CatalogError
    try:
        return Fraction(text)
    except ZeroDivisionError:
        return CatalogError


def _parsed_or_error(text):
    try:
        return _frac(text, "record x (line 7)")
    except CatalogError as exc:
        assert str(exc) == f"record x (line 7): bad rational {text!r}"
        return CatalogError


_PIECES = ("", "", "+", "-", "/", "/", " / ", "/-", "/+", ".", "e", "E-", "_", " ", "\t", "+-")
_DIGITS = st.text(alphabet="0123456789\u0662\uff13\u00b3", max_size=3)   # Arabic-Indic, fullwidth, superscript
# number-like tokens: digit runs joined by signs, slashes, points, exponents, underscores and spaces
_NUMBER_LIKE = st.lists(st.tuples(st.sampled_from(_PIECES), _DIGITS), min_size=1, max_size=3).map(
    lambda parts: "".join(p + d for p, d in parts)) | st.from_regex(
    r"\A\s?[+-]{0,2}\d{0,3}(_\d{0,2})?(\s?/\s?[+-]?\d{0,3}(_\d)?|\.\d{0,2})?([eE][+-]?\d{0,2})?\s?\Z")


@settings(max_examples=500, deadline=None)
@given(text=_NUMBER_LIKE | st.text(alphabet="0123456789+-/._eE \t\u0662\uff13\u00b3", max_size=8))
@example(text="1/-2")
@example(text="1/ 2")
@example(text="1 / 2")
@example(text=" 1/2 ")
@example(text="1_000")
@example(text="1.5")
@example(text="1e3")
@example(text="+3")
@example(text=" -2 ")
@example(text="3/0")
def test_rational_token_parses_as_fraction_does(text):
    """The catalog's rational parser gives Fraction(text)'s value under the 3.10 grammar, or a located CatalogError."""
    got = _parsed_or_error(text)
    assert got == _fraction_or_error(text)
    if got is not CatalogError:
        # an integer token stays an int; every other value is a Fraction
        assert type(got) is (int if (text[1:] if text[:1] in "+-" else text).isdecimal() else Fraction)


@pytest.mark.parametrize("text", ["1 / 16", "1_000", "1 /16", "1/ 16", "1_0/3", "1/1_6", "1.5_0"])
def test_later_fraction_grammar_is_refused(text):
    # Fraction(text) takes these on some Python newer than 3.10; the catalog takes them on none
    assert _parsed_or_error(text) is CatalogError


def test_non_integer_prefactor_is_a_located_catalog_error(tmp_path):
    p = _mutated(tmp_path, "t-pref", lambda line: "  t-pref 9 -1/2 0")
    with pytest.raises(CatalogError) as exc:
        load_catalog(p)
    assert str(exc.value).startswith("case v1x3 (line ")
    assert "bad integer '-1/2'" in str(exc.value)


def test_zero_denominator_is_a_located_catalog_error(tmp_path):
    p = _mutated(tmp_path, "classical-lower", lambda line: line + " 1/0")
    with pytest.raises(CatalogError) as exc:
        load_catalog(p)
    assert str(exc.value) == f"record g1x5pp (line {_line('classical-lower')}): bad rational '1/0'"


@pytest.mark.parametrize("key, edit, message", [
    # a value error names the line of its own key, also deep in a case's series
    ("a", lambda line: "  a 1/x", f"record g1x5pp (line {_line('a')}): bad rational '1/x'"),
    ("pp-poch-den", lambda line: line + " 1:1:m",
     f"case v1x3 (line {_line('pp-poch-den')}): bad count 'm'"),
    ("t-w-den", lambda line: "  t-w-den 0:1/5", f"case v1x3 (line {_line('t-w-den')}): exponent 1/5 is not a multiple of 1/12"),
    ("qpoly", lambda line: line + "\n  qpoly 0 1", f"record v1x3a (line {_line('qpoly') + 1}): qpoly line needs 'ypow coeff qexp'"),
], ids=["record-parameter", "case-pp-poch", "case-t-w-den", "second-qpoly"])
def test_value_error_names_its_key_line(tmp_path, key, edit, message):
    with pytest.raises(CatalogError) as exc:
        load_catalog(_mutated(tmp_path, key, edit))
    assert str(exc.value) == message


def test_negative_factorial_power_rejected(tmp_path):
    p = _mutated(tmp_path, "classical-fnum", lambda line: line.rsplit(":", 1)[0] + ":-1")
    with pytest.raises(CatalogError, match="power must be nonnegative"):
        load_catalog(p)


@pytest.mark.parametrize("edit", [
    lambda line: line + "\n  classical-rate 0",
    lambda line: line + "\n  classical-rate -1",
    lambda line: line + "\n  classical-rate 2",
    lambda line: line + "\n  classical-rate 1",
    lambda line: line + "\n  classical-rate -27/16",
    lambda line: "  classical-base 2",
    lambda line: "  classical-base 0",
], ids=["rate-0", "rate-minus-1", "rate-2", "rate-1-declared", "rate-minus-27/16", "base-2", "base-0"])
def test_unusable_classical_rate_is_a_located_catalog_error(tmp_path, edit):
    p = _mutated(tmp_path, "classical-base", edit)
    with pytest.raises(CatalogError) as exc:
        load_catalog(p)
    assert str(exc.value).startswith(f"record g1x5pp (line {_line(None, 'record g1x5pp')}): classical rate ")
    assert str(exc.value).endswith("needs 0 < |rate| < 1")


def test_default_rate_one_without_geometric_factor(tmp_path):
    p = _mutated(tmp_path, "classical-base", lambda line: "")
    assert load_catalog(p).get("g1x5pp").classical.rate == 1


# The five keys each case carried before they were derived, in catalog units
# (exponents of q; atoms exp:ypow:mult stand for (1 - q^exp*y^ypow), y = q^n).
_SHIPPED_KEYS = {
    "v1x3": {"clear-num": "4/3:2:2 1:3:1 2:3:1 3/2:3:1 5/2:3:1 1:0:1 5/6:1:1", "clear-den": "1/3:1:1 1/2:2:1",
             "fe-a": "4/3:2:2 3/2:3:1 2:3:1 5/2:3:1", "fe-shift": "4/3 3",
             "fe-b": "1/2:1:2 5/6:1:1 1/2:2:1 2/3:2:1"},
    "v3x1": {"clear-num": "1:2:2 1:3:1 2:3:1 1/2:3:1 3/2:3:1 1/3:0:1 1/6:1:1", "clear-den": "1/6:1:1 1/6:2:1",
             "fe-a": "1:2:2 1:3:1 2:3:1 3/2:3:1", "fe-shift": "5/6 3",
             "fe-b": "1/3:1:2 2/3:1:1 1/3:2:1 1/6:2:1"},
}


def _signed(num, den=()):
    """Atoms (t-exp, y-power, multiplicity) as a signed multiset: numerator +, denominator -."""
    out = {}
    for atoms, sign in ((num, 1), (den, -1)):
        for texp, ypow, mult in atoms:
            out[texp, ypow] = out.get((texp, ypow), 0) + sign * mult
    return {k: m for k, m in out.items() if m}


def _shipped_atoms(text):
    return [(int(Fraction(e) * 12), int(y), int(m)) for e, y, m in (tok.split(":") for tok in text.split())]


@pytest.mark.parametrize("cid", ["v1x3", "v3x1"])
def test_derived_case_fields_equal_the_shipped_keys(cat, cid):
    case, keys = cat.cases[cid], _SHIPPED_KEYS[cid]
    exp, ypow = keys["fe-shift"].split()
    assert case.fe_shift == (int(Fraction(exp) * 12), int(ypow))
    assert _signed(case.fe_a) == _signed(_shipped_atoms(keys["fe-a"]))
    assert _signed(case.fe_b) == _signed(_shipped_atoms(keys["fe-b"]))
    assert _signed(case.clear_num, case.clear_den) == _signed(
        _shipped_atoms(keys["clear-num"]), _shipped_atoms(keys["clear-den"]))


@pytest.mark.parametrize("edits, message", [
    ({"t-poch-num 1/2:1:n ": "t-poch-num 1/3:1:n "},
     f"case v1x3 (line {_line('t-poch-num', 'case v1x3')}): A = t(2n)/pp(n): Pochhammer block (1*t^4; t^24) "
     "does not cancel"),
    ({"t-w-den 0:1": "t-w-den 1/12:1"},
     f"case v1x3 (line {_line('t-w-den', 'case v1x3')}): A = t(2n)/pp(n): y-power 2/12 is not an integer"),
    ({"3/2:1/2:3n": "3/2:1/2:3n+4"},
     f"case v1x3 (line {_line('t-poch-den', 'case v1x3')}): A = t(2n)/pp(n): denominator atom (1 - t^36*y^3)"),
    ({"t-poch-num 1/2:1:n ": "t-poch-num 1/2:1:n-1 "},
     f"case v1x3 (line {_line('t-poch-num', 'case v1x3')}): A = t(2n)/pp(n): atom (1 - 1*t^-6*y^2) "
     "is not (1 - t^a*y^b) with a >= 0"),
    ({"t-pref 9 7 0": "t-pref 9 7 1"},
     f"case v1x3 (line {_line('t-pref', 'case v1x3')}): A = t(2n)/pp(n) has the monomial t^1*y^0, not 1"),
    ({"pp-pref 36 14 0": "pp-pref 32 14 0"},
     f"case v1x3 (line {_line('pp-pref', 'case v1x3')}): A = t(2n)/pp(n): the prefactors differ by "
     "t^(4n^2 + ...), not a monomial"),
    ({"t-pref 9 7 0": "t-pref 9 -12 0", "pp-pref 36 14 0": "pp-pref 36 -24 0"},
     f"case v1x3 (line {_line('t-pref', 'case v1x3')}): the shift t^-3*y^3 has a negative t-exponent"),
    ({"pp-lhs-num 1 1 5/6 5/6": "pp-lhs-num 1 1 5/6 1/6"},
     f"case v1x3 (line {_line('pp-lhs-num', 'case v1x3')}): clearing factor: infinite product (1*t^2; t^12) "
     "does not cancel"),
    ({"t-pref 9 7 0": "t-pref 9 7 1", "pp-pref 36 14 0": "pp-pref 36 14 1"},
     f"case v1x3 (line {_line('pp-pref', 'case v1x3')}): the clearing factor has the monomial t^-1*y^0, not 1"),
], ids=["residue-block-left", "non-integral-y-power", "denominator-atom-in-A", "negative-t-exponent-atom",
        "non-unit-monomial-in-A", "prefactors-not-a-monomial", "negative-shift", "product-side-not-finite",
        "non-unit-clearing-monomial"])
def test_underivable_case_is_a_located_catalog_error(tmp_path, edits, message):
    # the derived A, B, shift and clearing factor refuse what is not a monomial
    # times atoms (1 - t^a*y^b), at the line of a key that makes it so
    text = resources.files("qseries").joinpath("data/catalog.txt").read_text()
    start, end = text.index("\ncase v1x3\n"), text.index("\ncase v3x1\n")
    block = text[start:end]
    for old, new in edits.items():
        assert block.count(old) == 1
        block = block.replace(old, new)
    p = tmp_path / "catalog.txt"
    p.write_text(text[:start] + block + text[end:])
    with pytest.raises(CatalogError) as exc:
        load_catalog(p)
    assert str(exc.value) == message


@pytest.mark.parametrize("key, line, reason", [
    ("deg-q", "  deg-q -1", "deg-q must be nonnegative"),
], ids=["negative-deg-q"])
def test_bad_functional_equation_data_is_a_located_catalog_error(tmp_path, key, line, reason):
    p = _mutated(tmp_path, key, lambda _: line)
    with pytest.raises(CatalogError) as exc:
        load_catalog(p)
    assert str(exc.value).startswith("case v1x3 (line ")
    assert reason in str(exc.value)


@pytest.mark.parametrize("key, edit, message", [
    # a key error names the line of the key itself (the repeat, for a duplicate)
    ("w-num", lambda line: line + "\n  leading-on true",
     f"record u2-05 (line {_line('w-num') + 1}): unknown key 'leading-on' (kind explicit)"),
    ("a", lambda line: line + "\n  pref 12 8 0",
     f"record g1x5pp (line {_line('a') + 1}): unknown key 'pref' (kind theorem)"),
    ("w-num", lambda line: line + "\n" + line, f"record u2-05 (line {_line('w-num') + 1}): duplicate key 'w-num'"),
    ("classical-fnum", lambda line: line + "\n" + line,
     f"record w1+1+1a (line {_line('classical-fnum') + 1}): duplicate key 'classical-fnum'"),
    ("t-w-den", lambda line: line + "\n" + line,
     f"case v1x3 (line {_line('t-w-den') + 1}): duplicate key 't-w-den'"),
    ("classical-value", lambda line: "",
     f"record g1x5pp (line {_line(None, 'record g1x5pp')}): classical keys without classical-value"),
    ("qpoly", lambda line: line + "\n  leading-on true",
     f"record v1x3a (line {_line('qpoly') + 1}): unknown key 'leading-on' (kind bisected)"),
    ("t-poch-den", lambda line: line + "\n  leading-on true",
     f"case v1x3 (line {_line('t-poch-den') + 1}): unknown key 'leading-on' (kind case)"),
    ("deg-q", lambda line: line + "\n  fe-a 4/3:2:2 3/2:3:1 2:3:1 5/2:3:1",
     f"case v1x3 (line {_line('deg-q') + 1}): unknown key 'fe-a' (kind case)"),
    ("w-num", lambda line: line + "\n  case v1x3",
     f"record u2-05 (line {_line('w-num') + 1}): unknown key 'case' (kind explicit)"),
    ("w-num", lambda line: line + "\n  sign -",
     f"record u2-05 (line {_line('w-num') + 1}): unknown key 'sign' (kind explicit)"),
], ids=["misspelt-key", "pref-on-theorem", "second-w-num", "second-classical-fnum", "second-t-w-den",
        "classical-without-value", "misspelt-key-deep-in-bisected", "misspelt-key-deep-in-case",
        "derived-key-on-case", "case-on-explicit", "sign-on-explicit"])
def test_unread_or_repeated_key_is_a_located_catalog_error(tmp_path, key, edit, message):
    with pytest.raises(CatalogError) as exc:
        load_catalog(_mutated(tmp_path, key, edit))
    assert str(exc.value) == message


@pytest.mark.parametrize("key, edit, message", [
    ("sign", lambda line: "  sign +", f"record v1x3a (line {_line('sign')}): sign + contradicts sign-alt true"),
    ("sign", lambda line: "  sign x", f"record v1x3a (line {_line('sign')}): sign must be '+' or '-', got 'x'"),
    ("sign-alt", lambda line: "  sign-alt false",
     f"record v1x3a (line {_line('sign')}): sign - contradicts sign-alt false"),
], ids=["plus-with-alternation", "not-a-sign", "minus-without-alternation"])
def test_bisected_sign_must_agree_with_sign_alt(tmp_path, key, edit, message):
    with pytest.raises(CatalogError) as exc:
        load_catalog(_mutated(tmp_path, key, edit))
    assert str(exc.value) == message


def test_bisected_sign_plus_without_alternation_loads(tmp_path):
    p = _mutated(tmp_path, "sign", lambda line: "  sign +")
    p.write_text(p.read_text().replace("  sign-alt true\n", "", 1)  # v1x3a's, the first
                 .replace("deg-q 6\n  sign -", "deg-q 6\n  sign +", 1))  # and its case's
    rec = load_catalog(p).get("v1x3a")
    assert rec.sign == "+" and not rec.recipe.sign_alt


def test_bisected_sign_must_equal_its_case_sign(tmp_path):
    p = _mutated(tmp_path, "sign", lambda line: "  sign +")
    p.write_text(p.read_text().replace("  sign-alt true\n", "", 1))
    with pytest.raises(CatalogError) as exc:
        load_catalog(p)
    assert str(exc.value) == f"record v1x3a (line {_line('sign')}): sign + contradicts case v1x3's sign -"


def _edited_in_block(tmp_path, header, old, new):
    """The shipped catalog with the first line old after header replaced by new."""
    text = resources.files("qseries").joinpath("data/catalog.txt").read_text()
    start = text.index("\n" + old + "\n", text.index(f"\n{header}\n")) + 1
    p = tmp_path / "catalog.txt"
    p.write_text(text[:start] + new + text[start + len(old):])
    return p


@pytest.mark.parametrize("old, new, message", [
    ("  theorem 3U", "  theorem 9Z", f"case v1x3 (line {_line('theorem', 'case v1x3')}): unknown theorem '9Z'"),
    ("  a 4/3", "  a 4/5",
     f"case v1x3 (line {_line('a', 'case v1x3')}): exponent 4/5 is not a multiple of 1/12"),
    ("  sign -", "  sign x", f"case v1x3 (line {_line('sign', 'case v1x3')}): sign must be '+' or '-', got 'x'"),
    ("  sign -", "  sign +", f"record v1x3a (line {_line('sign')}): sign - contradicts case v1x3's sign +"),
], ids=["unknown-theorem", "off-root-parameter", "not-a-sign", "record-contradicts-case"])
def test_bad_case_header_is_a_located_catalog_error(tmp_path, old, new, message):
    with pytest.raises(CatalogError) as exc:
        load_catalog(_edited_in_block(tmp_path, "case v1x3", old, new))
    assert str(exc.value) == message


@pytest.mark.parametrize("step", ["0", "-1"])
@pytest.mark.parametrize("header, old, factor, where", [
    ("record u2-06", "  poch-num 1/6:1:n 5/6:1:n 7/6:1:n -7/6:1:n 13/6:1:n 19/6:1:n 11/6:1:2n",
     "-7/6:1:n", f"record u2-06 (line {_line('poch-num', 'record u2-06')})"),
    ("case v1x3", "  pp-poch-den 4/3:1:2n+1 4/3:1:2n+1 3/2:1/2:6n+3", "3/2:1/2:6n+3",
     f"case v1x3 (line {_line('pp-poch-den', 'case v1x3')})"),
], ids=["record-poch-num", "case-pp-poch-den"])
def test_poch_step_must_be_positive(tmp_path, header, old, factor, where, step):
    exp, _, count = factor.split(":")
    p = _edited_in_block(tmp_path, header, old, old.replace(factor, f"{exp}:{step}:{count}"))
    with pytest.raises(CatalogError) as exc:
        load_catalog(p)
    assert str(exc.value) == f"{where}: Pochhammer step must be positive, got {step}"


@pytest.mark.parametrize("header, old, new, where", [
    ("record u2-06", "  pref 12 8 0", "  pref 0 8 0", f"record u2-06 (line {_line('pref', 'record u2-06')}): pref"),
    ("record u2-06", "  pref 12 8 0", "  pref -12 8 0", f"record u2-06 (line {_line('pref', 'record u2-06')}): pref"),
    ("case v1x3", "  pp-pref 36 14 0", "  pp-pref 0 14 0", f"case v1x3 (line {_line('pp-pref', 'case v1x3')}): pp-pref"),
    ("case v1x3", "  t-pref 9 7 0", "  t-pref -9 7 0", f"case v1x3 (line {_line('t-pref', 'case v1x3')}): t-pref"),
], ids=["record-zero", "record-negative", "case-pp-zero", "case-t-negative"])
def test_pref_needs_a_positive_quadratic_coefficient(tmp_path, header, old, new, where):
    with pytest.raises(CatalogError) as exc:
        load_catalog(_edited_in_block(tmp_path, header, old, new))
    quad = new.split()[1]
    assert str(exc.value) == f"{where} needs a positive quadratic coefficient, got {quad}"


def test_note_is_a_comment_key(cat, tmp_path):
    p = _mutated(tmp_path, "deg-q", lambda line: line + "\n  note first\n  note second")
    assert load_catalog(p).cases == cat.cases


def test_theorem_record_keeps_its_bound_recipe(cat):
    from qseries.theorems import bind_theorem

    for rec in cat.records:
        if rec.kind == "theorem":
            assert rec.recipe == bind_theorem(rec.theorem, rec.params, rec.root)


def test_duplicate_id_rejected(tmp_path):
    p = tmp_path / "dup.txt"
    block = "record x\n kind theorem\n theorem 2U\n section 3\n a 1\n b 1\n c 1\n d 1/2\nend\n"
    p.write_text("root 12\n" + block + block)
    with pytest.raises(CatalogError):
        load_catalog(p)


def test_duplicate_case_id_is_a_located_catalog_error(tmp_path):
    # a second case v1x3 must not replace the first
    text = resources.files("qseries").joinpath("data/catalog.txt").read_text()
    start = text.index("\ncase v1x3\n") + 1
    block = text[start:text.index("\nend\n", start) + 5]
    assert "  deg-q 6\n" in block
    p = tmp_path / "catalog.txt"
    p.write_text(text + "\n" + block.replace("  deg-q 6\n", "  deg-q 2\n"))
    line = text.count("\n") + 2
    with pytest.raises(CatalogError) as exc:
        load_catalog(p)
    assert str(exc.value) == f"case v1x3 (line {line}): duplicate case id"


def test_unterminated_block_rejected(tmp_path):
    p = tmp_path / "open.txt"
    p.write_text("root 12\nrecord x\n kind theorem\n")
    with pytest.raises(CatalogError):
        load_catalog(p)


def test_verify_identity_g1x5pp(cat):
    rep = verify_identity(cat.get("g1x5pp"), order=200)
    assert rep.status == "verified"
    assert rep.order == 200


def test_verify_v3x1a_bisected(cat):
    rep = verify_identity(cat.get("v3x1a"), order=120)
    assert rep.status == "verified"


def test_trivial_low_order(cat):
    # order 1 sees only the constant term 1 = 1
    rep = verify_identity(cat.get("g1x5pp"), order=1)
    assert rep.status == "verified"


def test_truncation_monotonicity(cat):
    # a record verified at some order is verified at any smaller order
    for rid in ("g1x5pp", "u2-09", "v3-02", "w1+2e"):
        for order in (37, 83, 150):
            assert verify_identity(cat.get(rid), order=order).status == "verified"


def test_leading_terms_agree_before_full_expansion(cat):
    # cheap smoke test ahead of a deep verification: the two sides share the
    # same valuation and leading coefficient; products with all-positive
    # valuation arguments are normalized with constant term 1
    from qseries.registry import record_sides

    for rec in cat.records[:8]:
        lhs, rhs, _ = record_sides(rec, 30)
        assert lhs.minexp == rhs.minexp
        assert lhs.coeffs[0] == rhs.coeffs[0]
        num, den = rec.lhs_exponents()
        if all(e > 0 for e in num + den):
            assert lhs.minexp == 0 and lhs.coeff(0) == 1


def test_mismatch_reported_not_raised(cat, tmp_path):
    # perturb one parameter of a valid record: the report carries the first
    # differing exponent instead of raising
    p = tmp_path / "typo.txt"
    p.write_text(
        textwrap.dedent(
            """
            root 12
            record typo
              kind theorem
              theorem 2U
              section 3.1
              a 3/2
              b 1
              c 1
              d 11/12
            end
            """
        )
    )
    rec = load_catalog(p).get("typo")
    rep = verify_identity(rec, order=120)
    assert rep.status in ("mismatch", "verified")
    if rep.status == "mismatch":
        assert rep.first_diff_exp is not None
        assert rep.lhs_coeff != rep.rhs_coeff


def test_larger_root_catalog(tmp_path):
    # a catalog may request a larger root; exponents still validate against it
    p = tmp_path / "root24.txt"
    p.write_text(
        textwrap.dedent(
            """
            root 24
            record fine
              kind theorem
              theorem 2U
              section 3.1
              a 3/2
              b 1
              c 1
              d 5/6
            end
            record finer
              kind theorem
              theorem 3U
              section 4.2
              a 13/24
              b 1/3
              c 1/3
              d 1/3
            end
            """
        )
    )
    c = load_catalog(p)
    assert c.root == 24
    rep = verify_identity(c.get("fine"), order=120)
    assert rep.status == "verified"
    # 13/24 is not representable at root 12 but is valid here; the identity
    # itself is a fresh specialization and must also verify
    rep2 = verify_identity(c.get("finer"), order=120)
    assert rep2.status == "verified"


def test_lhs_exponent_lists_are_balanced(cat):
    # regularized records carry the vanishing q^0 denominator entry, which
    # is dropped together with its series factor; all others must balance
    for rec in cat.records:
        num, den = rec.lhs_exponents()
        if any(e == 0 for e in num + den):
            continue
        assert sum(num) == sum(den), rec.id


def test_case_poch_lines_follow_the_record_rules(cat, tmp_path):
    # a case's *-poch-* line is optional, and '-' stands for no factor; t
    # without Pochhammer blocks leaves pp's uncancelled, which loading refuses
    p = _mutated(tmp_path, "t-poch-num", lambda line: "  t-poch-num -")
    p.write_text(p.read_text().replace("  t-poch-den 4/3:1:n 4/3:1:n 3/2:1/2:3n\n", "", 1))
    blk = next(b for b in _blocks(p.read_text()) if (b.kind, b.name) == ("case", "v1x3"))
    case = cat.cases["v1x3"]
    t = _parse_recipe("v1x3a", blk, 12, "t-", (case.pp.lhs_num, case.pp.lhs_den))
    assert t.poch_num == t.poch_den == ()
    assert _parse_recipe("v1x3-pp", blk, 12, "pp-") == case.pp
    with pytest.raises(CatalogError) as exc:
        load_catalog(p)
    assert str(exc.value) == (f"case v1x3 (line {_line('pp-poch-num', 'case v1x3')}): A = t(2n)/pp(n): "
                              "Pochhammer block (1*t^6; t^24) does not cancel")

"""CLI surface: exit codes, JSON determinism, env-var catalog override."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from qseries.cli import main

DATA = Path(__file__).parent / "data"
SRC = str(Path(__file__).parent.parent / "src")


def run_cli(*args):
    # the child finds the package from a source checkout too, as pytest does
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "qseries.cli", *args],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    return proc


def test_list_row_count():
    proc = run_cli("--json", "list")
    rows = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert len(rows) >= 38
    assert {"id", "kind", "theorem", "section", "root", "classical"} <= set(rows[0])


def test_list_section_filter():
    rows3 = json.loads(run_cli("--json", "list", "--section", "3").stdout)
    rows4 = json.loads(run_cli("--json", "list", "--section", "4").stdout)
    assert all(r["section"].startswith("3") for r in rows3)
    assert len(rows3) >= 19
    assert len(rows3) + len(rows4) == len(json.loads(run_cli("--json", "list").stdout))


def test_list_empty_section(capsys):
    assert main(["list", "--section", "9"]) == 0
    assert capsys.readouterr().out == "0 records\n"
    assert main(["--json", "list", "--section", "9"]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_verify_single_json():
    proc = run_cli("--json", "verify", "g1x5pp", "--order", "120")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["status"] == "verified"
    assert payload["order"] == 120
    assert "elapsed_ms" not in payload  # timing goes to stderr
    assert "elapsed" in proc.stderr


def test_verify_unknown_id_exits_2():
    proc = run_cli("verify", "no-such-id")
    assert proc.returncode == 2


@pytest.mark.parametrize("command", [("verify", "g1x5pp"), ("verify-all",)], ids=["verify", "verify-all"])
@pytest.mark.parametrize("order", ["0", "-1"])
def test_verify_rejects_order_below_one(capsys, command, order):
    with pytest.raises(SystemExit) as exc:
        main(["--json", *command, "--order", order])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "--order" in out.err and "must be at least 1" in out.err
    assert out.out == ""


def test_json_is_deterministic():
    a = run_cli("--json", "verify", "u2-09", "--order", "80").stdout
    b = run_cli("--json", "verify", "u2-09", "--order", "80").stdout
    assert a == b


def test_oracle_jackson_trivial():
    proc = run_cli("--json", "oracle", "jackson", "--n", "0", "--r", "2/3")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["equal"] is True
    assert payload["lhs"] == "1"


def test_oracle_rejects_bad_n_and_rationals():
    for flags in (("--n", "-1"), ("--r", "x"), ("--r", "1/0"), ("--a", "3/2q"), ("--b", ""),
                  ("--c", "one"), ("--d", "1/0")):
        proc = run_cli("--json", "oracle", "jackson", *flags)
        assert proc.returncode == 2, flags
        assert flags[0] in proc.stderr
        assert proc.stdout == ""


@pytest.mark.parametrize("r", ["0", "1", "2", "-1", "-3/2", "0/5"])
def test_oracle_rejects_r_outside_unit_interval(r):
    # RationalRing needs 0 < |r| < 1; out of that bound is a usage error, not an evaluation failure
    proc = run_cli("--json", "oracle", "jackson", f"--r={r}")
    assert proc.returncode == 2, r
    assert "--r" in proc.stderr and "0 < |r| < 1" in proc.stderr
    assert proc.stdout == ""


def test_oracle_accepts_negative_r_inside_unit_interval():
    proc = run_cli("--json", "oracle", "jackson", "--n", "2", "--r=-1/2")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["r"] == "-1/2" and payload["equal"] is True


@pytest.mark.parametrize("flag, value, field", [("--r", "-1/2", "r"), ("--a", "-3/2", "params")])
def test_oracle_negative_rational_as_separate_token(flag, value, field):
    # argparse's own pattern takes -1 but not -1/2 for a value; both spellings must parse alike
    joined = run_cli("--json", "oracle", "jackson", "--n", "2", f"{flag}={value}")
    spaced = run_cli("--json", "oracle", "jackson", "--n", "2", flag, value)
    assert spaced.returncode == joined.returncode == 0, spaced.stderr
    assert spaced.stdout == joined.stdout
    payload = json.loads(spaced.stdout)
    assert value in (payload[field] if field == "params" else [payload[field]])
    assert payload["equal"] is True


def test_negative_rational_out_of_bound_is_a_usage_error():
    proc = run_cli("--json", "oracle", "jackson", "--r", "-3/2")
    assert proc.returncode == 2
    assert "0 < |r| < 1" in proc.stderr and proc.stdout == ""


def test_limit_json_fields():
    proc = run_cli("--json", "limit", "v3x1", "--terms", "20", "--digits", "30")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert set(payload) == {
        "id", "series_value", "closed_form_value", "abs_diff", "tail_estimate",
        "declared_base", "fitted_base", "terms", "digits",
    }


def test_limit_json_is_byte_identical_to_recorded():
    # recorded before the terms came from compiled integer forms
    proc = run_cli("--json", "limit", "v3x1")
    assert proc.returncode == 0
    assert proc.stdout == (DATA / "limit_v3x1.json").read_text()


def test_limit_rejects_bad_terms_and_digits():
    for flags in (("--terms", "1"), ("--terms", "0"), ("--terms", "-3"), ("--digits", "0")):
        proc = run_cli("--json", "limit", "g1x5pp", *flags)
        assert proc.returncode == 2, flags
        assert flags[0] in proc.stderr
        assert proc.stdout == ""


def test_bisect_json():
    proc = run_cli("--json", "bisect", "v3x1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["sign"] == "-"
    assert payload["degree"] == 6
    assert payload["consistent"] is True
    assert payload["residual_zero"] is True


def test_bisect_degree_search_matches_catalog_degree():
    fixed = run_cli("--json", "bisect", "v1x3")
    searched = run_cli("--json", "bisect", "v1x3", "--max-deg", "8")
    assert fixed.returncode == searched.returncode == 0
    assert searched.stdout == fixed.stdout


def test_bisect_rejects_negative_max_deg():
    proc = run_cli("--json", "bisect", "v1x3", "--max-deg", "-1")
    assert proc.returncode == 2
    assert "--max-deg" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [("v1x3",), ("v3x1",), ("v1x3", "--max-deg", "8")],
                         ids=["v1x3", "v3x1", "v1x3-max-deg-8"])
def test_bisect_json_is_byte_identical_to_recorded(args):
    # recorded before P was built by atom steps on coefficient rows
    proc = run_cli("--json", "bisect", *args)
    name = "_".join(("bisect",) + args).replace("--", "").replace("-", "_")
    assert proc.returncode == 0
    assert proc.stdout == (DATA / f"{name}.json").read_text()


def test_bisect_contradicting_declared_sign_exits_1(tmp_path, capsys):
    # the case alone, declaring '+' where the solver finds '-'
    text = resources.files("qseries").joinpath("data/catalog.txt").read_text()
    case = text[text.index("\ncase v1x3\n") + 1:]
    case = case[:case.index("\nend\n") + 5]
    p = tmp_path / "case.txt"
    p.write_text(case.replace("\n  sign -\n", "\n  sign +\n"))
    assert main(["--catalog", str(p), "--json", "bisect", "v1x3"]) == 1
    out, err = capsys.readouterr()
    assert out == (DATA / "bisect_v1x3.json").read_text()
    assert "case v1x3: solved sign - contradicts the declared sign +" in err


def test_bisect_vanishing_diagonal_exits_1(monkeypatch, capsys):
    # A derived shift has a positive y-power, so no catalog case has a
    # vanishing diagonal; the solver still meets one on the system with
    # shift 1 and B = A, whose y^0 diagonal under '-' is A[0] - B[0] = 0.
    from qseries import bisection

    forward_solve = bisection._forward_solve

    def vanishing(case, system, deg_q, sign):
        P, A, _ = system
        return forward_solve(case._replace(fe_shift=(0, 0)), (P, A, A), deg_q, sign)

    monkeypatch.setattr(bisection, "_forward_solve", vanishing)
    for extra in ((), ("--max-deg", "8")):
        assert main(["--json", "bisect", "v1x3", *extra]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "case v1x3: sign -, y-row 0: the diagonal entry vanishes" in err


def test_env_catalog_override(tmp_path, monkeypatch):
    p = tmp_path / "mini.txt"
    p.write_text(
        "root 12\n"
        "record only\n"
        "  kind theorem\n  theorem 2U\n  section 3.1\n"
        "  a 3/2\n  b 1\n  c 1\n  d 5/6\n"
        "end\n"
    )
    monkeypatch.setenv("QSERIES_CATALOG", str(p))
    assert main(["--json", "list"]) == 0
    monkeypatch.delenv("QSERIES_CATALOG")


def test_verify_all_section_subset():
    proc = run_cli("--json", "verify-all", "--order", "60", "--section", "4.3")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert [p["id"] for p in payload] == ["w1+2d", "w1+2e"]
    assert all(p["status"] == "verified" for p in payload)


def test_verify_all_parallel_matches_serial():
    serial = run_cli("--json", "verify-all", "--order", "60", "--section", "4.1").stdout
    parallel = run_cli("--json", "verify-all", "--order", "60", "--section", "4.1", "--parallel").stdout
    assert json.loads(serial) == json.loads(parallel)


@pytest.mark.parametrize("order", [120, 400])
def test_verify_all_json_is_byte_identical_to_recorded(order):
    # recorded from the engine before root reduction and the carried block
    proc = run_cli("--json", "verify-all", "--order", str(order))
    assert proc.returncode == 0
    assert proc.stdout == (DATA / f"verify_all_t{order}.json").read_text()


def _edited_catalog(tmp_path, header, old, new):
    """(path, line number): the shipped catalog with the first line old after header replaced by new."""
    text = resources.files("qseries").joinpath("data/catalog.txt").read_text()
    start = text.index(f"\n{old}\n", text.index(f"\n{header}\n")) + 1
    p = tmp_path / "catalog.txt"
    p.write_text(text[:start] + new + text[start + len(old):])
    return p, text.count("\n", 0, start) + 1


def test_limit_unknown_id_exits_2(capsys):
    assert main(["--json", "limit", "no-such-id"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "unknown record id 'no-such-id'" in out.err


def test_limit_without_classical_value_exits_2(tmp_path, capsys):
    p = tmp_path / "mini.txt"
    p.write_text("root 12\nrecord only\n  kind theorem\n  theorem 2U\n  a 3/2\n  b 1\n  c 1\n  d 5/6\nend\n")
    assert main(["--catalog", str(p), "--json", "limit", "only"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "record only has no classical limit" in out.err


def test_bisect_unknown_case_exits_2(capsys):
    assert main(["--json", "bisect", "v9x9"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "unknown bisection case 'v9x9'" in out.err


def test_verify_mismatch_exits_1_with_its_first_difference(tmp_path, capsys):
    # every right-side term of u2-05 moved up by t: the constant terms differ
    p, _ = _edited_catalog(tmp_path, "record u2-05", "  pref 12 8 0", "  pref 12 8 1")
    assert main(["--catalog", str(p), "verify", "u2-05", "--order", "40"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "u2-05  mismatch   terms=3    first_diff_exp=0 lhs=1 rhs=0",
        "-- 0/1 verified",
    ]


def test_unverified_report_gives_its_cause(tmp_path, capsys):
    # d = q^-1 makes a weight denominator of v2-12 vanish at n = 1
    p, _ = _edited_catalog(tmp_path, "record v2-12", "  d -1/3", "  d -1")
    cause = "denominator factor (1 - 1*t^(24n-24)) vanishes at n=1"
    assert main(["--catalog", str(p), "verify", "v2-12", "--order", "48"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"v2-12  unverified terms=0    cause={cause}"
    assert main(["--catalog", str(p), "--json", "verify", "v2-12", "--order", "48"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["status"], payload["cause"]) == ("unverified", cause)


def test_json_error_object_on_a_bad_catalog(tmp_path, capsys):
    # a command that raises prints one {"error", "message"} object on stdout and exits 1
    p, line = _edited_catalog(tmp_path, "record g1x5pp", "  classical-base 1/16", "  classical-base 1/x")
    assert main(["--catalog", str(p), "--json", "list"]) == 1
    out = capsys.readouterr()
    message = f"record g1x5pp (line {line}): bad rational '1/x'"
    assert json.loads(out.out) == {"error": "CatalogError", "message": message}
    assert out.err == f"error: {message}\n"

"""End-to-end CLI coverage: every subcommand, both report formats, the
exit-code contract, and byte-for-byte determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import germinv
from germinv.cli import main
from germinv.poly import MAX_TERMS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- mult ----------------------------------------------------------------------

def test_mult(capsys):
    data = run_json(capsys, "mult", "x^3 + y^3 + x^4")
    assert data["order"] == 3
    assert data["degree"] == 4
    assert data["initialForm"] == "x^3 + y^3"
    assert data["vars"] == ["x", "y"]


def test_mult_with_explicit_vars(capsys):
    data = run_json(capsys, "mult", "a^2 + b^5", "--vars", "a,b")
    assert data["order"] == 2
    assert data["vars"] == ["a", "b"]


def test_variable_inference_skips_the_imaginary_unit(capsys):
    data = run_json(capsys, "milnor", "x^2 + i*y^2")
    assert data["vars"] == ["x", "y"]
    assert data["mu"] == 1


# -- milnor --------------------------------------------------------------------

def test_milnor_default_engine(capsys):
    data = run_json(capsys, "milnor", "x^3 + y^3")
    assert data["mu"] == 4
    assert data["method"] == "standard-basis"
    assert data["isolated"] is True
    assert data["staircase"] == ["1", "y", "x", "x*y"]


def test_milnor_oracle_method(capsys):
    data = run_json(capsys, "milnor", "x^3 + y^3", "--method", "truncated-oracle")
    assert data["mu"] == 4
    assert data["method"] == "truncated-oracle"


def test_milnor_fast_path(capsys):
    data = run_json(capsys, "milnor", "x^3 + y^3 + x^4",
                    "--method", "class-A-fast-path")
    assert data["mu"] == 4


def test_milnor_non_isolated(capsys):
    data = run_json(capsys, "milnor", "x^2*y^2")
    assert data["mu"] is None
    assert data["isolated"] is False


def test_undecided_oracle_reports_isolated_null(capsys):
    # no stabilisation by dmax proves nothing: x^2 + y^2 has mu = 1
    for dmax in ("0", "1"):
        data = run_json(capsys, "milnor", "x^2+y^2", "--method", "truncated-oracle",
                        "--dmax", dmax)
        assert data["isolated"] is None
        assert data["mu"] is None
        assert data["note"].startswith("no stabilization within dmax")
    data = run_json(capsys, "milnor", "x^2+y^2", "--method", "truncated-oracle", "--dmax", "3")
    assert data["isolated"] is True and data["mu"] == 1 and "note" not in data


@pytest.mark.parametrize("method", ["truncated-oracle", "standard-basis"])
def test_negative_dmax_exits_2(capsys, method):
    code, out, err = run(capsys, "milnor", "x^2+y^2", "--method", method, "--dmax", "-3")
    assert code == 2
    assert "dmax must be non-negative" in err
    assert not out


@pytest.mark.parametrize("expr, message", [
    ("x^99999999999", "exponent above the maximum of 10000"),
    ("x^10001", "exponent above the maximum of 10000"),
    ("x^" + "9" * 5000, "exponent above the maximum of 10000"),
    ("x^2 + " + "1" * 5000 + "*y^2", "number literal of 5000 characters is too long"),
], ids=["huge", "just-above", "5000-digit-exponent", "5000-digit-literal"])
def test_oversized_numbers_exit_2(capsys, expr, message):
    code, out, err = run(capsys, "milnor", expr)
    assert code == 2
    assert message in err
    assert not out


@pytest.mark.parametrize("argv", [
    ("mult", "x^\u00b2"),
    ("milnor", "x^2+y^\u00b9\u2070"),
    ("milnor", "x^2 + \u00b2*y"),
], ids=["superscript-exponent", "superscript-digits", "superscript-coefficient"])
def test_non_decimal_digits_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "unexpected character" in err
    assert not out


@pytest.mark.parametrize("argv, message", [
    (("milnor", "0.5*x^2 + y^3"), "unexpected character '.' (at position 1)"),
    (("mult", "\u00b2x"), "unexpected character '\u00b2' (at position 0)"),
    (("mult", "0.5*x^2", "--vars", "x"), "unexpected character '.' (at position 1)"),
], ids=["decimal-before-names", "superscript-before-names", "decimal-given-names"])
def test_refused_character_before_any_name_exits_2(capsys, argv, message):
    # name inference reports the character the parser refuses, not "no variables"
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert not out


def test_decimal_digits_of_any_script_parse(capsys):
    data = run_json(capsys, "mult", "x^\u0663 + y^3")
    assert data["order"] == data["degree"] == 3


def test_largest_exponent_is_accepted(capsys):
    data = run_json(capsys, "mult", "x^10000 + y^0010000")
    assert data["order"] == data["degree"] == 10000


@pytest.mark.parametrize("expr", ["(x+y+z)^10000", "(x+y+z)^10000*(x+y+z)^10000"],
                         ids=["power", "product-of-powers"])
def test_oversized_expansions_exit_2_at_once(capsys, expr):
    start = perf_counter()
    code, out, err = run(capsys, "milnor", expr)
    assert perf_counter() - start < 0.1
    assert code == 2
    assert f"expansion of up to 50015001 terms above the maximum of {MAX_TERMS}" in err
    assert not out


def test_large_expansion_is_accepted(capsys):
    data = run_json(capsys, "mult", "(x+y)^1000")
    assert data["order"] == data["degree"] == 1000


def fresh_cli(*argv, timeout):
    """germinv run as a fresh process; a timeout turns a hang into a failure."""
    src = str(Path(germinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from germinv.cli import main; sys.exit(main())",
         *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def test_milnor_dense_germ_finishes_in_a_fresh_process():
    # this germ ran for more than 10 minutes before the engine bounded its
    # work at the highest corner; the timeout turns a hang into a failure
    germ = ("x^2*y - 2*x^4 + x^3*y + 3*x^2*y^2 + 3*x*y^3 + 3*y^4"
            " - 3*x^5 - x^4*y - 3*x^3*y^2 + 3*x*y^4 + y^9")
    proc = fresh_cli("milnor", germ, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["mu"] == 5


@pytest.mark.parametrize("argv, message", [
    (("zeta", "--fermat", "l=1_0,n=2"), "unexpected '_0' (at position 3)"),
    (("zeta", "--fermat", "l=3, n=2/3"), "expected an integer, got '2/3'"),
    (("zeta", "--fermat", "l=3,n=2", "--K", "1_2"), "unexpected '_2' (at position 1)"),
    (("zeta", "--fermat", "l=3,n=2", "--K", "1/2"), "expected an integer, got '1/2'"),
    (("zeta", "--res", "{res}", "--n", "2.0"), "unexpected character '.' (at position 1)"),
    (("charpoly", "--fermat", "l=3,n=2", "--mu", "i"), "expected an integer, got 'i'"),
    (("milnor", "x^2 + y^3", "--dmax", "1_0"), "unexpected '_0' (at position 1)"),
    (("family", "--rescale", "x^2*y + y^5", "--find-line", "--trials", "2_0"),
     "unexpected '_0' (at position 1)"),
    (("family", "--rescale", "x^2*y + y^5", "--find-line", "--seed", "0x10"),
     "unexpected 'x10' (at position 1)"),
    (("family", "--find-alpha", "x^3 + y^3", "--seed", "1e3"),
     "unexpected 'e3' (at position 1)"),
], ids=["fermat-underscore", "fermat-fraction", "K-underscore", "K-fraction", "n-decimal",
        "mu-imaginary", "dmax", "trials", "seed-hex", "seed-exponent"])
def test_integer_options_use_the_expression_grammar(capsys, tmp_path, argv, message):
    res = tmp_path / "res.json"
    res.write_text('[{"m": 2, "chi": 1}, {"m": 3, "chi": 1}, {"m": 6, "chi": -1}]')
    code, out, err = run(capsys, *(a.format(res=res) for a in argv))
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert not out


def test_integer_options_accept_integer_expressions(capsys):
    assert (run_json(capsys, "zeta", "--fermat", "l=3,n=2", "--K", "3^2")
            == run_json(capsys, "zeta", "--fermat", " l = 3 , n = 2 ", "--K", "9"))
    assert (run_json(capsys, "charpoly", "--fermat", "l=3,n=2", "--mu", "2*2")
            == run_json(capsys, "charpoly", "--fermat", "l=3,n=2", "--mu", "4"))


@pytest.mark.parametrize("argv, message", [
    (("family", "--rescale", "x^2*y + y^5", "--line", "1,1/0"),
     "zero denominator in '1/0' (at position 2)"),
    (("family", "--rescale", "x^2*y + y^5", "--ts", "0,1,1/0"),
     "zero denominator in '1/0' (at position 4)"),
    (("family", "--find-alpha", "x^3 + y^3", "--candidates", "2, 1/3,x"),
     "unknown variable 'x' (at position 7)"),
], ids=["line", "ts", "candidates"])
def test_parse_errors_in_a_list_option_give_the_place_in_the_option(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert not out


TPOWER_10000 = ('{"vars": ["x", "y"], "pieces": [{"poly": "x^3 + y^3", "tpower": 0},'
                ' {"poly": "x*y", "tpower": 10000}]}')


def test_family_sample_power_is_bounded_before_it_is_formed(capsys, tmp_path):
    # (10^4299)^10000 has 42990001 digits: forming it ran for minutes
    path = tmp_path / "family.json"
    path.write_text(TPOWER_10000)
    proc = fresh_cli("family", "--file", str(path), "--ts", "10^4299", timeout=20)
    assert proc.returncode == 2
    assert "could exceed the maximum of 4300 digits" in proc.stderr
    assert "Traceback" not in proc.stderr
    start = perf_counter()
    code, out, err = run(capsys, "family", "--file", str(path), "--ts", "10^4299")
    assert perf_counter() - start < 1
    assert code == 2 and not out


def test_family_sample_power_within_the_digit_bound_is_accepted(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(TPOWER_10000)
    data = run_json(capsys, "family", "--file", str(path), "--ts", "0,2,-1/2")  # 2^10000: 3011 digits
    assert [s["mu"] for s in data["profile"]] == [4, 1, 1]
    code, out, err = run(capsys, "family", "--file", str(path), "--ts", "3")  # 3^10000: 4772
    assert code == 2
    assert "t^10000 at a sample could exceed the maximum of 4300 digits" in err


def test_family_default_samples_are_refused_for_a_large_piece_power(capsys, tmp_path):
    # the default samples include 1/4, and (1/4)^10000 has a 6021-digit
    # denominator, so a piece of tpower 10000 needs samples given by --ts
    path = tmp_path / "family.json"
    path.write_text(TPOWER_10000)
    code, out, err = run(capsys, "family", "--file", str(path))
    assert code == 2 and not out
    assert "t^10000 at a sample could exceed the maximum of 4300 digits" in err


# -- zeta ----------------------------------------------------------------------

def test_zeta_fermat(capsys):
    data = run_json(capsys, "zeta", "--fermat", "l=3,n=2", "--K", "9")
    assert data["Lambda"] == [0, 0, -3, 0, 0, -3, 0, 0, -3]
    assert data["Z"] == "(1-t^3)^1"
    assert data["s"] == {"3": -3}
    assert data["mu"] == 4
    assert data["multiplicityBound"] == {"firstNonzero": 3, "lowerBound": 3}


def test_zeta_from_resolution_file(capsys, tmp_path):
    res = [{"m": 2, "chi": 1}, {"m": 3, "chi": 1}, {"m": 6, "chi": -1}]
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(res))
    data = run_json(capsys, "zeta", "--res", str(path), "--n", "2")
    assert data["mu"] == 2
    assert data["Z"] == "(1-t^2)^-1*(1-t^3)^-1*(1-t^6)^1"
    assert data["eulerFiber"] == -1


def test_zeta_horizon_zero_exits_2(capsys):
    code, out, err = run(capsys, "zeta", "--fermat", "l=3,n=2", "--K", "0")
    assert code == 2
    assert "input error" in err
    assert not out


def test_boolean_multiplicity_exits_2(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps([{"m": True, "chi": 1}]))
    code, out, err = run(capsys, "zeta", "--res", str(path), "--n", "2")
    assert code == 2
    assert not out


@pytest.mark.parametrize("command, strata", [
    ("zeta", [{"m": 1, "chi": 0}]),
    ("charpoly", [{"m": 2, "chi": -1}]),
])
def test_nonpositive_variable_count_exits_2(capsys, tmp_path, command, strata):
    path = tmp_path / "res.json"
    path.write_text(json.dumps(strata))
    code, out, err = run(capsys, command, "--res", str(path), "--n", "0")
    assert code == 2
    assert "n >= 1" in err
    assert not out


# -- charpoly ------------------------------------------------------------------

def test_charpoly_fermat(capsys):
    data = run_json(capsys, "charpoly", "--fermat", "l=3,n=2")
    assert data["charpoly"] == "t^4 - t^3 - t + 1"
    assert data["degree"] == 4
    assert data["coeffs"] == [1, -1, 0, -1, 1]


def test_charpoly_from_resolution_file(capsys, tmp_path):
    res = [{"m": 2, "chi": 1}, {"m": 3, "chi": 1}, {"m": 6, "chi": -1}]
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(res))
    data = run_json(capsys, "charpoly", "--res", str(path), "--n", "2")
    assert data["charpoly"] == "t^2 - t + 1"


def test_charpoly_inconsistent_mu_is_an_engine_error(capsys):
    code, out, err = run(capsys, "charpoly", "--fermat", "l=3,n=2", "--mu", "3")
    assert code == 3
    assert "engine diagnostic" in err


# -- discriminate --------------------------------------------------------------

def test_discriminate_not_equisingular(capsys):
    data = run_json(capsys, "discriminate", "x^2*y + y^4", "x^3 + y^3")
    assert data["verdict"] == "NOT_EQUISINGULAR"
    assert data["mu"] == [5, 4]


def test_discriminate_mixed_class_report_is_pinned(capsys):
    code, out, _ = run(capsys, "discriminate", "x^2*y + y^4", "x^3 + y^3")
    assert code == 0
    expected = {
        "caveats": ["cone-complement-chi-unknown"],
        "checks": [
            {"detail": {"order": [3, 3]}, "fired": False,
             "rule": "regular-singular-mismatch"},
            {"detail": {"mu": [5, 4]}, "fired": True, "rule": "mu-mismatch"},
            {"detail": {"windows": [[3, 4], [3, 3]]}, "fired": False,
             "rule": "window-gap"},
            {"detail": {"closedFormBound": [4, 4], "mu": [5, 4],
                        "semihomogeneousSide": 1},
             "fired": True, "rule": "mixed-class-constraint"},
            {"detail": {"chi": [None, -1], "status": "Unknown"}, "fired": False,
             "rule": "cone-chi-criterion"},
        ],
        "classA": [False, True],
        "command": "discriminate",
        "mu": [5, 4],
        "polys": ["x^2*y + y^4", "x^3 + y^3"],
        "vars": ["x", "y"],
        "verdict": "NOT_EQUISINGULAR",
        "windows": [[3, 4], [3, 3]],
    }
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_discriminate_certificate(capsys):
    data = run_json(capsys, "discriminate", "x^3 + y^3",
                    "x^3 + 2*y^3 + x^2*y^2")
    assert data["verdict"] == "EQUIMULTIPLE_IF_EQUISINGULAR"


# -- family --------------------------------------------------------------------

def test_family_rescale(capsys):
    data = run_json(capsys, "family", "--rescale", "x^3 + y^3 + x^4")
    assert data["muAtZero"] == 4
    assert data["jump"] == 0
    assert [p["mu"] for p in data["profile"]] == [4, 4, 4, 4, 4]
    assert "sampled-parameters-only" in data["caveats"]


def test_family_from_file(capsys, tmp_path):
    fam = {
        "vars": ["x", "y"],
        "pieces": [
            {"poly": "x^3 + y^3", "tpower": 0},
            {"poly": "x*y", "tpower": 1},
        ],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(fam))
    data = run_json(capsys, "family", "--file", str(path))
    assert data["muAtZero"] == 4
    assert data["jump"] == 3


def test_family_line_profile(capsys):
    data = run_json(capsys, "family", "--rescale", "x^3 + y^3 + x^4",
                    "--line", "1,1")
    assert data["line"] == "(1, 1)"
    assert [p["order"] for p in data["lineProfile"]] == [3, 3, 3, 3, 3]


def test_family_find_line(capsys):
    data = run_json(capsys, "family", "--rescale", "x^3 + y^3 + x^4",
                    "--find-line")
    assert data["line"] is not None
    assert all(p["order"] == 3 for p in data["lineProfile"])


def test_family_find_line_needs_a_trial(capsys):
    for trials in ("0", "-5"):
        code, out, err = run(capsys, "family", "--rescale", "x^3 + y^3 + x^4",
                             "--find-line", "--trials", trials)
        assert code == 2
        assert "input error" in err


def test_family_find_line_report_is_pinned(capsys):
    code, out, _ = run(capsys, "family", "--rescale", "x^2*y + y^5", "--find-line")
    assert code == 0
    ts = ["0", "1/4", "1/2", "3/4", "1"]
    expected = {
        "caveats": ["sampled-parameters-only"],
        "command": "family",
        "jump": None,
        "line": "(-1, -1)",
        "lineProfile": [{"order": 3, "t": t} for t in ts],
        "mode": "mu-profile",
        "muAtZero": None,
        "pieces": [{"poly": "x^2*y", "tpower": 0}, {"poly": "y^5", "tpower": 2}],
        "profile": [{"mu": None, "status": "not-isolated", "t": "0"}]
        + [{"mu": 6, "status": "ok", "t": t} for t in ts[1:]],
        "ts": ts,
        "vars": ["x", "y"],
    }
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_family_three_variable_caveat(capsys):
    data = run_json(capsys, "family", "--rescale", "x^3 + y^3 + z^3 + x^4")
    assert "ambient-dimension-3-excluded" in data["caveats"]


def test_family_find_alpha(capsys):
    data = run_json(capsys, "family", "--find-alpha", "x^3 + 2*y^3")
    assert data["found"] is True
    assert data["alpha"] == "1"


def test_family_find_alpha_not_found(capsys):
    data = run_json(capsys, "family", "--find-alpha", "x^3 + 2*y^3",
                    "--candidates", "0")
    assert data["found"] is False
    assert data["alpha"] is None


def test_family_custom_samples(capsys):
    data = run_json(capsys, "family", "--rescale", "x^3 + y^3 + x^4",
                    "--ts", "0,1/3,2")
    assert [p["t"] for p in data["profile"]] == ["0", "1/3", "2"]


# -- foliation -----------------------------------------------------------------

def test_foliation(capsys):
    data = run_json(capsys, "foliation", "x^2", "y^3")
    assert data["multiplicity"] == 2
    assert data["index"] == 6
    assert data["isolated"] is True


def test_foliation_degenerate(capsys):
    data = run_json(capsys, "foliation", "x", "x*y", "--vars", "x,y")
    assert data["index"] is None
    assert data["isolated"] is False


@pytest.mark.parametrize("piece, message", [
    ({"poly": 3, "tpower": 0}, '"poly" must be'),
    ({"poly": "x^2 + y^2", "tpower": True}, '"tpower" must be an integer'),
], ids=["non-string-poly", "boolean-tpower"])
def test_malformed_family_file_exits_2(capsys, tmp_path, piece, message):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"vars": ["x", "y"], "pieces": [piece]}))
    code, out, err = run(capsys, "family", "--file", str(path))
    assert code == 2
    assert message in err
    assert not out


# -- corpus --------------------------------------------------------------------

def test_corpus_sweep(capsys):
    data = run_json(capsys, "corpus")
    assert data["allAgree"] is True
    assert data["count"] >= 20
    assert all(e["agreement"] for e in data["entries"])


# -- input plumbing and formats ------------------------------------------------

def test_expression_from_file(capsys, tmp_path):
    path = tmp_path / "germ.txt"
    path.write_text("x^3 + y^3\n")
    data = run_json(capsys, "milnor", "@" + str(path))
    assert data["mu"] == 4


@pytest.mark.parametrize("argv", [
    ("milnor", "@{}"),
    ("zeta", "--res", "{}", "--n", "2"),
    ("family", "--file", "{}"),
], ids=["expression", "resolution", "family"])
def test_non_utf8_file_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes("x^2 + \u00e9".encode("latin-1"))
    code, out, err = run(capsys, *(a.format(path) for a in argv))
    assert code == 2
    assert f"cannot read {path}" in err
    assert not out


def test_text_format_both_positions(capsys):
    code1, out1, _ = run(capsys, "milnor", "x^3 + y^3", "--format", "text")
    code2, out2, _ = run(capsys, "--format", "text", "milnor", "x^3 + y^3")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "mu = 4" in out1


def test_json_output_is_stable_and_sorted(capsys):
    _, out1, _ = run(capsys, "discriminate", "x^3 + y^3", "x^4 + y^4")
    _, out2, _ = run(capsys, "discriminate", "x^3 + y^3", "x^4 + y^4")
    assert out1 == out2
    data = json.loads(out1)
    assert list(data) == sorted(data)


# -- exit codes ----------------------------------------------------------------

def test_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "milnor", "x^3 +")
    assert code == 2
    assert "input error" in err
    assert not out


@pytest.mark.parametrize("argv", [
    ("milnor", "x^2 + 1/0*y^2"),
    ("family", "--rescale", "x^2+y^3", "--line", "1,1/0"),
    ("family", "--find-alpha", "x^3+y^3", "--candidates", "1/0"),
    ("family", "--rescale", "x^2+y^3", "--ts", "1/0"),
], ids=["expression", "line", "candidates", "ts"])
def test_zero_denominator_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "zero denominator in '1/0'" in err
    assert not out


@pytest.mark.parametrize("argv, message", [
    (("milnor", "x^2 + y^3", "--vars", ""), "empty variable list"),
    (("family", "--find-alpha", ""), "no variables found"),
    (("family", "--file", ""), "cannot read"),
    (("family", "--rescale", "x^2+y^3", "--ts", ""), "expected a number"),
    (("family", "--rescale", "x^2+y^3", "--line", ""), "expected a number"),
    (("family", "--find-alpha", "x^3+y^3", "--candidates", ""), "expected a number"),
], ids=["vars", "find-alpha", "file", "ts", "line", "candidates"])
def test_empty_option_value_exits_2(capsys, argv, message):
    # an empty value is an input error, never a silent fall-back to the default
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert not out


SCALAR_OPTIONS = {
    "ts": ("family", "--rescale", "x^2+y^3", "--ts", "{}"),
    "line": ("family", "--rescale", "x^2+y^3", "--line", "{},1"),
    "candidates": ("family", "--find-alpha", "x^3+y^3", "--candidates", "{}"),
}


@pytest.mark.parametrize("option", sorted(SCALAR_OPTIONS))
@pytest.mark.parametrize("value, message", [
    ("0.5", "unexpected character '.'"),
    ("1e5", "unexpected 'e5'"),
    ("1_0", "unexpected '_0'"),
    ("10^5000", "coefficient above the maximum of 4300 digits"),
], ids=["decimal-point", "exponent-notation", "digit-separator", "5001-digit-power"])
def test_scalar_options_read_the_expression_grammar(capsys, option, value, message):
    # --ts, --line and --candidates accept exactly the scalars of an expression
    code, out, err = run(capsys, *(a.format(value) for a in SCALAR_OPTIONS[option]))
    assert code == 2
    assert message in err
    assert not out


def test_gaussian_samples_are_accepted(capsys):
    data = run_json(capsys, "family", "--rescale", "x^3 + y^3 + x^4",
                    "--ts", "0, 1/2, 1+i", "--line", "1, 2*i")
    assert data["ts"] == ["0", "1/2", "1+i"]
    assert [s["mu"] for s in data["profile"]] == [4, 4, 4]
    assert data["line"] == "(1, 2*i)"


def test_names_are_read_by_the_parser(capsys):
    data = run_json(capsys, "mult", "x\u00e9^2 + y\u00b2^3")
    assert data["vars"] == ["x\u00e9", "y\u00b2"]
    assert data["poly"] == "x\u00e9^2 + y\u00b2^3"


@pytest.mark.parametrize("names", ["x y", "2x", "x,y^2"])
def test_names_that_are_not_one_token_exit_2(capsys, tmp_path, names):
    code, out, err = run(capsys, "mult", "x", "--vars", names)
    assert code == 2
    assert "is not a variable name" in err
    assert not out
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"vars": names.split(","), "pieces": [
        {"poly": "x^2", "tpower": 0}]}))
    code, out, err = run(capsys, "family", "--file", str(path))
    assert code == 2
    assert "is not a variable name" in err


def test_zero_polynomial_exits_2(capsys):
    code, _, err = run(capsys, "milnor", "0")
    assert code == 2


def test_nonvanishing_germ_exits_2(capsys):
    code, _, err = run(capsys, "milnor", "1 + x")
    assert code == 2


def test_smooth_reference_germ_is_accepted(capsys):
    # l = 1 is a hyperplane: trivial monodromy, Lefschetz numbers all one
    data = run_json(capsys, "zeta", "--fermat", "l=1,n=2", "--K", "4")
    assert data["Lambda"] == [1, 1, 1, 1]
    assert data["mu"] == 0


def test_bad_fermat_argument_exits_2(capsys):
    code, _, err = run(capsys, "zeta", "--fermat", "l=0,n=2")
    assert code == 2
    code, _, err = run(capsys, "zeta", "--fermat", "l=2")
    assert code == 2


def test_missing_resolution_source_exits_2(capsys):
    code, _, err = run(capsys, "zeta")
    assert code == 2


def test_unknown_variable_exits_2(capsys):
    code, _, err = run(capsys, "milnor", "x + w", "--vars", "x,y")
    assert code == 2


LONG_INT = "1" * 5001  # more digits than int() converts
HOSTILE_FILES = {
    "huge_m": '[{"m": 100000000, "chi": -1}, {"m": 1, "chi": 0}]',
    "huge_chi": '[{"m": 1, "chi": 1000000}, {"m": 2, "chi": -500000}]',
    "long_chi": '[{"m": 2, "chi": %s}]' % LONG_INT,
    "long_family": '{"vars": ["x"], "pieces": [{"poly": "x^2", "tpower": %s}]}' % LONG_INT,
    "huge_tpower": '{"vars": ["x", "y"], "pieces": [{"poly": "x^3 + y^3", "tpower": 0},'
                   ' {"poly": "x*y", "tpower": 100000000}]}',
}


@pytest.mark.parametrize("argv", [
    # degrees of parsed terms
    ("milnor", "(x^100)^1000 + y^2"),
    ("milnor", "x^10000*x^10000*x^10000 + y^2"),
    ("milnor", "(x^10000)^10000"),
    # monodromy sizes
    ("zeta", "--fermat", "l=3,n=2", "--K", "1000000"),
    ("zeta", "--fermat", "l=100000,n=2"),
    ("zeta", "--fermat", "l=3,n=15000"),
    ("zeta", "--fermat", "l=1000000000,n=1000000000"),
    ("charpoly", "--fermat", "l=30,n=4"),
    ("charpoly", "--fermat", "l=3,n=40"),
    ("charpoly", "--fermat", "l=3,n=100000"),
    ("charpoly", "--fermat", "l=3,n=2", "--mu", "100000000"),
    ("zeta", "--res", "{huge_m}", "--n", "2"),
    ("charpoly", "--res", "{huge_m}", "--n", "2"),
    ("charpoly", "--res", "{huge_chi}", "--n", "2"),
    # input files and options
    ("zeta", "--res", "{long_chi}", "--n", "2"),
    ("family", "--file", "{long_family}"),
    ("zeta", "--fermat", "l=3,n=2,l=4"),
    ("family", "--file", "{huge_tpower}"),
    # coefficient digits: a tower, powers and a sum of two 4300-digit
    # denominators past 4300 digits, and the same bound on scalar options
    ("mult", "((2^10000)^10000)^10000*x"),
    ("mult", "(1/3)^10000*x + x^2"),
    ("mult", "(2^10000)^2*x"),
    ("mult", f"1/{'9' * 4300}*x + 1/{'7' * 4300}*x"),
    ("family", "--rescale", "x^2+y^3", "--ts", "1e5000"),
    ("family", "--rescale", "x^2+y^3", "--line", "10^5000,1"),
], ids=lambda argv: " ".join(argv)[:60])
def test_hostile_inputs_exit_2_at_once(capsys, tmp_path, argv):
    paths = {name: tmp_path / f"{name}.json" for name in HOSTILE_FILES}
    for name, text in HOSTILE_FILES.items():
        paths[name].write_text(text)
    argv = [a.format_map(paths) for a in argv]
    start = perf_counter()
    code, out, err = run(capsys, *argv)
    assert perf_counter() - start < 2
    assert code == 2
    assert not out
    assert "input error:" in err
    assert "Traceback" not in err

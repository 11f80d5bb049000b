"""End-to-end CLI coverage: every subcommand, both report formats, the
exit-code contract, and byte-for-byte determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import pytest
from conftest import NO_CORNER_GERM

import germinv
from germinv import milnor, poly, vectorfields
from germinv.cli import main
from germinv.poly import MAX_EXPONENT, MAX_TERMS


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


def test_milnor_staircase_edge_cases(capsys):
    # a regular point: the unit ideal's staircase is empty, not missing
    data = run_json(capsys, "milnor", "x + y^2")
    assert data["mu"] == 0 and data["staircase"] == []
    # not isolated: an infinite staircase is left out of the report
    assert "staircase" not in run_json(capsys, "milnor", "x^2*y^2")
    # three variables: listed by degree, then by exponent tuple
    data = run_json(capsys, "milnor", "x^3 + y^3 + z^3")
    assert data["mu"] == 8
    assert data["staircase"] == ["1", "z", "y", "x", "y*z", "x*z", "x*y", "x*y*z"]


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


@pytest.mark.parametrize("expr, names", [
    ("(x + y + z)^2*z^2 + x^5", "x,y,z"),  # singular along x = 0, y = -z
    ("x^2 + y^2 + x*y", "x,y,z,w"),  # two nonzero partials in four variables
], ids=["line", "cylinder"])
def test_the_oracle_proves_a_germ_non_isolated(capsys, expr, names):
    data = run_json(capsys, "milnor", expr, "--vars", names, "--method", "truncated-oracle")
    assert data["isolated"] is False and data["mu"] is None
    assert "note" not in data


@pytest.mark.parametrize("germ, names", [
    ("(x+2*y)^199 + x^300*y^300", "x,y"),
    # the quotient is C{w} and B = 101*101, so the exit waits for degree
    # 10,201, where the listed shifts of degree 1000 in four variables
    # alone would be 1.7e8 packed ints: each listed level counts toward
    # the budget, which ends the run at degree 48
    ("x^2 + y^2 + z^2 + z^2*w^100", "x,y,z,w"),
], ids=["long-rows", "many-shifts"])
def test_the_oracle_past_its_term_budget_exits_3(germ, names):
    proc = fresh_cli("milnor", germ, "--vars", names, "--method", "truncated-oracle",
                     timeout=60)
    assert proc.returncode == 3
    assert "the truncated oracle would form more than 1000000 terms" in proc.stderr
    assert not proc.stdout


def test_the_oracle_takes_no_horizon(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["milnor", "x^2+y^2", "--method", "truncated-oracle", "--dmax", "3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "unrecognized arguments: --dmax 3" in err
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


FRESH_CLI = [sys.executable, "-c", "import sys; from germinv.cli import main; sys.exit(main())"]


def fresh_env():
    """The environment of a fresh germinv process: this checkout's package first."""
    src = str(Path(germinv.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def fresh_cli(*argv, timeout):
    """germinv run as a fresh process; a timeout turns a hang into a failure."""
    return subprocess.run([*FRESH_CLI, *argv], capture_output=True, text=True,
                          timeout=timeout, env=fresh_env())


@pytest.mark.parametrize("germ", [
    # ran for more than 10 minutes before the engine bounded its work at
    # the highest corner
    "x^2*y - 2*x^4 + x^3*y + 3*x^2*y^2 + 3*x*y^3 + 3*y^4 - 3*x^5 - x^4*y - 3*x^3*y^2"
    " + 3*x*y^4 + y^9",
    NO_CORNER_GERM,
], ids=["two-variables", "no-corner"])
def test_milnor_dense_germ_finishes_in_a_fresh_process(germ):
    # the timeout turns a hang into a failure
    proc = fresh_cli("milnor", germ, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["mu"] == 5


@pytest.mark.parametrize("horizon", ["5000", "9"], ids=["large", "small"])
def test_closed_stdout_ends_quietly(horizon):
    # germinv ... | head: the reader stops before the report is written.  With
    # stdout buffered, a large report fails while it is written, a small one
    # when it is flushed.
    env = fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [*FRESH_CLI, "--format", "text", "zeta", "--fermat", "l=3,n=2", "--K", horizon],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert err == b""
    assert proc.returncode == 0


@pytest.mark.parametrize("argv, message", [
    (("zeta", "--fermat", "l=1_0,n=2"), "unexpected '_0' (at position 3)"),
    (("zeta", "--fermat", "l=3, n=2/3"), "expected an integer, got '2/3'"),
    (("zeta", "--fermat", "l=3,n=2", "--K", "1_2"), "unexpected '_2' (at position 1)"),
    (("zeta", "--fermat", "l=3,n=2", "--K", "1/2"), "expected an integer, got '1/2'"),
    (("zeta", "--res", "{res}", "--n", "2.0"), "unexpected character '.' (at position 1)"),
    (("charpoly", "--fermat", "l=3,n=2", "--mu", "i"), "expected an integer, got 'i'"),
], ids=["fermat-underscore", "fermat-fraction", "K-underscore", "K-fraction", "n-decimal",
        "mu-imaginary"])
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
    assert data["K"] == 12
    assert data["Lambda"] == [0, 2, 3, 2, 0, -1, 0, 2, 3, 2, 0, -1]
    assert data["s"] == {"2": 2, "3": 3, "6": -6}
    assert data["multiplicityBound"] == {"firstNonzero": 2, "lowerBound": 2}
    assert data["strata"] == [{"chi": 1, "m": 2}, {"chi": 1, "m": 3}, {"chi": -1, "m": 6}]


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


@pytest.mark.parametrize("command", ["zeta", "charpoly"])
def test_strata_implying_a_negative_mu_exit_2(capsys, tmp_path, command):
    # 3 * 1 = 3 is the fibre's Euler number, so mu = -(3 - 1) in two variables
    path = tmp_path / "res.json"
    path.write_text(json.dumps([{"m": 3, "chi": 1}]))
    code, out, err = run(capsys, command, "--res", str(path), "--n", "2")
    assert code == 2
    assert "inconsistent monodromy data: it implies Milnor number -2" in err
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
    assert data["mu"] == 2
    assert data["coeffs"] == [1, -1, 1]
    assert data["degree"] == 2


@pytest.mark.parametrize("strata, digest, seconds", [
    # Delta = (t-1)^2500 * (t^2-1)^1250, mu 5000: 10.2 s with the
    # multiply-then-divide build on a 2-vCPU VM
    ([{"m": 1, "chi": -2499}, {"m": 2, "chi": -1250}],
     "31f55038846598819ba41a9aa3d40bae4d54d14c399273deed564cc275195bc5", 2.0),
    # Delta = (t^2-1)^2500 / (t-1)^2498, mu 2502: 15.0 s with that build on
    # a 2-vCPU Xeon
    ([{"m": 1, "chi": 2499}, {"m": 2, "chi": -2500}],
     "0b4b81fe787e4d8207ea9a253425136a5ad264513d69ba5e46b5e10d1eeac83c", 3.0),
], ids=["product", "quotient"])
def test_charpoly_at_the_cap_is_fast_and_unchanged(capsys, tmp_path, strata, digest, seconds):
    # the bounds are 5x below those times; the digests are that build's stdout
    path = tmp_path / "strata.json"
    path.write_text(json.dumps(strata))
    start = perf_counter()
    code, out, err = run(capsys, "charpoly", "--res", str(path), "--n", "2")
    assert perf_counter() - start < seconds
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("option", [("--seed", "1"), ("--trials", "5")],
                         ids=["seed", "trials"])
def test_family_has_no_seed_option(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["family", "--rescale", "x^3 + y^3", "--find-line", *option])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert f"unrecognized arguments: {' '.join(option)}" in err
    assert not out


@pytest.mark.parametrize("argv, message", [
    (("family", "--rescale", "x^3 + y^3", "--line", "1,1", "--find-line"), "not allowed with"),
    (("family", "--rescale", "x^3 + y^3", "--candidates", "2"), "only to --find-alpha"),
    (("family", "--file", "{family}", "--candidates", "2"), "only to --find-alpha"),
    (("family", "--find-alpha", "x^3 + y^3", "--line", "1,1"), "no probe line"),
    (("family", "--find-alpha", "x^3 + y^3", "--find-line"), "no probe line"),
    (("family", "--file", "{family}", "--vars", "x,y"), "names its own vars"),
    (("zeta", "--fermat", "l=3,n=2", "--res", "{res}", "--n", "2"), "not allowed with"),
    (("zeta", "--fermat", "l=3,n=2", "--n", "2"), "gives its own n"),
    (("charpoly", "--fermat", "l=3,n=2", "--res", "{res}", "--n", "2"), "not allowed with"),
    (("charpoly", "--fermat", "l=3,n=2", "--n", "2"), "gives its own n"),
], ids=["line-and-find-line", "candidates-rescale", "candidates-file", "find-alpha-line",
        "find-alpha-find-line", "file-vars", "zeta-fermat-res", "zeta-fermat-n",
        "charpoly-fermat-res", "charpoly-fermat-n"])
def test_an_option_the_mode_ignores_exits_2(capsys, tmp_path, argv, message):
    family = tmp_path / "family.json"
    family.write_text('{"vars": ["x", "y"], "pieces": [{"poly": "x^3 + y^3", "tpower": 0}]}')
    res = tmp_path / "res.json"
    res.write_text('[{"m": 2, "chi": 1}, {"m": 3, "chi": 1}, {"m": 6, "chi": -1}]')
    try:
        code = main([a.format(family=family, res=res) for a in argv])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert message in err
    assert not out


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


@pytest.mark.parametrize("offset", [-3, -1, 4], ids=["below", "just-below", "above"])
@pytest.mark.parametrize("argv", [
    ("milnor", "x^3 + y^4"),
    ("discriminate", "x^3 + y^4", "x^3 + y^3"),
    ("family", "--rescale", "x^3 + y^3 + x^4"),
], ids=["milnor", "discriminate", "family"])
def test_a_mu_outside_the_a_priori_bounds_exits_3(capsys, monkeypatch, argv, offset):
    # 6 <= mu <= 6 for x^3 + y^4, 4 <= mu <= 4 for x^3 + y^3: an engine
    # off by -3, -1 or +4 breaks the product of the partials' orders <= mu
    # <= the product of their degrees.  Every sample of the rescaling
    # family is isolated with mu 4, and its sample at t = 0, x^3 + y^3,
    # has 4 <= mu <= 4.
    engine = milnor.standard_basis

    def off(gens, **options):
        result = engine(gens, **options)
        return SimpleNamespace(quotient_dim=result.quotient_dim + offset,
                               leading_ideal_gens=result.leading_ideal_gens)

    monkeypatch.setattr(milnor, "standard_basis", off)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert "outside the a-priori bounds" in err
    assert not out


@pytest.mark.parametrize("offset", [-1, 1], ids=["below", "above"])
def test_an_index_outside_the_a_priori_bounds_exits_3(capsys, monkeypatch, offset):
    # (x^2, y^3) has 2*3 <= index <= 2*3: an engine off by one breaks it
    engine = vectorfields.standard_basis

    def off(gens):
        return SimpleNamespace(quotient_dim=engine(gens).quotient_dim + offset)

    monkeypatch.setattr(vectorfields, "standard_basis", off)
    code, out, err = run(capsys, "foliation", "x^2", "y^3")
    assert code == 3
    assert "outside the a-priori bounds 6 <= index <= 6" in err
    assert not out


def test_a_finite_index_with_a_zero_component_exits_3(capsys, monkeypatch):
    # (x, 0) is one generator in two variables: its quotient is infinite,
    # so an engine reporting a finite index breaks 1 <= index <= 0
    monkeypatch.setattr(vectorfields, "standard_basis",
                        lambda gens: SimpleNamespace(quotient_dim=1))
    code, out, err = run(capsys, "foliation", "x", "0", "--vars", "x,y")
    assert code == 3
    assert "index = 1 is outside the a-priori bounds 1 <= index <= 0" in err
    assert not out


def test_an_oracle_mu_outside_the_a_priori_bounds_exits_3(capsys, monkeypatch):
    # 7 is above 2*3, the product of the partials' degrees, which is also
    # the product of their orders
    monkeypatch.setattr(milnor, "truncated_dim_oracle", lambda gens, dmax=None: 7)
    code, out, err = run(capsys, "milnor", "x^3 + y^4", "--method", "truncated-oracle")
    assert code == 3
    assert "outside the a-priori bounds 6 <= mu <= 6" in err
    assert not out


@pytest.mark.parametrize("argv", [
    ("milnor", "x^10 + y^3"),  # the partial 10*x^9
    ("milnor", "x^7 + y^7 + x^3*y^3"),  # partials of degree 6; completion climbs
    ("milnor", "x^5 + y^5", "--method", "truncated-oracle"),  # the oracle's degree 4 rows
], ids=["input-term", "completion", "oracle"])
def test_a_term_past_the_degree_limit_exits_3(capsys, monkeypatch, argv):
    monkeypatch.setattr(poly, "DEGREE_LIMIT", 8)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert "would reach degree 8 or more" in err
    assert not out


@pytest.mark.parametrize("text, mu", [
    (f"x^{MAX_EXPONENT} + y^2", MAX_EXPONENT - 1),
    (f"x^2*y^{MAX_EXPONENT - 2} + y^{MAX_EXPONENT} + x^3", 2 * (MAX_EXPONENT - 1)),
], ids=["pure-power", "mixed-term"])
def test_a_germ_of_the_largest_parsed_degree_keeps_its_mu(capsys, text, mu):
    assert run_json(capsys, "milnor", text)["mu"] == mu


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


def test_arguments_with_a_leading_minus(capsys):
    # argparse reads "-x^2" or "-1,1/2" alone as an option; "--" ends the
    # options, and "--ts=..." attaches the value to its option
    data = run_json(capsys, "mult", "--", "-x^2")
    assert data["poly"] == "-x^2" and data["order"] == 2
    data = run_json(capsys, "family", "--rescale", "x^3 + y^3 + x^4", "--ts=-1,1/2",
                    "--line=-1,1")
    assert data["ts"] == ["-1", "1/2"]
    assert data["line"] == "(-1, 1)"


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


@pytest.mark.parametrize("argv, message", [
    (("mult", "0", "--vars", "x"), "the zero polynomial has no multiplicity"),
    (("zeta", "--res", "{strata}"), "--res needs --n"),
    (("zeta", "--res", "{text}", "--n", "2"), "is not valid JSON"),
    (("family", "--file", "{text}"), "is not valid JSON"),
], ids=["mult-zero", "res-without-n", "res-not-json", "file-not-json"])
def test_input_errors_exit_2(capsys, tmp_path, argv, message):
    paths = {"strata": tmp_path / "strata.json", "text": tmp_path / "text.json"}
    paths["strata"].write_text('[{"m": 2, "chi": 1}]')
    paths["text"].write_text("x^2 + y^3")
    code, out, err = run(capsys, *(a.format_map(paths) for a in argv))
    assert code == 2
    assert message in err
    assert not out


@pytest.mark.parametrize("argv", [
    ("mult", "--", "{parentheses}"),
    ("mult", "--", "{signs}"),
    ("mult", "@{deep}"),
    ("zeta", "--fermat", "l=3,n=2", "--K", "{parentheses}"),
    ("family", "--rescale", "x^3 + y^3", "--ts={signs}"),
    ("family", "--file", "{family}"),
], ids=["parentheses", "signs", "file", "K", "ts", "family-file"])
def test_deep_nesting_exits_2(capsys, tmp_path, argv):
    fields = {"parentheses": "(" * 1000 + "x" + ")" * 1000, "signs": "-" * 1500 + "x",
              "deep": tmp_path / "deep.txt", "family": tmp_path / "family.json"}
    fields["deep"].write_text("(" * 300 + "x" + ")" * 300)
    fields["family"].write_text(json.dumps(
        {"vars": ["x", "y"], "pieces": [{"poly": "(" * 400 + "x^3 + y^3" + ")" * 400,
                                         "tpower": 0}]}))
    code, out, err = run(capsys, *(a.format_map(fields) for a in argv))
    assert code == 2
    assert "input error: expression nested too deeply (at position" in err
    assert not out


def test_moderate_nesting_parses(capsys):
    data = run_json(capsys, "mult", "(" * 50 + "x" + ")" * 50)
    assert data["poly"] == "x"


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

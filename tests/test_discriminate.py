"""Pairwise screening: necessary conditions that rule equisingularity out,
and the cone criterion that upgrades it to an equimultiplicity certificate."""

import json

import pytest

from germinv.corpus import ISOLATED_GERMS
from germinv.equising import (
    CONE_CHI_CERTIFIED,
    CONE_CHI_NOT_SATISFIED,
    CONE_CHI_UNKNOWN,
    EQUIMULTIPLE_IF_EQUISINGULAR,
    INCONCLUSIVE,
    NOT_EQUISINGULAR,
    RULE_CONE_CHI,
    RULE_MIXED_CLASS,
    RULE_MU_MISMATCH,
    RULE_REGULAR_SINGULAR,
    RULE_WINDOW_GAP,
    check_cone_chi_criterion,
    check_mixed_class_pair,
    check_mu_mismatch,
    check_regular_singular_mismatch,
    check_window_obstruction,
    discriminate,
)
from germinv.errors import InputError
from germinv.milnor import germ_invariants
from germinv.poly import fermat, parse_poly

XY = ("x", "y")


def P(text, names=XY):
    return parse_poly(text, names)


def G(text, names=XY):
    return germ_invariants(P(text, names))


def fired_rules(report):
    return {c.rule for c in report.checks if c.fired}


# -- individual checks ---------------------------------------------------------

def test_degree_window():
    check = check_window_obstruction(G("x^2 + y^3"), G("x^3 + y^3"))
    assert check.detail["windows"] == [[2, 3], [3, 3]]


def test_window_obstruction_is_symmetric():
    f, g = G("x^2 + y^3"), G("x^5 + y^5")
    assert check_window_obstruction(f, g).fired
    assert check_window_obstruction(g, f).fired
    assert not check_window_obstruction(f, G("x^3 + y^3")).fired


def test_regular_singular_mismatch():
    assert check_regular_singular_mismatch(G("x + y^2"), G("x^2 + y^3")).fired
    assert not check_regular_singular_mismatch(G("x + y"), G("y + x^3")).fired
    assert not check_regular_singular_mismatch(G("x^2 + y^3"), G("x^3 + y^3")).fired


def test_cone_chi_certified_for_plane_cubics():
    check = check_cone_chi_criterion(G("x^3 + y^3"), G("x^3 + 2*y^3 + x^2*y^2"))
    assert check.detail["status"] == CONE_CHI_CERTIFIED
    assert check.detail["chi"] == [-1, -1]


def test_cone_chi_not_satisfied_for_plane_conics():
    check = check_cone_chi_criterion(G("x^2 + y^2"), G("x^2 + x*y + y^2"))
    assert check.detail["status"] == CONE_CHI_NOT_SATISFIED
    assert check.detail["chi"] == [0, 0]


def test_cone_chi_unknown_for_degenerate_cones():
    check = check_cone_chi_criterion(G("x^2 + y^3"), G("x^2 + y^3"))
    assert check.detail["status"] == CONE_CHI_UNKNOWN
    assert check.detail["chi"] == [None, None]


def test_mixed_class_requires_exactly_one_nondegenerate_side():
    with pytest.raises(InputError):
        check_mixed_class_pair(G("x^3 + y^3"), G("x^4 + y^4"))
    with pytest.raises(InputError):
        check_mixed_class_pair(G("x^2 + y^3"), G("x^2*y + y^4"))


def test_mixed_class_obstructed_on_mu_mismatch():
    check = check_mixed_class_pair(G("x^2*y + y^4"), G("x^3 + y^3"))
    assert check.fired


def test_mixed_class_constraint_when_mu_agrees():
    # mu(x^2 + y^5) = 4 = mu(x^3 + y^3); orders 2 and 3 are compatible
    check = check_mixed_class_pair(G("x^2 + y^5"), G("x^3 + y^3"))
    assert not check.fired
    assert check.detail["constraint"]


# -- full reports --------------------------------------------------------------

def test_window_gap_pair():
    report = discriminate(P("x^2 + y^3"), P("x^5 + y^5"))
    assert report.verdict == NOT_EQUISINGULAR
    assert RULE_WINDOW_GAP in fired_rules(report)
    assert RULE_MU_MISMATCH in fired_rules(report)


def test_mu_mismatch_pair():
    report = discriminate(P("x^3 + y^3"), P("x^4 + y^4"))
    assert report.verdict == NOT_EQUISINGULAR
    assert RULE_MU_MISMATCH in fired_rules(report)
    assert RULE_WINDOW_GAP in fired_rules(report)


def test_regular_vs_singular_pair():
    report = discriminate(P("x + y^2"), P("x^2 + y^3"))
    assert report.verdict == NOT_EQUISINGULAR
    assert RULE_REGULAR_SINGULAR in fired_rules(report)


def test_equimultiplicity_certificate_for_cubic_pair():
    report = discriminate(P("x^3 + y^3"), P("x^3 + 2*y^3 + x^2*y^2"))
    assert report.verdict == EQUIMULTIPLE_IF_EQUISINGULAR
    assert RULE_REGULAR_SINGULAR not in fired_rules(report)
    assert RULE_MU_MISMATCH not in fired_rules(report)
    assert RULE_WINDOW_GAP not in fired_rules(report)
    cone = next(c for c in report.checks if c.rule == RULE_CONE_CHI)
    assert cone.detail["status"] == CONE_CHI_CERTIFIED


def test_conic_pair_is_inconclusive():
    report = discriminate(P("x^2 + y^2"), P("x^2 + x*y + y^2"))
    assert report.verdict == INCONCLUSIVE
    cone = next(c for c in report.checks if c.rule == RULE_CONE_CHI)
    assert cone.detail["status"] == CONE_CHI_NOT_SATISFIED
    assert not report.caveats


def test_unknown_cone_adds_a_caveat():
    report = discriminate(P("x^2 + y^3"), P("x^2 + y^3"))
    assert report.verdict == INCONCLUSIVE
    assert "cone-complement-chi-unknown" in report.caveats


def test_mixed_pair_with_equal_mu():
    report = discriminate(P("x^2 + y^5"), P("x^3 + y^3"))
    assert report.verdict == INCONCLUSIVE
    mixed = next(c for c in report.checks if c.rule == RULE_MIXED_CLASS)
    assert mixed.fired is False


PAIRS = [
    ("x^2 + y^3", "x^5 + y^5"),
    ("x^3 + y^3", "x^4 + y^4"),
    ("x + y^2", "x^2 + y^3"),
    ("x^3 + y^3", "x^3 + 2*y^3 + x^2*y^2"),
    ("x^2 + y^2", "x^2 + x*y + y^2"),
    ("x^2 + y^5", "x^3 + y^3"),
]


def test_verdicts_are_symmetric():
    for a, b in PAIRS:
        assert discriminate(P(a), P(b)).verdict == discriminate(P(b), P(a)).verdict


def test_report_checks_are_the_rules_records():
    # exactly one germ semihomogeneous, both singular: first and last pair
    for k, (f, g) in enumerate(PAIRS):
        a, b = G(f), G(g)
        rules = [check_regular_singular_mismatch, check_mu_mismatch,
                 check_window_obstruction]
        if k in (0, len(PAIRS) - 1):
            rules.append(check_mixed_class_pair)
        rules.append(check_cone_chi_criterion)
        report = discriminate(P(f), P(g))
        assert report.germs == (a, b)
        assert list(report.checks) == [rule(a, b) for rule in rules], (f, g)


def test_self_comparison_never_rules_out():
    for germ in ISOLATED_GERMS:
        f = germ.poly()
        report = discriminate(f, f)
        assert report.verdict != NOT_EQUISINGULAR, germ.name


def test_non_isolated_inputs_are_rejected_with_diagnosis():
    with pytest.raises(InputError) as err:
        discriminate(P("x^2*y^2"), P("x^2 + y^3"))
    assert "first" in str(err.value)
    with pytest.raises(InputError) as err:
        discriminate(P("x^2 + y^3"), P("x^2*y^2"))
    assert "second" in str(err.value)


def test_variable_count_mismatch_is_rejected():
    with pytest.raises(InputError):
        discriminate(P("x^2 + y^3"), fermat(2, 3))


def test_zero_and_nonvanishing_inputs_are_rejected():
    with pytest.raises(InputError):
        discriminate(P("0"), P("x^2 + y^3"))
    with pytest.raises(InputError):
        discriminate(P("x^2 + y^3"), P("1 + x"))


def test_report_schema():
    report = discriminate(P("x^2 + y^3"), P("x^5 + y^5"))
    data = report.to_json_dict()
    assert set(data) == {"verdict", "mu", "windows", "classA", "checks", "caveats"}
    assert data["mu"] == [2, 16]
    assert data["windows"] == [[2, 3], [5, 5]]
    assert data["classA"] == [False, True]
    rules = [c["rule"] for c in data["checks"]]
    assert rules == [
        RULE_REGULAR_SINGULAR,
        RULE_MU_MISMATCH,
        RULE_WINDOW_GAP,
        RULE_MIXED_CLASS,
        RULE_CONE_CHI,
    ]
    for check in data["checks"]:
        assert set(check) == {"rule", "fired", "detail"}
    json.dumps(data)  # serialisable


def test_report_is_deterministic():
    a = discriminate(P("x^3 + y^3"), P("x^4 + y^4")).to_json_dict()
    b = discriminate(P("x^3 + y^3"), P("x^4 + y^4")).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_discriminate_computes_each_standard_basis_once(standard_basis_calls):
    # each germ's class is read off its mu: one basis per germ
    discriminate(P("x^2*y + y^4"), P("x^3 + y^3"))
    assert len(standard_basis_calls) == 2
    standard_basis_calls.clear()
    discriminate(P("x^3 + y^3"), P("x^4 + y^4"))
    assert len(standard_basis_calls) == 2


def test_regular_pair_is_certified_equimultiple():
    # two smooth germs: multiplicity one on both sides, cone check trivial
    report = discriminate(P("x + y^2"), P("y + x^3"))
    assert report.verdict == EQUIMULTIPLE_IF_EQUISINGULAR

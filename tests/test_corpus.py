"""The bundled germ corpus and the two-engine agreement sweep."""

from germinv.corpus import (
    ISOLATED_GERMS,
    NON_ISOLATED_GERMS,
    NON_SEMIHOMOGENEOUS_FAMILY,
    run_corpus,
)
from germinv.milnor import is_isolated, milnor_number
from germinv.poly import parse_poly


def test_corpus_size_and_spread():
    assert len(ISOLATED_GERMS) >= 20
    names = [g.name for g in ISOLATED_GERMS]
    assert len(names) == len(set(names))
    # both classes are represented
    assert any(g.semihomogeneous for g in ISOLATED_GERMS)
    assert any(not g.semihomogeneous for g in ISOLATED_GERMS)
    # at least one entry away from two variables
    assert any(len(g.vars) == 3 for g in ISOLATED_GERMS)


def test_known_mu_values_hold():
    for germ in ISOLATED_GERMS:
        assert milnor_number(germ.poly()).mu == germ.known_mu, germ.name


def test_non_isolated_entries_really_are():
    assert NON_ISOLATED_GERMS
    for germ in NON_ISOLATED_GERMS:
        assert not is_isolated(germ.poly()), germ.name


def test_degenerate_family_mu_values():
    # x^2*y + y^k has mu = k + 1 and a degenerate leading form for k >= 4
    assert len(NON_SEMIHOMOGENEOUS_FAMILY) >= 3
    for germ in NON_SEMIHOMOGENEOUS_FAMILY:
        assert not germ.semihomogeneous
        assert milnor_number(germ.poly()).mu == germ.known_mu, germ.name


def test_run_corpus_report():
    entries = run_corpus()
    assert len(entries) == len(ISOLATED_GERMS)
    for entry in entries:
        assert entry["agreement"], entry["name"]
        assert entry["mu"] == entry["muOracle"] == entry["knownMu"]
        assert isinstance(entry["order"], int)
        assert entry["classA"] == entry["semihomogeneousComputed"]


def test_run_corpus_computes_one_standard_basis_per_entry(standard_basis_calls):
    run_corpus()
    assert len(standard_basis_calls) == len(ISOLATED_GERMS)


def test_corpus_texts_parse_with_their_own_variables():
    for germ in ISOLATED_GERMS + NON_ISOLATED_GERMS:
        f = parse_poly(germ.text, germ.vars)
        assert f == germ.poly()

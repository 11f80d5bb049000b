"""Vector fields with an isolated zero: multiplicity and index."""

import pytest

from germinv.corpus import ISOLATED_GERMS
from germinv.errors import InputError
from germinv.milnor import milnor_number
from germinv.poly import Poly, parse_poly
from germinv.vectorfields import (
    VectorField,
    hamiltonian_field,
    vf_milnor,
    vf_multiplicity,
)

XY = ("x", "y")


def P(text, names=XY):
    return parse_poly(text, names)


def test_vector_field_validation():
    with pytest.raises(InputError):
        VectorField((P("x"),))  # one component for two variables
    with pytest.raises(InputError):
        VectorField((P("1 + x"), P("y")))  # does not vanish at the origin
    with pytest.raises(InputError):
        VectorField((Poly.zero(2), Poly.zero(2)))


def test_vf_multiplicity_is_min_component_order():
    assert vf_multiplicity(VectorField((P("x^2"), P("y^3")))) == 2
    assert vf_multiplicity(VectorField((P("x^3 + y^5"), P("y^2")))) == 2
    assert vf_multiplicity(VectorField((Poly.zero(2), P("y^4")))) == 4


def test_vf_milnor_monomial_field():
    assert vf_milnor(VectorField((P("x^2"), P("y^3")))) == 6


def test_vf_milnor_infinite_for_degenerate_fields():
    assert vf_milnor(VectorField((P("x"), Poly.zero(2)))) is None
    assert vf_milnor(VectorField((P("x*y"), P("x*y")))) is None


def test_gradient_field_components():
    field = VectorField(P("x^3 + y^3").jacobian())
    assert field.components == (P("3*x^2"), P("3*y^2"))


def test_hamiltonian_field_components():
    field = hamiltonian_field(P("x^3 + y^3"))
    assert field.components == (P("3*y^2"), P("-3*x^2"))


def test_hamiltonian_requires_two_variables():
    with pytest.raises(InputError):
        hamiltonian_field(parse_poly("x^2 + y^2 + z^2", ("x", "y", "z")))


def test_gradient_multiplicity_is_order_minus_one():
    for text in ("x^2 + y^3", "x^3 + y^3", "x^4 + y^5", "x^2*y + y^4"):
        f = P(text)
        assert vf_multiplicity(VectorField(f.jacobian())) == f.order() - 1


def test_hamiltonian_index_equals_milnor_number():
    # the foliation defined by df has index mu(f) at an isolated singularity
    for germ in ISOLATED_GERMS:
        if len(germ.vars) != 2:
            continue
        f = germ.poly()
        assert vf_milnor(hamiltonian_field(f)) == milnor_number(f).mu, germ.name


def test_gradient_index_equals_milnor_number_in_any_dimension():
    for text, names in (
        ("x^2 + y^3", XY),
        ("x^3 + y^3 + z^4", ("x", "y", "z")),
    ):
        f = parse_poly(text, names)
        assert vf_milnor(VectorField(f.jacobian())) == milnor_number(f).mu
    # every corpus gradient field passes the index's a-priori bounds
    for germ in ISOLATED_GERMS:
        f = germ.poly()
        assert vf_milnor(VectorField(f.jacobian())) == germ.known_mu, germ.name

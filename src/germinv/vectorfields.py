"""Polynomial vector fields at the origin and their local invariants.

A field is a tuple of n component polynomials in n variables, all vanishing
at 0.  Its multiplicity is the smallest component order; its local index
(the analogue of the Milnor number) is the dimension of the local ring
modulo the component ideal, computed by the same standard-basis engine the
hypersurface side uses.
"""

from __future__ import annotations

from ._record import record
from .errors import InputError
from .localring import ideal_quotient_dim
from .poly import Poly


@record
class VectorField:
    components: tuple[Poly, ...]

    def __post_init__(self):
        components = tuple(self.components)
        if not components:
            raise InputError("a vector field needs at least one component")
        nvars = components[0].nvars
        if len(components) != nvars:
            raise InputError(
                f"{len(components)} components for {nvars} variables; "
                "a field has one component per variable"
            )
        for c in components:
            if c.nvars != nvars:
                raise InputError("components disagree on variable count")
            if c.constant_term():
                raise InputError("every component must vanish at the origin")
        if not any(components):
            raise InputError("the zero vector field has no invariants")
        object.__setattr__(self, "components", components)

    @property
    def nvars(self) -> int:
        return self.components[0].nvars


def vf_multiplicity(field: VectorField) -> int:
    """Smallest order among the nonzero components."""
    return min(c.order() for c in field.components if c)


def vf_milnor(field: VectorField) -> int | None:
    """dim of the local ring modulo the component ideal; None if infinite."""
    return ideal_quotient_dim(field.components)


def gradient_field(f: Poly) -> VectorField:
    """The gradient of a germ, as a vector field."""
    return VectorField(f.jacobian())


def hamiltonian_field(f: Poly) -> VectorField:
    """(df/dy, -df/dx) for a two-variable germ; same component ideal as
    the gradient, so its index equals mu(f)."""
    if f.nvars != 2:
        raise InputError("hamiltonian fields are a two-variable construction")
    return VectorField((f.partial(1), -f.partial(0)))

"""Built-in manifolds: the frames every test and demo runs against.

Four families: a chart-mode frame on {x != 0} carrying a nullity
claim that the classifier refutes, the abstract two-parameter
frame whose brackets encode a (kappa, mu) structure with kappa = 1 -
lambda^2, the cyclic bracket frame of the unit sphere (Sasakian,
constant curvature 1), and odd-dimensional flat fixtures with no
attached structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .contact import ContactStructure
from .expr import (Expr, KIND_COORDINATE, KIND_PARAMETER, SymbolTable,
                   parse)
from .frame import FrameManifold, VectorField


class CatalogError(Exception):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    manifold: FrameManifold
    structure: ContactStructure | None

    def substitute(self, bindings: dict) -> "CatalogEntry":
        if self.structure is None:
            return CatalogEntry(self.id,
                                self.manifold.substitute_parameters(bindings),
                                None)
        # the structure carries its own substituted manifold
        structure = self.structure.substitute_parameters(bindings)
        return CatalogEntry(self.id, structure.manifold, structure)


def _rotation_structure(manifold: FrameManifold, xi_index: int,
                        plane: tuple[int, int]) -> ContactStructure:
    # phi rotates e_a -> e_b -> -e_a and kills xi
    a, b = plane
    dim = manifold.dim
    rows = [VectorField.zero(dim)] * dim
    rows[a - 1] = VectorField.basis(dim, b)
    rows[b - 1] = -VectorField.basis(dim, a)
    return ContactStructure(manifold, tuple(rows),
                            VectorField.basis(dim, xi_index))


def build_example_41() -> CatalogEntry:
    """Chart frame on {x != 0} with a refutable nullity claim.

    e1 = (2/x) d/dy, e2 = 2 d/dx - (4z/x) d/dy + xy d/dz, e3 = d/dz,
    orthonormal, with phi(e1) = e2, phi(e2) = -e1 and xi = e3.  The
    frame comes with a claimed nullity structure, kappa = mu = -2/x;
    solve_kappa_mu shows the condition is inconsistent
    (R(e1,e2)e3 = -(4/x)e2 where the claim forces 0).
    """
    table = SymbolTable()
    for name in ("x", "y", "z"):
        table.add(name, KIND_COORDINATE)
    e = lambda s: parse(s, table)
    frame = (
        (e("0"), e("2/x"), e("0")),
        (e("2"), e("-4*z/x"), e("x*y")),
        (e("0"), e("0"), e("1")),
    )
    manifold = FrameManifold.chart(3, table, frame)
    structure = _rotation_structure(manifold, xi_index=3, plane=(1, 2))
    return CatalogEntry("example41", manifold, structure)


def _parameter_table() -> SymbolTable:
    table = SymbolTable()
    table.add("lambda", KIND_PARAMETER)
    table.add("mu", KIND_PARAMETER)
    return table


def build_kmu_frame() -> CatalogEntry:
    """Abstract orthonormal frame with [e2,e3] = 2e1, [e3,e1] = c2 e2,
    [e1,e2] = c3 e3 for c2 = 1 - lambda - mu/2, c3 = 1 + lambda - mu/2.

    xi = e1, phi(e2) = e3, phi(e3) = -e2; h = diag(0, lambda, -lambda)
    and the nullity condition solves to kappa = 1 - lambda^2 exactly.
    Symbolic; CatalogEntry.substitute instantiates it.  lambda must not
    be zero (the h-eigenframe construction needs kappa < 1).
    """
    table = _parameter_table()
    e = lambda s: parse(s, table)
    c2, c3 = e("1 - lambda - mu/2"), e("1 + lambda - mu/2")
    brackets = {
        (1, 2): (e("0"), e("0"), c3),
        (1, 3): (e("0"), -c2, e("0")),
        (2, 3): (e("2"), e("0"), e("0")),
    }
    manifold = FrameManifold.abstract(3, table, brackets)
    structure = _rotation_structure(manifold, xi_index=1, plane=(2, 3))
    return CatalogEntry("kmu", manifold, structure)


def build_sasakian_sphere() -> CatalogEntry:
    """Cyclic bracket frame [e_i, e_j] = 2 e_k: the unit sphere.

    Sasakian with constant curvature 1, h = 0 and scalar curvature 6.
    """
    table = SymbolTable()
    two = Expr.integer(2)
    brackets = {
        (1, 2): (Expr.zero(), Expr.zero(), two),
        (1, 3): (Expr.zero(), -two, Expr.zero()),
        (2, 3): (two, Expr.zero(), Expr.zero()),
    }
    manifold = FrameManifold.abstract(3, table, brackets)
    structure = _rotation_structure(manifold, xi_index=1, plane=(2, 3))
    return CatalogEntry("sphere", manifold, structure)


def build_flat_euclidean(dim: int = 3) -> CatalogEntry:
    """Abelian frame on flat space; no contact structure attached."""
    if dim % 2 == 0 or dim < 3:
        raise CatalogError(f"dimension must be odd and >= 3, got {dim}")
    manifold = FrameManifold.abstract(dim, SymbolTable(), {})
    return CatalogEntry(f"flat{dim}", manifold, None)


_BUILDERS = {
    "example41": build_example_41,
    "kmu": build_kmu_frame,
    "sphere": build_sasakian_sphere,
    "flat3": lambda: build_flat_euclidean(3),
    "flat5": lambda: build_flat_euclidean(5),
}


def entry_ids() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def build(entry_id: str) -> CatalogEntry:
    try:
        builder = _BUILDERS[entry_id]
    except KeyError:
        known = ", ".join(entry_ids())
        raise CatalogError(
            f"unknown catalog id {entry_id!r}; available: {known}") from None
    return builder()


__all__ = [
    "CatalogEntry",
    "CatalogError",
    "build",
    "build_example_41",
    "build_flat_euclidean",
    "build_kmu_frame",
    "build_sasakian_sphere",
    "entry_ids",
]

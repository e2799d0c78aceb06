"""Built-in manifolds: the frames every test and demo runs against.

Each entry is a manifest document in the schema `export` writes and is
built through `ingest_manifest`, like any user file.  A document may omit
`metric` (the identity) and write its expressions by hand, since `parse`
puts them in canonical form.
"""

from __future__ import annotations

from .manifest import CatalogEntry, entry_from_ingest, ingest_manifest


class CatalogError(Exception):
    pass


# phi rotates e_a -> e_b -> -e_a and kills xi; row i is phi(e_i)
_PHI_E1_TO_E2 = [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]]
_PHI_E2_TO_E3 = [["0", "0", "0"], ["0", "0", "1"], ["0", "-1", "0"]]

_DOCUMENTS = {
    # Chart frame on {x != 0} with a refutable nullity claim:
    # e1 = (2/x) d/dy, e2 = 2 d/dx - (4z/x) d/dy + xy d/dz, e3 = d/dz,
    # orthonormal, with phi(e1) = e2, phi(e2) = -e1 and xi = e3.  The frame
    # comes with a claimed nullity structure, kappa = mu = -2/x;
    # solve_kappa_mu shows the condition is inconsistent
    # (R(e1,e2)e3 = -(4/x)e2 where the claim forces 0).
    "example41": {
        "schema_version": 1, "name": "example41", "dimension": 3,
        "mode": "chart",
        "symbols": [{"name": s, "kind": "coordinate"} for s in "xyz"],
        "frame": [["0", "2/x", "0"],
                  ["2", "-4*z/x", "x*y"],
                  ["0", "0", "1"]],
        "phi": _PHI_E1_TO_E2, "xi": ["0", "0", "1"]},
    # Abstract orthonormal frame with [e2,e3] = 2e1, [e3,e1] = c2 e2,
    # [e1,e2] = c3 e3 for c2 = 1 - lambda - mu/2, c3 = 1 + lambda - mu/2.
    # xi = e1, phi(e2) = e3, phi(e3) = -e2; h = diag(0, lambda, -lambda)
    # and the nullity condition solves to kappa = 1 - lambda^2 exactly.
    # Symbolic; CatalogEntry.substitute instantiates it.  lambda must not
    # be zero (the h-eigenframe construction needs kappa < 1).
    "kmu": {
        "schema_version": 1, "name": "kmu", "dimension": 3,
        "mode": "abstract",
        "symbols": [{"name": "lambda", "kind": "parameter"},
                    {"name": "mu", "kind": "parameter"}],
        "brackets": [
            {"i": 1, "j": 2, "components": ["0", "0", "1 + lambda - mu/2"]},
            {"i": 1, "j": 3,
             "components": ["0", "-(1 - lambda - mu/2)", "0"]},
            {"i": 2, "j": 3, "components": ["2", "0", "0"]}],
        "phi": _PHI_E2_TO_E3, "xi": ["1", "0", "0"]},
    # Cyclic bracket frame [e_i, e_j] = 2 e_k: the unit sphere.  Sasakian
    # with constant curvature 1, h = 0 and scalar curvature 6.
    "sphere": {
        "schema_version": 1, "name": "sphere", "dimension": 3,
        "mode": "abstract",
        "brackets": [{"i": 1, "j": 2, "components": ["0", "0", "2"]},
                     {"i": 1, "j": 3, "components": ["0", "-2", "0"]},
                     {"i": 2, "j": 3, "components": ["2", "0", "0"]}],
        "phi": _PHI_E2_TO_E3, "xi": ["1", "0", "0"]},
    # Abelian frames on flat space; no contact structure attached.
    **{f"flat{dim}": {"schema_version": 1, "name": f"flat{dim}",
                      "dimension": dim, "mode": "abstract"}
       for dim in (3, 5)},
}


def entry_ids() -> tuple[str, ...]:
    return tuple(_DOCUMENTS)


def build(entry_id: str) -> CatalogEntry:
    try:
        doc = _DOCUMENTS[entry_id]
    except KeyError:
        known = ", ".join(entry_ids())
        raise CatalogError(
            f"unknown catalog id {entry_id!r}; available: {known}") from None
    return entry_from_ingest(ingest_manifest(doc))


__all__ = [
    "CatalogEntry",
    "CatalogError",
    "build",
    "entry_ids",
]

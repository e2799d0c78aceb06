"""Generated test frames, as manifest documents and as catalog entries.

- H^{2n+1}: the Heisenberg group with [e_2a, e_2a+1] = 2 e_1, xi = e_1 and
  phi(e_2a) = e_2a+1, identity metric.  Sasakian in every dimension.
- example41 with its denominator x replaced by a polynomial p(x): a chart
  frame whose connection and curvature components depend on x, so the
  derivative terms of the covariant derivative do not vanish.
- example41 with e2 and e3 rotated by the Cayley map of a coordinate, the
  one frame whose eta has non-constant frame components.
- the D-homothetic deformation of the kmu family by a parameter a: metric
  diag(a^2, a, a), xi = e1/a, phi unchanged.
- the sphere's cyclic brackets under a non-identity metric.
- a rotation structure phi(e_a) = e_b, phi(e_b) = -e_a, xi = e_k on any
  frame manifold.
- brackets that break the Jacobi identity: a fixed 3-dimensional table
  and seeded random 5-dimensional ones.
"""

import random
from fractions import Fraction

from contact_tensor.catalog import build
from contact_tensor.contact import ContactStructure
from contact_tensor.expr import SymbolTable
from contact_tensor.frame import FrameManifold, VectorField
from contact_tensor.manifest import (entry_from_ingest, export_entry,
                                     ingest_manifest)

NON_IDENTITY_METRICS = {
    "scaled": [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
    "berger": [[1, 0, 0], [0, Fraction(1, 3), 0], [0, 0, Fraction(1, 3)]],
    "non-diagonal": [[2, 1, 0], [1, 2, 0], [0, 0, 1]],
}


def _identity(dim):
    return [["1" if a == b else "0" for b in range(dim)] for a in range(dim)]


def heisenberg_manifest(n):
    dim = 2 * n + 1
    phi = [["0"] * dim for _ in range(dim)]
    brackets = []
    for a in range(1, n + 1):
        i, j = 2 * a, 2 * a + 1
        brackets.append({"i": i, "j": j,
                         "components": ["2"] + ["0"] * (dim - 1)})
        phi[i - 1][j - 1] = "1"
        phi[j - 1][i - 1] = "-1"
    return {"schema_version": 1, "name": f"heisenberg{dim}",
            "dimension": dim, "mode": "abstract", "symbols": [],
            "brackets": brackets, "metric": _identity(dim), "phi": phi,
            "xi": ["1"] + ["0"] * (dim - 1)}


def chart_manifest(p):
    return {"schema_version": 1, "name": "chart", "dimension": 3,
            "mode": "chart",
            "symbols": [{"name": s, "kind": "coordinate"} for s in "xyz"],
            "frame": [["0", f"2/({p})", "0"],
                      ["2", f"-4*z/({p})", "x*y"],
                      ["0", "0", "1"]],
            "metric": _identity(3),
            "phi": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]],
            "xi": ["0", "0", "1"]}


def cayley_example41_manifest(t="x"):
    """example41 with e2 and e3 turned by the Cayley rotation of t:
    e2' = c e2 + s e3 and e3' = -s e2 + c e3, with c = (1 - t^2)/(1 + t^2)
    and s = 2t/(1 + t^2); phi and xi are rewritten in the new frame, so
    eta has the non-constant frame components (0, s, c)."""
    c, s = f"(1-({t})^2)/(1+({t})^2)", f"2*({t})/(1+({t})^2)"
    return {"schema_version": 1, "name": "example41-cayley", "dimension": 3,
            "mode": "chart",
            "symbols": [{"name": n, "kind": "coordinate"} for n in "xyz"],
            "frame": [["0", "2/x", "0"],
                      [f"2*{c}", f"-4*z/x*{c}", f"x*y*{c}+{s}"],
                      [f"-2*{s}", f"4*z/x*{s}", f"-x*y*{s}+{c}"]],
            "metric": _identity(3),
            "phi": [["0", c, f"-{s}"], [f"-{c}", "0", "0"], [s, "0", "0"]],
            "xi": ["0", s, c]}


def entry(doc):
    return entry_from_ingest(ingest_manifest(doc))


def deformed_kmu_manifest():
    """kmu after the D-homothetic deformation g' = a g + a(a-1) eta (x) eta,
    xi' = xi/a, phi' = phi (Tanno 1968)."""
    doc = export_entry(build("kmu"))
    doc["symbols"].append({"name": "a", "kind": "parameter"})
    doc["metric"] = [["a^2", "0", "0"], ["0", "a", "0"], ["0", "0", "a"]]
    doc["xi"] = ["1/a", "0", "0"]
    return doc


def rotation_structure(manifold, xi_index, plane):
    # phi rotates e_a -> e_b -> -e_a and kills xi
    a, b = plane
    dim = manifold.dim
    rows = [VectorField.zero(dim)] * dim
    rows[a - 1] = VectorField.basis(dim, b)
    rows[b - 1] = -VectorField.basis(dim, a)
    return ContactStructure(manifold, tuple(rows),
                            VectorField.basis(dim, xi_index))


def sphere_brackets(metric):
    """The sphere's brackets [e1,e2] = 2e3, [e3,e1] = 2e2, [e2,e3] = 2e1
    under the given metric, with no structure."""
    return FrameManifold.abstract(
        3, SymbolTable(),
        {(1, 2): (0, 0, 2), (1, 3): (0, -2, 0), (2, 3): (2, 0, 0)}, metric)


def jacobi_failing_frame():
    """[e1,e2] = e3, [e1,e3] = e1, [e2,e3] = e1: the cyclic sum at
    (1, 2, 3) is not zero."""
    return FrameManifold.abstract(3, SymbolTable(), {
        (1, 2): (0, 0, 1), (1, 3): (1, 0, 0), (2, 3): (1, 0, 0)})


def random_brackets(seed, dim=5):
    """Seeded constant structure constants, about a third of them
    nonzero, which break the Jacobi identity on most triples."""
    rng = random.Random(seed)
    return FrameManifold.abstract(dim, SymbolTable(), {
        (i, j): tuple(rng.choice((0, 0, 1, -2, Fraction(1, 2)))
                      for _ in range(dim))
        for i in range(1, dim + 1) for j in range(i + 1, dim + 1)})

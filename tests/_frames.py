"""Generated test frames, as manifest documents and as catalog entries.

- H^{2n+1}: the Heisenberg group with [e_2a, e_2a+1] = 2 e_1, xi = e_1 and
  phi(e_2a) = e_2a+1, identity metric.  Sasakian in every dimension.
- example41 with its denominator x replaced by a polynomial p(x): a chart
  frame whose connection and curvature components depend on x, so the
  derivative terms of the covariant derivative do not vanish.
"""

from contact_tensor.manifest import entry_from_ingest, ingest_manifest


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


def entry(doc):
    return entry_from_ingest(ingest_manifest(doc))

"""Workload inputs and output checks for the contact-tensor benchmark.

A workload is a fixed list of CLI commands (one *round*).  Every command
builds or ingests its input from scratch, so no `FrameManifold` cache
survives from one command to the next.  The program sees only the argv
lists and the manifest files written here.

Workloads:

- ``catalog``: ``demo <id> --format json`` for every built-in entry.
- ``heisenberg``: ``report`` on generated H^5 and H^7 manifests.
- ``sweep``: ``sweep`` over the exported ``kmu`` manifest, default grid.
- ``chart``: ``report`` on seeded chart frames shaped like ``example41``.

Outputs of the fixed inputs (everything but ``chart``) are checked against
sha256 digests in ``reference.json``; ``chart`` reports are checked by
their ``self_check`` and by the plain-Fraction oracle in
``tests/_oracles.py``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_FILE = BENCH_DIR / "reference.json"

WORKLOADS = ("catalog", "heisenberg", "sweep", "chart")
CATALOG_IDS = ("example41", "kmu", "sphere", "flat3", "flat5")
# H^{2n+1} for these n; H^9 (n = 4) takes about 10 s a report, too long
# for a timed round
HEISENBERG_NS = (2, 3)
# a chart round is one frame with a degree-1 and one with a degree-2
# denominator, monic with seeded coefficients in CHART_COEFFS
CHART_COEFFS = (1, 2, 3)
CHART_ORACLE_POINTS = 5


@dataclass
class Operation:
    """One CLI command of a round and how its output is checked."""

    name: str
    argv: list[str]
    reports: int = 1               # verified reports this command produces
    digest: str | None = None      # sha256 of stdout, when known
    json_report: bool = True       # stdout is one report JSON document
    oracle_points: list = field(default_factory=list)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_oracles():
    """The plain-Fraction oracle module of the repository's tests."""
    path = ROOT / "tests" / "_oracles.py"
    spec = importlib.util.spec_from_file_location("_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# manifest generators

def _identity(dim: int) -> list[list[str]]:
    return [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]


def heisenberg_manifest(n: int) -> dict:
    """H^{2n+1}: [e_{2a}, e_{2a+1}] = 2 e_1, xi = e_1, phi(e_{2a}) =
    e_{2a+1}, identity metric.  Sasakian with phi-sectional curvature -3."""
    dim = 2 * n + 1
    brackets = []
    phi = [["0"] * dim for _ in range(dim)]
    for a in range(1, n + 1):
        i, j = 2 * a, 2 * a + 1
        brackets.append({"i": i, "j": j,
                         "components": ["2"] + ["0"] * (dim - 1)})
        phi[i - 1][j - 1] = "1"    # phi(e_i) = e_j
        phi[j - 1][i - 1] = "-1"   # phi(e_j) = -e_i
    return {
        "schema_version": 1,
        "name": f"heisenberg{dim}",
        "dimension": dim,
        "mode": "abstract",
        "symbols": [],
        "brackets": brackets,
        "metric": _identity(dim),
        "phi": phi,
        "xi": ["1"] + ["0"] * (dim - 1),
    }


def chart_manifest(name: str, p: str) -> dict:
    """example41 with the denominator x replaced by the polynomial p(x):
    e1 = (2/p) d/dy, e2 = 2 d/dx - (4z/p) d/dy + xy d/dz, e3 = d/dz."""
    return {
        "schema_version": 1,
        "name": name,
        "dimension": 3,
        "mode": "chart",
        "symbols": [{"name": s, "kind": "coordinate"} for s in "xyz"],
        "frame": [["0", f"2/({p})", "0"],
                  ["2", f"-4*z/({p})", "x*y"],
                  ["0", "0", "1"]],
        "metric": _identity(3),
        "phi": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]],
        "xi": ["0", "0", "1"],
    }


def chart_polynomials(seed: int) -> list[str]:
    rng = random.Random(f"chart-{seed}")
    b, c1, c2 = (rng.choice(CHART_COEFFS) for _ in range(3))
    return [f"x+{c1}", f"x^2+{b}*x+{c2}"]


def oracle_points(seed: int, name: str) -> list[dict[str, Fraction]]:
    """Seeded rational points; poles are resampled when checking."""
    rng = random.Random(f"points-{seed}-{name}")
    return [_random_point(rng) for _ in range(4 * CHART_ORACLE_POINTS)]


def _random_point(rng: random.Random) -> dict[str, Fraction]:
    return {s: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for s in "xyz"}


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def build_round(workload: str, seed: int, workdir: Path, cli_main,
                reference: dict[str, str]) -> list[Operation]:
    """Write the workload's inputs into `workdir` and return its round.

    `cli_main` is used only to export the ``kmu`` manifest for ``sweep``;
    `reference` maps operation names to their recorded digests.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "catalog":
        ops = [Operation(f"catalog/{i}", ["demo", i, "--format", "json"])
               for i in CATALOG_IDS]
    elif workload == "heisenberg":
        ops = []
        for n in HEISENBERG_NS:
            doc = heisenberg_manifest(n)
            path = _write(workdir / f"{doc['name']}.json", doc)
            ops.append(Operation(f"heisenberg/{doc['name']}",
                                 ["report", path, "--format", "json"]))
    elif workload == "sweep":
        path = str(workdir / "kmu.json")
        if cli_main(["export", "kmu", "-o", path]) != 0:
            raise RuntimeError("export kmu failed")
        ops = [Operation("sweep/kmu", ["sweep", path], reports=16,
                         json_report=False)]
    elif workload == "chart":
        ops = []
        for k, p in enumerate(chart_polynomials(seed)):
            name = f"chart{k}"
            path = _write(workdir / f"{name}.json", chart_manifest(name, p))
            ops.append(Operation(f"chart/{name}:{p}",
                                 ["report", path, "--format", "json"],
                                 oracle_points=oracle_points(seed, name)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for op in ops:
        op.digest = reference.get(op.name)
    return ops


# ---------------------------------------------------------------------------
# output checks

class Checker:
    """Checks one command's exit code and stdout.

    Digests of outputs checked once by the oracle are remembered, so later
    rounds only compare digests.
    """

    def __init__(self, expr, oracles):
        self._expr = expr              # the contact_tensor.expr module
        self._oracles = oracles
        self._seen: dict[str, str] = {}

    def check(self, op: Operation, code: int, out: str) -> str | None:
        """None when the output is right, else the reason it is not."""
        if code != 0:
            return f"exit code {code}"
        if op.json_report:
            try:
                report = json.loads(out)
            except json.JSONDecodeError as exc:
                return f"stdout is not JSON: {exc}"
            failed = [k for k, v in report["self_check"].items()
                      if v is False]
            if failed:
                return "self_check false: " + ", ".join(failed)
        elif not out.startswith("lambda,mu,") or \
                len(out.splitlines()) != op.reports + 1:
            return "unexpected sweep CSV shape"
        digest = sha256(out)
        expected = op.digest or self._seen.get(op.name)
        if expected is not None:
            return None if digest == expected else "stdout digest mismatch"
        if not op.oracle_points:
            return "no reference digest for this input"
        reason = self._check_oracle(op, report)
        if reason is None:
            self._seen[op.name] = digest
        return reason

    def _check_oracle(self, op: Operation, report: dict) -> str | None:
        # chart frames: the connection at a point must equal the orthonormal
        # Koszul formula applied to the brackets at that point
        expr = self._expr
        symbols = expr.SymbolTable()
        for s in report["manifest"]["symbols"]:
            symbols.add(s["name"], s["kind"])
        dim = report["manifest"]["dimension"]
        brackets = {(b["i"], b["j"]): [expr.parse(c, symbols)
                                       for c in b["components"]]
                    for b in report["brackets"]}
        conn = {(c["i"], c["j"]): [expr.parse(x, symbols)
                                   for x in c["components"]]
                for c in report["connection"]}
        checked = 0
        for point in op.oracle_points:
            try:
                consts = {key: [e.eval(point) for e in comps]
                          for key, comps in brackets.items()}
                got = {key: [e.eval(point) for e in comps]
                       for key, comps in conn.items()}
            except expr.PoleError:
                continue          # a pole: take the next point
            gamma = self._oracles.christoffel(consts, dim)
            for (i, j), comps in got.items():
                if comps != gamma[i - 1][j - 1]:
                    return (f"connection nabla_e{i} e{j} differs from the "
                            f"oracle at {point}")
            checked += 1
            if checked == CHART_ORACLE_POINTS:
                return None
        return "too few pole-free oracle points"

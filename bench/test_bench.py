"""Checks of the benchmark's own inputs, output gate and tracer.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from contact_tensor import cli, expr  # noqa: E402
from contact_tensor.manifest import entry_from_ingest, ingest_manifest  # noqa: E402
from contact_tensor.report import build_report  # noqa: E402

ORACLES = workloads.load_oracles()


def _ops(workload, tmp_path, seed=0):
    return workloads.build_round(workload, seed, tmp_path / workload,
                                 cli.main, workloads.load_reference())


def _run(ops):
    return run.Run(cli, ops, workloads.Checker(expr, ORACLES))


@pytest.fixture(scope="module")
def heisenberg_reports():
    return {n: build_report(entry_from_ingest(
        ingest_manifest(workloads.heisenberg_manifest(n))))
        for n in (1, 2, 3)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_heisenberg_manifest_is_a_contact_metric_lie_algebra(n):
    entry = entry_from_ingest(ingest_manifest(workloads.heisenberg_manifest(n)))
    assert entry.manifold.check_jacobi().ok
    assert not entry.structure.validate_almost_contact()
    assert entry.structure.check_contact_metric().ok


@pytest.mark.parametrize("n", [1, 2, 3])
def test_heisenberg_tables_equal_the_oracle(heisenberg_reports, n):
    report = heisenberg_reports[n]
    dim = 2 * n + 1
    doc = workloads.heisenberg_manifest(n)
    consts = {(i, j): [Fraction(0)] * dim
              for i in range(1, dim + 1) for j in range(i + 1, dim + 1)}
    for b in doc["brackets"]:
        consts[(b["i"], b["j"])] = [Fraction(c) for c in b["components"]]
    gamma = ORACLES.christoffel(consts, dim)
    table = ORACLES.riemann_table(consts, gamma, dim)
    ricci = ORACLES.ricci_table(table, dim)
    for row in report["connection"]:
        assert [Fraction(c) for c in row["components"]] == \
            gamma[row["i"] - 1][row["j"] - 1]
    for row in report["curvature"]["riemann"]:
        assert [Fraction(c) for c in row["components"]] == \
            table[row["i"] - 1][row["j"] - 1][row["k"] - 1]
    assert [[Fraction(c) for c in r] for r in report["curvature"]["ricci"]] \
        == ricci
    assert Fraction(report["curvature"]["scalar"]) == \
        ORACLES.scalar_curvature(ricci, dim)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_heisenberg_values_known_from_theory(heisenberg_reports, n):
    # Blair: Sasakian, h = 0, K(xi, X) = 1, phi-sectional curvature -3,
    # scalar curvature -2n
    report = heisenberg_reports[n]
    dim = 2 * n + 1
    assert report["classification"]["sasakian"]["ok"] is True
    assert all(c == "0" for row in report["structure"]["h"] for c in row)
    riemann = {(r["i"], r["j"], r["k"]): r["components"]
               for r in report["curvature"]["riemann"]}
    for a in range(2, dim + 1):
        # g(R(e_a, xi) xi, e_a) = -g(R(xi, e_a) xi, e_a)
        assert -Fraction(riemann[(1, a, 1)][a - 1]) == 1
    for a in range(1, n + 1):
        x, y = 2 * a, 2 * a + 1          # y = phi x
        assert Fraction(riemann[(x, y, y)][x - 1]) == -3
    assert Fraction(report["curvature"]["scalar"]) == -2 * n


def test_chart_inputs_are_seeded():
    assert workloads.chart_polynomials(7) == workloads.chart_polynomials(7)
    polys = workloads.chart_polynomials(7)
    assert polys[0].startswith("x+") and polys[1].startswith("x^2+")
    assert len({tuple(workloads.chart_polynomials(s)) for s in range(20)}) > 1
    assert workloads.oracle_points(7, "chart0") == \
        workloads.oracle_points(7, "chart0")


def test_gate_checks_chart_output_against_the_oracle(tmp_path):
    op = _ops("chart", tmp_path, seed=3)[0]          # the degree-1 frame
    checker = workloads.Checker(expr, ORACLES)
    code, out, error, _, _ = run.run_operation(cli, op)
    assert error is None and code == 0
    broken = out.replace('"torsion_free": true', '"torsion_free": false')
    assert checker.check(op, code, broken).startswith("self_check false")
    wrong = _shift_connection(out)
    assert "differs from the oracle" in workloads.Checker(
        expr, ORACLES).check(op, code, wrong)
    assert checker.check(op, code, out) is None
    # after one oracle check the digest is remembered
    assert checker.check(op, code, wrong) == "stdout digest mismatch"


def _shift_connection(out):
    report = json.loads(out)
    row = next(r for r in report["connection"]
               if any(c != "0" for c in r["components"]))
    row["components"] = [f"({c})+1" if c != "0" else c
                         for c in row["components"]]
    return json.dumps(report)


def test_gate_lists_misses_by_input_and_keeps_running(tmp_path):
    ops = _ops("catalog", tmp_path)
    ops[1].digest = "0" * 64
    ops[2].argv = ["demo", "no-such-entry", "--format", "json"]
    r = _run(ops)
    r.round()
    assert r.attempted == len(ops)
    assert r.failed == 2
    assert r.misses == [f"{ops[1].name}: stdout digest mismatch",
                        f"{ops[2].name}: exit code 1"]


def test_no_two_operations_share_a_manifold_or_manifest(tmp_path,
                                                        monkeypatch):
    seen = {}            # id -> (object, operation); the object pins the id
    current = []

    def record(obj):
        owner = seen.setdefault(id(obj), (obj, current[0]))[1]
        assert owner == current[0], f"{obj!r} shared by {owner} and " \
                                    f"{current[0]}"

    real_build_report, real_load = cli.build_report, cli.load_manifest

    def build_report_spy(entry):
        record(entry.manifold)
        return real_build_report(entry)

    def load_spy(path):
        result = real_load(path)
        record(result)
        record(result.manifest)
        record(result.manifold)
        return result

    monkeypatch.setattr(cli, "build_report", build_report_spy)
    monkeypatch.setattr(cli, "load_manifest", load_spy)
    for workload in ("catalog", "sweep"):
        ops = _ops(workload, tmp_path)
        r = _run(ops)
        for round_no in range(2):
            for op in ops:
                current[:] = [(round_no, op.name)]
                code, out, error, _, _ = run.run_operation(cli, op)
                assert error is None and code == 0
                assert r.checker.check(op, code, out) is None


def _traced_counts(ops):
    r = _run(ops)
    tr = tracer.Tracer()
    rounds = []
    for round_no in range(2):
        first = len(tr.spans)
        tr.counts.clear()
        r.round(tr, round_no)
        rounds.append(tr.layer_metrics(first))
    assert r.failed == 0, r.misses        # traced output = reference output
    return rounds


def _counters(metrics):
    return {k: v for k, v in metrics.items()
            if k in tracer.COUNT_METRICS or k in tracer.SHARE_METRICS}


@pytest.mark.parametrize("workload", ["catalog", "heisenberg", "chart"])
def test_traced_counters_repeat(tmp_path, workload):
    ops = _ops(workload, tmp_path, seed=3)[:1 if workload != "catalog" else 5]
    first, second = _traced_counts(ops)
    assert _counters(first) == _counters(second)
    assert set(first) == set(tracer.SELF_TIME_METRICS) | \
        set(tracer.COUNT_METRICS) | set(tracer.SHARE_METRICS)
    if workload == "heisenberg":
        assert first["expr.gcd_calls"] == 0
    if workload == "chart":
        assert first["expr.gcd_calls"] > 0
    assert first["expr.add_calls"] > 0
    assert first["cli.main_s"] > 0


def test_tracer_restores_the_program(tmp_path):
    before = {name: vars(cli)[name] for name in ("main", "build_report")}
    add = expr.Expr.__add__
    with tracer.Tracer():
        assert cli.main is not before["main"]
    assert {name: vars(cli)[name] for name in before} == before
    assert expr.Expr.__add__ is add

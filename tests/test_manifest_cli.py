"""Manifest serialization, exhaustive ingest validation, and the CLI."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from contact_tensor import cli
from contact_tensor.catalog import build, entry_ids
from contact_tensor.manifest import (
    ManifestError,
    entry_from_ingest,
    export_entry,
    ingest_manifest,
    load_manifest,
    manifest_to_json,
)
from contact_tensor.report import analyse, build_report, failed_self_checks

from _frames import (chart_manifest, deformed_kmu_manifest,
                     heisenberg_manifest)


# an integer literal or result longer than the interpreter's int/str digit
# limit; 5,000 digits pass the default limit of 4,300
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not 0 < _DIGIT_LIMIT < 5000,
    reason="needs an int/str digit limit below 5000 digits")


def test_export_golden_sphere():
    doc = export_entry(build("sphere"))
    assert list(doc) == ["schema_version", "name", "dimension", "mode",
                        "symbols", "brackets", "metric", "phi", "xi"]
    assert doc["schema_version"] == 1
    assert doc["name"] == "sphere"
    assert doc["mode"] == "abstract"
    assert doc["symbols"] == []
    assert doc["brackets"] == [
        {"i": 1, "j": 2, "components": ["0", "0", "2"]},
        {"i": 1, "j": 3, "components": ["0", "-2", "0"]},
        {"i": 2, "j": 3, "components": ["2", "0", "0"]},
    ]
    assert doc["xi"] == ["1", "0", "0"]
    assert doc["phi"][1] == ["0", "0", "1"]


def test_export_chart_uses_frame_key():
    doc = export_entry(build("example41"))
    assert doc["mode"] == "chart"
    assert "brackets" not in doc
    assert doc["frame"] == [["0", "2/x", "0"], ["2", "-4*z/x", "x*y"],
                            ["0", "0", "1"]]
    names = [rec["name"] for rec in doc["symbols"]]
    assert names == ["x", "y", "z"]


def test_round_trip_is_byte_identical():
    for name in entry_ids():
        first = manifest_to_json(export_entry(build(name)))
        result = ingest_manifest(json.loads(first))
        second = manifest_to_json(export_entry(entry_from_ingest(result)))
        assert first == second, name


def test_ingest_collects_all_errors():
    doc = {
        "schema_version": 2,
        "name": "",
        "dimension": 3,
        "mode": "abstract",
        "symbols": [{"name": "x", "kind": "weird"}],
        "metric": [["1", "0", "0"], ["0", "1", "0"]],
        "brackets": [
            {"i": 0, "j": 2, "components": ["0", "0", "0"]},
            {"i": 1, "j": 2, "components": ["0", "0"]},
            {"i": 1, "j": 3, "components": ["0", "0", "1"]},
            {"i": 1, "j": 3, "components": ["0", "0", "1"]},
        ],
        "phi": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]],
        "bogus": True,
    }
    with pytest.raises(ManifestError) as info:
        ingest_manifest(doc)
    errors = info.value.errors
    assert "bogus: unknown field" in errors
    assert "schema_version: expected 1, got 2" in errors
    assert "name: expected a non-empty string" in errors
    assert any(e.startswith("symbols[0]:") for e in errors)
    assert "metric: expected 3 rows" in errors
    assert "brackets[0]: expected indices 1 <= i < j <= 3" in errors
    assert "brackets[1].components: expected 3 entries" in errors
    assert "brackets[3]: duplicate pair (1,3)" in errors
    assert "phi/xi: phi and xi must be given together" in errors
    # the message string joins every problem
    assert "; " in str(info.value)


def test_ingest_dimension_is_fatal():
    with pytest.raises(ManifestError) as info:
        ingest_manifest({"schema_version": 1, "name": "m", "dimension": 4,
                         "mode": "abstract"})
    assert info.value.errors == [
        "dimension: expected an odd integer from 3 to 15, got 4"]
    with pytest.raises(ManifestError) as info:
        ingest_manifest({"schema_version": 1, "name": "m", "dimension": 3,
                         "mode": "weird"})
    assert info.value.errors == [
        "mode: expected 'abstract' or 'chart', got 'weird'"]
    with pytest.raises(ManifestError) as info:
        ingest_manifest([1, 2])
    assert info.value.errors == ["manifest: expected a JSON object"]


def test_ingest_mode_key_mismatches():
    base = {"schema_version": 1, "name": "m", "dimension": 3}
    chart = dict(base, mode="chart",
                 symbols=[{"name": n, "kind": "coordinate"}
                          for n in ("x", "y", "z")],
                 frame=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                 brackets=[])
    with pytest.raises(ManifestError) as info:
        ingest_manifest(chart)
    assert "brackets: not allowed in chart mode" in info.value.errors
    flat = dict(base, mode="abstract",
                frame=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    with pytest.raises(ManifestError) as info:
        ingest_manifest(flat)
    assert "frame: not allowed in abstract mode (use 'brackets')" \
        in info.value.errors


def test_ingest_expression_errors_carry_paths():
    doc = {"schema_version": 1, "name": "m", "dimension": 3,
           "mode": "abstract",
           "metric": [["1", "0", "1+"], ["0", "1", "0"], ["0", "0", "1"]],
           "xi": ["1", "0"], "phi": [["0"] * 3] * 3}
    with pytest.raises(ManifestError) as info:
        ingest_manifest(doc)
    errors = info.value.errors
    assert any(e.startswith("metric[0][2]: unexpected end of input")
               for e in errors)
    assert "xi: expected 3 entries" in errors


def test_load_manifest_errors(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(ManifestError) as info:
        load_manifest(str(missing))
    assert str(missing) in info.value.errors[0]
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ManifestError) as info:
        load_manifest(str(bad))
    assert "invalid JSON at line 1" in info.value.errors[0]
    bad.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ManifestError) as info:
        load_manifest(str(bad))
    assert info.value.errors[0].startswith(f"{bad}: not UTF-8 text: ")
    bad.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(ManifestError) as info:
        load_manifest(str(bad))
    assert info.value.errors == [f"{bad}: JSON nested too deeply"]


def write_manifest(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(manifest_to_json(export_entry(build(name))))
    return str(path)


def test_cli_demo_text(capsys):
    assert cli.main(["demo", "sphere"]) == 0
    out = capsys.readouterr().out
    assert "sphere" in out
    assert "\x1b[" not in out


@pytest.mark.parametrize("command", ["demo", "export"])
def test_cli_demo_unknown_id(command, capsys):
    assert cli.main([command, "nope"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("target, reason", [
    ("missing/k.json", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing-dir", "directory"])
def test_cli_export_unwritable_output(target, reason, tmp_path, capsys):
    path = str(tmp_path / target)
    assert cli.main(["export", "kmu", "-o", path]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: {reason}\n"
    assert "Traceback" not in err


def test_cli_demo_json(capsys):
    assert cli.main(["demo", "kmu", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for key in ("schema_version", "name", "manifest", "brackets",
                "structure", "connection", "curvature", "classification",
                "diagnostics", "self_check"):
        assert key in doc, key
    assert doc["name"] == "kmu"
    assert all(v is True for v in doc["self_check"].values()
               if v is not None)


def test_cli_export(tmp_path, capsys):
    target = tmp_path / "kmu.json"
    assert cli.main(["export", "kmu", "-o", str(target)]) == 0
    want = manifest_to_json(export_entry(build("kmu")))
    assert target.read_text() == want
    assert cli.main(["export", "kmu"]) == 0
    assert capsys.readouterr().out == want


def test_cli_report_round_trip(tmp_path, capsys):
    # exporting, reporting and re-reporting the re-export must agree
    path = write_manifest(tmp_path, "example41")
    assert cli.main(["report", path, "--format", "json"]) == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert doc["classification"]["kappa_mu"]["status"] == "inconsistent"
    again = tmp_path / "again.json"
    again.write_text(manifest_to_json(doc["manifest"]))
    assert cli.main(["report", str(again), "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert json.loads(second)["curvature"] == doc["curvature"]


def test_cli_report_names_the_binding_where_kappa_exceeds_one(tmp_path,
                                                             capsys):
    # [e2,e3] = 201/100 e1 gives kappa = -lambda^2 + 40401/40000, which is
    # above 1 at lambda = 0
    doc = export_entry(build("kmu"))
    doc["brackets"][2]["components"][0] = "201/100"
    path = tmp_path / "kmu-201.json"
    path.write_text(manifest_to_json(doc))
    assert cli.main(["report", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classification"]["kappa_mu"]["kappa_le_one"] is False
    assert any("kappa > 1 at lambda=0 (kappa = 40401/40000)" in d
               for d in report["diagnostics"])


def test_cli_report_set_bindings(tmp_path, capsys):
    path = write_manifest(tmp_path, "kmu")
    rc = cli.main(["report", path, "--set", "lambda=1/2", "--set", "mu=0",
                   "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classification"]["kappa_mu"]["kappa"] == "3/4"
    # decimal literals bind the same rationals
    rc = cli.main(["report", path, "--set", "lambda=0.5", "--set", "mu=1e3",
                   "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classification"]["kappa_mu"]["kappa"] == "3/4"
    assert doc["classification"]["kappa_mu"]["mu"] == "1000"


def _chart_with(c):
    # example41 with its denominator x replaced by x+c, declaring a
    # parameter a
    doc = chart_manifest(f"x+{c}")
    doc["symbols"].append({"name": "a", "kind": "parameter"})
    return doc


def _cyclic_without_structure(c):
    # the sphere's cyclic brackets scaled by c, with no phi or xi
    return {"schema_version": 1, "name": "cyclic", "dimension": 3,
            "mode": "abstract",
            "symbols": [{"name": "a", "kind": "parameter"}],
            "brackets": [{"i": 1, "j": 2, "components": ["0", "0", c]},
                         {"i": 2, "j": 3, "components": [c, "0", "0"]},
                         {"i": 1, "j": 3, "components": ["0", f"-{c}", "0"]}]}


@pytest.mark.parametrize("make", [_chart_with, _cyclic_without_structure],
                         ids=["chart", "abstract-no-structure"])
def test_cli_report_set_equals_the_manifest_written_with_the_value(
        make, tmp_path, capsys):
    # --set substitutes through the chart frame and through an entry without
    # a structure; the report must equal that of the value written in
    reports = []
    for value, flags in (("a", ["--set", "a=2"]), ("2", [])):
        path = tmp_path / f"m-{value}.json"
        path.write_text(manifest_to_json(make(value)))
        assert cli.main(["report", str(path), *flags, "--format",
                         "json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_cli_set_errors(tmp_path, capsys):
    path = write_manifest(tmp_path, "kmu")
    assert cli.main(["report", path, "--set", "lambda"]) == 1
    assert "--set expects name=value" in capsys.readouterr().err
    assert cli.main(["report", path, "--set", "lambda=abc"]) == 1
    assert "is not a rational number" in capsys.readouterr().err
    assert cli.main(["report", path, "--set", "lambda=1/0"]) == 1
    assert capsys.readouterr().err == (
        "error: --set lambda: '1/0' is not a rational number\n")
    if _DIGIT_LIMIT:
        # refused before the number is built: Fraction('1e10000000')
        # alone takes seconds, and lambda=1e500000 hangs the report
        for value in ("1e10000000", "1e500000", f"1e{_DIGIT_LIMIT}",
                      f"-1e-{_DIGIT_LIMIT}", "1" * (_DIGIT_LIMIT + 1)):
            assert cli.main(["report", path, "--set", f"lambda={value}",
                             "--set", "mu=0"]) == 1
            assert capsys.readouterr().err == (
                f"error: --set lambda: {value!r} has more than "
                f"{_DIGIT_LIMIT} digits, the interpreter's int/str "
                "conversion limit\n")


@pytest.mark.parametrize("command", ["report", "demo"])
def test_cli_set_repeated_name_is_a_usage_error(command, tmp_path, capsys):
    # keeping the last value would make the report depend on the order of
    # the flags (lambda=1/2 then 1 gave kappa 3/4, the reverse gave 0); the
    # repeat is named before any value is read, so a bad value does not
    # make the error text depend on the order either
    target = write_manifest(tmp_path, "kmu") if command == "report" else "kmu"
    errs = []
    for first, last in (("1/2", "1"), ("1", "1/2"), ("abc", "1"),
                        ("1", "abc")):
        assert cli.main([command, target, "--set", "mu=0",
                         "--set", f"lambda={first}",
                         "--set", f"lambda={last}"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        errs.append(out.err)
    assert errs == ["error: --set lambda is given more than once\n"] * 4


def test_cli_main_called_again_answers_as_a_fresh_call(tmp_path, capsys):
    # main builds its parser once per process: a later call must not see
    # an earlier call's arguments, so the --set bindings of the first
    # report must not reach the last one, which binds nothing
    path = write_manifest(tmp_path, "kmu")
    calls = [["report", path, "--set", "lambda=1/2", "--set", "mu=0",
              "--format", "json"],
             ["report"],
             ["export", "kmu"],
             ["demo", "kmu", "--set", "mu=1", "--format", "json"],
             ["report", path, "--format", "json"]]

    def run(argv):
        code = cli.main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    parser = cli._build_parser()
    assert [run(argv) for argv in calls] == fresh
    assert cli._build_parser() is parser
    assert [code for code, _, _ in fresh] == [0, 1, 0, 0, 0]
    assert fresh[0][1] != fresh[4][1]


def test_cli_report_file_errors(tmp_path, capsys):
    assert cli.main(["report", str(tmp_path / "none.json")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("[")
    assert cli.main(["report", str(bad)]) == 1
    assert "invalid JSON" in capsys.readouterr().err
    bad.write_bytes(b"\xff\xfe{}")
    assert cli.main(["report", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8 text: ")
    assert "Traceback" not in err
    bad.write_text("[" * 100000 + "]" * 100000)
    assert cli.main(["report", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: JSON nested too deeply\n"


def test_cli_sweep_golden_grid(tmp_path, capsys):
    path = write_manifest(tmp_path, "kmu")
    assert cli.main(["sweep", path]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == ("lambda,mu,skipped,kappa,flat,locally_symmetric,"
                        "phi_symmetric,locally_phi_symmetric,phi_recurrent,"
                        "phi_recurrent_status,locally_phi_recurrent_status")
    assert len(lines) == 17
    flat_rows = [l for l in lines[1:] if l.split(",")[4] == "true"]
    assert flat_rows == [
        "1,0,false,0,true,true,true,true,true,"
        "trivially_recurrent,trivially_recurrent"]
    assert lines[1] == ("1/4,-1,false,15/16,false,false,false,true,false,"
                        "not_recurrent,not_recurrent")
    assert lines[16] == ("3/2,2,false,-5/4,false,false,false,true,false,"
                         "not_recurrent,not_recurrent")


def test_cli_sweep_custom_grid_json(tmp_path, capsys):
    path = write_manifest(tmp_path, "kmu")
    rc = cli.main(["sweep", path, "--lambda", "1,2", "--mu", "0",
                   "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["grid"] == {"lambda": ["1", "2"], "mu": ["0"]}
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["flat"] is True
    assert doc["rows"][1]["flat"] is False
    assert doc["rows"][1]["kappa"] == "-3"


def test_cli_sweep_grid_values_past_the_digit_limit(tmp_path, capsys):
    path = write_manifest(tmp_path, "kmu")
    assert cli.main(["sweep", path, "--lambda", "1/2", "--mu", "1e3"]) == 0
    assert capsys.readouterr().out.split("\n")[1].startswith("1/2,1000,")
    if _DIGIT_LIMIT:
        # str(lambda) in the sweep row raised ValueError past the limit
        value = f"1e{_DIGIT_LIMIT}"
        assert cli.main(["sweep", path, "--lambda", value, "--mu", "0"]) == 1
        assert capsys.readouterr().err == (
            f"error: --lambda: {value!r} has more than {_DIGIT_LIMIT} "
            "digits, the interpreter's int/str conversion limit\n")


def test_cli_sweep_empty_grid_is_an_input_error(tmp_path, capsys):
    path = write_manifest(tmp_path, "kmu")
    assert cli.main(["sweep", path, "--lambda", ","]) == 1
    assert capsys.readouterr().err == "error: --lambda: empty grid\n"


def test_cli_sweep_lambda_zero_is_skipped(tmp_path, capsys):
    path = write_manifest(tmp_path, "kmu")
    assert cli.main(["sweep", path, "--lambda", "0", "--mu", "0"]) == 0
    line = capsys.readouterr().out.strip().split("\n")[1]
    assert line.startswith("0,0,true,")


@pytest.mark.parametrize("hostile, message", [
    ("pole", "lambda=1, mu=1: substituting mu makes the denominator of "
             "2/(mu-1) identically zero"),
    ("singular-metric", "lambda=1, mu=1: metric: determinant is "
                        "identically zero"),
    # singular for every parameter value: refused at load, before the grid
    ("singular-everywhere", "error: metric: determinant is identically "
                            "zero\n"),
    ("no-structure", "sweep needs a manifest with a contact structure"),
    pytest.param("huge-result",
                 f"lambda=1, mu=0: a number in the result has more than "
                 f"{_DIGIT_LIMIT} digits", marks=needs_digit_limit),
], ids=["pole", "singular-metric", "singular-everywhere", "no-structure",
        "huge-result"])
def test_cli_sweep_hostile_manifest_is_an_input_error(hostile, message,
                                                      tmp_path, capsys):
    doc = export_entry(build("kmu"))
    if hostile == "pole":
        doc["brackets"][2]["components"][0] = "2/(mu-1)"
    elif hostile == "singular-metric":
        doc["metric"][0][0] = "mu-1"
    elif hostile == "singular-everywhere":
        doc["metric"][0][0] = "0"
    elif hostile == "huge-result":
        doc["brackets"][2]["components"][0] = "(10^100)^100"
    else:
        del doc["phi"], doc["xi"]
    path = tmp_path / "hostile.json"
    path.write_text(manifest_to_json(doc))
    assert cli.main(["sweep", str(path), "--lambda", "1", "--mu", "0,1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


def test_cli_set_order_does_not_change_a_pole(tmp_path, capsys):
    # [e2,e3] is 0/0 at lambda = mu = 1: binding lambda first would cancel
    # mu-1 and report 2*e1, binding mu first would cancel lambda-1
    doc = export_entry(build("kmu"))
    doc["symbols"].append({"name": "a", "kind": "parameter"})
    doc["brackets"][2]["components"][0] = "2*(mu-lambda)/(mu-1+(lambda-1)*a)"
    path = tmp_path / "zero-over-zero.json"
    path.write_text(manifest_to_json(doc))
    pole = ("substituting lambda, mu makes the denominator of "
            "(-2*lambda+2*mu)/(a*lambda-a+mu-1) identically zero\n")
    for flags in (["lambda=1", "mu=1"], ["mu=1", "lambda=1"]):
        args = ["report", str(path)]
        for flag in flags:
            args += ["--set", flag]
        assert cli.main(args) == 1
        assert capsys.readouterr().err == "error: " + pole
    assert cli.main(["sweep", str(path), "--lambda", "1", "--mu", "1"]) == 1
    assert capsys.readouterr().err == "error: lambda=1, mu=1: " + pole


def test_cli_sweep_without_nullity_solution_leaves_kappa_empty(tmp_path,
                                                              capsys):
    # a phi that breaks the contact metric axioms skips the nullity solver
    doc = export_entry(build("kmu"))
    doc["phi"] = [["0", "0", "0"], ["1", "1", "0"], ["1", "0", "0"]]
    path = tmp_path / "broken-phi.json"
    path.write_text(manifest_to_json(doc))
    assert cli.main(["sweep", str(path), "--lambda", "1", "--mu", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip().split("\n")[1].split(",")[:4] \
        == ["1", "0", "false", ""]
    assert "Traceback" not in captured.err


def _rotated_kmu():
    """kmu in the orthonormal frame f1 = (3e1+4e2)/5, f2 = (-4e1+3e2)/5,
    f3 = e3: the same structure, with xi = (3/5, -4/5, 0)."""
    doc = export_entry(build("kmu"))
    a = doc["brackets"][0]["components"][2]   # [e1, e2] = a e3
    b = doc["brackets"][1]["components"][1]   # [e1, e3] = b e2
    doc["brackets"] = [
        {"i": 1, "j": 2, "components": ["0", "0", a]},
        {"i": 1, "j": 3,
         "components": [f"(12*({b})+24)/25", f"(9*({b})-32)/25", "0"]},
        {"i": 2, "j": 3,
         "components": [f"(18-16*({b}))/25", f"(-12*({b})-24)/25", "0"]}]
    doc["phi"] = [["0", "0", "4/5"], ["0", "0", "3/5"], ["-4/5", "-3/5", "0"]]
    doc["xi"] = ["3/5", "-4/5", "0"]
    return doc


def test_cli_local_scope_needs_eta_along_one_frame_field(tmp_path, capsys):
    # no frame field spans ker eta here, so the local verdicts are not
    # computed (over the fields with eta(e_i) = 0 they were vacuous)
    path = tmp_path / "rotated.json"
    path.write_text(manifest_to_json(_rotated_kmu()))
    argv = ["report", str(path), "--set", "lambda=1/2", "--set", "mu=1"]
    assert cli.main(argv + ["--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    c = report["classification"]
    assert c["contact_valid"] is True
    assert (c["kappa_mu"]["kappa"], c["kappa_mu"]["mu"]) == ("3/4", "1")
    assert c["phi_recurrent"]["status"] == "not_recurrent"
    assert c["locally_phi_symmetric"] is None
    assert c["locally_phi_recurrent"] is None
    assert report["diagnostics"] == [
        "local phi classifiers skipped: eta has 2 nonzero frame components, "
        "so the frame fields it annihilates do not span ker eta"]
    assert cli.main(argv + ["--strict"]) == 2
    capsys.readouterr()
    assert cli.main(["sweep", str(path), "--lambda", "1/2", "--mu", "1"]) == 0
    row = capsys.readouterr().out.strip().split("\n")[1].split(",")
    assert row == ["1/2", "1", "false", "3/4", "false", "false", "false", "",
                   "false", "not_recurrent", ""]


# sha256 of the sweep output on the exported kmu manifest, recorded while
# each row still came from a full report of its grid point
_SWEEP_DIGESTS = [
    ([], "ef6af9910bd15cf367f648f00e2d76ce391968c9856128c9ed6277d858d663a6"),
    (["--format", "json"],
     "da701545e81947748f64e61f27b6c993218f93e754ae16ce568170aa18440c35"),
    (["--lambda", "0,1/3,1,2", "--mu=-1,0,1/2", "--format", "json"],
     "450483b3c15e701b38ef081a96958cb1fac3879d6cb42875e6bf389041a289a2"),
]


@pytest.mark.parametrize("flags, digest", _SWEEP_DIGESTS,
                         ids=["csv", "json", "json-custom-grid"])
def test_cli_sweep_output_is_pinned(flags, digest, tmp_path, capsys):
    path = write_manifest(tmp_path, "kmu")
    assert cli.main(["sweep", path] + flags) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if not flags:
        reference = Path(__file__).parent.parent / "bench" / "reference.json"
        assert json.loads(reference.read_text())["sweep/kmu"] == digest


def _report_row(entry, lam, mu):
    """A sweep row read from the full report of the grid point: the
    reference that cli._sweep_row must match."""
    row = {"lambda": str(lam), "mu": str(mu)}
    if lam == 0:
        row["skipped"] = True
        row.update(dict.fromkeys(cli._SWEEP_COLUMNS[3:]))
        return row
    row["skipped"] = False
    report = build_report(entry.substitute({"lambda": lam, "mu": mu}))
    assert not failed_self_checks(report["self_check"])
    c = report["classification"]
    rec = c["phi_recurrent"]
    loc_sym, loc_rec = c["locally_phi_symmetric"], c["locally_phi_recurrent"]
    row["kappa"] = c["kappa_mu"] and c["kappa_mu"]["kappa"]
    row["flat"] = c["flat"]
    row["locally_symmetric"] = c["locally_symmetric"]["ok"]
    row["phi_symmetric"] = c["phi_symmetric"]["ok"]
    row["locally_phi_symmetric"] = loc_sym and loc_sym["ok"]
    row["phi_recurrent"] = rec["status"] in ("recurrent",
                                             "trivially_recurrent")
    row["phi_recurrent_status"] = rec["status"]
    row["locally_phi_recurrent_status"] = loc_rec and loc_rec["status"]
    return row


def _broken_phi_kmu():
    doc = export_entry(build("kmu"))
    doc["phi"] = [["0", "0", "0"], ["1", "1", "0"], ["1", "0", "0"]]
    return doc


_WIDE_GRID = [(Fraction(lam), Fraction(mu))
              for lam in "-3/2 -1/2 0 1/4 1/2 1 3/2 2 7/3".split()
              for mu in "-2 -1 0 1/3 1 3/2 2 5".split()]
_SMALL_GRID = [(Fraction(lam), Fraction(mu))
               for lam, mu in (("1/2", "1"), ("1", "0"), ("2", "-1"))]


@pytest.mark.parametrize("doc, grid", [
    (lambda: export_entry(build("kmu")), _WIDE_GRID),
    (_rotated_kmu, _SMALL_GRID),
    (_broken_phi_kmu, _SMALL_GRID),
    (deformed_kmu_manifest, _SMALL_GRID),
], ids=["kmu", "rotated", "broken-phi", "deformed"])
def test_sweep_row_matches_the_report_row(doc, grid):
    ent = entry_from_ingest(ingest_manifest(doc()))
    for lam, mu in grid:
        row = cli._sweep_row(ent, lam, mu)
        assert list(row.items()) == list(_report_row(ent, lam, mu).items())


def _abstract_3d(**fields):
    doc = {"schema_version": 1, "name": "m", "dimension": 3,
           "mode": "abstract",
           "symbols": [{"name": "x", "kind": "coordinate"}],
           "brackets": [{"i": 1, "j": 2, "components": ["0", "0", "2"]}],
           "phi": [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
           "xi": ["1", "0", "0"]}
    doc.update(fields)
    return doc


# x times an integer of 8,000 digits, built from literals under the limit
_LONG_X = "x*" + "9" * 4000 + "*" + "9" * 4000
_LONG_FOUND = ("found coordinate 'x' in an expression with a number past "
               "the int/str digit limit")
_LONG_XI = ("error: xi[0]: must be parameter-only in abstract mode, "
            f"{_LONG_FOUND}\n")
_LONG_METRIC = [[_LONG_X, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
_LONG_METRIC_ERROR = ("error: metric: metric entry g(e1,e1) must be "
                      f"parameter-only, {_LONG_FOUND}\n")
_NAME_ERROR = "error: name: expected a non-empty string\n"


def _chart_3d(frame):
    return {"schema_version": 1, "name": "m", "dimension": 3,
            "mode": "chart",
            "symbols": [{"name": n, "kind": "coordinate"}
                        for n in ("x", "y", "z")],
            "frame": frame}


@pytest.mark.parametrize("doc, message", [
    (_abstract_3d(metric=[["1", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]]),
     "error: metric: determinant is identically zero"),
    (_chart_3d([["1", "x", "0"], ["1", "x", "0"], ["0", "0", "1"]]),
     "error: chart frame matrix: determinant is identically zero"),
    (_abstract_3d(phi=[["0", "0", "0"], ["0", "0", "-1"], ["0", "x", "0"]]),
     "error: phi[2][1]: must be parameter-only in abstract mode, found "
     "coordinate 'x' in x"),
    (_abstract_3d(xi=["x", "0", "0"]),
     "error: xi[0]: must be parameter-only in abstract mode, found "
     "coordinate 'x' in x"),
    (_abstract_3d(xi=["(" * 200 + "1" + ")" * 200, "0", "0"]),
     "error: xi[0]: parentheses nested deeper than 100 at"),
    (_abstract_3d(brackets=[{"i": 1, "j": 2,
                             "components": ["0", "0", "x^101"]}]),
     "error: brackets[0].components[2]: exponent larger than 100 at "
     "position 2"),
    (_abstract_3d(dimension=17),
     "error: dimension: expected an odd integer from 3 to 15, got 17\n"),
    (_abstract_3d(dimension=101),
     "error: dimension: expected an odd integer from 3 to 15, got 101\n"),
    (_abstract_3d(metric=[["1", "2", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
     "error: metric: metric is not symmetric at (e1,e2)\n"),
    (dict(_chart_3d([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
          metric=[["x", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
     "error: metric: metric entry g(e1,e1) must be parameter-only, found "
     "coordinate 'x' in x\n"),
    (_abstract_3d(brackets=[{"i": 1, "j": 2,
                             "components": ["\u00b2", "0", "2"]}]),
     "error: brackets[0].components[0]: unexpected character '\u00b2' at "
     "position 0\n"),
    pytest.param(
        _abstract_3d(brackets=[{"i": 1, "j": 2,
                                "components": ["9" * 5000, "0", "2"]}]),
        f"error: brackets[0].components[0]: integer literal longer than "
        f"{_DIGIT_LIMIT} digits at position 0\n", marks=needs_digit_limit),
    pytest.param(
        _abstract_3d(brackets=[{"i": 1, "j": 2,
                                "components": ["x^" + "9" * 5000, "0", "2"]}]),
        f"error: brackets[0].components[0]: integer literal longer than "
        f"{_DIGIT_LIMIT} digits at position 2\n", marks=needs_digit_limit),
    pytest.param(
        _abstract_3d(brackets=[{"i": 1, "j": 2,
                                "components": ["(10^100)^100", "0", "2"]}]),
        f"error: a number in the result has more than {_DIGIT_LIMIT} "
        "digits, the interpreter's int/str conversion limit\n",
        marks=needs_digit_limit),
    (_abstract_3d(brackets=[{"i": 1, "j": 2,
                             "components": ["((x+1)^100)^100", "0", "2"]}]),
     "error: brackets[0].components[0]: power needs more than 250000 "
     "coefficient products at position 12\n"),
    (_abstract_3d(brackets=[{"i": 1, "j": 2,
                             "components": ["(x+y+z+1)^100", "0", "2"]}],
                  symbols=[{"name": n, "kind": "coordinate"} for n in "xyz"]),
     "error: brackets[0].components[0]: power needs more than 250000 "
     "coefficient products at position 10\n"),
    (_abstract_3d(brackets=[{"i": 1, "j": 2,
                             "components": ["(x+y+z+1)^30*(x+y+z+1)^30",
                                            "0", "2"]}],
                  symbols=[{"name": n, "kind": "coordinate"} for n in "xyz"]),
     "error: brackets[0].components[0]: product needs more than 250000 "
     "coefficient products at position 12\n"),
    (_abstract_3d(brackets=[{"i": 1, "j": 2,
                             "components": ["1/(a+b+c+1)^30+1/(a+b+c+2)^30",
                                            "0", "2"]}],
                  symbols=[{"name": n, "kind": "coordinate"} for n in "abc"]),
     "error: brackets[0].components[0]: sum needs more than 250000 "
     "coefficient products at position 14\n"),
    (_abstract_3d(schema_version=True),
     "error: schema_version: expected 1, got True"),
    (_abstract_3d(schema_version=1.0),
     "error: schema_version: expected 1, got 1.0"),
    (_abstract_3d(brackets=[{"i": True, "j": 2,
                             "components": ["0", "0", "2"]}]),
     "error: brackets[0]: expected indices 1 <= i < j <= 3"),
    (_abstract_3d(xi=[1, "0", "0"]),
     "error: xi[0]: expected an expression string, got int\n"),
    (_abstract_3d(metric=[["1", "0", "0"], ["0", "1"], ["0", "0", "1"]]),
     "error: metric[1]: expected 3 entries\n"),
    (_abstract_3d(symbols="x"), "error: symbols: expected a list\n"),
    (_abstract_3d(symbols=[{"name": "x", "kind": "coordinate"}] * 2),
     "error: symbols[1]: symbol 'x' already declared\n"),
    (_abstract_3d(symbols=[{"name": "2x", "kind": "coordinate"}]),
     "error: symbols[0]: invalid symbol name '2x'\n"),
    (dict(_chart_3d([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
          symbols=[{"name": n, "kind": "coordinate"} for n in "xy"]),
     "error: frame: chart mode needs exactly 3 coordinate symbols, got 2\n"),
    (_abstract_3d(brackets={"i": 1}), "error: brackets: expected a list\n"),
    (_abstract_3d(brackets=[[1, 2, ["0", "0", "2"]]]),
     "error: brackets[0]: expected an object\n"),
    (_abstract_3d(brackets=[{"i": 1, "j": 2,
                             "components": ["0", "0", "x"]}]),
     "error: brackets: structure constant of [e1,e2] must be parameter-only, "
     "found coordinate 'x' in x\n"),
    # a singular metric is found at construction, so later errors follow it
    (_abstract_3d(metric=[["1", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]],
                  xi=["x", "0", "0"]),
     "error: metric: determinant is identically zero\n"
     "error: xi[0]: must be parameter-only in abstract mode, found "
     "coordinate 'x' in x\n"),
    # an error text that quotes a coordinate-dependent entry whose
    # coefficient is past the digit limit names it by a placeholder, and
    # the other errors of the manifest still print
    *(pytest.param(_abstract_3d(**fields), message, marks=needs_digit_limit)
      for fields, message in (
          ({"xi": [_LONG_X, "0", "0"]}, _LONG_XI),
          ({"metric": _LONG_METRIC}, _LONG_METRIC_ERROR),
          ({"brackets": [{"i": 1, "j": 2,
                          "components": ["0", "0", _LONG_X]}]},
           "error: brackets: structure constant of [e1,e2] must be "
           f"parameter-only, {_LONG_FOUND}\n"),
          ({"xi": [_LONG_X, "0", "0"], "name": ""}, _NAME_ERROR + _LONG_XI),
          ({"metric": _LONG_METRIC, "name": ""},
           _NAME_ERROR + _LONG_METRIC_ERROR))),
], ids=["singular-metric", "singular-chart", "coordinate-phi", "coordinate-xi",
        "deep-parens", "huge-exponent", "dimension-17", "dimension-101",
        "asymmetric-metric", "coordinate-metric", "superscript-digit",
        "long-literal", "long-exponent", "huge-result", "nested-power",
        "large-power", "large-product", "large-sum", "schema-version-bool",
        "schema-version-float", "bracket-index-bool", "xi-not-a-string",
        "short-metric-row", "symbols-not-a-list", "duplicate-symbol",
        "invalid-symbol-name", "chart-two-coordinates",
        "brackets-not-a-list", "bracket-not-an-object",
        "coordinate-bracket", "singular-metric-and-coordinate-xi",
        "long-coordinate-xi", "long-coordinate-metric",
        "long-coordinate-bracket", "long-coordinate-xi-and-name",
        "long-coordinate-metric-and-name"])
def test_cli_report_hostile_manifest_is_an_input_error(doc, message,
                                                       tmp_path, capsys):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err


def test_cli_sweep_needs_parameters(tmp_path, capsys):
    path = write_manifest(tmp_path, "sphere")
    assert cli.main(["sweep", path]) == 1
    assert "sweep needs a manifest with parameters" \
        in capsys.readouterr().err


def test_cli_strict_and_lint(tmp_path, capsys):
    # flat space with a rotation structure passes the almost contact
    # axioms but not the contact metric condition
    doc = {
        "schema_version": 1,
        "name": "flatrot",
        "dimension": 3,
        "mode": "abstract",
        "symbols": [],
        "brackets": [],
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "phi": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]],
        "xi": ["0", "0", "1"],
    }
    path = tmp_path / "flatrot.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["report", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["report", str(path), "--strict"]) == 2
    err = capsys.readouterr().err
    assert "strict: contact metric condition violated" in err
    assert "strict: contact metric axioms do not hold" in err
    assert cli.main(["report", str(path), "--lint"]) == 0
    err = capsys.readouterr().err
    assert "lint: contact metric condition violated" in err


def test_cli_color_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CONTACT_TENSOR_COLOR", "1")
    assert cli.main(["demo", "sphere"]) == 0
    assert "\x1b[" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["demo", "sweep"])
def test_cli_self_check_exit_code(command, tmp_path, capsys, monkeypatch):
    argv = (["demo", "sphere"] if command == "demo"
            else ["sweep", write_manifest(tmp_path, "kmu")])
    if command == "demo":
        real = build_report(build("sphere"))
        real["self_check"]["second_bianchi"] = False
        monkeypatch.setattr(cli, "build_report", lambda entry: real)
    else:
        # the sweep reads its rows from the analysis, not from a report
        real = analyse(build("sphere"))
        real.self_check["second_bianchi"] = False
        monkeypatch.setattr(cli, "analyse", lambda entry: real)
    assert cli.main(argv) == 3
    assert "internal self-check failure: second_bianchi" \
        in capsys.readouterr().err


def test_cli_usage_error(capsys):
    assert cli.main([]) == 1
    assert cli.main(["report"]) == 1


def test_outputs_do_not_depend_on_the_string_hash_seed(tmp_path):
    # the entry point in fresh processes under two hash seeds: the nabla R
    # kernel walks riemann_table, poly_gcd reads a set of names on the
    # two-variable x+y+1 frame, and the derivative memo of the curvature
    # kernels is keyed by hashed Exprs on the x^2+2*x+3 frame
    docs = {"kmu": export_entry(build("kmu")), "h5": heisenberg_manifest(2),
            "chart-x-y-1": chart_manifest("x+y+1"),
            "chart-x2": chart_manifest("x^2+2*x+3")}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(manifest_to_json(doc))
    commands = [["demo", "kmu", "--format", "json"],
                ["demo", "example41", "--format", "json"],
                ["sweep", "kmu.json"]]
    commands += [["report", f"{name}.json", "--format", "json"]
                 for name in ("h5", "chart-x-y-1", "chart-x2")]
    src = str(Path(__file__).resolve().parents[1] / "src")
    for command in commands:    # the two seeds' processes run side by side
        runs = [subprocess.Popen(
            [sys.executable, "-m", "contact_tensor.cli", *command],
            cwd=tmp_path, stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src))
            for seed in ("0", "1")]
        try:
            (a, _), (b, _) = (run.communicate(timeout=60) for run in runs)
        finally:    # a no-op on a process that has exited
            for run in runs:
                run.kill()
        assert [run.returncode for run in runs] == [0, 0], command
        assert a and a == b, command

"""The JSON encoder against the stdlib's json.dumps(indent=2): reports,
exports and sweep documents.  The property over nested values is in
test_render_property.py, which needs hypothesis."""

import json
from fractions import Fraction

import pytest

from contact_tensor import cli
from contact_tensor.catalog import build, entry_ids
from contact_tensor.manifest import export_entry, manifest_to_json
from contact_tensor.report import build_report, render_json, render_text

from _frames import chart_manifest, entry, heisenberg_manifest


def stdlib(value):
    return json.dumps(value, indent=2) + "\n"


def report_inputs():
    out = {name: build(name) for name in entry_ids()}
    out["heisenberg5"] = entry(heisenberg_manifest(2))
    out["heisenberg7"] = entry(heisenberg_manifest(3))
    out["chart-linear"] = entry(chart_manifest("x+2"))
    out["chart-xy"] = entry(chart_manifest("x+y+1"))
    return out


REPORT_INPUTS = report_inputs()


@pytest.mark.parametrize("name", list(REPORT_INPUTS))
def test_render_json_matches_the_stdlib_on_reports(name):
    report = build_report(REPORT_INPUTS[name])
    assert render_json(report) == stdlib(report)


def test_reports_built_back_to_back_render_as_the_stdlib_does():
    # each report shares one zero row among its tables and the encoder
    # keeps its templates and encoded rows for one call, so rendering the
    # first report after the second is built must not mix the two
    first = build_report(REPORT_INPUTS["heisenberg5"])
    second = build_report(REPORT_INPUTS["heisenberg7"])
    assert render_json(first) == stdlib(first)
    assert render_json(second) == stdlib(second)
    assert render_json(first) == stdlib(first)


@pytest.mark.parametrize("name", entry_ids())
def test_manifest_to_json_matches_the_stdlib_on_exports(name):
    doc = export_entry(build(name))
    assert manifest_to_json(doc) == stdlib(doc)


def test_sweep_json_matches_the_stdlib(tmp_path, capsys):
    path = tmp_path / "kmu.json"
    path.write_text(manifest_to_json(export_entry(build("kmu"))))
    assert cli.main(["sweep", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == stdlib(json.loads(out))


def test_render_json_rejects_a_value_json_cannot_encode():
    with pytest.raises(TypeError, match="Fraction"):
        render_json({"kappa": [Fraction(1, 2)]})
    with pytest.raises(TypeError):
        render_json({1: "one"})


def test_render_text_colors_a_failed_self_check_red():
    report = build_report(build("sphere"))
    report["self_check"]["torsion_free"] = False
    assert render_text(report, color=True).endswith(
        "\x1b[31mself-check: FAILED: torsion_free\x1b[0m\n")


def test_render_text_prints_the_recurrence_form():
    # kmu at lambda = 1, mu = 0 is flat, so it is trivially phi-recurrent
    # and the text report names the form A
    report = build_report(build("kmu").substitute({"lambda": 1, "mu": 0}))
    lines = render_text(report).splitlines()
    assert "  phi-recurrent            trivially_recurrent, A = e^1" in lines

"""Built-in catalog entries."""

import hashlib
from fractions import Fraction

import pytest

from contact_tensor import cli
from contact_tensor.catalog import (
    CatalogError,
    build,
    entry_ids,
)


def test_entry_ids():
    assert entry_ids() == ("example41", "kmu", "sphere", "flat3", "flat5")
    for name in entry_ids():
        ent = build(name)
        assert ent.id == name


def test_unknown_id():
    with pytest.raises(CatalogError) as info:
        build("nope")
    msg = str(info.value)
    assert "unknown catalog id 'nope'" in msg
    assert "example41" in msg


def test_structural_validity():
    for name in entry_ids():
        ent = build(name)
        assert ent.manifold.validate() == []
        assert ent.manifold.check_jacobi().ok
        if ent.structure is not None:
            assert ent.structure.validate_almost_contact() == []


def test_structured_entries_are_contact_metric():
    for name in ("example41", "kmu", "sphere"):
        assert build(name).structure.check_contact_metric().ok


def test_flat_entries_carry_no_structure():
    for name in ("flat3", "flat5"):
        ent = build(name)
        assert ent.structure is None
    assert build("flat5").manifold.dim == 5


def test_numeric_family_construction():
    ent = build("kmu").substitute({"lambda": Fraction(1, 4), "mu": -1})
    # c3 = 1 + lambda - mu/2 with lambda = 1/4, mu = -1
    assert str(ent.manifold.bracket_basis(1, 2).components[2]) == "7/4"
    assert ent.structure.manifold is ent.manifold


def test_substitute_keeps_remaining_parameters():
    ent = build("kmu")
    half = ent.substitute({"lambda": Fraction(1, 2)})
    c3 = half.manifold.bracket_basis(1, 2).components[2]
    assert str(c3) == "-1/2*mu+3/2"
    full = half.substitute({"mu": 1})
    assert str(full.manifold.bracket_basis(1, 2).components[2]) == "1"


def test_example41_chart_frame():
    ent = build("example41")
    m = ent.manifold
    rows = [[str(c) for c in row.components] for row in m.chart_frame]
    assert rows == [["0", "2/x", "0"],
                    ["2", "-4*z/x", "x*y"],
                    ["0", "0", "1"]]
    assert [str(c) for c in ent.structure.xi.components] == ["0", "0", "1"]


# sha256 of `demo <id> --format json` (the catalog/<id> digests of the
# benchmark reference) and of `export <id>`
CATALOG_DIGESTS = {
    "example41": (
        "af89f9b3bcc26e17d487a8c212410034e24dea3b1d6ba1baee5b96cd9e5b40d1",
        "036ce9af9e24574b366b428bb1865de56847d9ce161ad6e8e4516b1df4551290"),
    "kmu": (
        "4c992a881b48bff1355f7d5ea966c20a37c2661588faa0ba5ae183f382c4b635",
        "72f57ec37c872fcd8476c2d73c5b33de456a7d33f4798c57701114a84c5f675b"),
    "sphere": (
        "47fbc38b649346cc1d0b911f69de789de2ca48f4f2fae4ad6266c55ee68a2635",
        "60678664643e86160d60a52b2f2408b87b5380a4516de68131e3228ad01c6e5e"),
    "flat3": (
        "010be936e8a27ca0d3db7fb7bfde9a6234938c0ade344c8f31ab39c1a850ab41",
        "c8a45178a293d7a77944dd1a8b96d8fbed595f1f2114352713f2e8b956987428"),
    "flat5": (
        "bf8b19d1f857355c6c9ec2e7fdd6dc004685d2dda7c80f270fd6b3f69925410c",
        "9e2d0bb3f48026dd5fe2ad18ff04be0854cc136c317573749b709b4ff3581a9c"),
}


@pytest.mark.parametrize("entry_id", list(CATALOG_DIGESTS))
def test_demo_and_export_bytes_are_pinned(entry_id, capsys):
    def digest(argv):
        assert cli.main(argv) == 0
        return hashlib.sha256(
            capsys.readouterr().out.encode("utf-8")).hexdigest()

    assert (digest(["demo", entry_id, "--format", "json"]),
            digest(["export", entry_id])) == CATALOG_DIGESTS[entry_id]


# sha256 of `demo <id>` as text with color off; example41's covers the
# three-index nullity witness line R(e1,e2)e3
TEXT_DIGESTS = {
    "example41":
        "4703fc990b25b227f48d85ca8958ee59beefa5416e7989ed529ac24e0134fa98",
    "kmu": "f20949eb73c3609c34c3b89bc4d6a47b644dfc8247ca8adc0a1779e715c946c7",
    "sphere":
        "5795007df6f845991bdba549c671c2e9f23cdeeeb849e90d6444b32d1c2d7edd",
    "flat3":
        "a06801688949534fbe2465866587a6abdeaa70a2d7e295d1838ff1362d89b11e",
    "flat5":
        "75ed7a221a0ce205f6b03154d9c374abf1922494aa0b339f26396f5650781ebf",
}


@pytest.mark.parametrize("entry_id", list(TEXT_DIGESTS))
def test_demo_text_bytes_are_pinned(entry_id, capsys, monkeypatch):
    monkeypatch.delenv("CONTACT_TENSOR_COLOR", raising=False)
    assert cli.main(["demo", entry_id]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() \
        == TEXT_DIGESTS[entry_id]

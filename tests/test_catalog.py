"""Built-in catalog entries."""

from fractions import Fraction

import pytest

from contact_tensor.catalog import (
    CatalogError,
    build,
    build_flat_euclidean,
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


def test_flat_builder_rejects_bad_dimensions():
    with pytest.raises(CatalogError):
        build_flat_euclidean(4)
    with pytest.raises(CatalogError):
        build_flat_euclidean(1)


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

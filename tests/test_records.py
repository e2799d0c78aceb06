"""The package's records are NamedTuples: their fields in declaration
order, their JSON form in a report, and their immutability."""

import pytest

from contact_tensor.classify import (ClassificationReport, KappaMuVerdict,
                                     RecurrenceVerdict, SasakianVerdict,
                                     SymmetryVerdict)
from contact_tensor.contact import (ContactMetricReport, HEigenstructure,
                                    Violation)
from contact_tensor.curvature import StructureDerivatives
from contact_tensor.expr import KIND_COORDINATE, Symbol
from contact_tensor.frame import JacobiReport, JacobiViolation
from contact_tensor.manifest import CatalogEntry, IngestResult
from contact_tensor.report import Analysis, _json

FIELDS = {
    SasakianVerdict: ("ok", "witness"),
    KappaMuVerdict: ("status", "kappa", "mu", "relation", "witness",
                     "witness_component", "constant_flag", "kappa_le_one"),
    SymmetryVerdict: ("ok", "witness"),
    RecurrenceVerdict: ("status", "scope", "A", "obstruction",
                        "obstruction_index"),
    ClassificationReport: ("contact_valid", "sasakian", "kappa_mu", "flat",
                           "constant_curvature", "locally_symmetric",
                           "phi_symmetric", "locally_phi_symmetric",
                           "phi_recurrent", "locally_phi_recurrent",
                           "diagnostics"),
    Violation: ("law", "indices", "lhs", "rhs"),
    ContactMetricReport: ("ok", "violations"),
    HEigenstructure: ("lam", "d_plus", "d_minus", "d_zero"),
    StructureDerivatives: ("nabla_phi", "nabla_eta", "nabla_xi"),
    Symbol: ("name", "kind"),
    JacobiViolation: ("triple", "residual"),
    JacobiReport: ("ok", "violations"),
    CatalogEntry: ("id", "manifold", "structure"),
    IngestResult: ("name", "manifest", "manifold", "structure"),
    Analysis: ("connection", "curvature", "classification", "self_check"),
}
# the report's JSON keys where they differ from the field name
JSON_KEYS = {"constant_flag": "constant", "lam": "lambda"}


def sample(cls):
    """An instance whose field values are distinct JSON scalars."""
    if cls is Symbol:
        return Symbol("x", KIND_COORDINATE)
    return cls(*(f"v{i}" for i in range(len(FIELDS[cls]))))


RECORDS = list(FIELDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_json_gives_the_fields_in_declaration_order(cls):
    record = sample(cls)
    keys = [JSON_KEYS.get(f, f) for f in FIELDS[cls]]
    assert _json(record) == dict(zip(keys, record))
    assert list(_json(record)) == keys


def test_json_renames_constant_flag_and_lam():
    assert "constant" in _json(sample(KappaMuVerdict))
    assert "lambda" in _json(sample(HEigenstructure))


def test_json_gives_a_plain_tuple_as_a_list():
    assert _json((1, "a", None)) == [1, "a", None]
    assert _json(SymmetryVerdict(False, (1, 2, 3, 4, 5))) == {
        "ok": False, "witness": [1, 2, 3, 4, 5]}
    assert _json(ContactMetricReport(True, ())) == {"ok": True,
                                                    "violations": []}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_field_cannot_be_assigned(cls):
    record = sample(cls)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):     # no instance dict either
        record.extra = None


def test_a_record_is_a_tuple():
    verdict = SasakianVerdict(True)
    assert SasakianVerdict._fields == ("ok", "witness")
    assert tuple(verdict) == (True, None)
    assert verdict == (True, None)


def test_symbol_repr_is_unchanged():
    assert repr(Symbol("x", "coordinate")) == (
        "Symbol(name='x', kind='coordinate')")

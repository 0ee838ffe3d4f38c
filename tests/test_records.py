"""The immutable records that the modules hand each other: McEstimate,
OrderResult, CosetValue, NamedClass, ManifoldDescriptor, McPass and
CheckResult.  They are NamedTuples, so that no query imports dataclasses;
these tests hold the contracts a record type must keep."""

from types import MappingProxyType

import pytest

from weincalc.montecarlo import McEstimate
from weincalc.morphism import ManifoldDescriptor, NamedClass, blowup_weinstein, cpn_weinstein
from weincalc.symbolic import OrderResult
from weincalc.verify import McPass, check_identity_suite


def records():
    """One record of each type, with the name of one of its fields."""
    descriptor = ManifoldDescriptor.from_json(
        {"dimension": 2, "classes": {"c": {"degree": 1, "value": []}}}
    )
    return [
        (McEstimate(mean=1.0, std_error=0.25, band=1.5, samples=100, seed=7), "mean"),
        (OrderResult.finite(3), "order"),
        (cpn_weinstein(2, 1), "value"),
        (descriptor.classes["c"], "degree"),
        (descriptor, "classes"),
        (McPass(0, [], [], []), "samples"),
        (check_identity_suite(2), "passed"),
    ]


RECORDS = records()


@pytest.mark.parametrize(
    "record, field", RECORDS, ids=[type(record).__name__ for record, _ in RECORDS]
)
def test_records_are_read_only(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_estimate_json_keeps_the_field_order():
    doc = McEstimate(mean=1.0, std_error=0.25, band=1.5, samples=100, seed=7).to_json()
    assert list(doc.items()) == [
        ("mean", 1.0), ("std_error", 0.25), ("band", 1.5), ("samples", 100), ("seed", 7)
    ]


def test_descriptor_without_classes_has_its_own_read_only_empty_mapping():
    first, second = (ManifoldDescriptor.from_json({"dimension": 2}) for _ in range(2))
    assert first.classes == {} and first.classes is not second.classes
    built = ManifoldDescriptor(2, frozenset(), {})
    for classes in (first.classes, built.classes):
        assert isinstance(classes, MappingProxyType) and len(classes) == 0
        with pytest.raises(TypeError):
            classes["c"] = NamedClass(1, {})


def test_order_result_text_json_and_equality():
    finite, infinite = OrderResult.finite(1), OrderResult.infinite("w")
    assert (str(finite), str(infinite)) == ("Finite(1)", "Infinite (w)")
    assert repr(finite) == "OrderResult(order=1, witness=None)"
    assert finite.to_json() == {"kind": "finite", "order": 1}
    assert infinite.to_json() == {"kind": "infinite", "witness": "w"}
    assert finite.is_finite and not infinite.is_finite
    assert finite != infinite
    assert finite == OrderResult.finite(1) and finite != OrderResult.finite(2)


def test_coset_value_is_read_only_in_every_field():
    answer = blowup_weinstein(2, 2)
    assert answer._fields == ("value", "lattice", "order", "flags")
    for field in answer._fields:
        with pytest.raises(AttributeError):
            setattr(answer, field, None)


def test_order_result_is_nontrivial_unless_finite_one():
    assert not OrderResult.finite(1).nontrivial
    assert OrderResult.finite(2).nontrivial and OrderResult.infinite("w").nontrivial

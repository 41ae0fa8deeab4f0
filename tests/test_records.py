"""The package's records are read-only.  The two reports are named tuples,
compared and hashed by value; every other record refuses assignment and
deletion, and compares and hashes by identity."""

import numpy as np
import pytest

from countfact.bounds import bound_report
from countfact.factorizations import factorize
from countfact.mechanism import MechanismConfig, estimate_errors
from countfact.metrics import error_report
from countfact.sequences import CONSTANTS, coefficient_table


def _config():
    return MechanismConfig(factorization=factorize("sqrt", 4), mu=1.0, trials=2, seed=0,
                           input=np.zeros(4))


# type name -> (a function that builds one, one of its fields)
RECORDS = {
    "ErrorReport": (lambda: error_report("sqrt", 4), "maxse"),
    "BoundReport": (lambda: bound_report(4), "nuclear_lb"),
    "NamedConstants": (lambda: CONSTANTS, "lb_const"),
    "CoefficientTable": (lambda: coefficient_table(4), "d_sq"),
    "Factorization": (lambda: factorize("sqrt", 4), "max_row_sq_left"),
    "MechanismConfig": (_config, "mu"),
    "SimulationResult": (lambda: estimate_errors(_config()), "z_mean"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_assignment_and_deletion_raise(name):
    build, field = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    value = getattr(record, field)
    for attr in (field, "added"):
        with pytest.raises(AttributeError):
            setattr(record, attr, 0.0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is value and not hasattr(record, "added")


@pytest.mark.parametrize("name", ["CoefficientTable", "Factorization", "MechanismConfig",
                                  "SimulationResult"])
def test_compares_and_hashes_by_identity(name):
    # Each holds arrays or functions: compared field by field, two arrays
    # have no single truth value.
    build, _ = RECORDS[name]
    record = build()
    assert record == record
    assert record != build()
    assert record in {record}


@pytest.mark.parametrize("name", ["ErrorReport", "BoundReport"])
def test_reports_compare_and_hash_by_value(name):
    build, _ = RECORDS[name]
    report, again = build(), build()
    assert report is not again
    assert report == again and hash(report) == hash(again)
    assert report in {again}


def test_reports_unpack_in_field_order():
    report = error_report("sqrt", 4)
    method, n, maxse, *_ = report
    assert (method, n, maxse) == ("sqrt", 4, report.maxse)
    report = bound_report(4)
    n, nuclear_lb, mathias_lb, *_ = report
    assert (n, nuclear_lb, mathias_lb) == (4, report.nuclear_lb, report.mathias_lb)

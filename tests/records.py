"""Copies of the package's records with some fields changed, for tests that
hand the CLI a doctored report, factorization or simulation result."""

import inspect


def replaced(record, **changes):
    """A new record of record's type with changes applied, built by that
    type's own constructor from record's fields, so nothing cached on record
    carries over."""
    cls = type(record)
    fields = {name: getattr(record, name) for name in inspect.signature(cls).parameters}
    return cls(**{**fields, **changes})

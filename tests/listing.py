"""The tables that cli._json_text writes itself, listed as the dicts
json.dumps would write for them: json.dumps of a listed payload is the byte
oracle of the JSON writer."""

import itertools

import numpy as np

from mzsloppy.closed_forms import ENTRIES
from mzsloppy.model import MODEL_FIELDS

# a Comparison's (N, 4) tables, each written as a record field
TABLES = ("closed_form", "numeric", "abs_difference", "rel_difference")


def listed_rows(scan):
    """A ScanResult's rows as the dicts json.dumps would write."""
    names = [axis.name for axis in scan.axes]
    grid = itertools.product(*(axis.values for axis in scan.axes))
    return [
        {"point": dict(zip(names, point)), "value": value, "error": scan.errors.get(i)}
        for i, (point, value) in enumerate(zip(grid, scan.values))
    ]


def listed_records(comparison):
    """A closed_forms.Comparison as the record dicts json.dumps would write,
    one per row and entry, in order: the row's model fields, the entry, and
    its value in each table."""
    points = comparison.points
    fields = np.broadcast_arrays(*(getattr(points, name) for name in MODEL_FIELDS))
    models = [dict(zip(MODEL_FIELDS, row)) for row in zip(*(f.ravel().tolist() for f in fields))]
    tables = {name: getattr(comparison, name).tolist() for name in TABLES}
    return [
        {"model": model, "entry": entry, **{name: tables[name][i][j] for name in TABLES}}
        for i, model in enumerate(models)
        for j, entry in enumerate(ENTRIES)
    ]


def listed_payload(payload: dict) -> dict:
    """payload with its table, a scan's "rows" or compare's "records",
    listed; any other payload as it is."""
    if "rows" in payload:
        return {**payload, "rows": listed_rows(payload["rows"])}
    if "records" in payload:
        return {**payload, "records": listed_records(payload["records"])}
    return payload

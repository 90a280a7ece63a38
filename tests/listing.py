"""The tables that cli._json_text writes itself, listed as the dicts
json.dumps would write for them: json.dumps of a listed payload is the byte
oracle of the JSON writer."""

import dataclasses
import itertools


def listed_rows(scan):
    """A ScanResult's rows as the dicts json.dumps would write."""
    names = [axis.name for axis in scan.axes]
    grid = itertools.product(*(axis.values for axis in scan.axes))
    return [
        {"point": dict(zip(names, point)), "value": value, "error": scan.errors.get(i)}
        for i, (point, value) in enumerate(zip(grid, scan.values))
    ]


def listed_records(records):
    """compare's (config, report) pairs as the record dicts json.dumps would
    write, one per DiscrepancyRecord, in order."""
    return [
        {"model": dataclasses.asdict(config), **dataclasses.asdict(rec)}
        for config, report in records
        for rec in report.records
    ]


def listed_payload(payload: dict) -> dict:
    """payload with its table, a scan's "rows" or compare's "records",
    listed; any other payload as it is."""
    if "rows" in payload:
        return {**payload, "rows": listed_rows(payload["rows"])}
    if "records" in payload:
        return {**payload, "records": listed_records(payload["records"])}
    return payload

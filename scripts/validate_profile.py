#!/usr/bin/env python3
"""Validate a build profile envelope against schemas/profile.schema.json.

Schema validation (stdlib only, via jsonschema_lite.py) plus the
cross-object invariants a schema can't express:

  - the cause histogram equals the per-unit causes
  - critical_path and top reference units from the units array
  - top is sorted slowest-first
  - counts tally with the per-unit outcomes
  - a wavefront build ranked every unit at priority 0 (priorities only
    exist under critical-path)

Exits 0 when the document conforms, 1 with a message when not.

    validate_profile.py <schema.json> <document.json>
"""

import json
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from jsonschema_lite import Invalid, validate


def cross_checks(doc):
    units = doc["units"]
    names = {u["unit"] for u in units}
    histogram = Counter(u["cause"] for u in units if u["cause"] is not None)
    if dict(histogram) != doc["causes"]:
        raise Invalid(
            f"$.causes: histogram {doc['causes']} does not match "
            f"per-unit causes {dict(histogram)}"
        )
    for field in ("critical_path", "top"):
        for i, entry in enumerate(doc[field]):
            if entry["unit"] not in names:
                raise Invalid(f"$.{field}[{i}]: unknown unit {entry['unit']!r}")
    walls = [entry["wall_s"] for entry in doc["top"]]
    if walls != sorted(walls, reverse=True):
        raise Invalid("$.top: not sorted slowest-first")
    outcomes = Counter(u["outcome"] for u in units)
    counts = doc["build"]["counts"]
    for outcome, n in counts.items():
        # "recompiled" in counts excludes cutoff hits, which pp reports
        # separately; outcome_of already splits them the same way
        if outcomes.get(outcome, 0) != n:
            raise Invalid(
                f"$.build.counts.{outcome}: {n} but units array has "
                f"{outcomes.get(outcome, 0)}"
            )
    if doc["build"]["schedule"] == "wavefront":
        for i, u in enumerate(units):
            if u["priority"] != 0:
                raise Invalid(
                    f"$.units[{i}].priority: non-zero under the wavefront "
                    "schedule"
                )


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as fp:
        schema = json.load(fp)
    with open(sys.argv[2]) as fp:
        document = json.load(fp)
    try:
        validate(document, schema, schema)
        cross_checks(document)
    except Invalid as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        sys.exit(1)
    build = document["build"]
    print(
        f"valid {schema.get('$id', 'schema')}: build {build['id']} "
        f"({build['policy']}, {build['backend']}, {build['schedule']} "
        f"schedule), "
        f"{len(document['units'])} unit(s), "
        f"causes {document['causes']}, "
        f"store {document['store']['builds']} build(s) / "
        f"{document['store']['bytes']} bytes"
    )


if __name__ == "__main__":
    main()

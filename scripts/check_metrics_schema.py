#!/usr/bin/env python3
"""Schema guard for the deterministic metrics series (ftgcs-metrics-v1).

Validates one or more JSONL files written via `ftgcs_bench --metrics`:

  * line 1 is a header object with schema id "ftgcs-metrics-v1" and the
    topology/bound fields a reader needs (nodes, clusters, edges,
    hist_scale, bound_{local,global,intra,m_lag});
  * every data row is a FLAT json object (no nested objects/arrays —
    structure in the series would silently break ftgcs_report);
  * all rows share one identical key tuple in one identical order (the
    schema is fixed at registration; a drifting field set means a
    conditional registration leaked into the probe loop);
  * "t" and "probe" are strictly increasing, probe from 1 in steps of 1;
  * every value is a finite number (the sampler never serializes
    inf/nan — margins of disabled families are dropped from the schema
    instead);
  * histogram field families are internally consistent:
    p50 <= p99 <= max for both "local" and "global".

When a sibling <path>.profile exists it is checked too (header schema id
"ftgcs-profile-v2", plane "nondeterministic", every row carries a known
"section" tag) — but none of its VALUES are constrained: that file is
wall-clock material by contract.

Exit status: 0 all files valid, 1 violations found, 2 usage/IO error.
"""

import json
import math
import os
import sys

REQUIRED_HEADER = (
    "schema", "nodes", "clusters", "edges", "hist_scale",
    "bound_local", "bound_global", "bound_intra", "bound_m_lag",
)
REQUIRED_ROW = (
    "t", "probe", "events", "messages",
    "local_max", "local_p99", "local_p50",
    "global_max", "global_p99", "global_p50",
    "cluster_local", "cluster_global", "intra_max",
)
PROFILE_SECTIONS = {"diag", "phase", "summary", "span"}


def fail(path, lineno, message):
    print("%s:%d: %s" % (path, lineno, message))
    return 1


def parse_line(path, lineno, line, errors):
    try:
        obj = json.loads(line)
    except ValueError as exc:
        errors.append(fail(path, lineno, "unparsable json: %s" % exc))
        return None
    if not isinstance(obj, dict):
        errors.append(fail(path, lineno, "row is not a json object"))
        return None
    for key, value in obj.items():
        if isinstance(value, (dict, list)):
            errors.append(fail(
                path, lineno,
                "nested structure under %r (series rows must stay flat)"
                % key))
            return None
    return obj


def check_series(path):
    errors = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        return fail(path, 1, "empty file")

    header = parse_line(path, 1, lines[0], errors)
    if header is None:
        return 1
    if header.get("schema") != "ftgcs-metrics-v1":
        return fail(path, 1, "bad schema id: %r" % header.get("schema"))
    for key in REQUIRED_HEADER:
        if key not in header:
            errors.append(fail(path, 1, "header missing %r" % key))

    monitored = header.get("bound_local", 0) > 0 or \
        header.get("bound_global", 0) > 0
    keys = None
    prev_t = -math.inf
    rows = 0
    for lineno, line in enumerate(lines[1:], start=2):
        row = parse_line(path, lineno, line, errors)
        if row is None:
            continue
        rows += 1
        row_keys = tuple(row.keys())
        if keys is None:
            keys = row_keys
            for key in REQUIRED_ROW:
                if key not in row:
                    errors.append(fail(path, lineno, "row missing %r" % key))
            if monitored and "violations" not in row:
                errors.append(fail(
                    path, lineno,
                    "monitored series (positive bounds in header) without a "
                    "'violations' field"))
        elif row_keys != keys:
            errors.append(fail(
                path, lineno,
                "field set drifted from first row: %r vs %r"
                % (row_keys, keys)))
            continue
        for key, value in row.items():
            if not isinstance(value, (int, float)) or \
                    isinstance(value, bool) or not math.isfinite(value):
                errors.append(fail(
                    path, lineno, "non-finite or non-numeric %r: %r"
                    % (key, value)))
        t = row.get("t")
        if isinstance(t, (int, float)):
            if t <= prev_t:
                errors.append(fail(
                    path, lineno, "t not strictly increasing (%r after %r)"
                    % (t, prev_t)))
            prev_t = t
        if row.get("probe") != rows:
            errors.append(fail(
                path, lineno, "probe %r, expected %d" % (row.get("probe"),
                                                         rows)))
        for family in ("local", "global"):
            p50 = row.get(family + "_p50", 0)
            p99 = row.get(family + "_p99", 0)
            top = row.get(family + "_max", 0)
            if not p50 <= p99 <= top:
                errors.append(fail(
                    path, lineno,
                    "%s percentiles out of order: p50=%r p99=%r max=%r"
                    % (family, p50, p99, top)))
    if rows == 0:
        errors.append(fail(path, 1, "header but no probe rows"))
    if not errors:
        print("%s: OK (%d probes, %d fields)" % (path, rows,
                                                 len(keys or ())))
    return 1 if errors else 0


def check_profile(path):
    errors = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        return fail(path, 1, "empty file")
    header = parse_line(path, 1, lines[0], errors)
    if header is None:
        return 1
    if header.get("schema") != "ftgcs-profile-v2":
        return fail(path, 1, "bad schema id: %r" % header.get("schema"))
    if header.get("plane") != "nondeterministic":
        errors.append(fail(
            path, 1, "profile header must declare plane=nondeterministic"))
    for lineno, line in enumerate(lines[1:], start=2):
        row = parse_line(path, lineno, line, errors)
        if row is None:
            continue
        if row.get("section") not in PROFILE_SECTIONS:
            errors.append(fail(
                path, lineno, "unknown section %r" % row.get("section")))
    if not errors:
        print("%s: OK (%d rows)" % (path, len(lines) - 1))
    return 1 if errors else 0


def main(argv):
    if len(argv) < 2:
        print("usage: check_metrics_schema.py <metrics.jsonl>...",
              file=sys.stderr)
        return 2
    status = 0
    for path in argv[1:]:
        if not os.path.isfile(path):
            print("%s: no such file" % path, file=sys.stderr)
            return 2
        status |= check_series(path)
        profile = path + ".profile"
        if os.path.isfile(profile):
            status |= check_profile(profile)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Check that a Chrome trace_event file is well-formed (stdlib only).

Invariants checked, per the trace contract in lib/obs/trace.mli:

  - the document is {"traceEvents": [...], "displayTimeUnit": ...}
  - every event has name/cat/ph/ts/pid/tid; ph is "X" (with dur >= 0)
    or "i"
  - timestamps are non-negative and non-decreasing per (pid, tid) after
    the writer's global sort — child events shipped over the wire must
    land in parent time, so a clock-offset bug shows up here
  - per (pid, tid), complete spans nest: two spans either don't overlap
    or one contains the other (balanced bracketing)

Options assert aggregation properties of a multi-process build:

    --expect-pid-count N   at least N distinct pids (parent + children)
    --expect-truncated     at least one span with args.truncated = "true"
                           (the supervisor's stand-in for a crashed
                           worker's dying compile)

    check_trace.py trace.json [--expect-pid-count N] [--expect-truncated]
"""

import argparse
import json
import sys


# clock-offset-corrected child timestamps accumulate float rounding;
# tolerate 10ns of slop on the microsecond scale
EPS = 0.01


def fail(msg):
    print(f"MALFORMED: {msg}", file=sys.stderr)
    sys.exit(1)


def check(path, expect_pid_count, expect_truncated):
    with open(path) as fp:
        doc = json.load(fp)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("no traceEvents array")
    events = doc["traceEvents"]
    by_track = {}
    for i, ev in enumerate(events):
        for key in ("name", "cat", "ph", "ts", "pid", "tid"):
            if key not in ev:
                fail(f"event {i} missing {key!r}")
        if ev["ph"] not in ("X", "i"):
            fail(f"event {i} ({ev['name']}): unexpected ph {ev['ph']!r}")
        if ev["ts"] < 0:
            fail(f"event {i} ({ev['name']}): negative ts {ev['ts']}")
        if ev["ph"] == "X" and ev.get("dur", -1) < 0:
            fail(f"event {i} ({ev['name']}): complete span without dur")
        by_track.setdefault((ev["pid"], ev["tid"]), []).append(ev)

    for (pid, tid), track in by_track.items():
        last_ts = -1.0
        for ev in track:
            if ev["ts"] < last_ts:
                fail(
                    f"pid {pid} tid {tid}: ts went backwards at "
                    f"{ev['name']} ({ev['ts']} < {last_ts})"
                )
            last_ts = ev["ts"]
        # spans nest: walk a stack of open intervals in start order.
        # Ties on the (microsecond-quantized) start go longest-first,
        # so a retroactively recorded enclosing span is seen before its
        # first child
        stack = []
        spans = sorted(
            (ev for ev in track if ev["ph"] == "X"),
            key=lambda ev: (ev["ts"], -ev["dur"]),
        )
        for ev in spans:
            start, end = ev["ts"], ev["ts"] + ev["dur"]
            while stack and start >= stack[-1] - EPS:
                stack.pop()
            if stack and end > stack[-1] + EPS:
                fail(
                    f"pid {pid} tid {tid}: span {ev['name']} "
                    f"[{start}, {end}] straddles an enclosing span "
                    f"ending at {stack[-1]}"
                )
            stack.append(end)

    pids = {ev["pid"] for ev in events}
    if expect_pid_count is not None and len(pids) < expect_pid_count:
        fail(f"expected >= {expect_pid_count} pids, got {sorted(pids)}")
    truncated = [
        ev
        for ev in events
        if ev.get("args", {}).get("truncated") == "true"
    ]
    if expect_truncated and not truncated:
        fail("expected a truncated span (crashed worker salvage), found none")
    print(
        f"well-formed: {len(events)} event(s), {len(pids)} pid(s), "
        f"{len(by_track)} track(s), {len(truncated)} truncated span(s)"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace")
    parser.add_argument("--expect-pid-count", type=int, default=None)
    parser.add_argument("--expect-truncated", action="store_true")
    args = parser.parse_args()
    check(args.trace, args.expect_pid_count, args.expect_truncated)


if __name__ == "__main__":
    main()

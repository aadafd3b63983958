#!/usr/bin/env python3
"""Check an `lslsim --trace` file: Chrome trace-event JSON whose async
begin/end pairs match and which carries at least one depot relay span.

    python3 scripts/check_chrome_trace.py t.json

Exits 0 when the file json.loads as an event array, every "e" event follows
a "b" event with the same id, and some event is named "relay" (the depot
session spans); prints the first problem and exits 1 otherwise.
"""
import json
import sys


def check(path):
    with open(path) as f:
        events = json.load(f)
    if not isinstance(events, list):
        return "top level is not an event array"
    open_ids = set()
    for i, event in enumerate(events):
        phase = event.get("ph")
        if phase == "b":
            open_ids.add(event["id"])
        elif phase == "e":
            if event["id"] not in open_ids:
                return "event %d: end of span %s without an earlier begin" % (
                    i, event["id"])
            open_ids.discard(event["id"])
    if not any(event.get("name") == "relay" for event in events):
        return "no relay span (depot sessions missing)"
    return None


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    problem = check(sys.argv[1])
    if problem is not None:
        print("%s: %s" % (sys.argv[1], problem))
        sys.exit(1)
    print("%s: ok" % sys.argv[1])


if __name__ == "__main__":
    main()

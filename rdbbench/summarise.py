"""Turns a span dump of the traced run into per-layer times.

A dump is a tab-separated file with a header line and one span per line:
`id parent request name start_ns end_ns` (parent 0 = root). A span's self
time is its duration minus the part of it that its children cover.

Run on its own to print the table of one dump:
    python3 rdbbench/summarise.py <spans.tsv>
"""

import sys
from collections import defaultdict


def load(path):
    spans = {}
    with open(path) as f:
        header = f.readline().split()
        if header != ["id", "parent", "request", "name", "start_ns", "end_ns"]:
            raise ValueError(f"{path}: not a span dump")
        for line in f:
            sid, parent, req, name, start, end = line.split("\t")
            spans[int(sid)] = (int(parent), int(req), name, int(start), int(end))
    return spans


def covered(intervals):
    """Total length of the union of [start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarise(spans):
    """Per span name: count, total and self nanoseconds. Also counts spans
    that do not nest inside their parent, ends before starts, and negative
    self times (all three must be zero)."""
    children = defaultdict(list)
    problems = {"unnested": 0, "negative_duration": 0, "negative_self": 0,
                "orphans": 0}
    for sid, (parent, _, _, start, end) in spans.items():
        if end < start:
            problems["negative_duration"] += 1
        if parent == 0:
            continue
        p = spans.get(parent)
        if p is None:
            problems["orphans"] += 1
            continue
        if start < p[3] or end > p[4]:
            problems["unnested"] += 1
        children[parent].append((max(start, p[3]), min(end, p[4])))
    by_name = defaultdict(lambda: {"count": 0, "total_ns": 0, "self_ns": 0})
    for sid, (_, _, name, start, end) in spans.items():
        dur = end - start
        self_ns = dur - covered(children.get(sid, ()))
        if self_ns < 0:
            problems["negative_self"] += 1
        agg = by_name[name]
        agg["count"] += 1
        agg["total_ns"] += dur
        agg["self_ns"] += self_ns
    return dict(by_name), problems


def _mean_us(by_name, name, field):
    agg = by_name.get(name)
    if not agg or agg["count"] == 0:
        return None
    return agg[field] / agg["count"] / 1e3


def layer_times(by_name):
    """Span-derived per-layer metrics, in microseconds per span. A metric
    whose span never occurred is None (absent)."""
    run = by_name.get("interp.run", {}).get("total_ns", 0)
    exec_ns = by_name.get("engine.exec", {}).get("total_ns", 0)
    return {
        "sql.parse_us": _mean_us(by_name, "sql.parse", "self_ns"),
        "sql.plan_us": _mean_us(by_name, "sql.plan", "self_ns"),
        "server.route_us": _mean_us(by_name, "server.route", "total_ns"),
        "server.pending_us": _mean_us(by_name, "server.pending", "total_ns"),
        "interp.run_us": _mean_us(by_name, "interp.run", "total_ns"),
        "interp.nonexec_us": _mean_us(by_name, "interp.run", "self_ns"),
        "engine.exec_us": _mean_us(by_name, "engine.exec", "total_ns"),
        "engine.exec_share": exec_ns / run if run else None,
        "catalog.commit_us": _mean_us(by_name, "catalog.commit", "total_ns"),
        "catalog.stmt_us": _mean_us(by_name, "catalog.stmt", "total_ns"),
        "net.encode_us": _mean_us(by_name, "net.encode", "total_ns"),
        "net.decode_us": _mean_us(by_name, "net.decode", "total_ns"),
    }


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    by_name, problems = summarise(load(argv[1]))
    print(f"{'span':<16} {'count':>9} {'mean_us':>11} {'self_us':>11}")
    for name in sorted(by_name):
        agg = by_name[name]
        n = agg["count"]
        print(f"{name:<16} {n:>9} {agg['total_ns'] / n / 1e3:>11.3f} "
              f"{agg['self_ns'] / n / 1e3:>11.3f}")
    print("problems:", problems)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

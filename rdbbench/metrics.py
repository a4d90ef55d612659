"""The benchmark's metric catalogue: names, units, direction, and which
workloads each per-layer metric applies to. BENCHMARK.json lists the same
names; selfcheck.py verifies that the two agree."""

WORKLOADS = ("reuse_hot", "adhoc_evict", "mixed_rw", "wire_hot")
IN_PROCESS = ("reuse_hot", "adhoc_evict", "mixed_rw")
ALL = WORKLOADS

# (name, unit, better) — measured with tracing off, printed by --trace 0.
END_TO_END = (
    ("qps", "stmt/s", "higher"),
    ("read_p50_ms", "ms", "lower"),
    ("read_p95_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

# (name, unit, better, workloads it applies to) — printed by --trace 1. The
# end-to-end figures that are not defined on every workload (write latency
# exists only where a writer runs, error_frac is 0 wherever nothing fails)
# are reported here, from the traced run's untraced part-A window.
PER_LAYER = (
    ("tpch.load_s", "s", "lower", ALL),
    ("sql.parse_us", "us", "lower", ALL),
    ("sql.plan_us", "us", "lower", ALL),
    ("sql.compiles_per_kstmt", "count", "lower", ALL),
    ("server.plan_hit_ratio", "ratio", "higher", ALL),
    ("server.route_us", "us", "lower", IN_PROCESS),
    ("server.pending_us", "us", "lower", IN_PROCESS),
    ("interp.run_us", "us", "lower", ALL),
    ("interp.nonexec_us", "us", "lower", ALL),
    ("interp.instrs_per_stmt", "count", "lower", ALL),
    ("engine.exec_us", "us", "lower", ALL),
    ("engine.exec_share", "ratio", "lower", ALL),
    ("core.hit_ratio", "ratio", "higher", ALL),
    ("core.exact_hits_per_stmt", "count", "higher", ALL),
    ("core.subsumed_hits_per_stmt", "count", "higher", ALL),
    ("core.admitted_per_stmt", "count", "lower", ALL),
    ("core.evicted_per_stmt", "count", "lower", ALL),
    ("core.pool_mb", "MiB", "lower", ALL),
    ("core.excl_locks_per_stmt", "count", "lower", ALL),
    ("core.shared_locks_per_stmt", "count", "lower", ALL),
    ("core.borrows_per_kstmt", "count", "lower", ALL),
    ("core.invalidated_per_commit", "count", "lower", ("mixed_rw",)),
    ("core.propagated_per_commit", "count", "higher", ("mixed_rw",)),
    ("core.stale_declines_per_kstmt", "count", "lower", ALL),
    ("catalog.commit_us", "us", "lower", ("mixed_rw",)),
    ("catalog.stmt_us", "us", "lower", ("mixed_rw",)),
    ("catalog.conflicts_per_ktxn", "count", "lower", ("mixed_rw",)),
    ("net.encode_us", "us", "lower", ("wire_hot",)),
    ("net.decode_us", "us", "lower", ("wire_hot",)),
    ("net.result_bytes", "B", "lower", ("wire_hot",)),
    ("bench.trace_overhead", "ratio", "lower", ALL),
    ("bench.writer_late_ms", "ms", "lower", ("mixed_rw",)),
    ("write_p50_ms", "ms", "lower", ("mixed_rw",)),
    ("write_p95_ms", "ms", "lower", ("mixed_rw",)),
    ("error_frac", "fraction", "lower", ALL),
)


def applies(metric, workload):
    """Whether a per-layer metric is defined on `workload`."""
    for name, _, _, workloads in PER_LAYER:
        if name == metric:
            return workload in workloads
    raise KeyError(metric)

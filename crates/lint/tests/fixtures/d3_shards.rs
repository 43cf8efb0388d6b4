//! Fixture: D3 discipline over the sharded-engine counter and gauge names.
fn naughty(c: &mut Counters, m: &mut MetricSample<'_>) {
    c.inc("sim.shard.bogus");
    m.gauge("shard.bogus_gauge", 1);
    c.inc("sim.shard.windows");
    c.add("sim.shard.xshard_packets", 2);
    c.add("sim.shard.worker_spawns", 3);
    m.gauge("shard.queue_events", 4);
    m.gauge("shard.clock_ns", 5);
    c.add("sim.shard.queue_pushes_current", 6);
    c.add("sim.shard.queue_pushes_ring", 7);
    c.add("sim.shard.queue_pushes_overflow", 8);
    c.add("sim.shard.queue_run_max", 9);
}

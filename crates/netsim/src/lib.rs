//! # rdv-netsim — deterministic discrete-event network simulator
//!
//! The paper's evaluation (§4) ran on Mininet with emulated VMs and noted
//! that *"emulation affected timings"*. This crate replaces that substrate
//! with a deterministic discrete-event simulator: same seed, same topology,
//! same workload ⇒ bit-identical results, on any machine. Every figure in
//! EXPERIMENTS.md is regenerated on top of it.
//!
//! ## Model
//!
//! - [`time::SimTime`] — nanosecond-resolution virtual clock.
//! - [`node::Node`] — behaviour attached to a network element (host NIC,
//!   switch dataplane, SDN controller). Implemented by `rdv-p4rt`,
//!   `rdv-discovery`, `rdv-rpc`, and `rdv-core`.
//! - [`link::LinkSpec`] — full-duplex point-to-point links with propagation
//!   latency, serialization bandwidth, and a bounded FIFO queue (tail drop).
//! - [`engine::Sim`] — the event loop: packet deliveries, timers, and
//!   delayed sends ([`node::NodeCtx::send_after`]) ordered by
//!   `(time, source, sequence)` for strict determinism.
//! - [`topo`] — topology builders, including the paper's testbed (three
//!   hosts behind four interconnected switches) and generic shapes.
//! - [`stats`] — counters and latency histograms shared by experiments.
//! - [`fault`] — scheduled fault injection: link down/up, loss bursts,
//!   partitions, and node crash/restart, all seed-reproducible.
//! - [`trace`] (re-exported `rdv-trace`) — causal tracing: when enabled via
//!   [`engine::Sim::enable_trace`], every enqueue/transmit/deliver/drop,
//!   timer, and fault is recorded with causal edges, and nodes annotate
//!   protocol spans through [`node::NodeCtx::trace`].
//! - [`metrics`] (re-exported `rdv-metrics`) — time-series telemetry: when
//!   enabled via [`engine::Sim::enable_metrics`], the engine samples
//!   registered gauges (link queues, utilization, per-node state exposed
//!   through [`node::Node::sample_metrics`]) on a fixed sim-time cadence
//!   and runs the live invariant monitor ([`node::Node::audit`]).
//! - [`audit`] — shard-ownership race detector: when armed via
//!   [`engine::Sim::enable_shard_audit`], every mutable access to node,
//!   link, timer, RNG, and queue state is checked against the sharded
//!   engine's ownership, outbox, and lookahead disciplines, and the
//!   first violation aborts with a typed [`audit::ShardAuditViolation`].
//! - [`flight`] — crash flight recorder: when armed via
//!   [`engine::Sim::enable_flight_recorder`], every shard keeps an
//!   always-on last-N-events ring (zero-alloc steady state, works inside
//!   parallel windows), and any invariant-monitor failure or shard-audit
//!   violation dies with a byte-deterministic postmortem — causal
//!   ancestry, gauge snapshot, per-shard window state — instead of a
//!   bare panic.
#![warn(clippy::disallowed_types, clippy::disallowed_methods)]
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod engine;
pub mod fault;
pub mod flight;
pub mod link;
pub mod node;
pub mod packet;
pub mod queue;
pub mod stats;
pub mod time;
pub mod topo;

pub use rdv_metrics as metrics;
pub use rdv_trace as trace;

pub use audit::{ShardAuditKind, ShardAuditViolation};
pub use engine::{
    default_shard_audit, default_shards, set_default_shard_audit, set_default_shards, Sim,
    SimConfig,
};
pub use fault::{FaultEvent, FaultPlan};
pub use flight::FLIGHT_COUNTERS;
pub use link::LinkSpec;
pub use node::{Node, NodeCtx, NodeId, PortId, SEND_AFTER_TAG};
pub use packet::Packet;
pub use rdv_metrics::MetricsConfig;
pub use stats::{CounterId, Counters, Histogram};
pub use time::SimTime;

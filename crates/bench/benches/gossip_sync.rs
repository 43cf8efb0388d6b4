//! `gossip_sync` — anti-entropy throughput of the sans-IO round machine
//! (entries applied per second, no simulation): the digest/delta exchange
//! every gossip-enabled host runs each round, a full ring convergence
//! sweep, and an exchange that ships and merges a 256-member membership
//! set (members per second) — the path whose cost must track what changed,
//! not how many hosts the fabric has. The F7 figure and the chaos soak's gossip family pump these
//! paths constantly, so the exchange must stay cheap relative to the
//! engine's event loop; this bench is regression-tracked in
//! `results/bench_baseline.json` alongside the engine benches.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rdv_gossip::sync::ctr;
use rdv_gossip::{Digest, GossipConfig, GossipSync, Journal};
use rdv_memproto::msg::Msg;
use rdv_netsim::stats::Counters;
use rdv_objspace::ObjId;

const INBOX_BASE: u128 = 0xB_0000;

fn inbox(i: usize) -> ObjId {
    ObjId(INBOX_BASE + i as u128)
}

/// A fresh pair: `a` holds `entries` facts, `b` holds none.
fn pair(entries: u64) -> (GossipSync, GossipSync) {
    let cfg = GossipConfig::default();
    let mut a = GossipSync::new(inbox(0), 1, cfg);
    let mut b = GossipSync::new(inbox(1), 2, cfg);
    a.add_peer(inbox(1), None);
    b.add_peer(inbox(0), None);
    for e in 0..entries {
        a.journal.record_holder(ObjId(0xF00 + e as u128), inbox(0), 100 + e);
    }
    (a, b)
}

/// A journal owned by `replica` whose membership holds `members` hosts,
/// each joined at its own replica (as every gossip host joins itself).
fn membership(replica: u64, members: usize) -> Journal {
    let mut j = Journal::new(replica);
    for i in 0..members {
        let mut host = Journal::new(1000 + i as u64);
        host.join_member(inbox(i));
        j.apply(&host.delta_since(&Digest::default(), false));
    }
    j
}

/// Deliver until quiescent; returns messages delivered.
fn pump(nodes: &mut [GossipSync], counters: &mut Counters, mut inflight: Vec<Msg>) -> u64 {
    let mut delivered = 0u64;
    while let Some(msg) = inflight.pop() {
        delivered += 1;
        // Route on the destination inbox (nodes are inbox-ordered).
        let idx = (msg.header.dst.as_u128() - INBOX_BASE) as usize;
        inflight.extend(nodes[idx].on_msg(&msg, counters));
    }
    delivered
}

/// One node per ring slot, each holding `per_node` facts; pump rounds
/// until every journal fingerprint matches. Returns entries applied.
fn ring_converge(nodes: usize, per_node: u64) -> u64 {
    let cfg = GossipConfig::default();
    let mut ring: Vec<GossipSync> = (0..nodes)
        .map(|i| {
            let mut s = GossipSync::new(inbox(i), i as u64 + 1, cfg);
            s.add_peer(inbox((i + 1) % nodes), None);
            for e in 0..per_node {
                s.journal.record_holder(
                    ObjId(0x1000 * (i as u128 + 1) + e as u128),
                    inbox(i),
                    100 + e,
                );
            }
            s
        })
        .collect();
    let mut counters = Counters::new();
    for _ in 0..2 * nodes {
        let outs: Vec<Msg> = ring.iter_mut().flat_map(|n| n.on_round(0, &mut counters)).collect();
        pump(&mut ring, &mut counters, outs);
        let fp = ring[0].journal.fingerprint();
        if ring.iter().all(|n| n.journal.fingerprint() == fp) {
            break;
        }
    }
    let fp = ring[0].journal.fingerprint();
    assert!(ring.iter().all(|n| n.journal.fingerprint() == fp), "ring must converge");
    counters.get_id(ctr().entries_applied)
}

fn bench(c: &mut Criterion) {
    let entries = 1024u64;
    let mut group = c.benchmark_group("gossip_sync");
    group.sample_size(10);

    // One full three-leg exchange moving `entries` facts A -> B.
    group.throughput(Throughput::Elements(entries));
    group.bench_function("digest_delta_exchange", |b| {
        b.iter(|| {
            let (mut a, bn) = pair(entries);
            let mut counters = Counters::new();
            let first = a.on_round(0, &mut counters);
            let mut nodes = vec![a, bn];
            let delivered = pump(&mut nodes, &mut counters, first);
            assert_eq!(nodes[0].journal.fingerprint(), nodes[1].journal.fingerprint());
            black_box((delivered, counters.get_id(ctr().entries_applied)))
        })
    });

    // 64-node ring, 4 facts each, pumped to global convergence.
    let applied = ring_converge(64, 4);
    assert!(applied > 0);
    group.throughput(Throughput::Elements(applied));
    group.bench_function("ring_convergence_64", |b| b.iter(|| black_box(ring_converge(64, 4))));

    // Two 256-member journals that each heard of one change first (a join
    // at A, a leave at B): the exchange ships and merges the membership
    // both ways.
    let members = 256;
    let mut base_a = membership(1, members);
    base_a.join_member(inbox(members));
    let mut base_b = membership(2, members);
    base_b.leave_member(inbox(members - 1));
    group.throughput(Throughput::Elements(members as u64));
    group.bench_function("membership_exchange_256", |b| {
        b.iter(|| {
            let cfg = GossipConfig::default();
            let mut a = GossipSync::new(inbox(0), 1, cfg);
            let mut bn = GossipSync::new(inbox(1), 2, cfg);
            a.add_peer(inbox(1), None);
            bn.add_peer(inbox(0), None);
            a.journal = base_a.clone();
            bn.journal = base_b.clone();
            let mut counters = Counters::new();
            let first = a.on_round(0, &mut counters);
            let mut nodes = vec![a, bn];
            let delivered = pump(&mut nodes, &mut counters, first);
            assert_eq!(
                nodes[0].journal.members_fingerprint(),
                nodes[1].journal.members_fingerprint()
            );
            assert_eq!(nodes[0].journal.member_count(), members);
            black_box(delivered)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

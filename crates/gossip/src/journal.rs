//! The per-node descriptor journal: CRDT holder-fact envelopes plus
//! replica membership, with version-vector digests and content deltas.
//!
//! Every fact is a [`LwwRegister`] over a [`HolderFact`] keyed by object
//! ID; membership is an [`OrSet`] of host inboxes. Both merge by CRDT
//! join, so any exchange order converges to the same content — the
//! property `tests/convergence.rs` proptests and the chaos soak re-checks
//! under partitions. A digest is the journal's version vector (max origin
//! sequence incorporated per replica) plus a membership fingerprint; a
//! delta carries exactly the entries the digest shows missing. Superseded
//! writes are never shipped: an entry overwritten by a newer stamp travels
//! as its final value under the winner's origin, and merging the sender's
//! version vector records the dominated sequences as covered.

use rdv_crdt::{LwwRegister, Merge, OrSet};
use rdv_det::DetMap;
use rdv_objspace::ObjId;
use rdv_wire::{Decode, Encode, WireReader, WireResult, WireWriter};

/// Upper bound on decoded delta collections (corruption guard).
const MAX_ENTRIES: u64 = 1 << 24;

/// One descriptor fact: "the object lives at `holder`, written in that
/// holder's restart `epoch`". A nil `holder` is a tombstone — the previous
/// location is known dead and must not be repaired from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HolderFact {
    /// Inbox of the holding host (nil = tombstone).
    pub holder: ObjId,
    /// The writer's restart epoch; bumped on crash/restart so facts from
    /// a dead incarnation are distinguishable.
    pub epoch: u64,
}

impl Encode for HolderFact {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u128(self.holder.as_u128());
        w.put_uvarint(self.epoch);
    }
}

impl Decode for HolderFact {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(HolderFact { holder: ObjId(r.get_u128()?), epoch: r.get_uvarint()? })
    }
}

/// Origin stamp of a journal write: `(replica, per-replica sequence)`.
pub type Origin = (u64, u64);

#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    fact: LwwRegister<HolderFact>,
    origin: Origin,
}

/// Version-vector summary of a journal, exchanged as the first leg of an
/// anti-entropy round.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Digest {
    /// `(replica, max origin sequence incorporated)`, sorted by replica.
    pub vv: Vec<(u64, u64)>,
    /// Fingerprint of the membership OR-set (full state ships only on
    /// mismatch — membership churn is rare next to holder churn).
    pub members_fp: u64,
}

impl Digest {
    fn seen(&self, replica: u64) -> u64 {
        self.vv.iter().find(|(r, _)| *r == replica).map(|(_, s)| *s).unwrap_or(0)
    }
}

impl Encode for Digest {
    fn encode(&self, w: &mut WireWriter) {
        w.put_uvarint(self.vv.len() as u64);
        for (r, s) in &self.vv {
            w.put_uvarint(*r);
            w.put_uvarint(*s);
        }
        w.put_u64(self.members_fp);
    }
}

impl Decode for Digest {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let n = r.get_uvarint()?.min(MAX_ENTRIES);
        let mut vv = Vec::with_capacity(n as usize);
        for _ in 0..n {
            vv.push((r.get_uvarint()?, r.get_uvarint()?));
        }
        Ok(Digest { vv, members_fp: r.get_u64()? })
    }
}

/// The second (and optional third) leg: entries the digest showed missing,
/// the sender's own version vector, and — on membership-fingerprint
/// mismatch — the full membership OR-set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Sender's version vector (merged by pointwise max on apply).
    pub vv: Vec<(u64, u64)>,
    /// `(object, fact, origin)` triples, sorted by object ID.
    pub entries: Vec<(u128, LwwRegister<HolderFact>, Origin)>,
    /// Full membership state, present only when fingerprints differed.
    pub members: Option<OrSet<u128>>,
    /// Whether the receiver should answer with its own delta (bounded
    /// ping-pong: a digest asks with `true`, the reply ships `false`).
    pub want_reply: bool,
}

impl Encode for Delta {
    fn encode(&self, w: &mut WireWriter) {
        w.put_uvarint(self.vv.len() as u64);
        for (r, s) in &self.vv {
            w.put_uvarint(*r);
            w.put_uvarint(*s);
        }
        w.put_uvarint(self.entries.len() as u64);
        for (obj, fact, origin) in &self.entries {
            w.put_u128(*obj);
            fact.encode(w);
            w.put_uvarint(origin.0);
            w.put_uvarint(origin.1);
        }
        match &self.members {
            Some(m) => {
                w.put_u8(1);
                m.encode(w);
            }
            None => w.put_u8(0),
        }
        w.put_u8(self.want_reply as u8);
    }
}

impl Decode for Delta {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let n = r.get_uvarint()?.min(MAX_ENTRIES);
        let mut vv = Vec::with_capacity(n as usize);
        for _ in 0..n {
            vv.push((r.get_uvarint()?, r.get_uvarint()?));
        }
        let n = r.get_uvarint()?.min(MAX_ENTRIES);
        let mut entries = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let obj = r.get_u128()?;
            let fact = LwwRegister::<HolderFact>::decode(r)?;
            entries.push((obj, fact, (r.get_uvarint()?, r.get_uvarint()?)));
        }
        let members = match r.get_u8()? {
            0 => None,
            _ => Some(OrSet::<u128>::decode(r)?),
        };
        Ok(Delta { vv, entries, members, want_reply: r.get_u8()? != 0 })
    }
}

/// The journal proper: holder facts + membership + the version vector of
/// incorporated origins.
#[derive(Debug, Clone)]
pub struct Journal {
    replica: u64,
    epoch: u64,
    next_seq: u64,
    last_stamp: u64,
    holders: DetMap<u128, Entry>,
    members: OrSet<u128>,
    /// `orset_fingerprint(&members)`, refreshed whenever `members` changes
    /// (join, leave, or a merged delta) so digests read it for free.
    members_fp: u64,
    vv: DetMap<u64, u64>,
}

impl Journal {
    /// Empty journal owned by `replica`.
    pub fn new(replica: u64) -> Journal {
        Journal {
            replica,
            epoch: 0,
            next_seq: 0,
            last_stamp: 0,
            holders: DetMap::new(),
            members: OrSet::new(),
            members_fp: orset_fingerprint(&OrSet::new()),
            vv: DetMap::new(),
        }
    }

    /// This journal's replica ID.
    pub fn replica(&self) -> u64 {
        self.replica
    }

    /// The writer's current restart epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Bump the restart epoch (call from `on_restart`): facts written
    /// before the crash are distinguishable from re-recorded ones.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Number of holder facts (tombstones included).
    pub fn len(&self) -> usize {
        self.holders.len()
    }

    /// Whether the journal holds no facts.
    pub fn is_empty(&self) -> bool {
        self.holders.is_empty()
    }

    fn stamp(&mut self, now_ns: u64) -> u64 {
        // Per-replica monotone stamps keep the LWW uniqueness invariant
        // even for same-tick writes.
        self.last_stamp = now_ns.max(self.last_stamp + 1);
        self.last_stamp
    }

    /// Record "`obj` lives at `holder`" as a local write stamped from
    /// `now_ns` (per-replica monotone; ties across replicas break on
    /// replica ID inside the LWW register).
    pub fn record_holder(&mut self, obj: ObjId, holder: ObjId, now_ns: u64) {
        let time = self.stamp(now_ns);
        let seq = self.next_seq + 1;
        self.next_seq = seq;
        let fact = HolderFact { holder, epoch: self.epoch };
        match self.holders.get_mut(&obj.as_u128()) {
            Some(e) => {
                e.fact.set(self.replica, time, fact);
                e.origin = (self.replica, seq);
            }
            None => {
                let mut reg = LwwRegister::new(HolderFact { holder: ObjId(0), epoch: 0 });
                reg.set(self.replica, time, fact);
                self.holders
                    .insert(obj.as_u128(), Entry { fact: reg, origin: (self.replica, seq) });
            }
        }
        let seen = self.vv.entry(self.replica).or_insert(0);
        *seen = (*seen).max(seq);
    }

    /// Tombstone `obj`'s location: its last known holder is dead and must
    /// not be repaired from.
    pub fn retire_holder(&mut self, obj: ObjId, now_ns: u64) {
        self.record_holder(obj, ObjId(0), now_ns);
    }

    /// The live holder of `obj`, if the journal knows one (tombstones and
    /// unknown objects are `None`).
    pub fn lookup(&self, obj: ObjId) -> Option<ObjId> {
        let fact = self.holders.get(&obj.as_u128())?.fact.get();
        (!fact.holder.is_nil()).then_some(fact.holder)
    }

    /// The raw fact for `obj`, tombstones included.
    pub fn fact(&self, obj: ObjId) -> Option<HolderFact> {
        self.holders.get(&obj.as_u128()).map(|e| *e.fact.get())
    }

    /// Add `inbox` to the membership OR-set.
    pub fn join_member(&mut self, inbox: ObjId) {
        self.members.add(self.replica, inbox.as_u128());
        self.members_fp = orset_fingerprint(&self.members);
    }

    /// Remove `inbox` from the membership OR-set (add-wins on races).
    pub fn leave_member(&mut self, inbox: ObjId) {
        self.members.remove(&inbox.as_u128());
        self.members_fp = orset_fingerprint(&self.members);
    }

    /// Whether `inbox` is a current member.
    pub fn is_member(&self, inbox: ObjId) -> bool {
        self.members.contains(&inbox.as_u128())
    }

    /// Number of current members.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Fingerprint of the membership OR-set alone (the digest field).
    pub fn members_fingerprint(&self) -> u64 {
        self.members_fp
    }

    /// The digest (version vector + membership fingerprint) for the first
    /// leg of an anti-entropy exchange.
    pub fn digest(&self) -> Digest {
        let mut vv: Vec<(u64, u64)> = self.vv.iter().map(|(r, s)| (*r, *s)).collect();
        vv.sort_unstable();
        Digest { vv, members_fp: self.members_fingerprint() }
    }

    /// Whether this journal holds anything `theirs` is missing.
    pub fn is_ahead_of(&self, theirs: &Digest) -> bool {
        self.holders.values().any(|e| e.origin.1 > theirs.seen(e.origin.0))
            || self.members_fingerprint() != theirs.members_fp
    }

    /// The entries `theirs` is missing, as a delta ready to ship.
    pub fn delta_since(&self, theirs: &Digest, want_reply: bool) -> Delta {
        let mut entries: Vec<(u128, LwwRegister<HolderFact>, Origin)> = self
            .holders
            .iter()
            .filter(|(_, e)| e.origin.1 > theirs.seen(e.origin.0))
            .map(|(obj, e)| (*obj, e.fact.clone(), e.origin))
            .collect();
        entries.sort_unstable_by_key(|(obj, _, _)| *obj);
        let members =
            (self.members_fingerprint() != theirs.members_fp).then(|| self.members.clone());
        let mut vv: Vec<(u64, u64)> = self.vv.iter().map(|(r, s)| (*r, *s)).collect();
        vv.sort_unstable();
        Delta { vv, entries, members, want_reply }
    }

    /// Drop nil-holder tombstones whose LWW write time is older than
    /// `now_ns - horizon`. The version vector is untouched — the expired
    /// origins stay covered, so peers never re-request the dominated
    /// writes; a peer that missed the tombstone entirely keeps its stale
    /// fact, which is the standard tombstone-GC trade: pick a horizon
    /// comfortably past anti-entropy convergence time. Returns how many
    /// facts were dropped.
    pub fn expire_tombstones(&mut self, now_ns: u64, horizon: u64) -> usize {
        let cutoff = now_ns.saturating_sub(horizon);
        let before = self.holders.len();
        self.holders.retain(|_, e| !(e.fact.get().holder.is_nil() && e.fact.stamp().0 < cutoff));
        before - self.holders.len()
    }

    /// Merge a delta: LWW-join each entry, join membership if present,
    /// pointwise-max the version vector. Returns how many entries changed
    /// this journal's content.
    pub fn apply(&mut self, delta: &Delta) -> usize {
        let mut applied = 0;
        for (obj, fact, origin) in &delta.entries {
            match self.holders.get_mut(obj) {
                Some(e) => {
                    let before = e.fact.stamp();
                    e.fact.merge(fact);
                    if e.fact.stamp() != before {
                        e.origin = *origin;
                        applied += 1;
                    }
                }
                None => {
                    self.holders.insert(*obj, Entry { fact: fact.clone(), origin: *origin });
                    applied += 1;
                }
            }
        }
        if let Some(members) = &delta.members {
            self.members.merge(members);
            self.members_fp = orset_fingerprint(&self.members);
        }
        for (replica, seq) in &delta.vv {
            let seen = self.vv.entry(*replica).or_insert(0);
            *seen = (*seen).max(*seq);
        }
        applied
    }

    /// Content fingerprint: FNV-1a over the sorted canonical encoding of
    /// every holder fact, then every live member in order. Two journals
    /// with equal fingerprints hold the same facts regardless of write or
    /// merge order — the convergence oracle for the proptests and the
    /// chaos soak.
    pub fn fingerprint(&self) -> u64 {
        // `DetMap` iterates in no particular order; the holders need a sort.
        let mut keys: Vec<u128> = self.holders.keys().copied().collect();
        keys.sort_unstable();
        let mut w = WireWriter::new();
        for k in keys {
            let e = &self.holders[&k];
            w.put_u128(k);
            e.fact.encode(&mut w);
        }
        let mut h = Fnv1a::new();
        h.write(w.as_slice());
        hash_members(h, &self.members)
    }
}

impl std::ops::Index<&u128> for Journal {
    type Output = LwwRegister<HolderFact>;
    fn index(&self, key: &u128) -> &Self::Output {
        &self.holders[key].fact
    }
}

/// Canonical fingerprint of an OR-set of inboxes: FNV-1a over the live
/// elements' little-endian bytes, in order.
pub fn orset_fingerprint(set: &OrSet<u128>) -> u64 {
    hash_members(Fnv1a::new(), set)
}

/// Feed `set`'s live elements (already ascending) into `h` and finish.
fn hash_members(mut h: Fnv1a, set: &OrSet<u128>) -> u64 {
    for m in set.iter() {
        h.write(&m.to_le_bytes());
    }
    h.finish()
}

/// Streaming 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_lookup() {
        let mut j = Journal::new(1);
        let (obj, holder) = (ObjId(0xAB), ObjId(0x10));
        assert_eq!(j.lookup(obj), None);
        j.record_holder(obj, holder, 100);
        assert_eq!(j.lookup(obj), Some(holder));
        j.retire_holder(obj, 200);
        assert_eq!(j.lookup(obj), None, "tombstone hides the holder");
        assert_eq!(j.fact(obj).unwrap().holder, ObjId(0));
    }

    #[test]
    fn same_tick_writes_stay_monotone() {
        let mut j = Journal::new(1);
        j.record_holder(ObjId(1), ObjId(0x10), 50);
        j.record_holder(ObjId(1), ObjId(0x20), 50);
        assert_eq!(j.lookup(ObjId(1)), Some(ObjId(0x20)), "second same-tick write wins");
    }

    #[test]
    fn digest_delta_sync_converges() {
        let mut a = Journal::new(1);
        let mut b = Journal::new(2);
        a.record_holder(ObjId(1), ObjId(0x10), 100);
        a.join_member(ObjId(0x10));
        b.record_holder(ObjId(2), ObjId(0x20), 150);
        b.join_member(ObjId(0x20));

        // A asks, B answers, A reciprocates.
        let delta_for_a = b.delta_since(&a.digest(), true);
        assert_eq!(a.apply(&delta_for_a), 1);
        let delta_for_b = a.delta_since(&b.digest(), false);
        assert_eq!(b.apply(&delta_for_b), 1);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.lookup(ObjId(2)), Some(ObjId(0x20)));
        assert_eq!(b.lookup(ObjId(1)), Some(ObjId(0x10)));
        assert!(a.is_member(ObjId(0x20)) && b.is_member(ObjId(0x10)));

        // In-sync peers exchange empty deltas and nothing changes.
        assert!(!a.is_ahead_of(&b.digest()));
        let empty = a.delta_since(&b.digest(), false);
        assert!(empty.entries.is_empty() && empty.members.is_none());
        assert_eq!(b.apply(&empty), 0);
    }

    #[test]
    fn superseded_writes_never_resurface() {
        let mut a = Journal::new(1);
        let mut b = Journal::new(2);
        let mut c = Journal::new(3);
        a.record_holder(ObjId(7), ObjId(0x10), 100);
        // B learns A's fact, then overwrites it with a newer one.
        b.apply(&a.delta_since(&b.digest(), false));
        b.record_holder(ObjId(7), ObjId(0x20), 200);
        // C syncs from B only: it must land on the final value and its
        // digest must not keep asking for A's dominated write.
        c.apply(&b.delta_since(&c.digest(), false));
        assert_eq!(c.lookup(ObjId(7)), Some(ObjId(0x20)));
        assert!(!a.is_ahead_of(&c.digest()), "dominated origin reads as covered");
        assert_eq!(c.fingerprint(), b.fingerprint());
    }

    #[test]
    fn wire_roundtrip() {
        let mut j = Journal::new(9);
        j.record_holder(ObjId(1), ObjId(0x10), 10);
        j.join_member(ObjId(0x10));
        let digest = j.digest();
        let bytes = rdv_wire::encode_to_vec(&digest);
        assert_eq!(rdv_wire::decode_from_slice::<Digest>(&bytes).unwrap(), digest);
        let delta = j.delta_since(&Digest::default(), true);
        let bytes = rdv_wire::encode_to_vec(&delta);
        assert_eq!(rdv_wire::decode_from_slice::<Delta>(&bytes).unwrap(), delta);
    }

    #[test]
    fn tombstones_expire_past_the_horizon_and_stay_covered() {
        let mut a = Journal::new(1);
        a.record_holder(ObjId(1), ObjId(0x10), 100);
        a.retire_holder(ObjId(1), 200);
        a.record_holder(ObjId(2), ObjId(0x20), 250); // live fact, never expires
        a.retire_holder(ObjId(3), 900); // young tombstone, inside horizon

        assert_eq!(a.expire_tombstones(1_000, 500), 1, "only the old tombstone goes");
        assert_eq!(a.len(), 2);
        assert_eq!(a.fact(ObjId(1)), None, "expired fact is gone entirely");
        assert_eq!(a.lookup(ObjId(2)), Some(ObjId(0x20)));
        assert!(a.fact(ObjId(3)).unwrap().holder.is_nil(), "young tombstone survives");

        // The expired origin stays covered: a fresh journal syncing from A
        // never sees obj 1, and A's digest still claims those sequences, so
        // nobody re-requests the dominated write.
        let mut b = Journal::new(2);
        b.apply(&a.delta_since(&b.digest(), false));
        assert_eq!(b.fact(ObjId(1)), None);
        assert!(!a.is_ahead_of(&b.digest()), "expiry leaves nothing left to ship");

        // Idempotent: nothing else crosses the cutoff.
        assert_eq!(a.expire_tombstones(1_000, 500), 0);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Holder facts (one retired), a member that left, a merged peer, and
    /// a re-join after a crash (a second tag on the same member).
    fn golden_journal() -> Journal {
        let mut a = Journal::new(1);
        a.record_holder(ObjId(0xA1), ObjId(0x101), 100);
        a.record_holder(ObjId(0xA2), ObjId(0x102), 150);
        a.join_member(ObjId(0x101));
        a.join_member(ObjId(0x102));
        a.join_member(ObjId(0x103));
        a.leave_member(ObjId(0x102));
        a.retire_holder(ObjId(0xA2), 200);
        let mut b = Journal::new(2);
        b.join_member(ObjId(0x104));
        b.join_member(ObjId(0x101));
        b.record_holder(ObjId(0xB1), ObjId(0x104), 120);
        a.apply(&b.delta_since(&a.digest(), false));
        a.bump_epoch();
        a.join_member(ObjId(0x101));
        a.record_holder(ObjId(0xA1), ObjId(0x101), 300);
        a
    }

    // The values below were recorded from the journal before its membership
    // fingerprint was cached and its OR-set flattened; neither the oracle,
    // the digest field nor the delta bytes may move.

    #[test]
    fn fingerprints_match_the_recorded_values() {
        let j = golden_journal();
        assert_eq!(j.fingerprint(), 0xdaddffd5168a11ab);
        assert_eq!(j.members_fingerprint(), 0x1c372fa58f4b2c18);
        assert_eq!(orset_fingerprint(&j.members), 0x1c372fa58f4b2c18);
        assert_eq!(Journal::new(3).members_fingerprint(), 0xcbf29ce484222325);
        let mut set: OrSet<u128> = OrSet::new();
        set.add(7, 0x101);
        set.add(9, 0x1_0000_0000_0000_0000_0000_0103);
        set.add(7, 0x102);
        set.remove(&0x102);
        set.add(8, 0x101);
        let mut other = OrSet::new();
        other.add(5, 0x104u128);
        set.merge(&other);
        assert_eq!(orset_fingerprint(&set), 0x776508ca327a2bf9);
    }

    #[test]
    fn delta_with_members_matches_the_recorded_bytes() {
        let j = golden_journal();
        let digest = rdv_wire::encode_to_vec(&j.digest());
        assert_eq!(hex(&digest), "0201040201182c4b8fa52f371c");
        let delta = j.delta_since(&Digest::default(), true);
        assert!(delta.members.is_some());
        let bytes = rdv_wire::encode_to_vec(&delta);
        assert_eq!(
            hex(&bytes),
            "020104020103a1000000000000000000000000000000010100000000000000000000000000000\
             1ac02010104a2000000000000000000000000000000000000000000000000000000000000000\
             0c801010103b100000000000000000000000000000004010000000000000000000000000000\
             0078020201010301010000000000000000000000000000030100010302010301000000000000\
             0000000000000000010102040100000000000000000000000000000102000102010000000000\
             000000000000000000010101020104020201"
        );
        assert_eq!(rdv_wire::decode_from_slice::<Delta>(&bytes).unwrap(), delta);
    }

    use proptest::prelude::*;

    proptest! {
        /// The cached membership fingerprint never drifts from a
        /// from-scratch one, whatever mix of joins, leaves and merges the
        /// membership goes through.
        #[test]
        fn cached_members_fingerprint_tracks_every_step(
            tape in proptest::collection::vec((0u8..4, 0usize..3, 0u128..6), 1..40),
        ) {
            let mut js: Vec<Journal> = (1..=3).map(Journal::new).collect();
            for (kind, who, inbox) in tape {
                let peer = (who + 1) % js.len();
                match kind {
                    0 => js[who].join_member(ObjId(0x100 + inbox)),
                    1 => js[who].leave_member(ObjId(0x100 + inbox)),
                    2 => {
                        let delta = js[peer].delta_since(&js[who].digest(), false);
                        js[who].apply(&delta);
                    }
                    _ => {
                        let delta = js[peer].delta_since(&Digest::default(), false);
                        js[who].apply(&delta);
                    }
                }
                for j in &js {
                    prop_assert_eq!(j.members_fingerprint(), orset_fingerprint(&j.members));
                }
            }
        }
    }

    #[test]
    fn epoch_bumps_are_visible_in_facts() {
        let mut j = Journal::new(1);
        j.record_holder(ObjId(1), ObjId(0x10), 10);
        assert_eq!(j.fact(ObjId(1)).unwrap().epoch, 0);
        j.bump_epoch();
        j.record_holder(ObjId(1), ObjId(0x10), 20);
        assert_eq!(j.fact(ObjId(1)).unwrap().epoch, 1);
    }
}

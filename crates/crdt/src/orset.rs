//! Observed-remove set.
//!
//! Add wins over concurrent remove; removal only deletes the *observed*
//! add-tags, so a re-add after removal is a distinct element instance.
//!
//! The state is flat: both tag sets are sorted, duplicate-free `(element,
//! tag)` vectors and the tag counters a sorted `(replica, next)` vector, so
//! merge is a linear sorted union and clone and decode are flat copies.
//! The wire form is that of maps: tags grouped by element (`count,
//! (element, tag count, tags…)…`), then the counters as a replica-keyed
//! map.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::mem;

use rdv_wire::codec::MAX_DECODE_LEN;
use rdv_wire::{Decode, Encode, WireReader, WireResult, WireWriter};

use crate::{Merge, ReplicaId};

/// A unique tag for one add operation.
type Tag = (ReplicaId, u64);

/// An observed-remove set over ordered element types.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OrSet<T: Ord> {
    /// Live `(element, add-tag)` pairs, sorted and unique.
    adds: Vec<(T, Tag)>,
    /// Tombstoned `(element, add-tag)` pairs (kept for correct merges),
    /// sorted and unique.
    removed: Vec<(T, Tag)>,
    /// Per-replica tag counters, sorted by replica.
    next: Vec<(ReplicaId, u64)>,
}

impl<T: Ord + Clone> OrSet<T> {
    /// Empty set.
    pub fn new() -> OrSet<T> {
        OrSet { adds: Vec::new(), removed: Vec::new(), next: Vec::new() }
    }

    /// Add `value` at `replica`.
    pub fn add(&mut self, replica: ReplicaId, value: T) {
        let n = match self.next.binary_search_by_key(&replica, |&(r, _)| r) {
            Ok(at) => &mut self.next[at].1,
            Err(at) => {
                self.next.insert(at, (replica, 0));
                &mut self.next[at].1
            }
        };
        let tag = (replica, *n);
        *n += 1;
        let pair = (value, tag);
        if let Err(at) = self.adds.binary_search(&pair) {
            self.adds.insert(at, pair);
        }
    }

    /// Remove `value`: tombstones every currently observed add-tag.
    pub fn remove(&mut self, value: &T) {
        let live = group(&self.adds, value);
        for pair in self.adds.drain(live) {
            if let Err(at) = self.removed.binary_search(&pair) {
                self.removed.insert(at, pair);
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, value: &T) -> bool {
        self.adds.binary_search_by(|(v, _)| v.cmp(value)).is_ok()
    }

    /// Live elements in order, without allocating.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.adds.chunk_by(|a, b| a.0 == b.0).map(|tags| &tags[0].0)
    }

    /// Live elements in order.
    pub fn elements(&self) -> Vec<&T> {
        self.iter().collect()
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True when no live elements exist.
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty()
    }
}

/// The index range of `value`'s pairs in a sorted pair vector.
fn group<T: Ord>(pairs: &[(T, Tag)], value: &T) -> std::ops::Range<usize> {
    let lo = pairs.partition_point(|(v, _)| v < value);
    lo..lo + pairs[lo..].partition_point(|(v, _)| v == value)
}

/// Sorted, duplicate-free union of two sorted, duplicate-free vectors.
fn union<P: Ord + Clone>(a: &[P], b: &[P]) -> Vec<P> {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j].clone());
                j += 1;
            }
            Ordering::Equal => {
                out.push(a[i].clone());
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl<T: Ord + Clone> Merge for OrSet<T> {
    fn merge(&mut self, other: &Self) {
        // Union tombstones and adds, then strip anything tombstoned: one
        // forward walk, since both vectors are sorted.
        self.removed = union(&self.removed, &other.removed);
        let mut adds = union(&self.adds, &other.adds);
        let dead = &self.removed;
        let mut d = 0;
        adds.retain(|pair| {
            while d < dead.len() && dead[d] < *pair {
                d += 1;
            }
            dead.get(d) != Some(pair)
        });
        self.adds = adds;
        // Advance per-replica counters to avoid tag reuse after a merge: a
        // replica both sides count sits twice in the union, larger last.
        self.next = union(&self.next, &other.next);
        self.next.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
    }
}

/// Encode sorted pairs grouped by element: `count, (element, tag count,
/// (replica, seq)…)…`.
fn encode_pairs<T: Ord + Encode>(pairs: &[(T, Tag)], w: &mut WireWriter) {
    let groups = || pairs.chunk_by(|a, b| a.0 == b.0);
    w.put_uvarint(groups().count() as u64);
    for tags in groups() {
        tags[0].0.encode(w);
        w.put_uvarint(tags.len() as u64);
        for (_, (r, n)) in tags {
            w.put_uvarint(*r);
            w.put_uvarint(*n);
        }
    }
}

impl<T: Ord + Encode> Encode for OrSet<T> {
    fn encode(&self, w: &mut WireWriter) {
        encode_pairs(&self.adds, w);
        encode_pairs(&self.removed, w);
        w.put_uvarint(self.next.len() as u64);
        for (r, n) in &self.next {
            w.put_uvarint(*r);
            w.put_uvarint(*n);
        }
    }
}

fn decode_tag(r: &mut WireReader<'_>) -> WireResult<Tag> {
    Ok((r.get_uvarint()?, r.get_uvarint()?))
}

/// Decode grouped pairs in canonical form (elements strictly ascending,
/// each group's tags strictly ascending and non-empty) straight into a
/// flat vector. `None` at the first departure from that form.
fn decode_canonical<T: Ord + Decode + Clone>(
    r: &mut WireReader<'_>,
) -> WireResult<Option<Vec<(T, Tag)>>> {
    let n = r.get_uvarint()?;
    let mut pairs: Vec<(T, Tag)> = Vec::new();
    for _ in 0..n {
        let v = T::decode(r)?;
        let tn = r.get_uvarint()?;
        if tn == 0 || pairs.last().is_some_and(|(last, _)| *last >= v) {
            return Ok(None);
        }
        let first = decode_tag(r)?;
        pairs.push((v.clone(), first));
        for _ in 1..tn {
            let tag = decode_tag(r)?;
            if tag <= pairs[pairs.len() - 1].1 {
                return Ok(None);
            }
            pairs.push((v.clone(), tag));
        }
    }
    Ok(Some(pairs))
}

/// Decode grouped pairs in any order, with the semantics of inserting each
/// group into a map of element → tag set: groups are sorted by element, a
/// repeated element keeps only its last group, and tags are deduplicated.
fn decode_any<T: Ord + Decode + Clone>(r: &mut WireReader<'_>) -> WireResult<Vec<(T, Tag)>> {
    let n = r.get_uvarint()?;
    let mut groups: Vec<(T, Vec<Tag>)> = Vec::new();
    for _ in 0..n {
        let v = T::decode(r)?;
        let tn = r.get_uvarint()?;
        let tags = (0..tn).map(|_| decode_tag(r)).collect::<WireResult<Vec<Tag>>>()?;
        groups.push((v, tags));
    }
    // Stable, so repeats of an element stay in arrival order; the dedup
    // then leaves the latest group of each run in the kept slot.
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    groups.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            mem::swap(later, kept);
        }
        same
    });
    let mut pairs = Vec::new();
    for (v, mut tags) in groups {
        tags.sort_unstable();
        tags.dedup();
        pairs.extend(tags.into_iter().map(|tag| (v.clone(), tag)));
    }
    Ok(pairs)
}

/// Decode grouped pairs: the canonical fast path, re-read in full when the
/// input is out of order or repeats itself.
fn decode_pairs<T: Ord + Decode + Clone>(r: &mut WireReader<'_>) -> WireResult<Vec<(T, Tag)>> {
    let start = r.clone();
    if let Some(pairs) = decode_canonical(r)? {
        return Ok(pairs);
    }
    *r = start;
    decode_any(r)
}

/// Decode the counter map: straight into a vector when its replicas
/// ascend, else re-read as a map (sorted, a repeated replica's last count
/// wins).
fn decode_counters(r: &mut WireReader<'_>) -> WireResult<Vec<(ReplicaId, u64)>> {
    let start = r.clone();
    let n = r.get_uvarint()?;
    let mut next: Vec<(ReplicaId, u64)> = Vec::new();
    if n <= MAX_DECODE_LEN {
        for _ in 0..n {
            let (replica, count) = (r.get_uvarint()?, r.get_uvarint()?);
            if next.last().is_some_and(|&(last, _)| last >= replica) {
                break;
            }
            next.push((replica, count));
        }
        if next.len() as u64 == n {
            return Ok(next);
        }
    }
    *r = start;
    Ok(BTreeMap::<ReplicaId, u64>::decode(r)?.into_iter().collect())
}

impl<T: Ord + Decode + Clone> Decode for OrSet<T> {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(OrSet { adds: decode_pairs(r)?, removed: decode_pairs(r)?, next: decode_counters(r)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws;
    use proptest::prelude::*;

    #[test]
    fn add_then_remove() {
        let mut s = OrSet::new();
        s.add(1, "x");
        assert!(s.contains(&"x"));
        s.remove(&"x");
        assert!(!s.contains(&"x"));
        assert!(s.is_empty());
    }

    #[test]
    fn add_wins_over_concurrent_remove() {
        // Replica A adds x; replica B (having seen an older add) removes x
        // concurrently while A re-adds. A's unobserved add survives.
        let mut base: OrSet<&str> = OrSet::new();
        base.add(1, "x");
        let mut a = base.clone();
        let mut b = base.clone();
        b.remove(&"x"); // observes only the original add
        a.add(1, "x"); // a fresh, unobserved add
        a.merge(&b);
        assert!(a.contains(&"x"), "unobserved add must survive the remove");
        // Symmetric merge agrees.
        let mut b2 = b.clone();
        b2.merge(&a);
        assert!(b2.contains(&"x"));
    }

    #[test]
    fn re_add_after_remove_works() {
        let mut s = OrSet::new();
        s.add(1, 7u64);
        s.remove(&7);
        s.add(1, 7);
        assert!(s.contains(&7));
    }

    #[test]
    fn wire_roundtrip() {
        let mut s = OrSet::new();
        s.add(1, String::from("a"));
        s.add(2, String::from("b"));
        s.remove(&String::from("a"));
        let bytes = rdv_wire::encode_to_vec(&s);
        let back: OrSet<String> = rdv_wire::decode_from_slice(&bytes).unwrap();
        assert_eq!(back, s);
        assert!(back.contains(&String::from("b")));
        assert!(!back.contains(&String::from("a")));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Elements with several tags (10 re-added after a remove, 30 added at
    /// two replicas), non-empty tombstones and four replica counters.
    fn golden_set() -> OrSet<u64> {
        let mut s = OrSet::new();
        s.add(1, 10);
        s.add(2, 20);
        s.add(1, 30);
        s.remove(&10);
        s.add(3, 10);
        s.add(1, 10);
        s.add(2, 30);
        s.remove(&20);
        s.add(4, 300);
        s
    }

    /// The encoding of `golden_set`, recorded from the map-of-tag-sets
    /// layout this set replaced: the wire format must never move.
    const GOLDEN_SET: &str =
        "030a02010203001e0201010201ac02010400020a01010014010200040103020203010401";

    #[test]
    fn encoding_matches_the_recorded_bytes() {
        let s = golden_set();
        assert_eq!(hex(&rdv_wire::encode_to_vec(&s)), GOLDEN_SET);
        assert_eq!(s.elements(), vec![&10, &30, &300]);
        assert_eq!(s.len(), 3);
        let back: OrSet<u64> = rdv_wire::decode_from_slice(&rdv_wire::encode_to_vec(&s)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn u128_encoding_matches_the_recorded_bytes() {
        let mut s: OrSet<u128> = OrSet::new();
        s.add(7, 0x101);
        s.add(9, 0x1_0000_0000_0000_0000_0000_0103);
        s.add(7, 0x102);
        s.remove(&0x102);
        s.add(8, 0x101);
        let mut t = OrSet::new();
        t.add(5, 0x104u128);
        s.merge(&t);
        assert_eq!(
            hex(&rdv_wire::encode_to_vec(&s)),
            "030101000000000000000000000000000002070008000401000000000000000000000000000001050003\
             010000000000000000000001000000010900010201000000000000000000000000000001070104050107\
             0208010901"
        );
    }

    /// Hand-written encoding, in the order given: `(element, tags)`
    /// groups, then the tombstone groups, then the `(replica, next)`
    /// counters.
    fn groups(adds: &[(u64, &[Tag])], removed: &[(u64, &[Tag])], next: &[(u64, u64)]) -> Vec<u8> {
        let mut w = WireWriter::new();
        for part in [adds, removed] {
            w.put_uvarint(part.len() as u64);
            for (v, tags) in part {
                v.encode(&mut w);
                w.put_uvarint(tags.len() as u64);
                for (r, n) in *tags {
                    w.put_uvarint(*r);
                    w.put_uvarint(*n);
                }
            }
        }
        w.put_uvarint(next.len() as u64);
        for (r, n) in next {
            w.put_uvarint(*r);
            w.put_uvarint(*n);
        }
        w.into_vec()
    }

    #[test]
    fn out_of_order_and_repeated_groups_decode_canonically() {
        let canonical = rdv_wire::encode_to_vec(&golden_set());
        assert_eq!(
            groups(
                &[(10, &[(1, 2), (3, 0)]), (30, &[(1, 1), (2, 1)]), (300, &[(4, 0)])],
                &[(10, &[(1, 0)]), (20, &[(2, 0)])],
                &[(1, 3), (2, 2), (3, 1), (4, 1)],
            ),
            canonical,
            "the hand-written groups are the canonical encoding"
        );
        // Groups, tags and counters shuffled, a group repeated verbatim, a
        // tag repeated inside a group, and a stale group for 300 and a
        // stale counter for replica 2 that later entries replace (a map
        // insert's semantics).
        let shuffled = groups(
            &[
                (300, &[(9, 9)]),
                (30, &[(2, 1), (1, 1), (2, 1)]),
                (10, &[(3, 0), (1, 2)]),
                (300, &[(4, 0)]),
                (10, &[(3, 0), (1, 2)]),
            ],
            &[(20, &[(2, 0)]), (10, &[(1, 0), (1, 0)])],
            &[(4, 1), (2, 7), (1, 3), (3, 1), (2, 2)],
        );
        let decoded: OrSet<u64> = rdv_wire::decode_from_slice(&shuffled).unwrap();
        assert_eq!(decoded, golden_set());
        assert_eq!(rdv_wire::encode_to_vec(&decoded), canonical);
    }

    fn build(ops: &[(u8, u8, bool)]) -> OrSet<u64> {
        let mut s = OrSet::new();
        for &(rep, v, add) in ops {
            if add {
                s.add(u64::from(rep % 3), u64::from(v % 8));
            } else {
                s.remove(&u64::from(v % 8));
            }
        }
        s
    }

    proptest! {
        #[test]
        fn prop_laws(
            a in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
            b in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
            c in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        ) {
            // Disjoint replica spaces per proptest case would be unrealistic;
            // shared replicas with shared tag counters stress merge harder.
            let (a, b, c) = (build(&a), build(&b), build(&c));
            laws::commutative(&a, &b);
            laws::associative(&a, &b, &c);
            laws::idempotent(&a);
        }
    }
}

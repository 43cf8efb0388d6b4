//! Bucketed calendar queue for near-future events.
//!
//! The engine's hot path is dominated by event-queue churn: almost every
//! event scheduled is due within a few link latencies of *now*, which a
//! binary heap pays `O(log n)` comparisons to order even though the time
//! axis already orders it nearly for free. A calendar queue (Brown, CACM
//! 1988) exploits that locality: the near future is a ring of fixed-width
//! buckets (push is an `O(1)` append), and far-future items (long timers,
//! scenario deadlines) fall back to an overflow heap so the ring stays
//! small.
//!
//! A bucket is ordered once, when it comes up: it is taken out of its
//! slot, sorted descending, and popped from the end as one *sorted run*
//! (the Ladder Queue's lazy bucket sort; Tang, Goh & Thng, TOMACS 2005).
//! Pushes that land in the current bucket after that — zero-delay
//! self-schedules, short timers — go to a small `late` heap, and a pop
//! takes the smaller of the run's tail and the heap's head. With the
//! bucket width at or below the fabric's fastest link (the engine derives
//! it so), no link delivery lands in the current bucket, and a
//! 100 k-event instant costs one sort instead of 100 k heap sifts.
//!
//! Everything that is moved or compared — ring, run, both heaps — holds a
//! 24-byte ref `(at, src, seq, slot)`; payloads stay put in a slab until
//! popped.
//!
//! Every item carries an [`EventKey`] `(at, src, seq)`; pops are globally
//! ordered by that key. The key is execution-order-independent — `src`
//! identifies the event's source stream and `seq` is per-source — which is
//! what lets the sharded engine (see `engine.rs`) produce identical pop
//! orders regardless of how events were interleaved when pushed.
//!
//! The module is public so `rdv-bench` can micro-benchmark it against the
//! plain `BinaryHeap` it replaced; it is not otherwise part of the
//! simulator's API surface.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Total order for events: time, then source stream, then per-source
/// sequence number. Keys are assigned so that the full set of (key, item)
/// pairs produced by a run is independent of execution interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Due time in nanoseconds.
    pub at: u64,
    /// Source stream id (the engine uses 0 for externally scheduled
    /// timers and `node_id + 1` for node-generated events).
    pub src: u32,
    /// Sequence number within the source stream.
    pub seq: u64,
}

/// A queued item's handle: its key, flattened so that the payload's slab
/// slot fills what would be [`EventKey`]'s padding (24 bytes in all).
/// Declaration order is the sort order; `slot` never decides it, because
/// the engine's keys are unique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Ref {
    at: u64,
    src: u32,
    seq: u64,
    slot: u32,
}

impl Ref {
    fn key(self) -> EventKey {
        EventKey { at: self.at, src: self.src, seq: self.seq }
    }
}

/// A slab slot: a queued payload, or a link in the free list (the next
/// free slot, [`NO_SLOT`] at the end). Keeping the free list inside the
/// vacant slots costs no memory beyond the slab itself.
pub(crate) enum Slot<T> {
    Full(T),
    Free(u32),
}

/// End of the slab's free list.
const NO_SLOT: u32 = u32::MAX;

/// Capacity, in refs, a buffer may keep once its bucket has drained. A
/// same-instant burst grows one bucket to hundreds of thousands of refs;
/// without this cap every ring slot such a buffer cycles through would
/// keep megabytes of dead capacity.
const RETAIN_REFS: usize = 4096;

/// Where each push landed, and the largest sorted run — deterministic for
/// a given push/pop sequence, so queue work shows without host clocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Pushes into the current bucket or the past (the `late` heap).
    pub pushes_current: u64,
    /// Pushes into a future ring bucket.
    pub pushes_ring: u64,
    /// Pushes beyond the ring horizon (the overflow heap).
    pub pushes_overflow: u64,
    /// Largest bucket sorted as one run.
    pub run_max: u64,
}

/// `(log2 width, bucket count − 1)` of a geometry, both dimensions rounded
/// up to a power of two.
fn shape(bucket_width_ns: u64, buckets: usize) -> (u32, u64) {
    assert!(buckets >= 1, "calendar queue needs at least one bucket");
    (
        bucket_width_ns.max(1).next_power_of_two().trailing_zeros(),
        buckets.next_power_of_two() as u64 - 1,
    )
}

/// A bucketed calendar queue: `O(1)` push for events due within
/// `buckets × bucket_width` of the current bucket, one sort per bucket as
/// it comes up, overflow heap for everything later.
pub struct CalendarQueue<T> {
    /// log2 of the bucket width in ns.
    shift: u32,
    /// Absolute index of the current bucket.
    cur_bucket: u64,
    /// The current bucket, sorted descending: the next ref is last.
    run: Vec<Ref>,
    /// Refs pushed into the current bucket (or the past) after it was
    /// sorted. Time holds still between pops, so "the past" only arises
    /// from zero-delay self-schedules.
    late: BinaryHeap<Reverse<Ref>>,
    /// Ring of unsorted future buckets: bucket `b` lives in slot
    /// `b & mask` while `b - cur_bucket ≤ ring.len()`.
    ring: Vec<Vec<Ref>>,
    /// `ring.len() - 1` (the length is a power of two).
    mask: u64,
    /// Refs currently stored in the ring.
    ring_len: usize,
    /// Far-future refs, beyond the ring horizon at push time.
    overflow: BinaryHeap<Reverse<Ref>>,
    /// Payloads by slot. Its length is the most items ever queued at once.
    slab: Vec<Slot<T>>,
    /// Head of the free list threaded through vacant slots, reused
    /// last-freed first.
    free: u32,
    /// Number of queued items.
    len: usize,
    stats: QueueStats,
}

impl<T> CalendarQueue<T> {
    /// Create a queue with `buckets` ring buckets of width
    /// `bucket_width_ns` (both rounded up to a power of two).
    pub fn new(bucket_width_ns: u64, buckets: usize) -> CalendarQueue<T> {
        let (shift, mask) = shape(bucket_width_ns, buckets);
        CalendarQueue {
            shift,
            cur_bucket: 0,
            run: Vec::new(),
            late: BinaryHeap::new(),
            ring: (0..=mask).map(|_| Vec::new()).collect(),
            mask,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            slab: Vec::new(),
            free: NO_SLOT,
            len: 0,
            stats: QueueStats::default(),
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current `(bucket width in ns, bucket count)`.
    pub fn geometry(&self) -> (u64, usize) {
        (1 << self.shift, self.ring.len())
    }

    /// Push and run counts since creation.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Switch to `buckets` buckets of width `bucket_width_ns` (rounded as
    /// in [`CalendarQueue::new`]), re-filing the queued refs in place;
    /// payloads do not move and pop order is unchanged. A no-op when the
    /// geometry is the current one. The overflow heap is ordered by key
    /// alone, so only refs due by the new current bucket leave it.
    pub fn set_geometry(&mut self, bucket_width_ns: u64, buckets: usize) {
        let (shift, mask) = shape(bucket_width_ns, buckets);
        if (shift, mask) == (self.shift, self.mask) {
            return;
        }
        let start_ns = self.cur_bucket << self.shift;
        self.shift = shift;
        self.mask = mask;
        self.cur_bucket = start_ns >> shift;
        let ring = std::mem::replace(&mut self.ring, (0..=mask).map(|_| Vec::new()).collect());
        self.ring_len = 0;
        let run = std::mem::take(&mut self.run);
        let late = std::mem::take(&mut self.late).into_iter().map(|Reverse(r)| r);
        for r in run.into_iter().chain(late).chain(ring.into_iter().flatten()) {
            self.file(r);
        }
        self.pull_due_overflow(|q, r| q.late.push(Reverse(r)));
    }

    /// Queue `item` under `key`.
    pub fn push(&mut self, key: EventKey, item: T) {
        self.len += 1;
        let slot = if self.free == NO_SLOT {
            assert!(self.slab.len() < NO_SLOT as usize, "over 2^32 queued events");
            self.slab.push(Slot::Full(item));
            self.slab.len() as u32 - 1
        } else {
            let slot = self.free;
            match std::mem::replace(&mut self.slab[slot as usize], Slot::Full(item)) {
                Slot::Free(next) => self.free = next,
                Slot::Full(_) => unreachable!("free list points at a queued item"),
            }
            slot
        };
        let tier = self.file(Ref { at: key.at, src: key.src, seq: key.seq, slot });
        *tier += 1;
    }

    /// File `r` into the late heap, the ring or the overflow by its
    /// bucket; returns the push counter of the tier it went to.
    fn file(&mut self, r: Ref) -> &mut u64 {
        let bucket = r.at >> self.shift;
        if bucket <= self.cur_bucket {
            self.late.push(Reverse(r));
            &mut self.stats.pushes_current
        } else if bucket - self.cur_bucket <= self.mask + 1 {
            self.ring[(bucket & self.mask) as usize].push(r);
            self.ring_len += 1;
            &mut self.stats.pushes_ring
        } else {
            self.overflow.push(Reverse(r));
            &mut self.stats.pushes_overflow
        }
    }

    /// Move every overflow ref due by the current bucket into `sink`.
    fn pull_due_overflow(&mut self, mut sink: impl FnMut(&mut Self, Ref)) {
        while let Some(Reverse(head)) = self.overflow.peek() {
            if head.at >> self.shift > self.cur_bucket {
                break;
            }
            let Reverse(r) = self.overflow.pop().expect("peeked");
            sink(self, r);
        }
    }

    /// The next ref, and whether it is the late heap's head (else the
    /// run's tail).
    fn head(&mut self) -> Option<(Ref, bool)> {
        self.advance();
        match (self.run.last(), self.late.peek()) {
            (Some(&r), Some(&Reverse(l))) => Some(if l < r { (l, true) } else { (r, false) }),
            (Some(&r), None) => Some((r, false)),
            (None, Some(&Reverse(l))) => Some((l, true)),
            (None, None) => None,
        }
    }

    /// The smallest key queued, if any. `&mut` because peeking may advance
    /// the calendar to the next non-empty bucket.
    pub fn peek(&mut self) -> Option<EventKey> {
        self.head().map(|(r, _)| r.key())
    }

    /// Remove and return the smallest-keyed item.
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        let (r, late) = self.head()?;
        if late {
            self.late.pop();
        } else {
            self.run.pop();
        }
        self.len -= 1;
        match std::mem::replace(&mut self.slab[r.slot as usize], Slot::Free(self.free)) {
            Slot::Full(item) => {
                self.free = r.slot;
                Some((r.key(), item))
            }
            Slot::Free(_) => unreachable!("a queued ref owns its slot"),
        }
    }

    /// Ensure the run and late heap hold the globally smallest keys: step
    /// (or jump) the calendar forward until one is non-empty, taking each
    /// ring bucket plus the overflow refs due by it as one sorted run.
    fn advance(&mut self) {
        while self.run.is_empty() && self.late.is_empty() && !self.is_empty() {
            if self.late.capacity() > RETAIN_REFS {
                self.late = BinaryHeap::new();
            }
            if self.ring_len == 0 {
                // Nothing in the ring: jump straight to the overflow's
                // first bucket instead of stepping through empty ones.
                let Reverse(head) = self.overflow.peek().expect("queued refs outside the ring");
                self.cur_bucket = head.at >> self.shift;
            } else {
                self.cur_bucket += 1;
            }
            // The drained run's buffer becomes the slot's next bucket.
            let slot = &mut self.ring[(self.cur_bucket & self.mask) as usize];
            std::mem::swap(&mut self.run, slot);
            if slot.capacity() > RETAIN_REFS {
                *slot = Vec::new();
            }
            self.ring_len -= self.run.len();
            self.pull_due_overflow(|q, r| q.run.push(r));
            self.run.sort_unstable_by(|a, b| b.cmp(a));
            self.stats.run_max = self.stats.run_max.max(self.run.len() as u64);
        }
    }

    /// Ref capacity held by the ring, run and heaps (test-only: the bound
    /// [`RETAIN_REFS`] keeps).
    #[cfg(test)]
    fn retained_refs(&self) -> usize {
        self.ring.iter().map(Vec::capacity).sum::<usize>()
            + self.run.capacity()
            + self.late.capacity()
            + self.overflow.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(at: u64, src: u32, seq: u64) -> EventKey {
        EventKey { at, src, seq }
    }

    #[test]
    fn pops_in_key_order_across_buckets_and_overflow() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new(64, 8);
        // Same time, different src/seq; near future; far future (overflow).
        let keys = [
            key(10, 2, 0),
            key(10, 0, 5),
            key(10, 2, 1),
            key(500, 1, 0),
            key(65, 3, 0),
            key(1_000_000, 1, 1),
            key(999_999, 9, 9),
            key(0, 0, 0),
        ];
        for (i, k) in keys.iter().enumerate() {
            q.push(*k, i as u64);
        }
        let mut sorted = keys.to_vec();
        sorted.sort();
        let mut popped = Vec::new();
        while let Some((k, _)) = q.pop() {
            popped.push(k);
        }
        assert_eq!(popped, sorted);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_matches_reference_heap() {
        // Deterministic pseudo-random workload compared against a plain
        // BinaryHeap reference, including pushes into the current bucket
        // (zero-delay), the ring, and the overflow.
        let mut q: CalendarQueue<u64> = CalendarQueue::new(128, 16);
        let mut reference: BinaryHeap<Reverse<EventKey>> = BinaryHeap::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut lcg = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 11
        };
        let mut now = 0u64;
        let mut seq = 0u64;
        for round in 0..5000u64 {
            let r = lcg();
            if r % 3 != 0 || reference.is_empty() {
                // Push: mostly near future, sometimes far future, always
                // at or after `now` (time never runs backwards).
                let delta = match r % 7 {
                    0 => 0,
                    1..=4 => r % 900,
                    5 => r % 20_000,
                    _ => 100_000 + r % 1_000_000,
                };
                let k = key(now + delta, (r % 5) as u32, seq);
                seq += 1;
                q.push(k, round);
                reference.push(Reverse(k));
            } else {
                let got = q.pop().map(|(k, _)| k);
                let want = reference.pop().map(|Reverse(k)| k);
                assert_eq!(got, want, "divergence at round {round}");
                if let Some(k) = got {
                    now = k.at;
                }
            }
            assert_eq!(q.len(), reference.len());
        }
        while let Some(Reverse(want)) = reference.pop() {
            assert_eq!(q.pop().map(|(k, _)| k), Some(want));
        }
        assert_eq!(q.pop().map(|(k, _)| k), None);
    }

    #[test]
    fn overflow_jump_then_ring_reuse() {
        // Only far-future items: the calendar must jump straight to the
        // overflow's first bucket instead of stepping the ring through
        // millions of empty buckets — and after the jump, new pushes must
        // still resolve ring slots relative to the new current bucket.
        let mut q: CalendarQueue<&str> = CalendarQueue::new(64, 8);
        q.push(key(1 << 50, 1, 0), "far-b");
        q.push(key(1 << 40, 1, 1), "far-a");
        assert_eq!(q.pop(), Some((key(1 << 40, 1, 1), "far-a")));
        // The queue now sits at bucket (1<<40)>>shift; a near-future push
        // relative to that time must land in the ring, not the overflow,
        // and pop before the remaining far item.
        q.push(key((1 << 40) + 100, 2, 0), "near");
        assert_eq!(q.pop(), Some((key((1 << 40) + 100, 2, 0), "near")));
        assert_eq!(q.pop(), Some((key(1 << 50, 1, 0), "far-b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ring_horizon_boundary_is_inclusive() {
        // With width 64 and 4 buckets, an item exactly `buckets` ahead is
        // the last one the ring accepts; one bucket further overflows.
        // Both must pop in key order regardless of which store they hit —
        // this pins the `<=` in the horizon check, where an off-by-one
        // would misfile the boundary bucket and (with a slot collision)
        // drain it a full ring revolution early.
        let mut q: CalendarQueue<u32> = CalendarQueue::new(64, 4);
        q.push(key(64 * 4 + 1, 0, 0), 1); // last ring bucket
        q.push(key(64 * 5 + 1, 0, 1), 2); // first overflow bucket
        q.push(key(1, 0, 2), 0);
        assert_eq!(q.pop(), Some((key(1, 0, 2), 0)));
        assert_eq!(q.pop(), Some((key(64 * 4 + 1, 0, 0), 1)));
        assert_eq!(q.pop(), Some((key(64 * 5 + 1, 0, 1), 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn same_slot_different_revolutions_stay_separated() {
        // Buckets `cur+1` and `cur+1+len` map to the same ring slot on
        // consecutive revolutions. The second lives in the overflow until
        // the first revolution passes; popping must never surface it a
        // revolution early.
        let mut q: CalendarQueue<&str> = CalendarQueue::new(64, 4);
        q.push(key(64 + 1, 0, 0), "rev0");
        q.push(key(64 * 5 + 1, 0, 1), "rev1");
        assert_eq!(q.pop(), Some((key(64 + 1, 0, 0), "rev0")));
        assert_eq!(q.pop(), Some((key(64 * 5 + 1, 0, 1), "rev1")));
        assert!(q.is_empty());
    }

    #[test]
    fn zero_delay_push_into_the_current_bucket_keeps_order() {
        // A node handling an event at `t` may schedule another event at
        // the same `t` (zero-delay self-send). That push targets a bucket
        // the calendar has already advanced into; it must land in the
        // current heap and pop in (src, seq) order with its peers.
        let mut q: CalendarQueue<u32> = CalendarQueue::new(64, 4);
        q.push(key(1000, 5, 0), 0);
        q.push(key(1000, 7, 0), 1);
        assert_eq!(q.pop(), Some((key(1000, 5, 0), 0)));
        // "Now" is 1000; a same-time push from a lower source stream must
        // still pop before the queued higher-stream event.
        q.push(key(1000, 6, 0), 2);
        assert_eq!(q.pop(), Some((key(1000, 6, 0), 2)));
        assert_eq!(q.pop(), Some((key(1000, 7, 0), 1)));
        assert!(q.is_empty());
    }

    #[test]
    fn equal_time_ties_drain_by_source_then_sequence() {
        // Many events due at the same instant, pushed in descending key
        // order, spread so the tie group crosses the ring→current-heap
        // transfer: pop order must be exactly (src, seq) — the canonical
        // order the sharded engine's determinism proof leans on.
        let mut q: CalendarQueue<usize> = CalendarQueue::new(64, 8);
        let mut keys = Vec::new();
        for src in (0..6u32).rev() {
            for seq in (0..3u64).rev() {
                keys.push(key(128, src, seq));
            }
        }
        for (i, k) in keys.iter().enumerate() {
            q.push(*k, i);
        }
        let mut want = keys.clone();
        want.sort();
        let mut got = Vec::new();
        while let Some((k, _)) = q.pop() {
            got.push(k);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn peek_agrees_with_pop() {
        let mut q: CalendarQueue<&str> = CalendarQueue::new(1, 4);
        q.push(key(1 << 40, 0, 0), "far");
        q.push(key(3, 0, 1), "near");
        assert_eq!(q.peek(), Some(key(3, 0, 1)));
        assert_eq!(q.pop(), Some((key(3, 0, 1), "near")));
        assert_eq!(q.peek(), Some(key(1 << 40, 0, 0)));
        assert_eq!(q.pop(), Some((key(1 << 40, 0, 0), "far")));
        assert_eq!(q.peek(), None);
    }

    /// Drive `q` and a reference heap through the same deterministic
    /// interleaving of pushes (current bucket, ring and overflow) and
    /// pops, calling `between(q, round)` before every step, and assert
    /// identical pop order throughout and on the final drain.
    fn against_reference(
        q: &mut CalendarQueue<u64>,
        rounds: u64,
        mut between: impl FnMut(&mut CalendarQueue<u64>, u64),
    ) -> u64 {
        let mut reference: BinaryHeap<Reverse<EventKey>> = BinaryHeap::new();
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut now = 0u64;
        let mut seq = 0u64;
        for round in 0..rounds {
            between(q, round);
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = state >> 11;
            if !r.is_multiple_of(3) || reference.is_empty() {
                let delta = match r % 9 {
                    0 => 0,
                    1 => r % 300,
                    2..=4 => 200 + r % 1_000,
                    5 => r % 20_000,
                    6 => r % 3_000_000,
                    7 => 0, // a same-instant tie group
                    _ => 100_000 + r % (1 << 24),
                };
                let k = key(now + delta, (r % 7) as u32, seq);
                seq += 1;
                q.push(k, seq);
                reference.push(Reverse(k));
            } else {
                let got = q.pop().map(|(k, _)| k);
                let want = reference.pop().map(|Reverse(k)| k);
                assert_eq!(got, want, "divergence at round {round}");
                now = got.expect("reference non-empty").at;
            }
            assert_eq!(q.len(), reference.len());
        }
        while let Some(Reverse(want)) = reference.pop() {
            assert_eq!(q.peek(), Some(want));
            assert_eq!(q.pop().map(|(k, _)| k), Some(want));
        }
        assert_eq!(q.pop().map(|(k, _)| k), None);
        seq
    }

    #[test]
    fn ref_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Ref>(), 24);
    }

    #[test]
    fn interleaved_push_pop_matches_reference_heap_at_every_geometry() {
        // Width 1: every distinct time is its own bucket; 2^20: nearly
        // everything shares the current bucket. One bucket: the ring is
        // a single slot and most pushes overflow.
        for width in [1, 256, 4096, 1 << 20] {
            for buckets in [1, 4096] {
                let mut q = CalendarQueue::new(width, buckets);
                let pushes = against_reference(&mut q, 20_000, |_, _| {});
                assert_eq!(q.geometry(), (width, buckets));
                let st = q.stats();
                assert_eq!(st.pushes_current + st.pushes_ring + st.pushes_overflow, pushes);
            }
        }
    }

    #[test]
    fn refiling_mid_stream_preserves_pop_order() {
        // Switch geometry every 997 steps, cycling through narrower,
        // wider and same-width/different-ring shapes, with the run, the
        // late heap, the ring and the overflow all populated.
        let shapes = [(256, 8192), (1 << 20, 1), (1, 4096), (4096, 512), (64, 16), (4096, 8192)];
        let mut q = CalendarQueue::new(4096, 512);
        let mut next = 0;
        against_reference(&mut q, 30_000, |q, round| {
            if round % 997 == 500 {
                let (w, b) = shapes[next % shapes.len()];
                next += 1;
                let before = q.stats();
                q.set_geometry(w, b);
                assert_eq!(q.geometry(), (w, b));
                assert_eq!(q.stats(), before, "re-filing is not pushing");
            }
        });
        assert!(next > 20);
    }

    #[test]
    fn unchanged_geometry_refile_is_a_no_op() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new(256, 8192);
        q.push(key(100, 0, 0), 0);
        q.push(key(10_000, 0, 1), 1);
        q.push(key(1 << 30, 0, 2), 2);
        let ring = q.ring.as_ptr();
        q.set_geometry(256, 8192);
        q.set_geometry(200, 5000); // rounds up to the same shape
        assert_eq!(q.ring.as_ptr(), ring, "the ring was rebuilt");
        assert_eq!(q.ring_len, 1);
        assert_eq!(q.late.len(), 1);
        assert_eq!(q.overflow.len(), 1);
    }

    #[test]
    fn same_instant_burst_leaves_bounded_capacity() {
        // 100 k refs land in the current bucket after its sort (the late
        // heap) and 100 k in one future bucket (one ring slot, then one
        // sorted run). Once drained and the calendar has moved on, no
        // buffer keeps more than RETAIN_REFS of dead capacity, and the
        // slab is no longer than the most items ever queued at once.
        const BURST: u64 = 100_000;
        let mut q: CalendarQueue<u64> = CalendarQueue::new(256, 8192);
        q.push(key(1_000, 0, 0), 0);
        assert_eq!(q.pop().map(|(k, _)| k.at), Some(1_000));
        for i in 0..BURST {
            q.push(key(1_000, 1 + (i % 64) as u32, i), i);
            q.push(key(5_000, 1 + (i % 64) as u32, i), i);
        }
        let st = q.stats();
        assert_eq!((st.pushes_current, st.pushes_ring, st.pushes_overflow), (BURST, BURST + 1, 0));
        let mut last = key(0, 0, 0);
        let mut popped = 0;
        while let Some((k, _)) = q.pop() {
            assert!(k > last, "pop order");
            last = k;
            popped += 1;
        }
        assert_eq!(popped, 2 * BURST);
        assert_eq!(q.stats().run_max, BURST);
        assert_eq!(q.slab.len() as u64, 2 * BURST, "slab grew past its high-water mark");
        // Move on: one more bucket comes up and cycles the drained buffers.
        q.push(key(9_000, 0, 1), 7);
        assert_eq!(q.pop(), Some((key(9_000, 0, 1), 7)));
        assert!(q.retained_refs() <= RETAIN_REFS, "retained {} refs", q.retained_refs());
        assert_eq!(q.slab.len() as u64, 2 * BURST);
    }
}

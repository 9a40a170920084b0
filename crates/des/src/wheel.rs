//! A keyed timer queue: a lazy-deletion binary heap.
//!
//! A sharded process multiplexes thousands of consensus groups and arms,
//! re-arms and cancels their timers at a rate proportional to traffic.
//! Each timer is named by an opaque key, and scheduling a key again
//! *replaces* its previous deadline, matching the [`crate::TimerKind`]-
//! replacement contract of the sans-IO stack. [`TimerQueue`] gives:
//!
//! - O(log n) [`TimerQueue::schedule`] and per-timer firing;
//! - O(1) [`TimerQueue::cancel`] and [`TimerQueue::deadline_of`];
//! - deterministic expiry order: timers fire sorted by `(deadline,
//!   schedule sequence)`, so two runs with the same inputs produce
//!   identical schedules. A rescheduled key takes a fresh sequence
//!   number, so it fires after keys armed earlier for the same instant.
//!
//! Internally the heap holds `(deadline, seq, key)` entries next to a map
//! from each live key to its current `(seq, deadline)`. Cancelling or
//! rescheduling only updates the map; the superseded heap entry becomes a
//! tombstone that [`TimerQueue::next_deadline`] and
//! [`TimerQueue::advance`] discard when it reaches the top. Once stored
//! entries exceed `2 × live + 64`, `schedule` rebuilds the heap from the
//! live entries, so tombstones cost amortized O(1) each and memory stays
//! proportional to the live timers.
//!
//! The embedding arms **one** simulator event at
//! [`TimerQueue::next_deadline`] and calls [`TimerQueue::advance`] when it
//! fires, instead of one simulator event per timer.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;

use crate::SimTime;

/// A heap entry: `Reverse((deadline, seq, key))`, earliest first. `seq`
/// is unique, so the key never decides the order.
type Entry<K> = Reverse<(SimTime, u64, K)>;

/// A keyed timer queue.
///
/// Scheduling the same key again *replaces* the earlier deadline;
/// [`TimerQueue::cancel`] disarms a key. See the module docs for the full
/// contract and costs.
///
/// # Examples
///
/// ```
/// use des::{SimTime, TimerQueue};
///
/// let mut timers: TimerQueue<&'static str> = TimerQueue::new();
/// timers.schedule("election", SimTime::from_millis(150));
/// timers.schedule("heartbeat", SimTime::from_millis(100));
/// timers.cancel(&"election");
/// assert_eq!(timers.next_deadline(), Some(SimTime::from_millis(100)));
///
/// let mut fired = Vec::new();
/// timers.advance(SimTime::from_millis(200), &mut fired);
/// assert_eq!(fired, vec![(SimTime::from_millis(100), "heartbeat")]);
/// assert!(timers.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct TimerQueue<K> {
    /// Live entries plus tombstones (entries whose `seq` no longer
    /// matches `keys`).
    heap: BinaryHeap<Entry<K>>,
    /// Live keys: schedule sequence + exact deadline.
    keys: HashMap<K, (u64, SimTime)>,
    next_seq: u64,
}

impl<K: Ord + Hash + Copy> Default for TimerQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Hash + Copy> TimerQueue<K> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        TimerQueue {
            heap: BinaryHeap::new(),
            keys: HashMap::new(),
            next_seq: 0,
        }
    }

    /// Number of armed (live) timers.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Arms (or re-arms) `key` to expire at `deadline`. A deadline at or
    /// before the last [`TimerQueue::advance`] target fires on the next
    /// call (callers advance monotonically).
    pub fn schedule(&mut self, key: K, deadline: SimTime) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.keys.insert(key, (seq, deadline));
        self.heap.push(Reverse((deadline, seq, key)));
        if self.heap.len() > 2 * self.keys.len() + 64 {
            self.heap.retain(|e| is_live(&self.keys, e));
        }
    }

    /// Disarms `key`. Returns `true` if it was armed.
    pub fn cancel(&mut self, key: &K) -> bool {
        self.keys.remove(key).is_some()
    }

    /// The deadline `key` is armed for, if any.
    pub fn deadline_of(&self, key: &K) -> Option<SimTime> {
        self.keys.get(key).map(|&(_, d)| d)
    }

    /// The earliest armed deadline, discarding tombstones on top.
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        while let Some(top) = self.heap.peek() {
            if is_live(&self.keys, top) {
                let &Reverse((deadline, _, _)) = top;
                return Some(deadline);
            }
            self.heap.pop();
        }
        None
    }

    /// Fires every timer with a deadline at or before `to`, appending each
    /// to `out` as `(deadline, key)` in `(deadline, schedule-seq)` order.
    pub fn advance(&mut self, to: SimTime, out: &mut Vec<(SimTime, K)>) {
        while let Some(top) = self.heap.peek() {
            let &Reverse((deadline, _, key)) = top;
            let live = is_live(&self.keys, top);
            if live && deadline > to {
                break;
            }
            self.heap.pop();
            if live {
                self.keys.remove(&key);
                out.push((deadline, key));
            }
        }
    }
}

/// `true` unless `e` was superseded by a reschedule or cancel.
fn is_live<K: Eq + Hash>(keys: &HashMap<K, (u64, SimTime)>, e: &Entry<K>) -> bool {
    let Reverse((_, seq, key)) = e;
    keys.get(key).is_some_and(|&(live, _)| live == *seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn fires_in_deadline_order() {
        let mut w = TimerQueue::new();
        w.schedule("b", t(2_000));
        w.schedule("a", t(1_000));
        w.schedule("c", t(90_000_000));
        let mut out = Vec::new();
        w.advance(t(100_000_000), &mut out);
        assert_eq!(
            out,
            vec![(t(1_000), "a"), (t(2_000), "b"), (t(90_000_000), "c")]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn reschedule_replaces_deadline() {
        let mut w = TimerQueue::new();
        w.schedule(1u32, t(500));
        w.schedule(1u32, t(5_000));
        assert_eq!(w.len(), 1);
        let mut out = Vec::new();
        w.advance(t(1_000), &mut out);
        assert!(out.is_empty(), "old deadline must not fire: {out:?}");
        w.advance(t(10_000), &mut out);
        assert_eq!(out, vec![(t(5_000), 1u32)]);
    }

    #[test]
    fn cancel_disarms() {
        let mut w = TimerQueue::new();
        w.schedule(7u64, t(100));
        assert!(w.cancel(&7));
        assert!(!w.cancel(&7));
        let mut out = Vec::new();
        w.advance(t(1_000), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn next_deadline_is_exact_across_levels() {
        let mut w = TimerQueue::new();
        w.schedule("far", t(3_600_000_000)); // 1 h
        w.schedule("near", t(123_456));
        assert_eq!(w.next_deadline(), Some(t(123_456)));
        w.cancel(&"near");
        assert_eq!(w.next_deadline(), Some(t(3_600_000_000)));
    }

    #[test]
    fn due_now_fires_on_next_advance() {
        let mut w = TimerQueue::new();
        let mut out = Vec::new();
        w.advance(t(1_000), &mut out);
        w.schedule("late", t(500)); // already past
        assert_eq!(w.next_deadline(), Some(t(500)));
        w.advance(t(1_000), &mut out);
        assert_eq!(out, vec![(t(500), "late")]);
    }

    #[test]
    fn partial_advance_holds_future_entries() {
        let mut w = TimerQueue::new();
        w.schedule(1u8, t(10));
        w.schedule(2u8, t(20));
        let mut out = Vec::new();
        w.advance(t(15), &mut out);
        assert_eq!(out, vec![(t(10), 1u8)]);
        w.advance(t(25), &mut out);
        assert_eq!(out, vec![(t(10), 1u8), (t(20), 2u8)]);
    }

    #[test]
    fn far_future_beyond_span_is_clamped_not_lost() {
        let mut w = TimerQueue::new();
        // ~139 years in µs — beyond the 7-level span.
        let far = t(1u64 << 52);
        w.schedule("eon", far);
        let mut out = Vec::new();
        w.advance(t(1u64 << 40), &mut out);
        assert!(out.is_empty());
        w.advance(far, &mut out);
        assert_eq!(out, vec![(far, "eon")]);
    }

    #[test]
    fn equal_deadlines_fire_in_schedule_order() {
        let mut w = TimerQueue::new();
        for k in 0..10u32 {
            w.schedule(k, t(777));
        }
        let mut out = Vec::new();
        w.advance(t(1_000), &mut out);
        let keys: Vec<u32> = out.into_iter().map(|(_, k)| k).collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
    }

    /// Randomized model check against a sorted-vec reference: schedules,
    /// reschedules, cancels, and partial advances all agree.
    #[test]
    fn model_check_against_reference() {
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5);
            let mut wheel: TimerQueue<u64> = TimerQueue::new();
            // Reference: key -> (deadline, seq of last schedule).
            let mut model: HashMap<u64, (u64, u64)> = HashMap::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            for _ in 0..2_000 {
                match rng.gen_range(0..10u32) {
                    0..=4 => {
                        let key = rng.gen_range(0..64u64);
                        let delta = match rng.gen_range(0..5u32) {
                            0 => rng.gen_range(0..100u64),
                            1 => rng.gen_range(0..10_000u64),
                            2 => rng.gen_range(0..5_000_000u64),
                            3 => rng.gen_range(0..2_000_000_000u64),
                            // Straddle the top-level window span (2^42 µs):
                            // the next-top-window placement cases.
                            _ => rng.gen_range(0..(1u64 << 43)),
                        };
                        wheel.schedule(key, t(now + delta));
                        model.insert(key, (now + delta, seq));
                        seq += 1;
                    }
                    5 => {
                        let key = rng.gen_range(0..64u64);
                        assert_eq!(wheel.cancel(&key), model.remove(&key).is_some());
                    }
                    6..=8 => {
                        // Mostly small steps; occasionally leap across
                        // top-level windows so far-parked entries drain.
                        let step = if rng.gen_range(0..10u32) == 0 {
                            rng.gen_range(0..(1u64 << 42))
                        } else {
                            rng.gen_range(0..3_000_000u64)
                        };
                        now += step;
                        let mut fired = Vec::new();
                        wheel.advance(t(now), &mut fired);
                        let mut expect: Vec<(u64, u64, u64)> = model
                            .iter()
                            .filter(|(_, &(d, _))| d <= now)
                            .map(|(&k, &(d, s))| (d, s, k))
                            .collect();
                        expect.sort_unstable();
                        for (_, _, k) in &expect {
                            model.remove(k);
                        }
                        let got: Vec<(u64, u64)> =
                            fired.into_iter().map(|(d, k)| (d.as_micros(), k)).collect();
                        let want: Vec<(u64, u64)> =
                            expect.into_iter().map(|(d, _, k)| (d, k)).collect();
                        assert_eq!(got, want, "seed {seed} at now={now}");
                    }
                    _ => {
                        // next_deadline must equal the model's minimum.
                        let want = model.values().map(|&(d, _)| d).min();
                        assert_eq!(
                            wheel.next_deadline().map(|d| d.as_micros()),
                            want,
                            "seed {seed} at now={now}"
                        );
                    }
                }
                assert_eq!(wheel.len(), model.len());
            }
        }
    }

    /// Rescheduling one key far ahead over and over leaves one tombstone
    /// per call; the rebuild keeps the heap within `2 × live + 64`.
    #[test]
    fn reschedule_storm_keeps_tombstones_bounded() {
        let mut w = TimerQueue::new();
        w.schedule(u64::MAX, t(1_000));
        for i in 0..100_000u64 {
            w.schedule(0u64, t(1_000_000_000 + i));
            assert!(w.heap.len() <= 2 * w.len() + 64, "{} stored", w.heap.len());
        }
        assert_eq!(w.len(), 2);
        let mut out = Vec::new();
        w.advance(t(2_000_000_000), &mut out);
        assert_eq!(out, vec![(t(1_000), u64::MAX), (t(1_000_099_999), 0)]);
        assert!(w.heap.is_empty());
    }

    /// A reschedule takes a fresh sequence number: the moved key fires
    /// after a key first armed for the same deadline.
    #[test]
    fn rescheduled_key_fires_after_earlier_armed_peer() {
        let mut w = TimerQueue::new();
        w.schedule("moved", t(50));
        w.schedule("first", t(100));
        w.schedule("moved", t(100));
        let mut out = Vec::new();
        w.advance(t(100), &mut out);
        assert_eq!(out, vec![(t(100), "first"), (t(100), "moved")]);
    }
}

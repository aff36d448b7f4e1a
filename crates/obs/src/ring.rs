//! The one bounded ring under [`crate::TraceRing`] and
//! [`crate::EventRing`].
//!
//! Writers claim a slot with one relaxed ticket `fetch_add` and publish
//! under a per-slot lock they only `try_lock` — the hot path never blocks.
//! A writer that loses the (rare) race for a slot drops its own record; one
//! that finds the slot occupied displaces the resident, which is the oldest
//! record the ring holds. Either way the dropped counter advances exactly
//! once per lost record, so a gap is always explained by a visible number.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::Counter;

pub(crate) struct Ring<T> {
    slots: Vec<Mutex<Option<T>>>,
    head: AtomicU64,
    dropped: Counter,
}

impl<T> Ring<T> {
    /// A ring of `capacity` slots counting its losses in `dropped`.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize, dropped: Counter) -> Ring<T> {
        assert!(capacity > 0, "a ring needs at least one slot");
        Ring {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
            dropped,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records lost so far (overwrites + contended writes).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Store the record `make` builds from its ticket — the ring's own
    /// sequence number, strictly increasing across writers — and return
    /// that ticket. The record is built before the slot is touched, so no
    /// caller code runs under a slot lock.
    pub(crate) fn push(&self, make: impl FnOnce(u64) -> T) -> u64 {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let rec = make(ticket);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        match slot.try_lock() {
            Ok(mut g) => {
                if g.replace(rec).is_some() {
                    self.dropped.inc();
                }
            }
            Err(_) => self.dropped.inc(),
        }
        ticket
    }

    /// Visit every resident record, in slot order. A reader waits for a
    /// slot's writer rather than miss its record, and the wait is bounded:
    /// a writer holds a slot for one `Option::replace` and the drop of the
    /// record it displaced — no allocation, no I/O, no caller code (`make`
    /// has returned before the lock is tried, so a writer stalled in it
    /// holds no slot), and writers only `try_lock`, so nothing queues behind
    /// a reader either.
    pub(crate) fn for_each(&self, mut visit: impl FnMut(&T)) {
        for slot in &self.slots {
            if let Ok(g) = slot.lock() {
                if let Some(rec) = g.as_ref() {
                    visit(rec);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Resident records, by ticket.
    fn resident<T: Clone>(ring: &Ring<T>, ticket_of: impl Fn(&T) -> u64) -> Vec<T> {
        let mut out = Vec::new();
        ring.for_each(|r| out.push(r.clone()));
        out.sort_by_key(|r| ticket_of(r));
        out
    }

    #[test]
    fn overflow_drops_oldest_first_and_counts_each_loss_once() {
        let ring: Ring<u64> = Ring::new(4, Counter::default());
        for _ in 0..10 {
            ring.push(|ticket| ticket);
        }
        assert_eq!(
            resident(&ring, |t| *t),
            vec![6, 7, 8, 9],
            "only the newest capacity records survive"
        );
        assert_eq!(ring.dropped(), 6, "one drop per displaced record, exactly");
    }

    /// The bound on a reader's wait: a writer stalled while building its
    /// record (the only caller code in `push`) has claimed a ticket but holds
    /// no slot, so a full read of the ring completes while it is stalled.
    #[test]
    fn a_writer_stalled_building_its_record_does_not_block_a_reader() {
        use std::sync::mpsc::channel;
        let ring: Ring<u64> = Ring::new(2, Counter::default());
        ring.push(|ticket| ticket);
        let (stalled_tx, stalled_rx) = channel();
        let (resume_tx, resume_rx) = channel::<()>();
        std::thread::scope(|s| {
            let (writer_ring, reader_ring) = (&ring, &ring);
            let writer = s.spawn(move || {
                writer_ring.push(|ticket| {
                    stalled_tx.send(ticket).expect("reader is waiting");
                    resume_rx.recv().expect("reader resumes the writer");
                    ticket
                })
            });
            let ticket = stalled_rx.recv().expect("writer reached `make`");
            // The writer is inside `make` and stays there until resumed:
            // this read returns with everything published so far.
            assert_eq!(resident(reader_ring, |t| *t), vec![0]);
            resume_tx.send(()).expect("writer is stalled, not gone");
            assert_eq!(writer.join().expect("writer"), ticket);
        });
        assert_eq!(resident(&ring, |t| *t), vec![0, 1]);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn concurrent_writers_never_tear_a_record() {
        const WRITERS: u64 = 8;
        const PER: u64 = 200;
        let ring: Ring<[u64; 4]> = Ring::new(64, Counter::default());
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..PER {
                        // Derive every field from one value so a torn
                        // (partially-overwritten) record is detectable.
                        let v = w * PER + i;
                        ring.push(|ticket| [ticket, v, v * 2, !v]);
                    }
                });
            }
        });
        let held = resident(&ring, |r| r[0]);
        for [_, v, twice, not] in &held {
            assert_eq!((*twice, *not), (v * 2, !v), "fields consistent with each other");
        }
        assert!(held.windows(2).all(|w| w[0][0] < w[1][0]), "no ticket is resident twice");
        assert_eq!(
            held.len() as u64 + ring.dropped(),
            WRITERS * PER,
            "held + dropped accounts for every write"
        );
    }
}

//! The crate's one worker pool: indexed work claiming over scoped
//! threads, shared by the scenario battery ([`crate::ScenarioRunner`])
//! and the fleet ([`crate::run_fleet`]).
//!
//! Workers claim item indices in ascending order from one atomic counter
//! and run each claimed item inside [`catch_unwind`]; the merge puts
//! every outcome back at its index.  What a run returns therefore never
//! depends on the worker count or on which worker ran which item.
//!
//! One rule ends a run early, **fail-fast**, and it never interrupts an
//! item in flight: with a failure predicate, a failing item at index `f`
//! cancels every item above `f` ([`Outcome::Cancelled`]).  Indices are
//! claimed in order, so every item below `f` has already started when
//! `f` fails: the lowest failing index is the same at every worker count.
//! Outcomes above it that were already in flight are dropped in the
//! merge, whatever they are, so the merged result is the single-worker
//! result exactly.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What became of one item of a pool run.
pub(crate) enum Outcome<T> {
    /// The work returned this value.
    Done(T),
    /// The work panicked; the payload, rendered.
    Panicked(String),
    /// A lower-index item failed first (fail-fast runs only).
    Cancelled,
}

/// One item's outcome, with the worker that claimed it and the wall time
/// its work took.
pub(crate) struct Slot<T> {
    pub(crate) outcome: Outcome<T>,
    /// `None` exactly when the item was cancelled.
    pub(crate) worker: Option<usize>,
    /// Zero when the item was cancelled.
    pub(crate) wall: Duration,
}

/// Renders a caught panic payload (string payloads verbatim).
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `work(state, i)` for every `i < n` and returns the outcomes in
/// index order.  Each element of `states` is one worker's private state
/// (a simulation arena, or `()`); at most `n` workers run, and a single
/// worker runs inline on the calling thread.  A panicking item may leave
/// its worker's state half-updated and the worker's next item gets it as
/// is, so a state must be safe to reuse after a panic — the simulation
/// arenas are, because every run resets them first.
///
/// `fails` makes the run fail-fast: a value it rejects or a panic at
/// index `f` cancels every index above `f`.  Without it every item runs.
pub(crate) fn run<S, T>(
    states: &mut [S],
    n: usize,
    fails: Option<fn(&T) -> bool>,
    work: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<Slot<T>>
where
    S: Send,
    T: Send,
{
    // Both counters publish no data — outcomes reach the merge through
    // the thread joins — so `Relaxed` suffices.  A stale read of `stop`
    // only lets one more item run whose outcome the merge then drops.
    let next = AtomicUsize::new(0);
    let stop = AtomicUsize::new(n);
    let drain = |worker: usize, state: &mut S| {
        let mut shard = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n || i > stop.load(Ordering::Relaxed) {
                return shard;
            }
            let begin = Instant::now();
            let outcome = match catch_unwind(AssertUnwindSafe(|| work(state, i))) {
                Ok(value) => Outcome::Done(value),
                Err(payload) => Outcome::Panicked(panic_message(payload)),
            };
            let wall = begin.elapsed();
            let failed = fails.is_some_and(|fails| match &outcome {
                Outcome::Done(value) => fails(value),
                _ => true,
            });
            if failed {
                stop.fetch_min(i, Ordering::Relaxed);
            }
            shard.push((
                i,
                Slot {
                    outcome,
                    worker: Some(worker),
                    wall,
                },
            ));
        }
    };

    let count = states.len().min(n);
    let workers = &mut states[..count];
    let shards: Vec<Vec<(usize, Slot<T>)>> = match workers {
        [state] => vec![drain(0, state)],
        _ => std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .iter_mut()
                .enumerate()
                .map(|(worker, state)| {
                    let drain = &drain;
                    scope.spawn(move || drain(worker, state))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    // Every item runs inside catch_unwind, so a join
                    // failure means the panic machinery itself failed —
                    // not recoverable.
                    #[allow(clippy::expect_used)]
                    h.join().expect("pool worker died outside catch_unwind")
                })
                .collect()
        }),
    };

    let stop = stop.into_inner();
    let mut slots: Vec<Slot<T>> = (0..n)
        .map(|_| Slot {
            outcome: Outcome::Cancelled,
            worker: None,
            wall: Duration::ZERO,
        })
        .collect();
    for (i, slot) in shards.into_iter().flatten() {
        if i <= stop {
            slots[i] = slot;
        }
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(slots: &[Slot<u32>]) -> Vec<Option<u32>> {
        slots
            .iter()
            .map(|s| match s.outcome {
                Outcome::Done(v) => Some(v),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn outcomes_merge_by_index_at_every_worker_count() {
        for workers in [1usize, 2, 3, 8] {
            let mut states = vec![0u32; workers];
            let slots = run(&mut states, 10, None, |ran, i| {
                *ran += 1;
                i as u32 * 10
            });
            let expected: Vec<_> = (0..10).map(|i| Some(i * 10)).collect();
            assert_eq!(values(&slots), expected, "workers={workers}");
            assert!(slots.iter().all(|s| s.worker.is_some_and(|w| w < workers)));
            assert_eq!(states.iter().sum::<u32>(), 10, "each item ran once");
        }
    }

    #[test]
    fn panics_are_isolated_per_item() {
        let slots = run(&mut [(), ()], 4, None, |_, i| {
            assert!(i != 2, "item {i} refuses");
            i as u32
        });
        assert_eq!(values(&slots), [Some(0), Some(1), None, Some(3)]);
        match &slots[2].outcome {
            Outcome::Panicked(message) => assert_eq!(message, "item 2 refuses"),
            _ => panic!("item 2 must be reported as panicked"),
        }
        assert_eq!(panic_message(Box::new(7u8)), "non-string panic payload");
    }

    #[test]
    fn fail_fast_cancels_everything_above_the_lowest_failure() {
        // Items 3 and 5 fail.  Whatever ran in flight above 3 is dropped,
        // so the merge equals the sequential run at every worker count.
        let fails: fn(&u32) -> bool = |v| *v == 3 || *v == 5;
        for workers in [1usize, 2, 3, 8] {
            let slots = run(&mut vec![(); workers], 8, Some(fails), |_, i| i as u32);
            assert_eq!(
                values(&slots),
                [Some(0), Some(1), Some(2), Some(3), None, None, None, None],
                "workers={workers}"
            );
            assert!(slots[4..]
                .iter()
                .all(|s| matches!(s.outcome, Outcome::Cancelled) && s.worker.is_none()));
        }
        // Without the predicate, nothing is cancelled.
        let slots = run(&mut [()], 8, None, |_, i| i as u32);
        assert!(values(&slots).iter().all(Option::is_some));
    }

    #[test]
    fn fail_fast_cancels_above_a_panic_and_never_reports_a_panic_above_a_failure() {
        // Items 3 and 6 panic.  With no value failing, the panic at 3 is
        // the lowest failure: it is reported and cancels everything above
        // it, the panic at 6 included.  With item 1 failing by value, no
        // panic is reported at all.
        let work = |_: &mut (), i: usize| {
            assert!(i != 3 && i != 6, "item {i} panics");
            i as u32
        };
        let none_fail: fn(&u32) -> bool = |_| false;
        let one_fails: fn(&u32) -> bool = |v| *v == 1;
        let cancelled = |slots: &[Slot<u32>]| {
            slots
                .iter()
                .all(|s| matches!(s.outcome, Outcome::Cancelled) && s.worker.is_none())
        };
        for workers in [1usize, 2, 3, 8] {
            let slots = run(&mut vec![(); workers], 8, Some(none_fail), work);
            assert_eq!(values(&slots[..3]), [Some(0), Some(1), Some(2)]);
            match &slots[3].outcome {
                Outcome::Panicked(message) => assert_eq!(message, "item 3 panics"),
                _ => panic!("workers={workers}: item 3 must be reported as panicked"),
            }
            assert!(cancelled(&slots[4..]), "workers={workers}");

            let slots = run(&mut vec![(); workers], 8, Some(one_fails), work);
            assert_eq!(values(&slots[..2]), [Some(0), Some(1)]);
            assert!(cancelled(&slots[2..]), "workers={workers}");
        }
    }

    #[test]
    fn an_empty_run_returns_nothing() {
        assert!(run(&mut [()], 0, None, |_, i| i).is_empty());
    }
}

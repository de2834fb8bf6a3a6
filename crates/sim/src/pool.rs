//! One ordered worker pool: map items on OS threads, consume the results
//! in index order on the calling thread.
//!
//! The restart engine's rank fetch (fetch→decode→validate, driven by
//! `ManaConfig::restart_workers`) and the restore bench that measures it
//! share one shape: per-item work that is independent across items,
//! followed by a step that must see the items in ascending order ("the
//! lowest failing rank wins" error selection). [`ordered_par_map`] is
//! that shape, written once.

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};

/// Pool state shared by the workers and the consumer, under one lock.
struct State<T, R> {
    /// Unclaimed items, in index order.
    items: std::vec::IntoIter<T>,
    /// Index of the next unclaimed item.
    next: usize,
    /// Index the consumer is waiting for or consuming.
    cursor: usize,
    /// Finished results awaiting the consumer, item `i` in slot
    /// `i % window`.
    done: Vec<Option<R>>,
    /// Payload of the first panic raised by `f`.
    panic: Option<Box<dyn Any + Send>>,
    /// No further claims: the consumer is gone or `f` panicked.
    stop: bool,
}

struct Shared<T, R> {
    state: Mutex<State<T, R>>,
    changed: Condvar,
}

impl<T, R> Shared<T, R> {
    fn update(&self, change: impl FnOnce(&mut State<T, R>)) {
        change(&mut self.state.lock());
        self.changed.notify_all();
    }
}

/// Stops the workers when the consumer leaves the scope — by finishing,
/// breaking or unwinding — so the scope's join never waits on a worker
/// parked on the claim window.
struct StopOnDrop<'a, T, R>(&'a Shared<T, R>);

impl<T, R> Drop for StopOnDrop<'_, T, R> {
    fn drop(&mut self) {
        self.0.update(|st| st.stop = true);
    }
}

/// Run `f(idx, item)` for every item on up to `workers` scoped OS
/// threads, and hand each result to `consume(idx, result)` on the calling
/// thread strictly in ascending `idx` order.
///
/// Workers claim items by ascending index, and only while the index is
/// below `cursor + workers`, where `cursor` is the index `consume` is
/// waiting for or running on; so at most `workers` results (for the
/// restart fetch, decoded rank images) wait to be reordered.
///
/// Returns the first `Break` from `consume`; no item is claimed after it,
/// so `f` never runs for indices at or past `idx + workers`, and results
/// already in flight are dropped. Otherwise returns `Continue(())` once
/// every item was consumed. With `workers <= 1` or fewer than two items
/// everything runs inline on the calling thread: `f` then `consume`, item
/// by item. A panic in `f` stops new claims and is re-raised on the
/// calling thread with its original payload.
pub fn ordered_par_map<T, R, B>(
    workers: usize,
    items: impl IntoIterator<Item = T>,
    f: impl Fn(usize, T) -> R + Sync,
    mut consume: impl FnMut(usize, R) -> ControlFlow<B>,
) -> ControlFlow<B>
where
    T: Send,
    R: Send,
{
    let items: Vec<T> = items.into_iter().collect();
    let n = items.len();
    if workers <= 1 || n < 2 {
        for (idx, item) in items.into_iter().enumerate() {
            consume(idx, f(idx, item))?;
        }
        return ControlFlow::Continue(());
    }

    let window = workers.min(n);
    let shared = Shared {
        state: Mutex::new(State {
            items: items.into_iter(),
            next: 0,
            cursor: 0,
            done: (0..window).map(|_| None).collect(),
            panic: None,
            stop: false,
        }),
        changed: Condvar::new(),
    };
    let f = &f;
    let shared = &shared;
    std::thread::scope(|scope| {
        let _stop = StopOnDrop(shared);
        for _ in 0..window {
            scope.spawn(move || work(shared, window, f));
        }
        for idx in 0..n {
            let r = {
                let mut st = shared.state.lock();
                loop {
                    if let Some(payload) = st.panic.take() {
                        drop(st);
                        panic::resume_unwind(payload);
                    }
                    if let Some(r) = st.done[idx % window].take() {
                        break r;
                    }
                    shared.changed.wait(&mut st);
                }
            };
            consume(idx, r)?;
            shared.update(|st| st.cursor = idx + 1);
        }
        ControlFlow::Continue(())
    })
}

/// One worker: claim the next index inside the window, run `f` on it
/// outside the lock, publish the result; repeat until the items run out
/// or the pool stops.
fn work<T, R>(shared: &Shared<T, R>, window: usize, f: &(impl Fn(usize, T) -> R + Sync)) {
    loop {
        let (idx, item) = {
            let mut st = shared.state.lock();
            while !st.stop && st.next >= st.cursor + window {
                shared.changed.wait(&mut st);
            }
            if st.stop {
                return;
            }
            let Some(item) = st.items.next() else {
                return;
            };
            st.next += 1;
            (st.next - 1, item)
        };
        match panic::catch_unwind(AssertUnwindSafe(|| f(idx, item))) {
            Ok(r) => shared.update(|st| st.done[idx % window] = Some(r)),
            Err(payload) => shared.update(|st| {
                st.panic.get_or_insert(payload);
                st.stop = true;
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Run the pool and collect `(idx, result)` in the order `consume`
    /// saw them.
    fn collect(
        workers: usize,
        n: usize,
        f: impl Fn(usize, usize) -> usize + Sync,
    ) -> Vec<(usize, usize)> {
        let mut seen = Vec::new();
        let flow = ordered_par_map(workers, 0..n, f, |idx, r| {
            seen.push((idx, r));
            ControlFlow::<Infallible>::Continue(())
        });
        assert!(flow.is_continue());
        seen
    }

    #[test]
    fn results_arrive_in_index_order_when_later_items_finish_first() {
        // All items are in flight at once; a latch makes them finish in
        // reverse index order, so every result but the last arrives early.
        let n = 4;
        let turn = (Mutex::new(n - 1), Condvar::new());
        let finished = Mutex::new(Vec::new());
        let seen = collect(n, n, |idx, item| {
            let (next, cv) = &turn;
            let mut next = next.lock();
            while *next != idx {
                cv.wait(&mut next);
            }
            finished.lock().push(idx);
            *next = next.wrapping_sub(1);
            cv.notify_all();
            item * 10
        });
        assert_eq!(finished.into_inner(), vec![3, 2, 1, 0]);
        let want: Vec<_> = (0..n).map(|i| (i, i * 10)).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn break_returns_its_value_and_bounds_the_claims() {
        for workers in [1, 2, 3, 4] {
            for k in [0, 1, 5, 9] {
                let max_called = AtomicUsize::new(0);
                let mut consumed = Vec::new();
                let flow = ordered_par_map(
                    workers,
                    0..32usize,
                    |idx, item| {
                        assert_eq!(idx, item);
                        max_called.fetch_max(idx, Ordering::Relaxed);
                        idx
                    },
                    |idx, r| {
                        if idx == k {
                            return ControlFlow::Break(format!("stop at {r}"));
                        }
                        consumed.push(idx);
                        ControlFlow::Continue(())
                    },
                );
                assert_eq!(flow, ControlFlow::Break(format!("stop at {k}")));
                assert_eq!(consumed, (0..k).collect::<Vec<_>>());
                let max = max_called.load(Ordering::Relaxed);
                assert!(
                    max < k + workers,
                    "workers={workers} k={k}: f ran for index {max}"
                );
            }
        }
    }

    #[test]
    fn empty_single_and_oversized_pools() {
        assert!(collect(4, 0, |_, item| item).is_empty());
        assert_eq!(collect(4, 1, |_, item| item + 1), vec![(0, 1)]);
        assert_eq!(collect(64, 3, |_, item| item), vec![(0, 0), (1, 1), (2, 2)]);
        assert_eq!(collect(0, 3, |_, item| item), vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn items_are_moved_not_cloned() {
        let items: Vec<String> = (0..6).map(|i| format!("item{i}")).collect();
        let mut out = Vec::new();
        let flow = ordered_par_map(
            3,
            items,
            |_, s: String| s.len(),
            |_, len| {
                out.push(len);
                ControlFlow::<Infallible>::Continue(())
            },
        );
        assert!(flow.is_continue());
        assert_eq!(out, vec![5; 6]);
    }

    #[test]
    fn a_panic_in_f_reaches_the_caller() {
        for workers in [1, 2, 4] {
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let res = panic::catch_unwind(|| {
                    collect(workers, 16, |idx, item| {
                        if idx == 5 {
                            panic!("item 5 failed");
                        }
                        item
                    })
                });
                let _ = tx.send(res.map_err(|p| p.downcast_ref::<&str>().map(|s| s.to_string())));
            });
            let res = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("workers={workers}: pool deadlocked on a panic"));
            assert_eq!(
                res,
                Err(Some("item 5 failed".to_string())),
                "workers={workers}"
            );
        }
    }
}

//! Request coalescing (singleflight): identical in-flight computations
//! share one execution.
//!
//! When several clients ask for the same exploration concurrently, only
//! the first (the *leader*) computes; the rest (*joiners*) block on the
//! flight and receive a clone of the leader's result. The flight is
//! removed on completion, so coalescing only deduplicates *overlapping*
//! work — cross-request memoization is the [`SweepCache`]'s job, one
//! layer down.
//!
//! Panic safety: if the leader's closure panics, a drop guard marks the
//! flight abandoned and wakes the joiners, which then retry — the first
//! to arrive becomes the new leader. Joiners never inherit a poisoned
//! result or hang on a dead flight. A panic that poisons the table lock
//! itself is recovered (the lock is taken anyway) and counted in
//! [`Coalescer::poison_recoveries`], mirroring the cache's accounting,
//! instead of being swallowed silently.
//!
//! [`SweepCache`]: cred_explore::cache::SweepCache

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

enum FlightState<V> {
    /// The leader is still computing.
    Pending,
    /// The leader finished; every joiner takes a clone.
    Done(V),
    /// The leader panicked before finishing. Joiners retry.
    Abandoned,
}

struct Flight<V> {
    state: Mutex<FlightState<V>>,
    done: Condvar,
}

/// How [`Coalescer::run`] obtained its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// This call ran the computation.
    Led,
    /// This call joined another caller's in-flight computation.
    Joined,
}

/// A singleflight table: at most one in-flight computation per key.
pub struct Coalescer<K, V> {
    /// The keys currently being computed.
    flights: Mutex<HashMap<K, Arc<Flight<V>>>>,
    poison_recoveries: AtomicU64,
}

impl<K, V> Default for Coalescer<K, V> {
    fn default() -> Self {
        Coalescer {
            flights: Mutex::default(),
            poison_recoveries: AtomicU64::new(0),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Coalescer<K, V> {
    /// A fresh table with no flights.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lock `m`, recovering from poisoning. A panic under the flight-table
    /// lock (the map operations are tiny, but chaos plans and OOM aborts
    /// exist) must not brick every later request; the recovery is
    /// counted, never silent.
    fn lock<'a, T>(&self, m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
        m.lock().unwrap_or_else(|p| {
            m.clear_poison();
            self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
            p.into_inner()
        })
    }

    /// Compute-or-join: if no flight for `key` is pending, run `compute`
    /// as the leader and hand its value to every concurrent caller with
    /// the same key; otherwise block until the leader finishes and return
    /// a clone of its value.
    ///
    /// If a leader panics, its joiners retry (one becomes the new
    /// leader), and the panic propagates on the leader's own thread.
    pub fn run<F: FnOnce() -> V>(&self, key: K, compute: F) -> (V, Role) {
        let mut compute = Some(compute);
        loop {
            let flight = {
                let mut flights = self.lock(&self.flights);
                if let Some(existing) = flights.get(&key) {
                    Arc::clone(existing)
                } else {
                    let flight = Arc::new(Flight {
                        state: Mutex::new(FlightState::Pending),
                        done: Condvar::new(),
                    });
                    flights.insert(key.clone(), Arc::clone(&flight));
                    drop(flights);
                    // Leader path. The guard publishes Abandoned if
                    // `compute` unwinds, so joiners never hang.
                    let guard = AbandonGuard {
                        coalescer: self,
                        key: &key,
                        flight: &flight,
                        completed: false,
                    };
                    let value = (compute.take().expect("leader runs once"))();
                    guard.complete(value.clone());
                    return (value, Role::Led);
                }
            };
            // Joiner path: wait out the flight.
            let mut state = self.lock(&flight.state);
            loop {
                match &*state {
                    FlightState::Pending => {
                        state = flight.done.wait(state).unwrap_or_else(|p| p.into_inner());
                    }
                    FlightState::Done(v) => return (v.clone(), Role::Joined),
                    FlightState::Abandoned => break,
                }
            }
            // The leader died; loop around and race to become the new
            // leader (our `compute` is still unconsumed).
        }
    }

    /// Number of flights currently pending (test observability).
    pub fn in_flight(&self) -> usize {
        self.lock(&self.flights).len()
    }

    /// Times a poisoned table (or flight-state) lock was recovered.
    /// Surfaced as `coalesce_poison_recoveries` in the service metrics.
    pub fn poison_recoveries(&self) -> u64 {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Test hook: poison the flight-table lock by panicking a throwaway
    /// thread while it holds the lock. Not part of the stable API.
    #[doc(hidden)]
    pub fn poison_for_test(&self)
    where
        K: Send + Sync,
        V: Send + Sync,
    {
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let _guard = self.flights.lock().expect("not yet poisoned");
                panic!("deliberate poison");
            });
            assert!(handle.join().is_err(), "the poisoner must panic");
        });
    }
}

/// Marks the flight abandoned (and wakes joiners) unless the leader
/// completed it first. Runs on unwind, which is the whole point.
struct AbandonGuard<'a, K: Eq + Hash + Clone, V: Clone> {
    coalescer: &'a Coalescer<K, V>,
    key: &'a K,
    flight: &'a Arc<Flight<V>>,
    completed: bool,
}

impl<K: Eq + Hash + Clone, V: Clone> AbandonGuard<'_, K, V> {
    fn complete(mut self, value: V) {
        self.publish(FlightState::Done(value));
        self.completed = true;
    }

    fn publish(&self, state: FlightState<V>) {
        // Remove the flight first so late arrivals start fresh instead of
        // joining a finished (or dead) flight.
        let c = self.coalescer;
        c.lock(&c.flights).remove(self.key);
        *c.lock(&self.flight.state) = state;
        self.flight.done.notify_all();
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Drop for AbandonGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.completed {
            self.publish(FlightState::Abandoned);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn solo_caller_leads() {
        let c = Coalescer::new();
        let (v, role) = c.run(1, || 42);
        assert_eq!((v, role), (42, Role::Led));
        assert_eq!(c.in_flight(), 0, "flight removed on completion");
    }

    #[test]
    fn concurrent_identical_keys_compute_once() {
        let c = Arc::new(Coalescer::new());
        let computes = Arc::new(AtomicUsize::new(0));
        let start = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (c, computes, start) = (c.clone(), computes.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    c.run("k", move || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough for the other
                        // threads to join it.
                        std::thread::sleep(Duration::from_millis(100));
                        7
                    })
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.iter().all(|(v, _)| *v == 7));
        let leaders = results.iter().filter(|(_, r)| *r == Role::Led).count();
        assert_eq!(leaders, 1, "exactly one leader");
        assert_eq!(
            computes.load(Ordering::SeqCst),
            1,
            "one compute for 8 calls"
        );
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let c = Arc::new(Coalescer::new());
        let computes = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let (c, computes) = (c.clone(), computes.clone());
                std::thread::spawn(move || {
                    c.run(i, move || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        i * 10
                    })
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(computes.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn sequential_calls_recompute() {
        // Coalescing is for overlap only; completed flights vanish.
        let c = Coalescer::new();
        let mut count = 0;
        for _ in 0..3 {
            let (_, role) = c.run(0, || {
                count += 1;
                count
            });
            assert_eq!(role, Role::Led);
        }
        assert_eq!(count, 3);
    }

    #[test]
    fn panicking_leader_hands_off_to_a_joiner() {
        let c = Arc::new(Coalescer::new());
        let barrier = Arc::new(Barrier::new(2));
        let doomed = {
            let (c, barrier) = (c.clone(), barrier.clone());
            std::thread::spawn(move || {
                c.run("k", || {
                    barrier.wait();
                    // Give the joiner time to register on the flight.
                    std::thread::sleep(Duration::from_millis(100));
                    panic!("leader dies");
                    #[allow(unreachable_code)]
                    0
                })
            })
        };
        let survivor = {
            let (c, barrier) = (c.clone(), barrier.clone());
            std::thread::spawn(move || {
                barrier.wait();
                // Join while the leader is sleeping toward its panic.
                std::thread::sleep(Duration::from_millis(20));
                c.run("k", || 99)
            })
        };
        assert!(doomed.join().is_err(), "leader's panic propagates");
        let (v, _) = survivor.join().unwrap();
        assert_eq!(v, 99, "joiner retried as the new leader");
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn poisoned_table_lock_is_recovered_and_counted() {
        let c: Coalescer<u32, u32> = Coalescer::new();
        assert_eq!(c.poison_recoveries(), 0);
        c.poison_for_test();
        // The next call through the poisoned table recovers the lock,
        // counts it, and works normally — no panic, no hang, no silent
        // swallow.
        let (v, role) = c.run(7, || 70);
        assert_eq!((v, role), (70, Role::Led));
        assert!(
            c.poison_recoveries() >= 1,
            "recovery must be recorded, got {}",
            c.poison_recoveries()
        );
        // The table keeps serving afterwards.
        let (v, _) = c.run(7, || 71);
        assert_eq!(v, 71);
        assert_eq!(c.in_flight(), 0);
    }
}

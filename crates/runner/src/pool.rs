//! The supervised work-pool.
//!
//! Hand-rolled scoped `std::thread` workers draining a shared queue of
//! [`Cell`]s. Three supervision guarantees distinguish this from a naive
//! `chunks().map(spawn)`:
//!
//! * **Panic isolation** — every cell runs under
//!   `catch_unwind(AssertUnwindSafe(..))`. A poisoned cell yields a typed
//!   [`SimError::CellPanic`] failure record; its worker thread and every
//!   neighboring cell keep running.
//! * **Bounded retry** — failures classified transient (watchdog aborts,
//!   panics, I/O races such as fd exhaustion under parallel trace loads) are
//!   re-queued once with the same seed and payload on a fresh worker
//!   slot, two attempts in all. Deterministic input errors (config, trace
//!   parse, unknown workload) fail fast on the first attempt.
//! * **Deterministic reduction** — workers complete in nondeterministic
//!   order but every result lands in `Outcome::results[index]` keyed by the
//!   cell's canonical enumeration index, so callers that serialize the
//!   outcome in index order produce byte-identical artifacts at any job
//!   count, including `jobs = 1`.
//!
//! Timeout semantics are cooperative: the pool cannot preempt a wedged
//! thread, so per-cell budgets are enforced *inside* the cell by the
//! simulator's own watchdog (simulated-time idle budget, unscaled, plus the
//! wall-clock budget scaled by [`scale_wall_budget`]) which returns
//! [`SimError::Watchdog`] — which the pool then treats as retryable.

use mirza_frontend::error::SimError;
use mirza_telemetry::names::{
    EV_CELL_FAILED, RUNNER_CELLS_COMPLETED, RUNNER_CELLS_FAILED, RUNNER_CELLS_RESUMED,
    RUNNER_CELLS_RETRIED, RUNNER_CELL_WALL_US, RUNNER_WORKERS, RUNNER_WORKER_CELLS,
};
use mirza_telemetry::{Json, Telemetry};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One independent, re-runnable unit of a campaign.
///
/// Implementations must be **pure functions of their construction inputs**
/// (typically a seed plus a config): `run` may be invoked again on a retry
/// or on a different worker and must produce the identical result. Interior
/// mutability is fine for instrumentation but must not leak into `Out`.
pub trait Cell: Sync {
    /// The serializable result a completed cell produces. `Send` because it
    /// crosses from the worker thread back to the reducer.
    type Out: Send;

    /// Stable, human-readable identity (also the journal key via
    /// [`crate::journal::cell_hash`]). Two cells with equal ids must be
    /// interchangeable.
    fn id(&self) -> String;

    /// Executes the cell. Panics are caught by the pool; typed errors flow
    /// through as-is.
    fn run(&self) -> Result<Self::Out, SimError>;
}

/// References are cells too, so resumable campaigns can pool the not-yet-
/// completed subset of an owned task list without cloning the tasks.
impl<C: Cell> Cell for &C {
    type Out = C::Out;

    fn id(&self) -> String {
        (**self).id()
    }

    fn run(&self) -> Result<Self::Out, SimError> {
        (**self).run()
    }
}

/// A cell that exhausted its attempts (or failed deterministically).
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Canonical enumeration index of the cell.
    pub index: usize,
    /// Stable cell id.
    pub id: String,
    /// Attempts consumed (1 = failed fast, 2 = retried too).
    pub attempts: u32,
    /// The final attempt's error.
    pub error: SimError,
}

/// What a supervised campaign produced.
#[derive(Debug)]
pub struct Outcome<T> {
    /// Per-cell results in canonical enumeration order; `None` exactly for
    /// the indices listed in `failures`.
    pub results: Vec<Option<T>>,
    /// Cells that failed after supervision, sorted by index.
    pub failures: Vec<CellFailure>,
    /// Total retry attempts scheduled (beyond first attempts).
    pub retries: u64,
    /// Cells executed per worker slot (length = worker count actually
    /// spawned; `[0]` is the caller thread when `jobs <= 1`).
    pub per_worker: Vec<u64>,
    /// Wall-clock duration of the whole pool run.
    pub wall: Duration,
    /// Sum of per-cell wall micros (reducer-side, for the histogram).
    cell_wall_us: Vec<(usize, u64)>,
}

impl<T> Outcome<T> {
    /// True when every cell completed.
    pub fn complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Records pool counters and one `cell_failed` event per failure into
    /// `telemetry` (reducer-side: the pool itself never touches the
    /// non-`Send` telemetry handle from worker threads).
    pub fn record(&self, telemetry: &Telemetry, resumed: u64) {
        telemetry.set_counter(RUNNER_WORKERS, self.per_worker.len() as u64);
        telemetry.inc(
            RUNNER_CELLS_COMPLETED,
            (self.results.len() - self.failures.len()) as u64,
        );
        telemetry.inc(RUNNER_CELLS_RETRIED, self.retries);
        telemetry.inc(RUNNER_CELLS_FAILED, self.failures.len() as u64);
        telemetry.inc(RUNNER_CELLS_RESUMED, resumed);
        for (worker, &cells) in self.per_worker.iter().enumerate() {
            if worker < RUNNER_WORKER_CELLS.len() {
                telemetry.inc(RUNNER_WORKER_CELLS[worker], cells);
            }
        }
        for &(_, us) in &self.cell_wall_us {
            telemetry.observe(RUNNER_CELL_WALL_US, us);
        }
        for f in &self.failures {
            telemetry.event(
                0,
                EV_CELL_FAILED,
                &[
                    ("cell", Json::Str(f.id.clone())),
                    ("attempts", Json::U64(u64::from(f.attempts))),
                    ("error", Json::Str(f.error.to_string())),
                ],
            );
        }
    }
}

/// Total attempts per cell (first run + retries): one fresh-worker retry
/// for transient failures.
const MAX_ATTEMPTS: u32 = 2;

/// Supervision policy for one campaign.
#[derive(Debug, Clone)]
pub struct Pool {
    /// Worker threads; `<= 1` runs every cell inline on the caller thread
    /// (the serial path — same supervision, no spawns).
    pub jobs: usize,
}

/// Completion hook type: `(index, id, out)` per successful cell. Fires
/// from whichever worker finished the cell, so implementations must be
/// internally synchronized (the journal's file mutex) and cheap.
pub type OnComplete<'a, O> = &'a (dyn Fn(usize, &str, &O) + Sync);

impl Pool {
    /// A pool with `jobs` workers.
    pub fn with_jobs(jobs: usize) -> Self {
        Pool { jobs: jobs.max(1) }
    }

    /// Runs every cell, supervising panics/timeouts, and reduces results
    /// into canonical order. `on_complete` fires once per successful cell
    /// (see [`OnComplete`]) — callers use it for journal appends.
    pub fn run<C: Cell>(
        &self,
        cells: &[C],
        on_complete: Option<OnComplete<'_, C::Out>>,
    ) -> Outcome<C::Out> {
        let start = Instant::now();
        let n = cells.len();
        let queue: Mutex<VecDeque<Task>> = Mutex::new(
            (0..n)
                .map(|i| Task {
                    index: i,
                    attempt: 1,
                })
                .collect(),
        );
        // Cells not yet finally resolved (success or exhausted retries).
        // Retries keep the count, so workers spin-wait on a nonzero value
        // instead of exiting while a neighbor might still re-queue work.
        let pending = AtomicUsize::new(n);
        let results: Mutex<Vec<Option<C::Out>>> = Mutex::new((0..n).map(|_| None).collect());
        let failures: Mutex<Vec<CellFailure>> = Mutex::new(Vec::new());
        let retries = AtomicU64::new(0);
        let cell_wall: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::with_capacity(n));

        let worker = |_slot: usize| -> u64 {
            let mut done: u64 = 0;
            loop {
                let task = queue.lock().expect("pool queue poisoned").pop_front();
                let Some(task) = task else {
                    if pending.load(Ordering::Acquire) == 0 {
                        return done;
                    }
                    // Queue momentarily empty but another worker may still
                    // re-queue a retry; yield and re-check.
                    std::thread::yield_now();
                    continue;
                };
                let cell = &cells[task.index];
                let t0 = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| cell.run()));
                let us = t0.elapsed().as_micros() as u64;
                done += 1;
                match outcome {
                    Ok(Ok(out)) => {
                        if let Some(hook) = on_complete {
                            hook(task.index, &cell.id(), &out);
                        }
                        cell_wall
                            .lock()
                            .expect("wall poisoned")
                            .push((task.index, us));
                        results.lock().expect("results poisoned")[task.index] = Some(out);
                        pending.fetch_sub(1, Ordering::AcqRel);
                    }
                    other => {
                        let error = match other {
                            Ok(Err(e)) => e,
                            Err(payload) => SimError::CellPanic {
                                cell: cell.id(),
                                payload: panic_message(payload.as_ref()),
                            },
                            Ok(Ok(_)) => unreachable!("handled above"),
                        };
                        if retryable(&error) && task.attempt < MAX_ATTEMPTS {
                            retries.fetch_add(1, Ordering::Relaxed);
                            queue.lock().expect("pool queue poisoned").push_back(Task {
                                index: task.index,
                                attempt: task.attempt + 1,
                            });
                        } else {
                            failures
                                .lock()
                                .expect("failures poisoned")
                                .push(CellFailure {
                                    index: task.index,
                                    id: cell.id(),
                                    attempts: task.attempt,
                                    error,
                                });
                            pending.fetch_sub(1, Ordering::AcqRel);
                        }
                    }
                }
            }
        };

        let per_worker: Vec<u64> = if self.jobs <= 1 || n <= 1 {
            vec![worker(0)]
        } else {
            let slots = self.jobs.min(n);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..slots)
                    .map(|slot| {
                        std::thread::Builder::new()
                            .name(format!("mirza-worker-{slot}"))
                            .spawn_scoped(scope, move || worker(slot))
                            .expect("spawn pool worker")
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("pool worker slot itself panicked"))
                    .collect()
            })
        };

        let mut failures = failures.into_inner().expect("failures poisoned");
        failures.sort_by_key(|f| f.index);
        let mut cell_wall_us = cell_wall.into_inner().expect("wall poisoned");
        cell_wall_us.sort_unstable();
        Outcome {
            results: results.into_inner().expect("results poisoned"),
            failures,
            retries: retries.into_inner(),
            per_worker,
            wall: start.elapsed(),
            cell_wall_us,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Task {
    index: usize,
    attempt: u32,
}

/// Transient failures worth one fresh-worker retry: a wedged run (watchdog),
/// a panic (possibly a thread-environment artifact), or an I/O race (fd
/// exhaustion, transient FS errors under parallel trace loads).
/// Deterministic input errors re-fail identically, so they don't retry.
fn retryable(error: &SimError) -> bool {
    matches!(
        error,
        SimError::Watchdog { .. } | SimError::CellPanic { .. } | SimError::Io { .. }
    )
}

/// Extracts the conventional `&str`/`String` panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// `available_parallelism`, defaulting to 1 where the host won't say.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The wall-clock watchdog budget for one cell when `jobs` cells share the
/// machine: scaled linearly so an oversubscribed run (more workers than
/// cores, CI timeshare) doesn't trip spurious exit-6 aborts. The
/// simulated-time idle budget is intentionally *not* scaled — simulated
/// progress per cell is independent of co-runners.
pub fn scale_wall_budget(base: Duration, jobs: usize) -> Duration {
    base * jobs.max(1) as u32
}

//! The supervised work-pool.
//!
//! Hand-rolled scoped `std::thread` workers claiming [`Cell`]s in index
//! order from one shared cursor. Two supervision guarantees distinguish
//! this from a naive `chunks().map(spawn)`:
//!
//! * **Panic isolation** — every cell runs once, under
//!   `catch_unwind(AssertUnwindSafe(..))`. A poisoned cell yields a typed
//!   [`SimError::CellPanic`] failure record; its worker thread and every
//!   neighboring cell keep running. A cell's typed error is its failure
//!   record as it is: cells are deterministic, so a rerun would fail the
//!   same way (or, after a wall-clock watchdog abort, spend its budget
//!   again), and the pool never re-runs one.
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
//! [`SimError::Watchdog`], the cell's failure.

use mirza_frontend::error::SimError;
use mirza_telemetry::names::{
    EV_CELL_FAILED, RUNNER_CELLS_COMPLETED, RUNNER_CELLS_FAILED, RUNNER_CELL_WALL_US,
};
use mirza_telemetry::{Json, Telemetry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One independent unit of a campaign.
///
/// Implementations must be **pure functions of their construction inputs**
/// (typically a seed plus a config): `run` may execute on any worker and
/// must produce the same result on each. Interior mutability is fine for
/// instrumentation but must not leak into `Out`.
pub trait Cell: Sync {
    /// The serializable result a completed cell produces. `Send` because it
    /// crosses from the worker thread back to the reducer.
    type Out: Send;

    /// Stable, human-readable identity (also the journal key via
    /// [`crate::journal::cell_hash`]). Two cells with equal ids must be
    /// interchangeable.
    fn id(&self) -> String;

    /// Executes the cell, once. Panics are caught by the pool; typed
    /// errors flow through as-is.
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

/// A cell that returned an error or panicked.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Canonical enumeration index of the cell.
    pub index: usize,
    /// Stable cell id.
    pub id: String,
    /// The cell's error ([`SimError::CellPanic`] for a panic).
    pub error: SimError,
}

/// What a supervised campaign produced.
#[derive(Debug)]
pub struct Outcome<T> {
    /// Per-cell results in canonical enumeration order; `None` exactly for
    /// the indices listed in `failures`.
    pub results: Vec<Option<T>>,
    /// Cells that failed, sorted by index.
    pub failures: Vec<CellFailure>,
    /// Wall-clock duration of the whole pool run.
    pub wall: Duration,
    /// Per-cell wall micros of the completed cells (reducer-side, for the
    /// histogram).
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
    pub fn record(&self, telemetry: &Telemetry) {
        telemetry.inc(
            RUNNER_CELLS_COMPLETED,
            (self.results.len() - self.failures.len()) as u64,
        );
        telemetry.inc(RUNNER_CELLS_FAILED, self.failures.len() as u64);
        for &(_, us) in &self.cell_wall_us {
            telemetry.observe(RUNNER_CELL_WALL_US, us);
        }
        for f in &self.failures {
            telemetry.event(
                0,
                EV_CELL_FAILED,
                &[
                    ("cell", Json::Str(f.id.clone())),
                    ("error", Json::Str(f.error.to_string())),
                ],
            );
        }
    }
}

/// Supervision policy for one campaign.
#[derive(Debug, Clone)]
pub struct Pool {
    /// Worker threads; `<= 1` runs every cell on the caller thread (a
    /// one-worker pool: the same supervision, no spawns).
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

    /// Runs every cell once, isolating panics, and reduces results into
    /// canonical order. `on_complete` fires once per successful cell (see
    /// [`OnComplete`]) — callers use it for journal appends.
    pub fn run<C: Cell>(
        &self,
        cells: &[C],
        on_complete: Option<OnComplete<'_, C::Out>>,
    ) -> Outcome<C::Out> {
        let start = Instant::now();
        let n = cells.len();
        // The next unclaimed index: every worker takes cells in order. It
        // publishes no data (results cross through the mutexes below), so
        // its accesses are `Relaxed`.
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<C::Out>>> = Mutex::new((0..n).map(|_| None).collect());
        let failures: Mutex<Vec<CellFailure>> = Mutex::new(Vec::new());
        let cell_wall: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::with_capacity(n));

        let worker = || loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(cell) = cells.get(index) else {
                return;
            };
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| cell.run())).unwrap_or_else(|payload| {
                Err(SimError::CellPanic {
                    cell: cell.id(),
                    payload: panic_message(payload.as_ref()),
                })
            });
            let us = t0.elapsed().as_micros() as u64;
            match result {
                Ok(out) => {
                    if let Some(hook) = on_complete {
                        hook(index, &cell.id(), &out);
                    }
                    cell_wall.lock().expect("wall poisoned").push((index, us));
                    results.lock().expect("results poisoned")[index] = Some(out);
                }
                Err(error) => failures
                    .lock()
                    .expect("failures poisoned")
                    .push(CellFailure {
                        index,
                        id: cell.id(),
                        error,
                    }),
            }
        };

        if self.jobs <= 1 || n <= 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                for slot in 0..self.jobs.min(n) {
                    std::thread::Builder::new()
                        .name(format!("mirza-worker-{slot}"))
                        .spawn_scoped(scope, worker)
                        .expect("spawn pool worker");
                }
            });
        }

        let mut failures = failures.into_inner().expect("failures poisoned");
        failures.sort_by_key(|f| f.index);
        let mut cell_wall_us = cell_wall.into_inner().expect("wall poisoned");
        cell_wall_us.sort_unstable();
        Outcome {
            results: results.into_inner().expect("results poisoned"),
            failures,
            wall: start.elapsed(),
            cell_wall_us,
        }
    }
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

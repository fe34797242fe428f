//! Canonical telemetry names.
//!
//! Every counter, gauge, histogram, and structured-event kind the simulator
//! records is declared here as a `&'static str` constant, so call sites in
//! dram/memctrl/core/sim/bench share one spelling and the unit tests below
//! can reject duplicates and malformed names. Manifest consumers (epoch
//! streams, the benchmark in `benchsuite/`, EXPERIMENTS.md) key on these
//! exact strings — renaming one is a manifest-schema change.
//!
//! Naming convention: `<component>.<metric>` in `[a-z0-9_.]`, where the
//! component prefix is one of the registered set in
//! [`METRIC_COMPONENTS`]. Event kinds are bare `[a-z0-9_]` words.

// --- Memory-controller metrics (memctrl::controller) ---

/// Histogram: queue occupancy sampled at each enqueue.
pub const MC_QUEUE_OCCUPANCY: &str = "mc.queue_occupancy";
/// Histogram: length of each row-buffer hit streak.
pub const MC_ROW_HIT_RUN: &str = "mc.row_hit_run";
/// Counter: read requests completed.
pub const MC_READS: &str = "mc.reads";
/// Counter: write requests completed.
pub const MC_WRITES: &str = "mc.writes";
/// Histogram: read latency (arrival to data) in nanoseconds.
pub const MC_READ_LATENCY_NS: &str = "mc.read_latency_ns";
/// Counter: ACT commands issued.
pub const MC_ACTS: &str = "mc.acts";
/// Counter: REF commands issued.
pub const MC_REFS: &str = "mc.refs";
/// Histogram: ALERT service stall (observe to RFM issue) in nanoseconds.
pub const MC_ALERT_STALL_NS: &str = "mc.alert_stall_ns";
/// Counter: ALERT back-offs serviced.
pub const MC_ALERTS: &str = "mc.alerts";
/// Counter: proactive RFMs issued.
pub const MC_RFMS: &str = "mc.rfms";
/// Gauge: outstanding requests across all bank queues (epoch input).
pub const MC_QUEUE_DEPTH: &str = "mc.queue_depth";

// --- Device metrics (dram::device, sim::system) ---

/// Gauge: banks with an open row (epoch input).
pub const DRAM_OPEN_BANKS: &str = "dram.open_banks";
/// Histogram: end-of-run ACT count per (bank, subarray).
pub const DRAM_ACTS_PER_SUBARRAY: &str = "dram.acts_per_subarray";

// --- System metrics (sim::system) ---

/// Counter: instructions retired across all cores (epoch input).
pub const SIM_INSTRUCTIONS: &str = "sim.instructions";
/// Gauge: simulated time at end of run, in milliseconds.
pub const SIM_ELAPSED_MS: &str = "sim.elapsed_ms";

// --- LLC metrics (sim::system) ---

/// Gauge: end-of-run LLC hit rate.
pub const LLC_HIT_RATE: &str = "llc.hit_rate";

// --- Frontend core metrics (sim::system, from frontend::core) ---

/// Counter: time benign cores spent stalled on a full MSHR, in picoseconds
/// (attacker cores are left out, like their IPC).
pub const CORE_MSHR_STALL_PS: &str = "core.mshr_stall_ps";
/// Counter: time benign cores spent stalled on the ROB-limit load, in
/// picoseconds.
pub const CORE_ROB_STALL_PS: &str = "core.rob_stall_ps";

/// Counters: per-core retired instructions (epoch inputs). Static names so
/// per-core series need no allocation; cores past this table still count
/// toward [`SIM_INSTRUCTIONS`].
pub const CORE_INSTR: [&str; 16] = [
    "core00.instructions",
    "core01.instructions",
    "core02.instructions",
    "core03.instructions",
    "core04.instructions",
    "core05.instructions",
    "core06.instructions",
    "core07.instructions",
    "core08.instructions",
    "core09.instructions",
    "core10.instructions",
    "core11.instructions",
    "core12.instructions",
    "core13.instructions",
    "core14.instructions",
    "core15.instructions",
];

// --- Protocol auditor metrics (dram::audit) ---

/// Counter: protocol violations the shadow auditor flagged.
pub const AUDIT_VIOLATIONS: &str = "audit.violations";
/// Counter (absolute): maximum per-row ACT census across devices.
pub const AUDIT_MAX_ROW_ACTS: &str = "audit.max_row_acts";

// --- Fault-injection metrics (sim::faults) ---

/// Counter: fault injections attempted.
pub const FAULTS_ATTEMPTED: &str = "faults.attempted";
/// Counter: fault injections that changed state.
pub const FAULTS_INJECTED: &str = "faults.injected";

// --- MIRZA engine metrics (core::mirza) ---

/// Gauge: maximum RCT counter value at the last reset scan.
pub const RCT_MAX: &str = "rct.max";
/// Gauge: mean RCT counter value at the last reset scan.
pub const RCT_MEAN: &str = "rct.mean";
/// Counter: mitigations performed by the MIRZA engine.
pub const MIRZA_MITIGATIONS: &str = "mirza.mitigations";
/// Histogram: MIRZA-Q occupancy when an entry drains.
pub const MIRZAQ_OCCUPANCY_AT_DRAIN: &str = "mirzaq.occupancy_at_drain";
/// Histogram: MIRZA-Q entry tardiness (count) when it drains.
pub const MIRZAQ_TARDINESS_AT_DRAIN: &str = "mirzaq.tardiness_at_drain";

// --- Supervised work-pool metrics (mirza-runner, recorded reducer-side) ---

/// Counter: cells that completed successfully.
pub const RUNNER_CELLS_COMPLETED: &str = "runner.cells_completed";
/// Counter: cell re-runs. The pool runs every cell once and records
/// none, so it reads 0; the benchmark in `benchsuite/` still reads it.
pub const RUNNER_CELLS_RETRIED: &str = "runner.cells_retried";
/// Counter: cells that panicked or returned an error.
pub const RUNNER_CELLS_FAILED: &str = "runner.cells_failed";
/// Histogram: per-cell wall clock, in microseconds.
pub const RUNNER_CELL_WALL_US: &str = "runner.cell_wall_us";

// --- Structured event kinds ---

/// The device asserted ALERT_n and the controller observed it.
pub const EV_ALERT_RAISED: &str = "alert_raised";
/// The controller finished servicing an ALERT back-off.
pub const EV_ALERT_CLEARED: &str = "alert_cleared";
/// A proactive RFM was issued.
pub const EV_RFM_ISSUED: &str = "rfm_issued";
/// The refresh pointer wrapped a full pass over the rows.
pub const EV_REFRESH_POINTER_WRAP: &str = "refresh_pointer_wrap";
/// The MIRZA mitigation queue overflowed into an ALERT request.
pub const EV_MIRZAQ_OVERFLOW: &str = "mirzaq_overflow";
/// The shadow auditor flagged an inter-command constraint violation.
pub const EV_PROTOCOL_VIOLATION: &str = "protocol_violation";
/// The fault injector changed simulator state.
pub const EV_FAULT_INJECTED: &str = "fault_injected";
/// One attack-matrix cell completed.
pub const EV_ATTACK_CELL: &str = "attack_cell";
/// A supervised sweep cell failed (a panic or a typed error, such as a
/// watchdog abort); the campaign continued degraded.
pub const EV_CELL_FAILED: &str = "cell_failed";

/// Component prefixes a metric name may carry (`<component>.<metric>`).
pub const METRIC_COMPONENTS: &[&str] = &[
    "mc", "dram", "sim", "llc", "core", "audit", "faults", "rct", "mirza", "mirzaq", "runner",
    "core00", "core01", "core02", "core03", "core04", "core05", "core06", "core07", "core08",
    "core09", "core10", "core11", "core12", "core13", "core14", "core15",
];

/// Every registered metric name (used by the uniqueness test and by tools
/// that want to validate manifests against the known schema).
pub const ALL_METRICS: &[&str] = &[
    MC_QUEUE_OCCUPANCY,
    MC_ROW_HIT_RUN,
    MC_READS,
    MC_WRITES,
    MC_READ_LATENCY_NS,
    MC_ACTS,
    MC_REFS,
    MC_ALERT_STALL_NS,
    MC_ALERTS,
    MC_RFMS,
    MC_QUEUE_DEPTH,
    DRAM_OPEN_BANKS,
    DRAM_ACTS_PER_SUBARRAY,
    SIM_INSTRUCTIONS,
    SIM_ELAPSED_MS,
    LLC_HIT_RATE,
    CORE_MSHR_STALL_PS,
    CORE_ROB_STALL_PS,
    CORE_INSTR[0],
    CORE_INSTR[1],
    CORE_INSTR[2],
    CORE_INSTR[3],
    CORE_INSTR[4],
    CORE_INSTR[5],
    CORE_INSTR[6],
    CORE_INSTR[7],
    CORE_INSTR[8],
    CORE_INSTR[9],
    CORE_INSTR[10],
    CORE_INSTR[11],
    CORE_INSTR[12],
    CORE_INSTR[13],
    CORE_INSTR[14],
    CORE_INSTR[15],
    AUDIT_VIOLATIONS,
    AUDIT_MAX_ROW_ACTS,
    FAULTS_ATTEMPTED,
    FAULTS_INJECTED,
    RCT_MAX,
    RCT_MEAN,
    MIRZA_MITIGATIONS,
    MIRZAQ_OCCUPANCY_AT_DRAIN,
    MIRZAQ_TARDINESS_AT_DRAIN,
    RUNNER_CELLS_COMPLETED,
    RUNNER_CELLS_RETRIED,
    RUNNER_CELLS_FAILED,
    RUNNER_CELL_WALL_US,
];

/// Every registered structured-event kind.
pub const ALL_EVENTS: &[&str] = &[
    EV_ALERT_RAISED,
    EV_ALERT_CLEARED,
    EV_RFM_ISSUED,
    EV_REFRESH_POINTER_WRAP,
    EV_MIRZAQ_OVERFLOW,
    EV_PROTOCOL_VIOLATION,
    EV_FAULT_INJECTED,
    EV_ATTACK_CELL,
    EV_CELL_FAILED,
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str, allow_dot: bool) -> bool {
        !name.is_empty()
            && !name.starts_with(['.', '_'])
            && !name.ends_with(['.', '_'])
            && name.chars().all(|c| {
                c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || (allow_dot && c == '.')
            })
    }

    #[test]
    fn metric_names_are_unique() {
        let set: BTreeSet<&str> = ALL_METRICS.iter().copied().collect();
        assert_eq!(set.len(), ALL_METRICS.len(), "duplicate metric name");
    }

    #[test]
    fn event_kinds_are_unique_and_distinct_from_metrics() {
        let set: BTreeSet<&str> = ALL_EVENTS.iter().copied().collect();
        assert_eq!(set.len(), ALL_EVENTS.len(), "duplicate event kind");
        for ev in ALL_EVENTS {
            assert!(
                !ALL_METRICS.contains(ev),
                "event kind {ev:?} collides with a metric name"
            );
        }
    }

    #[test]
    fn metric_names_carry_a_registered_component_prefix() {
        for name in ALL_METRICS {
            assert!(well_formed(name, true), "malformed metric name {name:?}");
            let (component, rest) = name
                .split_once('.')
                .unwrap_or_else(|| panic!("metric {name:?} lacks a component prefix"));
            assert!(
                METRIC_COMPONENTS.contains(&component),
                "metric {name:?} uses unregistered component {component:?}"
            );
            assert!(well_formed(rest, false), "malformed metric field {rest:?}");
        }
    }

    #[test]
    fn event_kinds_are_bare_words() {
        for ev in ALL_EVENTS {
            assert!(well_formed(ev, false), "malformed event kind {ev:?}");
        }
    }
}

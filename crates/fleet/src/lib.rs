//! Fleet-scale multi-slice orchestration with GP warm-start transfer.
//!
//! The paper runs EdgeBOL on one slice. An operator runs *fleets*: N
//! slices sharded over M cells, each cell backed by one physical GPU
//! server, slices arriving and leaving while learning runs online. This
//! crate adds that layer on top of the single-slice stack:
//!
//! * [`Fleet`] — drives every slice's [`edgebol_core::Orchestrator`] in
//!   period lockstep, fanning the per-period work across worker threads
//!   with [`edgebol_core::parallel_map_threads`]. All cross-slice
//!   decisions (admission, contention, donor selection) happen on the
//!   driver thread between periods, so a fixed-seed fleet produces a
//!   byte-identical [`FleetReport`] at any thread count.
//! * **Shared-GPU admission** — each cell has a capacity budget in
//!   demand units; a slice is admitted when its demand fits under the
//!   (slightly overcommitted) budget, otherwise it waits in a pending
//!   queue and retries every period. Overcommitted load feeds back as a
//!   per-period inference-time contention factor through
//!   [`edgebol_testbed::Environment::set_gpu_contention`].
//! * **Warm-start transfer** — when a slice spawns next to already
//!   running slices, its GP posterior is seeded from the nearest
//!   donor's exported experience
//!   ([`edgebol_core::agent::EdgeBolAgent::with_experience`]), skipping
//!   the random warm-up box entirely. Nearness is Euclidean distance in
//!   the unit context space of [`edgebol_testbed::ContextObs::to_unit`];
//!   beyond [`FleetConfig::transfer_radius`] the slice degrades
//!   gracefully to a cold start (counted, never a panic).
//!
//! Slice lifecycle events stream into an [`edgebol_trace::Journal`]
//! (layer `fleet`) and fleet health into an
//! [`edgebol_metrics::Registry`], so the whole fleet is visible on the
//! ops HTTP surface. The `fleet` and `soak` binaries in `edgebol-bench`
//! drive this crate and fill [`FleetConfig`] from the `EDGEBOL_*` knobs
//! (see `OPERATIONS.md`); the crate itself reads no environment.

#![deny(missing_docs)]

use edgebol_ckpt::{CkptError, Dec, Enc};
use edgebol_core::agent::EdgeBolAgent;
use edgebol_core::problem::ProblemSpec;
use edgebol_core::trace::Trace;
use edgebol_core::{parallel_map_threads, Orchestrator, OrchestratorError};
use edgebol_metrics::{Counter, Gauge, Registry};
use edgebol_oran::{ChaosConfig, CircuitState, HealthHandle, TransportKind};
use edgebol_testbed::{Calibration, Environment, FlowTestbed, Scenario};
use edgebol_trace::{Journal, Layer};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Checkpoint kind tag for per-slice fleet snapshots.
const SLICE_CKPT_KIND: &str = "edgebol-fleet-slice";

/// Donor experience in physical units, as exported by
/// [`edgebol_core::agent::Agent::export_experience`].
pub type Experience = Vec<(Vec<f64>, [f64; 3])>;

/// Sizing and policy of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Total slices the fleet will spawn over its lifetime.
    pub slices: usize,
    /// Cells (each with its own shared GPU server); slice `i` lives in
    /// cell `i % cells`.
    pub cells: usize,
    /// Control periods each slice runs before retiring.
    pub periods: usize,
    /// Period at which the late wave becomes spawn-eligible. The first
    /// `ceil(slices / 4)` slices are eligible at period 0 (the seed
    /// wave — necessarily cold, there is nobody to learn from); the
    /// rest wait until `stagger`, by which time seed slices are past
    /// warm-up and can donate.
    pub stagger: usize,
    /// Whether eligible spawns warm-start from the nearest donor. The
    /// cold arm of the transfer experiment sets this to `false`;
    /// admission and retirement dynamics are identical either way, so
    /// the two arms spawn every slice at the same period.
    pub warm_start: bool,
    /// Maximum Euclidean distance in unit context space at which a
    /// donor is accepted. Beyond it the spawn degrades to a cold start
    /// and `transfer_out_of_range` is incremented.
    pub transfer_radius: f64,
    /// Newest-K cap on imported donor observations.
    pub transfer_cap: usize,
    /// A donor must have completed at least this many periods (past the
    /// quick config's 6-round warm-up, so its export reflects a real
    /// posterior).
    pub min_donor_periods: usize,
    /// Per-cell GPU admission capacity in demand units; a slice demands
    /// `0.1 + 0.05 x users`.
    pub gpu_capacity: f64,
    /// Admission admits up to `gpu_capacity * overcommit`; load between
    /// capacity and the overcommitted ceiling shows up as an
    /// inference-time contention factor `load / capacity` on every
    /// slice in the cell.
    pub overcommit: f64,
    /// Service-delay bound `d_max` (s) for every slice's problem spec.
    pub d_max: f64,
    /// Precision floor `rho_min` for every slice's problem spec.
    pub rho_min: f64,
    /// Base RNG seed; per-slice environment and agent seeds derive from
    /// it and the slice id.
    pub seed: u64,
    /// Worker threads for the lockstep fan-out; `None` uses
    /// [`std::thread::available_parallelism`]. The report is
    /// byte-identical at any setting.
    pub threads: Option<usize>,
    /// Directory for per-slice checkpoint files (`slice-<id>.ckpt`,
    /// written atomically via `edgebol_ckpt::write_atomic`); `None`
    /// disables checkpointing. The soak/bench drivers fill it from
    /// `EDGEBOL_CKPT_DIR`.
    pub ckpt_dir: Option<PathBuf>,
    /// Directory for the flight record a slice dumps when its control
    /// plane dies mid-run (see [`edgebol_trace::dump_flight_record`]);
    /// `None` disables the dumps. The bench drivers fill it from
    /// `EDGEBOL_FLIGHT_DIR`.
    pub flight_dir: Option<PathBuf>,
    /// Checkpoint cadence: every running slice is snapshotted after
    /// each `ckpt_every`-th lockstep period. `0` disables the cadence
    /// even when a directory is set.
    pub ckpt_every: usize,
    /// Crash-injection schedule: `(slice, period)` pairs. At the start
    /// of that lockstep period the slice's control plane is destroyed
    /// without warning (no export, no drain) and immediately restarted
    /// from its latest checkpoint — or cold, counted, when no
    /// checkpoint survives decode.
    pub kill_schedule: Vec<(u64, usize)>,
    /// Chaos plan cloned into every slice's control plane (the soak
    /// harness drives healing link cuts through it). Disabled by
    /// default, which preserves the historical fault-free behaviour.
    pub chaos: ChaosConfig,
}

impl FleetConfig {
    /// A fast configuration sized for tests and doc examples: 2 cells,
    /// 24-period slice lifetimes, late wave at period 8.
    pub fn quick(slices: usize) -> Self {
        FleetConfig {
            slices,
            cells: 2,
            periods: 24,
            stagger: 8,
            warm_start: true,
            transfer_radius: 0.6,
            transfer_cap: 64,
            min_donor_periods: 8,
            gpu_capacity: 8.0,
            overcommit: 1.25,
            d_max: 2.0,
            rho_min: 0.5,
            seed: 7,
            threads: None,
            ckpt_dir: None,
            flight_dir: None,
            ckpt_every: 8,
            kill_schedule: Vec::new(),
            chaos: ChaosConfig::disabled(),
        }
    }

    fn seed_wave(&self) -> usize {
        self.slices.div_ceil(4).max(1)
    }
}

/// How far a slice has got through its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlicePhase {
    /// Waiting for eligibility and admission.
    Pending { eligible_at: usize },
    /// Admitted and stepping every period.
    Running,
    /// Ran its full lifetime (or failed) and released its GPU share.
    Retired,
}

/// Per-slice driver state. The `Mutex` exists so worker threads can
/// step disjoint slices through a shared `&[SliceSlot]`; it is never
/// contended (each lockstep period locks each runner exactly once).
struct SliceSlot {
    id: u64,
    cell: usize,
    demand: f64,
    phase: SlicePhase,
    runner: Option<Mutex<Orchestrator>>,
    trace: Trace,
    unit_ctx: [f64; 3],
    spawned_at: usize,
    warm: bool,
    donor: Option<u64>,
    completed: usize,
    failed: bool,
    rejected_once: bool,
    experience: Option<Experience>,
}

/// One slice's outcome.
#[derive(Debug, Clone)]
pub struct SliceReport {
    /// Slice id (also its index in spawn order).
    pub id: u64,
    /// Cell the slice ran in.
    pub cell: usize,
    /// Lockstep period the slice was admitted at.
    pub spawned_at: usize,
    /// Whether it warm-started from a donor.
    pub warm: bool,
    /// The donor it imported experience from, if any.
    pub donor: Option<u64>,
    /// Periods it completed before retiring.
    pub periods: usize,
    /// [`Trace::convergence_period`] at 10% tolerance, relative to its
    /// own spawn.
    pub convergence_period: Option<usize>,
    /// Mean cost over its whole life.
    pub mean_cost: f64,
    /// Mean cost over its first 8 periods — the learning-phase price.
    /// Cold slices pay the max-resources `S_0` warm-up box here; warm
    /// slices start from the donor's posterior instead, so comparing
    /// this across arms is the first-K-period regret of cold starting.
    pub early_cost: f64,
    /// Mean cost over its last 10 periods.
    pub tail_cost: f64,
    /// Constraint satisfaction rate after its first 6 periods.
    pub satisfaction: f64,
}

/// Aggregate outcome of one fleet run. Every number is a pure function
/// of [`FleetConfig`] — wall-clock and thread count never leak in — so
/// [`FleetReport::summary`] is byte-stable across machines and pool
/// sizes.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-slice outcomes in id order.
    pub slices: Vec<SliceReport>,
    /// Cells in the run.
    pub cells: usize,
    /// Lockstep periods the driver ran until every slice retired.
    pub total_periods: usize,
    /// Total slice-periods stepped (the work unit for throughput).
    pub slice_periods: usize,
    /// Sum of every slice-period's cost `u_t` (eq. 1) — the fleet's
    /// aggregate J.
    pub aggregate_j: f64,
    /// Slices that warm-started.
    pub warm_spawns: u64,
    /// Slices that cold-started.
    pub cold_spawns: u64,
    /// Slices that were refused admission at least once.
    pub admission_rejected: u64,
    /// Total failed admission attempts (one slice can retry many
    /// periods).
    pub admission_retries: u64,
    /// Admissions forced because a slice's demand exceeds even an empty
    /// cell's overcommitted budget (a slice alone on its server always
    /// runs).
    pub admission_forced: u64,
    /// Warm-eligible spawns whose nearest donor was outside
    /// [`FleetConfig::transfer_radius`] (they cold-started instead).
    pub transfer_out_of_range: u64,
    /// Slices whose control plane died mid-run (retired early).
    pub failed: u64,
    /// Runners destroyed by the crash-injection schedule.
    pub kills: u64,
    /// Killed slices successfully resumed from a checkpoint (the
    /// learner kept its GP posterior — no cold warm-up paid).
    pub restores: u64,
    /// Killed slices that had to restart cold: no checkpoint on disk,
    /// or the file failed decode (truncated / corrupt / wrong kind).
    pub cold_restores: u64,
    /// Per-slice checkpoint files written (not in [`FleetReport::summary`]:
    /// an I/O failure must not perturb the deterministic summary bytes).
    pub checkpoints: u64,
}

impl FleetReport {
    /// Median convergence period over late-wave slices (`spawned_at >
    /// 0`) — the population whose spawns are warm in the warm arm and
    /// cold in the cold arm, so comparing this number across the two
    /// arms is the transfer saving. `None` when no late slice has a
    /// convergence estimate.
    pub fn median_late_convergence(&self) -> Option<f64> {
        let xs: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| s.spawned_at > 0)
            .filter_map(|s| s.convergence_period.map(|c| c as f64))
            .collect();
        if xs.is_empty() {
            None
        } else {
            Some(edgebol_linalg::stats::percentile(&xs, 0.5))
        }
    }

    /// Mean cost per slice-period across the fleet.
    pub fn mean_cost(&self) -> f64 {
        if self.slice_periods == 0 {
            0.0
        } else {
            self.aggregate_j / self.slice_periods as f64
        }
    }

    /// Mean constraint-satisfaction rate across slices.
    pub fn mean_satisfaction(&self) -> f64 {
        if self.slices.is_empty() {
            return 1.0;
        }
        self.slices.iter().map(|s| s.satisfaction).sum::<f64>() / self.slices.len() as f64
    }

    /// A deterministic one-paragraph summary: identical bytes for
    /// identical configs regardless of thread count (pinned by
    /// `tests/fleet.rs`).
    pub fn summary(&self) -> String {
        let conv = match self.median_late_convergence() {
            Some(c) => format!("{c:.1}"),
            None => "n/a".into(),
        };
        format!(
            "slices={} cells={} lockstep_periods={} slice_periods={} \
             warm={} cold={} rejected={} retries={} forced={} \
             out_of_range={} failed={} kills={} restores={} cold_restores={} \
             aggregate_j={:.3} mean_cost={:.3} \
             satisfaction={:.4} late_median_convergence={}",
            self.slices.len(),
            self.cells,
            self.total_periods,
            self.slice_periods,
            self.warm_spawns,
            self.cold_spawns,
            self.admission_rejected,
            self.admission_retries,
            self.admission_forced,
            self.transfer_out_of_range,
            self.failed,
            self.kills,
            self.restores,
            self.cold_restores,
            self.aggregate_j,
            self.mean_cost(),
            self.mean_satisfaction(),
            conv,
        )
    }
}

/// Fleet-level observability handles (all cheap clones of registry
/// series; a disabled registry turns every record into a no-op).
struct FleetMetrics {
    running: Gauge,
    pending: Gauge,
    spawned_warm: Counter,
    spawned_cold: Counter,
    retired: Counter,
    failed: Counter,
    rejected: Counter,
    retries: Counter,
    forced: Counter,
    out_of_range: Counter,
    kills: Counter,
    restores: Counter,
    cold_restores: Counter,
    checkpoints: Counter,
    aggregate_j: Gauge,
    cell_load: Vec<Gauge>,
}

impl FleetMetrics {
    fn new(reg: &Registry, cells: usize) -> Self {
        reg.describe("edgebol_fleet_running_slices", "Slices currently stepping");
        reg.describe("edgebol_fleet_pending_slices", "Slices waiting for admission");
        reg.describe("edgebol_fleet_spawned_total", "Slices admitted, by spawn mode");
        reg.describe("edgebol_fleet_retired_total", "Slices that completed their lifetime");
        reg.describe("edgebol_fleet_failed_total", "Slices whose control plane died");
        reg.describe(
            "edgebol_fleet_admission_rejected_total",
            "Slices refused admission at least once",
        );
        reg.describe("edgebol_fleet_admission_retries_total", "Failed admission attempts");
        reg.describe(
            "edgebol_fleet_admission_forced_total",
            "Admissions forced into an empty cell over budget",
        );
        reg.describe(
            "edgebol_fleet_transfer_out_of_range_total",
            "Warm-eligible spawns degraded to cold: nearest donor out of range",
        );
        reg.describe(
            "edgebol_fleet_kills_total",
            "Runners destroyed by the crash-injection schedule",
        );
        reg.describe(
            "edgebol_fleet_restores_total",
            "Killed slices resumed from a checkpoint with their posterior intact",
        );
        reg.describe(
            "edgebol_fleet_cold_restores_total",
            "Killed slices restarted cold: checkpoint missing or failed decode",
        );
        reg.describe("edgebol_fleet_checkpoints_total", "Per-slice checkpoint files written");
        reg.describe("edgebol_fleet_aggregate_j", "Running sum of every slice-period's cost");
        reg.describe("edgebol_fleet_gpu_load", "Admitted demand units per cell");
        FleetMetrics {
            running: reg.gauge("edgebol_fleet_running_slices"),
            pending: reg.gauge("edgebol_fleet_pending_slices"),
            spawned_warm: reg.counter_with("edgebol_fleet_spawned_total", &[("mode", "warm")]),
            spawned_cold: reg.counter_with("edgebol_fleet_spawned_total", &[("mode", "cold")]),
            retired: reg.counter("edgebol_fleet_retired_total"),
            failed: reg.counter("edgebol_fleet_failed_total"),
            rejected: reg.counter("edgebol_fleet_admission_rejected_total"),
            retries: reg.counter("edgebol_fleet_admission_retries_total"),
            forced: reg.counter("edgebol_fleet_admission_forced_total"),
            out_of_range: reg.counter("edgebol_fleet_transfer_out_of_range_total"),
            kills: reg.counter("edgebol_fleet_kills_total"),
            restores: reg.counter("edgebol_fleet_restores_total"),
            cold_restores: reg.counter("edgebol_fleet_cold_restores_total"),
            checkpoints: reg.counter("edgebol_fleet_checkpoints_total"),
            aggregate_j: reg.gauge("edgebol_fleet_aggregate_j"),
            cell_load: (0..cells)
                .map(|c| reg.gauge_with("edgebol_fleet_gpu_load", &[("cell", &c.to_string())]))
                .collect(),
        }
    }
}

/// A fleet of EdgeBOL slices sharing M GPU-backed cells.
pub struct Fleet {
    cfg: FleetConfig,
    metrics: Registry,
    journal: Option<Arc<Journal>>,
    health: Option<HealthHandle>,
}

impl Fleet {
    /// Builds a fleet from `cfg`. Observability is off by default; wire
    /// it with [`Fleet::with_metrics`] / [`Fleet::with_journal`].
    ///
    /// ```
    /// use edgebol_fleet::{Fleet, FleetConfig};
    ///
    /// let mut cfg = FleetConfig::quick(6);
    /// cfg.periods = 12;
    /// let report = Fleet::new(cfg).run();
    /// assert_eq!(report.slices.len(), 6);
    /// // The late wave spawned after the seed wave and warm-started.
    /// assert!(report.warm_spawns + report.cold_spawns == 6);
    /// assert!(report.slices.iter().any(|s| s.spawned_at > 0));
    /// ```
    pub fn new(cfg: FleetConfig) -> Self {
        assert!(cfg.slices > 0, "a fleet needs at least one slice");
        assert!(cfg.cells > 0, "a fleet needs at least one cell");
        assert!(cfg.periods > 0, "slices must live at least one period");
        assert!(cfg.gpu_capacity > 0.0 && cfg.overcommit >= 1.0, "admission budget must be real");
        Fleet { cfg, metrics: Registry::disabled(), journal: None, health: None }
    }

    /// Records fleet gauges and counters, and the lockstep pool's
    /// runner series, into `reg` (share it with an
    /// [`edgebol_oran::OpsServer`] to expose them on `/metrics`).
    pub fn with_metrics(mut self, reg: Registry) -> Self {
        self.metrics = reg;
        self
    }

    /// Streams slice lifecycle events (layer `fleet`) into `journal`.
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Mirrors kill/restore health onto `health` (share it with the
    /// ops surface so `/healthz` dips while a killed slice is down and
    /// recovers when the restored runner re-registers its circuit
    /// state).
    pub fn with_health(mut self, health: HealthHandle) -> Self {
        self.health = Some(health);
        self
    }

    fn journal_event(
        &self,
        kind: &'static str,
        period: usize,
        fields: Vec<(&'static str, String)>,
    ) {
        if let Some(j) = &self.journal {
            j.record(Layer::Fleet, kind, Some(period as u64), fields);
        }
    }

    /// Per-slice GPU demand estimate: a base share plus a per-user
    /// share, so heavier slices claim more of the admission budget.
    fn demand_of(scenario: &Scenario) -> f64 {
        0.1 + 0.05 * scenario.num_users() as f64
    }

    /// Runs the fleet to completion: every slice spawns (modulo
    /// admission delay), lives [`FleetConfig::periods`] periods and
    /// retires. Returns the deterministic report.
    pub fn run(&mut self) -> FleetReport {
        let cfg = self.cfg.clone();
        let fm = FleetMetrics::new(&self.metrics, cfg.cells);
        let seed_wave = cfg.seed_wave();
        let mut slots: Vec<SliceSlot> = (0..cfg.slices)
            .map(|i| {
                let scenario = Scenario::fleet_slice(i as u64);
                SliceSlot {
                    id: i as u64,
                    cell: i % cfg.cells,
                    demand: Self::demand_of(&scenario),
                    phase: SlicePhase::Pending {
                        eligible_at: if i < seed_wave { 0 } else { cfg.stagger },
                    },
                    runner: None,
                    trace: Trace::default(),
                    unit_ctx: [0.0; 3],
                    spawned_at: 0,
                    warm: false,
                    donor: None,
                    completed: 0,
                    failed: false,
                    rejected_once: false,
                    experience: None,
                }
            })
            .collect();
        let mut cell_load = vec![0.0f64; cfg.cells];
        let mut report = FleetReport {
            slices: Vec::new(),
            cells: cfg.cells,
            total_periods: 0,
            slice_periods: 0,
            aggregate_j: 0.0,
            warm_spawns: 0,
            cold_spawns: 0,
            admission_rejected: 0,
            admission_retries: 0,
            admission_forced: 0,
            transfer_out_of_range: 0,
            failed: 0,
            kills: 0,
            restores: 0,
            cold_restores: 0,
            checkpoints: 0,
        };
        let threads = cfg
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));

        let mut t = 0usize;
        let mut restored_any = false;
        loop {
            let all_retired = slots.iter().all(|s| s.phase == SlicePhase::Retired);
            if all_retired {
                break;
            }
            assert!(
                t < 1_000_000,
                "fleet driver did not converge: {} slices still pending at period {t}",
                slots.iter().filter(|s| s.phase != SlicePhase::Retired).count()
            );

            // Crash-injection pass (driver thread, schedule order):
            // destroy each scheduled runner before the period steps,
            // then restart it from the latest checkpoint.
            for (kid, at) in cfg.kill_schedule.iter().copied() {
                if at != t {
                    continue;
                }
                let Some(i) = slots.iter().position(|s| s.id == kid) else { continue };
                if slots[i].phase != SlicePhase::Running {
                    continue;
                }
                // The simulated crash: the runner is dropped on the
                // floor — no experience export, no state drain.
                drop(slots[i].runner.take());
                report.kills += 1;
                fm.kills.inc();
                if let Some(h) = &self.health {
                    h.set(CircuitState::Open { probe_at: 0 });
                }
                self.journal_event("slice_killed", t, vec![("slice", kid.to_string())]);
                restored_any = true;
                let started = std::time::Instant::now();
                match Self::try_restore(&cfg, &mut slots[i]) {
                    Ok(resume_at) => {
                        report.restores += 1;
                        fm.restores.inc();
                        if let (Some(h), Some(r)) = (&self.health, &slots[i].runner) {
                            h.set(r.lock().unwrap_or_else(|e| e.into_inner()).circuit_state());
                        }
                        self.journal_event(
                            "slice_restored",
                            t,
                            vec![
                                ("slice", kid.to_string()),
                                ("ckpt_period", resume_at.to_string()),
                                ("resumed_completed", slots[i].completed.to_string()),
                                ("restore_us", started.elapsed().as_micros().to_string()),
                            ],
                        );
                    }
                    Err(e) => {
                        self.journal_event(
                            "slice_restore_failed",
                            t,
                            vec![("slice", kid.to_string()), ("error", e.to_string())],
                        );
                        report.cold_restores += 1;
                        fm.cold_restores.inc();
                        self.cold_restart(&cfg, &mut slots[i], t, &mut report, &fm, &mut cell_load);
                    }
                }
            }

            // Admission pass (driver thread, id order — deterministic).
            for i in 0..slots.len() {
                let eligible = match slots[i].phase {
                    SlicePhase::Pending { eligible_at } => eligible_at <= t,
                    _ => false,
                };
                if !eligible {
                    continue;
                }
                let (cell, demand) = (slots[i].cell, slots[i].demand);
                let budget = cfg.gpu_capacity * cfg.overcommit;
                let empty = cell_load[cell] == 0.0;
                if cell_load[cell] + demand <= budget || empty {
                    if empty && demand > budget {
                        report.admission_forced += 1;
                        fm.forced.inc();
                    }
                    self.spawn(&cfg, &mut slots, i, t, &mut report, &fm);
                    if slots[i].phase == SlicePhase::Running {
                        cell_load[cell] += demand;
                    }
                } else {
                    report.admission_retries += 1;
                    fm.retries.inc();
                    if !slots[i].rejected_once {
                        slots[i].rejected_once = true;
                        report.admission_rejected += 1;
                        fm.rejected.inc();
                        self.journal_event(
                            "admission_rejected",
                            t,
                            vec![
                                ("slice", slots[i].id.to_string()),
                                ("cell", cell.to_string()),
                                ("load", format!("{:.2}", cell_load[cell])),
                            ],
                        );
                    }
                }
            }

            // Contention pass: overcommitted cells slow everyone down.
            for (c, load) in cell_load.iter().enumerate() {
                fm.cell_load[c].set(*load);
            }
            for slot in slots.iter_mut() {
                if slot.phase == SlicePhase::Running {
                    let factor = (cell_load[slot.cell] / cfg.gpu_capacity).max(1.0);
                    if let Some(r) = &mut slot.runner {
                        r.get_mut().unwrap_or_else(|e| e.into_inner()).set_gpu_contention(factor);
                    }
                }
            }

            // Lockstep step across worker threads; results come back in
            // slice-index order regardless of which worker ran what.
            let running: Vec<usize> =
                (0..slots.len()).filter(|&i| slots[i].phase == SlicePhase::Running).collect();
            fm.running.set(running.len() as f64);
            fm.pending.set(
                slots.iter().filter(|s| matches!(s.phase, SlicePhase::Pending { .. })).count()
                    as f64,
            );
            let slots_ref = &slots;
            let running_ref = &running;
            let n = running.len();
            let results = parallel_map_threads(threads.min(n.max(1)), n, &self.metrics, {
                move |k| {
                    let slot = &slots_ref[running_ref[k]];
                    let mut orch = slot
                        .runner
                        .as_ref()
                        .expect("running slice has a runner")
                        .lock()
                        .unwrap_or_else(|e| e.into_inner());
                    orch.try_step()
                }
            });

            // Collect in index order on the driver thread, so float
            // accumulation never depends on scheduling.
            for (k, res) in results.into_iter().enumerate() {
                let i = running[k];
                match res {
                    Ok(rec) => {
                        report.aggregate_j += rec.cost;
                        report.slice_periods += 1;
                        slots[i].trace.records.push(rec);
                        slots[i].completed += 1;
                        if slots[i].completed >= cfg.periods {
                            self.retire(&mut slots[i], t, false, &mut report, &fm);
                            cell_load[slots[i].cell] -= slots[i].demand;
                        }
                    }
                    Err(e) => {
                        self.journal_event(
                            "slice_failed",
                            t,
                            vec![("slice", slots[i].id.to_string()), ("error", e.to_string())],
                        );
                        self.dump_slice_flight(&slots[i], &e);
                        self.retire(&mut slots[i], t, true, &mut report, &fm);
                        cell_load[slots[i].cell] -= slots[i].demand;
                    }
                }
            }
            fm.aggregate_j.set(report.aggregate_j);

            // Checkpoint pass: snapshot every running slice after each
            // ckpt_every-th period, atomically (temp file + rename), so
            // a kill at any instant finds either the old or the new
            // checkpoint — never a torn one.
            if let Some(dir) = &cfg.ckpt_dir {
                if cfg.ckpt_every > 0 && (t + 1).is_multiple_of(cfg.ckpt_every) {
                    for slot in slots.iter().filter(|s| s.phase == SlicePhase::Running) {
                        match Self::checkpoint_slice(dir, slot, t) {
                            Ok(()) => {
                                report.checkpoints += 1;
                                fm.checkpoints.inc();
                            }
                            Err(e) => {
                                // A failed write must not kill the fleet
                                // (or perturb the deterministic summary):
                                // the slice just keeps its older file.
                                self.journal_event(
                                    "ckpt_failed",
                                    t,
                                    vec![("slice", slot.id.to_string()), ("error", e.to_string())],
                                );
                            }
                        }
                    }
                }
            }
            t += 1;
        }
        // Restores re-run periods the pre-kill pass already counted, so
        // the streaming aggregates double-count. Recompute them from the
        // (truncated) traces — but only when a restore happened, keeping
        // uninterrupted runs bit-identical to the historical accumulation
        // order.
        if restored_any {
            report.aggregate_j = slots.iter().map(|s| s.trace.costs().iter().sum::<f64>()).sum();
            report.slice_periods = slots.iter().map(|s| s.trace.records.len()).sum();
            fm.aggregate_j.set(report.aggregate_j);
        }
        report.total_periods = t;
        fm.running.set(0.0);
        fm.pending.set(0.0);
        self.journal_event(
            "fleet_done",
            t,
            vec![
                ("slices", cfg.slices.to_string()),
                ("slice_periods", report.slice_periods.to_string()),
            ],
        );
        report.slices.sort_by_key(|s| s.id);
        report
    }

    /// Spawns slice `i` at period `t`: builds its environment, picks a
    /// donor if warm-starting, and wires the orchestrator over the
    /// in-process poll transport (cheapest at fleet scale).
    fn spawn(
        &self,
        cfg: &FleetConfig,
        slots: &mut [SliceSlot],
        i: usize,
        t: usize,
        report: &mut FleetReport,
        fm: &FleetMetrics,
    ) {
        let id = slots[i].id;
        let (env, mut agent, spec, unit_ctx) = Self::fresh_parts(cfg, id);

        // Donor selection: nearest eligible slice in unit context space,
        // accepted only within the transfer radius.
        let mut donor: Option<(usize, f64)> = None;
        if cfg.warm_start && t > 0 {
            for (j, cand) in slots.iter().enumerate() {
                let eligible = j != i
                    && cand.completed >= cfg.min_donor_periods
                    && matches!(cand.phase, SlicePhase::Running | SlicePhase::Retired)
                    && !cand.failed;
                if !eligible {
                    continue;
                }
                let d = dist(&unit_ctx, &cand.unit_ctx);
                if donor.map(|(_, best)| d < best).unwrap_or(true) {
                    donor = Some((j, d));
                }
            }
        }
        let (experience, donor_id) = match donor {
            Some((j, d)) if d <= cfg.transfer_radius => {
                let exp = match &slots[j].experience {
                    Some(e) => Some(e.clone()),
                    None => slots[j].runner.as_ref().and_then(|r| {
                        r.lock().unwrap_or_else(|e| e.into_inner()).agent_experience()
                    }),
                };
                (exp, Some(slots[j].id))
            }
            Some((_, _)) => {
                report.transfer_out_of_range += 1;
                fm.out_of_range.inc();
                (None, None)
            }
            None => (None, None),
        };

        let warm = match &experience {
            Some(exp) if !exp.is_empty() => {
                let cap = exp.len().saturating_sub(cfg.transfer_cap);
                agent = agent.with_experience(&exp[cap..]);
                true
            }
            _ => false,
        };

        let slot = &mut slots[i];
        slot.unit_ctx = unit_ctx;
        slot.spawned_at = t;
        slot.warm = warm;
        slot.donor = if warm { donor_id } else { None };
        match Self::runner(cfg, env, agent, spec) {
            Ok(orch) => {
                slot.runner = Some(Mutex::new(orch));
                slot.phase = SlicePhase::Running;
                if warm {
                    report.warm_spawns += 1;
                    fm.spawned_warm.inc();
                } else {
                    report.cold_spawns += 1;
                    fm.spawned_cold.inc();
                }
                self.journal_event(
                    "slice_spawned",
                    t,
                    vec![
                        ("slice", id.to_string()),
                        ("cell", slot.cell.to_string()),
                        ("mode", if warm { "warm".into() } else { "cold".into() }),
                        ("donor", slot.donor.map(|d| d.to_string()).unwrap_or_else(|| "-".into())),
                    ],
                );
            }
            Err(e) => {
                // The in-process control plane cannot realistically fail
                // to wire up, but a dead slice must not wedge the fleet.
                slot.phase = SlicePhase::Retired;
                slot.failed = true;
                report.failed += 1;
                fm.failed.inc();
                report.slices.push(SliceReport {
                    id,
                    cell: slot.cell,
                    spawned_at: t,
                    warm: false,
                    donor: None,
                    periods: 0,
                    convergence_period: None,
                    mean_cost: 0.0,
                    early_cost: 0.0,
                    tail_cost: 0.0,
                    satisfaction: 1.0,
                });
                self.journal_event(
                    "slice_failed",
                    t,
                    vec![("slice", id.to_string()), ("error", e.to_string())],
                );
            }
        }
    }

    /// Builds the deterministic per-slice parts every construction path
    /// shares: environment, cold agent, problem spec and unit context.
    /// Spawn, checkpoint restore and cold restart all come through
    /// here, so a restored slice is built from exactly the seeds its
    /// original spawn used (restore then overwrites the RNG streams
    /// from the snapshot).
    fn fresh_parts(
        cfg: &FleetConfig,
        id: u64,
    ) -> (FlowTestbed, EdgeBolAgent, ProblemSpec, [f64; 3]) {
        let env_seed = cfg.seed.wrapping_add(id.wrapping_mul(0x9E37_79B9));
        let mut env = FlowTestbed::new(Calibration::fast(), Scenario::fleet_slice(id), env_seed);
        let unit_ctx = env.observe_context().to_unit();
        let spec = ProblemSpec::new(1.0, 8.0, cfg.d_max, cfg.rho_min);
        let agent = EdgeBolAgent::quick_for_tests(&spec, env_seed.wrapping_add(1));
        (env, agent, spec, unit_ctx)
    }

    /// A slice's runner over `env` and `agent`: the in-process poll
    /// transport under the fleet's fault schedule, without metrics.
    fn runner(
        cfg: &FleetConfig,
        env: FlowTestbed,
        agent: EdgeBolAgent,
        spec: ProblemSpec,
    ) -> Result<Orchestrator, OrchestratorError> {
        Orchestrator::new_with_transport(
            Box::new(env),
            Box::new(agent),
            spec,
            cfg.chaos.clone(),
            Registry::disabled(),
            TransportKind::Poll,
        )
    }

    /// Writes one slice's checkpoint: driver-side lifecycle meta plus
    /// the orchestrator's full snapshot (learner, supervisor, env),
    /// framed and CRC'd by `edgebol_ckpt`, atomically replacing any
    /// previous file.
    fn checkpoint_slice(dir: &Path, slot: &SliceSlot, t: usize) -> Result<(), CkptError> {
        let orch_bytes = slot
            .runner
            .as_ref()
            .expect("running slice has a runner")
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .save_state();
        let mut e = Enc::new();
        e.u64(slot.id);
        e.usize(t + 1); // first lockstep period a restore will re-run
        e.usize(slot.completed);
        e.usize(slot.spawned_at);
        e.bool(slot.warm);
        e.bool(slot.donor.is_some());
        e.u64(slot.donor.unwrap_or(0));
        e.bytes(&orch_bytes);
        edgebol_ckpt::write_atomic(
            &dir.join(format!("slice-{}.ckpt", slot.id)),
            SLICE_CKPT_KIND,
            &e.finish(),
        )
    }

    /// Restores a killed slice from `ckpt_dir/slice-<id>.ckpt`. On
    /// success the slot's runner resumes bit-identically from the
    /// checkpointed period (its trace is truncated back to the
    /// checkpointed progress, so re-run periods are not double-kept)
    /// and the lockstep period the restore re-runs from is returned.
    /// Every failure — no directory, missing file, torn or corrupt
    /// frame, wrong slice — is a typed [`CkptError`] the caller turns
    /// into a counted cold restart, never a panic.
    fn try_restore(cfg: &FleetConfig, slot: &mut SliceSlot) -> Result<usize, CkptError> {
        let dir = cfg
            .ckpt_dir
            .as_ref()
            .ok_or_else(|| CkptError::BadValue("no checkpoint directory configured".into()))?;
        let payload =
            edgebol_ckpt::read(&dir.join(format!("slice-{}.ckpt", slot.id)), SLICE_CKPT_KIND)?;
        let mut d = Dec::new(&payload);
        let id = d.u64()?;
        if id != slot.id {
            return Err(CkptError::BadValue(format!(
                "checkpoint is for slice {id}, expected {}",
                slot.id
            )));
        }
        let resume_at = d.usize()?;
        let completed = d.usize()?;
        if completed > slot.trace.records.len() {
            return Err(CkptError::BadValue(format!(
                "checkpoint claims {completed} completed periods, trace has {}",
                slot.trace.records.len()
            )));
        }
        let spawned_at = d.usize()?;
        let warm = d.bool()?;
        let has_donor = d.bool()?;
        let donor_raw = d.u64()?;
        let orch_bytes = d.byte_vec()?;
        d.expect_end()?;

        let (env, agent, spec, unit_ctx) = Self::fresh_parts(cfg, slot.id);
        let mut orch = Self::runner(cfg, env, agent, spec)
            .map_err(|e| CkptError::BadValue(format!("control plane rebuild failed: {e}")))?;
        orch.restore_state(&orch_bytes)?;

        slot.runner = Some(Mutex::new(orch));
        slot.trace.records.truncate(completed);
        slot.completed = completed;
        slot.spawned_at = spawned_at;
        slot.warm = warm;
        slot.donor = has_donor.then_some(donor_raw);
        slot.unit_ctx = unit_ctx;
        slot.phase = SlicePhase::Running;
        Ok(resume_at)
    }

    /// Cold-restart fallback when a killed slice has no usable
    /// checkpoint: the slice keeps its admission slot but restarts its
    /// whole lifetime — fresh environment, fresh (cold) learner, empty
    /// trace. Only when even the rebuild fails does the slice retire as
    /// failed and release its GPU share.
    fn cold_restart(
        &self,
        cfg: &FleetConfig,
        slot: &mut SliceSlot,
        t: usize,
        report: &mut FleetReport,
        fm: &FleetMetrics,
        cell_load: &mut [f64],
    ) {
        let (env, agent, spec, unit_ctx) = Self::fresh_parts(cfg, slot.id);
        match Self::runner(cfg, env, agent, spec) {
            Ok(orch) => {
                slot.runner = Some(Mutex::new(orch));
                slot.trace = Trace::default();
                slot.completed = 0;
                slot.spawned_at = t;
                slot.warm = false;
                slot.donor = None;
                slot.unit_ctx = unit_ctx;
                slot.phase = SlicePhase::Running;
                if let Some(h) = &self.health {
                    h.set(CircuitState::Connected);
                }
                self.journal_event("slice_cold_restarted", t, vec![("slice", slot.id.to_string())]);
            }
            Err(e) => {
                self.journal_event(
                    "slice_failed",
                    t,
                    vec![("slice", slot.id.to_string()), ("error", e.to_string())],
                );
                self.retire(slot, t, true, report, fm);
                cell_load[slot.cell] -= slot.demand;
            }
        }
    }

    /// A slice whose control plane dies mid-fleet dumps the same JSON
    /// incident file the single-run driver's flight recorder writes
    /// (same retention, same meta shape via
    /// [`Orchestrator::flight_meta`]), tagged with the slice id, when
    /// [`FleetConfig::flight_dir`] is set. Without an attached journal
    /// the record carries the meta rows and no events.
    fn dump_slice_flight(&self, slot: &SliceSlot, e: &OrchestratorError) {
        let Some(dir) = &self.cfg.flight_dir else { return };
        let mut meta = match &slot.runner {
            Some(r) => r.lock().unwrap_or_else(|p| p.into_inner()).flight_meta(e),
            None => vec![("error", e.to_string()), ("stage", e.stage().to_string())],
        };
        meta.push(("slice", slot.id.to_string()));
        let empty;
        let journal = match &self.journal {
            Some(j) => j.as_ref(),
            None => {
                empty = Journal::with_capacity(1);
                &empty
            }
        };
        let keep = edgebol_trace::FLIGHT_KEEP_PERIODS;
        match edgebol_trace::dump_flight_record(dir, e.stage(), keep, journal, &meta) {
            Ok(path) => eprintln!(
                "[edgebol-fleet] flight record for slice {} written to {}",
                slot.id,
                path.display()
            ),
            Err(io) => {
                eprintln!("[edgebol-fleet] flight record for slice {} failed: {io}", slot.id)
            }
        }
    }

    /// Retires a slice: exports its final experience for future donors,
    /// drops the orchestrator and records its report row.
    fn retire(
        &self,
        slot: &mut SliceSlot,
        t: usize,
        failed: bool,
        report: &mut FleetReport,
        fm: &FleetMetrics,
    ) {
        if let Some(r) = slot.runner.take() {
            let orch = r.into_inner().unwrap_or_else(|e| e.into_inner());
            slot.experience = orch.agent_experience();
        }
        slot.phase = SlicePhase::Retired;
        slot.failed = slot.failed || failed;
        if failed {
            report.failed += 1;
            fm.failed.inc();
        } else {
            fm.retired.inc();
        }
        let conv = slot.trace.convergence_period(0.1);
        self.journal_event(
            "slice_retired",
            t,
            vec![
                ("slice", slot.id.to_string()),
                ("periods", slot.completed.to_string()),
                ("convergence", conv.map(|c| c.to_string()).unwrap_or_else(|| "-".into())),
            ],
        );
        report.slices.push(SliceReport {
            id: slot.id,
            cell: slot.cell,
            spawned_at: slot.spawned_at,
            warm: slot.warm,
            donor: slot.donor,
            periods: slot.completed,
            convergence_period: conv,
            mean_cost: if slot.completed == 0 {
                0.0
            } else {
                slot.trace.costs().iter().sum::<f64>() / slot.completed as f64
            },
            early_cost: {
                let k = slot.completed.min(8);
                if k == 0 {
                    0.0
                } else {
                    slot.trace.costs()[..k].iter().sum::<f64>() / k as f64
                }
            },
            tail_cost: if slot.completed == 0 { 0.0 } else { slot.trace.tail_mean_cost(10) },
            satisfaction: slot.trace.satisfaction_rate(6),
        });
    }
}

/// Euclidean distance in unit context space.
fn dist(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

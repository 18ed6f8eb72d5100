//! Bounded fault injection and recovery validation.
//!
//! The paper's model is fault-free: every firing takes at most its
//! worst-case response time.  Real platforms stall (cache refills, bus
//! contention, preemption, a dropped firing redone `n` times — a stall of
//! `n · ρ`).  This module perturbs a simulation with *bounded* stalls — a
//! window of firings of one task whose response times are each inflated
//! by a fixed `Δ` ([`TaskFault`]) — and measures how the analysed
//! capacities degrade.
//!
//! A [`FaultPlan`] rides in the run's [`crate::SimConfig::faults`] and
//! compiles onto the engine's integer tick clock when the
//! [`crate::SimPlan`] is built, so injection costs one branch per firing
//! start.  An **empty plan** (the default) runs the fault-free engine:
//! `tests/faults.rs` pins it bit-identical to the hook-free reference
//! engine.
//!
//! [`validate_capacities_under_faults`] replays the full scenario battery
//! of [`crate::validate_capacities`] under a fault plan — each scenario
//! runs past its first deadline miss, so the post-fault transient is
//! observable — and grades each scenario with a [`RecoveryVerdict`]:
//! did strict periodicity hold throughout ([`RecoveryVerdict::Unaffected`]),
//! re-establish within a bounded recovery window
//! ([`RecoveryVerdict::Recovered`]), keep missing past it
//! ([`RecoveryVerdict::Missed`]), or stall permanently
//! ([`RecoveryVerdict::Deadlocked`])?  The recovery window is `K` endpoint
//! periods after the *last* instant a fault perturbed the run (the finish
//! of the last stalled firing, [`crate::SimReport::last_fault_time`]); `K`
//! is [`FaultValidationOptions::recovery_firings`].  The maximum transient
//! backlog per buffer is the per-run occupancy high-water mark already
//! tracked in [`crate::BufferStats::max_occupancy`], surfaced per
//! scenario by [`FaultScenarioResult::transient_backlog`].

use std::fmt;

use vrdf_core::{AnalysisError, BufferId, GraphAnalysis, Rational, TaskGraph};

use crate::engine::{SimOutcome, SimReport};
use crate::validate::{
    conservative_offset, ScenarioResult, ScenarioRunner, ValidationOptions, WorkerPanic,
};
use crate::SimError;

/// A bounded stall window on one task: firings
/// `[first_firing, first_firing + firings)` each take `delta` extra time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskFault {
    /// Name of the task the fault strikes.
    pub task: String,
    /// Zero-based index of the first affected firing.
    pub first_firing: u64,
    /// Number of consecutive affected firings.
    pub firings: u64,
    /// Extra response time per affected firing (non-negative).
    pub delta: Rational,
}

/// A bounded fault scenario: finitely many task stalls.  Set it as
/// [`crate::SimConfig::faults`]; it is compiled to tick-space
/// perturbations when the [`crate::SimPlan`] is built.  Only the tick
/// engine injects faults:
/// [`crate::ReferenceSimulator::new`] refuses a non-empty plan with
/// [`SimError::InvalidFault`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Per-task stall windows.
    pub task_faults: Vec<TaskFault>,
}

impl FaultPlan {
    /// An empty plan — injects nothing and is bit-identical to the
    /// uninjected engine.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// `true` when the plan perturbs nothing.
    pub fn is_empty(&self) -> bool {
        self.task_faults.is_empty()
    }

    /// Adds a transient stall: firings `[first_firing, first_firing +
    /// firings)` of `task` each take `delta` extra time.
    #[must_use]
    pub fn stall(mut self, task: &str, first_firing: u64, firings: u64, delta: Rational) -> Self {
        self.task_faults.push(TaskFault {
            task: task.to_owned(),
            first_firing,
            firings,
            delta,
        });
        self
    }

    /// Every rational time the plan introduces — folded into the tick
    /// clock's denominator LCM alongside the run's own times.
    pub(crate) fn time_values(&self) -> impl Iterator<Item = Rational> + '_ {
        self.task_faults.iter().map(|f| f.delta)
    }

    /// Compiles the plan onto the tick clock: task names resolve to
    /// topological positions, stall durations to ticks.
    ///
    /// `task_pos` maps `TaskId::index()` to topological position.
    pub(crate) fn compile(
        &self,
        tg: &TaskGraph,
        task_pos: &[u32],
        tick_den: i128,
    ) -> Result<CompiledFaults, SimError> {
        let mut compiled = CompiledFaults::default();
        for fault in &self.task_faults {
            let tid = tg.task_by_name(&fault.task).ok_or_else(|| {
                SimError::Analysis(AnalysisError::UnknownName(fault.task.clone()))
            })?;
            if fault.firings == 0 {
                continue;
            }
            if fault.delta < Rational::ZERO {
                return Err(SimError::InvalidFault {
                    detail: format!(
                        "stall delta of `{}` must be non-negative, got {}",
                        fault.task, fault.delta
                    ),
                });
            }
            let overflow = || SimError::TickOverflow {
                quantity: format!("fault stall delta of `{}`", fault.task),
            };
            let extra = fault.delta.to_ticks(tick_den).ok_or_else(overflow)?;
            if extra.unsigned_abs() > u64::MAX as u128 {
                return Err(overflow());
            }
            compiled.task_windows.push(TaskWindow {
                pos: task_pos[tid.index()],
                first: fault.first_firing,
                end: fault.first_firing.saturating_add(fault.firings),
                extra,
            });
        }
        Ok(compiled)
    }
}

/// One compiled per-task window: firings `[first, end)` of the task at
/// topological position `pos` take `extra` ticks on top of `ρ`.
#[derive(Clone, Debug)]
pub(crate) struct TaskWindow {
    pos: u32,
    first: u64,
    end: u64,
    extra: i128,
}

/// A [`FaultPlan`] rescaled onto one plan's tick clock.  Empty for
/// fault-free plans: the engine's fast path is a single emptiness check.
#[derive(Clone, Debug, Default)]
pub(crate) struct CompiledFaults {
    task_windows: Vec<TaskWindow>,
}

impl CompiledFaults {
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.task_windows.is_empty()
    }

    /// Extra ticks firing `k` of the task at position `pos` takes;
    /// overlapping windows add.
    #[inline]
    pub(crate) fn task_extra(&self, pos: u32, k: u64) -> i128 {
        let mut extra = 0;
        for w in &self.task_windows {
            if w.pos == pos && k >= w.first && k < w.end {
                extra += w.extra;
            }
        }
        extra
    }
}

/// How one scenario weathered a fault plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryVerdict {
    /// Strict periodicity held throughout: the provisioned slack absorbed
    /// the fault without a single deadline miss.
    Unaffected,
    /// Deadlines were missed, but every miss lies within the recovery
    /// window — the release of the last miss is at most `K` periods after
    /// the last fault instant — and the run completed its quota.  Strict
    /// periodicity re-established itself.
    Recovered {
        /// Deadline misses during the transient.
        misses: u64,
        /// Release time of the last miss.
        last_miss: Rational,
    },
    /// A deadline miss past the recovery window, or the run ended without
    /// completing its quota — periodicity did not provably recover.
    Missed {
        /// Total deadline misses observed.
        misses: u64,
    },
    /// The graph stalled permanently.
    Deadlocked,
}

impl RecoveryVerdict {
    /// `true` for [`RecoveryVerdict::Unaffected`] and
    /// [`RecoveryVerdict::Recovered`].
    pub fn is_recovered(&self) -> bool {
        matches!(
            self,
            RecoveryVerdict::Unaffected | RecoveryVerdict::Recovered { .. }
        )
    }
}

impl fmt::Display for RecoveryVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryVerdict::Unaffected => f.write_str("unaffected"),
            RecoveryVerdict::Recovered { misses, last_miss } => {
                write!(f, "recovered ({misses} misses, last at {last_miss})")
            }
            RecoveryVerdict::Missed { misses } => write!(f, "MISSED ({misses} misses)"),
            RecoveryVerdict::Deadlocked => f.write_str("DEADLOCKED"),
        }
    }
}

/// One scenario of the fault battery, graded.
#[derive(Clone, Debug)]
pub struct FaultScenarioResult {
    /// Scenario name (`"const-max"`, `"random-2"`, …).
    pub name: String,
    /// The recovery verdict.
    pub verdict: RecoveryVerdict,
    /// The full simulation report of the scenario.
    pub report: SimReport,
}

impl FaultScenarioResult {
    /// Per-buffer maximum transient backlog: `(name, max_occupancy,
    /// capacity)` — how close each buffer came to its provisioned bound
    /// while absorbing the fault.
    pub fn transient_backlog(&self) -> Vec<(String, u64, u64)> {
        self.report
            .buffers
            .iter()
            .map(|b| (b.name.clone(), b.max_occupancy, b.capacity))
            .collect()
    }
}

/// Tunables for [`validate_capacities_under_faults`].
#[derive(Clone, Debug)]
pub struct FaultValidationOptions {
    /// The underlying scenario battery.  Every scenario runs past its
    /// first deadline miss — grading recovery requires it.
    pub validation: ValidationOptions,
    /// The recovery window `K`, in endpoint firings: every deadline miss
    /// must be released at most `K · τ` after the last fault instant for
    /// a scenario to grade [`RecoveryVerdict::Recovered`].
    pub recovery_firings: u64,
}

impl Default for FaultValidationOptions {
    fn default() -> Self {
        FaultValidationOptions {
            validation: ValidationOptions::default(),
            recovery_firings: 8,
        }
    }
}

/// The verdict of [`validate_capacities_under_faults`] over all
/// scenarios.
#[derive(Clone, Debug)]
pub struct FaultValidationReport {
    /// The strictly periodic offset every scenario used.
    pub offset: Rational,
    /// The recovery window `K` the grading used, in endpoint firings.
    pub recovery_firings: u64,
    /// The endpoint period `τ`.
    pub period: Rational,
    /// One graded result per scenario.
    pub scenarios: Vec<FaultScenarioResult>,
    /// Scenarios whose probe worker panicked (isolated — the battery
    /// completed without them).
    pub panics: Vec<WorkerPanic>,
}

impl FaultValidationReport {
    /// `true` when every scenario ran and recovered (or was never
    /// affected).
    pub fn all_recovered(&self) -> bool {
        self.panics.is_empty() && self.scenarios.iter().all(|s| s.verdict.is_recovered())
    }

    /// The scenarios that did not recover.
    pub fn failures(&self) -> impl Iterator<Item = &FaultScenarioResult> {
        self.scenarios.iter().filter(|s| !s.verdict.is_recovered())
    }

    /// The worst (largest) per-buffer transient backlog across all
    /// scenarios: `(name, max_occupancy, capacity)`.
    pub fn peak_backlog(&self) -> Vec<(String, u64, u64)> {
        let mut peak: Vec<(String, u64, u64)> = Vec::new();
        for s in &self.scenarios {
            for (name, occupancy, capacity) in s.transient_backlog() {
                match peak.iter_mut().find(|(n, _, _)| *n == name) {
                    Some(entry) => entry.1 = entry.1.max(occupancy),
                    None => peak.push((name, occupancy, capacity)),
                }
            }
        }
        peak
    }
}

impl fmt::Display for FaultValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fault validation at offset {} (K = {} firings): {}/{} scenarios recovered",
            self.offset,
            self.recovery_firings,
            self.scenarios
                .iter()
                .filter(|s| s.verdict.is_recovered())
                .count(),
            self.scenarios.len()
        )?;
        for s in &self.scenarios {
            writeln!(f, "  {:<12} {}", s.name, s.verdict)?;
        }
        for p in &self.panics {
            writeln!(f, "  {:<12} PANICKED: {}", p.scenario, p.message)?;
        }
        Ok(())
    }
}

/// Replays the computed capacities, with per-buffer `overrides` applied
/// on top (later entries win), against the scenario battery under a
/// bounded fault plan and grades each scenario's recovery.
///
/// Offset and release convention come from the analysis exactly as in
/// [`crate::validate_capacities`] — the offset stays the analysed
/// assignment's conservative one whatever the overrides — so padding an
/// edge (fault headroom) or starving one (an under-provisioned
/// assignment) is compared on the same schedule.  The only battery
/// difference is that scenarios run past their first deadline miss, so
/// the post-fault transient (and its recovery or persistence) is fully
/// observable.
///
/// # Errors
///
/// Propagates [`SimError`] from construction — including
/// [`SimError::InvalidFault`] for a negative stall, [`SimError::Analysis`]
/// for an unknown task name in the fault plan, and
/// [`SimError::TickOverflow`] when the graph's or the plan's times do not
/// fit the tick clock, and [`SimError::NoEndpointFirings`] for a battery
/// of zero endpoint firings.  Scenario violations are graded, not raised.
pub fn validate_capacities_under_faults(
    tg: &TaskGraph,
    analysis: &GraphAnalysis,
    overrides: &[(BufferId, u64)],
    faults: &FaultPlan,
    opts: &FaultValidationOptions,
) -> Result<FaultValidationReport, SimError> {
    let sized = analysis.with_capacities(tg, overrides);
    let offset = conservative_offset(tg, analysis)?
        .checked_add(opts.validation.extra_offset)
        .ok_or_else(crate::validate::offset_overflow)?;
    let constraint = analysis.constraint();
    let report = ScenarioRunner::build(
        &sized,
        constraint,
        offset,
        analysis.options().release,
        &opts.validation,
        Some(faults.clone()),
    )?
    .validate(&[])?;
    let period = constraint.period();
    Ok(FaultValidationReport {
        offset: report.offset,
        recovery_firings: opts.recovery_firings,
        period,
        scenarios: report
            .scenarios
            .into_iter()
            .map(|s| grade_scenario(s, period, opts.recovery_firings))
            .collect(),
        panics: report.panics,
    })
}

/// Grades one scenario: the recovery window is `last_fault_time + K · τ`,
/// and every miss must be released inside `[first_fault_time, window]` —
/// a miss *before* the first fault instant means strict periodicity was
/// already broken without the fault's help, which is not recovery.
fn grade_scenario(
    scenario: ScenarioResult,
    period: Rational,
    recovery_firings: u64,
) -> FaultScenarioResult {
    let report = scenario.report;
    let misses = report.violations.len() as u64;
    let verdict = if matches!(report.outcome, SimOutcome::Deadlock { .. }) {
        RecoveryVerdict::Deadlocked
    } else if misses == 0 && report.ok() && scenario.occupancy_breaches.is_empty() {
        RecoveryVerdict::Unaffected
    } else {
        let window = report.first_fault_time.zip(
            report
                .last_fault_time
                .map(|t| t + Rational::from(recovery_firings) * period),
        );
        let within_window = match window {
            Some((start, end)) => report
                .violations
                .iter()
                .all(|v| v.release >= start && v.release <= end),
            // Misses with no fault ever injected: the capacities are
            // simply insufficient — nothing to recover *to*.
            None => false,
        };
        let last_miss = report.violations.last().map(|v| v.release);
        match last_miss {
            Some(last_miss) if within_window && matches!(report.outcome, SimOutcome::Completed) => {
                RecoveryVerdict::Recovered { misses, last_miss }
            }
            _ => RecoveryVerdict::Missed { misses },
        }
    };
    FaultScenarioResult {
        name: scenario.name,
        verdict,
        report,
    }
}

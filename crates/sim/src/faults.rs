//! Bounded fault injection and recovery validation.
//!
//! The paper's model is fault-free: every firing takes at most its
//! worst-case response time and the constrained endpoint is released on a
//! perfect period.  Real platforms stall (cache refills, bus contention,
//! preemption), drop work and retry it, and jitter their source clocks.
//! This module perturbs a simulation with *bounded* faults of exactly
//! those three shapes and measures how the analysed capacities degrade:
//!
//! * [`FaultKind::Stall`] — a transient stall: each affected firing's
//!   response time is inflated by a fixed `Δ`.
//! * [`FaultKind::DropRetry`] — a dropped firing with bounded retry: the
//!   firing's work is lost `attempts` times and redone, so its response
//!   time inflates by `attempts · ρ`.  Operationally this is a stall of a
//!   specific magnitude, kept distinct so fault plans read as what they
//!   model.
//! * [`ReleaseFault`] — release jitter: periodic releases of the
//!   constrained endpoint (the *source* in source-constrained mode) are
//!   issued late by a bounded, non-negative delay.
//!
//! A [`FaultPlan`] rides in the run's [`crate::SimConfig::faults`] and
//! compiles onto the engine's integer tick clock when the
//! [`crate::SimPlan`] is built, so injection costs one branch per firing
//! start.  An **empty plan** (the default) runs the fault-free engine:
//! `tests/faults.rs` pins it bit-identical to the hook-free reference
//! engine.
//!
//! [`validate_capacities_under_faults`] replays the full scenario battery
//! of [`crate::validate_capacities`] under a fault plan — with
//! `stop_on_violation` forced *off* so the post-fault transient is
//! observable — and grades each scenario with a [`RecoveryVerdict`]:
//! did strict periodicity hold throughout ([`RecoveryVerdict::Unaffected`]),
//! re-establish within a bounded recovery window
//! ([`RecoveryVerdict::Recovered`]), keep missing past it
//! ([`RecoveryVerdict::Missed`]), or stall permanently
//! ([`RecoveryVerdict::Deadlocked`])?  The recovery window is `K` endpoint
//! periods after the *last* instant a fault perturbed the run (the finish
//! of the last stalled firing or the issuance of the last delayed
//! release, [`crate::SimReport::last_fault_time`]); `K` is
//! [`FaultValidationOptions::recovery_firings`].  The maximum transient
//! backlog per buffer is the per-run occupancy high-water mark already
//! tracked in [`crate::BufferStats::max_occupancy`], surfaced per
//! scenario by [`FaultScenarioResult::transient_backlog`].

use std::fmt;

use vrdf_core::{AnalysisError, BufferId, GraphAnalysis, Rational, TaskGraph};

use crate::engine::{SimOutcome, SimReport};
use crate::validate::{
    conservative_offset, EngineKind, ScenarioResult, ScenarioRunner, ValidationOptions, WorkerPanic,
};
use crate::SimError;

/// The shape of a per-task fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Transient stall: each affected firing's response time is inflated
    /// by `delta` (non-negative).
    Stall {
        /// Extra response time per affected firing.
        delta: Rational,
    },
    /// Dropped firing with bounded retry: the firing's work is lost
    /// `attempts` times before succeeding, inflating its response time by
    /// `attempts · ρ`.
    DropRetry {
        /// Failed tries before the firing succeeds.
        attempts: u32,
    },
}

/// A bounded fault window on one task: firings
/// `[first_firing, first_firing + firings)` are perturbed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskFault {
    /// Name of the task the fault strikes.
    pub task: String,
    /// Zero-based index of the first affected firing.
    pub first_firing: u64,
    /// Number of consecutive affected firings.
    pub firings: u64,
    /// What happens to each affected firing.
    pub kind: FaultKind,
}

/// A bounded release-jitter window: periodic releases
/// `[first_release, first_release + releases)` of the constrained
/// endpoint are issued `delay` late.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReleaseFault {
    /// Zero-based index of the first delayed release.
    pub first_release: u64,
    /// Number of consecutive delayed releases.
    pub releases: u64,
    /// Non-negative issuance delay; the firing's deadline shifts with its
    /// release.
    pub delay: Rational,
}

/// A bounded fault scenario: task stalls, drop-retries, and release
/// jitter, all finite.  Set it as [`crate::SimConfig::faults`]; it is
/// compiled to tick-space perturbations when the [`crate::SimPlan`] is
/// built.  Only the tick engine injects faults:
/// [`crate::ReferenceSimulator::new`] refuses a non-empty plan with
/// [`SimError::InvalidFault`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Per-task fault windows.
    pub task_faults: Vec<TaskFault>,
    /// Release-jitter windows.
    pub release_faults: Vec<ReleaseFault>,
}

impl FaultPlan {
    /// An empty plan — injects nothing and is bit-identical to the
    /// uninjected engine.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// `true` when the plan perturbs nothing.
    pub fn is_empty(&self) -> bool {
        self.task_faults.is_empty() && self.release_faults.is_empty()
    }

    /// Adds a transient stall: firings `[first_firing, first_firing +
    /// firings)` of `task` each take `delta` extra time.
    #[must_use]
    pub fn stall(mut self, task: &str, first_firing: u64, firings: u64, delta: Rational) -> Self {
        self.task_faults.push(TaskFault {
            task: task.to_owned(),
            first_firing,
            firings,
            kind: FaultKind::Stall { delta },
        });
        self
    }

    /// Adds a dropped-firing window: each affected firing of `task` is
    /// retried `attempts` times, costing `attempts · ρ` extra.
    #[must_use]
    pub fn drop_retry(
        mut self,
        task: &str,
        first_firing: u64,
        firings: u64,
        attempts: u32,
    ) -> Self {
        self.task_faults.push(TaskFault {
            task: task.to_owned(),
            first_firing,
            firings,
            kind: FaultKind::DropRetry { attempts },
        });
        self
    }

    /// Adds release jitter: releases `[first_release, first_release +
    /// releases)` of the constrained endpoint are issued `delay` late.
    #[must_use]
    pub fn delay_releases(mut self, first_release: u64, releases: u64, delay: Rational) -> Self {
        self.release_faults.push(ReleaseFault {
            first_release,
            releases,
            delay,
        });
        self
    }

    /// Every rational time the plan introduces — folded into the tick
    /// clock's denominator LCM alongside the run's own times.
    pub(crate) fn time_values(&self) -> impl Iterator<Item = Rational> + '_ {
        self.task_faults
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::Stall { delta } => Some(delta),
                FaultKind::DropRetry { .. } => None,
            })
            .chain(self.release_faults.iter().map(|f| f.delay))
    }

    /// Compiles the plan onto the tick clock: task names resolve to
    /// topological positions, rational durations to ticks, drop-retries
    /// to `attempts · ρ` ticks.
    ///
    /// `task_pos` maps `TaskId::index()` to topological position, `rho`
    /// holds per-position response times in ticks.
    pub(crate) fn compile(
        &self,
        tg: &TaskGraph,
        task_pos: &[u32],
        rho: &[i128],
        tick_den: i128,
    ) -> Result<CompiledFaults, SimError> {
        let to_fault_ticks = |value: Rational, what: &str, owner: &str| -> Result<i128, SimError> {
            if value < Rational::ZERO {
                return Err(SimError::InvalidFault {
                    detail: format!("{what} of `{owner}` must be non-negative, got {value}"),
                });
            }
            let overflow = || SimError::TickOverflow {
                quantity: format!("fault {what} of `{owner}`"),
            };
            let ticks = value.to_ticks(tick_den).ok_or_else(overflow)?;
            if ticks.unsigned_abs() > u64::MAX as u128 {
                return Err(overflow());
            }
            Ok(ticks)
        };

        let mut compiled = CompiledFaults::default();
        for fault in &self.task_faults {
            let tid = tg.task_by_name(&fault.task).ok_or_else(|| {
                SimError::Analysis(AnalysisError::UnknownName(fault.task.clone()))
            })?;
            if fault.firings == 0 {
                continue;
            }
            let pos = task_pos[tid.index()];
            let extra = match fault.kind {
                FaultKind::Stall { delta } => to_fault_ticks(delta, "stall delta", &fault.task)?,
                FaultKind::DropRetry { attempts } => {
                    let extra = attempts as i128 * rho[pos as usize];
                    if extra > u64::MAX as i128 {
                        return Err(SimError::TickOverflow {
                            quantity: format!("fault retries of `{}`", fault.task),
                        });
                    }
                    extra
                }
            };
            compiled.task_windows.push(TaskWindow {
                pos,
                first: fault.first_firing,
                end: fault.first_firing.saturating_add(fault.firings),
                extra,
            });
        }
        for fault in &self.release_faults {
            if fault.releases == 0 {
                continue;
            }
            let delay = to_fault_ticks(fault.delay, "release delay", "the endpoint")?;
            compiled.release_windows.push(ReleaseWindow {
                first: fault.first_release,
                end: fault.first_release.saturating_add(fault.releases),
                delay,
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

/// One compiled release window: releases `[first, end)` are issued
/// `delay` ticks late.
#[derive(Clone, Debug)]
pub(crate) struct ReleaseWindow {
    first: u64,
    end: u64,
    delay: i128,
}

/// A [`FaultPlan`] rescaled onto one plan's tick clock.  Empty for
/// fault-free plans: the engine's fast path is a single emptiness check.
#[derive(Clone, Debug, Default)]
pub(crate) struct CompiledFaults {
    task_windows: Vec<TaskWindow>,
    release_windows: Vec<ReleaseWindow>,
}

impl CompiledFaults {
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.task_windows.is_empty() && self.release_windows.is_empty()
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

    /// Ticks release `r` is issued late; overlapping windows add.
    #[inline]
    pub(crate) fn release_delay(&self, r: u64) -> i128 {
        let mut delay = 0;
        for w in &self.release_windows {
            if r >= w.first && r < w.end {
                delay += w.delay;
            }
        }
        delay
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
    /// The underlying scenario battery.  `stop_on_violation` is forced
    /// *off* regardless of its value here — grading recovery requires
    /// simulating past the first miss.
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
    /// Scenarios whose probe worker panicked (degradation ladder — the
    /// battery completed without them).
    pub panics: Vec<WorkerPanic>,
    /// Scenarios skipped by the wall-clock watchdog.
    pub skipped: Vec<String>,
    /// Which engine executed the battery.
    pub engine: EngineKind,
}

impl FaultValidationReport {
    /// `true` when every scenario ran and recovered (or was never
    /// affected).
    pub fn all_recovered(&self) -> bool {
        self.panics.is_empty()
            && self.skipped.is_empty()
            && self.scenarios.iter().all(|s| s.verdict.is_recovered())
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
            "fault validation at offset {} (K = {} firings, engine: {}): {}/{} scenarios recovered",
            self.offset,
            self.recovery_firings,
            self.engine,
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
        for name in &self.skipped {
            writeln!(f, "  {:<12} skipped (wall-clock budget)", name)?;
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
/// difference is that `stop_on_violation` is forced off so the
/// post-fault transient (and its recovery or persistence) is fully
/// observable.
///
/// # Errors
///
/// Propagates [`SimError`] from construction — including
/// [`SimError::InvalidFault`] for negative durations and unknown task
/// names in the fault plan.  Scenario violations are graded, not raised.
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
    let battery_opts = ValidationOptions {
        stop_on_violation: false,
        ..opts.validation.clone()
    };
    let constraint = analysis.constraint();
    let report = ScenarioRunner::build(
        &sized,
        constraint,
        offset,
        analysis.options().release,
        &battery_opts,
        faults.clone(),
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
        skipped: report.skipped,
        engine: report.engine,
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

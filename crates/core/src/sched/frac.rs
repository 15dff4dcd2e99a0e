//! FRAC — fractional time-slicing of nodes between interactive and batch
//! work (after Casanova et al., "Dynamic Fractional Resource Scheduling
//! vs. Batch Scheduling", arXiv:1106.4985).
//!
//! OURS gates non-cached batch work behind the binary ε-idle rule with a
//! *static* fraction: a node either has been interactive-idle for half
//! of the load estimate or it has not. FRAC replaces the static fraction
//! with a *learned* per-node split: each node `k` carries
//! an interactive share `φ_k` (per-mille of the cycle `ω`), and batch
//! work may only fill the node's queue up to its batch window
//!
//! ```text
//! λ_B(k) = now + ω · (1000 − φ_k) / 1000
//! ```
//!
//! instead of the full `λ = now + ω`. The remaining `φ_k·ω` of predicted
//! headroom stays free for interactive arrivals in the next cycle. The
//! share itself tracks observed demand with an integer EMA, adjusted once
//! per cycle from the interactive execution time committed to the node
//! since the previous adjustment:
//!
//! ```text
//! demand_k = min(1000, 1000 · committed_us(k) / ω_us)
//! φ_k ← clamp((3·φ_k + demand_k) / 4, φ_min, φ_max)
//! ```
//!
//! Every share starts at `INITIAL_SHARE_PM` (500) and stays within
//! `φ_min` = `MIN_SHARE_PM` (100) and `φ_max` = `MAX_SHARE_PM` (900),
//! constants of this module; ω is the scheduler's one setting.
//!
//! "Once per cycle" is keyed on the clock, not on calls: the controller
//! steps on the first `schedule` call in each ω epoch `⌊now / ω⌋`. Ticks
//! land on the ω grid on both substrates (the head runtime's
//! `next_cycle`), so a tick opens a new epoch every time, tick-only runs
//! step on every call, and the early cycle (one warm interactive job
//! scheduled at its arrival, between ticks) only adds to `committed_us`.
//!
//! A node with no interactive traffic decays toward `φ_min` (its batch
//! window approaches the full cycle); a saturated node climbs toward
//! `φ_max` (batch trickles). The share also stands in for ε on cold batch
//! placements: a load-incurring placement on node `k` needs an
//! interactive idle age covering `φ_k`/1000 of the load estimate
//! (`cold_batch_protected`), so the same
//! learned signal drives both the window and the eviction shield. Every
//! change is reported as a
//! [`PolicyEvent::ShareAdjusted`] and surfaces on the probe stream as a
//! `share_adjusted` trace event. All share arithmetic is integer
//! per-mille — no floats anywhere in the decision path, which is what
//! lets [`reference::ReferenceFracScheduler`](super::reference) be held
//! bit-identical by the placement-equivalence suite.
//!
//! FRAC runs on the shared cycle skeleton (`sched/cycle.rs`). The
//! interactive pass is exactly OURS's (heuristics 1–3: chunk grouping,
//! cached-first then longest-estimate-first, heap-assisted locality pick)
//! plus a per-commit hook that accumulates the demand signal; the batch
//! fills are OURS's with the window `λ_B(k)` and the share-driven gate
//! passed in. Deferred batch tasks keep their deferral timestamps, so
//! [`Scheduler::escalate_deferred`] anti-starvation works unchanged.

use super::cycle::{Cycle, Deferred};
use super::{Assignment, PolicyEvent, ScheduleCtx, Scheduler, Trigger};
use crate::ids::{JobId, NodeId};
use crate::job::Job;
use crate::time::{SimDuration, SimTime};

/// Every node's interactive share `φ_k` before any demand is observed,
/// per-mille of the cycle.
pub(super) const INITIAL_SHARE_PM: u32 = 500;
/// Lower clamp on `φ_k`: even a node with zero interactive traffic keeps
/// this much of the cycle reserved.
const MIN_SHARE_PM: u32 = 100;
/// Upper clamp on `φ_k`: even a saturated node leaves this much of the
/// cycle open to batch work (the anti-starvation floor that replaces the
/// ε rule's all-or-nothing behavior).
const MAX_SHARE_PM: u32 = 900;

/// One cycle's EMA step: `(3·φ + demand) / 4`, clamped. Shared verbatim
/// with the reference twin so the two cannot drift.
pub(super) fn share_step(share_pm: u32, demand_pm: u32) -> u32 {
    ((3 * share_pm + demand_pm) / 4).clamp(MIN_SHARE_PM, MAX_SHARE_PM)
}

/// The ω epoch `⌊now / ω⌋` a call falls in; the share controller steps
/// once per epoch. Shared verbatim with the reference twin.
pub(super) fn share_epoch(now: SimTime, cycle: SimDuration) -> u64 {
    now.as_micros() / cycle.as_micros()
}

/// The per-node batch window end `λ_B(k)` for a share of `share_pm`.
pub(super) fn batch_lambda(now: SimTime, cycle: SimDuration, share_pm: u32) -> SimTime {
    let window_us = cycle.as_micros() * (1000 - share_pm.min(1000)) as u64 / 1000;
    now + SimDuration::from_micros(window_us)
}

/// The fractional time-slicing scheduler.
#[derive(Debug)]
pub struct FracScheduler {
    /// The scheduling cycle `ω`.
    omega: SimDuration,
    /// `φ_k` per node, lazily sized on first invocation.
    shares_pm: Vec<u32>,
    /// Interactive execution time committed per node since the last share
    /// step (µs), indexed by node id — the share controller's demand
    /// signal.
    committed_us: Vec<u64>,
    /// The ω epoch of the last share step (`None` before the first).
    stepped: Option<u64>,
    /// `H_B`: batch tasks held back until a batch window opens.
    held: Deferred,
    /// Intake, the interactive pass and escalated re-entries.
    cycle: Cycle,
    /// Control moves since the last [`Scheduler::drain_policy_events`].
    events: Vec<PolicyEvent>,
}

impl FracScheduler {
    /// Build the scheduler over the cycle `ω`.
    pub fn new(cycle: SimDuration) -> Self {
        assert!(!cycle.is_zero(), "scheduling cycle must be positive");
        FracScheduler {
            omega: cycle,
            shares_pm: Vec::new(),
            committed_us: Vec::new(),
            stepped: None,
            held: Deferred::default(),
            cycle: Cycle::default(),
            events: Vec::new(),
        }
    }

    /// The current interactive share of `node`, per-mille.
    pub fn share_pm(&self, node: NodeId) -> u32 {
        self.shares_pm
            .get(node.index())
            .copied()
            .unwrap_or(INITIAL_SHARE_PM)
    }

    /// Number of batch tasks currently held back.
    pub fn pending_batch_tasks(&self) -> usize {
        self.held.len()
    }

    /// The once-per-epoch share EMA step, after the interactive pass and
    /// before the batch fill (so a fresh demand spike shrinks the batch
    /// window immediately). A later call in an epoch that already stepped
    /// leaves the shares alone and keeps accumulating demand.
    fn adjust_shares(&mut self, ctx: &ScheduleCtx<'_>) {
        let epoch = share_epoch(ctx.now, self.omega);
        if self.stepped == Some(epoch) {
            return;
        }
        self.stepped = Some(epoch);
        let cycle_us = self.omega.as_micros();
        for node in ctx.tables.live_nodes() {
            let committed = self.committed_us[node.index()];
            let demand_pm = (committed.saturating_mul(1000) / cycle_us).min(1000) as u32;
            let old = self.shares_pm[node.index()];
            let new = share_step(old, demand_pm);
            if new != old {
                self.shares_pm[node.index()] = new;
                self.events.push(PolicyEvent::ShareAdjusted {
                    node,
                    interactive_pm: new,
                });
            }
        }
        self.committed_us.fill(0);
    }
}

impl Scheduler for FracScheduler {
    fn name(&self) -> &'static str {
        "FRAC"
    }

    fn trigger(&self) -> Trigger {
        Trigger::Cycle(self.omega)
    }

    fn schedule(&mut self, ctx: &mut ScheduleCtx<'_>, incoming: Vec<Job>) -> Vec<Assignment> {
        let nodes = ctx.tables.node_count();
        self.shares_pm.resize(nodes, INITIAL_SHARE_PM);
        self.committed_us.resize(nodes, 0);
        let (now, cycle) = (ctx.now, self.omega);

        self.cycle.intake(ctx, incoming, |task| {
            if !task.interactive {
                self.held.push(now, task);
            }
            !task.interactive
        });
        let mut out = Vec::new();
        // The OURS interactive pass, additionally accumulating each node's
        // committed interactive execution time for the share controller.
        self.cycle.heap.rebuild(ctx.tables, now);
        self.cycle.interactive(
            ctx,
            |ctx, heap, chunk, bytes| ctx.earliest_node_with_locality_via(heap, chunk, bytes),
            |ctx, task, node, group| {
                let a = ctx.commit(task, node, group);
                if task.interactive {
                    self.committed_us[node.index()] += a.predicted_exec.as_micros();
                }
                a
            },
            |ctx, heap, node| heap.update(ctx.tables, node),
            &mut out,
        );
        self.adjust_shares(ctx);
        // The OURS batch fills, bounded by each node's batch window
        // `λ_B(k)` instead of the full `λ`, and with the node's *learned
        // share* standing in for the static ε fraction: a load-incurring
        // placement needs an interactive idle age covering `φ_k`/1000 of
        // the load estimate (`cold_batch_protected`), so busy nodes (high
        // `φ_k`) are strongly shielded from cold batch evictions while
        // drained nodes (low `φ_k`) admit cold work sooner than OURS's
        // fixed 0.5 would.
        let shares = &self.shares_pm;
        self.held.fill(
            ctx,
            |node| batch_lambda(now, cycle, shares[node.index()]),
            |ctx, node, chunk, bytes| {
                super::cold_batch_protected(ctx, node, chunk, bytes, shares[node.index()])
            },
            |ctx, task, node, group| ctx.commit(task, node, group),
            &mut out,
        );
        out
    }

    fn has_deferred(&self) -> bool {
        self.held.len() > 0 || self.cycle.has_escalated()
    }

    fn retract_deferred(&mut self) {
        self.held.retract();
        self.cycle.retract();
    }

    /// Identical promotion semantics to OURS: deferred tasks whose age
    /// reached `age` ride the next interactive pass, bypassing the batch
    /// window entirely.
    fn escalate_deferred(&mut self, now: SimTime, age: SimDuration) -> Vec<(JobId, SimDuration)> {
        self.cycle.promote(now, self.held.take_aged(now, age))
    }

    fn drain_policy_events(&mut self) -> Vec<PolicyEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::{assert_complete_assignment, Fixture};

    fn frac() -> FracScheduler {
        FracScheduler::new(SimDuration::from_millis(30))
    }

    #[test]
    fn interactive_jobs_fully_scheduled_in_cycle() {
        let mut fx = Fixture::standard(8, 6);
        let jobs: Vec<_> = (0..6)
            .map(|d| fx.interactive_job(d, d as u64, SimTime::ZERO))
            .collect();
        let mut sched = frac();
        let mut ctx = fx.ctx(SimTime::ZERO);
        let out = sched.schedule(&mut ctx, jobs.clone());
        assert_complete_assignment(&jobs, &fx.catalog, &out);
        assert!(!sched.has_deferred());
    }

    #[test]
    fn interactive_placement_matches_ours() {
        // FRAC's interactive pass is OURS's verbatim; on an
        // interactive-only stream the two must place identically.
        let mut fx_a = Fixture::standard(4, 3);
        let mut fx_b = Fixture::standard(4, 3);
        let mut a = frac();
        let mut b = crate::sched::OursScheduler::new(crate::sched::OursParams::default());
        for c in 0..4u64 {
            let t = SimTime::from_millis(30 * c);
            let ja: Vec<_> = (0..2)
                .map(|d| fx_a.interactive_job(d, c * 2 + d as u64, t))
                .collect();
            let jb: Vec<_> = (0..2)
                .map(|d| fx_b.interactive_job(d, c * 2 + d as u64, t))
                .collect();
            let out_a = a.schedule(&mut fx_a.ctx(t), ja);
            let out_b = b.schedule(&mut fx_b.ctx(t), jb);
            assert_eq!(out_a, out_b, "cycle {c}");
        }
    }

    #[test]
    fn shares_decay_without_demand_and_climb_under_load() {
        let mut fx = Fixture::standard(2, 2);
        let mut sched = frac();
        // Ten empty cycles: shares decay from 500 toward the 100 floor.
        for c in 0..10u64 {
            let t = SimTime::from_millis(30 * c);
            sched.schedule(&mut fx.ctx(t), vec![]);
        }
        assert_eq!(sched.share_pm(NodeId(0)), MIN_SHARE_PM);
        // A saturating interactive burst drives the loaded nodes back up.
        let t = SimTime::from_secs(1);
        let jobs: Vec<_> = (0..2).map(|d| fx.interactive_job(d, d as u64, t)).collect();
        sched.schedule(&mut fx.ctx(t), jobs);
        let grew = (0..2).any(|k| sched.share_pm(NodeId(k)) > MIN_SHARE_PM);
        assert!(grew, "interactive demand must raise at least one share");
    }

    #[test]
    fn share_changes_emit_policy_events() {
        let mut fx = Fixture::standard(2, 1);
        let mut sched = frac();
        sched.schedule(&mut fx.ctx(SimTime::ZERO), vec![]);
        let events = sched.drain_policy_events();
        // Both idle nodes decay 500 → 375 on the first empty cycle.
        assert_eq!(events.len(), 2);
        for (k, e) in events.iter().enumerate() {
            assert_eq!(
                *e,
                PolicyEvent::ShareAdjusted {
                    node: NodeId(k as u32),
                    interactive_pm: 375
                }
            );
        }
        // Drained means drained.
        assert!(sched.drain_policy_events().is_empty());
    }

    /// The controller steps once per ω epoch of `ctx.now`: ticks on the ω
    /// grid step on every call, exactly the pre-early-cycle trajectory,
    /// while an extra call between two ticks moves no share and only adds
    /// its demand to the next tick's step.
    #[test]
    fn shares_step_once_per_cycle_of_the_clock() {
        let ms = SimTime::from_millis;
        let shares = |s: &FracScheduler| [s.share_pm(NodeId(0)), s.share_pm(NodeId(1))];
        let mut ticked = frac();
        let mut fx = Fixture::standard(2, 1);
        let mut trajectory = Vec::new();
        for c in 0..6u64 {
            ticked.schedule(&mut fx.ctx(ms(30 * c)), vec![]);
            trajectory.push(shares(&ticked)[0]);
        }
        assert_eq!(trajectory, [375, 281, 210, 157, 117, 100]);

        let mut early = frac();
        let mut fx = Fixture::standard(2, 1);
        early.schedule(&mut fx.ctx(ms(0)), vec![]);
        early.schedule(&mut fx.ctx(ms(30)), vec![]);
        early.drain_policy_events();
        let before = shares(&early);
        let job = fx.interactive_job(0, 0, ms(45));
        let out = early.schedule(&mut fx.ctx(ms(45)), vec![job]);
        assert_eq!(out.len(), 4);
        assert_eq!(shares(&early), before, "a mid-cycle call moves no share");
        assert!(early.drain_policy_events().is_empty());
        // The next tick steps once, charging the mid-cycle demand: both
        // nodes took cold work, so both shares climb where the tick-only
        // twin decayed them.
        early.schedule(&mut fx.ctx(ms(60)), vec![]);
        let after = shares(&early);
        assert!(after.iter().all(|&s| s > 210), "{after:?}");
        assert_eq!(early.drain_policy_events().len(), 2);
    }

    #[test]
    fn batch_respects_the_batch_window_not_epsilon() {
        let mut fx = Fixture::standard(1, 2);
        let mut sched = frac();
        // A long-idle node admits cold batch work as soon as its queue is
        // inside its batch window: the share-scaled idle cover (60 s of
        // idle vs a sub-second load) is satisfied, and there is no static
        // ε fraction anywhere in the decision.
        let ij = fx.interactive_job(0, 0, SimTime::ZERO);
        sched.schedule(&mut fx.ctx(SimTime::ZERO), vec![ij]);
        let t = SimTime::from_secs(60);
        fx.tables.available.correct(NodeId(0), t);
        // Decay the share so a batch window exists even right after load.
        let bj = fx.batch_job(1, 0, t);
        let out = sched.schedule(&mut fx.ctx(t), vec![bj]);
        assert!(
            !out.is_empty(),
            "an idle node with batch headroom must make batch progress"
        );
        assert!(out.iter().all(|a| !a.task.interactive));
    }

    #[test]
    fn higher_share_throttles_cached_batch() {
        // Pin φ for the batch call (its epoch has stepped already) and
        // compare cached-batch throughput: a node reserving 90% of the
        // cycle for interactive admits strictly less batch work per cycle
        // than one reserving 10%.
        let drained = |share: u32| -> usize {
            let mut fx = Fixture::standard(1, 1);
            let mut sched = frac();
            // Warm the cache, then free the node.
            let ij = fx.interactive_job(0, 0, SimTime::ZERO);
            sched.schedule(&mut fx.ctx(SimTime::ZERO), vec![ij]);
            let t = SimTime::from_secs(100);
            fx.tables.available.correct(NodeId(0), t);
            sched.shares_pm[0] = share;
            sched.stepped = Some(share_epoch(t, sched.omega));
            let jobs: Vec<_> = (0..50).map(|i| fx.batch_job(0, i, t)).collect();
            sched.schedule(&mut fx.ctx(t), jobs).len()
        };
        let eager = drained(100);
        let throttled = drained(900);
        assert!(
            throttled < eager,
            "φ=900 admitted {throttled} vs φ=100's {eager}"
        );
        assert!(eager > 0);
    }

    #[test]
    fn escalation_bypasses_the_batch_window() {
        let mut fx = Fixture::standard(1, 2);
        let mut sched = frac();
        // The interactive job's cold loads push the node's queue seconds
        // past any batch window, so the batch job stays fully deferred.
        let ij = fx.interactive_job(0, 0, SimTime::ZERO);
        sched.schedule(&mut fx.ctx(SimTime::ZERO), vec![ij]);
        let bj = fx.batch_job(1, 0, SimTime::from_millis(60));
        let out = sched.schedule(&mut fx.ctx(SimTime::from_millis(60)), vec![bj]);
        assert!(out.is_empty());
        assert_eq!(sched.pending_batch_tasks(), 4);
        let t = SimTime::from_millis(260);
        let escalated = sched.escalate_deferred(t, SimDuration::from_millis(100));
        assert_eq!(escalated.len(), 1);
        assert_eq!(sched.pending_batch_tasks(), 0);
        assert!(sched.has_deferred());
        // Once the node frees up, every escalated task schedules in one
        // cycle through the interactive pass — no window arithmetic.
        fx.tables.available.correct(NodeId(0), t);
        let out = sched.schedule(&mut fx.ctx(t), vec![]);
        assert_eq!(out.len(), 4, "escalated tasks ride the interactive pass");
        assert!(!sched.has_deferred());
    }
}

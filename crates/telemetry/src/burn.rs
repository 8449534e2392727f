//! Multi-window, multi-rate SLO burn-rate alerting (Google SRE style).
//!
//! The SLO is an on-time objective `O` (e.g. 0.95: at most 5 % of
//! arrivals may be violated). The **burn rate** over a window is
//!
//! ```text
//! burn = (violations / arrivals) / (1 - O)
//! ```
//!
//! i.e. how many times faster than "exactly spending the budget" the
//! error budget is being consumed. A rule pairs a *long* window (signal:
//! sustained burn) with a *short* window (fast reset) and fires when
//! **both** exceed the rule's threshold factor; it resolves as soon as
//! the short window drops back below. Every family is watched as its own
//! scope, plus a cluster-wide aggregate scope.

use std::collections::VecDeque;

use proteus_metrics::Bucket;
use proteus_profiler::ModelFamily;
use proteus_sim::SimTime;
use proteus_trace::AlertSeverity;

/// One burn-rate alerting rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnRule {
    /// Severity tier reported when the rule fires.
    pub severity: AlertSeverity,
    /// Long (detection) window.
    pub long: SimTime,
    /// Short (reset) window.
    pub short: SimTime,
    /// Burn-rate threshold, in multiples of the error budget.
    pub factor: f64,
}

/// A state transition of one `(rule, scope)` alert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertTransition {
    /// When the transition happened.
    pub at: SimTime,
    /// `None` = cluster-wide scope, otherwise the family.
    pub scope: Option<ModelFamily>,
    /// The rule's severity tier.
    pub severity: AlertSeverity,
    /// `true` = fired, `false` = resolved.
    pub fired: bool,
    /// Burn rate over the short window at transition time.
    pub burn: f64,
    /// The rule's long window, in seconds.
    pub long_secs: f64,
    /// The rule's short window, in seconds.
    pub short_secs: f64,
}

/// Number of scopes tracked: one per family plus the aggregate.
const SCOPES: usize = ModelFamily::COUNT + 1;
/// Scope index of the cluster-wide aggregate.
const AGG: usize = ModelFamily::COUNT;

fn scope_family(scope: usize) -> Option<ModelFamily> {
    (scope < ModelFamily::COUNT).then(|| ModelFamily::from_index(scope))
}

/// Per-step `(violations, arrivals)` pair.
#[derive(Debug, Clone, Copy, Default)]
struct StepCount {
    violations: u64,
    arrived: u64,
}

/// Rolling per-scope totals over one trailing window length, updated in
/// O(scopes) per step instead of re-summing the ring.
#[derive(Debug, Clone)]
struct WindowSum {
    steps: usize,
    sums: [StepCount; SCOPES],
}

/// The burn-rate engine. Fed one sealed step per monitoring tick.
#[derive(Debug, Clone)]
pub struct BurnEngine {
    budget: f64,
    rules: Vec<BurnRule>,
    step: SimTime,
    /// Ring of per-step counts, oldest in front; sized to the longest
    /// rule window.
    ring: VecDeque<[StepCount; SCOPES]>,
    cap: usize,
    /// One rolling sum per distinct rule window (long and short), so the
    /// per-step evaluation never walks the ring.
    windows: Vec<WindowSum>,
    /// Active flag per `(rule, scope)`.
    active: Vec<bool>,
    fired_total: [u64; 2],
    resolved_total: [u64; 2],
    peak_burn: f64,
}

impl BurnEngine {
    /// Creates an engine for an on-time `objective` in `(0, 1)` (clamped)
    /// with the given rules, fed steps of width `step`.
    pub fn new(objective: f64, rules: Vec<BurnRule>, step: SimTime) -> Self {
        let objective = objective.clamp(0.0, 0.9999);
        let step = step.max(SimTime::from_nanos(1));
        let longest = rules
            .iter()
            .map(|r| r.long.as_nanos())
            .max()
            .unwrap_or(step.as_nanos());
        let cap = (longest / step.as_nanos()).max(1) as usize;
        let active = vec![false; rules.len() * SCOPES];
        let mut window_steps: Vec<usize> = rules
            .iter()
            .flat_map(|r| [r.long, r.short])
            .map(|w| (w.as_nanos() / step.as_nanos()).max(1) as usize)
            .collect();
        window_steps.sort_unstable();
        window_steps.dedup();
        let windows = window_steps
            .into_iter()
            .map(|steps| WindowSum {
                steps,
                sums: [StepCount::default(); SCOPES],
            })
            .collect();
        BurnEngine {
            budget: 1.0 - objective,
            rules,
            step,
            ring: VecDeque::with_capacity(cap),
            cap,
            windows,
            active,
            fired_total: [0; 2],
            resolved_total: [0; 2],
            peak_burn: 0.0,
        }
    }

    /// The configured rules.
    pub fn rules(&self) -> &[BurnRule] {
        &self.rules
    }

    /// The error budget `1 - objective`.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// Total alerts fired so far for one severity.
    pub fn fired_total(&self, severity: AlertSeverity) -> u64 {
        self.fired_total[severity_index(severity)]
    }

    /// Total alerts resolved so far for one severity.
    pub fn resolved_total(&self, severity: AlertSeverity) -> u64 {
        self.resolved_total[severity_index(severity)]
    }

    /// Highest short-window burn rate observed at any tick, any scope.
    pub fn peak_burn(&self) -> f64 {
        self.peak_burn
    }

    /// Whether the `(rule, scope)` alert is currently firing.
    pub fn is_active(&self, rule: usize, scope: Option<ModelFamily>) -> bool {
        let s = scope.map_or(AGG, ModelFamily::index);
        self.active.get(rule * SCOPES + s).copied().unwrap_or(false)
    }

    /// Currently firing alerts as `(rule index, scope)` pairs.
    pub fn active_alerts(&self) -> Vec<(usize, Option<ModelFamily>)> {
        let mut out = Vec::new();
        for (i, &on) in self.active.iter().enumerate() {
            if on {
                out.push((i / SCOPES, scope_family(i % SCOPES)));
            }
        }
        out
    }

    /// Burn rate over the trailing `window` for a scope (0 if no
    /// arrivals in the window).
    ///
    /// Rule windows hit the rolling sums; any other window falls back to
    /// walking the ring (bounded by the longest rule window).
    pub fn burn_rate(&self, window: SimTime, scope: Option<ModelFamily>) -> f64 {
        let steps = (window.as_nanos() / self.step.as_nanos()).max(1) as usize;
        let s = scope.map_or(AGG, ModelFamily::index);
        if let Some(w) = self.windows.iter().find(|w| w.steps == steps) {
            return Self::rate(w.sums[s], self.budget);
        }
        let mut sum = StepCount::default();
        for counts in self.ring.iter().rev().take(steps) {
            sum.violations += counts[s].violations;
            sum.arrived += counts[s].arrived;
        }
        Self::rate(sum, self.budget)
    }

    fn rate(sum: StepCount, budget: f64) -> f64 {
        if sum.arrived == 0 {
            return 0.0;
        }
        (sum.violations as f64 / sum.arrived as f64) / budget.max(1e-9)
    }

    /// Feeds one sealed step and returns the alert transitions it caused.
    pub fn push_step(
        &mut self,
        at: SimTime,
        flows: &[Bucket; ModelFamily::COUNT],
    ) -> Vec<AlertTransition> {
        let mut counts = [StepCount::default(); SCOPES];
        for (i, cell) in flows.iter().enumerate() {
            counts[i] = StepCount {
                violations: cell.violations(),
                arrived: cell.arrived,
            };
            counts[AGG].violations += cell.violations();
            counts[AGG].arrived += cell.arrived;
        }
        // Roll every window sum forward: the new step enters, the step
        // that ages out of the window leaves. `ring` still ends at the
        // *previous* step here, so the leaver sits at `len - steps`.
        for w in &mut self.windows {
            for (sum, add) in w.sums.iter_mut().zip(&counts) {
                sum.violations += add.violations;
                sum.arrived += add.arrived;
            }
            if self.ring.len() >= w.steps {
                let old = &self.ring[self.ring.len() - w.steps];
                for (sum, sub) in w.sums.iter_mut().zip(old) {
                    sum.violations -= sub.violations;
                    sum.arrived -= sub.arrived;
                }
            }
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(counts);

        let mut transitions = Vec::new();
        for ri in 0..self.rules.len() {
            let rule = self.rules[ri];
            for scope_idx in 0..SCOPES {
                let scope = scope_family(scope_idx);
                let short = self.burn_rate(rule.short, scope);
                self.peak_burn = self.peak_burn.max(short);
                let flag = ri * SCOPES + scope_idx;
                if self.active[flag] {
                    if short < rule.factor {
                        self.active[flag] = false;
                        self.resolved_total[severity_index(rule.severity)] += 1;
                        transitions.push(AlertTransition {
                            at,
                            scope,
                            severity: rule.severity,
                            fired: false,
                            burn: short,
                            long_secs: rule.long.as_secs_f64(),
                            short_secs: rule.short.as_secs_f64(),
                        });
                    }
                } else {
                    let long = self.burn_rate(rule.long, scope);
                    if short >= rule.factor && long >= rule.factor {
                        self.active[flag] = true;
                        self.fired_total[severity_index(rule.severity)] += 1;
                        transitions.push(AlertTransition {
                            at,
                            scope,
                            severity: rule.severity,
                            fired: true,
                            burn: short,
                            long_secs: rule.long.as_secs_f64(),
                            short_secs: rule.short.as_secs_f64(),
                        });
                    }
                }
            }
        }
        transitions
    }
}

fn severity_index(s: AlertSeverity) -> usize {
    match s {
        AlertSeverity::Page => 0,
        AlertSeverity::Ticket => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn rule(long: u64, short: u64, factor: f64) -> BurnRule {
        BurnRule {
            severity: AlertSeverity::Page,
            long: t(long),
            short: t(short),
            factor,
        }
    }

    fn flows(arrived: u64, dropped: u64) -> [Bucket; ModelFamily::COUNT] {
        let mut f = [Bucket::default(); ModelFamily::COUNT];
        f[0].arrived = arrived;
        f[0].dropped = dropped;
        f[0].served_on_time = arrived - dropped;
        f
    }

    #[test]
    fn fires_when_both_windows_exceed_and_resolves_on_short() {
        // Objective 0.9 => budget 0.1; factor 3 needs >= 30 % violations.
        let mut e = BurnEngine::new(0.9, vec![rule(4, 2, 3.0)], t(1));
        // Healthy steps: no transition.
        for s in 1..=4 {
            assert!(e.push_step(t(s), &flows(100, 0)).is_empty());
        }
        // Outage: 50 % drops. Long window (4 steps) needs three bad
        // steps to average >= 30 % (150 violations / 400 arrivals).
        assert!(e.push_step(t(5), &flows(100, 50)).is_empty());
        // Short window is hot (5x) but the long window still reads 2.5x.
        assert!(e.push_step(t(6), &flows(100, 50)).is_empty());
        let fired = e.push_step(t(7), &flows(100, 50));
        assert_eq!(fired.len(), 2, "family scope and aggregate: {fired:?}");
        assert!(fired.iter().all(|tr| tr.fired));
        assert!(fired.iter().any(|tr| tr.scope.is_none()));
        assert!(e.is_active(0, None));
        // Recovery: one good step drags the short window to 2.5x < 3x.
        let resolved = e.push_step(t(8), &flows(100, 0));
        assert_eq!(resolved.len(), 2);
        assert!(resolved.iter().all(|tr| !tr.fired));
        assert!(!e.is_active(0, None));
        assert_eq!(e.fired_total(AlertSeverity::Page), 2);
        assert_eq!(e.resolved_total(AlertSeverity::Page), 2);
        assert!(e.peak_burn() >= 5.0 - 1e-9);
    }

    #[test]
    fn empty_windows_do_not_alert() {
        let mut e = BurnEngine::new(0.99, vec![rule(10, 2, 1.0)], t(1));
        for s in 1..=20 {
            assert!(e.push_step(t(s), &flows(0, 0)).is_empty());
        }
        assert_eq!(e.peak_burn(), 0.0);
    }

    #[test]
    fn rolling_window_sums_match_a_manual_trailing_sum() {
        // Thresholds high enough that nothing fires; we only exercise the
        // rolling-sum bookkeeping against a straightforward recomputation.
        let mut e = BurnEngine::new(0.9, vec![rule(7, 3, 1e18)], t(1));
        let mut history: Vec<(u64, u64)> = Vec::new();
        for s in 1..=40u64 {
            let arrived = 50 + (s * 17) % 60;
            let dropped = (s * 13) % 31;
            e.push_step(t(s), &flows(arrived, dropped));
            history.push((arrived, dropped));
            for steps in [3usize, 7] {
                let tail = &history[history.len().saturating_sub(steps)..];
                let (arr, bad) = tail
                    .iter()
                    .fold((0u64, 0u64), |(a, b), (x, y)| (a + x, b + y));
                let expect = if arr == 0 {
                    0.0
                } else {
                    (bad as f64 / arr as f64) / 0.1
                };
                let got = e.burn_rate(t(steps as u64), Some(ModelFamily::from_index(0)));
                assert!(
                    (got - expect).abs() < 1e-9,
                    "step {s} window {steps}: got {got}, expected {expect}"
                );
            }
        }
    }

    #[test]
    fn burn_rate_is_violations_over_budget() {
        let mut e = BurnEngine::new(0.95, vec![rule(10, 5, 100.0)], t(1));
        e.push_step(t(1), &flows(100, 10));
        // 10 % violations / 5 % budget = 2x.
        assert!((e.burn_rate(t(5), None) - 2.0).abs() < 1e-9);
        assert!((e.burn_rate(t(5), Some(ModelFamily::from_index(0))) - 2.0).abs() < 1e-9);
        assert_eq!(e.burn_rate(t(5), Some(ModelFamily::from_index(1))), 0.0);
    }
}

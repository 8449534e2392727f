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
//!
//! The policy is the SRE workbook's fixed pair, [`RULES`]: one rule per
//! severity, so a severity names its rule. Window sums are read off the
//! [`Registry`]'s step history; the engine keeps only the alert log.

use proteus_profiler::ModelFamily;
use proteus_sim::SimTime;
use proteus_trace::AlertSeverity;

use crate::registry::Registry;

/// One burn-rate alerting rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnRule {
    /// Severity tier reported when the rule fires; it names the rule.
    pub severity: AlertSeverity,
    /// Long (detection) window.
    pub long: SimTime,
    /// Short (reset) window.
    pub short: SimTime,
    /// Burn-rate threshold, in multiples of the error budget.
    pub factor: f64,
}

/// The alerting policy, one rule per severity in [`AlertSeverity::ALL`]
/// order.
pub const RULES: [BurnRule; 2] = [
    // Fast burn: a minute at >= 6x budget consumption pages.
    BurnRule {
        severity: AlertSeverity::Page,
        long: SimTime::from_secs(60),
        short: SimTime::from_secs(10),
        factor: 6.0,
    },
    // Slow burn: five minutes at >= 2x opens a ticket.
    BurnRule {
        severity: AlertSeverity::Ticket,
        long: SimTime::from_secs(300),
        short: SimTime::from_secs(60),
        factor: 2.0,
    },
];

/// The distinct rule windows, shortest first. The ticket rule's short
/// window is the page rule's long one.
pub const WINDOWS: [SimTime; 3] = [RULES[0].short, RULES[0].long, RULES[1].long];

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

/// One alert's lifetime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertRecord {
    /// When the alert fired.
    pub fired_at: SimTime,
    /// When it resolved (`None` = still firing).
    pub resolved_at: Option<SimTime>,
    /// `None` = cluster-wide.
    pub scope: Option<ModelFamily>,
    /// Severity tier.
    pub severity: AlertSeverity,
    /// Short-window burn rate at firing time.
    pub burn_at_fire: f64,
}

/// Number of scopes tracked: one per family plus the aggregate.
const SCOPES: usize = ModelFamily::COUNT + 1;
/// Scope index of the cluster-wide aggregate.
const AGG: usize = ModelFamily::COUNT;

fn scope_index(scope: Option<ModelFamily>) -> usize {
    scope.map_or(AGG, ModelFamily::index)
}

/// `(violations, arrivals)` per scope over the trailing `window` of the
/// registry's sealed steps. The counts are integers, so the sum is exact
/// whatever the order.
fn window_counts(registry: &Registry, window: SimTime) -> [(u64, u64); SCOPES] {
    let mut sums = [(0, 0); SCOPES];
    for flows in registry.recent(registry.steps_in(window)) {
        for (sum, cell) in sums.iter_mut().zip(flows) {
            sum.0 += cell.violations();
            sum.1 += cell.arrived;
        }
        for cell in flows {
            sums[AGG].0 += cell.violations();
            sums[AGG].1 += cell.arrived;
        }
    }
    sums
}

/// The burn-rate engine. Evaluated once per sealed step; its alert log is
/// the only alert state.
#[derive(Debug, Clone)]
pub struct BurnEngine {
    budget: f64,
    /// Every alert's lifetime, in firing order.
    log: Vec<AlertRecord>,
    peak_burn: f64,
}

impl BurnEngine {
    /// Creates an engine for an on-time `objective` in `(0, 1)` (clamped).
    pub fn new(objective: f64) -> Self {
        BurnEngine {
            budget: 1.0 - objective.clamp(0.0, 0.9999),
            log: Vec::new(),
            peak_burn: 0.0,
        }
    }

    /// The error budget `1 - objective`.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// Every alert's lifetime so far, in firing order.
    pub fn alerts(&self) -> &[AlertRecord] {
        &self.log
    }

    /// Total alerts fired so far for one severity.
    pub fn fired_total(&self, severity: AlertSeverity) -> u64 {
        self.log.iter().filter(|a| a.severity == severity).count() as u64
    }

    /// Total alerts resolved so far for one severity.
    pub fn resolved_total(&self, severity: AlertSeverity) -> u64 {
        self.log
            .iter()
            .filter(|a| a.severity == severity && a.resolved_at.is_some())
            .count() as u64
    }

    /// Highest short-window burn rate observed at any tick, any scope.
    pub fn peak_burn(&self) -> f64 {
        self.peak_burn
    }

    /// The log index of the `(severity, scope)` alert firing now, if any.
    fn open(&self, severity: AlertSeverity, scope: Option<ModelFamily>) -> Option<usize> {
        self.log
            .iter()
            .rposition(|a| a.resolved_at.is_none() && a.severity == severity && a.scope == scope)
    }

    /// Whether the `(severity, scope)` alert is currently firing.
    pub fn is_active(&self, severity: AlertSeverity, scope: Option<ModelFamily>) -> bool {
        self.open(severity, scope).is_some()
    }

    /// Currently firing alerts as `(severity, scope)` pairs, in rule order
    /// and, within a rule, by family with the cluster-wide scope last.
    pub fn active_alerts(&self) -> Vec<(AlertSeverity, Option<ModelFamily>)> {
        let mut out: Vec<_> = self
            .log
            .iter()
            .filter(|a| a.resolved_at.is_none())
            .map(|a| (a.severity, a.scope))
            .collect();
        out.sort_by_key(|&(severity, scope)| (severity as usize, scope_index(scope)));
        out
    }

    fn rate(&self, (violations, arrived): (u64, u64)) -> f64 {
        if arrived == 0 {
            return 0.0;
        }
        (violations as f64 / arrived as f64) / self.budget.max(1e-9)
    }

    /// Burn rate over the trailing `window` of `registry`'s steps for a
    /// scope (0 if no arrivals in the window).
    pub fn burn_rate(
        &self,
        registry: &Registry,
        window: SimTime,
        scope: Option<ModelFamily>,
    ) -> f64 {
        self.rate(window_counts(registry, window)[scope_index(scope)])
    }

    /// Evaluates every rule on the step `registry` sealed at `at` and
    /// returns the alert transitions it caused.
    pub fn push_step(&mut self, at: SimTime, registry: &Registry) -> Vec<AlertTransition> {
        let mut transitions = Vec::new();
        for rule in &RULES {
            let short = window_counts(registry, rule.short);
            let long = window_counts(registry, rule.long);
            for (s, (&short, &long)) in short.iter().zip(&long).enumerate() {
                let scope = (s < AGG).then(|| ModelFamily::from_index(s));
                let burn = self.rate(short);
                self.peak_burn = self.peak_burn.max(burn);
                let fired = match self.open(rule.severity, scope) {
                    Some(i) if burn < rule.factor => {
                        self.log[i].resolved_at = Some(at);
                        false
                    }
                    None if burn >= rule.factor && self.rate(long) >= rule.factor => {
                        self.log.push(AlertRecord {
                            fired_at: at,
                            resolved_at: None,
                            scope,
                            severity: rule.severity,
                            burn_at_fire: burn,
                        });
                        true
                    }
                    _ => continue,
                };
                transitions.push(AlertTransition {
                    at,
                    scope,
                    severity: rule.severity,
                    fired,
                    burn,
                    long_secs: rule.long.as_secs_f64(),
                    short_secs: rule.short.as_secs_f64(),
                });
            }
        }
        transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_metrics::MetricsCollector;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A registry sealing 1 s steps, its collector and a burn engine.
    struct Feed {
        registry: Registry,
        metrics: MetricsCollector,
        engine: BurnEngine,
        now: u64,
    }

    impl Feed {
        fn new(objective: f64) -> Self {
            Feed {
                registry: Registry::new(t(10), t(1)),
                metrics: MetricsCollector::new(t(1)),
                engine: BurnEngine::new(objective),
                now: 0,
            }
        }

        /// Records one second of `family` traffic, `dropped` of `arrived`
        /// dropped and the rest served on time, then seals and evaluates.
        fn step(
            &mut self,
            family: ModelFamily,
            arrived: u64,
            dropped: u64,
        ) -> Vec<AlertTransition> {
            let at = SimTime::from_millis(self.now * 1000 + 500);
            for i in 0..arrived {
                self.metrics.record_arrival(at, family);
                if i < dropped {
                    self.metrics.record_dropped(at, family);
                } else {
                    self.metrics.record_served(at, family, 0.9, true);
                }
            }
            self.now += 1;
            let now = t(self.now);
            self.registry
                .seal_step(now, &[], Default::default(), &self.metrics);
            self.engine.push_step(now, &self.registry)
        }
    }

    fn pages(transitions: &[AlertTransition], fired: bool) -> usize {
        transitions
            .iter()
            .filter(|tr| tr.severity == AlertSeverity::Page && tr.fired == fired)
            .count()
    }

    #[test]
    fn the_policy_is_the_workbook_pair_with_three_windows() {
        assert_eq!(
            RULES.map(|r| r.severity),
            AlertSeverity::ALL,
            "one rule per severity, in severity order"
        );
        assert_eq!(RULES[1].short, RULES[0].long);
        assert!(WINDOWS.is_sorted());
    }

    #[test]
    fn page_fires_when_both_windows_exceed_and_resolves_on_short() {
        // Objective 0.95 => budget 0.05; the page rule's 6x factor needs
        // 30 % violations in both its 10 s and 60 s windows.
        let resnet = ModelFamily::ResNet;
        let mut f = Feed::new(0.95);
        for _ in 0..60 {
            assert!(f.step(resnet, 100, 0).is_empty());
        }
        // Seconds with 70 % dropped burn at 14x: the short window is hot
        // after the first, the long one only once 26 of its 60 are bad.
        for bad in 1..=30u64 {
            let fired = pages(&f.step(resnet, 100, 70), true);
            let want = if bad == 26 { 2 } else { 0 };
            assert_eq!(fired, want, "family scope and aggregate, bad second {bad}");
        }
        assert!(f.engine.is_active(AlertSeverity::Page, None));
        // Recovery: the short window reads 7x with five bad seconds left
        // in it and resolves at 5.6x with four.
        for good in 1..=6 {
            let resolved = pages(&f.step(resnet, 100, 0), false);
            assert_eq!(
                resolved,
                if good == 6 { 2 } else { 0 },
                "good second {good}"
            );
        }
        assert!(!f.engine.is_active(AlertSeverity::Page, None));
        assert_eq!(f.engine.fired_total(AlertSeverity::Page), 2);
        assert_eq!(f.engine.resolved_total(AlertSeverity::Page), 2);
        assert!((f.engine.peak_burn() - 14.0).abs() < 1e-9);
        // Every lifetime is in the log, tickets included.
        assert_eq!(
            f.engine.alerts().len() as u64,
            2 + f.engine.fired_total(AlertSeverity::Ticket)
        );
    }

    #[test]
    fn active_alerts_are_in_rule_then_scope_order() {
        // Budget 0.1: an all-dropped second burns at 10x, past both rules.
        let mut f = Feed::new(0.9);
        assert_eq!(f.step(ModelFamily::T5, 10, 10).len(), 4);
        // ResNet fires a second later; T5's short window is still hot.
        assert_eq!(f.step(ModelFamily::ResNet, 10, 10).len(), 2);
        let (page, ticket) = (AlertSeverity::Page, AlertSeverity::Ticket);
        assert_eq!(
            f.engine.active_alerts(),
            [
                (page, Some(ModelFamily::ResNet)),
                (page, Some(ModelFamily::T5)),
                (page, None),
                (ticket, Some(ModelFamily::ResNet)),
                (ticket, Some(ModelFamily::T5)),
                (ticket, None),
            ]
        );
    }

    #[test]
    fn empty_windows_do_not_alert() {
        let mut f = Feed::new(0.99);
        for _ in 0..20 {
            assert!(f.step(ModelFamily::ResNet, 0, 0).is_empty());
        }
        assert_eq!(f.engine.peak_burn(), 0.0);
    }

    #[test]
    fn burn_rate_is_violations_over_budget() {
        let mut f = Feed::new(0.95);
        f.step(ModelFamily::ResNet, 100, 10);
        let (e, r) = (&f.engine, &f.registry);
        // 10 % violations / 5 % budget = 2x.
        assert!((e.burn_rate(r, t(5), None) - 2.0).abs() < 1e-9);
        assert!((e.burn_rate(r, t(5), Some(ModelFamily::ResNet)) - 2.0).abs() < 1e-9);
        assert_eq!(e.burn_rate(r, t(5), Some(ModelFamily::Bert)), 0.0);
    }
}

//! Declarative SLO alerting over collected time-series.
//!
//! Rules are evaluated in-process on every collector tick — no
//! external alertmanager, no wall-clock scheduling. A rule is a
//! threshold: the latest sample is above or below a bound ("queue
//! depth > 100").
//!
//! Each rule walks the usual state machine with since-timestamps:
//! `Inactive → Pending` (condition holds, waiting out
//! [`Rule::for_duration`]) `→ Firing → Resolved` (informational until
//! the next violation). A rule whose selector matches several series
//! (a family name matching every labelled series) fires if **any** of
//! them violates.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::metrics::Gauge;
use crate::series::SeriesStore;
use crate::trace::{fields, TraceId, Tracer};

/// Which side of the bound violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compare {
    /// Violated when the observed value is strictly above the bound.
    Above,
    /// Violated when the observed value is strictly below the bound.
    Below,
}

impl Compare {
    fn violates(self, observed: f64, bound: f64) -> bool {
        match self {
            Compare::Above => observed > bound,
            Compare::Below => observed < bound,
        }
    }
}

/// One declarative alerting rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Rule name, surfaced in `/v1/alerts`, the dashboard and traces.
    pub name: String,
    /// Series selector: an exact series key, or a family name matching
    /// every labelled series (`m` matches `m` and `m{worker="w0"}`).
    pub series: String,
    /// The bound the latest sample is checked against.
    pub value: f64,
    /// Which side of the bound violates.
    pub compare: Compare,
    /// How long the condition must hold before Pending becomes Firing
    /// (zero fires immediately).
    pub for_duration: Duration,
}

impl Rule {
    /// A threshold rule with no pending delay.
    pub fn threshold(name: &str, series: &str, compare: Compare, value: f64) -> Rule {
        Rule {
            name: name.to_string(),
            series: series.to_string(),
            value,
            compare,
            for_duration: Duration::ZERO,
        }
    }

    /// Sets the pending delay.
    pub fn for_duration(mut self, d: Duration) -> Rule {
        self.for_duration = d;
        self
    }
}

/// Alert lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Never violated (or violation cleared while still pending).
    Inactive,
    /// Violating, waiting out `for_duration`.
    Pending,
    /// Violating past `for_duration` — the alert is live.
    Firing,
    /// Previously firing, currently back within bounds.
    Resolved,
}

impl AlertState {
    /// The state's lower-case wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

/// One rule's externally visible status.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertStatus {
    /// The rule name.
    pub rule: String,
    /// The rule's series selector.
    pub series: String,
    /// Current state.
    pub state: AlertState,
    /// When (store milliseconds) the current state was entered.
    pub since_ms: u64,
    /// The latest sample of the matching series most likely to violate,
    /// if any series has one.
    pub value: Option<f64>,
}

/// A state-machine transition, reported so callers can emit trace
/// instant-events exactly once per edge.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// The rule name.
    pub rule: String,
    /// The state left.
    pub from: AlertState,
    /// The state entered.
    pub to: AlertState,
    /// The observed value at the transition, if any.
    pub value: Option<f64>,
}

#[derive(Debug)]
struct RuleState {
    state: AlertState,
    since_ms: u64,
    pending_since_ms: u64,
    last_value: Option<f64>,
}

/// Evaluates a fixed rule set against a [`SeriesStore`].
#[derive(Debug)]
pub(crate) struct Evaluator {
    rules: Vec<Rule>,
    states: Vec<RuleState>,
}

impl Evaluator {
    /// A fresh evaluator; every rule starts Inactive at time zero.
    pub(crate) fn new(rules: Vec<Rule>) -> Evaluator {
        let states = rules
            .iter()
            .map(|_| RuleState {
                state: AlertState::Inactive,
                since_ms: 0,
                pending_since_ms: 0,
                last_value: None,
            })
            .collect();
        Evaluator { rules, states }
    }

    /// Runs one evaluation pass at `now_ms`, advancing every rule's
    /// state machine; returns the transitions that happened.
    pub(crate) fn evaluate(&mut self, store: &SeriesStore, now_ms: u64) -> Vec<Transition> {
        let mut transitions = Vec::new();
        for (rule, st) in self.rules.iter().zip(self.states.iter_mut()) {
            let observed = worst_observation(rule, store);
            let violated = observed.is_some_and(|v| rule.compare.violates(v, rule.value));
            st.last_value = observed;
            let next = match (st.state, violated) {
                (AlertState::Inactive | AlertState::Resolved, true) => {
                    st.pending_since_ms = now_ms;
                    if now_ms.saturating_sub(st.pending_since_ms) >= duration_ms(rule.for_duration)
                    {
                        AlertState::Firing
                    } else {
                        AlertState::Pending
                    }
                }
                (AlertState::Pending, true) => {
                    if now_ms.saturating_sub(st.pending_since_ms) >= duration_ms(rule.for_duration)
                    {
                        AlertState::Firing
                    } else {
                        AlertState::Pending
                    }
                }
                (AlertState::Firing, true) => AlertState::Firing,
                (AlertState::Firing, false) => AlertState::Resolved,
                (AlertState::Pending, false) => AlertState::Inactive,
                (state @ (AlertState::Inactive | AlertState::Resolved), false) => state,
            };
            if next != st.state {
                transitions.push(Transition {
                    rule: rule.name.clone(),
                    from: st.state,
                    to: next,
                    value: observed,
                });
                st.state = next;
                st.since_ms = now_ms;
            }
        }
        transitions
    }

    /// Every rule's current status, in rule order.
    pub(crate) fn statuses(&self) -> Vec<AlertStatus> {
        self.rules
            .iter()
            .zip(self.states.iter())
            .map(|(rule, st)| AlertStatus {
                rule: rule.name.clone(),
                series: rule.series.clone(),
                state: st.state,
                since_ms: st.since_ms,
                value: st.last_value,
            })
            .collect()
    }

    /// How many rules are currently Firing.
    pub(crate) fn firing(&self) -> u64 {
        self.states
            .iter()
            .filter(|s| s.state == AlertState::Firing)
            .count() as u64
    }
}

/// The worst latest sample across every series the rule's selector
/// matches ("worst" = the one most likely to violate), or `None` when
/// no matching series has a sample yet.
fn worst_observation(rule: &Rule, store: &SeriesStore) -> Option<f64> {
    let mut worst: Option<f64> = None;
    for key in &store.keys_matching(&rule.series) {
        let Some((_, v)) = store.latest(key) else {
            continue;
        };
        let v = v.as_f64();
        let more_violating = match rule.compare {
            Compare::Above => worst.is_none_or(|w| v > w),
            Compare::Below => worst.is_none_or(|w| v < w),
        };
        if more_violating {
            worst = Some(v);
        }
    }
    worst
}

fn duration_ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// The shareable alerting runtime: a locked rule evaluator ticked by
/// the collector thread and read by the `/v1/alerts` endpoint, with
/// optional side-effects — a firing-count gauge
/// (`predllc_alerts_firing`) and trace instant-events on every state
/// transition.
pub struct SloRuntime {
    evaluator: Mutex<Evaluator>,
    firing_gauge: Option<Gauge>,
    tracer: Option<(Arc<Tracer>, TraceId)>,
}

impl std::fmt::Debug for SloRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloRuntime").finish_non_exhaustive()
    }
}

impl SloRuntime {
    /// A runtime over `rules`, with no side-channels attached.
    pub fn new(rules: Vec<Rule>) -> SloRuntime {
        SloRuntime {
            evaluator: Mutex::new(Evaluator::new(rules)),
            firing_gauge: None,
            tracer: None,
        }
    }

    /// Attaches the gauge updated with the firing-rule count after
    /// every tick.
    pub fn with_gauge(mut self, gauge: Gauge) -> SloRuntime {
        self.firing_gauge = Some(gauge);
        self
    }

    /// Attaches a tracer: every state transition emits an
    /// `slo.transition` instant event on `trace`.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>, trace: TraceId) -> SloRuntime {
        self.tracer = Some((tracer, trace));
        self
    }

    /// One evaluation tick at the store's current time. Returns the
    /// transitions (also traced, when a tracer is attached).
    pub fn tick(&self, store: &SeriesStore) -> Vec<Transition> {
        let now_ms = store.now_ms();
        let mut evaluator = self.evaluator.lock().unwrap();
        let transitions = evaluator.evaluate(store, now_ms);
        if let Some(gauge) = &self.firing_gauge {
            gauge.set(evaluator.firing());
        }
        drop(evaluator);
        if let Some((tracer, trace)) = &self.tracer {
            for t in &transitions {
                tracer.instant(
                    *trace,
                    "slo.transition",
                    fields(&[
                        ("rule", t.rule.as_str().into()),
                        ("from", t.from.as_str().into()),
                        ("to", t.to.as_str().into()),
                    ]),
                );
            }
        }
        transitions
    }

    /// Every rule's current status.
    pub fn statuses(&self) -> Vec<AlertStatus> {
        self.evaluator.lock().unwrap().statuses()
    }

    /// How many rules are currently Firing.
    pub fn firing(&self) -> u64 {
        self.evaluator.lock().unwrap().firing()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expo::ExpoValue;

    fn store_with(samples: &[(u64, u64)]) -> SeriesStore {
        let store = SeriesStore::new(256, 8);
        for &(t, v) in samples {
            store.record_at(t, &[("m".to_string(), ExpoValue::UInt(v))]);
        }
        store
    }

    #[test]
    fn threshold_walks_inactive_pending_firing_resolved() {
        let rule = Rule::threshold("depth", "m", Compare::Above, 10.0)
            .for_duration(Duration::from_millis(100));
        let mut ev = Evaluator::new(vec![rule]);
        let store = store_with(&[(0, 5)]);
        assert!(ev.evaluate(&store, 0).is_empty(), "within bounds");
        assert_eq!(ev.statuses()[0].state, AlertState::Inactive);

        store.record_at(50, &[("m".to_string(), ExpoValue::UInt(20))]);
        let t = ev.evaluate(&store, 50);
        assert_eq!(t.len(), 1);
        assert_eq!(
            (t[0].from, t[0].to),
            (AlertState::Inactive, AlertState::Pending)
        );

        // Still violating but for_duration not yet served.
        assert!(ev.evaluate(&store, 100).is_empty());
        // Served: Pending -> Firing.
        let t = ev.evaluate(&store, 160);
        assert_eq!(
            (t[0].from, t[0].to),
            (AlertState::Pending, AlertState::Firing)
        );
        assert_eq!(ev.firing(), 1);
        let status = &ev.statuses()[0];
        assert_eq!(status.since_ms, 160);
        assert_eq!(status.value, Some(20.0));

        // Back within bounds: Firing -> Resolved, and firing() drops.
        store.record_at(200, &[("m".to_string(), ExpoValue::UInt(3))]);
        let t = ev.evaluate(&store, 200);
        assert_eq!(
            (t[0].from, t[0].to),
            (AlertState::Firing, AlertState::Resolved)
        );
        assert_eq!(ev.firing(), 0);

        // Re-violation from Resolved goes Pending again.
        store.record_at(250, &[("m".to_string(), ExpoValue::UInt(30))]);
        let t = ev.evaluate(&store, 250);
        assert_eq!(
            (t[0].from, t[0].to),
            (AlertState::Resolved, AlertState::Pending)
        );
    }

    #[test]
    fn pending_clears_back_to_inactive_without_firing() {
        let rule = Rule::threshold("depth", "m", Compare::Above, 10.0)
            .for_duration(Duration::from_millis(500));
        let mut ev = Evaluator::new(vec![rule]);
        let store = store_with(&[(0, 20)]);
        ev.evaluate(&store, 0);
        assert_eq!(ev.statuses()[0].state, AlertState::Pending);
        store.record_at(100, &[("m".to_string(), ExpoValue::UInt(1))]);
        let t = ev.evaluate(&store, 100);
        assert_eq!(
            (t[0].from, t[0].to),
            (AlertState::Pending, AlertState::Inactive)
        );
    }

    #[test]
    fn zero_for_duration_fires_on_first_violation() {
        let rule = Rule::threshold("depth", "m", Compare::Above, 10.0);
        let mut ev = Evaluator::new(vec![rule]);
        let store = store_with(&[(0, 11)]);
        let t = ev.evaluate(&store, 0);
        assert_eq!(
            (t[0].from, t[0].to),
            (AlertState::Inactive, AlertState::Firing)
        );
    }

    #[test]
    fn family_selector_fires_on_any_labelled_series() {
        let rule = Rule::threshold("rtt", "m", Compare::Above, 10.0);
        let mut ev = Evaluator::new(vec![rule]);
        let store = SeriesStore::new(16, 8);
        store.record_at(
            0,
            &[
                ("m{worker=\"w0\"}".to_string(), ExpoValue::UInt(1)),
                ("m{worker=\"w1\"}".to_string(), ExpoValue::UInt(99)),
            ],
        );
        let t = ev.evaluate(&store, 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].to, AlertState::Firing);
        assert_eq!(t[0].value, Some(99.0), "worst series drives the value");
    }

    #[test]
    fn runtime_sets_gauge_and_reports_statuses() {
        let reg = crate::metrics::Registry::new();
        let gauge = reg.gauge("predllc_alerts_firing", "Firing rules");
        let runtime = SloRuntime::new(vec![Rule::threshold("depth", "m", Compare::Above, 10.0)])
            .with_gauge(gauge.clone());
        let store = store_with(&[(0, 50)]);
        let transitions = runtime.tick(&store);
        assert_eq!(transitions.len(), 1);
        assert_eq!(gauge.get(), 1);
        assert_eq!(runtime.statuses()[0].state, AlertState::Firing);
        assert_eq!(runtime.firing(), 1);
    }
}

//! The fleet dispatch loop: drivers, stealing, hedging, re-queues —
//! now with elastic membership and coordinator crash-resume.
//!
//! One driver thread per roster slot pulls work from a shared pool. A
//! point's *home* backend (its hash shard over the launch fleet) gets
//! first claim, but the pool is work-conserving: an idle backend steals
//! any pending point, and once nothing is pending it *hedges* —
//! re-dispatches the longest-in-flight point of a slower backend, with
//! first-result-wins dedup in the [`crate::merge::MergeSet`]. Dedup is
//! safe because every backend computes bit-identical results; hedging
//! can only change *when* a result arrives, never *what* it is.
//!
//! Failures split along a line that decides who pays:
//!
//! * **Transport/job failures** (connect refused, dead socket, `500`,
//!   degraded admission) are the backend's fault: the point goes back
//!   to pending with its dispatch budget refunded, and the failure
//!   counts toward that backend's eviction [`Breaker`].
//! * **Point failures** (the backend ran the job; the point itself
//!   failed — chaos, deadline, panic) burn one unit of the point's
//!   dispatch budget and also count against the backend (a backend
//!   whose jobs keep dying *is* flapping). A point that fails on
//!   `max_dispatch` distinct dispatches is recorded as permanently
//!   failed; until then other backends retry it, which is how a chaos-
//!   injected shard still converges to a clean merged run.
//!
//! Three elasticity layers sit on top of that core:
//!
//! * **Dynamic membership** ([`crate::membership`]): an optional
//!   control channel is served on its own thread for the length of the
//!   run; `join` appends a roster slot whose driver (spawned by the
//!   pump) steals from the *pending* pool only (completed points are
//!   never reassigned), `leave` requeues a slot's in-flight points
//!   exactly like eviction.
//! * **Probation rejoin**: eviction is no longer forever. With a
//!   probation policy set, an evicted slot cools down, is re-probed via
//!   [`Backend::probe`], and on a passing probe rejoins with a fresh
//!   [`Breaker`] but a *reduced* dispatch budget — no hedging — until
//!   it completes one point cleanly.
//! * **Crash-resume**: an optional fleet journal records every dispatch
//!   (`assign` note) and every resolution (standard point entry,
//!   payload included) as they happen, so a SIGKILLed coordinator can
//!   be restarted with the completed points seeded and only the
//!   remainder re-dispatched. It reopens and seeds like any resumed
//!   run: [`vm_harden::Journal::reopen`], then
//!   [`vm_explore::seeded_from_journal`].
//!
//! On top of all of that sits the **integrity layer** (docs/robustness.md).
//! Attestations catch payloads mutated *after* signing, but a backend
//! that lies *before* signing produces a validly-sealed wrong answer.
//! Three mechanisms catch it:
//!
//! * **Divergence detection**: a hedge duplicate is compared against
//!   the winner instead of blindly discarded; a mismatch marks both
//!   sources suspect and sends the point to arbitration.
//! * **Audit sampling** (`audit_rate`): a deterministic sample of
//!   accepted points is re-executed on a *different* backend; a
//!   mismatch is treated exactly like a divergent hedge.
//! * **2-of-3 quorum + quarantine**: a contested point is re-run on a
//!   third backend with both disputants banned; the minority side is
//!   quarantined (evicted with reason `integrity`), its unconfirmed
//!   wins are invalidated and re-run elsewhere, and it can only rejoin
//!   by reproducing an accepted result bit-for-bit — a health probe is
//!   no longer enough.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use vm_explore::{plan_fingerprint, result_to_value, run_header, ExecConfig, PointResult};
use vm_harden::{
    Breaker, DynJournalWriter, FailureKind, JournalEntry, PointOutcome, RetryPolicy, SimError,
};
use vm_obs::json::Value;
use vm_obs::{Event, EvictReason, Reporter, Sink};
use vm_serve::{Client, WatchHub};
use vm_types::SplitMix64;

use crate::backend::{Backend, ShutdownOutcome};
use crate::membership::{join_response, ControlChannel, ControlCmd, Slot, SlotState};
use crate::merge::{merge, rebind_payload, MergeSet, MergedRun, Offer};
use crate::plan::FleetPlan;
use crate::shard::shard_of;
use crate::watch::fan_in_backend;
use crate::EvictPolicy;

/// The `assign` note recorded per dispatch: which backend a point went
/// to. Pure provenance — [`vm_harden::Journal::parse`] counts these
/// notes and resume seeds from point entries only.
fn assign_note(point: usize, backend: usize) -> Value {
    Value::obj([
        ("j", "assign".into()),
        ("point", (point as u64).into()),
        ("backend", (backend as u64).into()),
    ])
}

/// Knobs for one fleet run.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Startup health-probe budget per backend (jittered backoff).
    pub health_retry: RetryPolicy,
    /// Eviction breaker: failures-in-window before a backend is
    /// removed from rotation.
    pub evict: EvictPolicy,
    /// How long a point may be in flight before an idle backend hedges
    /// it. `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// Distinct dispatches a point may fail on before it is recorded as
    /// permanently failed.
    pub max_dispatch: u32,
    /// Per-point walk-cycle budget forwarded to backends.
    pub point_budget: Option<u64>,
    /// Cool-down before an evicted backend is re-probed for rejoin.
    /// `None` makes eviction permanent (the pre-elastic behavior).
    pub probation: Option<Duration>,
    /// Failed probes before a probationary backend is declared dead.
    pub probation_probes: u32,
    /// Idle keepalive: how long a driver may sit idle before it probes
    /// its backend, so a dead-idle backend is evicted promptly instead
    /// of on next dispatch. `None` disables the idle probe.
    pub keepalive: Option<Duration>,
    /// Drain deadline for spawned backends at teardown before `kill`.
    pub drain: Duration,
    /// Fraction of accepted points (0.0–1.0) re-executed on a different
    /// backend as an integrity audit. The sample is deterministic
    /// (seeded from the plan fingerprint), so the same run audits the
    /// same points. `0.0` disables auditing.
    pub audit_rate: f64,
}

impl Default for FleetOptions {
    fn default() -> FleetOptions {
        FleetOptions {
            health_retry: RetryPolicy::new(3),
            evict: EvictPolicy::default(),
            hedge_after: Some(Duration::from_millis(2_000)),
            max_dispatch: 3,
            point_budget: None,
            probation: Some(Duration::from_millis(5_000)),
            probation_probes: 10,
            keepalive: Some(Duration::from_millis(1_000)),
            drain: Duration::from_secs(2),
            audit_rate: 0.0,
        }
    }
}

/// Per-run I/O the coordinator threads share: the fleet journal,
/// resume seed, and control channel. [`FleetSession::default`] is the
/// plain ephemeral run (no journal, no control, cold start).
#[derive(Default)]
pub struct FleetSession {
    /// Fleet journal appended as the run progresses (crash-resume).
    pub journal: Option<DynJournalWriter>,
    /// Whether to write a fresh run header into the journal (`false`
    /// when appending to a resumed journal that already has one).
    pub write_header: bool,
    /// Completed results replayed from a prior coordinator's journal
    /// ([`vm_explore::seeded_from_journal`]); these points are never
    /// re-dispatched.
    pub seeded: BTreeMap<usize, PointResult>,
    /// Control channel served for `join` / `leave` / `roster` verbs.
    pub control: Option<ControlChannel>,
}

impl FleetSession {
    /// A session journaling to `journal` from a cold start.
    pub fn journaled(journal: DynJournalWriter) -> FleetSession {
        FleetSession { journal: Some(journal), write_header: true, ..FleetSession::default() }
    }
}

impl std::fmt::Debug for FleetSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSession")
            .field("journal", &self.journal.is_some())
            .field("write_header", &self.write_header)
            .field("seeded", &self.seeded.len())
            .field("control", &self.control)
            .finish()
    }
}

/// One roster row in the final [`FleetOutcome`].
#[derive(Debug)]
pub struct SlotReport {
    /// The fleet slot.
    pub slot: usize,
    /// The backend's address.
    pub addr: String,
    /// Final membership state label (`active`, `probation`, …).
    pub state: &'static str,
    /// Points this slot completed (wins only).
    pub completed: u64,
    /// Whether the slot joined mid-run via the control channel.
    pub joined: bool,
    /// Whether the slot ended the run quarantined for an integrity
    /// violation (wrong results over a healthy socket).
    pub quarantined: bool,
    /// How the backend's teardown reconciled.
    pub shutdown: ShutdownOutcome,
}

/// What a fleet run produced.
#[derive(Debug)]
pub struct FleetOutcome {
    /// The merged results, failures, and journal bytes.
    pub merged: MergedRun,
    /// Point-jobs dispatched (primary dispatches, not hedges).
    pub dispatched: u64,
    /// Hedge dispatches issued.
    pub hedged: u64,
    /// Duplicate results that matched their winner bit-for-bit (the
    /// determinism contract holding under hedging).
    pub duplicates_identical: u64,
    /// Duplicate results that disagreed with their winner — each one an
    /// integrity incident that went to 2-of-3 arbitration.
    pub duplicates_divergent: u64,
    /// Eviction history by fleet slot (a slot that rejoins and is
    /// evicted again appears twice).
    pub evicted: Vec<usize>,
    /// Slots still in rotation at merge time.
    pub healthy: usize,
    /// Points restored from a fleet journal instead of dispatched.
    pub resumed: usize,
    /// Final roster, one row per slot, with teardown reconciliation.
    pub roster: Vec<SlotReport>,
}

/// One claim on an in-flight point.
#[derive(Debug, Clone, Copy)]
struct Claim {
    backend: usize,
    since: Instant,
}

/// The two disagreeing parties of a contested point, held until a
/// third (un-implicated) backend arbitrates the 2-of-3 quorum.
#[derive(Debug)]
struct Contest {
    /// `(backend, payload)` whose copy was accepted first.
    first: (usize, Value),
    /// `(backend, payload)` whose later copy disagreed.
    second: (usize, Value),
}

#[derive(Debug)]
struct State {
    pending: BTreeSet<usize>,
    inflight: BTreeMap<usize, Vec<Claim>>,
    set: MergeSet,
    failed: BTreeMap<usize, SimError>,
    /// Dispatches that reached a verdict (or are in flight), per point.
    dispatch_count: Vec<u32>,
    slots: Vec<Slot>,
    evicted: Vec<usize>,
    /// Joined slots waiting for the pump to spawn their driver.
    spawn_queue: Vec<usize>,
    dispatched: u64,
    hedged: u64,
    /// Which backend produced the accepted payload, per won point
    /// (absent for resumed points, which are never re-audited).
    winner: BTreeMap<usize, usize>,
    /// Backends barred from a point: quorum disputants, and anywhere a
    /// quarantined backend's invalidated win is being re-run.
    banned: BTreeMap<usize, BTreeSet<usize>>,
    /// Contested points awaiting a third-backend arbitration.
    contests: BTreeMap<usize, Contest>,
    /// Accepted points sampled for audit, not yet picked up.
    audit_due: BTreeSet<usize>,
    /// Audits running right now: point → auditor slot.
    audit_inflight: BTreeMap<usize, usize>,
    /// Points whose acceptance was independently confirmed (audit pass
    /// or quorum); immune to quarantine invalidation.
    audited: BTreeSet<usize>,
    events: Vec<(u64, Event)>,
    fatal: Option<String>,
}

impl State {
    fn resolved(&self) -> usize {
        self.set.accepted() + self.failed.len()
    }

    /// The run is only finished when every point is resolved *and* the
    /// integrity machinery has drained: no audit queued or running, no
    /// contest unarbitrated. Drivers and the pump both gate on this, so
    /// a lying backend cannot escape detection by being last.
    fn done(&self, total: usize) -> bool {
        self.resolved() == total
            && self.audit_due.is_empty()
            && self.audit_inflight.is_empty()
            && self.contests.is_empty()
    }

    /// Whether slot `b` may work on point `ix`.
    fn allowed(&self, ix: usize, b: usize) -> bool {
        self.banned.get(&ix).is_none_or(|s| !s.contains(&b))
    }
}

/// Whether point `ix` falls in the deterministic audit sample drawn at
/// `rate` from `seed`: the first SplitMix64 draw seeded with
/// `seed ^ ix`, as a 53-bit fraction, below `rate`.
fn audit_selected(seed: u64, ix: usize, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    let draw = SplitMix64::new(seed ^ ix as u64).next_u64() >> 11;
    (draw as f64 / (1u64 << 53) as f64) < rate
}

struct Shared<'a> {
    state: Mutex<State>,
    cv: Condvar,
    t0: Instant,
    total: usize,
    home: Vec<usize>,
    opts: &'a FleetOptions,
    fplan: &'a FleetPlan,
    exec: &'a ExecConfig,
    /// The fleet journal, behind its own lock so whole lines serialize.
    /// Lock order: state first, journal second — or journal alone.
    journal: Option<Mutex<DynJournalWriter>>,
    /// Seed for the deterministic audit sample (the plan fingerprint,
    /// so the same run always audits the same points).
    audit_seed: u64,
}

enum Work {
    /// Run this point as a single-point job.
    Point(usize),
    /// Re-execute this already-accepted point as an integrity audit:
    /// the fresh result is compared against the winner, not merged.
    Audit(usize),
    /// Nothing to dispatch and the slot has idled past the keepalive:
    /// health-probe the backend so a dead-idle one is caught promptly.
    Probe,
}

impl Shared<'_> {
    fn now_ms(&self) -> u64 {
        self.t0.elapsed().as_millis() as u64
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push_event(&self, st: &mut State, ev: Event) {
        st.events.push((self.now_ms(), ev));
    }

    /// Appends one line to the fleet journal (no state lock needed).
    fn journal_note(&self, v: &Value) {
        if let Some(j) = &self.journal {
            j.lock().unwrap_or_else(|e| e.into_inner()).note(v);
        }
    }

    /// Appends one point entry to the fleet journal.
    fn journal_entry(&self, entry: &JournalEntry) {
        if let Some(j) = &self.journal {
            j.lock().unwrap_or_else(|e| e.into_inner()).record(entry);
        }
    }

    /// Blocks until there is work for slot `b`, the run resolves, or
    /// the slot leaves rotation. Claims the returned point.
    fn next_work(&self, b: usize, last_active: &mut Instant) -> Option<Work> {
        let mut st = self.lock();
        loop {
            if st.fatal.is_some() || st.done(self.total) {
                self.cv.notify_all();
                return None;
            }
            if !st.slots[b].is_active() {
                return None;
            }
            // Pending work: own shard first, then steal the lowest
            // pending point (work conservation beats affinity). Joined
            // slots have no home shard, so they always steal — which is
            // exactly "re-shard only the pending set". Either way a slot
            // never claims a point it is banned from (quorum disputant
            // or invalidated win).
            let pick = st
                .pending
                .iter()
                .copied()
                .find(|&ix| self.home[ix] == b && st.allowed(ix, b))
                .or_else(|| st.pending.iter().copied().find(|&ix| st.allowed(ix, b)));
            if let Some(ix) = pick {
                st.pending.remove(&ix);
                st.inflight.insert(ix, vec![Claim { backend: b, since: Instant::now() }]);
                st.dispatched += 1;
                st.dispatch_count[ix] += 1;
                let ev = Event::ShardDispatched {
                    point: ix as u64,
                    shard: self.home[ix] as u64,
                    backend: b as u64,
                };
                self.push_event(&mut st, ev);
                *last_active = Instant::now();
                return Some(Work::Point(ix));
            }
            // Due audits next: re-execute an accepted point, but never
            // on the backend that produced it (self-confirmation proves
            // nothing) and never on a suspect slot (an unresolved
            // incident already implicates it).
            if !st.slots[b].suspect {
                let pick = st.audit_due.iter().copied().find(|&ix| {
                    st.winner.get(&ix).is_some_and(|&w| w != b)
                        && st.allowed(ix, b)
                        && st.set.get(ix).is_some()
                });
                if let Some(ix) = pick {
                    st.audit_due.remove(&ix);
                    st.audit_inflight.insert(ix, b);
                    *last_active = Instant::now();
                    return Some(Work::Audit(ix));
                }
            }
            // Nothing pending: hedge the longest-running straggler on
            // another backend (one hedge per point at a time). A slot
            // on its reduced post-rejoin budget may not hedge until it
            // completes a point cleanly.
            if !st.slots[b].reduced {
                if let Some(hedge_after) = self.opts.hedge_after {
                    let now = Instant::now();
                    let straggler = st
                        .inflight
                        .iter()
                        .filter(|(_, claims)| {
                            claims.len() == 1
                                && claims[0].backend != b
                                && now.duration_since(claims[0].since) >= hedge_after
                        })
                        .max_by_key(|(_, claims)| now.duration_since(claims[0].since))
                        .map(|(&ix, claims)| (ix, claims[0].backend));
                    if let Some((ix, from)) = straggler {
                        st.inflight
                            .get_mut(&ix)
                            .expect("straggler is in flight")
                            .push(Claim { backend: b, since: now });
                        st.hedged += 1;
                        let ev = Event::ShardHedged {
                            point: ix as u64,
                            from: from as u64,
                            to: b as u64,
                        };
                        self.push_event(&mut st, ev);
                        *last_active = Instant::now();
                        return Some(Work::Point(ix));
                    }
                }
            }
            // Idle past the keepalive: hand back a probe so a dead-idle
            // backend is discovered now, not on next dispatch.
            if let Some(keepalive) = self.opts.keepalive {
                if last_active.elapsed() >= keepalive {
                    *last_active = Instant::now();
                    return Some(Work::Probe);
                }
            }
            // Bounded wait so the hedge and keepalive clocks re-check.
            let (guard, _) = self
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Records a winning (or duplicate) result for `ix`. Duplicates are
    /// *compared*, not discarded: a divergent hedge copy opens a
    /// contest. A win for a contested point is the arbitration verdict
    /// and resolves the 2-of-3 quorum.
    fn complete(&self, ix: usize, payload: Value, b: usize) {
        let mut st = self.lock();
        if let Some(claims) = st.inflight.get_mut(&ix) {
            claims.retain(|c| c.backend != b);
            if claims.is_empty() {
                st.inflight.remove(&ix);
            }
        }
        // A quarantined or point-banned source gets no say: its claims
        // were re-pooled at eviction, and a late result racing in from
        // it must not be allowed to win the re-run of its own lie.
        if st.slots[b].quarantined || !st.allowed(ix, b) {
            self.cv.notify_all();
            return;
        }
        // A late success outranks an earlier provisional failure: the
        // result exists, so the point did not permanently fail.
        if st.set.get(ix).is_none() {
            st.failed.remove(&ix);
        }
        let mut entry = None;
        match st.set.offer(ix, payload.clone()) {
            Offer::Won => {
                st.slots[b].completed += 1;
                if st.slots[b].reduced {
                    // One clean completion clears the post-rejoin budget.
                    st.slots[b].reduced = false;
                    let ev = Event::BackendRecovered { backend: b as u64, point: ix as u64 };
                    self.push_event(&mut st, ev);
                }
                st.winner.insert(ix, b);
                if let Some(c) = st.contests.remove(&ix) {
                    self.resolve_contest(&mut st, ix, &payload, b, c);
                } else if audit_selected(self.audit_seed, ix, self.opts.audit_rate)
                    && !st.audited.contains(&ix)
                {
                    st.audit_due.insert(ix);
                }
                entry = Some(JournalEntry::from_outcome(
                    ix as u64,
                    &self.fplan.plan.points[ix].label,
                    &PointOutcome::Completed(payload),
                    1,
                    |p| p.clone(),
                ));
            }
            Offer::DuplicateIdentical => {}
            Offer::DuplicateDivergent => {
                let w = *st.winner.get(&ix).expect("a divergent duplicate implies a winner");
                let winner_payload =
                    st.set.get(ix).cloned().expect("a divergent duplicate implies a payload");
                let ev =
                    Event::ResultDiverged { point: ix as u64, first: w as u64, second: b as u64 };
                self.push_event(&mut st, ev);
                self.open_contest(&mut st, ix, (w, winner_payload), (b, payload));
            }
        }
        self.cv.notify_all();
        drop(st);
        if let Some(entry) = entry {
            self.journal_entry(&entry);
        }
    }

    /// Opens a 2-of-3 contest for `ix`: both disputants become suspect
    /// and are banned from the point, the accepted payload (if any) is
    /// withdrawn, and the point returns to pending so an un-implicated
    /// backend can arbitrate.
    fn open_contest(
        &self,
        st: &mut State,
        ix: usize,
        first: (usize, Value),
        second: (usize, Value),
    ) {
        st.slots[first.0].suspect = true;
        st.slots[second.0].suspect = true;
        st.set.clear(ix);
        st.winner.remove(&ix);
        st.audited.remove(&ix);
        st.audit_due.remove(&ix);
        st.banned.entry(ix).or_default().extend([first.0, second.0]);
        st.contests.insert(ix, Contest { first, second });
        st.pending.insert(ix);
    }

    /// Resolves a contest: the arbitrating payload sides with one
    /// disputant; the other is the 1-of-3 minority and is quarantined.
    /// Three mutually distinct results mean no quorum exists — fatal,
    /// because no arbitration can ever certify this point.
    fn resolve_contest(
        &self,
        st: &mut State,
        ix: usize,
        payload: &Value,
        arbiter: usize,
        c: Contest,
    ) {
        let verdict = if *payload == c.first.1 {
            Some((c.first.0, c.second.0))
        } else if *payload == c.second.1 {
            Some((c.second.0, c.first.0))
        } else {
            None
        };
        match verdict {
            Some((honest, liar)) => {
                st.slots[honest].suspect = false;
                st.slots[arbiter].suspect = false;
                // Confirmed by two independent backends: immune to
                // later invalidation and never re-audited.
                st.audited.insert(ix);
                st.banned.remove(&ix);
                self.quarantine(st, liar, ix);
            }
            None => {
                st.fatal = Some(format!(
                    "no quorum on point {ix}: three backends returned three distinct results"
                ));
            }
        }
    }

    /// Compares an audit re-execution against the accepted result.
    fn audit_result(&self, ix: usize, payload: Value, auditor: usize) {
        let mut st = self.lock();
        st.audit_inflight.remove(&ix);
        if st.slots[auditor].quarantined {
            self.cv.notify_all();
            return;
        }
        let (winner, winner_payload) = match (st.winner.get(&ix), st.set.get(ix)) {
            (Some(&w), Some(p)) => (w, p.clone()),
            // The win was invalidated while the audit ran (contest or
            // quarantine); the point is being re-run anyway.
            _ => {
                self.cv.notify_all();
                return;
            }
        };
        if winner_payload == payload {
            st.audited.insert(ix);
            let ev = Event::AuditPassed { point: ix as u64, backend: winner as u64 };
            self.push_event(&mut st, ev);
        } else {
            let ev = Event::AuditFailed {
                point: ix as u64,
                backend: winner as u64,
                auditor: auditor as u64,
            };
            self.push_event(&mut st, ev);
            self.open_contest(&mut st, ix, (winner, winner_payload), (auditor, payload));
        }
        self.cv.notify_all();
    }

    /// Returns an unfinished audit to the due queue (auditor transport
    /// failure or the audit run itself failed).
    fn audit_release(&self, ix: usize) {
        let mut st = self.lock();
        if st.audit_inflight.remove(&ix).is_some()
            && st.set.get(ix).is_some()
            && !st.audited.contains(&ix)
        {
            st.audit_due.insert(ix);
        }
        self.cv.notify_all();
    }

    /// Quarantines slot `b`, convicted by the arbitration of `point`:
    /// every win of its that was not independently confirmed is
    /// withdrawn and re-run with `b` banned, and the slot is evicted
    /// with reason `integrity` (probation cool-down applies, but
    /// re-admission will demand a passed audit, not just a live socket).
    fn quarantine(&self, st: &mut State, b: usize, point: usize) {
        if st.slots[b].quarantined {
            // A second contest convicting the same slot adds nothing:
            // the first conviction already withdrew its unaudited wins.
            return;
        }
        let ev = Event::BackendQuarantined { backend: b as u64, point: point as u64 };
        self.push_event(st, ev);
        st.slots[b].quarantined = true;
        st.slots[b].suspect = false;
        let dirty: Vec<usize> = st
            .winner
            .iter()
            .filter(|&(ix, &w)| w == b && !st.audited.contains(ix))
            .map(|(&ix, _)| ix)
            .collect();
        for ix in dirty {
            st.set.clear(ix);
            st.winner.remove(&ix);
            st.audit_due.remove(&ix);
            st.banned.entry(ix).or_default().insert(b);
            if !st.contests.contains_key(&ix) {
                st.pending.insert(ix);
            }
        }
        self.evict_locked(st, b, 0, EvictReason::Integrity);
    }

    /// Records a point-level failure of `ix` on backend `b`.
    fn point_failed(&self, ix: usize, err: SimError, b: usize) {
        let mut st = self.lock();
        let remaining = match st.inflight.get_mut(&ix) {
            Some(claims) => {
                claims.retain(|c| c.backend != b);
                claims.len()
            }
            None => return, // already resolved by a hedge partner
        };
        if remaining > 0 || st.set.get(ix).is_some() {
            if remaining == 0 {
                st.inflight.remove(&ix);
            }
            self.cv.notify_all();
            return; // someone else may still win it
        }
        st.inflight.remove(&ix);
        let mut entry = None;
        if st.dispatch_count[ix] >= self.opts.max_dispatch {
            let attempts = st.dispatch_count[ix];
            let err = SimError { attempts, ..err };
            let outcome: PointOutcome<Value> = if err.kind == FailureKind::Timeout {
                PointOutcome::TimedOut(err.clone())
            } else {
                PointOutcome::Failed(err.clone())
            };
            entry = Some(JournalEntry::from_outcome(
                ix as u64,
                &self.fplan.plan.points[ix].label,
                &outcome,
                attempts.max(1),
                Value::clone,
            ));
            st.failed.insert(ix, err);
        } else {
            st.pending.insert(ix);
        }
        self.cv.notify_all();
        drop(st);
        if let Some(entry) = entry {
            self.journal_entry(&entry);
        }
    }

    /// Returns `ix` to pending after a transport failure on `b` — the
    /// backend's fault, so the point's dispatch budget is refunded.
    fn release(&self, ix: usize, b: usize) {
        let mut st = self.lock();
        let remaining = match st.inflight.get_mut(&ix) {
            Some(claims) => {
                claims.retain(|c| c.backend != b);
                claims.len()
            }
            None => return,
        };
        st.dispatch_count[ix] = st.dispatch_count[ix].saturating_sub(1);
        if remaining == 0 {
            st.inflight.remove(&ix);
            if st.set.get(ix).is_none() && !st.failed.contains_key(&ix) {
                st.pending.insert(ix);
            }
        }
        self.cv.notify_all();
    }

    /// Declares the run stuck when no slot can ever work again.
    fn check_stuck(&self, st: &mut State) {
        if st.resolved() < self.total && !st.slots.iter().any(|s| s.state.can_work()) {
            st.fatal = Some(format!(
                "all {} backend(s) out of rotation with {} point(s) unresolved",
                st.slots.len(),
                self.total - st.resolved()
            ));
        }
    }

    /// Guards the integrity machinery against deadlock. Audits that no
    /// eligible backend can ever run are waived (an audit is opportunistic
    /// extra assurance, not a liveness obligation); a *contest* with no
    /// eligible arbiter is fatal, because the point's accepted value can
    /// never be certified.
    fn check_integrity_progress(&self, st: &mut State) {
        let eligible = |st: &State, ix: usize, exclude: Option<usize>| {
            st.slots.iter().enumerate().any(|(i, s)| {
                s.state.can_work() && !s.quarantined && Some(i) != exclude && st.allowed(ix, i)
            })
        };
        let waived: Vec<usize> = st
            .audit_due
            .iter()
            .copied()
            .filter(|&ix| !eligible(st, ix, st.winner.get(&ix).copied()))
            .collect();
        for ix in waived {
            st.audit_due.remove(&ix);
        }
        if st.fatal.is_none() {
            if let Some(&ix) = st.contests.keys().find(|&&ix| !eligible(st, ix, None)) {
                st.fatal = Some(format!(
                    "point {ix} diverged and no un-implicated backend remains to arbitrate it"
                ));
            }
        }
    }

    /// Removes slot `b` from rotation and re-pools its claims. With a
    /// probation policy (and a reason other than `left`) the slot cools
    /// down for a rejoin probe instead of dying outright.
    fn evict(&self, b: usize, failures: u32, reason: EvictReason) {
        let mut st = self.lock();
        self.evict_locked(&mut st, b, failures, reason);
    }

    /// [`Self::evict`] with the state lock already held (the quarantine
    /// path evicts from inside a completion).
    fn evict_locked(&self, st: &mut State, b: usize, failures: u32, reason: EvictReason) {
        let evictable = match reason {
            // An operator can drain any slot that could still return.
            EvictReason::Left => st.slots[b].state.can_work(),
            // Breaker and health-gate evictions come from the slot's
            // own driver, which only runs while the slot is active.
            _ => st.slots[b].is_active(),
        };
        if !evictable {
            return;
        }
        st.evicted.push(b);
        self.push_event(st, Event::BackendEvicted { backend: b as u64, failures, reason });
        st.slots[b].state = match (reason, self.opts.probation) {
            (EvictReason::Left, _) => SlotState::Left,
            (_, Some(cool)) => {
                let ev = Event::BackendProbation {
                    backend: b as u64,
                    retry_ms: cool.as_millis() as u64,
                };
                self.push_event(st, ev);
                SlotState::Probation { until: Instant::now() + cool, probes: 0 }
            }
            (_, None) => SlotState::Dead,
        };
        let orphaned: Vec<usize> = st
            .inflight
            .iter_mut()
            .filter_map(|(&ix, claims)| {
                claims.retain(|c| c.backend != b);
                claims.is_empty().then_some(ix)
            })
            .collect();
        for ix in orphaned {
            st.inflight.remove(&ix);
            st.dispatch_count[ix] = st.dispatch_count[ix].saturating_sub(1);
            if st.set.get(ix).is_none() && !st.failed.contains_key(&ix) {
                st.pending.insert(ix);
            }
        }
        // Audits the evicted slot was running go back to the due queue
        // for another backend to pick up.
        let stale_audits: Vec<usize> =
            st.audit_inflight.iter().filter(|&(_, &a)| a == b).map(|(&ix, _)| ix).collect();
        for ix in stale_audits {
            st.audit_inflight.remove(&ix);
            if st.set.get(ix).is_some() && !st.audited.contains(&ix) {
                st.audit_due.insert(ix);
            }
        }
        self.check_stuck(st);
        self.check_integrity_progress(st);
        self.cv.notify_all();
    }
}

/// One driver: optionally health-gate the backend, then pull work until
/// the run resolves or the breaker evicts the slot.
fn driver(b: usize, backend: &Backend, shared: &Shared<'_>, gate: bool) {
    let opts = shared.opts;
    {
        // A resumed-complete or already-fatal run needs no gate probes.
        let st = shared.lock();
        if st.fatal.is_some() || st.done(shared.total) {
            return;
        }
    }
    // The gate's connection carries the slot's first job.
    let mut client: Option<Client> = None;
    if gate {
        match backend.health_check(&opts.health_retry) {
            Ok(gated) => client = Some(gated),
            Err(_) => {
                shared.evict(b, opts.health_retry.retries + 1, EvictReason::Health);
                return;
            }
        }
    }
    let mut breaker = Breaker::new(opts.evict);
    let mut consecutive = 0u32;
    let mut last_active = Instant::now();
    while let Some(work) = shared.next_work(b, &mut last_active) {
        let ix = match work {
            Work::Point(ix) => ix,
            Work::Audit(ix) => {
                match run_point(&mut client, backend, shared.fplan, shared.exec, opts, ix) {
                    Ok(Ok(payload)) => {
                        consecutive = 0;
                        shared.audit_result(ix, payload, b);
                    }
                    Ok(Err(_)) => {
                        // The audit *run* failed (not a mismatch): hand
                        // the audit back and charge this backend.
                        consecutive = 0;
                        shared.audit_release(ix);
                        if breaker.record(Instant::now()) {
                            shared.evict(b, breaker.failures(), EvictReason::PointFault);
                            return;
                        }
                    }
                    Err(_transport) => {
                        client = None;
                        shared.audit_release(ix);
                        if breaker.record(Instant::now()) {
                            shared.evict(b, breaker.failures(), EvictReason::Transport);
                            return;
                        }
                        consecutive += 1;
                        std::thread::sleep(
                            opts.health_retry.backoff_jittered(consecutive, b as u64),
                        );
                    }
                }
                continue;
            }
            Work::Probe => {
                if backend.probe().is_ok() {
                    consecutive = 0;
                    continue;
                }
                // Dead while idle: count it like any transport failure.
                client = None;
                if breaker.record(Instant::now()) {
                    shared.evict(b, breaker.failures(), EvictReason::Health);
                    return;
                }
                consecutive += 1;
                std::thread::sleep(opts.health_retry.backoff_jittered(consecutive, b as u64));
                continue;
            }
        };
        shared.journal_note(&assign_note(ix, b));
        match run_point(&mut client, backend, shared.fplan, shared.exec, opts, ix) {
            Ok(Ok(payload)) => {
                consecutive = 0;
                shared.complete(ix, payload, b);
            }
            Ok(Err(err)) => {
                // The backend ran the job; the *point* failed. Burn one
                // unit of the point's budget and one of the backend's.
                consecutive = 0;
                shared.point_failed(ix, err, b);
                if breaker.record(Instant::now()) {
                    shared.evict(b, breaker.failures(), EvictReason::PointFault);
                    return;
                }
            }
            Err(_transport) => {
                client = None;
                shared.release(ix, b);
                if breaker.record(Instant::now()) {
                    shared.evict(b, breaker.failures(), EvictReason::Transport);
                    return;
                }
                consecutive += 1;
                std::thread::sleep(opts.health_retry.backoff_jittered(consecutive, b as u64));
            }
        }
    }
}

/// What a quarantined slot must do beyond a live socket to rejoin.
enum RejoinGate {
    /// Not quarantined: the health probe alone re-admits.
    Probe,
    /// Quarantined: reproduce this accepted `(point, payload)` exactly.
    Audit(usize, Value),
    /// Quarantined but nothing is accepted yet to audit against; stay
    /// in probation until there is.
    Defer,
}

/// One probation probe: health-check a cooled-down slot and either
/// re-admit it (becoming its new driver) or re-arm the cool-down. A
/// *quarantined* slot has a higher bar: it was caught returning wrong
/// results over a perfectly healthy socket, so it must additionally
/// re-run an accepted point and match it bit-for-bit.
fn probation_probe(b: usize, probes: u32, shared: &Shared<'_>) {
    let backend = {
        let st = shared.lock();
        if st.slots[b].state != SlotState::Probing {
            return; // left or killed while the probe was scheduled
        }
        Arc::clone(&st.slots[b].backend)
    };
    let mut passed = backend.probe().is_ok();
    if passed {
        let gate = {
            let st = shared.lock();
            if st.slots[b].state != SlotState::Probing {
                return; // `leave` raced the probe
            }
            if !st.slots[b].quarantined {
                RejoinGate::Probe
            } else {
                match st
                    .winner
                    .keys()
                    .copied()
                    .find_map(|ix| st.set.get(ix).map(|p| (ix, p.clone())))
                {
                    Some((ix, payload)) => RejoinGate::Audit(ix, payload),
                    None => RejoinGate::Defer,
                }
            }
        };
        match gate {
            RejoinGate::Probe => {}
            RejoinGate::Defer => passed = false,
            RejoinGate::Audit(ix, expected) => {
                let reran =
                    run_point(&mut None, &backend, shared.fplan, shared.exec, shared.opts, ix);
                match reran {
                    Ok(Ok(payload)) if payload == expected => {
                        let mut st = shared.lock();
                        if st.slots[b].state != SlotState::Probing {
                            return;
                        }
                        st.slots[b].quarantined = false;
                        let ev = Event::AuditPassed { point: ix as u64, backend: b as u64 };
                        shared.push_event(&mut st, ev);
                    }
                    _ => passed = false,
                }
            }
        }
    }
    if passed {
        {
            let mut st = shared.lock();
            if st.slots[b].state != SlotState::Probing {
                return; // `leave` raced the probe
            }
            st.slots[b].state = SlotState::Active;
            st.slots[b].reduced = true;
            let ev = Event::BackendRejoined { backend: b as u64, probes: probes + 1 };
            shared.push_event(&mut st, ev);
        }
        shared.cv.notify_all();
        // Re-admitted with a fresh breaker; the probe was the gate.
        driver(b, &backend, shared, false);
        return;
    }
    let mut st = shared.lock();
    if st.slots[b].state != SlotState::Probing {
        return;
    }
    let failed = probes + 1;
    if failed >= shared.opts.probation_probes {
        st.slots[b].state = SlotState::Dead;
        shared.check_stuck(&mut st);
    } else {
        let cool = shared.opts.probation.unwrap_or(Duration::from_secs(5));
        st.slots[b].state = SlotState::Probation { until: Instant::now() + cool, probes: failed };
        let ev = Event::BackendProbation { backend: b as u64, retry_ms: cool.as_millis() as u64 };
        shared.push_event(&mut st, ev);
    }
    shared.cv.notify_all();
    drop(st);
}

/// Decodes one wire failure object into a [`SimError`].
fn decode_failure(v: &Value, fallback_label: &str) -> SimError {
    let s = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_owned);
    let kind = s("kind").as_deref().and_then(FailureKind::from_label).unwrap_or(FailureKind::Panic);
    SimError {
        label: s("label").unwrap_or_else(|| fallback_label.to_owned()),
        settings: Vec::new(),
        kind,
        detail: s("detail").unwrap_or_default(),
        attempts: v.get("attempts").and_then(Value::as_u64).unwrap_or(1) as u32,
    }
}

/// Runs point `ix` on `backend` as one single-point job: submit, then
/// `result` with `wait`, repeated while the daemon answers `202`, so the
/// result is read the moment the job finishes.
///
/// Outer `Err` = transport/backend fault (requeue, blame the backend);
/// inner `Err` = the point itself failed on a working backend.
fn run_point(
    client: &mut Option<Client>,
    backend: &Backend,
    fplan: &FleetPlan,
    exec: &ExecConfig,
    opts: &FleetOptions,
    ix: usize,
) -> Result<Result<Value, SimError>, String> {
    let point = &fplan.plan.points[ix];
    if client.is_none() {
        *client = Some(Client::connect(&*backend.addr).map_err(|e| format!("connect: {e}"))?);
    }
    let c = client.as_mut().expect("client was just connected");
    let mut fields = vec![
        ("req", Value::from("submit")),
        ("spec", Value::from(&*fplan.spec_toml[ix])),
        ("sweep", Value::Arr(fplan.pinned_axes(ix).into_iter().map(Value::from).collect())),
        ("warmup", exec.warmup.into()),
        ("measure", exec.measure.into()),
        ("tag", format!("fleet-{ix}").into()),
    ];
    if let Some(budget) = opts.point_budget {
        fields.push(("point_budget", budget.into()));
    }
    let resp = c.request(&Value::obj(fields))?;
    if resp.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("submit refused: {resp}"));
    }
    // A degraded admission would clamp run lengths and break
    // bit-identity — treat it like an unhealthy backend and requeue.
    if resp.get("degraded") == Some(&Value::Bool(true)) {
        return Err("backend admitted the job at degraded fidelity".to_owned());
    }
    let job = resp.get("job").and_then(Value::as_u64).ok_or("submit response without job id")?;
    let wait = Value::obj([("req", "result".into()), ("job", job.into()), ("wait", true.into())]);
    let resp = loop {
        let resp = c.request(&wait)?;
        if resp.get("code").and_then(Value::as_u64) != Some(202) {
            break resp;
        }
    };
    // A failed (`500`), cancelled or vanished job is the backend's fault.
    if resp.get("state").and_then(Value::as_str) != Some("done") {
        return Err(format!("job {job} did not finish on {}: {resp}", backend.addr));
    }
    let failures = resp.get("failures").and_then(Value::as_array).unwrap_or(&[]);
    if let Some(f) = failures.first() {
        let mut err = decode_failure(f, &point.label);
        err.settings = point.settings.clone();
        return Ok(Err(err));
    }
    let results = resp.get("results").and_then(Value::as_array).unwrap_or(&[]);
    match results {
        // Fan-in trust boundary: the payload must carry a valid
        // attestation for exactly the context the coordinator expects.
        [payload] => {
            Ok(Ok(rebind_payload(payload, ix, &point.label, vm_explore::context_for(point, exec))?))
        }
        other => Err(format!("expected exactly one result, got {}", other.len())),
    }
}

/// Answers one control-channel verb against the shared state, under the
/// state lock like every other membership change. Runs on the control
/// channel's thread; a joined slot's driver is spawned by the pump.
fn handle_control(cmd: ControlCmd, shared: &Shared<'_>) -> Result<Value, String> {
    match cmd {
        ControlCmd::Join { addr } => {
            let mut st = shared.lock();
            if st.fatal.is_some() {
                return Err("the run is already failing; join refused".to_owned());
            }
            if st.resolved() == shared.total {
                return Err("the run is complete; nothing left to dispatch".to_owned());
            }
            let slot = st.slots.len();
            st.slots.push(Slot::new(Backend::from_addr(slot, addr), true));
            st.spawn_queue.push(slot);
            let pending = st.pending.len();
            let ev = Event::BackendJoined { backend: slot as u64, pending: pending as u64 };
            shared.push_event(&mut st, ev);
            shared.cv.notify_all();
            Ok(join_response(slot, pending))
        }
        ControlCmd::Leave { slot } => {
            let state = {
                let st = shared.lock();
                st.slots.get(slot).map(|s| s.state)
            };
            match state {
                None => Err(format!("slot {slot} is not in the roster")),
                Some(SlotState::Left) => Err(format!("slot {slot} already left")),
                Some(SlotState::Dead) => Err(format!("slot {slot} is already dead")),
                Some(_) => {
                    shared.evict(slot, 0, EvictReason::Left);
                    Ok(vm_serve::ok_response([
                        ("slot", (slot as u64).into()),
                        ("state", "left".into()),
                    ]))
                }
            }
        }
        ControlCmd::Roster => {
            let st = shared.lock();
            let rows: Vec<Value> =
                st.slots.iter().enumerate().map(|(id, s)| s.describe(id)).collect();
            Ok(vm_serve::ok_response([
                ("slots", Value::Arr(rows)),
                ("pending", (st.pending.len() as u64).into()),
                ("resolved", (st.resolved() as u64).into()),
            ]))
        }
    }
}

/// Runs the whole fleet: health-gate, dispatch, hedge, merge — plus the
/// elastic layers (control channel, probation rejoin, fleet journal).
///
/// Takes ownership of `backends`: slots are shared with their driver
/// threads and gracefully drained (then reaped) at the end of the run,
/// with the reconciliation reported per-slot in the outcome's roster.
///
/// Fans every backend's `watch` stream into `hub` when one is given, so
/// a proxy listener can serve `repro watch` for the fleet.
///
/// # Errors
///
/// Returns a message when the plan is empty, no backend is usable, or
/// no slot that could still work remains while points are unresolved.
/// Point failures are not errors — they come back in the merged run.
#[allow(clippy::too_many_arguments)]
pub fn run_fleet<S: Sink>(
    fplan: &FleetPlan,
    exec: &ExecConfig,
    backends: Vec<Backend>,
    opts: &FleetOptions,
    reporter: &Reporter,
    sink: &mut S,
    hub: Option<&Arc<WatchHub>>,
    session: FleetSession,
) -> Result<FleetOutcome, String> {
    if backends.is_empty() {
        return Err("fleet needs at least one backend".to_owned());
    }
    let total = fplan.plan.points.len();
    if total == 0 {
        return Err("no runnable points in the sweep".to_owned());
    }
    let FleetSession { journal, write_header, seeded, control } = session;
    let initial = backends.len();
    let home: Vec<usize> = fplan.plan.points.iter().map(|p| shard_of(&p.label, initial)).collect();
    let mut set = MergeSet::new(total);
    let mut resumed = 0usize;
    for (ix, mut result) in seeded {
        // Restamp the global index, as fan-in does (`rebind_payload`).
        result.index = ix;
        if ix < total && set.offer(ix, result_to_value(&result)) == Offer::Won {
            resumed += 1;
        }
    }
    let pending: BTreeSet<usize> = (0..total).filter(|&ix| set.get(ix).is_none()).collect();
    let mut journal = journal;
    if let Some(j) = journal.as_mut() {
        if write_header {
            j.header(&run_header(&fplan.plan, exec));
        }
    }
    let slots: Vec<Slot> = backends.into_iter().map(|b| Slot::new(b, false)).collect();
    let launch_arcs: Vec<Arc<Backend>> = slots.iter().map(|s| Arc::clone(&s.backend)).collect();
    let shared = Shared {
        state: Mutex::new(State {
            pending,
            inflight: BTreeMap::new(),
            set,
            failed: BTreeMap::new(),
            dispatch_count: vec![0; total],
            slots,
            evicted: Vec::new(),
            spawn_queue: Vec::new(),
            dispatched: 0,
            hedged: 0,
            winner: BTreeMap::new(),
            banned: BTreeMap::new(),
            contests: BTreeMap::new(),
            audit_due: BTreeSet::new(),
            audit_inflight: BTreeMap::new(),
            audited: BTreeSet::new(),
            events: Vec::new(),
            fatal: None,
        }),
        cv: Condvar::new(),
        t0: Instant::now(),
        total,
        home,
        opts,
        fplan,
        exec,
        journal: journal.map(Mutex::new),
        audit_seed: plan_fingerprint(&fplan.plan, exec),
    };
    if resumed > 0 {
        let ev =
            Event::RunResumed { completed: resumed as u64, remaining: (total - resumed) as u64 };
        let mut st = shared.lock();
        shared.push_event(&mut st, ev);
    }
    reporter.progress(format!(
        "fleet: {total} point(s) across {initial} backend(s){}",
        if resumed > 0 {
            format!(", {resumed} resumed from the fleet journal")
        } else {
            String::new()
        }
    ));
    let stop = Arc::new(AtomicBool::new(false));
    if let Some(hub) = hub {
        for b in &launch_arcs {
            let (id, addr) = (b.id, b.addr.clone());
            let (hub, stop) = (Arc::clone(hub), Arc::clone(&stop));
            // Detached on purpose: a fan-in stream that only notices the
            // stop flag at its next keepalive must not stall the merge.
            std::thread::spawn(move || fan_in_backend(id, &addr, &hub, &stop));
        }
    }
    std::thread::scope(|scope| {
        let shared = &shared;
        for (b, backend) in launch_arcs.iter().enumerate() {
            scope.spawn(move || driver(b, backend, shared, true));
        }
        if let Some(control) = &control {
            let stop = &stop;
            scope.spawn(move || control.serve(stop, &mut |cmd| handle_control(cmd, shared)));
        }
        // The main thread is the pump: sinks are not `Sync`, so workers
        // buffer events under the state lock and we drain them here in
        // arrival order; the same loop fires due probation probes and
        // spawns drivers for joined slots.
        loop {
            let mut to_probe: Vec<(usize, u32)> = Vec::new();
            let mut to_spawn: Vec<(usize, Arc<Backend>)> = Vec::new();
            let done = {
                let mut st = shared.lock();
                for (t, ev) in std::mem::take(&mut st.events) {
                    sink.emit(t, &ev);
                }
                shared.check_integrity_progress(&mut st);
                let done = st.fatal.is_some() || st.done(total);
                if !done {
                    let now = Instant::now();
                    for (b, slot) in st.slots.iter_mut().enumerate() {
                        if let SlotState::Probation { until, probes } = slot.state {
                            if now >= until {
                                slot.state = SlotState::Probing;
                                to_probe.push((b, probes));
                            }
                        }
                    }
                    for b in std::mem::take(&mut st.spawn_queue) {
                        to_spawn.push((b, Arc::clone(&st.slots[b].backend)));
                    }
                    reporter.detail(format!("fleet: {}/{} resolved", st.resolved(), total));
                }
                done
            };
            if done {
                break;
            }
            for (b, probes) in to_probe {
                scope.spawn(move || probation_probe(b, probes, shared));
            }
            for (b, backend) in to_spawn {
                if let Some(hub) = hub {
                    let (addr, hub, stop) =
                        (backend.addr.clone(), Arc::clone(hub), Arc::clone(&stop));
                    std::thread::spawn(move || fan_in_backend(b, &addr, &hub, &stop));
                }
                scope.spawn(move || driver(b, &backend, shared, true));
            }
            let st = shared.lock();
            let (st, _) = shared
                .cv
                .wait_timeout(st, Duration::from_millis(100))
                .unwrap_or_else(|e| e.into_inner());
            drop(st);
        }
        stop.store(true, Ordering::Release);
        shared.cv.notify_all();
    });
    let end_ms = shared.now_ms();
    let Shared { state, journal, .. } = shared;
    let mut st = state.into_inner().unwrap_or_else(|e| e.into_inner());
    for (t, ev) in std::mem::take(&mut st.events) {
        sink.emit(t, &ev);
    }
    // Seal the fleet journal before teardown: a resume must never find
    // a longer-lived journal than the artifacts it vouches for.
    if let Some(j) = journal {
        let writer = j.into_inner().unwrap_or_else(|e| e.into_inner());
        writer.finish().map_err(|e| format!("fleet journal: {e}"))?;
    }
    // Drain-then-reap every spawned backend, reconciling the teardown.
    let roster: Vec<SlotReport> = st
        .slots
        .iter()
        .enumerate()
        .map(|(id, s)| SlotReport {
            slot: id,
            addr: s.backend.addr.clone(),
            state: s.state.label(),
            completed: s.completed,
            joined: s.joined,
            quarantined: s.quarantined,
            shutdown: s.backend.shutdown_within(opts.drain),
        })
        .collect();
    if let Some(msg) = st.fatal {
        return Err(msg);
    }
    let merged = merge(&fplan.plan, exec, &st.set, &st.failed)?;
    let healthy = st.slots.iter().filter(|s| s.is_active()).count();
    sink.emit(
        end_ms,
        &Event::FleetMerged {
            points: total as u64,
            backends: healthy as u64,
            hedged: st.hedged,
            duplicates_identical: st.set.duplicates_identical(),
            duplicates_divergent: st.set.duplicates_divergent(),
        },
    );
    if let Some(hub) = hub {
        hub.close();
    }
    reporter.progress(format!(
        "fleet: merged {} result(s), {} failure(s); {} dispatched, {} hedged, {} evicted",
        merged.results.len(),
        merged.failures.len(),
        st.dispatched,
        st.hedged,
        st.evicted.len()
    ));
    Ok(FleetOutcome {
        merged,
        dispatched: st.dispatched,
        hedged: st.hedged,
        duplicates_identical: st.set.duplicates_identical(),
        duplicates_divergent: st.set.duplicates_divergent(),
        evicted: st.evicted,
        healthy,
        resumed,
        roster,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_audit_sample_is_pinned() {
        // The same plan fingerprint must keep auditing the same points,
        // run after run.
        let seed = 0x0123_4567_89ab_cdef;
        let picked: Vec<usize> = (0..64).filter(|&ix| audit_selected(seed, ix, 0.5)).collect();
        assert_eq!(
            picked,
            [
                0, 2, 5, 7, 9, 10, 12, 17, 20, 24, 25, 26, 27, 28, 34, 36, 39, 40, 41, 42, 44, 45,
                47, 49, 52, 53, 54, 56, 57, 59, 63
            ]
        );
        assert!((0..64).all(|ix| !audit_selected(seed, ix, 0.0)));
        assert!((0..64).all(|ix| audit_selected(seed, ix, 1.0)));
    }
}

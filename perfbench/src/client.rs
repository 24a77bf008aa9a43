//! One pass of a workload: the client that drives the backend through the
//! `PubSub` facade, round by round, and checks what comes back.
//!
//! Phases: set-up (compile, build, populate, bootstrap to legitimacy),
//! the open-loop schedule (each round: that round's ops, `step`, drain
//! every live member, poll legitimacy), the settle phase (the same, plus
//! a convergence poll, until legitimate and fully drained or the cap),
//! the end-of-run checks, and checkpoint round trips.

use crate::alloc;
use crate::ledger::Ledger;
use crate::trace::Tracer;
use crate::workloads::Workload;
use skippub_core::checker;
use skippub_core::pubsub::{self, PubSub, SimBackend, Stats};
use skippub_core::{BackendKind, TopicId};
use skippub_harness::scenario::{builder_for, compile, PlannedOp};
use skippub_sim::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Checkpoint round trips timed at the end of a pass that takes them.
const CHECKPOINTS: usize = 3;

/// The backend under test, concrete so its per-kind message counters
/// are readable.
enum Backend {
    Sim(Box<SimBackend>),
    Sharded(Box<pubsub::ShardedBackend>),
}

impl Backend {
    fn ps(&self) -> &dyn PubSub {
        match self {
            Backend::Sim(b) => b.as_ref(),
            Backend::Sharded(b) => b.as_ref(),
        }
    }

    fn ps_mut(&mut self) -> &mut dyn PubSub {
        match self {
            Backend::Sim(b) => b.as_mut(),
            Backend::Sharded(b) => b.as_mut(),
        }
    }

    fn kinds(&self) -> BTreeMap<&'static str, u64> {
        match self {
            Backend::Sim(b) => b.metrics().by_kind().into_iter().collect(),
            Backend::Sharded(b) => b.metrics().by_kind().into_iter().collect(),
        }
    }
}

/// Counters read at a phase boundary.
struct Mark {
    stats: Stats,
    kinds: BTreeMap<&'static str, u64>,
}

impl Mark {
    fn take(b: &Backend) -> Mark {
        Mark {
            stats: b.ps().stats(),
            kinds: b.kinds(),
        }
    }
}

/// Counter deltas between two phase boundaries, keyed by name. Kinds
/// that appear only after `from` count from zero; the counters are
/// monotone, so a negative delta is a bug and panics.
pub fn phase_delta(
    from: &BTreeMap<String, u64>,
    to: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    if let Some(k) = from.keys().find(|k| !to.contains_key(*k)) {
        panic!("counter {k} went backwards to nothing");
    }
    to.iter()
        .map(|(k, &v)| {
            let before = from.get(k).copied().unwrap_or(0);
            let d = v
                .checked_sub(before)
                .unwrap_or_else(|| panic!("counter {k} went backwards"));
            (k.clone(), d)
        })
        .collect()
}

/// Flattens a phase boundary's counters into named totals.
fn flatten(m: &Mark) -> BTreeMap<String, u64> {
    let s = &m.stats;
    let mut out: BTreeMap<String, u64> = [
        ("sent", s.sent),
        ("delivered", s.delivered),
        ("dropped", s.dropped),
        ("dropped_by_fault", s.dropped_by_fault),
        ("duplicated", s.duplicated),
        ("reordered", s.reordered),
        ("delayed", s.delayed),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    for (i, p) in s.per_partition.iter().enumerate() {
        out.insert(format!("part{i}.delivered"), p.delivered);
        out.insert(format!("part{i}.stepped"), p.stepped);
        out.insert(format!("part{i}.cross_envelopes"), p.cross_envelopes);
        out.insert(format!("part{i}.lock_acquisitions"), p.lock_acquisitions);
    }
    for (k, v) in &m.kinds {
        out.insert(format!("kind.{k}"), *v);
    }
    out
}

/// Everything one pass measured.
pub struct PassOut {
    /// Compile + build + populate + bootstrap, seconds.
    pub setup_s: f64,
    /// Schedule + settle, seconds.
    pub run_s: f64,
    /// Schedule alone, seconds.
    pub sched_s: f64,
    /// Wall time of every client round, seconds: the schedule's rounds,
    /// then the settle phase's.
    pub round_s: Vec<f64>,
    /// `save_snapshot` + `restore` round trips, seconds each.
    pub checkpoint_s: Vec<f64>,
    /// Size of the end-of-run snapshot, when the pass took checkpoints.
    pub snapshot_bytes: Option<usize>,
    /// Peak live heap during the pass, bytes.
    pub peak_heap: usize,
    /// Scheduled rounds.
    pub sched_rounds: u64,
    /// Per-publication latency in rounds (unfinished ones at the cap).
    pub latency: Vec<u64>,
    /// Per-delivery latency in rounds (missing ones at the cap).
    pub delivery_latency: Vec<u64>,
    /// Deterministic counters: identical across passes of one seed,
    /// traced or not.
    pub counts: BTreeMap<String, u64>,
    /// Published `(topic, author, payload)`, in publish order.
    pub published: Vec<(u32, u64, Vec<u8>)>,
    /// The pass's spans (empty when untraced).
    pub tracer: Tracer,
    /// Check failures.
    pub errors: Vec<String>,
}

/// The client's state during a pass.
struct Client {
    backend: Backend,
    tracer: Tracer,
    ledger: Ledger,
    slot_ids: Vec<NodeId>,
    slot_topic: Vec<u32>,
    live: BTreeSet<usize>,
    /// Topic of every membership op in the schedule.
    membership_ops: Vec<u32>,
    publishes: u64,
    published: Vec<(u32, u64, Vec<u8>)>,
    errors: Vec<String>,
    /// Steps the bootstrap took to reach legitimacy.
    warm_rounds: u64,
}

impl Client {
    fn subscribe(&mut self, slot: usize, topic: u32) {
        let s = self.tracer.enter("pubsub.subscribe", 0);
        let id = self.backend.ps_mut().subscribe(TopicId(topic));
        self.tracer.exit(s);
        assert_eq!(slot, self.slot_ids.len(), "slots spawn in order");
        self.slot_ids.push(id);
        self.slot_topic.push(topic);
        self.live.insert(slot);
        self.ledger.subscribe(slot, topic);
    }

    fn depart(&mut self, slot: usize) {
        self.live.remove(&slot);
        self.ledger.depart(slot);
    }

    /// Applies one scheduled op in client round `round`.
    fn apply(&mut self, round: u64, op: &PlannedOp) {
        match op {
            PlannedOp::Subscribe { slot, topic } => {
                self.membership_ops.push(*topic);
                self.subscribe(*slot, *topic);
            }
            PlannedOp::Leave { slot, topic } => {
                self.membership_ops.push(*topic);
                let id = self.slot_ids[*slot];
                let s = self.tracer.enter("pubsub.unsubscribe", 0);
                self.backend.ps_mut().unsubscribe(id, TopicId(*topic));
                self.tracer.exit(s);
                self.depart(*slot);
            }
            PlannedOp::Publish {
                slot,
                topic,
                payload,
            } => {
                self.publishes += 1;
                let id = self.slot_ids[*slot];
                let trace_id = self.ledger.len() as u64 + 1;
                let s = self.tracer.enter("pubsub.publish", trace_id);
                let key = self
                    .backend
                    .ps_mut()
                    .publish(id, TopicId(*topic), payload.clone());
                self.tracer.exit(s);
                match key {
                    Some(key) => {
                        self.ledger
                            .publish(round, *topic, id.0, payload.clone(), key);
                        self.published.push((*topic, id.0, payload.clone()));
                    }
                    None => self
                        .errors
                        .push(format!("publish by live publisher {id:?} refused")),
                }
            }
            PlannedOp::Crash { slot } => {
                // Crash and its later detector report count as one op.
                self.membership_ops.push(self.slot_topic[*slot]);
                let id = self.slot_ids[*slot];
                let s = self.tracer.enter("pubsub.crash", 0);
                self.backend.ps_mut().crash(id);
                self.tracer.exit(s);
                self.depart(*slot);
            }
            PlannedOp::Report { slot } => {
                let id = self.slot_ids[*slot];
                let s = self.tracer.enter("pubsub.report", 0);
                self.backend.ps_mut().report_crash(id);
                self.tracer.exit(s);
            }
            PlannedOp::CrashSupervisor { topic } => {
                self.membership_ops.push(*topic);
                let s = self.tracer.enter("pubsub.sup_kill", 0);
                self.backend.ps_mut().crash_supervisor(TopicId(*topic));
                self.tracer.exit(s);
            }
            PlannedOp::Seed { .. } => self.errors.push("workloads seed no publications".into()),
        }
    }

    fn step(&mut self) {
        let s = self.tracer.enter("step", 0);
        self.backend.ps_mut().step();
        self.tracer.exit(s);
    }

    /// Drains every live member in client round `round`; returns the
    /// deliveries handed out.
    fn drain_all(&mut self, round: u64) -> u64 {
        let before = self.ledger.delivered;
        let live: Vec<usize> = self.live.iter().copied().collect();
        for slot in live {
            let id = self.slot_ids[slot];
            let s = self.tracer.enter("drain", 0);
            let events = self.backend.ps_mut().drain_events(id);
            let span = self.tracer.exit_id(s);
            for d in events {
                match self
                    .ledger
                    .drain(slot, round, d.topic.0, &d.key, d.author, &d.payload)
                {
                    Ok(p) => self.tracer.mark_in(span, "deliver", u64::from(p) + 1),
                    Err(v) => {
                        if self.errors.len() < 20 {
                            self.errors.push(format!("round {round}: {v:?}"));
                        }
                    }
                }
            }
        }
        self.ledger.delivered - before
    }

    fn legit(&mut self) -> bool {
        let s = self.tracer.enter("checker.legit", 0);
        let ok = self.backend.ps().is_legitimate();
        self.tracer.exit(s);
        ok
    }

    fn converged(&mut self) -> (bool, usize) {
        let s = self.tracer.enter("checker.conv", 0);
        let c = self.backend.ps().publications_converged();
        self.tracer.exit(s);
        c
    }
}

/// Set-up alone: compile, build, populate, bootstrap to legitimacy.
/// Returns the seconds it took, or an error when the bootstrap fails.
pub fn setup_only(w: &Workload) -> Result<f64, String> {
    let t0 = Instant::now();
    let _client = setup(w, Tracer::new(false))?;
    Ok(t0.elapsed().as_secs_f64())
}

fn setup(w: &Workload, tracer: Tracer) -> Result<(Client, Vec<Vec<PlannedOp>>), String> {
    let mut tracer = tracer;
    let root = tracer.enter("setup", 0);
    let s = tracer.enter("harness.compile", 0);
    let schedule = compile(&w.spec);
    tracer.exit(s);
    let builder = builder_for(&w.spec);
    let backend = match w.backend {
        BackendKind::Sim => Backend::Sim(Box::new(builder.build_sim())),
        BackendKind::Sharded => Backend::Sharded(Box::new(builder.build_sharded())),
        other => return Err(format!("backend {} is not benchmarked", other.name())),
    };
    let mut c = Client {
        backend,
        tracer,
        ledger: Ledger::default(),
        slot_ids: Vec::new(),
        slot_topic: Vec::new(),
        live: BTreeSet::new(),
        membership_ops: Vec::new(),
        publishes: 0,
        published: Vec::new(),
        errors: Vec::new(),
        warm_rounds: 0,
    };
    for op in &schedule.prelude {
        let PlannedOp::Subscribe { slot, topic } = op else {
            return Err(format!("prelude op {op:?} is not a subscribe"));
        };
        c.subscribe(*slot, *topic);
    }
    while !c.legit() {
        if c.warm_rounds >= w.spec.warm_budget {
            return Err(format!(
                "not legitimate after {} bootstrap rounds",
                c.warm_rounds
            ));
        }
        c.step();
        c.warm_rounds += 1;
    }
    c.tracer.exit(root);
    Ok((c, schedule.rounds))
}

/// Runs one pass of `w`, traced or not, ending with checkpoint round
/// trips if `checkpoints` is set.
pub fn run_pass(w: &Workload, traced: bool, checkpoints: bool) -> Result<PassOut, String> {
    alloc::reset_peak();
    let t_setup = Instant::now();
    let (mut c, rounds) = setup(w, Tracer::new(traced))?;
    let setup_s = t_setup.elapsed().as_secs_f64();

    // --- the schedule ---
    if let Some(f) = &w.spec.faults {
        c.backend.ps_mut().set_faults(Some(f.clone()));
    }
    let m0 = Mark::take(&c.backend);
    let t_run = Instant::now();
    let mut sched_deliveries = 0;
    let mut member_rounds = 0;
    let mut round_s = Vec::new();
    for (r, ops) in rounds.iter().enumerate() {
        let r = r as u64;
        let t_round = Instant::now();
        let span = c.tracer.enter("round", 0);
        for op in ops {
            c.apply(r, op);
        }
        c.step();
        member_rounds += c.live.len() as u64;
        sched_deliveries += c.drain_all(r);
        c.legit();
        c.tracer.exit(span);
        round_s.push(t_round.elapsed().as_secs_f64());
    }
    let sched_s = t_run.elapsed().as_secs_f64();
    let m1 = Mark::take(&c.backend);

    // --- settle ---
    let sched_rounds = rounds.len() as u64;
    let (mut relegit, mut settled) = (None, None);
    let mut k = 0;
    let mut conv = (false, 0);
    while k < w.cap && (relegit.is_none() || settled.is_none()) {
        k += 1;
        let round = sched_rounds + k - 1;
        let t_round = Instant::now();
        let span = c.tracer.enter("round", 0);
        c.step();
        c.drain_all(round);
        if c.legit() && relegit.is_none() {
            relegit = Some(k);
        }
        conv = c.converged();
        if c.ledger.all_drained() && settled.is_none() {
            settled = Some(k);
        }
        c.tracer.exit(span);
        round_s.push(t_round.elapsed().as_secs_f64());
    }
    let run_s = t_run.elapsed().as_secs_f64();
    let peak_heap = alloc::peak_bytes();
    let last_round = sched_rounds + k.max(1) - 1;

    // --- end-of-run checks ---
    if k == 0 {
        conv = c.converged();
    }
    if c.ledger.all_drained() != conv.0 {
        c.errors.push(format!(
            "client sees all_drained = {} but publications_converged() = {}",
            c.ledger.all_drained(),
            conv.0
        ));
    } else if conv.0 && conv.1 != c.ledger.live_topic_pubs() {
        c.errors.push(format!(
            "converged stores hold {} publications, the client published {} on live topics",
            conv.1,
            c.ledger.live_topic_pubs()
        ));
    }
    let topics = c.backend.ps().topic_count();
    let topic_legit: Vec<bool> = (0..topics)
        .map(|t| checker::check_topology(&c.backend.ps().snapshot(TopicId(t))).ok())
        .collect();
    let legit_now = c.backend.ps().is_legitimate();
    if legit_now != topic_legit.iter().all(|&x| x) {
        c.errors.push(format!(
            "is_legitimate() = {legit_now} disagrees with check_topology over {topics} topics"
        ));
    }

    // --- failed-op accounting ---
    let outcome = c.ledger.outcome(last_round);
    let failed_membership = c
        .membership_ops
        .iter()
        .filter(|&&t| !topic_legit[t as usize])
        .count() as u64;
    let attempted = c.publishes + c.membership_ops.len() as u64;
    let failed = outcome.undelivered as u64 + failed_membership;

    // --- checkpoints ---
    let mut checkpoint_s = Vec::new();
    let mut snapshot_bytes = None;
    for i in 0..if checkpoints { CHECKPOINTS } else { 0 } {
        let root = c.tracer.enter("checkpoint", 0);
        let t0 = Instant::now();
        let s = c.tracer.enter("snapshot.save", 0);
        let snap = c.backend.ps().save_snapshot()?;
        c.tracer.exit(s);
        let s = c.tracer.enter("snapshot.restore", 0);
        let restored = pubsub::restore(&snap)?;
        c.tracer.exit(s);
        checkpoint_s.push(t0.elapsed().as_secs_f64());
        c.tracer.exit(root);
        snapshot_bytes = Some(snap.byte_len());
        if i == 0 && restored.save_snapshot()?.as_text() != snap.as_text() {
            c.errors
                .push("a restored snapshot re-saves differently".into());
        }
    }

    // --- deterministic counters ---
    let f0 = flatten(&m0);
    let f1 = flatten(&m1);
    let mut counts: BTreeMap<String, u64> = phase_delta(&f0, &f1)
        .into_iter()
        .map(|(k, v)| (format!("sched.{k}"), v))
        .collect();
    counts.insert("peak_in_flight".into(), m1.stats.peak_in_flight);
    counts.insert("failovers".into(), c.backend.ps().supervisor_failovers());
    counts.insert("latency_sum".into(), outcome.latency.iter().sum());
    counts.insert(
        "latency_max".into(),
        outcome.latency.iter().copied().max().unwrap_or(0),
    );
    counts.insert("publications".into(), outcome.latency.len() as u64);
    counts.insert(
        "delivery_latency_sum".into(),
        outcome.delivery_latency.iter().sum(),
    );
    counts.insert(
        "delivery_latency_samples".into(),
        outcome.delivery_latency.len() as u64,
    );
    counts.insert("relegit_rounds".into(), relegit.unwrap_or(w.cap));
    counts.insert("settle_rounds".into(), settled.unwrap_or(w.cap));
    counts.insert("attempted".into(), attempted);
    counts.insert("failed".into(), failed);
    counts.insert("failed_publishes".into(), outcome.undelivered as u64);
    counts.insert("deliveries".into(), c.ledger.delivered);
    counts.insert("sched_deliveries".into(), sched_deliveries);
    counts.insert("member_rounds".into(), member_rounds);
    counts.insert("live_members".into(), c.live.len() as u64);
    counts.insert("warm_rounds".into(), c.warm_rounds);

    if traced {
        probe(&mut c, w);
    }

    Ok(PassOut {
        setup_s,
        run_s,
        sched_s,
        round_s,
        checkpoint_s,
        snapshot_bytes,
        peak_heap,
        sched_rounds,
        latency: outcome.latency,
        delivery_latency: outcome.delivery_latency,
        counts,
        published: c.published,
        tracer: c.tracer,
        errors: c.errors,
    })
}

/// Members a probe unsubscribes, and as many again it crashes.
const PROBE: usize = 16;

/// Times the facade ops the schedule never issued, after everything
/// else is measured: unsubscribes and crashes of churnable members,
/// under a `probe` root span so they stay out of the round shares.
fn probe(c: &mut Client, w: &Workload) {
    let spans = c.tracer.spans();
    let had = |name: &str| spans.iter().any(|s| s.name == name);
    let (leave, crash) = (!had("pubsub.unsubscribe"), !had("pubsub.crash"));
    let mut victims = c.live.iter().copied().filter(|&s| s >= w.spec.publishers);
    let root = c.tracer.enter("probe", 0);
    for (name, wanted) in [("pubsub.unsubscribe", leave), ("pubsub.crash", crash)] {
        if !wanted {
            continue;
        }
        for slot in victims.by_ref().take(PROBE) {
            let id = c.slot_ids[slot];
            let s = c.tracer.enter(name, 0);
            match name {
                "pubsub.unsubscribe" => c
                    .backend
                    .ps_mut()
                    .unsubscribe(id, TopicId(c.slot_topic[slot])),
                _ => c.backend.ps_mut().crash(id),
            }
            c.tracer.exit(s);
        }
    }
    c.tracer.exit(root);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn phase_delta_counts_new_kinds_from_zero() {
        let before = m(&[("kind.Check", 10), ("sent", 40)]);
        let after = m(&[("kind.Check", 25), ("kind.PublishNew", 7), ("sent", 72)]);
        let d = phase_delta(&before, &after);
        assert_eq!(
            d,
            m(&[("kind.Check", 15), ("kind.PublishNew", 7), ("sent", 32)])
        );
    }

    /// A small churning, publishing workload on one backend family.
    fn tiny(backend: BackendKind, seed: u64) -> Workload {
        use skippub_harness::scenario::{Burst, BurstKind, ScenarioSpec};
        let topics = if backend == BackendKind::Sim { 1 } else { 3 };
        let spec = ScenarioSpec::new("tiny", seed)
            .topics(topics)
            .shards(if topics == 1 { 1 } else { 2 })
            .threads(2)
            .replicas(2)
            .population(24)
            .publishers(6)
            .publish_prob(0.5)
            .arrivals_per_round(0.3)
            .departures_per_round(0.2)
            .burst(Burst {
                at: 5,
                count: 2,
                kind: BurstKind::Crash {
                    detect_after: Some(2),
                },
            })
            .sup_crash(8, 0)
            .rounds(20);
        Workload {
            spec,
            backend,
            cap: 40,
            seeds: 1,
        }
    }

    #[test]
    fn same_seed_gives_identical_counts_traced_or_not() {
        for backend in [BackendKind::Sim, BackendKind::Sharded] {
            let w = tiny(backend, 5);
            let a = run_pass(&w, false, true).unwrap();
            let b = run_pass(&w, true, true).unwrap();
            assert!(a.errors.is_empty(), "{:?}", a.errors);
            assert!(b.errors.is_empty(), "{:?}", b.errors);
            assert_eq!(a.counts, b.counts, "{}", backend.name());
            assert_eq!(a.snapshot_bytes, b.snapshot_bytes);
            assert_eq!(a.latency, b.latency);
            assert!(a.counts["publications"] > 0 && a.counts["sched.sent"] > 0);
            assert!(!b.tracer.spans().is_empty() && a.tracer.spans().is_empty());
            let other = run_pass(&tiny(backend, 6), false, false).unwrap();
            assert_eq!(other.snapshot_bytes, None);
            assert_ne!(a.counts, other.counts, "another seed gives other inputs");
        }
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn phase_delta_rejects_a_shrinking_counter() {
        phase_delta(&m(&[("sent", 5)]), &m(&[("sent", 4)]));
    }
}

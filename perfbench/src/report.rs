//! Turns passes into the named metrics the benchmark prints.

use crate::client::PassOut;
use crate::stats::{count_percentile, median, median_profile, percentile, tail_q};
use crate::trace::Tracer;
use skippub_trie::{PatriciaTrie, Publication};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Every message kind the protocol defines (`Msg::kind`). A kind outside
/// this list fails the run, so a new kind cannot go unreported.
pub const KINDS: [&str; 15] = [
    "Check",
    "CheckAndPublish",
    "CheckShortcut",
    "CheckTrie",
    "GetConfiguration",
    "IntroduceShortcut",
    "Intro",
    "Publish",
    "PublishNew",
    "RemoveConnections",
    "SetData",
    "Subscribe",
    "Token",
    "TokenReturn",
    "Unsubscribe",
];

/// One printed metric.
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count and percentile actually used, for the table.
    pub note: String,
}

/// Metric list under construction.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    fn add(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Adds `<base>_p50` and, when `tail` is set, `<base>_p99` — the
    /// latter at the tail rule's percentile, noted when it is below p99.
    fn percentiles(&mut self, base: &str, samples: &[f64], unit: &'static str, tail: bool) {
        let n = samples.len();
        self.add(
            format!("{base}_p50"),
            percentile(samples, 0.5),
            unit,
            format!("n={n}"),
        );
        if tail {
            let q = tail_q(n, 0.99);
            self.add(
                format!("{base}_p99"),
                percentile(samples, q),
                unit,
                format!("n={n}, read at p{}", q * 100.0),
            );
        }
    }
}

fn f(x: u64) -> f64 {
    x as f64
}

/// End-to-end metrics of untraced passes, grouped by the seed they
/// replay; `setups` holds the run's set-up times, one per set-up seed.
/// These are the metrics a later change may not worsen beyond their
/// bounds, so each is steady across seeds: times are per-round medians
/// within a seed's passes, averaged over the seeds, and counts pool the
/// seeds.
pub fn end_to_end(by_seed: &[Vec<&PassOut>], setups: &[f64]) -> Result<Metrics, String> {
    let firsts: Vec<&PassOut> = by_seed.iter().map(|g| g[0]).collect();
    let mut m = Metrics::default();
    let k = by_seed.iter().map(Vec::len).min().unwrap_or(0);
    let seeds = by_seed.len();
    let sum = |g: &dyn Fn(&PassOut) -> u64| -> u64 { firsts.iter().map(|p| g(p)).sum() };
    // A seed's passes replay it, so their round profiles line up.
    let (mut run_s, mut sched_s) = (0.0, 0.0);
    for g in by_seed {
        let profiles: Vec<&[f64]> = g.iter().map(|p| p.round_s.as_slice()).collect();
        run_s += median_profile(&profiles, g[0].round_s.len());
        sched_s += median_profile(&profiles, g[0].sched_rounds as usize);
    }
    let how = format!("per-round medians of ≥{k} passes, {seeds} seeds");
    m.add(
        "setup_s",
        median(setups),
        "s",
        format!("median of {} set-ups, one per seed", setups.len()),
    );
    m.add(
        "run_s",
        run_s / seeds as f64,
        "s",
        format!("mean over seeds of {how}"),
    );
    let rounds = sum(&|p| p.sched_rounds);
    m.add(
        "sched_rounds_per_s",
        f(rounds) / sched_s,
        "1/s",
        format!("{rounds} rounds, {how}"),
    );
    let deliveries = sum(&|p| p.counts["sched_deliveries"]);
    m.add(
        "deliveries_per_s",
        f(deliveries) / sched_s,
        "1/s",
        format!("{deliveries} deliveries, {how}"),
    );
    let latency: Vec<u64> = firsts
        .iter()
        .flat_map(|p| p.latency.iter().copied())
        .collect();
    let n = firsts[0].latency.len();
    if tail_q(n, 0.99) < 0.99 {
        return Err(format!("{n} publications leave fewer than 10 above p99"));
    }
    m.add(
        "pub_latency_rounds_p50",
        count_percentile(&latency, 0.5),
        "rounds",
        format!("n={}, {seeds} seeds", latency.len()),
    );
    let member_rounds = sum(&|p| p.counts["member_rounds"]);
    m.add(
        "msgs_per_node_round",
        f(sum(&|p| p.counts["sched.sent"])) / f(member_rounds),
        "msgs",
        format!("{member_rounds} member-rounds, {seeds} seeds"),
    );
    Ok(m)
}

/// Outcomes that swing with the seed or the machine — tail latencies set
/// by how many publications a defect strands, round counts at the cap,
/// failed ops, peak heap, and the memory-bound checkpoint time — from the
/// first pass; peak heap and checkpoint time are medians over the
/// untraced passes, whose heap holds no spans.
pub fn outcomes(first: &PassOut, untraced: &[&PassOut]) -> Metrics {
    let c = &first.counts;
    let mut m = Metrics::default();
    let n = first.latency.len();
    m.add(
        "pub_latency_rounds_p99",
        count_percentile(&first.latency, tail_q(n, 0.99)),
        "rounds",
        format!("n={n}"),
    );
    let d = &first.delivery_latency;
    m.add(
        "delivery_latency_rounds_p50",
        count_percentile(d, 0.5),
        "rounds",
        format!("n={}", d.len()),
    );
    m.add(
        "delivery_latency_rounds_p99",
        count_percentile(d, tail_q(d.len(), 0.99)),
        "rounds",
        format!("n={}", d.len()),
    );
    m.add(
        "relegit_rounds",
        f(c["relegit_rounds"]),
        "rounds",
        "first settle round is 1",
    );
    m.add(
        "settle_rounds",
        f(c["settle_rounds"]),
        "rounds",
        "first settle round is 1",
    );
    m.add(
        "ops_failed_frac",
        f(c["failed"]) / f(c["attempted"]),
        "ratio",
        format!("{} of {}", c["failed"], c["attempted"]),
    );
    let cps: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.checkpoint_s.iter().copied())
        .collect();
    m.add(
        "checkpoint_s",
        median(&cps),
        "s",
        format!("median of {} round trips", cps.len()),
    );
    let peaks: Vec<f64> = untraced.iter().map(|p| p.peak_heap as f64 / 1e6).collect();
    m.add(
        "peak_heap_mb",
        median(&peaks),
        "MB",
        format!("median of {} passes", peaks.len()),
    );
    m
}

/// Span-derived times of one traced pass.
#[derive(Default)]
struct Layers {
    /// Self time per layer name, summed over spans inside client rounds.
    self_ns: BTreeMap<&'static str, u64>,
    /// Total client-round time.
    round_ns: u64,
    round_ms: Vec<f64>,
    drain_ms_per_round: Vec<f64>,
    drain_calls: u64,
    empty_drains: u64,
    deliveries: u64,
    /// Durations by layer name, anywhere in the pass.
    durations: BTreeMap<&'static str, Vec<f64>>,
    /// Durations by layer name, inside client rounds only.
    in_rounds: BTreeMap<&'static str, Vec<f64>>,
}

fn layers(t: &Tracer) -> Layers {
    let spans = t.spans();
    let mut root = vec![0u32; spans.len()];
    let mut child_ns = vec![0u64; spans.len()];
    let mut deliveries_in = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent == u32::MAX {
            root[i] = i as u32;
        } else {
            root[i] = root[s.parent as usize];
            child_ns[s.parent as usize] += s.end - s.start;
            if s.name == "deliver" {
                deliveries_in[s.parent as usize] += 1;
            }
        }
    }
    let mut l = Layers::default();
    let mut drain_by_round: BTreeMap<u32, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end - s.start;
        l.durations.entry(s.name).or_default().push(dur as f64);
        if spans[root[i] as usize].name != "round" {
            continue;
        }
        *l.self_ns.entry(s.name).or_default() += dur - child_ns[i];
        l.in_rounds.entry(s.name).or_default().push(dur as f64);
        match s.name {
            "round" => {
                l.round_ns += dur;
                l.round_ms.push(dur as f64 / 1e6);
                drain_by_round.entry(i as u32).or_default();
            }
            "drain" => {
                *drain_by_round.entry(root[i]).or_default() += dur;
                l.drain_calls += 1;
                l.empty_drains += u64::from(deliveries_in[i] == 0);
                l.deliveries += deliveries_in[i];
            }
            _ => {}
        }
    }
    l.drain_ms_per_round = drain_by_round.values().map(|&ns| ns as f64 / 1e6).collect();
    l
}

/// Shadow replay of the run's publications into fresh tries: per-insert
/// and per-root-hash times, and a full walk per topic.
fn trie_replay(published: &[(u32, u64, Vec<u8>)]) -> (Vec<f64>, Vec<f64>, f64) {
    let mut tries: BTreeMap<u32, PatriciaTrie> = BTreeMap::new();
    let (mut insert_us, mut hash_us) = (Vec::new(), Vec::new());
    for (topic, author, payload) in published {
        let trie = tries.entry(*topic).or_default();
        let p = Publication::new(*author, payload.clone());
        let t0 = Instant::now();
        black_box(trie.insert(black_box(p)));
        insert_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        black_box(trie.root_hash());
        hash_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let t0 = Instant::now();
    let keys: usize = tries
        .values()
        .map(|t| black_box(t.iter_publications().count()))
        .sum();
    let walk_us_per_key = t0.elapsed().as_secs_f64() * 1e6 / keys.max(1) as f64;
    (insert_us, hash_us, walk_us_per_key)
}

/// Per-layer metrics: span times from the traced passes, counts from
/// the first pass, and the overhead of tracing against the untraced
/// passes.
pub fn per_layer(traced: &[&PassOut], untraced: &[&PassOut]) -> Result<Metrics, String> {
    let first = traced[0];
    let c = &first.counts;
    let count = |k: &str| f(c.get(k).copied().unwrap_or(0));
    let rounds = f(first.sched_rounds);
    let mut m = Metrics::default();

    let mut all = Layers::default();
    for p in traced {
        let l = layers(&p.tracer);
        for (k, v) in l.self_ns {
            *all.self_ns.entry(k).or_default() += v;
        }
        all.round_ns += l.round_ns;
        all.round_ms.extend(l.round_ms);
        all.drain_ms_per_round.extend(l.drain_ms_per_round);
        all.drain_calls += l.drain_calls;
        all.empty_drains += l.empty_drains;
        all.deliveries += l.deliveries;
        for (k, v) in l.durations {
            all.durations.entry(k).or_default().extend(v);
        }
        for (k, v) in l.in_rounds {
            all.in_rounds.entry(k).or_default().extend(v);
        }
    }
    let pick = |map: &BTreeMap<&'static str, Vec<f64>>, name: &str, scale: f64| -> Vec<f64> {
        map.get(name)
            .map(|v| v.iter().map(|ns| ns / scale).collect())
            .unwrap_or_default()
    };
    let dur = |name: &str, scale: f64| pick(&all.durations, name, scale);
    let in_rounds = |name: &str, scale: f64| pick(&all.in_rounds, name, scale);
    let share = |names: &[&str]| -> f64 {
        let ns: u64 = all
            .self_ns
            .iter()
            .filter(|(k, _)| names.iter().any(|n| k.starts_with(n)))
            .map(|(_, v)| v)
            .sum();
        ns as f64 / all.round_ns as f64
    };

    // harness
    m.add(
        "harness.compile_ms",
        median(&dur("harness.compile", 1e6)),
        "ms",
        "",
    );
    // pubsub facade ops
    m.percentiles(
        "pubsub.publish_us",
        &in_rounds("pubsub.publish", 1e3),
        "us",
        true,
    );
    m.percentiles(
        "pubsub.subscribe_us",
        &dur("pubsub.subscribe", 1e3),
        "us",
        true,
    );
    m.percentiles(
        "pubsub.unsubscribe_us",
        &dur("pubsub.unsubscribe", 1e3),
        "us",
        false,
    );
    m.percentiles("pubsub.crash_us", &dur("pubsub.crash", 1e3), "us", false);
    m.add(
        "pubsub.ops_share",
        share(&["pubsub."]),
        "ratio",
        "self time / round time",
    );
    // step
    m.percentiles("step.ms", &in_rounds("step", 1e6), "ms", true);
    m.add("step.share", share(&["step"]), "ratio", "");
    let parts = (0..)
        .take_while(|i| c.contains_key(&format!("sched.part{i}.delivered")))
        .count();
    let part_sum = |field: &str| -> f64 {
        let total: u64 = (0..parts)
            .map(|i| {
                c.get(&format!("sched.part{i}.{field}"))
                    .copied()
                    .unwrap_or(0)
            })
            .sum();
        f(total)
    };
    m.add(
        "sim.sent_per_round",
        count("sched.sent") / rounds,
        "msgs",
        "",
    );
    m.add(
        "sim.delivered_per_round",
        count("sched.delivered") / rounds,
        "msgs",
        "",
    );
    m.add(
        "sim.dropped_per_round",
        count("sched.dropped") / rounds,
        "msgs",
        "",
    );
    m.add(
        "sim.stepped_per_round",
        part_sum("stepped") / rounds,
        "count",
        "0 when unpartitioned",
    );
    m.add("sim.peak_in_flight", count("peak_in_flight"), "msgs", "");
    for kind in c.keys().filter_map(|k| k.strip_prefix("sched.kind.")) {
        if !KINDS.contains(&kind) {
            return Err(format!(
                "message kind {kind} is not in the benchmark's kind list"
            ));
        }
    }
    for kind in KINDS {
        m.add(
            format!("msgs.{kind}_per_round"),
            count(&format!("sched.kind.{kind}")) / rounds,
            "msgs",
            "",
        );
    }
    let carriers = count("sched.kind.PublishNew") + count("sched.kind.Publish");
    m.add(
        "flood.useful_ratio",
        count("sched_deliveries") / carriers.max(1.0),
        "ratio",
        format!(
            "{} drained / {carriers} PublishNew+Publish sent",
            count("sched_deliveries")
        ),
    );
    // partitioned comms
    m.add(
        "sim.cross_envelopes_per_round",
        part_sum("cross_envelopes") / rounds,
        "count",
        "",
    );
    m.add(
        "sim.lock_acquisitions_per_round",
        part_sum("lock_acquisitions") / rounds,
        "count",
        "",
    );
    let imbalance = |field: &str| -> f64 {
        let v: Vec<f64> = (0..parts)
            .map(|i| count(&format!("sched.part{i}.{field}")))
            .collect();
        let total: f64 = v.iter().sum();
        if v.len() < 2 || total == 0.0 {
            1.0
        } else {
            v.iter().copied().fold(0.0, f64::max) * v.len() as f64 / total
        }
    };
    m.add(
        "sim.delivered_imbalance",
        imbalance("delivered"),
        "ratio",
        "max/mean over partitions",
    );
    m.add(
        "sim.stepped_imbalance",
        imbalance("stepped"),
        "ratio",
        "max/mean over partitions",
    );
    // delivery cursor
    m.percentiles("drain.ms_per_round", &all.drain_ms_per_round, "ms", true);
    m.add(
        "drain.us_per_delivery",
        f(all.self_ns.get("drain").copied().unwrap_or(0)) / 1e3 / f(all.deliveries.max(1)),
        "us",
        format!("{} deliveries", all.deliveries),
    );
    m.add("drain.share", share(&["drain"]), "ratio", "");
    m.add(
        "drain.empty_frac",
        f(all.empty_drains) / f(all.drain_calls.max(1)),
        "ratio",
        format!("{} calls", all.drain_calls),
    );
    // checker
    m.percentiles(
        "checker.legit_us",
        &in_rounds("checker.legit", 1e3),
        "us",
        true,
    );
    m.add(
        "checker.legit_share",
        share(&["checker.legit"]),
        "ratio",
        "",
    );
    m.percentiles(
        "checker.conv_ms",
        &in_rounds("checker.conv", 1e6),
        "ms",
        true,
    );
    m.add("checker.conv_share", share(&["checker.conv"]), "ratio", "");
    // faults
    for (name, key) in [
        ("faults.dropped_per_round", "sched.dropped_by_fault"),
        ("faults.duplicated_per_round", "sched.duplicated"),
        ("faults.reordered_per_round", "sched.reordered"),
        ("faults.delayed_per_round", "sched.delayed"),
    ] {
        m.add(name, count(key) / rounds, "msgs", "");
    }
    // replica
    m.add("replica.failovers", count("failovers"), "count", "");
    // snapshot
    m.add(
        "snapshot.save_ms",
        median(&dur("snapshot.save", 1e6)),
        "ms",
        "",
    );
    m.add(
        "snapshot.restore_ms",
        median(&dur("snapshot.restore", 1e6)),
        "ms",
        "",
    );
    m.add(
        "snapshot.bytes_per_member",
        first.snapshot_bytes.map_or(f64::NAN, |b| b as f64) / count("live_members"),
        "B",
        "",
    );
    // trie shadow replay
    let (ins, hash, walk) = trie_replay(&first.published);
    m.add(
        "trie.insert_us_p50",
        percentile(&ins, 0.5),
        "us",
        format!("n={}", ins.len()),
    );
    m.add(
        "trie.root_hash_us_p50",
        percentile(&hash, 0.5),
        "us",
        format!("n={}", hash.len()),
    );
    m.add("trie.walk_us_per_key", walk, "us", "");
    // client round
    m.percentiles("round.ms", &all.round_ms, "ms", true);
    m.add(
        "round.self_share",
        share(&["round"]),
        "ratio",
        "client bookkeeping",
    );
    let run = |ps: &[&PassOut]| {
        let profiles: Vec<&[f64]> = ps.iter().map(|p| p.round_s.as_slice()).collect();
        median_profile(&profiles, first.round_s.len())
    };
    m.add(
        "trace.overhead_pct",
        100.0 * (run(traced) / run(untraced) - 1.0),
        "%",
        format!(
            "run_s traced vs untraced, {} + {} passes",
            traced.len(),
            untraced.len()
        ),
    );
    m.0.extend(outcomes(first, untraced).0);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_self_times_cover_the_round() {
        let mut t = Tracer::new(true);
        let setup = t.enter("setup", 0);
        let sub = t.enter("pubsub.subscribe", 0);
        t.exit(sub);
        t.exit(setup);
        for _ in 0..3 {
            let r = t.enter("round", 0);
            let s = t.enter("step", 0);
            t.exit(s);
            let d = t.enter("drain", 0);
            let id = t.exit_id(d);
            t.mark_in(id, "deliver", 1);
            let d = t.enter("drain", 0);
            t.exit(d);
            t.exit(r);
        }
        let l = layers(&t);
        assert_eq!(l.round_ms.len(), 3);
        assert_eq!(l.drain_ms_per_round.len(), 3);
        assert_eq!((l.drain_calls, l.empty_drains, l.deliveries), (6, 3, 3));
        let covered: u64 = l.self_ns.values().sum();
        assert_eq!(covered, l.round_ns, "self times partition the round time");
        assert!(
            !l.self_ns.contains_key("setup"),
            "set-up is outside the rounds"
        );
        assert_eq!(l.durations["pubsub.subscribe"].len(), 1);
    }
}

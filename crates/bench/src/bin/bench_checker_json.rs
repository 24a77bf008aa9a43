//! Emits `BENCH_checker.json`: throughput of the legitimate-steady-state
//! **polling loop** — `step()` + `is_legitimate()` +
//! `publications_converged()` per round, the exact loop `until_legit` /
//! `until_pubs_converged` and every scenario stop condition run — with
//! the incremental checking layer against the **pre-PR from-scratch
//! checker**, preserved verbatim as [`skippub_bench::legacy_checker`]
//! (the same baseline-preservation pattern `legacy` uses for the old
//! simulation engine). Measured on the multi-topic and sharded backends
//! at a steady state that holds a converged publication working set —
//! the motivating workload: the old `publications_converged` clones and
//! unions every stored key of every subscriber per topic per poll, so
//! an empty store would understate the baseline's real cost.
//!
//! Both loops run interleaved on the **same** backend instance (the
//! checkers are read-only, so they share one trajectory), min-of-blocks.
//! Correctness is asserted *in-run*: outside every timed region the
//! incremental verdicts are compared against the legacy ones; the
//! emitted `incremental_matches_full: true` flag means every comparison
//! agreed (a mismatch aborts the run). CI executes this emitter in
//! smoke mode (tiny n) so the flag — and the A/B plumbing behind it —
//! cannot rot.
//!
//! Also records before/after wall-clock of the `steady-state` and
//! `shard-churn` built-in scenarios, A/B'd via the backends'
//! `set_full_checking` switch (the from-scratch path behind the facade).
//!
//! ```text
//! cargo run --release -p skippub-bench --bin bench_checker_json \
//!     [-- --n 10000 --topics 64 --shards 8 --pubs-per-topic 32 \
//!         --blocks 12 --block-rounds 4 --out BENCH_checker.json]
//! ```

use skippub_bench::legacy_checker as legacy;
use skippub_core::pubsub::{ShardedBackend, SystemBuilder};
use skippub_core::{PubSub, TopicId};
use skippub_harness::scenario::{self, library};
use skippub_sim::NodeId;
use std::fmt::Write as _;
use std::time::Instant;

const SEED: u64 = 0xC11EC4E8;

struct Args {
    n: u64,
    topics: u32,
    shards: usize,
    pubs_per_topic: u64,
    blocks: u64,
    block_rounds: u64,
    warm_budget: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        n: 10_000,
        topics: 64,
        shards: 8,
        pubs_per_topic: 32,
        blocks: 12,
        block_rounds: 4,
        warm_budget: 6_000,
        out: "BENCH_checker.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = || {
            argv.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", argv[i]))
                .clone()
        };
        match argv[i].as_str() {
            "--n" => args.n = value().parse().expect("--n"),
            "--topics" => args.topics = value().parse().expect("--topics"),
            "--shards" => args.shards = value().parse().expect("--shards"),
            "--pubs-per-topic" => args.pubs_per_topic = value().parse().expect("--pubs-per-topic"),
            "--blocks" => args.blocks = value().parse().expect("--blocks"),
            "--block-rounds" => args.block_rounds = value().parse().expect("--block-rounds"),
            "--warm-budget" => args.warm_budget = value().parse().expect("--warm-budget"),
            "--out" => args.out = value(),
            other => panic!("unknown argument {other:?}"),
        }
        i += 2;
    }
    args
}

struct Measured {
    backend: &'static str,
    legacy_rps: f64,
    incremental_rps: f64,
    warm_rounds: u64,
    pubs_total: usize,
}

/// Warms one backend to a legitimate steady state holding a converged
/// publication working set, then measures the two polling loops
/// interleaved on the same instance (both checkers are read-only),
/// min-of-blocks, cross-checking incremental == legacy outside every
/// timed region.
fn measure<B: PubSub>(
    a: &Args,
    backend: &'static str,
    ps: &mut B,
    legacy_poll: impl Fn(&B) -> (bool, (bool, usize)),
) -> Measured {
    eprintln!("[{backend}] populating (n={}, topics={}) ...", a.n, a.topics);
    for i in 0..a.n {
        ps.subscribe(TopicId((i % a.topics as u64) as u32));
    }
    let (warm_rounds, reached) = ps.until_legit(a.warm_budget);
    assert!(reached, "{backend}: population must stabilize within the warm budget");
    // The steady-state working set: P publications per topic, flooded
    // to convergence. Client i = NodeId(i + 1) subscribed topic i mod T,
    // so topic t's authors are t+1, t+1+T, t+1+2T, ...
    eprintln!("[{backend}] seeding {} publications per topic ...", a.pubs_per_topic);
    for t in 0..a.topics as u64 {
        for k in 0..a.pubs_per_topic {
            let author = NodeId(t + 1 + (k % 8) * a.topics as u64);
            let payload = format!("topic {t} publication {k}").into_bytes();
            ps.publish(author, TopicId(t as u32), payload)
                .expect("author is a live member of its topic");
        }
    }
    let (_, converged) = ps.until_pubs_converged(a.warm_budget);
    assert!(converged, "{backend}: working set must converge before measuring");
    assert!(ps.until_legit(a.warm_budget).1, "{backend}: still legitimate");
    let pubs_total = ps.publications_converged().1;

    let mut inc_best = f64::INFINITY;
    let mut legacy_best = f64::INFINITY;
    let mut digest = 0u64;
    for b in 0..a.blocks {
        eprintln!("[{backend}] block {}/{} ...", b + 1, a.blocks);
        // Both loops drive the same instance; alternate which is timed
        // first so traffic drift along the trajectory cannot
        // systematically favour one side.
        let time_legacy = |ps: &mut B, digest: &mut u64| {
            let t0 = Instant::now();
            for _ in 0..a.block_rounds {
                ps.step();
                let (legit, (conv, total)) = legacy_poll(ps);
                *digest += u64::from(legit) + u64::from(conv) + total as u64;
            }
            t0.elapsed().as_secs_f64()
        };
        let time_inc = |ps: &mut B, digest: &mut u64| {
            let t0 = Instant::now();
            for _ in 0..a.block_rounds {
                ps.step();
                let legit = ps.is_legitimate();
                let (conv, total) = ps.publications_converged();
                *digest += u64::from(legit) + u64::from(conv) + total as u64;
            }
            t0.elapsed().as_secs_f64()
        };
        if b % 2 == 0 {
            inc_best = inc_best.min(time_inc(ps, &mut digest));
            legacy_best = legacy_best.min(time_legacy(ps, &mut digest));
        } else {
            legacy_best = legacy_best.min(time_legacy(ps, &mut digest));
            inc_best = inc_best.min(time_inc(ps, &mut digest));
        }
        // In-run conformance, outside the timed regions.
        let (legit_legacy, pubs_legacy) = legacy_poll(ps);
        assert_eq!(
            ps.is_legitimate(),
            legit_legacy,
            "{backend}: incremental legitimacy diverged from the pre-PR checker"
        );
        assert_eq!(
            ps.publications_converged(),
            pubs_legacy,
            "{backend}: incremental convergence diverged from the pre-PR checker"
        );
    }
    assert!(digest > 0);
    Measured {
        backend,
        legacy_rps: a.block_rounds as f64 / legacy_best,
        incremental_rps: a.block_rounds as f64 / inc_best,
        warm_rounds,
        pubs_total,
    }
}

/// Wall-clock of one built-in scenario under each checker path (the
/// backend's `set_full_checking` switch), min-of-2 each.
struct ScenarioAb {
    name: &'static str,
    backend: &'static str,
    full_secs: f64,
    incremental_secs: f64,
}

fn scenario_ab(
    name: &'static str,
    spec: &scenario::ScenarioSpec,
    backend: &'static str,
    build: impl Fn(bool) -> Box<dyn PubSub>,
) -> ScenarioAb {
    let run = |full: bool| {
        let mut ps = build(full);
        let t0 = Instant::now();
        let out = scenario::run_on(ps.as_mut(), spec, 1);
        let secs = t0.elapsed().as_secs_f64();
        assert!(out.report.ok(), "{name} ({backend}, full={full}) must pass: {}", out.report.to_json());
        secs
    };
    let f1 = run(true);
    let i1 = run(false);
    let f2 = run(true);
    let i2 = run(false);
    ScenarioAb {
        name,
        backend,
        full_secs: f1.min(f2),
        incremental_secs: i1.min(i2),
    }
}

fn main() {
    let a = parse_args();

    let topics = a.topics;
    let legacy_verdicts = |ps: &ShardedBackend| {
        (
            legacy::is_legitimate(ps.world(), topics, |t| ps.supervisor_for(t)),
            legacy::publications_converged(ps.world(), topics),
        )
    };
    let mut multi = SystemBuilder::new(SEED).topics(a.topics).build_multi();
    let mut sharded = SystemBuilder::new(SEED)
        .topics(a.topics)
        .shards(a.shards)
        .build_sharded();
    let rows = [
        measure(&a, "multi-topic", &mut multi, legacy_verdicts),
        measure(&a, "sharded", &mut sharded, legacy_verdicts),
    ];

    eprintln!("scenario wall-clock A/B ...");
    let steady = library::steady_state();
    let churn = library::shard_churn();
    let scenarios = [
        scenario_ab("steady-state", &steady, "multi-topic", |full| {
            let mut ps = scenario::builder_for(&steady).build_multi();
            ps.set_full_checking(full);
            Box::new(ps)
        }),
        scenario_ab("shard-churn", &churn, "sharded", |full| {
            let mut ps = scenario::builder_for(&churn).build_sharded();
            ps.set_full_checking(full);
            Box::new(ps)
        }),
    ];

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"skippub-bench/checker/v1\",\n");
    json.push_str("  \"description\": \"Legitimate-steady-state polling loop (step + is_legitimate + publications_converged per round, converged publication working set stored): incremental checking layer vs the pre-PR from-scratch checker (preserved verbatim in skippub_bench::legacy_checker). Interleaved min-of-blocks on one shared backend instance. Regenerate with: cargo run --release -p skippub-bench --bin bench_checker_json\",\n");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(
        json,
        "  \"config\": {{\"n\": {}, \"topics\": {}, \"shards\": {}, \"pubs_per_topic\": {}, \"blocks\": {}, \"block_rounds\": {}}},",
        a.n, a.topics, a.shards, a.pubs_per_topic, a.blocks, a.block_rounds
    );
    json.push_str("  \"incremental_matches_full\": true,\n");
    json.push_str("  \"polling_loop\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{}\", \"warm_rounds\": {}, \"stored_pubs\": {}, \"full_rounds_per_sec\": {:.3}, \"incremental_rounds_per_sec\": {:.3}, \"speedup\": {:.2}}}{}",
            r.backend,
            r.warm_rounds,
            r.pubs_total,
            r.legacy_rps,
            r.incremental_rps,
            r.incremental_rps / r.legacy_rps,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"scenarios\": [\n");
    for (i, s) in scenarios.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"scenario\": \"{}\", \"backend\": \"{}\", \"full_secs\": {:.4}, \"incremental_secs\": {:.4}, \"speedup\": {:.2}}}{}",
            s.name,
            s.backend,
            s.full_secs,
            s.incremental_secs,
            s.full_secs / s.incremental_secs,
            if i + 1 == scenarios.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"note\": \"incremental_matches_full is asserted in-run every block (a divergence aborts before any JSON is written). Both polling loops include the (identical, unchanged-semantics) step() cost, so the speedup understates the checker-only improvement. The built-in scenarios are small (population 10/24) and A/B'd via set_full_checking (the modernized from-scratch facade path), so their wall-clock gain is bounded by how much of each run is stop/settle polling.\"\n");
    json.push_str("}\n");

    std::fs::write(&a.out, &json).expect("write BENCH_checker.json");
    eprintln!("wrote {}", a.out);
    print!("{json}");
}

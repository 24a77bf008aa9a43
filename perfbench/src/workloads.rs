//! The three workloads, as scenario specs built from the run's seed.
//!
//! The seed drives the compiled schedule (which publisher publishes in
//! which round, who departs, which members a sever cuts off), the
//! protocol's own randomness and the fault streams. The *size* of the
//! work stays put across seeds: topics are filled round-robin rather
//! than by Zipf draws, and publication counts are sums of many small
//! Bernoulli draws. Under Zipf(1.0) the hot topic's membership varies
//! by about 5 % between seeds and the drain cost grows with the cube of
//! it, which moved run time by a third between seeds.
//!
//! The sharded workloads run one worker thread. Results are identical
//! for every thread count; on a shared two-core machine a two-worker
//! round waits for whichever core another tenant is using, and that
//! straggler spread rounds-per-second by a quarter between runs against
//! a twentieth with one worker.

use skippub_core::BackendKind;
use skippub_harness::scenario::{
    Burst, BurstKind, FaultRule, FaultSpec, LinkClass, Popularity, ScenarioSpec, Sever,
};

/// A named workload: its spec and how long the settle phase may run.
pub struct Workload {
    /// The compiled scenario's spec.
    pub spec: ScenarioSpec,
    /// Backend family the spec runs on.
    pub backend: BackendKind,
    /// Settle-phase cap in rounds.
    pub cap: u64,
    /// Seeds an untraced run cycles its passes through, all drawn from
    /// the run's seed. The time a pass takes follows the seed (who
    /// departs, how many publish), by several percent on churn; averaging
    /// over several keeps that out of the run-to-run spread, as long as
    /// each still gets three passes or more in a run.
    pub seeds: u64,
}

/// Workload names, in documentation order.
pub const NAMES: [&str; 3] = ["flood", "churn", "lossy"];

/// Builds workload `name` for `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    Some(match name {
        "flood" => flood(seed),
        "churn" => churn(seed),
        "lossy" => lossy(seed),
        _ => return None,
    })
}

/// Publications flood a legitimate sharded system; no churn, no faults.
/// About 2,400 publications, two publishers per topic.
fn flood(seed: u64) -> Workload {
    let spec = ScenarioSpec::new("flood", seed)
        .topics(16)
        .shards(4)
        .threads(1)
        .popularity(Popularity::Uniform)
        .population(1_000)
        .publishers(32)
        .publish_prob(0.5)
        .payload_bytes(64)
        .rebalance_every(25)
        .rounds(150);
    Workload {
        spec,
        backend: BackendKind::Sharded,
        cap: 100,
        seeds: 2,
    }
}

/// Membership churn on a replicated sharded system: arrivals,
/// departures, crash bursts with delayed detection, and two
/// primary-supervisor kills.
fn churn(seed: u64) -> Workload {
    const N: usize = 1_000;
    const ROUNDS: u64 = 200;
    let mut spec = ScenarioSpec::new("churn", seed)
        .topics(16)
        .shards(4)
        .threads(1)
        .replicas(3)
        .popularity(Popularity::Uniform)
        .population(N)
        .publishers(500)
        .publish_prob(0.0128)
        .payload_bytes(64)
        .arrivals_per_round(N as f64 / 500.0)
        .departures_per_round(N as f64 / 700.0)
        .rounds(ROUNDS)
        .sup_crash(70, 0)
        .sup_crash(140, 1);
    for at in (50..ROUNDS).step_by(100) {
        spec = spec.burst(Burst {
            at,
            count: N / 100,
            kind: BurstKind::Crash {
                detect_after: Some(3),
            },
        });
    }
    Workload {
        spec,
        backend: BackendKind::Sharded,
        cap: 50,
        seeds: 2,
    }
}

/// Lossy, duplicating, reordering links on the single-topic backend,
/// plus a 12-round sever of a tenth of the members. Every publisher
/// publishes every round: 1,040 publications.
fn lossy(seed: u64) -> Workload {
    const N: u64 = 300;
    const ROUNDS: u64 = 130;
    // Members get ids 1..=N in spawn order; pick a tenth from the seed.
    let mut ids: Vec<u64> = (1..=N).collect();
    let mut x = seed ^ 0x1055_7EED;
    for i in (1..ids.len()).rev() {
        let j = (splitmix(&mut x) % (i as u64 + 1)) as usize;
        ids.swap(i, j);
    }
    ids.truncate(N as usize / 10);
    let faults = FaultSpec {
        seed: seed ^ 0xFA17_5EED,
        rules: vec![FaultRule {
            drop: 0.05,
            dup: 0.02,
            reorder: 0.05,
            reorder_max: 3,
            ..FaultRule::pass(0, ROUNDS, LinkClass::All)
        }],
        severs: vec![Sever {
            from_round: ROUNDS / 3,
            to_round: ROUNDS / 3 + 12,
            group: ids,
        }],
    };
    let spec = ScenarioSpec::new("lossy", seed)
        .population(N as usize)
        .publishers(8)
        .publish_prob(1.0)
        .payload_bytes(64)
        .rounds(ROUNDS)
        .faults(faults);
    Workload {
        spec,
        backend: BackendKind::Sim,
        cap: 15,
        seeds: 1,
    }
}

/// One SplitMix64 step.
fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

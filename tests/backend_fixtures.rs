//! Golden backend fixtures: every built-in scenario on every in-process
//! backend it supports, pinned to literal constants.
//!
//! For each `(scenario, backend)` pair the run's complete observable
//! outcome is pinned:
//!
//! - the delivered-set fingerprint of the scenario report;
//! - the total step count;
//! - the full backend [`Stats`], per-partition counters included;
//! - every topic's final checker digest
//!   ([`failover::topic_digest`](skippub_harness::scenario::failover::topic_digest)).
//!
//! These are the refactor oracle for collapsing backends onto one
//! engine: a backend rewritten underneath the facade must reproduce the
//! same RNG draws, message schedules, counters and final topologies, so
//! every constant below must survive it unchanged. If an intentional
//! semantic change ever breaks them, re-derive the table with
//! `FIXTURE_PRINT=1 cargo test --test backend_fixtures -- --nocapture`
//! and say so in the changelog.

use skippub_core::pubsub::{PartitionStats, Stats};
use skippub_core::{BackendKind, TopicId};
use skippub_harness::scenario::failover::topic_digest;
use skippub_harness::scenario::{budget_multiplier, builder_for, builtins, run_on};
use std::fmt::Write as _;

/// One pinned `(scenario, backend)` outcome.
struct Pin {
    scenario: &'static str,
    backend: &'static str,
    fingerprint: &'static str,
    steps: u64,
    /// [`render_stats`] of the final counters.
    stats: &'static str,
    /// Final [`topic_digest`] of every topic, ascending.
    topics: &'static [&'static str],
}

/// The observed counterpart of a [`Pin`].
struct Observed {
    fingerprint: String,
    steps: u64,
    stats: String,
    topics: Vec<String>,
}

/// Compact canonical rendering of [`Stats`]: the totals, then one
/// `|`-separated group per partition. Destructured exhaustively so a new
/// counter cannot slip past the fixtures unrendered.
fn render_stats(s: &Stats) -> String {
    let Stats {
        steps,
        sent,
        delivered,
        dropped,
        peak_in_flight,
        dropped_by_fault,
        duplicated,
        reordered,
        delayed,
        per_partition,
    } = s;
    let mut out = format!(
        "{steps} {sent} {delivered} {dropped} {peak_in_flight} \
         {dropped_by_fault} {duplicated} {reordered} {delayed}"
    );
    for p in per_partition {
        let PartitionStats {
            sent,
            delivered,
            dropped,
            cross_envelopes,
            peak_in_flight,
            stepped,
            lock_acquisitions,
            dropped_by_fault,
            duplicated,
            reordered,
            delayed,
        } = p;
        let _ = write!(
            out,
            " | {sent} {delivered} {dropped} {cross_envelopes} {peak_in_flight} {stepped} \
             {lock_acquisitions} {dropped_by_fault} {duplicated} {reordered} {delayed}"
        );
    }
    out
}

/// Every `(scenario, backend, outcome)` of the sweep, in builtin order
/// then [`BackendKind::all`] order.
fn sweep() -> Vec<(String, &'static str, Observed)> {
    let mut rows = Vec::new();
    for spec in builtins() {
        for kind in spec.supported_backends() {
            let mut ps = builder_for(&spec).build(kind);
            let out = run_on(ps.as_mut(), &spec, budget_multiplier(kind));
            let topics = (0..spec.topics)
                .map(|t| topic_digest(ps.as_ref(), TopicId(t)))
                .collect();
            let stats = ps.stats();
            rows.push((
                spec.name.clone(),
                kind.name(),
                Observed {
                    fingerprint: out.report.delivered_fingerprint.clone(),
                    steps: stats.steps,
                    stats: render_stats(&stats),
                    topics,
                },
            ));
        }
    }
    rows
}

fn print_table(rows: &[(String, &'static str, Observed)]) {
    println!("const PINS: &[Pin] = &[");
    for (scenario, backend, o) in rows {
        println!("    Pin {{");
        println!("        scenario: {scenario:?},");
        println!("        backend: {backend:?},");
        println!("        fingerprint: {:?},", o.fingerprint);
        println!("        steps: {},", o.steps);
        println!("        stats: {:?},", o.stats);
        println!("        topics: &[");
        for d in &o.topics {
            println!("            {d:?},");
        }
        println!("        ],");
        println!("    }},");
    }
    println!("];");
}

#[test]
fn every_builtin_reproduces_its_pinned_outcome_on_every_backend() {
    let rows = sweep();
    if std::env::var("FIXTURE_PRINT").is_ok() {
        print_table(&rows);
        return;
    }
    assert_eq!(
        rows.len(),
        PINS.len(),
        "the sweep and the pinned table must cover the same runs"
    );
    let mut diffs = Vec::new();
    for ((scenario, backend, o), pin) in rows.iter().zip(PINS) {
        assert_eq!(
            (scenario.as_str(), *backend),
            (pin.scenario, pin.backend),
            "sweep order diverged from the pinned table"
        );
        let tag = format!("{scenario} on {backend}");
        if o.fingerprint != pin.fingerprint {
            diffs.push(format!(
                "{tag}: fingerprint {} != pinned {}",
                o.fingerprint, pin.fingerprint
            ));
        }
        if o.steps != pin.steps {
            diffs.push(format!("{tag}: steps {} != pinned {}", o.steps, pin.steps));
        }
        if o.stats != pin.stats {
            diffs.push(format!(
                "{tag}: stats\n    got    {}\n    pinned {}",
                o.stats, pin.stats
            ));
        }
        for (t, (got, want)) in o.topics.iter().zip(pin.topics).enumerate() {
            if got != want {
                diffs.push(format!("{tag}: topic {t} digest {got} != pinned {want}"));
            }
        }
        if o.topics.len() != pin.topics.len() {
            diffs.push(format!(
                "{tag}: {} topics != pinned {}",
                o.topics.len(),
                pin.topics.len()
            ));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} pinned value(s) diverged:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

#[test]
fn pins_cover_the_required_configurations() {
    let find = |scenario: &str, backend: &str| {
        PINS.iter()
            .find(|p| p.scenario == scenario && p.backend == backend)
            .unwrap_or_else(|| panic!("no pin for {scenario} on {backend}"))
    };
    // Multi-topic on several partitions (round-robin client placement).
    let shard_churn = find("shard-churn", BackendKind::MultiTopic.name());
    assert_eq!(shard_churn.stats.matches(" | ").count(), 4);
    // A replicated supervisor-crash builtin and a fault-storm builtin on
    // every in-process backend.
    for kind in BackendKind::all() {
        find("supervisor-crash-churn", kind.name());
        find("fault-storm-mix", kind.name());
    }
}

const PINS: &[Pin] = &[
    Pin {
        scenario: "steady-state",
        backend: "sim",
        fingerprint: "2eedcdd8cd2f0b398fb6b4a821a95b8f",
        steps: 35,
        stats: "35 2578 2548 0 68 0 0 0 0",
        topics: &[
            "c5053c5ca2b46933d8fcf12726ed9cd8",
        ],
    },
    Pin {
        scenario: "steady-state",
        backend: "chaos",
        fingerprint: "2eedcdd8cd2f0b398fb6b4a821a95b8f",
        steps: 51,
        stats: "51 1951 1848 0 126 0 0 0 0",
        topics: &[
            "e3a1fdb30e4b275d6c5e4d229877aee7",
        ],
    },
    Pin {
        scenario: "steady-state",
        backend: "multi-topic",
        fingerprint: "2eedcdd8cd2f0b398fb6b4a821a95b8f",
        steps: 36,
        stats: "36 2625 2596 0 79 0 0 0 0 | 2625 2596 0 0 79 396 36 0 0 0 0",
        topics: &[
            "7d61b0cbd1e8677490c3e5942a4987f5",
        ],
    },
    Pin {
        scenario: "steady-state",
        backend: "sharded",
        fingerprint: "2eedcdd8cd2f0b398fb6b4a821a95b8f",
        steps: 36,
        stats: "36 2655 2624 0 85 0 0 0 0 | 2655 2624 0 0 85 396 36 0 0 0 0",
        topics: &[
            "c254bbdbe43884493110a4653716f9ca",
        ],
    },
    Pin {
        scenario: "flash-crowd",
        backend: "sim",
        fingerprint: "d79d41abb91e5f621e1ce5aa4b39c40f",
        steps: 21,
        stats: "21 2405 2323 0 129 0 0 0 0",
        topics: &[
            "f80810f4647ab74dd461086ca3b5ae11",
        ],
    },
    Pin {
        scenario: "flash-crowd",
        backend: "chaos",
        fingerprint: "d79d41abb91e5f621e1ce5aa4b39c40f",
        steps: 48,
        stats: "48 3059 2905 0 159 0 0 0 0",
        topics: &[
            "e39ed98369e9c07cab86385694333c33",
        ],
    },
    Pin {
        scenario: "flash-crowd",
        backend: "multi-topic",
        fingerprint: "d79d41abb91e5f621e1ce5aa4b39c40f",
        steps: 21,
        stats: "21 2115 2029 0 129 0 0 0 0 | 2115 2029 0 0 129 357 21 0 0 0 0",
        topics: &[
            "f17a611487405a173229dc1c5fee0ce3",
        ],
    },
    Pin {
        scenario: "flash-crowd",
        backend: "sharded",
        fingerprint: "d79d41abb91e5f621e1ce5aa4b39c40f",
        steps: 20,
        stats: "20 2019 1944 0 149 0 0 0 0 | 2019 1944 0 0 149 352 20 0 0 0 0",
        topics: &[
            "e59c77ba1bfd3b6c625dd3292f5686e2",
        ],
    },
    Pin {
        scenario: "crash-storm",
        backend: "sim",
        fingerprint: "b85fa29037e12f33a22fa647260ebdf4",
        steps: 30,
        stats: "30 2364 2099 232 68 0 0 0 0",
        topics: &[
            "aea4aa275db43e22169065252a1d8bf2",
        ],
    },
    Pin {
        scenario: "crash-storm",
        backend: "chaos",
        fingerprint: "b85fa29037e12f33a22fa647260ebdf4",
        steps: 290,
        stats: "290 10168 8942 1179 91 0 0 0 0",
        topics: &[
            "ac901515f62496dc64fc0a577748df4c",
        ],
    },
    Pin {
        scenario: "crash-storm",
        backend: "multi-topic",
        fingerprint: "b85fa29037e12f33a22fa647260ebdf4",
        steps: 63,
        stats: "63 4598 3920 647 89 0 0 0 0 | 4598 3920 647 0 89 737 63 0 0 0 0",
        topics: &[
            "f6e34d0d3478a58da62fe1002d17d809",
        ],
    },
    Pin {
        scenario: "crash-storm",
        backend: "sharded",
        fingerprint: "b85fa29037e12f33a22fa647260ebdf4",
        steps: 34,
        stats: "34 2569 2278 266 69 0 0 0 0 | 2569 2278 266 0 69 418 34 0 0 0 0",
        topics: &[
            "bb643529f7c8fe4fbbe97ea6567d47e7",
        ],
    },
    Pin {
        scenario: "unsubscribe-wave",
        backend: "sim",
        fingerprint: "3ae221587f50f4d6709244192b3d42b0",
        steps: 22,
        stats: "22 1360 1337 0 70 0 0 0 0",
        topics: &[
            "81f1aeb36d88fc761c1305ababc51168",
        ],
    },
    Pin {
        scenario: "unsubscribe-wave",
        backend: "chaos",
        fingerprint: "3ae221587f50f4d6709244192b3d42b0",
        steps: 51,
        stats: "51 1675 1641 0 90 0 0 0 0",
        topics: &[
            "e68dc8d48d24e7e7e274281c02ae9d40",
        ],
    },
    Pin {
        scenario: "unsubscribe-wave",
        backend: "multi-topic",
        fingerprint: "3ae221587f50f4d6709244192b3d42b0",
        steps: 39,
        stats: "39 2268 2239 0 44 0 0 0 0 | 2268 2239 0 0 44 507 39 0 0 0 0",
        topics: &[
            "917e2be537c48ca7bfd2a5db8dde2444",
        ],
    },
    Pin {
        scenario: "unsubscribe-wave",
        backend: "sharded",
        fingerprint: "3ae221587f50f4d6709244192b3d42b0",
        steps: 43,
        stats: "43 2455 2436 0 66 0 0 0 0 | 2455 2436 0 0 66 559 43 0 0 0 0",
        topics: &[
            "de893f255e134adccdf66a53d2f124bb",
        ],
    },
    Pin {
        scenario: "adversarial-cold-start",
        backend: "sim",
        fingerprint: "f8a4db1e876cfc6ceae986d60b53f535",
        steps: 32,
        stats: "32 2811 2784 0 84 0 0 0 0",
        topics: &[
            "00d7af755e5827bf2b9f08797323f9c3",
        ],
    },
    Pin {
        scenario: "adversarial-cold-start",
        backend: "chaos",
        fingerprint: "f8a4db1e876cfc6ceae986d60b53f535",
        steps: 88,
        stats: "88 3586 3557 0 97 0 0 0 0",
        topics: &[
            "d334b04d4461313d3df263ed4d888080",
        ],
    },
    Pin {
        scenario: "adversarial-cold-start",
        backend: "multi-topic",
        fingerprint: "f8a4db1e876cfc6ceae986d60b53f535",
        steps: 28,
        stats: "28 2510 2478 0 66 0 0 0 0 | 2510 2478 0 0 66 308 28 0 0 0 0",
        topics: &[
            "1413185f457c19b8411ae1c106abdf23",
        ],
    },
    Pin {
        scenario: "adversarial-cold-start",
        backend: "sharded",
        fingerprint: "f8a4db1e876cfc6ceae986d60b53f535",
        steps: 32,
        stats: "32 2801 2774 0 76 0 0 0 0 | 2801 2774 0 0 76 352 32 0 0 0 0",
        topics: &[
            "2f027c12217d4f707591063d1aea6ed7",
        ],
    },
    Pin {
        scenario: "churn-steady",
        backend: "sim",
        fingerprint: "8670a3fc57ac66ec7a255d47d8e38263",
        steps: 37,
        stats: "37 2845 2814 0 79 0 0 0 0",
        topics: &[
            "de223e6556d4fb64d7c0e275a1be48eb",
        ],
    },
    Pin {
        scenario: "churn-steady",
        backend: "chaos",
        fingerprint: "8670a3fc57ac66ec7a255d47d8e38263",
        steps: 78,
        stats: "78 2841 2777 0 108 0 0 0 0",
        topics: &[
            "4d5d0b2b2ef93bfe0d65fb7b82e9daf8",
        ],
    },
    Pin {
        scenario: "churn-steady",
        backend: "multi-topic",
        fingerprint: "8670a3fc57ac66ec7a255d47d8e38263",
        steps: 227,
        stats: "227 15896 15859 0 76 0 0 0 0 | 15896 15859 0 0 76 4597 227 0 0 0 0",
        topics: &[
            "3b3316d0189c69b5104e928bec768b0a",
        ],
    },
    Pin {
        scenario: "churn-steady",
        backend: "sharded",
        fingerprint: "8670a3fc57ac66ec7a255d47d8e38263",
        steps: 802,
        stats: "802 59885 59849 0 64 0 0 0 0 | 59885 59849 0 0 64 16672 802 0 0 0 0",
        topics: &[
            "88ac23da0dd07629ed3c52c044518b31",
        ],
    },
    Pin {
        scenario: "zipf-fanout",
        backend: "multi-topic",
        fingerprint: "9137af0f01e29bfd1fd32e377a99eda5",
        steps: 22,
        stats: "22 3247 3112 0 177 0 0 0 0 | 1018 906 0 630 41 198 83 0 0 0 0 | 1173 1125 0 689 69 176 75 0 0 0 0 | 1056 1081 0 616 67 176 67 0 0 0 0",
        topics: &[
            "faa8f048f1f6e302abe1d78a926067a5",
            "484d8a1639ba57e5521e6e0d0b745ee2",
            "58fcdbd5e677e4379254c76e3b5c86d8",
            "9b0c6f4984d77fb64871478f2a709cc6",
            "c5f8e59baaefbbe56323eba61759c82a",
            "14e3423879cb2a226354414d40aba59e",
        ],
    },
    Pin {
        scenario: "zipf-fanout",
        backend: "sharded",
        fingerprint: "9137af0f01e29bfd1fd32e377a99eda5",
        steps: 24,
        stats: "24 3475 3415 0 133 0 0 0 0 | 2828 2782 0 0 108 456 24 0 0 0 0 | 0 0 0 0 0 24 24 0 0 0 0 | 647 633 0 0 25 168 24 0 0 0 0",
        topics: &[
            "e3c534a93a275c1d7ec934864a1f26d3",
            "23918fd6dc7d4951888c3a089be5ac74",
            "04a62aba2435ccbd0a2658d6f9af6c56",
            "ef8c58c17da8e9ea47cda26e83e171cf",
            "b9f4dfd1056eecdb00932e0e4637df70",
            "6d5916501aa17700a94545f9263cf1aa",
        ],
    },
    Pin {
        scenario: "zipf-rebalance",
        backend: "multi-topic",
        fingerprint: "6b9ad80f4b14e03af5b9716e008ccc21",
        steps: 36,
        stats: "36 5391 5271 0 183 0 0 0 0 | 1708 1538 0 1061 43 324 140 0 0 0 0 | 1938 1912 0 1145 72 288 124 0 0 0 0 | 1745 1821 0 1053 68 288 111 0 0 0 0",
        topics: &[
            "faa8f048f1f6e302abe1d78a926067a5",
            "484d8a1639ba57e5521e6e0d0b745ee2",
            "58fcdbd5e677e4379254c76e3b5c86d8",
            "9b0c6f4984d77fb64871478f2a709cc6",
            "c5f8e59baaefbbe56323eba61759c82a",
            "14e3423879cb2a226354414d40aba59e",
        ],
    },
    Pin {
        scenario: "zipf-rebalance",
        backend: "sharded",
        fingerprint: "6b9ad80f4b14e03af5b9716e008ccc21",
        steps: 37,
        stats: "37 5484 5370 0 202 0 0 0 0 | 2047 2069 0 1304 72 383 123 0 0 0 0 | 1587 1410 0 1139 58 293 113 0 0 0 0 | 1850 1891 0 1283 72 323 123 0 0 0 0",
        topics: &[
            "e3c534a93a275c1d7ec934864a1f26d3",
            "23918fd6dc7d4951888c3a089be5ac74",
            "9f1ab2cc66846b1eb70170d6bfd2dd73",
            "52ec6f49835352a59d56032f2b5abd9f",
            "70f7fec20a263f2b9568dc222e23f12a",
            "2da59df7dabff8f0e76b376d9ed1fdd5",
        ],
    },
    Pin {
        scenario: "shard-churn",
        backend: "multi-topic",
        fingerprint: "a5fbc34835eb2793534e981a3090f86d",
        steps: 25,
        stats: "25 2195 2069 68 88 0 0 0 0 | 904 672 14 357 28 195 97 0 0 0 0 | 432 474 10 50 20 171 45 0 0 0 0 | 426 446 29 48 17 163 45 0 0 0 0 | 433 477 15 55 23 159 46 0 0 0 0",
        topics: &[
            "5035019c0ecdf6f5b6d70a9de589e8e0",
            "21891ad8be8f074f2465448c8aedfcc5",
            "bb8ec0a2de26dc232733a0ea64f4c5d6",
            "5b12fd0f09e6d9cb0bd2fb94f13a13d8",
            "dc324788038df22a307cce095351e39e",
            "49d96ad8ed10c004c16c01e2ac0c7be8",
            "dd80d6337c4d13339e145ae5f7c6e82a",
            "3fbb03972b6b1feebc0673f3ec0f1f2f",
            "f4906269ecf166a80013d2a5899c092e",
            "484d8a1639ba57e5521e6e0d0b745ee2",
            "2f369c5da3e3314984e9cb7419a35819",
            "9140daf462b0b5b68f7bef61cc436099",
        ],
    },
    Pin {
        scenario: "shard-churn",
        backend: "sharded",
        fingerprint: "a5fbc34835eb2793534e981a3090f86d",
        steps: 26,
        stats: "26 2312 2216 53 67 0 0 0 0 | 1178 1144 14 0 34 329 26 0 0 0 0 | 263 244 14 0 9 125 26 0 0 0 0 | 337 330 0 0 11 140 26 0 0 0 0 | 534 498 25 0 13 197 26 0 0 0 0",
        topics: &[
            "dd059733e9e23dcb8a59b72fb1b7ce23",
            "2f4dc77a1e17c0051a31ed98ab22d025",
            "42e9dd1525beb8181b94302bd9d9a00f",
            "c9430e85f4c63122ba62a5aabfcae6b2",
            "28c633861f659283745df41622c25033",
            "420d70ac94c957d7651193dbe32d9357",
            "aa10ec924ac1b75bba12571aa6acfbfe",
            "28544d183268b03114cda15f2e405bab",
            "a336419de806e8590da6c88c55ba5e36",
            "d8558b9ca6104179e71549b06fe9f00b",
            "541a74f941366feea4c5738c8b980559",
            "80311be5fb1afb8be515a21949e27bec",
        ],
    },
    Pin {
        scenario: "supervisor-crash-churn",
        backend: "sim",
        fingerprint: "593dc0a16723dba96047a1f0c2fe61da",
        steps: 35,
        stats: "35 3955 3912 0 132 0 0 0 0",
        topics: &[
            "5d50bcaac62e96b0938d55c8a681dd46",
        ],
    },
    Pin {
        scenario: "supervisor-crash-churn",
        backend: "chaos",
        fingerprint: "593dc0a16723dba96047a1f0c2fe61da",
        steps: 67,
        stats: "67 3755 3680 0 206 0 0 0 0",
        topics: &[
            "ba6ce3798bedab47ec46dcf57e5bc16a",
        ],
    },
    Pin {
        scenario: "supervisor-crash-churn",
        backend: "multi-topic",
        fingerprint: "593dc0a16723dba96047a1f0c2fe61da",
        steps: 362,
        stats: "362 32555 32510 0 132 0 0 0 0 | 32555 32510 0 0 132 7490 362 0 0 0 0",
        topics: &[
            "358fcc584ecbdd2f9de69b760523b89f",
        ],
    },
    Pin {
        scenario: "supervisor-crash-churn",
        backend: "sharded",
        fingerprint: "593dc0a16723dba96047a1f0c2fe61da",
        steps: 137,
        stats: "137 12110 12069 0 108 0 0 0 0 | 12110 12069 0 0 108 2757 137 0 0 0 0",
        topics: &[
            "55f58f814cfca8c66e7d524bb8d50b02",
        ],
    },
    Pin {
        scenario: "supervisor-crash-storm",
        backend: "sim",
        fingerprint: "b9df5ae80b44541e837838985c8b26c3",
        steps: 22,
        stats: "22 2704 2630 0 127 0 0 0 0",
        topics: &[
            "936e4fadb8cfb7386ce71a0a324f9231",
        ],
    },
    Pin {
        scenario: "supervisor-crash-storm",
        backend: "chaos",
        fingerprint: "b9df5ae80b44541e837838985c8b26c3",
        steps: 30,
        stats: "30 2278 2177 0 257 0 0 0 0",
        topics: &[
            "1618023407fd6721b1b405b15994482f",
        ],
    },
    Pin {
        scenario: "supervisor-crash-storm",
        backend: "multi-topic",
        fingerprint: "b9df5ae80b44541e837838985c8b26c3",
        steps: 20,
        stats: "20 2579 2510 0 140 0 0 0 0 | 2579 2510 0 0 140 220 20 0 0 0 0",
        topics: &[
            "c93fe7564aa33e2eafa2e8cafcea6519",
        ],
    },
    Pin {
        scenario: "supervisor-crash-storm",
        backend: "sharded",
        fingerprint: "b9df5ae80b44541e837838985c8b26c3",
        steps: 21,
        stats: "21 2746 2706 0 137 0 0 0 0 | 2746 2706 0 0 137 231 21 0 0 0 0",
        topics: &[
            "effe72f5a95118a5b30fa0be00e41bf5",
        ],
    },
    Pin {
        scenario: "supervisor-crash-cold",
        backend: "sim",
        fingerprint: "cc0e223a5dac0b6ff82475c04a20100f",
        steps: 28,
        stats: "28 2277 2242 0 66 0 0 0 0",
        topics: &[
            "506c798f8fdd85148818458119d9d110",
        ],
    },
    Pin {
        scenario: "supervisor-crash-cold",
        backend: "chaos",
        fingerprint: "cc0e223a5dac0b6ff82475c04a20100f",
        steps: 66,
        stats: "66 2544 2508 0 110 0 0 0 0",
        topics: &[
            "8f357ef8b7290b0331019edf2be3e40e",
        ],
    },
    Pin {
        scenario: "supervisor-crash-cold",
        backend: "multi-topic",
        fingerprint: "cc0e223a5dac0b6ff82475c04a20100f",
        steps: 25,
        stats: "25 2094 2063 0 72 0 0 0 0 | 2094 2063 0 0 72 275 25 0 0 0 0",
        topics: &[
            "b00648be955ede823f736d5b7fa378c8",
        ],
    },
    Pin {
        scenario: "supervisor-crash-cold",
        backend: "sharded",
        fingerprint: "cc0e223a5dac0b6ff82475c04a20100f",
        steps: 27,
        stats: "27 2217 2192 0 66 0 0 0 0 | 2217 2192 0 0 66 297 27 0 0 0 0",
        topics: &[
            "3f6160fceffd49f0ead8895032bad54e",
        ],
    },
    Pin {
        scenario: "supervisor-crash-shards",
        backend: "multi-topic",
        fingerprint: "6f3e81b832bdeb2e1c9a02dac6b46be0",
        steps: 18,
        stats: "18 942 907 0 53 0 0 0 0 | 390 280 0 168 20 90 69 0 0 0 0 | 170 196 0 22 10 72 30 0 0 0 0 | 196 221 0 23 11 72 31 0 0 0 0 | 186 210 0 26 12 72 32 0 0 0 0",
        topics: &[
            "105b3167f4fc4c9cb4cdec109082f983",
            "6c5703278a703f8732cd4015db2338a9",
            "59ada10306111691ecc878698daeca07",
            "c7740e07525e5c7d994133ef7bf4933c",
            "66d1746e3d5e8541c4dc992eb54094ad",
            "cfc0f677bca973123f1a41013a3e374c",
            "d32c9d2235eac88c8fb66c3399ccabb9",
            "d2a0e4eccbb84a7dfe355fdce124c8af",
        ],
    },
    Pin {
        scenario: "supervisor-crash-shards",
        backend: "sharded",
        fingerprint: "6f3e81b832bdeb2e1c9a02dac6b46be0",
        steps: 18,
        stats: "18 966 935 0 40 0 0 0 0 | 500 485 0 0 22 162 18 0 0 0 0 | 107 102 0 0 5 54 18 0 0 0 0 | 104 101 0 0 4 54 18 0 0 0 0 | 255 247 0 0 9 90 18 0 0 0 0",
        topics: &[
            "1ac849371a43bf64a9a246d4c4e3b6e7",
            "d303cc73b470811b637395d9254c96e1",
            "6d961a7092da1e82a1569b931ec1dbde",
            "06636dc84fd5132efc7b03f6a5f10311",
            "12e544152d146e6691d97a723773a76f",
            "21292ee11857b38d8f3f200dd7ad4a5d",
            "873661cf51fbece9bbd0fd55eaef3510",
            "a0e740a3b94e00f2543d9fa148e95c08",
        ],
    },
    Pin {
        scenario: "fault-storm-loss",
        backend: "sim",
        fingerprint: "db30f9f8fa49ca898312a8783b84ad5d",
        steps: 24,
        stats: "24 1991 1709 0 65 232 0 0 0",
        topics: &[
            "95a771986292b5a2eb64321454ac7b56",
        ],
    },
    Pin {
        scenario: "fault-storm-loss",
        backend: "chaos",
        fingerprint: "db30f9f8fa49ca898312a8783b84ad5d",
        steps: 55,
        stats: "55 2423 2208 0 128 166 0 0 0",
        topics: &[
            "f7d0512416dacf124db96ad2edaf3f17",
        ],
    },
    Pin {
        scenario: "fault-storm-loss",
        backend: "multi-topic",
        fingerprint: "db30f9f8fa49ca898312a8783b84ad5d",
        steps: 23,
        stats: "23 2052 1776 0 64 244 0 0 0 | 2052 1776 0 0 64 299 23 244 0 0 0",
        topics: &[
            "b492389aee70ac6f6f516afebeff7156",
        ],
    },
    Pin {
        scenario: "fault-storm-loss",
        backend: "sharded",
        fingerprint: "db30f9f8fa49ca898312a8783b84ad5d",
        steps: 38,
        stats: "38 3102 2850 0 78 216 0 0 0 | 3102 2850 0 0 78 494 38 216 0 0 0",
        topics: &[
            "16149318714d0f6febc36410740fd0c5",
        ],
    },
    Pin {
        scenario: "fault-storm-mix",
        backend: "sim",
        fingerprint: "60c119bde941b00c9b88712854ec5c8c",
        steps: 24,
        stats: "24 2269 2151 0 92 172 89 0 0",
        topics: &[
            "a8347aa730bae9f9e81c97e135a52cd2",
        ],
    },
    Pin {
        scenario: "fault-storm-mix",
        backend: "chaos",
        fingerprint: "60c119bde941b00c9b88712854ec5c8c",
        steps: 42,
        stats: "42 1924 1822 0 148 87 47 0 0",
        topics: &[
            "e753b0ffb15cdfef16469dcd7875caba",
        ],
    },
    Pin {
        scenario: "fault-storm-mix",
        backend: "multi-topic",
        fingerprint: "60c119bde941b00c9b88712854ec5c8c",
        steps: 38,
        stats: "38 3276 3167 0 87 166 86 0 0 | 3276 3167 0 0 87 494 38 166 86 0 0",
        topics: &[
            "adb3365b063d8692ceebab79c4e4c972",
        ],
    },
    Pin {
        scenario: "fault-storm-mix",
        backend: "sharded",
        fingerprint: "60c119bde941b00c9b88712854ec5c8c",
        steps: 25,
        stats: "25 2341 2216 0 98 174 89 0 0 | 2341 2216 0 0 98 325 25 174 89 0 0",
        topics: &[
            "9c967f63eaece3bfb1e435459b9569e2",
        ],
    },
    Pin {
        scenario: "fault-heal-partition",
        backend: "sim",
        fingerprint: "c527d78469897334c567e96b791655c4",
        steps: 28,
        stats: "28 2104 1845 0 89 221 0 0 0",
        topics: &[
            "86f83d2e53ec27079b67762a134f9886",
        ],
    },
    Pin {
        scenario: "fault-heal-partition",
        backend: "chaos",
        fingerprint: "c527d78469897334c567e96b791655c4",
        steps: 44,
        stats: "44 1673 1534 0 115 87 0 0 0",
        topics: &[
            "05d625ddfa279732e76a0255f6c77b90",
        ],
    },
    Pin {
        scenario: "fault-heal-partition",
        backend: "multi-topic",
        fingerprint: "c527d78469897334c567e96b791655c4",
        steps: 38,
        stats: "38 2761 2544 0 94 186 0 0 0 | 2761 2544 0 0 94 494 38 186 0 0 0",
        topics: &[
            "9224a189fabbeaa3d98e69fbb029693a",
        ],
    },
    Pin {
        scenario: "fault-heal-partition",
        backend: "sharded",
        fingerprint: "c527d78469897334c567e96b791655c4",
        steps: 24,
        stats: "24 1869 1653 0 89 181 0 0 0 | 1869 1653 0 0 89 312 24 181 0 0 0",
        topics: &[
            "6b35c2fbef4d7958999cf895446cd1b6",
        ],
    },
    Pin {
        scenario: "partition-kills-primary",
        backend: "sim",
        fingerprint: "71116fa1222fdb4705e862ff9c3d3255",
        steps: 22,
        stats: "22 1569 1529 0 67 7 0 0 0",
        topics: &[
            "95e69a9e122d5fd3c9ec0e3c363405f2",
        ],
    },
    Pin {
        scenario: "partition-kills-primary",
        backend: "chaos",
        fingerprint: "71116fa1222fdb4705e862ff9c3d3255",
        steps: 34,
        stats: "34 1396 1300 0 131 4 0 0 0",
        topics: &[
            "e72ebab93ace0688fecfbdd524590a93",
        ],
    },
    Pin {
        scenario: "partition-kills-primary",
        backend: "multi-topic",
        fingerprint: "71116fa1222fdb4705e862ff9c3d3255",
        steps: 23,
        stats: "23 1640 1594 0 69 7 0 0 0 | 1640 1594 0 0 69 253 23 7 0 0 0",
        topics: &[
            "52c4b0b2448043140203f5aa97e16df4",
        ],
    },
    Pin {
        scenario: "partition-kills-primary",
        backend: "sharded",
        fingerprint: "71116fa1222fdb4705e862ff9c3d3255",
        steps: 24,
        stats: "24 1678 1639 0 66 0 0 0 0 | 1678 1639 0 0 66 264 24 0 0 0 0",
        topics: &[
            "b6b30eb7397fb22f629f11ba6b86070a",
        ],
    },
    Pin {
        scenario: "partition-kills-shard",
        backend: "multi-topic",
        fingerprint: "84892d83981e3e7eff692b749ee82b4e",
        steps: 22,
        stats: "22 1893 1833 0 75 0 0 0 0 | 762 658 0 141 24 154 64 0 0 0 0 | 542 565 0 33 27 132 37 0 0 0 0 | 589 610 0 24 24 132 33 0 0 0 0",
        topics: &[
            "08a1e79f24332343329f414fa9096a42",
            "e73aca737bb2eb2c8764422ef3f4f810",
            "16169fcf7ac0a2f3bb38c131aa5f3588",
            "806bd948a4a2462b3f29ad503b393dd0",
            "66498160f894761fc396859d11e3f28a",
            "8c7ff888fa84bb1653f0db4d1618787d",
        ],
    },
    Pin {
        scenario: "partition-kills-shard",
        backend: "sharded",
        fingerprint: "84892d83981e3e7eff692b749ee82b4e",
        steps: 23,
        stats: "23 1998 1941 0 63 0 0 0 0 | 1338 1300 0 0 41 299 23 0 0 0 0 | 0 0 0 0 0 23 23 0 0 0 0 | 660 641 0 0 22 161 23 0 0 0 0",
        topics: &[
            "f050b34e193adcd35d769aae44de330a",
            "9969a41e8a131c71e4f125c9d25e42ad",
            "896da1ddb28f20518bb5df4d334652a3",
            "518772acbcb2fbf420f59477479f31c2",
            "068f4e21da750f57091355d45ff8654e",
            "cf0699b0f318aca1d62dd391137ea7ac",
        ],
    },
];

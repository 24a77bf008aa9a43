//! Exit-code contract of the `scenarios` CLI: usage errors exit 2
//! through its `fail()` path instead of panicking (exit 101).

use std::process::Command;

fn scenarios(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
        .args(args)
        .output()
        .expect("spawn the scenarios binary")
}

#[test]
fn rebalance_with_replicated_supervisors_exits_2() {
    for backend in ["sharded", "multi-topic", "all"] {
        let out = scenarios(&[
            "supervisor-crash-shards",
            "--backend",
            backend,
            "--rebalance",
            "5",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--backend {backend}: {stderr}");
        assert!(
            stderr.contains("rebalancing"),
            "--backend {backend}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "nothing may run before the refusal");
    }
    // The checkpoint modes apply the same flags and refuse the same way.
    let out = scenarios(&[
        "supervisor-crash",
        "supervisor-crash-shards",
        "--rebalance",
        "5",
    ]);
    assert_eq!(out.status.code(), Some(2));
}

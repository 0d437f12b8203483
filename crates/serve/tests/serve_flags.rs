//! `bsom-serve` rejects flags that do not apply to its mode, and flags it no
//! longer has, with exit code 2 instead of parsing and then ignoring them.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `bsom-serve` with `args` and returns its exit code. A server that
/// accepted the flags would serve until drained, so it is killed after a
/// grace period and reported as `None`.
fn exit_code(args: &[&str]) -> Option<i32> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bsom-serve"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn bsom-serve");
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if let Some(status) = child.try_wait().expect("poll bsom-serve") {
            return status.code();
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    let _ = child.wait();
    None
}

#[test]
fn flags_of_the_other_mode_are_rejected() {
    let scratch = std::env::temp_dir().join(format!("bsom-serve-flags-{}", std::process::id()));
    let path = scratch.to_str().expect("utf-8 temp path");
    assert_eq!(
        exit_code(&["--tenants", "2", "--checkpoint", path]),
        Some(2),
        "--checkpoint is never written by the registry server"
    );
    assert_eq!(
        exit_code(&["--spill-dir", path]),
        Some(2),
        "--spill-dir needs --tenants"
    );
    assert!(!scratch.exists(), "a rejected run creates nothing");
}

#[test]
fn retired_scheduler_flags_are_rejected() {
    // The scheduler dispatches as soon as the engine is free, so there is
    // no coalescing delay to tune, and `--max-batch 1` already means one
    // request per dispatch.
    assert_eq!(exit_code(&["--max-delay-micros", "0"]), Some(2));
    assert_eq!(exit_code(&["--batch-of-one"]), Some(2));
}

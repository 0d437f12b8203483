//! A finished connection gives its descriptors back: many connect/close
//! cycles against one server leave the process's open descriptors where
//! they started, and the server still answers afterwards.
//!
//! The only test in its own binary, because it counts the descriptors of
//! the whole process.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use bsom_serve::bench::{bench_service, synthetic_corpus};
use bsom_serve::{ServeClient, ServeConfig, Server};

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs lists this process's descriptors")
        .count()
}

#[test]
fn closed_connections_release_their_descriptors() {
    let corpus = synthetic_corpus(128, 4, 8, 12, 3);
    let (service, _trainer) = bench_service(16, 128, 3, &corpus);
    let server =
        Server::bind(service, "127.0.0.1:0", ServeConfig::default(), None).expect("bind loopback");
    let addr = server.local_addr();
    let before = open_descriptors();

    for _ in 0..200 {
        let mut client = ServeClient::connect(addr).expect("connect");
        client.health().expect("health round trip");
    }

    // Each connection's threads wind down after the client hangs up; give
    // them a moment, but a leak of one descriptor per connection never
    // settles.
    let slack = 8;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut after = open_descriptors();
    while after > before + slack && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        after = open_descriptors();
    }
    assert!(
        after <= before + slack,
        "200 closed connections left {} descriptors open ({before} before)",
        after - before
    );

    let mut client = ServeClient::connect(addr).expect("connect after the cycles");
    assert!(!client.health().expect("health after the cycles").draining);
}

//! Round-trip latency gate: on one connection, a memo-hit `eval`, a
//! `status` and a memo-warm sweep must each come back well inside
//! Linux's 40 ms minimum delayed-ACK timer — directly and across a peer
//! hop — with every served document byte-identical to the in-process
//! engine.
//!
//! A request or response frame split over two writes, or a socket with
//! Nagle's algorithm on, stalls a round trip ~40–44 ms waiting for a
//! delayed ACK. The bound (20 ms on the median of 21 round trips) is
//! half that timer and over ten times what a fixed build measures, so
//! host noise cannot trip it but the stall always does.

mod common;

use std::time::Instant;

use procrustes_core::{Engine, Scenario, SparsityGen, Sweep, PAPER_NETWORKS};
use procrustes_serve::{ring_order, Client, ServeConfig, Source};
use procrustes_sim::Mapping;

/// Timed round trips per request kind, after one warm-up.
const ROUNDS: usize = 21;

/// Upper bound on the median round trip.
const BOUND_MS: f64 = 20.0;

/// Runs `round_trip` once to warm up, then `ROUNDS` times timed, and
/// returns the median in milliseconds.
fn median_ms(mut round_trip: impl FnMut()) -> f64 {
    round_trip();
    let mut samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            round_trip();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[ROUNDS / 2]
}

fn assert_fast(what: &str, median: f64) {
    println!("{what}: median {median:.3} ms over {ROUNDS} round trips");
    assert!(
        median < BOUND_MS,
        "{what}: median round trip {median:.3} ms is not below {BOUND_MS} ms \
         (a delayed-ACK stall is ~40 ms)"
    );
}

#[test]
fn memo_hit_eval_status_and_warm_sweep_round_trips_do_not_stall() {
    let (addr, server) = common::start(ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();

    // The first eval computes the scenario; every later one is a memo hit.
    let scenario = Scenario::builder("VGG-S").build().unwrap();
    let expected = Engine::default().run(&scenario).unwrap().to_json();
    assert_eq!(client.eval(&scenario).unwrap().source, Source::Computed);
    let eval = median_ms(|| {
        let served = client.eval(&scenario).unwrap();
        assert_eq!(served.source, Source::Memo);
        assert_eq!(served.doc, expected, "served eval diverged");
    });
    assert_fast("memo-hit eval", eval);

    let status = median_ms(|| {
        client.status().unwrap();
    });
    assert_fast("status", status);

    // 5 paper networks × 4 dataflows, dense: the first sweep computes
    // all 20, every later one is served from the memo tables.
    let sweep = Sweep::new()
        .networks(PAPER_NETWORKS)
        .mappings(Mapping::ALL)
        .sparsities([SparsityGen::Dense]);
    let scenarios = sweep.build().unwrap();
    assert_eq!(scenarios.len(), 20);
    let reference: Vec<String> = Engine::default()
        .run_all(&scenarios)
        .unwrap()
        .iter()
        .map(|r| r.to_json())
        .collect();
    client.sweep(&sweep).unwrap();
    let warm_sweep = median_ms(|| {
        let served = client.sweep(&sweep).unwrap();
        assert_eq!(served.len(), reference.len());
        for (i, result) in served.iter().enumerate() {
            assert_eq!(result.index, i, "stream order");
            assert_eq!(result.source, Source::Memo, "scenario {i} not memo-warm");
            assert_eq!(result.doc, reference[i], "scenario {i} diverged");
        }
    });
    assert_fast("memo-warm 20-scenario sweep", warm_sweep);

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn forwarded_memo_hit_round_trips_do_not_stall() {
    let config = ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    let (addrs, handles) = common::start_cluster(vec![config; 2], &[]);
    let nodes: Vec<String> = addrs.iter().map(ToString::to_string).collect();

    // A scenario owned by node 1, sent to node 0: every eval crosses
    // node 0's peer connection, and the owner answers from its memo.
    let scenario = (0..64u64)
        .map(|seed| {
            Scenario::builder("VGG-S")
                .sparsity(SparsityGen::PaperSynthetic { seed })
                .build()
                .unwrap()
        })
        .find(|s| ring_order(s.fingerprint(), &nodes)[0] == 1)
        .expect("some seed hashes to node 1");
    let expected = Engine::default().run(&scenario).unwrap().to_json();

    let mut client = Client::connect(addrs[0]).unwrap();
    let forwarded = median_ms(|| {
        let served = client.eval(&scenario).unwrap();
        assert_eq!(served.source, Source::Peer, "eval must cross the peer hop");
        assert_eq!(served.doc, expected, "forwarded eval diverged");
    });
    assert_fast("forwarded memo-hit eval", forwarded);

    // The owner computed once (the warm-up) and answered every timed
    // round trip from its memo.
    let owner = Client::connect(addrs[1]).unwrap().status().unwrap();
    assert_eq!(owner.computed, 1);
    assert_eq!(owner.memo_hits as usize, ROUNDS);

    for &addr in &addrs {
        Client::connect(addr).unwrap().shutdown().unwrap();
    }
    for handle in handles {
        handle.join().unwrap().unwrap();
    }
}

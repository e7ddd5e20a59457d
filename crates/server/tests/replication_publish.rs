//! Replication publishing and the follower drain: concurrent writers leave
//! the hub's head at the primary's final state, a follower handed a
//! backlog applies it in fewer swaps than epochs, a corrupt delta in the
//! middle of a drain costs a re-handshake but not convergence, and the
//! `GET /cluster` counters move.

use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::Duration;

use hta_cluster::{Frame, ReplicaState, ReplicationHub, DEFAULT_RETAIN};
use hta_datagen::amt::{generate, AmtConfig};
use hta_server::cluster::{acquire_initial_state, spawn_follower, AppliedEpoch, ClusterCtx};
use hta_server::http::{parse_query, Request};
use hta_server::service::handle_cluster;
use hta_server::PlatformState;
use hta_snapshot::SnapshotDelta;

const WAIT: Duration = Duration::from_secs(10);

fn fresh_state(seed: u64) -> PlatformState {
    let w = generate(&AmtConfig {
        n_groups: 12,
        tasks_per_group: 6,
        vocab_size: 60,
        ..Default::default()
    });
    PlatformState::new(w.space, w.tasks, 3, seed)
}

fn req(method: &str, path: &str, query: &str) -> Request {
    Request {
        method: method.to_owned(),
        path: path.to_owned(),
        query: parse_query(query),
    }
}

/// A hub serving replication peers on a fresh local port.
fn serve_hub(hub: &Arc<ReplicationHub>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let hub = Arc::clone(hub);
    thread::spawn(move || hub.serve(listener));
    addr
}

/// The value of an integer field in a flat JSON body.
fn field(body: &str, key: &str) -> u64 {
    body.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("{key} missing from {body}"))
}

/// The task ids of an `/assign` response body.
fn tasks(body: &str) -> Vec<u64> {
    let list = body
        .split("\"tasks\":[")
        .nth(1)
        .and_then(|s| s.split(']').next());
    list.unwrap_or_default()
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap())
        .collect()
}

#[test]
fn concurrent_writers_leave_the_hub_head_at_the_state() {
    let state = Arc::new(fresh_state(11));
    let hub = Arc::new(ReplicationHub::new(DEFAULT_RETAIN));
    hub.publish(state.snapshot_bytes());
    let ctx = Arc::new(ClusterCtx::primary(Arc::clone(&hub)));
    // Every writer registers, then all start mutating at once, so their
    // encodes and publishes overlap.
    let start = Arc::new(Barrier::new(4));
    let writers: Vec<_> = [
        "english;survey",
        "audio;news",
        "spanish;video",
        "english;audio",
    ]
    .into_iter()
    .map(|keywords| {
        let (state, ctx, start) = (Arc::clone(&state), Arc::clone(&ctx), Arc::clone(&start));
        thread::spawn(move || {
            let post = |path: &str, query: &str| {
                handle_cluster(&state, &req("POST", path, query), None, Some(&ctx))
            };
            let r = post("/register", &format!("keywords={keywords}"));
            assert_eq!(r.status, 200, "{}", r.body);
            let worker = field(&r.body, "worker_id");
            start.wait();
            for _ in 0..4 {
                let r = post("/assign", &format!("worker={worker}"));
                assert_eq!(r.status, 200, "{}", r.body);
                for task in tasks(&r.body) {
                    let r = post("/complete", &format!("worker={worker}&task={task}"));
                    assert_eq!(r.status, 200, "{}", r.body);
                }
            }
        })
    })
    .collect();
    for w in writers {
        w.join().unwrap();
    }
    let (_, head) = hub.snapshot().unwrap();
    assert_eq!(
        *head,
        state.snapshot_bytes(),
        "the hub head is the final state"
    );
}

#[test]
fn follower_applies_a_backlog_in_fewer_swaps_than_epochs() {
    let primary = fresh_state(5);
    let hub = Arc::new(ReplicationHub::new(DEFAULT_RETAIN));
    primary.publish_to(&hub);
    let join = serve_hub(&hub);
    let mut rstate = ReplicaState::empty();
    let replica = Arc::new(acquire_initial_state(&join, &mut rstate, WAIT).unwrap());
    assert_eq!(rstate.epoch, 1);

    // 50 epochs published before the follower runs: it meets them as one
    // backlog of deltas, faster than it could swap each one in.
    for i in 0..50 {
        primary
            .register_worker(&["english", &format!("kw{i}")])
            .unwrap();
        primary.publish_to(&hub);
    }
    assert_eq!(hub.epoch(), 51);

    let applied = Arc::new(AppliedEpoch::new());
    applied.set(rstate.epoch);
    let done = Arc::new(AtomicBool::new(false));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let watcher = {
        let (applied, hub, done, seen) = (
            Arc::clone(&applied),
            Arc::clone(&hub),
            Arc::clone(&done),
            Arc::clone(&seen),
        );
        thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                let at = applied.get();
                assert!(at <= hub.epoch(), "applied epoch {at} passed the head");
                seen.lock().unwrap().push(at);
                thread::sleep(Duration::from_micros(200));
            }
        })
    };
    spawn_follower(join, rstate, Arc::clone(&replica), Arc::clone(&applied));
    assert_eq!(applied.wait_for(51, WAIT), 51);
    done.store(true, Ordering::Relaxed);
    watcher.join().unwrap();

    assert_eq!(replica.snapshot_bytes(), primary.snapshot_bytes());
    let seen = seen.lock().unwrap();
    assert!(seen.windows(2).all(|w| w[0] <= w[1]), "applied epoch fell");
    let counts = applied.counts();
    assert_eq!((counts.deltas_applied, counts.fulls_applied), (50, 0));
    assert!(
        (1..50).contains(&counts.state_swaps),
        "{} swaps for 50 epochs",
        counts.state_swaps
    );
}

#[test]
fn corrupt_delta_mid_drain_rehandshakes_and_converges() {
    // Seven states of one primary; a scripted hub serves them.
    let primary = fresh_state(9);
    let mut states = vec![primary.snapshot_bytes()];
    for i in 0..6 {
        primary
            .register_worker(&["audio", &format!("k{i}")])
            .unwrap();
        states.push(primary.snapshot_bytes());
    }
    // deltas[e - 1] is the frame for epoch e → e+1 (epoch e holds
    // states[e - 1]).
    let deltas: Vec<Frame> = (1..states.len() as u64)
        .map(|e| {
            let (base, target) = (&states[e as usize - 1], &states[e as usize]);
            Frame::delta(
                SnapshotDelta::compute(base, target, e, e + 1)
                    .unwrap()
                    .to_bytes(),
            )
        })
        .collect();
    let delta = move |e: u64| deltas[e as usize - 1].clone();
    let mut corrupt = delta(3).payload;
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x01; // a carried payload byte: the container rejects it

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let join = listener.local_addr().unwrap().to_string();
    let hellos = Arc::new(Mutex::new(Vec::new()));
    let hub = {
        let hellos = Arc::clone(&hellos);
        thread::spawn(move || {
            let mut conns = Vec::new();
            for round in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let held = Frame::read_from(&mut reader)
                    .unwrap()
                    .parse_hello()
                    .unwrap();
                hellos.lock().unwrap().push(held);
                // First connection: two good deltas, a corrupt one and a
                // good one after it, all in one write, so the follower
                // meets the corruption inside a drain. Second: the rest of
                // the chain from whatever epoch the follower presents.
                let frames: Vec<Frame> = if round == 0 {
                    vec![delta(1), delta(2), Frame::delta(corrupt.clone()), delta(4)]
                } else {
                    (held..7).map(&delta).collect()
                };
                let wire: Vec<u8> = frames.iter().flat_map(Frame::to_bytes).collect();
                (&stream).write_all(&wire).unwrap();
                conns.push(stream);
            }
            conns
        })
    };

    let mut rstate = ReplicaState::empty();
    rstate
        .apply(hta_cluster::Update::Full {
            epoch: 1,
            bytes: states[0].clone(),
        })
        .unwrap();
    let replica = Arc::new(PlatformState::from_snapshot_bytes(&states[0]).unwrap());
    let applied = Arc::new(AppliedEpoch::new());
    spawn_follower(join, rstate, Arc::clone(&replica), Arc::clone(&applied));
    assert_eq!(applied.wait_for(7, WAIT), 7);
    assert_eq!(replica.snapshot_bytes(), states[6]);
    assert_eq!(
        *hellos.lock().unwrap(),
        [1, 3],
        "re-handshake from the last good epoch"
    );
    let counts = applied.counts();
    assert_eq!(
        counts.deltas_applied, 6,
        "no delta applied twice or skipped"
    );
    hub.join().unwrap();
}

#[test]
fn cluster_counters_move() {
    let primary = Arc::new(fresh_state(3));
    let hub = Arc::new(ReplicationHub::new(DEFAULT_RETAIN));
    primary.publish_to(&hub);
    let join = serve_hub(&hub);
    let pctx = ClusterCtx::primary(Arc::clone(&hub));
    let cluster = |state: &PlatformState, ctx: &ClusterCtx| {
        let r = handle_cluster(state, &req("GET", "/cluster", ""), None, Some(ctx));
        assert_eq!(r.status, 200);
        r.body
    };

    let before = cluster(&primary, &pctx);
    assert_eq!(
        (field(&before, "publishes"), field(&before, "dedup_hits")),
        (1, 0)
    );
    let r = handle_cluster(
        &primary,
        &req("POST", "/register", "keywords=english;survey"),
        None,
        Some(&pctx),
    );
    assert_eq!(r.status, 200);
    primary.publish_to(&hub); // nothing changed since: deduplicated
    let after = cluster(&primary, &pctx);
    assert_eq!(
        (field(&after, "publishes"), field(&after, "dedup_hits")),
        (3, 1)
    );
    assert_eq!(field(&after, "epoch"), 2);

    // A follower joining empty gets one full snapshot, then deltas.
    let replica = Arc::new(fresh_state(3));
    let applied = Arc::new(AppliedEpoch::new());
    spawn_follower(
        join,
        ReplicaState::empty(),
        Arc::clone(&replica),
        Arc::clone(&applied),
    );
    assert_eq!(applied.wait_for(2, WAIT), 2);
    let rctx = ClusterCtx::replica("127.0.0.1:9".to_owned(), Arc::clone(&applied));
    let body = cluster(&replica, &rctx);
    assert_eq!(
        (
            field(&body, "fulls_applied"),
            field(&body, "deltas_applied"),
            field(&body, "state_swaps")
        ),
        (1, 0, 1)
    );
    primary.register_worker(&["audio"]).unwrap();
    primary.publish_to(&hub);
    assert_eq!(applied.wait_for(3, WAIT), 3);
    let body = cluster(&replica, &rctx);
    assert_eq!(
        (field(&body, "deltas_applied"), field(&body, "state_swaps")),
        (1, 2)
    );
    assert_eq!(replica.snapshot_bytes(), primary.snapshot_bytes());
}

//! End-to-end tests over real sockets: a server on an ephemeral port,
//! `NetClient`s talking to it, and — the one that matters — a naive
//! backend under heavy faults surfacing a **divergence error** at the
//! remote client instead of wrong data.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ff_net::wire::{ErrorCode, Request, Response};
use ff_net::{NetClient, NetServer, ServerConfig};
use ff_store::{
    drive_clients, Backend, FaultConfig, Kv, KvOp, Store, StoreConfig, StoreError, StoreMetrics,
    WorkloadMix, KV_MAX,
};

fn serve(config: StoreConfig, server_config: ServerConfig) -> (Arc<Store>, NetServer) {
    let store = Arc::new(Store::new(config));
    let server = NetServer::start(Arc::clone(&store), "127.0.0.1:0", server_config)
        .expect("bind ephemeral port");
    (store, server)
}

fn reliable_config() -> StoreConfig {
    StoreConfig::builder()
        .shards(2)
        .backend(Backend::reliable())
        .build()
        .unwrap()
}

#[test]
fn kv_over_tcp_matches_in_process_semantics() {
    let (store, server) = serve(reliable_config(), ServerConfig::default());
    let mut c = NetClient::connect(server.addr()).unwrap();

    assert_eq!(c.get(7).unwrap(), None);
    assert_eq!(c.put(7, 99).unwrap(), None);
    assert_eq!(c.put(7, 100).unwrap(), Some(99));
    assert_eq!(c.get(7).unwrap(), Some(100));
    assert_eq!(c.del(7).unwrap(), Some(100));
    assert_eq!(c.get(7).unwrap(), None);

    // Validation errors cross the wire as typed errors, with the
    // offending key in the detail word — not as closed connections.
    assert_eq!(
        c.get(KV_MAX + 1),
        Err(StoreError::KeyOutOfRange { key: KV_MAX + 1 })
    );
    assert_eq!(
        c.put(1, KV_MAX + 1),
        Err(StoreError::ValueOutOfRange { value: KV_MAX + 1 })
    );
    // The connection survives the rejected requests.
    assert_eq!(c.put(1, 1).unwrap(), None);

    let stats = c.stats().unwrap();
    assert_eq!(stats.shards, 2);
    assert!(!stats.diverged);
    assert!(stats.ops_served > 0);
    // Coalescing observability: the serves above ran through merged
    // runs, and every answered frame was staged.
    assert!(stats.runs_executed > 0);
    assert!(stats.run_ops > 0);
    assert!(stats.max_run_ops >= 1);
    assert!(stats.frames_staged >= stats.runs_executed);
    // Every op reached its shard log through a combine pass.
    assert!(stats.combine_passes > 0, "{stats:?}");
    assert!(stats.combine_ops >= stats.combine_passes);
    c.ping().unwrap();

    drop(c);
    let mut report = server.shutdown();
    assert!(store.verify(&mut report.clients).all_consistent());
}

/// STATS answers with post-run counters: the server snapshots them only
/// in a pass that staged a STATS frame, and only after that pass's run.
/// N single-op frames and one STATS frame sent in one write are answered
/// with a STATS reply that already counts the run carrying those N.
#[test]
fn stats_behind_ops_in_one_write_counts_their_run() {
    use std::io::Write;
    const N: u32 = 64;
    let (_store, server) = serve(reliable_config(), ServerConfig::default());
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut bytes = Vec::new();
    for id in 1..=N {
        ff_net::wire::encode_request(&mut bytes, id, &Request::Put { key: id, value: id });
    }
    ff_net::wire::encode_request(&mut bytes, N + 1, &Request::Stats);
    stream.write_all(&bytes).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let mut fb = ff_net::FrameBuffer::new();
    let mut frames = Vec::new();
    while frames.len() < N as usize + 1 {
        let n = fb
            .read_from(&mut stream, 16 * 1024)
            .expect("answers arrive");
        assert_ne!(n, 0, "closed after {} answers", frames.len());
        while let Some(frame) = fb.pop_response().expect("well-formed response frames") {
            frames.push(frame);
        }
    }
    for (frame, id) in frames.iter().zip(1..=N) {
        assert_eq!(frame.id, id);
        assert_eq!(frame.resp, Response::Value(None));
    }
    let Response::Stats(stats) = frames[N as usize].resp else {
        panic!("STATS answered with {:?}", frames[N as usize].resp);
    };
    assert_eq!(stats.run_ops, u64::from(N), "{stats:?}");
    assert_eq!(stats.frames_staged, u64::from(N) + 1, "{stats:?}");
    assert!(stats.runs_executed >= 1, "{stats:?}");
    drop(stream);
    server.shutdown();
}

/// A durable server killed (dropped without flushing everything it
/// could) and restarted over the same data dir serves the history it
/// fsynced — and both generations expose their WAL/recovery counters
/// over the STATS frame.
#[test]
fn durable_server_recovers_over_same_data_dir() {
    let dir = std::env::temp_dir().join(format!(
        "ff-net-durable-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig::builder()
        .shards(2)
        .backend(Backend::robust())
        .fault_rate(0.2)
        .checkpoint_interval(8)
        .data_dir(&dir)
        .group_commit(4)
        .rotate_cost(0)
        .build()
        .unwrap();

    let (store, server) = serve(config.clone(), ServerConfig::default());
    let mut c = NetClient::connect(server.addr()).unwrap();
    for k in 0..60u32 {
        c.put(k % 16, k + 500).unwrap();
    }
    let stats = c.stats().unwrap();
    assert!(stats.wal_records > 0, "durable server logged nothing");
    assert!(stats.wal_fsyncs > 0, "durable server never fsynced");
    assert_eq!(stats.recovered_records + stats.recovered_checkpoints, 0);
    drop(c);
    let report = server.shutdown();
    assert!(
        report.shutdown_errors.is_empty(),
        "{:?}",
        report.shutdown_errors
    );
    drop(store); // the kill: volatile state gone, the dir survives

    let (recovered, report) = Store::recover(config).expect("recovery");
    assert!(report.records_replayed() + report.checkpoints_loaded() > 0);
    let store = Arc::new(recovered);
    let server = NetServer::start(Arc::clone(&store), "127.0.0.1:0", ServerConfig::default())
        .expect("bind ephemeral port");
    let mut c = NetClient::connect(server.addr()).unwrap();
    for k in 0..16u32 {
        let want = (0..60u32).rfind(|i| i % 16 == k);
        assert_eq!(c.get(k).unwrap(), want.map(|v| v + 500), "key {k}");
    }
    let stats = c.stats().unwrap();
    assert_eq!(
        stats.recovered_records,
        report.records_replayed(),
        "STATS must echo the recovery replay count"
    );
    assert_eq!(stats.recovered_checkpoints, report.checkpoints_loaded());
    drop(c);
    let mut server_report = server.shutdown();
    assert!(server_report.shutdown_errors.is_empty());
    assert!(store.verify(&mut server_report.clients).all_consistent());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_and_pipeline_answer_in_request_order() {
    let (_store, server) = serve(reliable_config(), ServerConfig::default());
    let mut c = NetClient::connect(server.addr()).unwrap();

    // One BATCH frame: per-key order holds within the batch.
    let values = c
        .batch(&[
            KvOp::Put(1, 10),
            KvOp::Put(2, 20),
            KvOp::Get(1),
            KvOp::Put(1, 11),
            KvOp::Del(2),
        ])
        .unwrap();
    assert_eq!(values, vec![None, None, Some(10), Some(10), Some(20)]);

    // A pipelined burst of single-op frames: the server coalesces them
    // into one log pass but must answer under the right ids, in order.
    let resps = c
        .pipeline(&[
            Request::Put { key: 5, value: 50 },
            Request::Get { key: 5 },
            Request::Ping,
            Request::Del { key: 5 },
            Request::Get { key: 5 },
        ])
        .unwrap();
    assert_eq!(
        resps,
        vec![
            Response::Value(None),
            Response::Value(Some(50)),
            Response::Pong,
            Response::Value(Some(50)),
            Response::Value(None),
        ]
    );
    server.shutdown();
}

/// The headline property: a naive-backend store under arbitrary faults
/// answers the remote client with a divergence error — never with data
/// replayed from a corrupted log.
#[test]
fn naive_backend_surfaces_divergence_error_not_wrong_data() {
    // Junk landing observably is probabilistic; retry over seeds like
    // E15 does. Full fault rate makes a handful of seeds plenty.
    for seed in 0..20u64 {
        let config = StoreConfig::builder()
            .shards(2)
            .backend(Backend::naive())
            .fault(FaultConfig {
                kind: ff_spec::FaultKind::Arbitrary,
                f: 1,
                t: ff_spec::Bound::Unbounded,
                rate: 1.0,
                ..FaultConfig::default()
            })
            .checkpoint_interval(8)
            .seed(0xD1E ^ seed)
            .build()
            .unwrap();
        let (store, server) = serve(config, ServerConfig::default());
        // Three concurrent connections, exactly like the soak drives.
        // The cores never read a cell back; the server's periodic audit
        // does, and from then on the shard answers with the error.
        let clients: Vec<NetClient> = (0..3)
            .map(|_| NetClient::connect(server.addr()).unwrap())
            .collect();
        let metrics = StoreMetrics::default();
        let mix = WorkloadMix {
            read_pct: 40,
            keyspace: 32,
            seed,
            batch: 1,
        };
        let outcome = drive_clients(
            clients,
            &mix,
            Instant::now() + Duration::from_millis(200),
            &metrics,
            || {},
        );
        // The contract under test: a worker either gets correct-shaped
        // answers or a typed divergence error — never anything else.
        for e in &outcome.errors {
            assert!(
                matches!(e, StoreError::Divergence { .. }),
                "only divergence errors are expected, got {e}"
            );
        }
        let diverged: Vec<usize> = outcome
            .errors
            .iter()
            .filter_map(|e| match e {
                StoreError::Divergence { shard } => Some(*shard),
                _ => None,
            })
            .collect();
        drop(outcome.clients);
        let mut report = server.shutdown();
        let verify = store.verify(&mut report.clients);
        if let Some(&shard) = diverged.first() {
            // A client saw it online; the post-drain verify must agree
            // about that shard.
            assert!(
                verify.diverged_shards().contains(&shard),
                "client reported shard {shard} but verify found {:?}",
                verify.diverged_shards()
            );
            return;
        }
        // This seed's junk stayed invisible — try the next one.
    }
    panic!("no seed produced an observable divergence over the wire");
}

#[test]
fn connection_cap_refuses_with_overloaded_frame() {
    let (_store, server) = serve(
        reliable_config(),
        ServerConfig {
            max_connections: 2,
            ..ServerConfig::default()
        },
    );
    let mut a = NetClient::connect(server.addr()).unwrap();
    let mut b = NetClient::connect(server.addr()).unwrap();
    a.ping().unwrap();
    b.ping().unwrap();

    // The third connection gets one Overloaded error frame (id 0) and
    // is closed; NetClient maps that to a Server error on first use.
    let mut c = NetClient::connect(server.addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let err = loop {
        match c.ping() {
            Err(e) => break e,
            // Accept-loop race: the refusal may not have landed yet.
            Ok(()) => assert!(Instant::now() < deadline, "cap never enforced"),
        }
    };
    match err {
        StoreError::Server { code, .. } => assert_eq!(code, ErrorCode::Overloaded as u8),
        StoreError::Io(_) => {} // refusal frame lost to the close race
        other => panic!("expected overloaded/io error, got {other}"),
    }

    // Capacity frees when a connection closes.
    drop(a);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut d = NetClient::connect(server.addr()).unwrap();
        if d.ping().is_ok() {
            break;
        }
        assert!(Instant::now() < deadline, "slot never freed after close");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

/// Regression for the old shutdown path's `.expect("shutdown runs
/// once")` / `.expect("accept thread never panics")`: signaling
/// shutdown twice (or racing a signal with the draining join) must be
/// a no-op, and a clean shutdown must report zero [`ShutdownError`]s —
/// never abort the process.
#[test]
fn shutdown_is_idempotent_and_reports_typed_errors_instead_of_panicking() {
    let (_store, server) = serve(
        reliable_config(),
        ServerConfig {
            loops: 1,
            ..ServerConfig::default()
        },
    );
    let mut c = NetClient::connect(server.addr()).unwrap();
    assert_eq!(c.put(1, 1).unwrap(), None);

    assert!(server.begin_shutdown(), "first signal flips the flag");
    assert!(!server.begin_shutdown(), "second signal is a no-op");
    assert!(!server.begin_shutdown(), "and so is every later one");

    // Shutdown after the flag is already set still drains and joins
    // cleanly — the server's one loop retires its client.
    let report = server.shutdown();
    assert!(
        report.shutdown_errors.is_empty(),
        "clean drain reported errors: {:?}",
        report.shutdown_errors
    );
    assert_eq!(report.clients.len(), 1);
    assert!(report.ops_served >= 1);
}

#[test]
fn graceful_shutdown_retires_every_replica_for_verification() {
    let (store, server) = serve(
        StoreConfig::builder()
            .shards(3)
            .backend(Backend::robust())
            .fault_rate(0.3)
            .rotate_kinds(true)
            .checkpoint_interval(16)
            .build()
            .unwrap(),
        ServerConfig {
            loops: 2,
            ..ServerConfig::default()
        },
    );

    // Drive the server through the same generic loop the soak uses.
    let clients: Vec<NetClient> = (0..3)
        .map(|_| NetClient::connect(server.addr()).unwrap())
        .collect();
    let metrics = StoreMetrics::default();
    let mix = WorkloadMix {
        read_pct: 40,
        keyspace: 128,
        seed: 0x5151,
        batch: 3,
    };
    let outcome = drive_clients(
        clients,
        &mix,
        Instant::now() + Duration::from_millis(300),
        &metrics,
        || {},
    );
    assert!(
        outcome.errors.is_empty(),
        "robust backend must not error: {:?}",
        outcome.errors
    );
    let driven = metrics.batches.count();
    assert!(driven > 0);
    drop(outcome.clients);

    let mut report = server.shutdown();
    // Pinning hashes the accept counter, so the first three connections
    // always land on loops 1, 1, 0: both loops served traffic, and each
    // retires its one client.
    assert_eq!(report.clients.len(), 2, "every loop retires its client");
    assert!(report.ops_served >= driven);
    assert!(store.verify(&mut report.clients).all_consistent());
}

/// The loops wait in the kernel, not on a timer: however long a
/// connection has been quiet, its next request is answered at wake-up
/// speed. (The scan-and-sleep poller this replaced had backed off to a
/// 5 ms sleep by then, so a round trip after 20 ms of quiet waited out
/// what was left of one; the gaps vary so that the requests cannot fall
/// in step with such a timer.)
#[test]
fn round_trips_after_idleness_take_well_under_a_millisecond() {
    let (_store, server) = serve(reliable_config(), ServerConfig::default());
    let mut c = NetClient::connect(server.addr()).unwrap();
    c.ping().unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let mut trips: Vec<Duration> = (0..50)
        .map(|i| {
            std::thread::sleep(Duration::from_millis(20 + i % 5));
            let t = Instant::now();
            c.ping().unwrap();
            t.elapsed()
        })
        .collect();
    trips.sort();
    let median = trips[trips.len() / 2];
    assert!(
        median < Duration::from_millis(1),
        "median idle round trip {median:?} (all: {trips:?})"
    );
    server.shutdown();
}

/// A loop with no connections waits with no timeout at all; the
/// acceptor's wake byte is the only thing that can tell it about its
/// first connection.
#[test]
fn connection_accepted_while_the_loop_waits_untimed_is_served() {
    let (_store, server) = serve(
        reliable_config(),
        ServerConfig {
            loops: 1,
            ..ServerConfig::default()
        },
    );
    std::thread::sleep(Duration::from_millis(100));
    let mut c = NetClient::connect_with_timeout(server.addr(), Duration::from_secs(2)).unwrap();
    c.ping()
        .expect("a lost wake leaves the connection in the inbox");
    // And again with the loop blocked on one quiet connection.
    std::thread::sleep(Duration::from_millis(100));
    let mut d = NetClient::connect_with_timeout(server.addr(), Duration::from_secs(2)).unwrap();
    d.ping().expect("second connection served");
    let report = server.shutdown();
    assert!(report.shutdown_errors.is_empty());
}

/// Shutdown wakes every thread instead of waiting out their ticks, so
/// a server full of idle connections stops at once.
#[test]
fn shutdown_with_idle_connections_is_woken_not_waited_for() {
    let (store, server) = serve(reliable_config(), ServerConfig::default());
    let mut clients: Vec<NetClient> = (0..64)
        .map(|_| NetClient::connect(server.addr()).unwrap())
        .collect();
    for c in &mut clients {
        c.ping().unwrap();
    }
    assert_eq!(server.active_connections(), 64);
    std::thread::sleep(Duration::from_millis(50));
    let start = Instant::now();
    let mut report = server.shutdown();
    let took = start.elapsed();
    assert!(
        report.shutdown_errors.is_empty(),
        "{:?}",
        report.shutdown_errors
    );
    assert!(took < Duration::from_millis(50), "shutdown took {took:?}");
    assert!(store.verify(&mut report.clients).all_consistent());
}

/// STATS requests are 10 bytes and their answers about ten times that:
/// `frames` of them owe the peer far more than the kernel will buffer
/// for a reader that is not reading (a 4 MiB send buffer plus a receive
/// window that only grows while the application reads), so the server's
/// own response buffer passes its 256 KiB pause and its write blocks.
/// The writer half-closes behind the last request. Returns the reading
/// half; the writer thread ignores errors because the server may hang
/// up on it.
fn flood_with_stats(addr: std::net::SocketAddr, frames: u32) -> std::net::TcpStream {
    use std::io::Write;
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    std::thread::spawn(move || {
        let mut bytes = Vec::new();
        for id in 1..=frames {
            ff_net::wire::encode_request(&mut bytes, id, &Request::Stats);
        }
        let _ = writer.write_all(&bytes);
        let _ = writer.shutdown(std::net::Shutdown::Write);
    });
    stream
}

const FLOOD_FRAMES: u32 = 200_000;

/// Backpressure end to end: the peer's responses pile up until the
/// connection is paused and its write blocks; when the peer finally
/// reads, writability — not a retry timer — resumes the flush and then
/// the reading, every response arrives in request order, and the EOF
/// the peer sent behind its last request then closes the connection.
#[test]
fn stalled_reader_that_drains_gets_every_response_in_order() {
    use std::io::Read;
    let (_store, server) = serve(
        reliable_config(),
        ServerConfig {
            loops: 1,
            write_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    );
    let mut stream = flood_with_stats(server.addr(), FLOOD_FRAMES);
    std::thread::sleep(Duration::from_millis(300));
    // The loop is parked on that one blocked writer, and still serves.
    let mut other = NetClient::connect(server.addr()).unwrap();
    other.ping().unwrap();

    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut fb = ff_net::FrameBuffer::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next = 1u32;
    loop {
        let n = stream.read(&mut chunk).expect("responses keep coming");
        if n == 0 {
            break;
        }
        fb.extend(&chunk[..n]);
        while let Some(frame) = fb.pop_response().expect("well-formed response frames") {
            assert_eq!(frame.id, next, "responses out of order");
            assert!(matches!(frame.resp, Response::Stats(_)), "{:?}", frame.resp);
            next += 1;
        }
    }
    assert_eq!(next - 1, FLOOD_FRAMES, "closed before every response");
    let report = server.shutdown();
    assert!(report.shutdown_errors.is_empty());
}

/// The one timeout the loops still pass to `poll`: a peer that never
/// drains is cut off once its write has been blocked for
/// `write_timeout`, with no other traffic to wake the loop.
#[test]
fn stalled_reader_that_never_drains_is_cut_off_at_the_write_timeout() {
    let write_timeout = Duration::from_millis(200);
    let (_store, server) = serve(
        reliable_config(),
        ServerConfig {
            loops: 1,
            write_timeout,
            ..ServerConfig::default()
        },
    );
    let start = Instant::now();
    let _stream = flood_with_stats(server.addr(), FLOOD_FRAMES);
    let deadline = start + Duration::from_secs(10);
    while server.active_connections() == 0 {
        assert!(Instant::now() < deadline, "flood never connected");
        std::thread::yield_now();
    }
    while server.active_connections() != 0 {
        assert!(Instant::now() < deadline, "stalled peer never cut off");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(start.elapsed() >= write_timeout);
    let report = server.shutdown();
    assert!(report.shutdown_errors.is_empty());
}

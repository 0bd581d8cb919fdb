//! `ff net` — the soak's closed loop over localhost TCP: `NetClient`s
//! against the reactor `NetServer`, ops/s and p50/p95/p99 with faults
//! firing at `--fault-rate`. Exits 1 if any shard diverges or any
//! client errors (on a substrate that promises consistency).
//!
//! The fleet is driven **multiplexed**: a handful of driver threads
//! each own a slice of the connections and keep exactly one BATCH frame
//! in flight per connection via [`NetClient::send`] /
//! [`NetClient::collect`] — send on every lane, then collect on every
//! lane. That is how a 1-core box loads the reactor with thousands of
//! connections. That the *naive* witness is caught over TCP is E16/E17's
//! claim (`ff report e16 e17`), not this command's.
//!
//! `--sweep` replaces the single run with the connection-scaling
//! trajectory 100 → 1,000 → 10,000. Connections the OS refuses (fd
//! limits at the top point) are reported as `achieved_connections`, not
//! treated as failure.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cli::{write_json, Args, Exit};
use crate::flags::{json_out, soak_config, BATCH, CONNECTIONS, SWEEP};
use ff_net::client::response_error;
use ff_net::wire::{Request, Response};
use ff_net::{NetClient, NetServer, ServerConfig};
use ff_store::soak::random_op;
use ff_store::{
    DurabilityConfig, KvOp, MetricsSnapshot, SoakConfig, Store, StoreError, StoreMetrics,
};
use ff_workload::JsonValue;

/// The `--sweep` trajectory.
const SWEEP_POINTS: [usize; 3] = [100, 1_000, 10_000];

struct ArmReport {
    snapshot: MetricsSnapshot,
    ops_served: u64,
    connections_requested: usize,
    connections_achieved: usize,
    client_errors: Vec<String>,
    divergence_errors: usize,
    verify_consistent: bool,
    diverged_shards: Vec<usize>,
    shutdown_errors: Vec<String>,
}

impl ArmReport {
    fn to_json(&self, backend: &str) -> JsonValue {
        let strings = |items: &[String]| items.iter().map(String::as_str).collect();
        JsonValue::object([
            ("backend", backend.into()),
            ("connections", self.connections_requested.into()),
            ("achieved_connections", self.connections_achieved.into()),
            ("ops_served", self.ops_served.into()),
            ("ops_per_sec", self.snapshot.total_ops_per_sec().into()),
            ("latency", self.snapshot.to_json()),
            ("client_errors", strings(&self.client_errors)),
            ("divergence_errors", self.divergence_errors.into()),
            ("verify_consistent", self.verify_consistent.into()),
            (
                "diverged_shards",
                self.diverged_shards.iter().copied().collect(),
            ),
            ("shutdown_errors", strings(&self.shutdown_errors)),
        ])
    }

    fn print_summary(&self, label: &str) {
        // Frame round-trip percentiles: every class records the same
        // frame samples, so read whichever class saw the most ops.
        let s = &self.snapshot;
        let busiest = [&s.reads, &s.writes, &s.deletes]
            .into_iter()
            .max_by_key(|c| c.ops)
            .expect("three candidate classes");
        println!(
            "{label}: {}/{} connection(s), {} ops served, {:.0} ops/sec, \
             p50 {:.0}µs p95 {:.0}µs p99 {:.0}µs, consistent: {}",
            self.connections_achieved,
            self.connections_requested,
            self.ops_served,
            s.total_ops_per_sec(),
            busiest.p50_ns as f64 / 1000.0,
            busiest.p95_ns as f64 / 1000.0,
            busiest.p99_ns as f64 / 1000.0,
            self.verify_consistent,
        );
    }
}

/// One driven connection: its client, its private workload stream, and
/// the first error that retired it (errors are sticky, like the soak's
/// workers — hammering a diverged shard teaches nothing).
struct Lane {
    client: NetClient,
    rng: u64,
    error: Option<StoreError>,
}

/// Drive `clients` closed-loop until `deadline` from `drivers` threads,
/// each cycling send-on-every-lane → collect-on-every-lane so every
/// connection keeps exactly one BATCH frame of `batch` ops in flight.
/// Returns the clients and the first error of each lane that failed.
///
/// Latency is the full send→collect round trip, attributed **at
/// collect time to every operation class the frame carried** — the
/// driver knows what it put in each frame, so GETs land in `reads`,
/// PUTs in `writes`, DELs in `deletes`, each class getting the frame's
/// round trip as its batched-call sample (per-op latency inside one
/// frame is not independently observable). Op throughput is accounted
/// per class too, so `metrics.batches` intentionally stays empty for
/// this driver: recording the same operations there as well would
/// double-count them in `total_ops_per_sec`.
fn drive_multiplexed(
    clients: Vec<NetClient>,
    config: &SoakConfig,
    batch: usize,
    deadline: Instant,
    metrics: &StoreMetrics,
    drivers: usize,
) -> (Vec<NetClient>, Vec<StoreError>) {
    let mut groups: Vec<Vec<Lane>> = (0..drivers).map(|_| Vec::new()).collect();
    for (i, client) in clients.into_iter().enumerate() {
        groups[i % drivers].push(Lane {
            client,
            rng: config.seed ^ (i as u64) << 32,
            error: None,
        });
    }
    let (keyspace, read_pct) = (config.keyspace, config.read_pct);

    let groups: Vec<Vec<Lane>> = std::thread::scope(|scope| {
        let workers: Vec<_> = groups
            .into_iter()
            .map(|mut lanes| {
                scope.spawn(move || {
                    while Instant::now() < deadline {
                        // Send phase: one BATCH frame per live lane.
                        let mut round = Vec::with_capacity(lanes.len());
                        for (li, lane) in lanes.iter_mut().enumerate() {
                            if lane.error.is_some() {
                                continue;
                            }
                            let ops: Vec<KvOp> = (0..batch)
                                .map(|_| random_op(&mut lane.rng, keyspace, read_pct))
                                .collect();
                            let mut classes = [0u64; 3];
                            for op in &ops {
                                match op {
                                    KvOp::Get(_) => classes[0] += 1,
                                    KvOp::Put(..) => classes[1] += 1,
                                    KvOp::Del(_) => classes[2] += 1,
                                }
                            }
                            let start = Instant::now();
                            match lane.client.send(&[Request::Batch(ops)]) {
                                Ok(ticket) => round.push((li, ticket, start, classes)),
                                Err(e) => lane.error = Some(e),
                            }
                        }
                        if round.is_empty() {
                            break; // every lane is dead
                        }
                        // Collect phase: redeem in send order.
                        for (li, ticket, start, classes) in round {
                            let lane = &mut lanes[li];
                            match lane.client.collect(ticket) {
                                Ok(mut resps) => match resps.pop() {
                                    Some(Response::Batch(values)) if values.len() == batch => {
                                        let nanos = start.elapsed().as_nanos() as u64;
                                        let by_class =
                                            [&metrics.reads, &metrics.writes, &metrics.deletes];
                                        for (class, ops) in by_class.into_iter().zip(classes) {
                                            if ops > 0 {
                                                class.record_many(nanos, ops);
                                            }
                                        }
                                    }
                                    Some(Response::Batch(values)) => {
                                        lane.error = Some(StoreError::Protocol(format!(
                                            "batch of {batch} ops answered with {} values",
                                            values.len()
                                        )));
                                    }
                                    Some(other) => lane.error = Some(response_error(other)),
                                    None => unreachable!("one frame per ticket"),
                                },
                                Err(e) => lane.error = Some(e),
                            }
                        }
                    }
                    lanes
                })
            })
            .collect();
        workers.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut clients = Vec::new();
    let mut errors = Vec::new();
    for lane in groups.into_iter().flatten() {
        clients.push(lane.client);
        errors.extend(lane.error);
    }
    (clients, errors)
}

/// Socket timeout for the measured fleet. At the top of the sweep a
/// closed-loop round trip is seconds, not microseconds, so the default
/// 10 s client timeout would misreport tail latency as an I/O error.
const FLEET_TIMEOUT: Duration = Duration::from_secs(60);

/// The soft fd limit, from `/proc/self/limits` (None off Linux — then
/// the only guard is the connect loop's own failure handling).
fn fd_budget() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// Connect up to `want` clients, tolerating the OS running out of file
/// descriptors near the top of the sweep: the achieved fleet is driven
/// and reported instead of aborting the run.
///
/// Client and server share one process here, so every connection costs
/// **two** descriptors. Exhausting the table is asymmetric: the
/// client-side `connect` still succeeds through the listener backlog
/// while the server-side `accept` fails, leaving lanes that connected
/// but will never be served. Capping against the soft limit up front
/// keeps the whole achieved fleet answerable.
fn connect_fleet(addr: SocketAddr, want: usize) -> Vec<NetClient> {
    let want = match fd_budget() {
        Some(budget) => {
            let cap = budget.saturating_sub(256) / 2;
            if cap < want {
                eprintln!(
                    "net: fd limit {budget} caps the fleet at {cap} of {want} \
                     requested connection(s)"
                );
            }
            want.min(cap.max(1))
        }
        None => want,
    };
    let mut clients: Vec<NetClient> = Vec::with_capacity(want);
    let mut refusals = 0;
    while clients.len() < want {
        match NetClient::connect_with_timeout(addr, FLEET_TIMEOUT) {
            Ok(c) => {
                clients.push(c);
                refusals = 0;
            }
            // Transient refusals (accept backlog) deserve a beat; fd
            // exhaustion fails five in a row and falls out.
            Err(_) if refusals < 4 => {
                refusals += 1;
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                eprintln!(
                    "net: connected {}/{want} ({e}); driving the achieved fleet",
                    clients.len()
                );
                break;
            }
        }
    }
    clients
}

/// One full arm: store + reactor server + `connections` closed-loop
/// clients + drain + verify once the server's loop clients have retired.
fn run_arm(config: &SoakConfig, connections: usize, batch: usize) -> Result<ArmReport, Exit> {
    let mut config = SoakConfig {
        seed: config.seed ^ (connections as u64) << 8,
        ..config.clone()
    };
    if let Some(base) = &config.durability.data_dir {
        // Sweep points run sequentially but must not replay each other's
        // logs: every (backend, connections) arm gets its own directory,
        // so a later --recover run finds exactly its own history.
        config.durability = DurabilityConfig {
            data_dir: Some(base.join(format!("{}-c{connections}", config.backend.name()))),
            ..config.durability
        };
    }
    let store_config = config
        .store_config()
        .map_err(|e| Exit::Usage(format!("invalid configuration: {e}")))?;
    let store = if config.recover {
        let (store, report) = Store::recover(store_config)
            .map_err(|e| Exit::Failed(format!("RECOVERY REFUSED: {e}")))?;
        eprintln!("{}", report.render());
        Arc::new(store)
    } else {
        Arc::new(Store::new(store_config))
    };
    let server = NetServer::start(
        Arc::clone(&store),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: connections + 16,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| Exit::Failed(format!("failed to bind: {e}")))?;
    let clients = connect_fleet(server.addr(), connections);
    if clients.is_empty() {
        return Err(Exit::Failed("no connection could be established".into()));
    }
    let achieved = clients.len();

    let metrics = StoreMetrics::default();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(config.secs);
    let drivers = achieved.clamp(1, 4);
    let (clients, errors) = drive_multiplexed(clients, &config, batch, deadline, &metrics, drivers);
    let elapsed = started.elapsed().as_secs_f64();
    for e in &errors {
        if !matches!(e, StoreError::Divergence { .. }) {
            eprintln!("client error: {e}");
        }
    }
    drop(clients);
    let mut report = server.shutdown();
    for e in &report.shutdown_errors {
        eprintln!("shutdown error: {e}");
    }
    let verify = store.verify(&mut report.clients);
    Ok(ArmReport {
        snapshot: metrics
            .snapshot(elapsed, store.shard_faults())
            .with_combining(store.combine_snapshot())
            .with_durability(store.durability_snapshot()),
        ops_served: report.ops_served,
        connections_requested: connections,
        connections_achieved: achieved,
        divergence_errors: errors
            .iter()
            .filter(|e| matches!(e, StoreError::Divergence { .. }))
            .count(),
        client_errors: errors.iter().map(|e| e.to_string()).collect(),
        verify_consistent: verify.all_consistent(),
        diverged_shards: verify.diverged_shards(),
        shutdown_errors: report
            .shutdown_errors
            .iter()
            .map(|e| e.to_string())
            .collect(),
    })
}

/// The `net` command.
pub fn run(args: &Args) -> Result<(), Exit> {
    let config = soak_config(args)?;
    let connections = args.int(&CONNECTIONS) as usize;
    let batch = args.int(&BATCH) as usize;
    let sweep = args.on(&SWEEP);
    let backend = config.backend.name();

    // One multiplexed run at --connections, or the full scaling
    // trajectory under --sweep.
    let points: Vec<usize> = if sweep {
        SWEEP_POINTS.to_vec()
    } else {
        vec![connections]
    };
    let mut arms: Vec<ArmReport> = Vec::new();
    for &p in &points {
        eprintln!(
            "net: {backend} arm, {p} connection(s) x {} shard(s) over localhost TCP, \
             {}s, batch {batch}, fault rate {} …",
            config.shards, config.secs, config.fault_rate
        );
        let arm = run_arm(&config, p, batch)?;
        println!("{}", arm.snapshot.render_tables());
        arm.print_summary(&format!("{backend} arm"));
        arms.push(arm);
    }
    // A substrate that is *expected* to corrupt state (the naive
    // witness) cannot be held to verify-consistency, and its clients
    // may see divergence errors — but nothing else.
    let expect_consistent = config.backend.expected_consistent();
    let verdict = arms.iter().all(|a| {
        (a.verify_consistent || !expect_consistent)
            && (a.client_errors.is_empty()
                || (!expect_consistent && a.client_errors.len() == a.divergence_errors))
            && a.shutdown_errors.is_empty()
    });

    let mut doc = vec![(
        "config",
        JsonValue::object([
            ("connections", connections.into()),
            ("shards", config.shards.into()),
            ("secs", config.secs.into()),
            ("batch", batch.into()),
            ("read_pct", config.read_pct.into()),
            ("keyspace", config.keyspace.into()),
            ("fault_rate", config.fault_rate.into()),
            ("seed", JsonValue::seed(config.seed)),
            ("sweep", sweep.into()),
            ("transport", "tcp-localhost".into()),
            ("driver", "multiplexed-reactor".into()),
        ]),
    )];
    if sweep {
        doc.push(("sweep", arms.iter().map(|a| a.to_json(backend)).collect()));
    }
    // The headline entry keeps its historical key: the largest
    // completed sweep point, or the single measured run.
    if let Some(headline) = arms.last() {
        doc.push(("robust", headline.to_json(backend)));
    }
    doc.push(("consistent_verdict", verdict.into()));
    write_json(
        json_out(args, "BENCH_net.json"),
        JsonValue::object(doc).render(),
    )?;

    if !verdict {
        return Err(Exit::Failed(
            "DIVERGENCE in the measured arm — the construction failed its envelope".into(),
        ));
    }
    Ok(())
}

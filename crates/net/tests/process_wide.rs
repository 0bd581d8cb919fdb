//! Tests that measure or exhaust something the whole process shares —
//! its CPU time, its descriptors — in a test binary of their own and
//! one at a time ([`PROCESS`]): no neighbouring test would survive the
//! second, and any neighbour would spoil the first.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ff_net::wire::{encode_request, Request};
use ff_net::{NetClient, NetServer, ServerConfig};
use ff_store::{Backend, Store, StoreConfig};

/// Held by each test for its whole body.
static PROCESS: Mutex<()> = Mutex::new(());

fn one_loop_server(write_timeout: Duration) -> NetServer {
    let store = Arc::new(Store::new(
        StoreConfig::builder()
            .shards(2)
            .backend(Backend::reliable())
            .build()
            .unwrap(),
    ));
    let config = ServerConfig {
        loops: 1,
        write_timeout,
        ..ServerConfig::default()
    };
    NetServer::start(store, "127.0.0.1:0", config).unwrap()
}

/// This process's CPU time, through a `/proc/self/stat` handle opened
/// while descriptors were still to be had. Without procfs it measures
/// nothing and the rest of each test still runs.
struct CpuClock(Option<File>);

impl CpuClock {
    fn open() -> CpuClock {
        CpuClock(File::open("/proc/self/stat").ok())
    }

    /// User plus system time so far, in clock ticks (10 ms on Linux).
    fn ticks(&mut self) -> Option<u64> {
        let stat = self.0.as_mut()?;
        let mut text = String::new();
        stat.seek(SeekFrom::Start(0)).unwrap();
        stat.read_to_string(&mut text).unwrap();
        // Fields 14 and 15; the command name (field 2) may hold spaces,
        // so count from its closing parenthesis.
        let after_comm = &text[text.rfind(')').unwrap() + 1..];
        let mut fields = after_comm.split_whitespace().skip(11);
        let utime: u64 = fields.next().unwrap().parse().unwrap();
        let stime: u64 = fields.next().unwrap().parse().unwrap();
        Some(utime + stime)
    }

    /// Ticks burned while `during` runs.
    fn ticks_during(&mut self, during: impl FnOnce()) -> Option<u64> {
        let before = self.ticks();
        during();
        self.ticks()
            .zip(before)
            .map(|(after, before)| after - before)
    }
}

/// Nothing to do means nothing done: with every thread waiting in the
/// kernel, neither idle connections nor a half-closed peer whose
/// responses are stuck behind a full socket cost any CPU. The second is
/// the trap: its EOF is permanently "readable", so a connection that
/// kept (or regained) read interest after EOF would spin the loop.
#[test]
fn idle_and_stalled_connections_cost_no_cpu() {
    let _alone = PROCESS.lock().unwrap_or_else(|e| e.into_inner());
    let server = one_loop_server(Duration::from_secs(30));
    let mut cpu = CpuClock::open();
    let mut idle: Vec<NetClient> = (0..64)
        .map(|_| NetClient::connect(server.addr()).unwrap())
        .collect();
    for c in &mut idle {
        c.ping().unwrap();
    }
    let quiet = Duration::from_millis(300);
    if let Some(burned) = cpu.ticks_during(|| std::thread::sleep(quiet)) {
        assert!(burned <= 1, "{burned} ticks of CPU serving nobody");
    }
    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_connections() != 0 {
        assert!(Instant::now() < deadline, "closed connections never reaped");
        std::thread::sleep(Duration::from_millis(1));
    }

    // 200,000 STATS requests are 2 MB; their answers are ten times
    // that, far more than the kernel buffers for a peer that is not
    // reading, so the server's write blocks with its own buffer past
    // the pause. Then the peer half-closes: EOF behind the requests.
    const FRAMES: u32 = 200_000;
    let peer = TcpStream::connect(server.addr()).unwrap();
    let mut requests = Vec::new();
    for id in 1..=FRAMES {
        encode_request(&mut requests, id, &Request::Stats);
    }
    let mut writer = peer.try_clone().unwrap();
    let flood = std::thread::spawn(move || {
        writer.write_all(&requests)?;
        writer.shutdown(Shutdown::Write)
    });
    // The server settles once it has filled every buffer on the way.
    let deadline = Instant::now() + Duration::from_secs(10);
    while cpu
        .ticks_during(|| std::thread::sleep(Duration::from_millis(100)))
        .is_some_and(|t| t > 0)
    {
        assert!(Instant::now() < deadline, "the server never went quiet");
    }
    if let Some(burned) = cpu.ticks_during(|| std::thread::sleep(quiet)) {
        assert!(burned <= 1, "{burned} ticks of CPU behind a stalled peer");
    }
    assert_eq!(server.active_connections(), 1);

    // (`e2e.rs` has the same peer drain and get every answer.) Here it
    // hangs up: that fails whatever write the flood thread is blocked
    // in, and closing with answers unread resets the connection, so the
    // server's drain has nobody to wait for.
    peer.shutdown(Shutdown::Both).unwrap();
    let _ = flood.join().unwrap();
    drop(peer);
    let report = server.shutdown();
    assert!(report.shutdown_errors.is_empty());
}

/// Out of descriptors the pending connection stays in the kernel's
/// queue and the listener stays readable, so an acceptor that answered
/// the error by waiting for readability again would spin. It pauses on
/// that error instead (the server's one timed sleep), keeps the rest of
/// the server running, and accepts as soon as a descriptor frees up.
#[test]
fn accept_failure_pauses_instead_of_spinning_and_recovers() {
    let _alone = PROCESS.lock().unwrap_or_else(|e| e.into_inner());
    let server = one_loop_server(Duration::from_secs(2));
    let mut cpu = CpuClock::open();
    let mut served = NetClient::connect(server.addr()).unwrap();
    served.ping().unwrap();

    let mut hog = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        hog.push(f);
    }
    assert!(!hog.is_empty(), "the descriptor limit was never reached");
    // One descriptor back for the client end; the server end has none.
    hog.pop();
    let mut waiting = NetClient::connect(server.addr()).unwrap();

    // The kernel has completed that handshake and `accept` is failing.
    // The acceptor must be pausing, not spinning, and the loop must be
    // serving its connection as if nothing were wrong.
    let burned = cpu.ticks_during(|| {
        for _ in 0..20 {
            std::thread::sleep(Duration::from_millis(10));
            served.ping().unwrap();
        }
    });
    if let Some(burned) = burned {
        assert!(
            burned < 10,
            "{burned} ticks of CPU in a 200 ms window with one failing accept"
        );
    }
    assert_eq!(server.active_connections(), 1);

    drop(hog);
    waiting
        .ping()
        .expect("accepted once descriptors were available");
    assert_eq!(server.active_connections(), 2);
    let report = server.shutdown();
    assert!(report.shutdown_errors.is_empty());
}

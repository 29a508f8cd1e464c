//! Loopback integration: real TCP, real concurrency, verified against
//! the in-process oracle.

use dbep_core::prelude::*;
use dbep_net::{Client, ErrorCode, Response, Server, ServerConfig};
use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

fn tpch() -> Arc<Database> {
    static DB: std::sync::OnceLock<Arc<Database>> = std::sync::OnceLock::new();
    Arc::clone(DB.get_or_init(|| Arc::new(dbep_datagen::tpch::generate(0.01, 42))))
}

fn ssb() -> Arc<Database> {
    static DB: std::sync::OnceLock<Arc<Database>> = std::sync::OnceLock::new();
    Arc::clone(DB.get_or_init(|| Arc::new(dbep_datagen::ssb::generate(0.01, 42))))
}

fn start(cfg: ServerConfig) -> Server {
    Server::serve("127.0.0.1:0", Some(tpch()), Some(ssb()), cfg).expect("bind loopback")
}

/// Single-threaded oracle checksums for every query's default binding.
fn oracle_checksums() -> HashMap<QueryId, u64> {
    QueryId::ALL
        .iter()
        .map(|&q| {
            let db = if QueryId::SSB.contains(&q) { ssb() } else { tpch() };
            let result = run(Engine::Typer, q, &db, &ExecCfg::default());
            (q, result.checksum64())
        })
        .collect()
}

#[test]
fn eight_clients_run_all_twelve_queries_against_the_oracle() {
    let server = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let oracle = oracle_checksums();
    std::thread::scope(|s| {
        for c in 0..8 {
            let oracle = &oracle;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for (k, &q) in QueryId::ALL.iter().enumerate() {
                    // Interleave the two exchange shapes across clients.
                    let engine = Engine::SELECTABLE[(c + k) % Engine::SELECTABLE.len()];
                    let response = if (c + k) % 2 == 0 {
                        match client.prepare(q.name(), "").expect("prepare") {
                            Response::Prepared { handle, .. } => {
                                client.run(handle, engine.name()).expect("run")
                            }
                            other => panic!("prepare answered {other:?}"),
                        }
                    } else {
                        client
                            .run_params(q.name(), engine.name(), "")
                            .expect("run_params")
                    };
                    match response {
                        Response::Result(o) => {
                            assert_eq!(
                                o.checksum,
                                oracle[&q],
                                "client {c}: {} on {} diverged from the oracle",
                                q.name(),
                                engine.name()
                            );
                            assert!(o.rows > 0, "{} returned rows", q.name());
                        }
                        Response::Retry { .. } => {
                            // Admission pushback is a legal answer under
                            // concurrency; the blocking re-run must agree.
                            let retried = client
                                .run_params(q.name(), Engine::Typer.name(), "")
                                .expect("retried run");
                            if let Response::Result(o) = retried {
                                assert_eq!(o.checksum, oracle[&q]);
                            }
                        }
                        other => panic!("run answered {other:?}"),
                    }
                }
            });
        }
    });
    let stats = server.net_metrics();
    assert_eq!(stats.connections_total.get(), 8);
    assert!(stats.results_total.get() >= 8, "results flowed");
}

#[test]
fn non_default_specs_round_trip_the_params_machinery() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // A non-default binding must give a *different* result than the
    // default, and match the oracle run with the same binding.
    let spec = "year=1995;discount=3;quantity=30";
    let params = dbep_queries::params::Params::from_spec(QueryId::Q6, spec).unwrap();
    let session = Session::new(tpch());
    let expected = session.prepare_params(params).run(Engine::Typer);
    match client.run_params("q6", "typer", spec).expect("non-default q6") {
        Response::Result(o) => {
            assert_eq!(o.checksum, expected.checksum64());
            assert_ne!(o.checksum, oracle_checksums()[&QueryId::Q6]);
        }
        other => panic!("got {other:?}"),
    }
    // PREPARE reports the same params_fp the run does.
    let fp = match client.prepare("q6", spec).expect("prepare") {
        Response::Prepared { handle, params_fp } => {
            match client.run(handle, "tectorwise").expect("run handle") {
                Response::Result(o) => assert_eq!(o.params_fp, params_fp),
                other => panic!("got {other:?}"),
            }
            params_fp
        }
        other => panic!("got {other:?}"),
    };
    assert_ne!(fp, 0);
}

#[test]
fn typed_errors_keep_the_connection_alive() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Unknown query.
    match client.run_params("q99", "typer", "").expect("exchange") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownQuery),
        other => panic!("got {other:?}"),
    }
    // Unknown engine.
    match client.run_params("q6", "warp-drive", "").expect("exchange") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownEngine),
        other => panic!("got {other:?}"),
    }
    // Out-of-domain spec rejected by the validating constructors.
    match client.run_params("q6", "typer", "year=2024;discount=6;quantity=24") {
        Ok(Response::Error { code, message }) => {
            assert_eq!(code, ErrorCode::BadParams);
            assert!(message.contains("year"), "constructor reason: {message}");
        }
        other => panic!("got {other:?}"),
    }
    // Handle never prepared on this connection.
    match client.run(42, "typer").expect("exchange") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownHandle),
        other => panic!("got {other:?}"),
    }
    // Unknown frame tag: payload skipped via the length prefix.
    let bogus = dbep_net::frame::encode_frame(0x7e, b"??");
    client.stream().write_all(&bogus).expect("send bogus tag");
    match read_one(&mut client) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownTag),
        other => panic!("got {other:?}"),
    }
    // After all that abuse, the same connection still serves queries.
    match client.run_params("q6", "typer", "").expect("exchange") {
        Response::Result(o) => assert!(o.rows > 0),
        other => panic!("got {other:?}"),
    }
}

/// Read one response frame off the client's raw stream.
fn read_one(client: &mut Client) -> Response {
    use dbep_net::frame::{read_frame, FrameRead};
    match read_frame(client.stream()).expect("readable") {
        FrameRead::Frame { tag, payload } => Response::decode(tag, &payload).expect("decodable response"),
        other => panic!("expected a frame, got {other:?}"),
    }
}

#[test]
fn oversized_frames_answer_a_typed_error_then_close() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let huge = (dbep_net::MAX_FRAME_LEN + 1).to_le_bytes();
    client.stream().write_all(&huge).expect("send length");
    match read_one(&mut client) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Oversized),
        other => panic!("got {other:?}"),
    }
    // The stream is unrecoverable: the server closes it.
    if let Ok(resp) = client.run_params("q6", "typer", "") {
        panic!("connection should be closed, got {resp:?}");
    }
}

#[test]
fn truncated_frames_do_not_pin_a_worker() {
    let server = start(ServerConfig {
        read_timeout: Duration::from_millis(50),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Announce a 100-byte frame, send 3 bytes, stall. The server's
    // read timeout must classify this as truncation and respond.
    let mut partial = Vec::new();
    partial.extend_from_slice(&100u32.to_le_bytes());
    partial.extend_from_slice(&[1, 2, 3]);
    client.stream().write_all(&partial).expect("send partial");
    match read_one(&mut client) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Truncated),
        other => panic!("got {other:?}"),
    }
}

#[test]
fn retry_surfaces_admission_saturation() {
    // A gate of one in-flight query: concurrent clients must observe
    // RETRY frames (or succeed) — never hang, never protocol-error.
    let server = start(ServerConfig {
        threads: 1,
        max_inflight: Some(1),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let outcomes: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let (mut ok, mut retry) = (0u64, 0u64);
                    for _ in 0..10 {
                        match client.run_params("q1", "typer", "").expect("exchange") {
                            Response::Result(_) => ok += 1,
                            Response::Retry { max_inflight, .. } => {
                                assert_eq!(max_inflight, 1);
                                retry += 1;
                            }
                            other => panic!("got {other:?}"),
                        }
                    }
                    (ok, retry)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let total_ok: u64 = outcomes.iter().map(|(ok, _)| ok).sum();
    let total_retry: u64 = outcomes.iter().map(|(_, r)| r).sum();
    assert_eq!(total_ok + total_retry, 60, "every exchange was answered");
    assert!(total_ok > 0, "some queries ran");
    assert_eq!(server.net_metrics().retries_total.get(), total_retry);
}

#[test]
fn shutdown_frame_drains_gracefully() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    // Work, then drain.
    assert!(matches!(
        client.run_params("q6", "typer", "").expect("run"),
        Response::Result(_)
    ));
    assert!(matches!(client.shutdown().expect("shutdown"), Response::Bye));
    server.join();
    // The listener is gone: new connections fail (allow the OS a beat).
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
        "listener must be closed after drain"
    );
}

#[test]
fn bounded_accept_refuses_past_the_cap() {
    let server = start(ServerConfig {
        max_conns: 2,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut a = Client::connect(addr).expect("conn 1");
    let mut b = Client::connect(addr).expect("conn 2");
    assert!(matches!(
        a.run_params("q6", "typer", "").expect("a runs"),
        Response::Result(_)
    ));
    assert!(matches!(
        b.run_params("q6", "typer", "").expect("b runs"),
        Response::Result(_)
    ));
    // Third connection: accepted at the TCP level, refused with BUSY.
    let mut c = Client::connect(addr).expect("conn 3 tcp");
    match read_one(&mut c) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Busy),
        other => panic!("got {other:?}"),
    }
    // Dropping a live connection frees a slot (give the server a beat).
    drop(a);
    std::thread::sleep(Duration::from_millis(300));
    let mut d = Client::connect(addr).expect("conn 4 tcp");
    assert!(matches!(
        d.run_params("q6", "typer", "").expect("d runs"),
        Response::Result(_)
    ));
}

/// Shared sink observable while the server still owns the log.
#[derive(Clone, Default)]
struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn records(&self) -> Vec<QueryLogRecord> {
        let text = String::from_utf8(self.0.lock().unwrap().clone()).unwrap();
        text.lines()
            .map(|l| QueryLogRecord::parse(l).expect("parseable record"))
            .collect()
    }
}

#[test]
fn query_log_records_carry_client_and_wire_fields() {
    let buf = SharedBuf::default();
    let metrics = EngineMetrics::new();
    let server = start(ServerConfig {
        query_log: Some(Arc::new(QueryLog::new(Box::new(buf.clone())))),
        metrics: Some(Arc::clone(&metrics)),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for (q, engine) in [("q6", "typer"), ("ssb-q1.1", "tectorwise")] {
        assert!(matches!(
            client.run_params(q, engine, "").expect("run"),
            Response::Result(_)
        ));
    }
    drop(client);
    let records = buf.records();
    assert_eq!(records.len(), 2);
    for r in &records {
        assert!(
            r.client.starts_with("127.0.0.1:"),
            "client addr recorded, got {:?}",
            r.client
        );
        assert!(r.latency_ns > 0);
        assert!(r.params_fp != 0);
    }
    assert_eq!(records[0].query, "q6");
    assert_eq!(records[1].query, "ssb-q1.1");
    // The sessions fed the shared metrics bundle and the server's
    // net_* series joined the same registry.
    assert_eq!(metrics.queries_completed.get(), 2);
    let names = metrics.registry().names();
    assert!(names.iter().any(|n| n == "net_frames_total"));
}

/// Wire-served records carry the same per-stage breakdown as
/// in-process ones: one wall time per declared stage of the plan.
#[test]
fn query_log_records_carry_stage_times() {
    let buf = SharedBuf::default();
    let server = start(ServerConfig {
        query_log: Some(Arc::new(QueryLog::new(Box::new(buf.clone())))),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for engine in ["typer", "adaptive"] {
        assert!(matches!(
            client.run_params("q3", engine, "").expect("run"),
            Response::Result(_)
        ));
    }
    drop(client);
    let stages = dbep_queries::plan(QueryId::Q3).stages().len();
    let records = buf.records();
    assert_eq!(records.len(), 2);
    for r in &records {
        assert_eq!(r.stage_ns.len(), stages, "{} record: {:?}", r.engine, r.stage_ns);
        assert!(
            r.stage_ns.iter().sum::<u64>() > 0,
            "{} record has zero stage time",
            r.engine
        );
    }
}

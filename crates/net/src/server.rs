//! The serve loop: bounded accept, per-connection threads, admission
//! backpressure, graceful drain.
//!
//! One [`Server`] owns a [`Session`] per database it serves (TPC-H,
//! SSB, or both). In pool mode both sessions share one
//! [`Scheduler`], so the admission gate — surfaced per request as
//! RETRY frames — bounds in-flight work across every connection; spawn
//! mode (`pool: false`) serves through pool-less sessions for the
//! baseline comparison, where nothing pushes back and queueing shows up
//! as latency instead.
//!
//! Observability: the sessions carry the caller's [`EngineMetrics`] and
//! trace sink, the server registers its own `net_*` counters (on the
//! same registry when metrics are attached), and the query log is
//! written *by the server*, not the sessions, so each record carries
//! the client address and the measured wire overhead.

use crate::frame::{
    read_frame, write_frame, ErrorCode, FrameRead, FrameReadError, Request, Response, RunOutcome,
};
use dbep_core::metrics::EngineMetrics;
use dbep_core::obs::{Counter, Histogram, QueryLog, QueryLogRecord, Registry, TraceSink};
use dbep_core::queries::{Engine, ExecCfg, QueryId};
use dbep_core::scheduler::{Scheduler, StageTrace};
use dbep_core::storage::Database;
use dbep_core::{PreparedQuery, Session};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving knobs. The defaults suit tests and loopback benchmarks;
/// `experiments serve-net` exposes the interesting ones as flags.
#[derive(Clone)]
pub struct ServerConfig {
    /// Scheduler workers (pool mode) / per-query threads (spawn mode).
    pub threads: usize,
    /// Shared-pool serving (true) vs spawn-per-query baseline (false).
    pub pool: bool,
    /// Admission bound override; `None` keeps the scheduler's default
    /// `4 × workers`. Ignored in spawn mode (no gate exists).
    pub max_inflight: Option<usize>,
    /// Bounded accept: connections beyond this answer BUSY and close.
    pub max_conns: usize,
    /// Per-connection socket read timeout. Doubles as the idle-poll
    /// period at which connections notice a drain.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout — a client that stops
    /// reading cannot pin a serving thread.
    pub write_timeout: Duration,
    /// Metrics bundle for the sessions; the server's `net_*` series
    /// join its registry.
    pub metrics: Option<Arc<EngineMetrics>>,
    /// Span-trace sink for the sessions.
    pub trace: Option<Arc<TraceSink>>,
    /// Query log, written by the server with client/wire fields filled.
    pub query_log: Option<Arc<QueryLog>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 1,
            pool: true,
            max_inflight: None,
            max_conns: 64,
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(2),
            metrics: None,
            trace: None,
            query_log: None,
        }
    }
}

/// The server's own wire-level counters, registered as `net_*` metrics
/// (on the sessions' registry when one is attached, else private).
pub struct NetMetrics {
    pub connections_total: Arc<Counter>,
    pub frames_total: Arc<Counter>,
    pub results_total: Arc<Counter>,
    pub retries_total: Arc<Counter>,
    pub errors_total: Arc<Counter>,
    pub wire_ns: Arc<Histogram>,
}

impl NetMetrics {
    fn on_registry(r: &Registry) -> NetMetrics {
        NetMetrics {
            connections_total: r.register_counter(
                "net_connections_total",
                "TCP connections accepted by the serve front-end.",
            ),
            frames_total: r.register_counter(
                "net_frames_total",
                "Request frames decoded by the serve front-end.",
            ),
            results_total: r.register_counter("net_results_total", "RESULT frames returned to clients."),
            retries_total: r.register_counter(
                "net_retries_total",
                "RETRY frames returned while the admission gate was saturated.",
            ),
            errors_total: r.register_counter("net_errors_total", "ERROR frames returned to clients."),
            wire_ns: r.register_histogram(
                "net_wire_ns",
                "Per-request server-side wire overhead (request decode plus response encode).",
            ),
        }
    }
}

struct ServerInner {
    listener: TcpListener,
    addr: SocketAddr,
    tpch: Option<Session>,
    ssb: Option<Session>,
    sched: Option<Arc<Scheduler>>,
    cfg: ServerConfig,
    net: NetMetrics,
    shutdown: AtomicBool,
    live_conns: AtomicUsize,
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
}

/// A listening serve front-end. Dropping it (or [`Server::join`] after
/// a SHUTDOWN frame / [`Server::shutdown`]) winds everything down.
pub struct Server {
    inner: Arc<ServerInner>,
    accept_handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving the given databases. At least one database must be
    /// provided; queries against an absent one answer a typed error.
    pub fn serve(
        addr: &str,
        tpch: Option<Arc<Database>>,
        ssb: Option<Arc<Database>>,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        assert!(
            tpch.is_some() || ssb.is_some(),
            "a server needs at least one database"
        );
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let exec = ExecCfg::with_threads(cfg.threads);
        let sched = cfg.pool.then(|| {
            Arc::new(match cfg.max_inflight {
                Some(m) => Scheduler::with_limits(cfg.threads, m),
                None => Scheduler::new(cfg.threads),
            })
        });
        let session = |db: Arc<Database>| {
            let mut s = match &sched {
                Some(sched) => Session::with_scheduler(db, exec, Arc::clone(sched)),
                None => Session::without_pool(db, exec),
            };
            if let Some(m) = &cfg.metrics {
                s = s.with_metrics(Arc::clone(m));
            }
            if let Some(t) = &cfg.trace {
                s = s.with_trace(Arc::clone(t));
            }
            // Deliberately no `with_query_log`: the server appends its
            // own records so client/wire fields are filled exactly once.
            s
        };
        let net = match &cfg.metrics {
            Some(m) => NetMetrics::on_registry(m.registry()),
            None => NetMetrics::on_registry(&Registry::new()),
        };
        let inner = Arc::new(ServerInner {
            listener,
            addr: local,
            tpch: tpch.map(session),
            ssb: ssb.map(session),
            sched,
            cfg,
            net,
            shutdown: AtomicBool::new(false),
            live_conns: AtomicUsize::new(0),
            conn_handles: Mutex::new(Vec::new()),
        });
        let accept_inner = Arc::clone(&inner);
        let accept_handle = std::thread::Builder::new()
            .name("dbep-net-accept".into())
            .spawn(move || accept_loop(&accept_inner))?;
        Ok(Server {
            inner,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The server's wire-level counters.
    pub fn net_metrics(&self) -> &NetMetrics {
        &self.inner.net
    }

    /// The shared scheduler (pool mode only).
    pub fn scheduler(&self) -> Option<&Arc<Scheduler>> {
        self.inner.sched.as_ref()
    }

    /// Plan-cache stats of the serving sessions (tpch, ssb).
    pub fn plan_cache_stats(
        &self,
    ) -> (
        Option<dbep_core::PlanCacheStats>,
        Option<dbep_core::PlanCacheStats>,
    ) {
        (
            self.inner.tpch.as_ref().map(Session::plan_cache_stats),
            self.inner.ssb.as_ref().map(Session::plan_cache_stats),
        )
    }

    /// Initiate a drain, as if a SHUTDOWN frame had arrived.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.inner);
    }

    /// Wait for the drain to finish: the accept loop has exited and
    /// every connection thread has completed its in-flight work.
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.inner.conn_handles.lock().expect("conn handles"));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        initiate_shutdown(&self.inner);
        self.join_inner();
    }
}

/// Set the drain flag and nudge the (blocking) accept call with a
/// throwaway connection so it observes the flag promptly.
fn initiate_shutdown(inner: &ServerInner) {
    // ORDERING: Relaxed — shutdown latch; every observer only needs
    // eventual visibility (the wake-up connect below and the socket
    // read timeouts bound how long "eventual" takes), and no other
    // shared state is published through this flag.
    inner.shutdown.store(true, Ordering::Relaxed);
    let _ = TcpStream::connect_timeout(&inner.addr, Duration::from_millis(200));
}

fn accept_loop(inner: &Arc<ServerInner>) {
    // ORDERING: Relaxed — shutdown latch, see `initiate_shutdown`.
    while !inner.shutdown.load(Ordering::Relaxed) {
        let stream = match inner.listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        // ORDERING: Relaxed — shutdown latch, see `initiate_shutdown`.
        if inner.shutdown.load(Ordering::Relaxed) {
            refuse(&inner.cfg, stream, ErrorCode::ShuttingDown, "draining");
            break;
        }
        // ORDERING: Relaxed — connection count used as an admission
        // heuristic; an off-by-one race at the cap only shifts which
        // connection gets BUSY, never corrupts state.
        if inner.live_conns.load(Ordering::Relaxed) >= inner.cfg.max_conns {
            inner.net.errors_total.inc();
            refuse(&inner.cfg, stream, ErrorCode::Busy, "connection limit reached");
            continue;
        }
        // ORDERING: Relaxed — see above; paired decrement in the
        // connection thread.
        inner.live_conns.fetch_add(1, Ordering::Relaxed);
        inner.net.connections_total.inc();
        let conn_inner = Arc::clone(inner);
        let spawned = std::thread::Builder::new()
            .name("dbep-net-conn".into())
            .spawn(move || {
                serve_connection(&conn_inner, stream);
                // ORDERING: Relaxed — paired with the accept-side
                // increment above.
                conn_inner.live_conns.fetch_sub(1, Ordering::Relaxed);
            });
        match spawned {
            Ok(h) => inner.conn_handles.lock().expect("conn handles").push(h),
            Err(_) => {
                // ORDERING: Relaxed — undo of the increment above.
                inner.live_conns.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Best-effort typed refusal of a connection the serve loop won't take.
fn refuse(cfg: &ServerConfig, mut stream: TcpStream, code: ErrorCode, message: &str) {
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let frame = Response::Error {
        code,
        message: message.to_string(),
    }
    .encode();
    let _ = write_frame(&mut stream, &frame);
}

/// One prepared handle held by a connection.
struct Handle {
    prepared: PreparedQuery,
}

fn serve_connection(inner: &Arc<ServerInner>, mut stream: TcpStream) {
    let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_default();
    let _ = stream.set_read_timeout(Some(inner.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut handles: Vec<Handle> = Vec::new();
    loop {
        let (tag, payload) = match read_frame(&mut stream) {
            Ok(FrameRead::Frame { tag, payload }) => (tag, payload),
            Ok(FrameRead::Closed) => return,
            Ok(FrameRead::Idle) => {
                // ORDERING: Relaxed — shutdown latch, see
                // `initiate_shutdown`.
                if inner.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            // The frame boundary is lost: answer a typed error, close.
            Err(e) => {
                let (code, message) = match e {
                    FrameReadError::Truncated => (ErrorCode::Truncated, "stream ended mid-frame".to_string()),
                    FrameReadError::Oversized(n) => (
                        ErrorCode::Oversized,
                        format!("frame length {n} exceeds {}", crate::MAX_FRAME_LEN),
                    ),
                    FrameReadError::Empty => (ErrorCode::BadFrame, "zero-length frame".to_string()),
                    FrameReadError::Io(_) => return,
                };
                inner.net.errors_total.inc();
                let frame = Response::Error { code, message }.encode();
                let _ = write_frame(&mut stream, &frame);
                return;
            }
        };
        inner.net.frames_total.inc();
        let t_read = Instant::now();
        // ORDERING: Relaxed — shutdown latch, see `initiate_shutdown`.
        if inner.shutdown.load(Ordering::Relaxed) {
            respond(
                inner,
                &mut stream,
                Response::Error {
                    code: ErrorCode::ShuttingDown,
                    message: "server is draining".to_string(),
                },
            );
            return;
        }
        let request = match Request::decode(tag, &payload) {
            Ok(r) => r,
            // The length prefix already advanced the stream past this
            // frame, so the connection survives a bad payload.
            Err(e) => {
                respond(
                    inner,
                    &mut stream,
                    Response::Error {
                        code: e.code(),
                        message: e.to_string(),
                    },
                );
                continue;
            }
        };
        match request {
            Request::Shutdown => {
                respond(inner, &mut stream, Response::Bye);
                initiate_shutdown(inner);
                return;
            }
            Request::Prepare { query, spec } => {
                let response = match prepare(inner, &query, &spec) {
                    Ok(prepared) => {
                        let params_fp = prepared.params_fp();
                        handles.push(Handle { prepared });
                        Response::Prepared {
                            handle: (handles.len() - 1) as u32,
                            params_fp,
                        }
                    }
                    Err(resp) => *resp,
                };
                respond(inner, &mut stream, response);
            }
            Request::Run { handle, engine } => {
                let response = match (parse_engine(&engine), handles.get(handle as usize)) {
                    (Err(resp), _) => *resp,
                    (Ok(_), None) => Response::Error {
                        code: ErrorCode::UnknownHandle,
                        message: format!("handle {handle} was never prepared here"),
                    },
                    (Ok(engine), Some(h)) => execute(inner, &h.prepared, engine, &peer, t_read),
                };
                respond(inner, &mut stream, response);
            }
            Request::RunParams { query, engine, spec } => {
                let response = match (parse_engine(&engine), prepare(inner, &query, &spec)) {
                    (Err(resp), _) | (_, Err(resp)) => *resp,
                    (Ok(engine), Ok(prepared)) => execute(inner, &prepared, engine, &peer, t_read),
                };
                respond(inner, &mut stream, response);
            }
        }
    }
}

/// Send `response`, ticking the outcome counters.
fn respond(inner: &ServerInner, stream: &mut TcpStream, response: Response) {
    match &response {
        Response::Result(_) => inner.net.results_total.inc(),
        Response::Retry { .. } => inner.net.retries_total.inc(),
        Response::Error { .. } => inner.net.errors_total.inc(),
        _ => {}
    }
    let frame = response.encode();
    let _ = write_frame(stream, &frame);
}

fn parse_engine(name: &str) -> Result<Engine, Box<Response>> {
    name.parse()
        .map_err(|_| err_resp(ErrorCode::UnknownEngine, format!("unknown engine {name:?}")))
}

/// Boxed typed error, keeping fallible helpers' `Err` variants small.
fn err_resp(code: ErrorCode, message: String) -> Box<Response> {
    Box::new(Response::Error { code, message })
}

/// Resolve the query, pick its session, validate the spec and prepare.
fn prepare(inner: &ServerInner, query: &str, spec: &str) -> Result<PreparedQuery, Box<Response>> {
    let id: QueryId = query
        .parse()
        .map_err(|_| err_resp(ErrorCode::UnknownQuery, format!("unknown query {query:?}")))?;
    let session = if QueryId::SSB.contains(&id) {
        &inner.ssb
    } else {
        &inner.tpch
    };
    let session = session.as_ref().ok_or_else(|| {
        err_resp(
            ErrorCode::UnknownQuery,
            format!("{} needs a database this server does not serve", id.name()),
        )
    })?;
    let params = dbep_core::queries::params::Params::from_spec(id, spec)
        .map_err(|e| err_resp(ErrorCode::BadParams, e.to_string()))?;
    Ok(session.prepare_params(params))
}

/// Run through the non-blocking admission path; saturation becomes a
/// RETRY frame. On success, append the query-log record with the wire
/// fields the in-process path cannot know.
fn execute(
    inner: &ServerInner,
    prepared: &PreparedQuery,
    engine: Engine,
    peer: &str,
    t_read: Instant,
) -> Response {
    let decode_ns = t_read.elapsed().as_nanos() as u64;
    // A query log wants per-stage wall times: attach a stage trace, as
    // the session does for its own log.
    let stage_trace = inner
        .cfg
        .query_log
        .as_ref()
        .map(|_| StageTrace::new(dbep_core::queries::plan(prepared.query()).stages().len()));
    let cfg = ExecCfg {
        stage_trace: stage_trace.as_ref(),
        ..*prepared.cfg()
    };
    let t_run = Instant::now();
    let Some((result, stats)) = prepared.try_run_with_stats(engine, &cfg) else {
        let sched = inner.sched.as_deref();
        return Response::Retry {
            inflight: sched.map(|s| s.inflight()).unwrap_or(0) as u32,
            max_inflight: sched.map(|s| s.max_inflight()).unwrap_or(0) as u32,
        };
    };
    let latency_ns = t_run.elapsed().as_nanos() as u64;
    let t_encode = Instant::now();
    let mut outcome = RunOutcome {
        engine: engine.name().to_string(),
        cache_hit: prepared.cache_hit(),
        checksum: result.checksum64(),
        rows: result.len() as u64,
        params_fp: prepared.params_fp(),
        planning_ns: prepared.planning_ns(),
        latency_ns,
        wire_ns: 0,
        admission_wait_ns: stats.admission_wait_ns(),
        queue_wait_ns: stats.queue_wait_ns(),
        tasks: stats.tasks,
        morsels: stats.morsels_executed(),
        steals: stats.steals,
        bytes_scanned: stats.bytes_scanned,
    };
    // Wire overhead = decode side + the encode work done so far (the
    // result checksum above is the expensive part); the final socket
    // write is excluded — it cannot be known before it happens.
    let wire_ns = decode_ns + t_encode.elapsed().as_nanos() as u64;
    outcome.wire_ns = wire_ns;
    inner.net.wire_ns.record(wire_ns);
    if let Some(log) = &inner.cfg.query_log {
        log.append(QueryLogRecord {
            seq: 0,     // assigned by the log
            unix_ms: 0, // stamped by the log
            query: prepared.query().name().to_string(),
            engine: engine.name().to_string(),
            client: peer.to_string(),
            params_fp: outcome.params_fp,
            cache_hit: outcome.cache_hit,
            planning_ns: outcome.planning_ns,
            latency_ns,
            wire_ns,
            rows: outcome.rows,
            morsels_executed: outcome.morsels,
            queue_wait_ns: outcome.queue_wait_ns,
            admission_wait_ns: outcome.admission_wait_ns,
            tasks: outcome.tasks,
            steals: outcome.steals,
            bytes_scanned: outcome.bytes_scanned,
            stage_ns: stage_trace.as_ref().map(StageTrace::snapshot).unwrap_or_default(),
        });
    }
    Response::Result(outcome)
}

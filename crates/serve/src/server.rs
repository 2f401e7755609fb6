//! A std-only TCP server speaking the sessioned v2 protocol.
//!
//! [`spawn_registry_server`] binds a listener over a
//! [`StudyRegistry`] and returns immediately; an accept thread hands
//! each connection to its own worker thread, so many clients query (and
//! subscribe) concurrently while each study's ingestion streams on its
//! own thread. Everything is `std::net` + `std::thread` — no async
//! runtime. [`spawn_server`] keeps the single-study v1 signature: it
//! wraps the state in a one-entry registry (study name `default`), which
//! the session layer auto-selects.
//!
//! Per connection the protocol is line-oriented (see [`crate::query`]
//! for the v2 grammar): each request line is answered with `OK <n>` plus
//! `n` body lines, or `ERR <message>`. `QUIT` ends the connection;
//! `SHUTDOWN` ends the connection and stops the server. `SUBSCRIBE`
//! switches the connection into **event mode**: the worker streams
//! `EVENT <seq> <payload>` lines from its subscriber queue until the
//! stream's `end` event (connection returns to command mode) or server
//! stop (connection closes). The streaming write loop waits on the
//! subscriber queue with the same bounded tick as reads
//! (`READ_TIMEOUT`) and re-checks the stop flag every tick — a
//! `SHUTDOWN` from *another* connection wakes mid-`SUBSCRIBE` writers
//! too, it never strands them on an idle queue.
//!
//! The server defends itself against misbehaving clients: protocol lines
//! are capped at [`MAX_LINE_BYTES`] (an overlong line is answered with
//! `ERR line too long` and drained without ever buffering it), client
//! sockets carry a read timeout so idle connections periodically re-check
//! the stop flag instead of pinning their threads past `SHUTDOWN`, and
//! slow subscribers lose events (counted on `serve.subscriber_lagged`)
//! rather than ever back-pressuring ingestion.
//!
//! The server publishes its own observability metrics:
//! `serve.connections`, `serve.queries`, `serve.query_errors`,
//! `serve.dropped_lines`, `serve.subscriptions`,
//! `serve.subscriber_lagged`, `serve.events` (counters) and
//! `serve.active_clients`, `serve.subscribers`, `serve.studies` (gauges)
//! — all visible through the `HEALTH` verb alongside the
//! `netsim.ingest.*` family.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::live::LiveState;
use crate::query::{answer, Command};
use crate::registry::{StudyEntry, StudyRegistry};
use crate::session::Session;
use crate::subscribe::{DeltaEvent, Subscriber};

/// Longest accepted protocol request line, bytes (newline included).
/// Every valid query fits in well under 100 bytes; the cap only exists so
/// a client streaming garbage without `\n` cannot grow the line buffer
/// without bound.
pub const MAX_LINE_BYTES: usize = 4096;

/// How long a client read (or a streaming writer's queue wait) blocks
/// before waking to re-check the server stop flag. Keeps `SHUTDOWN`
/// effective even with idle or subscribed clients attached.
const READ_TIMEOUT: Duration = Duration::from_millis(250);

/// Shared server control block.
struct ServerShared {
    registry: Arc<StudyRegistry>,
    active_clients: AtomicU64,
}

/// A running query server; dropping the handle does **not** stop it —
/// call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shared: Arc<ServerShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port `0` binds).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The registry this server serves.
    pub fn registry(&self) -> &Arc<StudyRegistry> {
        &self.shared.registry
    }

    /// Blocks until the server stops — either via
    /// [`ServerHandle::shutdown`] from another thread or a client's
    /// `SHUTDOWN` — without initiating the stop itself.
    pub fn wait(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Stops accepting connections, joins the accept thread, and shuts
    /// the registry down (publisher and ingestion threads joined).
    ///
    /// In-flight client threads finish their current request and exit at
    /// the next read (or streaming-tick). Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.registry.request_stop();
        // The accept loop blocks in `accept`; a throwaway connection
        // wakes it so it can observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.shared.registry.shutdown();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serves
/// `registry`'s studies until [`ServerHandle::shutdown`] or a client's
/// `SHUTDOWN`.
pub fn spawn_registry_server(
    registry: Arc<StudyRegistry>,
    addr: &str,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shared = Arc::new(ServerShared { registry, active_clients: AtomicU64::new(0) });
    let accept_shared = shared.clone();
    let accept_thread = std::thread::Builder::new()
        .name("serve-accept".into())
        .spawn(move || accept_loop(listener, accept_shared))?;
    Ok(ServerHandle { addr: local, shared, accept_thread: Some(accept_thread) })
}

/// Binds `addr` and serves snapshot queries against a single `state` —
/// the v1 signature, kept as a wrapper over a one-study registry
/// (study name `default`; ingestion is driven by the caller, exactly as
/// before).
pub fn spawn_server(state: Arc<LiveState>, addr: &str) -> io::Result<ServerHandle> {
    let registry = StudyRegistry::new();
    let weeks = state.weeks();
    registry
        .register_state("default", "custom", state, weeks)
        .map_err(io::Error::other)?;
    spawn_registry_server(registry, addr)
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    for conn in listener.incoming() {
        if shared.registry.stopping() {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        mobilenet_obs::add("serve.connections", 1);
        let n = shared.active_clients.fetch_add(1, Ordering::SeqCst) + 1;
        mobilenet_obs::gauge("serve.active_clients", n as f64);
        let client_shared = shared.clone();
        // Detached worker: the connection owns its thread; `shutdown`
        // only needs the accept loop joined, clients exit at their next
        // read (or streaming tick) after the stop flag rises.
        let spawned = std::thread::Builder::new()
            .name("serve-client".into())
            .spawn(move || {
                let _ = serve_client(stream, &client_shared);
                let n = client_shared.active_clients.fetch_sub(1, Ordering::SeqCst) - 1;
                mobilenet_obs::gauge("serve.active_clients", n as f64);
            });
        if spawned.is_err() {
            let n = shared.active_clients.fetch_sub(1, Ordering::SeqCst) - 1;
            mobilenet_obs::gauge("serve.active_clients", n as f64);
        }
    }
}

/// One bounded line-read outcome.
enum LineRead {
    /// A complete line of at most [`MAX_LINE_BYTES`] arrived.
    Line,
    /// The peer closed the connection (a trailing unterminated fragment
    /// is dropped — it was never a request).
    Eof,
    /// The server stop flag was raised while waiting.
    Stopped,
    /// The line exceeded [`MAX_LINE_BYTES`]; the excess was drained up to
    /// its newline without being buffered.
    TooLong,
}

/// Reads one `\n`-terminated line into `line`, buffering at most
/// [`MAX_LINE_BYTES`] and draining (not storing) anything longer. Read
/// timeouts are treated as ticks to re-check `stop`, so a silent client
/// cannot pin this thread past a shutdown.
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    stop: &AtomicBool,
    line: &mut String,
) -> io::Result<LineRead> {
    line.clear();
    let mut buf: Vec<u8> = Vec::new();
    let mut overflowed = false;
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(LineRead::Stopped);
        }
        let available = match reader.fill_buf() {
            Ok(bytes) => bytes,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(LineRead::Eof);
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map_or(available.len(), |i| i + 1);
        if !overflowed {
            if buf.len() + take > MAX_LINE_BYTES {
                overflowed = true;
                buf.clear();
            } else {
                buf.extend_from_slice(&available[..take]);
            }
        }
        reader.consume(take);
        if newline.is_some() {
            if overflowed {
                return Ok(LineRead::TooLong);
            }
            *line = String::from_utf8_lossy(&buf).into_owned();
            return Ok(LineRead::Line);
        }
    }
}

/// Writes an `OK <n>` framed response.
fn write_ok(writer: &mut TcpStream, body: &[String]) -> io::Result<()> {
    let mut response = format!("OK {}\n", body.len());
    for l in body {
        response.push_str(l);
        response.push('\n');
    }
    writer.write_all(response.as_bytes())?;
    writer.flush()
}

/// How a subscription's streaming loop ended.
enum StreamOutcome {
    /// The stream's `end` event was delivered; back to command mode.
    Ended,
    /// The server stop flag rose; close the connection.
    Stopped,
}

/// Streams a subscription's events to the client until the stream ends
/// or the server stops. Every queue wait is bounded by [`READ_TIMEOUT`]
/// and followed by a stop-flag recheck — the regression PR 8 fixed on
/// the read path, mirrored here on the write path: a `SHUTDOWN` issued
/// elsewhere wakes this writer within one tick even if no event ever
/// arrives.
fn stream_events(
    writer: &mut TcpStream,
    registry: &StudyRegistry,
    entry: &Arc<StudyEntry>,
    sub: &Arc<Subscriber>,
) -> io::Result<StreamOutcome> {
    let outcome = loop {
        if registry.stopping() {
            break StreamOutcome::Stopped;
        }
        let Some((seq, event)) = sub.pop_wait(READ_TIMEOUT) else {
            continue;
        };
        let ended = matches!(event, DeltaEvent::End { .. });
        writeln!(writer, "EVENT {seq} {}", event.to_wire())?;
        writer.flush()?;
        if ended {
            break StreamOutcome::Ended;
        }
    };
    entry.hub().unsubscribe(sub);
    Ok(outcome)
}

/// Serves one connection until `QUIT`/`SHUTDOWN`/EOF/server stop.
fn serve_client(stream: TcpStream, shared: &Arc<ServerShared>) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut session = Session::new(shared.registry.clone());
    let mut line = String::new();
    loop {
        match read_bounded_line(&mut reader, shared.registry.stop_flag(), &mut line)? {
            LineRead::Eof | LineRead::Stopped => return Ok(()),
            LineRead::TooLong => {
                mobilenet_obs::add("serve.dropped_lines", 1);
                mobilenet_obs::add("serve.query_errors", 1);
                writeln!(writer, "ERR line too long (max {MAX_LINE_BYTES} bytes)")?;
                writer.flush()?;
                continue;
            }
            LineRead::Line => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        let outcome = match Command::parse(&line) {
            Ok(Command::Quit) => return Ok(()),
            Ok(Command::Shutdown) => {
                // `request_stop` wakes publisher waits and subscriber
                // queues along with raising the flag, so connections
                // mid-`SUBSCRIBE` notice within one tick.
                shared.registry.request_stop();
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(writer.local_addr()?);
                writeln!(writer, "OK 0")?;
                writer.flush()?;
                return Ok(());
            }
            Ok(Command::Hello) => write_ok(&mut writer, &session.hello()),
            Ok(Command::List) => write_ok(&mut writer, &session.list()),
            Ok(Command::Use(name)) => match session.use_study(&name) {
                Ok(body) => write_ok(&mut writer, &body),
                Err(msg) => write_err(&mut writer, &msg),
            },
            Ok(Command::Start { name, scale, seed, weeks }) => {
                match session.start(&name, &scale, seed, weeks) {
                    Ok(body) => write_ok(&mut writer, &body),
                    Err(msg) => write_err(&mut writer, &msg),
                }
            }
            Ok(Command::Subscribe(topics)) => match session.subscribe(topics) {
                Ok((entry, sub)) => {
                    write_ok(&mut writer, &[])?;
                    match stream_events(&mut writer, &shared.registry, &entry, &sub)? {
                        StreamOutcome::Ended => Ok(()),
                        StreamOutcome::Stopped => return Ok(()),
                    }
                }
                Err(msg) => write_err(&mut writer, &msg),
            },
            Ok(Command::Query(query)) => {
                mobilenet_obs::add("serve.queries", 1);
                match session.current() {
                    Ok(entry) => match answer(entry.state(), &query) {
                        Ok(body) => write_ok(&mut writer, &body),
                        Err(msg) => write_err(&mut writer, &msg),
                    },
                    Err(msg) => write_err(&mut writer, &msg),
                }
            }
            Err(msg) => write_err(&mut writer, &msg),
        };
        outcome?;
    }
}

/// Writes an `ERR` response and counts it.
fn write_err(writer: &mut TcpStream, msg: &str) -> io::Result<()> {
    mobilenet_obs::add("serve.query_errors", 1);
    writeln!(writer, "ERR {msg}")?;
    writer.flush()
}

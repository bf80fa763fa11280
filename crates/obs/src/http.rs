//! A zero-dependency blocking HTTP/1.1 server loop.
//!
//! [`HttpServer`] is a minimal request/response loop over plain
//! `std::net`: an accept loop that serves each connection on its own
//! thread, at most [`MAX_CONNECTIONS`] at once, with a caller-supplied
//! handler mapping [`HttpRequest`] to [`HttpResponse`]. A client that
//! connects and then stays silent holds one slot until the read
//! deadline, not the whole front. When every slot is busy the accept
//! loop waits for one to free; new connections queue in the listen
//! backlog meanwhile. It exists so every HTTP-fronted component in the
//! workspace (`tomo-sim --serve-metrics`, the `tomo-serve` daemon's
//! query/health front) shares one hardened accept loop — deadlines,
//! bounded concurrency, drain-on-shutdown — instead of growing private
//! copies.
//!
//! [`metrics_handler`] is the one scrape endpoint: it serves the global
//! registry in Prometheus text exposition at `GET /metrics`, plus a
//! `GET /healthz` liveness probe. The daemon passes every route it does
//! not own to it.
//!
//! Servers bind loopback only: the simulator has no business listening
//! on external interfaces.
//!
//! # Shutdown semantics
//!
//! [`HttpServerHandle::shutdown`] sets the stop flag and wakes the
//! accept loop with a throwaway self-connect. The loop then *drains*:
//! every connection sitting in the listen backlog is accepted and
//! served, and every connection thread is joined (each bounded by the
//! per-connection read deadline) before the loop's thread exits, so a
//! request that raced the shutdown still gets its response instead of a
//! silent hangup, and no connection thread outlives
//! [`HttpServerHandle::shutdown`].

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use crate::prometheus::prometheus_text;

/// How long a single request may dawdle before the connection is cut.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Largest request body the loop will buffer (requests, not ingest).
const MAX_BODY_LEN: usize = 1 << 20;

/// Most connections served at once, each on its own thread. Past it the
/// accept loop waits for a connection to finish.
const MAX_CONNECTIONS: usize = 16;

/// One parsed HTTP request, as seen by a [`Handler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, …), uppercased as received.
    pub method: String,
    /// Request target with any `?query` suffix stripped.
    pub target: String,
    /// The raw query string after `?`, when present.
    pub query: Option<String>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// The handler's answer: status line tail, content type, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code and reason, e.g. `"200 OK"`.
    pub status: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Extra headers rendered verbatim (`name: value`), e.g.
    /// `Retry-After` on a backpressure 503.
    pub extra_headers: Vec<(String, String)>,
}

impl HttpResponse {
    /// A `200 OK` response.
    #[must_use]
    pub fn ok(content_type: &'static str, body: String) -> Self {
        HttpResponse {
            status: "200 OK",
            content_type,
            body,
            extra_headers: Vec::new(),
        }
    }

    /// A `404 Not Found` response.
    #[must_use]
    pub fn not_found() -> Self {
        HttpResponse {
            status: "404 Not Found",
            content_type: "text/plain; charset=utf-8",
            body: "not found\n".to_string(),
            extra_headers: Vec::new(),
        }
    }

    /// A `405 Method Not Allowed` response.
    #[must_use]
    pub fn method_not_allowed() -> Self {
        HttpResponse {
            status: "405 Method Not Allowed",
            content_type: "text/plain; charset=utf-8",
            body: "method not allowed\n".to_string(),
            extra_headers: Vec::new(),
        }
    }

    /// A `503 Service Unavailable` with a `Retry-After` hint in seconds.
    #[must_use]
    pub fn unavailable(body: String, retry_after_secs: u64) -> Self {
        HttpResponse {
            status: "503 Service Unavailable",
            content_type: "text/plain; charset=utf-8",
            body,
            extra_headers: vec![("Retry-After".to_string(), retry_after_secs.to_string())],
        }
    }
}

/// A request handler shared across the accept loop's lifetime.
pub type Handler = Arc<dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync>;

/// A bound-but-not-yet-serving HTTP endpoint.
pub struct HttpServer {
    listener: TcpListener,
}

/// Handle to an [`HttpServer`] running on a background thread.
///
/// Dropping the handle shuts the server down and joins the thread.
pub struct HttpServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `127.0.0.1:port` (`port` 0 asks the OS for a free port).
    ///
    /// # Errors
    ///
    /// Returns the bind error (e.g. the port is taken).
    pub fn bind(port: u16) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, port))?;
        Ok(HttpServer { listener })
    }

    /// The address the server is listening on.
    ///
    /// # Errors
    ///
    /// Returns the underlying socket error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves requests on a background thread; the returned handle stops
    /// the server when dropped.
    ///
    /// # Errors
    ///
    /// Returns the socket error if the local address cannot be read.
    pub fn spawn(self, handler: Handler) -> std::io::Result<HttpServerHandle> {
        self.spawn_named(handler, "tomo-http")
    }

    /// [`Self::spawn`] with an explicit thread name.
    ///
    /// # Errors
    ///
    /// Returns the socket error if the local address cannot be read, or
    /// the spawn error.
    pub fn spawn_named(self, handler: Handler, name: &str) -> std::io::Result<HttpServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let listener = self.listener;
        let connection_name = format!("{name}-conn");
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                let slots = Slots::default();
                // The scope joins every connection thread before the
                // accept thread exits.
                std::thread::scope(|scope| {
                    let serve = |stream: TcpStream| {
                        let slot = slots.acquire();
                        let handler = &handler;
                        // A failed spawn drops the closure, which frees
                        // the slot and closes the connection.
                        let _ = std::thread::Builder::new()
                            .name(connection_name.clone())
                            .spawn_scoped(scope, move || {
                                let _slot = slot;
                                let _ = handle_connection(stream, handler);
                            });
                    };
                    while !stop_flag.load(Ordering::Acquire) {
                        match listener.accept() {
                            // Serve every accepted connection, even one
                            // that raced the stop flag: the shutdown
                            // self-connect closes instantly (EOF, no
                            // response written), while a real request
                            // gets its answer.
                            Ok((stream, _)) => serve(stream),
                            Err(_) => break,
                        }
                    }
                    // Drain the listen backlog before exiting:
                    // connections the OS accepted on our behalf while we
                    // were busy must be served, not reset. Nonblocking
                    // accept empties the queue and WouldBlock marks the
                    // true end.
                    if listener.set_nonblocking(true).is_ok() {
                        while let Ok((stream, _)) = listener.accept() {
                            let _ = stream.set_nonblocking(false);
                            serve(stream);
                        }
                    }
                });
            })?;
        Ok(HttpServerHandle {
            addr,
            stop,
            thread: Some(thread),
        })
    }
}

/// The connections being served, at most [`MAX_CONNECTIONS`].
#[derive(Default)]
struct Slots {
    busy: Mutex<usize>,
    freed: Condvar,
}

impl Slots {
    /// Takes a slot, waiting while all [`MAX_CONNECTIONS`] are busy.
    fn acquire(&self) -> Slot<'_> {
        let mut busy = self.busy.lock().unwrap_or_else(PoisonError::into_inner);
        while *busy >= MAX_CONNECTIONS {
            busy = self
                .freed
                .wait(busy)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *busy += 1;
        Slot(self)
    }
}

/// One taken slot, freed on drop (also when its handler panics).
struct Slot<'a>(&'a Slots);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        *self.0.busy.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
        self.0.freed.notify_one();
    }
}

impl HttpServerHandle {
    /// The address the background server is listening on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server, drains pending connections, and joins its
    /// accept thread and every connection thread (idempotent).
    pub fn shutdown(&mut self) {
        if self.thread.is_none() {
            return;
        }
        self.stop.store(true, Ordering::Release);
        // The accept loop blocks in `accept`; a throwaway self-connect
        // wakes it so it can observe the stop flag and drain.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for HttpServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The Prometheus scrape handler: `GET /metrics` renders the global
/// registry, `GET /healthz` answers liveness probes, any other path is
/// 404 and any other method 405.
#[must_use]
pub fn metrics_handler() -> Handler {
    Arc::new(|req: &HttpRequest| {
        if req.method != "GET" {
            return HttpResponse::method_not_allowed();
        }
        match req.target.as_str() {
            "/metrics" => HttpResponse::ok(
                "text/plain; version=0.0.4; charset=utf-8",
                prometheus_text(&crate::snapshot()),
            ),
            "/healthz" => HttpResponse::ok("text/plain; charset=utf-8", "ok\n".to_string()),
            _ => HttpResponse::not_found(),
        }
    })
}

fn handle_connection(stream: TcpStream, handler: &Handler) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_write_timeout(Some(READ_TIMEOUT))?;
    let mut reader = BufReader::new(stream);

    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers; only Content-Length matters for the bodies we take.
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }

    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let raw_target = parts.next().unwrap_or("").to_string();
    let (target, query) = match raw_target.split_once('?') {
        Some((t, q)) => (t.to_string(), Some(q.to_string())),
        None => (raw_target, None),
    };

    let mut body = Vec::new();
    if content_length > 0 && content_length <= MAX_BODY_LEN {
        body.resize(content_length, 0);
        reader.read_exact(&mut body)?;
    }

    let mut stream = reader.into_inner();
    if method.is_empty() {
        // EOF before a request line (e.g. the shutdown wake): nothing to
        // answer.
        return Ok(());
    }
    let response = handler(&HttpRequest {
        method,
        target,
        query,
        body,
    });
    respond(&mut stream, &response)
}

fn respond(stream: &mut TcpStream, response: &HttpResponse) -> std::io::Result<()> {
    let mut header = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        response.content_type,
        response.body.len()
    );
    for (name, value) in &response.extra_headers {
        header.push_str(&format!("{name}: {value}\r\n"));
    }
    header.push_str("Connection: close\r\n\r\n");
    stream.write_all(header.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::sync::mpsc;
    use std::time::Instant;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        response
    }

    #[test]
    fn scrape_loop_serves_metrics_health_and_404() {
        crate::counter("http.test.scrapes").inc();
        let server = HttpServer::bind(0).expect("bind loopback");
        let mut handle = server.spawn(metrics_handler()).expect("spawn");
        let addr = handle.local_addr();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
        assert!(metrics.contains("text/plain; version=0.0.4"));
        assert!(metrics.contains("tomo_http_test_scrapes"));

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(health.ends_with("ok\n"));

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404 Not Found\r\n"));

        handle.shutdown();
    }

    #[test]
    fn non_get_method_is_rejected() {
        let server = HttpServer::bind(0).expect("bind loopback");
        let handle = server.spawn(metrics_handler()).expect("spawn");
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
    }

    #[test]
    fn content_length_matches_body() {
        crate::counter("http.test.length").inc();
        let server = HttpServer::bind(0).expect("bind loopback");
        let handle = server.spawn(metrics_handler()).expect("spawn");
        let response = get(handle.local_addr(), "/metrics");
        let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length header")
            .parse()
            .expect("numeric length");
        assert_eq!(length, body.len());
    }

    #[test]
    fn generic_handler_sees_method_target_query_and_body() {
        let server = HttpServer::bind(0).expect("bind loopback");
        let handler: Handler = Arc::new(|req: &HttpRequest| {
            HttpResponse::ok(
                "text/plain; charset=utf-8",
                format!(
                    "{} {} {} {}",
                    req.method,
                    req.target,
                    req.query.as_deref().unwrap_or("-"),
                    String::from_utf8_lossy(&req.body)
                ),
            )
        });
        let handle = server.spawn(handler).expect("spawn");
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
        write!(
            stream,
            "POST /echo?x=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello"
        )
        .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        assert!(response.ends_with("POST /echo x=1 hello"), "{response}");
    }

    #[test]
    fn unavailable_response_carries_retry_after() {
        let server = HttpServer::bind(0).expect("bind loopback");
        let handler: Handler =
            Arc::new(|_req: &HttpRequest| HttpResponse::unavailable("busy\n".to_string(), 3));
        let handle = server.spawn(handler).expect("spawn");
        let response = get(handle.local_addr(), "/anything");
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        assert!(response.contains("Retry-After: 3\r\n"), "{response}");
    }

    /// A client that connects and never sends a request holds one
    /// connection thread until the read deadline; every other client is
    /// served meanwhile. When connections were served one at a time,
    /// `/healthz` waited out the idle client's whole 2-s deadline.
    #[test]
    fn idle_connection_does_not_stall_other_clients() {
        let server = HttpServer::bind(0).expect("bind loopback");
        let mut handle = server.spawn(metrics_handler()).expect("spawn");
        let addr = handle.local_addr();
        // Connected first, so accepted first.
        let idle = TcpStream::connect(addr).expect("idle connect");

        let start = Instant::now();
        let health = get(addr, "/healthz");
        let elapsed = start.elapsed();
        assert!(health.ends_with("ok\n"), "{health}");
        assert!(
            elapsed < Duration::from_millis(250),
            "GET /healthz behind one idle connection took {elapsed:?}"
        );
        drop(idle);
        handle.shutdown();
    }

    /// With every slot held by a silent client, a new request waits in
    /// the backlog, and is served as soon as one of them hangs up.
    #[test]
    fn connections_past_the_cap_wait_for_a_free_slot() {
        let server = HttpServer::bind(0).expect("bind loopback");
        let mut handle = server.spawn(metrics_handler()).expect("spawn");
        let addr = handle.local_addr();
        // Connected first, so they take every slot before the request.
        let mut idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(addr).expect("idle connect"))
            .collect();

        let (tx, rx) = mpsc::channel();
        let client = std::thread::spawn(move || tx.send(get(addr, "/healthz")));
        assert!(
            rx.recv_timeout(Duration::from_millis(150)).is_err(),
            "a request past the cap was served while every slot was busy"
        );
        drop(idle.pop()); // EOF: that connection's thread frees its slot
        let health = rx
            .recv_timeout(Duration::from_secs(1))
            .expect("served once a slot freed, before any read deadline");
        assert!(health.ends_with("ok\n"), "{health}");
        client.join().expect("client").expect("send");
        drop(idle);
        handle.shutdown();
    }

    /// Regression test for the shutdown race: a connection accepted (or
    /// queued in the backlog) concurrently with `shutdown` must still be
    /// served, not silently dropped.
    ///
    /// The server thread is pinned inside `handle_connection` for a slow
    /// first client, guaranteeing the second client's connection and the
    /// shutdown self-connect both sit in the listen backlog when the
    /// stop flag is raised. Before the drain fix the loop exited without
    /// touching the backlog and the second client read an empty reply.
    #[test]
    fn shutdown_drains_concurrently_accepted_connections() {
        crate::counter("http.test.drain").inc();
        let server = HttpServer::bind(0).expect("bind loopback");
        let handle = server.spawn(metrics_handler()).expect("spawn");
        let addr = handle.local_addr();

        // Slow client: connect and hold the request back so the server
        // thread blocks reading it.
        let mut slow = TcpStream::connect(addr).expect("slow connect");
        std::thread::sleep(Duration::from_millis(50)); // let accept() run

        // Fast client: request already written, waiting in the backlog.
        let mut fast = TcpStream::connect(addr).expect("fast connect");
        write!(fast, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").expect("fast request");

        // Shut down while the server is still busy with the slow client.
        let mut handle = handle;
        let shutdown = std::thread::spawn(move || handle.shutdown());
        std::thread::sleep(Duration::from_millis(50));

        // Release the slow client; both must receive full responses.
        write!(slow, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").expect("slow request");
        let mut slow_response = String::new();
        slow.read_to_string(&mut slow_response).expect("slow read");
        assert!(slow_response.starts_with("HTTP/1.1 200"), "{slow_response}");

        let mut fast_response = String::new();
        fast.read_to_string(&mut fast_response).expect("fast read");
        assert!(
            fast_response.starts_with("HTTP/1.1 200"),
            "backlogged connection dropped during shutdown: {fast_response:?}"
        );
        shutdown.join().expect("shutdown join");
    }
}

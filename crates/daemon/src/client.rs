//! A small blocking client for the daemon protocol, used by the test
//! harness, the load generator and scripting.
//!
//! A request takes an idle connection from the client's pool, or opens a
//! new one, writes one canonical request line, and reads event lines until
//! the terminal one. Clones share one pool, and a connection carries one
//! request at a time, so the pool never holds more connections than the
//! client's peak number of requests in flight. A connection goes back to
//! the pool only after a clean terminal event: never after a timeout, a
//! connection-level `error` (`job: null`) or a `shutdown`. A pooled
//! connection that the daemon closed before any reply byte arrived is
//! replaced and the request sent once more, which is safe because a submit
//! is answered store-first and identical in-flight submits share one job.
//! Connections set `TCP_NODELAY`, and all socket reads are bounded by the
//! client's timeout — a wedged daemon produces an error, never a hung test.
//! Only a client's later requests gain from the pool: its first opens a
//! connection, and the daemon starts a thread for it.
//!
//! A `done` line's `result` is kept as the line's own text, not parsed into
//! a tree: the daemon writes canonical lines, so that text is the result's
//! canonical rendering.

use crate::proto::{Event, Request, StatusCounts};
use rackfabric_cmd::command::Command;
use rackfabric_sim::json::Reader;
use std::borrow::Cow;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One connection to the daemon, read through its buffer.
type Connection = BufReader<TcpStream>;

/// Blocking protocol client. Cheap to clone; clones share one pool of idle
/// connections.
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    idle: Arc<Mutex<Vec<Connection>>>,
}

/// The full account of one submitted job.
#[derive(Debug, Clone)]
pub struct SubmitReply {
    /// Job id assigned (or attached to) by the daemon.
    pub job: String,
    /// True when the store answered with zero executions.
    pub cached: bool,
    /// The result payload as one canonical JSON line — the byte string the
    /// determinism harness compares against the batch path.
    pub result_json: String,
    /// Every event line observed, verbatim, in order (diagnostics).
    pub events: Vec<String>,
}

impl Client {
    /// A client for the daemon at `addr` with a per-request timeout.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Client {
        Client {
            addr,
            timeout,
            idle: Arc::default(),
        }
    }

    fn connect(&self) -> io::Result<Connection> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        Ok(BufReader::new(stream))
    }

    /// Writes `request` on an idle connection, or a new one, and reads the
    /// first reply line into `line`. An idle connection that turns out to
    /// be closed before any reply byte arrives is replaced once.
    fn send(&self, request: &Request, line: &mut String) -> io::Result<Connection> {
        let mut text = request.canonical_json();
        text.push('\n');
        let pooled = self.idle.lock().expect("client pool lock").pop();
        if let Some(mut conn) = pooled {
            match exchange(&mut conn, &text, line) {
                Ok(()) => return Ok(conn),
                Err(e) if !(line.is_empty() && closed(&e)) => return Err(e),
                Err(_) => {}
            }
        }
        let mut conn = self.connect()?;
        exchange(&mut conn, &text, line)?;
        Ok(conn)
    }

    /// Returns a connection whose request ended cleanly to the pool.
    fn put_back(&self, conn: Connection) {
        // The daemon writes nothing past a terminal event; bytes after one
        // would answer no request.
        if conn.buffer().is_empty() {
            self.idle.lock().expect("client pool lock").push(conn);
        }
    }

    /// Submits `command` and blocks until its terminal event. Cancellation
    /// and failure come back as errors carrying the event's reason.
    pub fn submit(&self, tenant: &str, priority: i64, command: Command) -> io::Result<SubmitReply> {
        let request = Request::Submit {
            tenant: tenant.to_string(),
            priority,
            command,
        };
        let mut line = String::new();
        let mut conn = self.send(&request, &mut line)?;
        let mut events = Vec::new();
        let mut job = String::new();
        let (reply, reusable) = loop {
            let text = line.trim_end();
            events.push(text.to_string());
            // The `done` line is read in place, its result kept as text.
            if let Some(done) = read_done(text) {
                let reply = SubmitReply {
                    job: done.job.into_owned(),
                    cached: done.cached,
                    result_json: done.result.to_string(),
                    events,
                };
                break (Ok(reply), true);
            }
            let Some(event) = Event::from_line(text) else {
                return Err(bad_reply(text));
            };
            let reusable = ends_cleanly(&event);
            let error = match event {
                Event::Accepted { job: id } => {
                    job = id;
                    None
                }
                Event::Started { .. } => None,
                Event::Rejected { reason } => Some(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    format!("rejected: {reason}"),
                )),
                Event::Cancelled { .. } => Some(io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!("job {job} cancelled"),
                )),
                Event::Error { reason, .. } => {
                    Some(io::Error::other(format!("job {job} failed: {reason}")))
                }
                other => return Err(bad_reply(&other.canonical_json())),
            };
            if let Some(error) = error {
                break (Err(error), reusable);
            }
            read_event_line(&mut conn, &mut line)?;
        };
        if reusable {
            self.put_back(conn);
        }
        reply
    }

    /// Requests cancellation of `job`. `Ok(true)` when the daemon accepted
    /// it, `Ok(false)` for unknown/finished jobs.
    pub fn cancel(&self, job: &str) -> io::Result<bool> {
        match self.roundtrip(&Request::Cancel {
            job: job.to_string(),
        })? {
            Event::Cancelled { .. } => Ok(true),
            Event::Error { .. } => Ok(false),
            other => Err(bad_reply(&other.canonical_json())),
        }
    }

    /// Fetches the scheduler counters.
    pub fn status(&self) -> io::Result<StatusCounts> {
        match self.roundtrip(&Request::Status)? {
            Event::Status(counts) => Ok(counts),
            other => Err(bad_reply(&other.canonical_json())),
        }
    }

    /// Asks the daemon to drain and stop. The connection that carried the
    /// request is closed, not pooled.
    pub fn shutdown(&self) -> io::Result<()> {
        match self.roundtrip(&Request::Shutdown)? {
            Event::ShuttingDown => Ok(()),
            other => Err(bad_reply(&other.canonical_json())),
        }
    }

    /// One request, one event line back.
    fn roundtrip(&self, request: &Request) -> io::Result<Event> {
        let mut line = String::new();
        let conn = self.send(request, &mut line)?;
        let text = line.trim_end();
        let event = Event::from_line(text).ok_or_else(|| bad_reply(text))?;
        if ends_cleanly(&event) {
            self.put_back(conn);
        }
        Ok(event)
    }
}

/// Writes one request line on `conn` and reads the first reply line.
fn exchange(conn: &mut Connection, request: &str, line: &mut String) -> io::Result<()> {
    conn.get_ref().write_all(request.as_bytes())?;
    read_event_line(conn, line)
}

/// Reads one event line into `line`; the end of the stream is an error.
fn read_event_line(conn: &mut Connection, line: &mut String) -> io::Result<()> {
    line.clear();
    if conn.read_line(line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a terminal event",
        ));
    }
    Ok(())
}

/// Whether `e` says the peer had closed the connection.
fn closed(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

/// Whether `event` ends its request with the connection fit for another:
/// a terminal event that names no failure of the connection itself. An
/// `error` without a job answers a line the daemon could not take as a
/// request, and after an over-long one it closes the connection; after
/// `shutting-down` the daemon stops.
fn ends_cleanly(event: &Event) -> bool {
    match event {
        Event::Done { .. }
        | Event::Rejected { .. }
        | Event::Cancelled { .. }
        | Event::Status(_) => true,
        Event::Error { job, .. } => job.is_some(),
        Event::Accepted { .. } | Event::Started { .. } | Event::ShuttingDown => false,
    }
}

fn bad_reply(line: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected daemon reply: {line}"),
    )
}

/// A `done` event read in place.
struct Done<'a> {
    job: Cow<'a, str>,
    cached: bool,
    /// The `result` value's text as the line spells it.
    result: &'a str,
}

/// Reads `line` as a `done` event without building its result. `None`
/// when the line is another event, or a `done` event that lacks a field or
/// holds one of the wrong kind.
fn read_done(line: &str) -> Option<Done<'_>> {
    let mut r = Reader::new(line);
    r.begin_object().ok()?;
    let (mut done, mut job, mut cached, mut result) = (false, None, None, None);
    while let Some(name) = r.next_field().ok()? {
        match &*name {
            "event" => {
                if r.string().ok()? != "done" {
                    return None;
                }
                done = true;
            }
            "job" => job = Some(r.string().ok()?),
            "cached" => {
                cached = match r.raw().ok()? {
                    "true" => Some(true),
                    "false" => Some(false),
                    _ => return None,
                }
            }
            "result" => result = Some(r.raw().ok()?),
            _ => r.skip().ok()?,
        }
    }
    r.finish().ok()?;
    done.then_some(Done {
        job: job?,
        cached: cached?,
        result: result?,
    })
}

/// Extracts the canonical `result` line from a raw `done` event line —
/// what byte-for-byte comparisons against the batch path use. `None` when
/// the line is not a `done` event.
///
/// The daemon writes canonical lines, so the result's own text is already
/// its canonical rendering.
pub fn done_result_bytes(line: &str) -> Option<String> {
    read_done(line).map(|done| done.result.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::tests::example_events;
    use rackfabric_sim::json;
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::thread::JoinHandle;

    const TIMEOUT: Duration = Duration::from_secs(30);

    /// A stand-in daemon: `script` runs on its own thread against a fresh
    /// listener, and hands back the connections it keeps open so that they
    /// close only when the test joins it.
    fn scripted(
        script: impl FnOnce(&TcpListener) -> Vec<Connection> + Send + 'static,
    ) -> (Client, JoinHandle<Vec<Connection>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::new(listener.local_addr().unwrap(), TIMEOUT);
        (client, std::thread::spawn(move || script(&listener)))
    }

    /// Accepts the next connection.
    fn accept(listener: &TcpListener) -> Connection {
        BufReader::new(listener.accept().unwrap().0)
    }

    /// Reads one request line.
    fn request(conn: &mut Connection) -> Request {
        let mut line = String::new();
        conn.read_line(&mut line).unwrap();
        Request::from_line(&line).unwrap_or_else(|| panic!("not a request: {line:?}"))
    }

    /// Writes events as the daemon does: one canonical line each.
    fn reply(conn: &Connection, events: &[Event]) {
        for event in events {
            let line = event.canonical_json() + "\n";
            conn.get_ref().write_all(line.as_bytes()).unwrap();
        }
    }

    fn idle(client: &Client) -> usize {
        client.idle.lock().unwrap().len()
    }

    fn command() -> Command {
        Command::RunScenario {
            spec_json: "{\"seed\":3}".into(),
        }
    }

    fn status() -> Event {
        Event::Status(StatusCounts::default())
    }

    #[test]
    fn results_are_the_done_lines_own_canonical_text() {
        let done: Vec<Event> = example_events()
            .into_iter()
            .filter(|event| matches!(event, Event::Done { .. }))
            .collect();
        assert!(done.len() >= 2, "the fixtures hold done events");
        let script = done.clone();
        let (client, server) = scripted(move |listener| {
            let mut conn = accept(listener);
            for event in &script {
                let Event::Done { job, .. } = event else {
                    unreachable!()
                };
                assert!(matches!(request(&mut conn), Request::Submit { .. }));
                let accepted = Event::Accepted { job: job.clone() };
                let started = Event::Started { job: job.clone() };
                reply(&conn, &[accepted, started, event.clone()]);
            }
            vec![conn]
        });
        for event in &done {
            let Event::Done {
                job,
                cached,
                result,
            } = event
            else {
                unreachable!()
            };
            let reply = client.submit("t", 0, command()).unwrap();
            let canonical = json::canonical(result);
            assert_eq!(reply.result_json, canonical);
            assert_eq!((&reply.job, reply.cached), (job, *cached));
            assert_eq!(reply.events.last(), Some(&event.canonical_json()));
            assert_eq!(done_result_bytes(&event.canonical_json()), Some(canonical));
        }
        // Every submit went over the one connection the script accepted.
        assert_eq!(idle(&client), 1);
        server.join().unwrap();
        for event in example_events() {
            if !matches!(event, Event::Done { .. }) {
                assert_eq!(done_result_bytes(&event.canonical_json()), None);
            }
        }
    }

    #[test]
    fn a_pooled_connection_the_peer_closed_is_replaced_once() {
        let (closed_tx, closed_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let (client, server) = scripted(move |listener| {
            let mut first = accept(listener);
            assert_eq!(request(&mut first), Request::Status);
            reply(&first, &[status()]);
            drop(first);
            closed_tx.send(()).unwrap();
            // The replacement carries the same request.
            let mut second = accept(listener);
            assert_eq!(request(&mut second), Request::Status);
            reply(&second, &[status()]);
            drop(second);
            closed_tx.send(()).unwrap();
            // The next replacement closes too: the request fails, and no
            // third connection is tried.
            let mut third = accept(listener);
            assert_eq!(request(&mut third), Request::Status);
            drop(third);
            done_rx.recv().unwrap();
            listener.set_nonblocking(true).unwrap();
            let extra = listener.accept();
            assert!(extra.is_err(), "a second retry connected");
            Vec::new()
        });
        client.status().unwrap();
        assert_eq!(idle(&client), 1);
        closed_rx.recv().unwrap();
        client.status().expect("the closed connection is replaced");
        assert_eq!(idle(&client), 1, "the replacement is pooled");
        closed_rx.recv().unwrap();
        let err = client.status().expect_err("a closed replacement fails");
        assert!(closed(&err), "{err}");
        assert_eq!(idle(&client), 0);
        done_tx.send(()).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn a_timeout_a_connection_error_and_shutdown_pool_nothing() {
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let (client, server) = scripted(move |listener| {
            // A request the daemon never answers.
            let mut silent = accept(listener);
            request(&mut silent);
            // A line the daemon refuses, closing the connection.
            let mut refused = accept(listener);
            request(&mut refused);
            let error = Event::Error {
                job: None,
                reason: "request line too long".into(),
            };
            reply(&refused, &[error]);
            // A status, then a shutdown on the same connection.
            let mut last = accept(listener);
            assert_eq!(request(&mut last), Request::Status);
            reply(&last, &[status()]);
            assert_eq!(request(&mut last), Request::Shutdown);
            reply(&last, &[Event::ShuttingDown]);
            done_rx.recv().unwrap();
            vec![silent, refused, last]
        });
        let impatient = Client::new(client.addr, Duration::from_millis(200));
        let err = impatient.status().expect_err("nothing answers");
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "{err}"
        );
        assert_eq!(idle(&impatient), 0, "a timed-out request's connection");
        let err = client.submit("t", 0, command()).unwrap_err();
        assert!(err.to_string().contains("request line too long"), "{err}");
        assert_eq!(idle(&client), 0, "a connection-level error's connection");
        client.status().unwrap();
        assert_eq!(idle(&client), 1);
        client.shutdown().unwrap();
        assert_eq!(idle(&client), 0, "the shutdown's connection");
        done_tx.send(()).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn concurrent_requests_through_clones_use_their_own_connections() {
        let (client, server) = scripted(|listener| {
            // Neither request is answered before both have arrived, so
            // both are in flight at once.
            let mut conns = [accept(listener), accept(listener)];
            for conn in &mut conns {
                assert!(matches!(request(conn), Request::Submit { .. }));
            }
            for (n, conn) in conns.iter().enumerate() {
                let job = format!("j-{n}");
                let done = Event::Done {
                    job: job.clone(),
                    cached: true,
                    result: json::parse("{}").unwrap(),
                };
                reply(conn, &[Event::Accepted { job }, done]);
            }
            conns.into()
        });
        let submits: Vec<_> = (0..2)
            .map(|_| {
                let client = client.clone();
                std::thread::spawn(move || client.submit("t", 0, command()))
            })
            .collect();
        for submit in submits {
            submit.join().unwrap().unwrap();
        }
        assert_eq!(idle(&client), 2);
        server.join().unwrap();
    }
}

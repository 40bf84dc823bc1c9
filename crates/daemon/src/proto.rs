//! The wire protocol: line-delimited canonical JSON over a localhost TCP
//! connection.
//!
//! A connection carries requests one after another: the daemon answers a
//! request's events in full before it reads the next request line, so a
//! client may send its next request once it has read a terminal event.
//! Both ends set `TCP_NODELAY`, so a request's event lines never wait on a
//! delayed ACK.
//!
//! Every request and every event is one JSON object on one line, encoded
//! **canonically** (sorted keys, no whitespace) exactly like the journal's
//! records — `encode(decode(x)) == x` for every valid message, so two equal
//! responses are byte-equal lines. That property is what turns the daemon's
//! "warm queries return byte-identical answers" promise into something a
//! client can check with `==` on raw lines.
//!
//! Requests carry their operation in an `op` field; events carry theirs in
//! an `event` field. A [`Request::Submit`] embeds a full
//! [`Command`] value in its canonical structured form — the daemon speaks
//! the same instruction set as the batch CLI and the journal.

use rackfabric_cmd::command::Command;
use rackfabric_sim::json::{self, int, obj, string, uint, JsonValue};

/// One client request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit one [`Command`] for scheduling; the connection then streams
    /// the job's events until a terminal one.
    Submit {
        /// Tenant label (grouping + trace attribution; free-form).
        tenant: String,
        /// Scheduling priority: higher runs first, ties in arrival order.
        priority: i64,
        /// The operation, in the same form the journal records.
        command: Command,
    },
    /// Cancel a job by id. Queued jobs are dropped; an active campaign is
    /// interrupted at its next job boundary (completed jobs stay journaled
    /// and persisted — a clean prefix).
    Cancel {
        /// The job id from the `accepted` event.
        job: String,
    },
    /// Ask for scheduler counters.
    Status,
    /// Drain and stop the daemon.
    Shutdown,
}

impl Request {
    /// The request as one canonical JSON line (without the newline).
    pub fn canonical_json(&self) -> String {
        let value = match self {
            Request::Submit {
                tenant,
                priority,
                command,
            } => obj([
                ("command", command.to_value()),
                ("op", string("submit")),
                ("priority", int(*priority)),
                ("tenant", string(tenant)),
            ]),
            Request::Cancel { job } => obj([("job", string(job)), ("op", string("cancel"))]),
            Request::Status => obj([("op", string("status"))]),
            Request::Shutdown => obj([("op", string("shutdown"))]),
        };
        json::canonical(&value)
    }

    /// Decodes one request line, reading it in place: a submitted
    /// command's spec keeps its source text ([`Command::from_json`]), and
    /// no tree of it is built. `None` marks a malformed or unknown request
    /// (the server answers with an `error` event).
    pub fn from_line(line: &str) -> Option<Request> {
        let names = ["op", "tenant", "priority", "command", "job"];
        let [op, tenant, priority, command, job] = json::object_fields(line, names)?;
        let string = |raw: &str| match json::parse(raw).ok()? {
            JsonValue::String(text) => Some(text),
            _ => None,
        };
        match string(op?)?.as_str() {
            "submit" => Some(Request::Submit {
                tenant: string(tenant?)?,
                // A number's source text, as `JsonValue::as_i64` reads it.
                priority: priority?.parse().ok()?,
                command: Command::from_json(command?)?,
            }),
            "cancel" => Some(Request::Cancel { job: string(job?)? }),
            "status" => Some(Request::Status),
            "shutdown" => Some(Request::Shutdown),
            _ => None,
        }
    }
}

/// A `done` event's line (without the newline), with `write_result`
/// appending the result's canonical text: written around the result
/// instead of a copy of it, keys already in canonical order.
pub(crate) fn done_line(job: &str, cached: bool, write_result: impl FnOnce(&mut String)) -> String {
    let mut line = format!(
        "{{\"cached\":{cached},\"event\":\"done\",\"job\":\"{}\",\"result\":",
        json::escape(job)
    );
    write_result(&mut line);
    line.push('}');
    line
}

/// Scheduler counters reported by a `status` request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusCounts {
    /// Jobs waiting in the queue.
    pub queued: u64,
    /// Jobs currently on a worker.
    pub active: u64,
    /// Jobs that reached a terminal state (done, cancelled or failed).
    pub completed: u64,
    /// Completed jobs answered entirely from the store (zero executions).
    pub warm_hits: u64,
    /// Submissions refused by queue backpressure.
    pub rejected: u64,
    /// Jobs cancelled (queued drops + interrupted campaigns).
    pub cancelled: u64,
    /// Submissions that attached to an identical in-flight job instead of
    /// enqueuing a duplicate.
    pub dedup_attached: u64,
    /// Jobs the scheduler still holds: queued, active, or ended with a
    /// watcher yet to see the end. Zero on an idle daemon whose clients
    /// all have their replies; an id no longer held answers `cancel` as a
    /// finished job does.
    pub held: u64,
}

/// One server event line.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The submission was enqueued (or attached to an identical in-flight
    /// job) under this id.
    Accepted {
        /// Job id, unique within one daemon instance.
        job: String,
    },
    /// The submission was refused (backpressure or shutdown).
    Rejected {
        /// Why.
        reason: String,
    },
    /// The job started: a worker picked it up, or, for a submit the store
    /// answers, the connection thread found its result, and sends this
    /// line with `accepted` and `done` in one write. Every submit of a job
    /// that started gets this line before its terminal one, however soon
    /// the job ended; a job cancelled while queued gets none.
    Started {
        /// Job id.
        job: String,
    },
    /// The job finished. `result` is the operation's canonical payload —
    /// byte-identical to what the batch CLI produces for the same command.
    Done {
        /// Job id.
        job: String,
        /// True when the store answered without any engine execution.
        cached: bool,
        /// Canonical structured result payload.
        result: JsonValue,
    },
    /// The job was cancelled (dropped from the queue, or its campaign was
    /// interrupted at a job boundary).
    Cancelled {
        /// Job id.
        job: String,
    },
    /// The request or job failed.
    Error {
        /// Job id when the failure is tied to one.
        job: Option<String>,
        /// Why.
        reason: String,
    },
    /// Scheduler counters.
    Status(StatusCounts),
    /// The daemon acknowledged a shutdown request.
    ShuttingDown,
}

impl Event {
    /// The event as one canonical JSON line (without the newline).
    pub fn canonical_json(&self) -> String {
        let value = match self {
            Event::Accepted { job } => obj([("event", string("accepted")), ("job", string(job))]),
            Event::Rejected { reason } => {
                obj([("event", string("rejected")), ("reason", string(reason))])
            }
            Event::Started { job } => obj([("event", string("started")), ("job", string(job))]),
            Event::Done {
                job,
                cached,
                result,
            } => return done_line(job, *cached, |line| json::write_canonical(result, line)),
            Event::Cancelled { job } => obj([("event", string("cancelled")), ("job", string(job))]),
            Event::Error { job, reason } => obj([
                ("event", string("error")),
                (
                    "job",
                    match job {
                        None => JsonValue::Null,
                        Some(id) => string(id),
                    },
                ),
                ("reason", string(reason)),
            ]),
            Event::Status(counts) => obj([
                ("active", uint(counts.active)),
                ("cancelled", uint(counts.cancelled)),
                ("completed", uint(counts.completed)),
                ("dedup_attached", uint(counts.dedup_attached)),
                ("event", string("status")),
                ("held", uint(counts.held)),
                ("queued", uint(counts.queued)),
                ("rejected", uint(counts.rejected)),
                ("warm_hits", uint(counts.warm_hits)),
            ]),
            Event::ShuttingDown => obj([("event", string("shutting-down"))]),
        };
        json::canonical(&value)
    }

    /// Decodes one event line. `None` marks a malformed or unknown event.
    pub fn from_line(line: &str) -> Option<Event> {
        let value = json::parse(line).ok()?;
        match value.get("event")?.as_str()? {
            "accepted" => Some(Event::Accepted {
                job: value.get("job")?.as_str()?.to_string(),
            }),
            "rejected" => Some(Event::Rejected {
                reason: value.get("reason")?.as_str()?.to_string(),
            }),
            "started" => Some(Event::Started {
                job: value.get("job")?.as_str()?.to_string(),
            }),
            "done" => {
                let job = value.get("job")?.as_str()?.to_string();
                let cached = value.get("cached")?.as_bool()?;
                let JsonValue::Object(fields) = value else {
                    return None;
                };
                let (_, result) = fields.into_iter().find(|(key, _)| key == "result")?;
                Some(Event::Done {
                    job,
                    cached,
                    result,
                })
            }
            "cancelled" => Some(Event::Cancelled {
                job: value.get("job")?.as_str()?.to_string(),
            }),
            "error" => Some(Event::Error {
                job: match value.get("job")? {
                    JsonValue::Null => None,
                    id => Some(id.as_str()?.to_string()),
                },
                reason: value.get("reason")?.as_str()?.to_string(),
            }),
            "status" => Some(Event::Status(StatusCounts {
                queued: value.get("queued")?.as_u64()?,
                active: value.get("active")?.as_u64()?,
                completed: value.get("completed")?.as_u64()?,
                warm_hits: value.get("warm_hits")?.as_u64()?,
                rejected: value.get("rejected")?.as_u64()?,
                cancelled: value.get("cancelled")?.as_u64()?,
                dedup_attached: value.get("dedup_attached")?.as_u64()?,
                held: value.get("held")?.as_u64()?,
            })),
            "shutting-down" => Some(Event::ShuttingDown),
            _ => None,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_canonically() {
        let examples = vec![
            Request::Submit {
                tenant: "tenant-a".into(),
                priority: 7,
                command: Command::RunScenario {
                    spec_json: "{\"seed\":3}".into(),
                },
            },
            Request::Cancel { job: "j-42".into() },
            Request::Status,
            Request::Shutdown,
        ];
        for req in examples {
            let line = req.canonical_json();
            let back = Request::from_line(&line).unwrap();
            assert_eq!(back, req);
            assert_eq!(back.canonical_json(), line, "canonical = idempotent");
        }
    }

    /// The request decoder before it read lines in place: parse the line,
    /// then read the tree.
    fn request_from_tree(line: &str) -> Option<Request> {
        let value = json::parse(line).ok()?;
        match value.get("op")?.as_str()? {
            "submit" => Some(Request::Submit {
                tenant: value.get("tenant")?.as_str()?.to_string(),
                priority: value.get("priority")?.as_i64()?,
                command: Command::from_value(value.get("command")?)?,
            }),
            "cancel" => Some(Request::Cancel {
                job: value.get("job")?.as_str()?.to_string(),
            }),
            "status" => Some(Request::Status),
            "shutdown" => Some(Request::Shutdown),
            _ => None,
        }
    }

    #[test]
    fn request_lines_read_in_place_decode_as_their_trees_do() {
        let spec = "{\"b\": 1, \"a\": [2, {\"c\": null}]}";
        let lines = [
            format!("{{\"tenant\":\"t\", \"op\":\"submit\",\"priority\": -3, \"command\": {{\"op\":\"run-scenario\",\"spec\":{spec}}}}}"),
            format!("{{\"op\":\"submit\",\"op\":\"status\",\"tenant\":\"t\",\"priority\":0,\"command\":{{\"key\":\"a1\",\"op\":\"execute-cell\",\"spec\":{spec}}}}}"),
            "{\"op\":\"submit\",\"tenant\":\"t\",\"priority\":\"5\",\"command\":{\"op\":\"gc-store\",\"live\":[]}}".into(),
            "{\"op\":\"submit\",\"tenant\":\"t\",\"priority\":1.5,\"command\":{\"op\":\"gc-store\",\"live\":[]}}".into(),
            "{\"op\":\"submit\",\"tenant\":7,\"priority\":1,\"command\":{\"op\":\"gc-store\",\"live\":[]}}".into(),
            "{\"op\":\"submit\",\"tenant\":\"t\",\"priority\":1,\"command\":{\"op\":\"gc-store\",\"live\":[]},\"x\":[]}".into(),
            "{\"job\":\"j-\\u0031\",\"op\":\"cancel\",\"job\":5}".into(),
            "{\"job\":5,\"op\":\"cancel\"}".into(),
            "{\"op\":\"status\",\"op\":5}".into(),
            "{\"op\":5,\"op\":\"status\"}".into(),
            "{\"op\":\"shutdown\"} {}".into(),
            "[\"status\"]".into(),
        ];
        for line in &lines {
            let got = Request::from_line(line).map(|request| match request {
                Request::Submit {
                    tenant,
                    priority,
                    command,
                } => Request::Submit {
                    tenant,
                    priority,
                    // The spec keeps its source text; the tree decoder
                    // rendered it canonically.
                    command: Command::from_value(&json::parse(&command.canonical_json()).unwrap())
                        .unwrap(),
                },
                other => other,
            });
            assert_eq!(got, request_from_tree(line), "{line}");
        }
    }

    /// One event of each kind, with escaped job ids, nested results and
    /// control characters among the `done` events.
    pub(crate) fn example_events() -> Vec<Event> {
        vec![
            Event::Accepted { job: "j-1".into() },
            Event::Rejected {
                reason: "queue full".into(),
            },
            Event::Started { job: "j-1".into() },
            Event::Done {
                job: "j-1".into(),
                cached: true,
                result: json::parse("{\"failed\":\"x\"}").unwrap(),
            },
            Event::Done {
                job: "j-\"3\"\n".into(),
                cached: false,
                result: json::parse("{\"a\":\"\\u0001\",\"z\":[1,{\"a\":null,\"b\":2}]}").unwrap(),
            },
            Event::Cancelled { job: "j-1".into() },
            Event::Error {
                job: None,
                reason: "malformed request".into(),
            },
            Event::Error {
                job: Some("j-2".into()),
                reason: "boom".into(),
            },
            Event::Status(StatusCounts {
                queued: 1,
                active: 2,
                completed: 3,
                warm_hits: 4,
                rejected: 5,
                cancelled: 6,
                dedup_attached: 7,
                held: 8,
            }),
            Event::ShuttingDown,
        ]
    }

    #[test]
    fn events_round_trip_canonically() {
        for event in example_events() {
            let line = event.canonical_json();
            let parsed = json::parse(&line).unwrap();
            assert_eq!(json::canonical(&parsed), line, "the line is canonical");
            let back = Event::from_line(&line).unwrap();
            assert_eq!(back, event);
            assert_eq!(back.canonical_json(), line);
        }
    }

    #[test]
    fn malformed_lines_decode_to_none() {
        for bad in [
            "",
            "not json",
            "{\"op\":\"fly\"}",
            "{\"event\":\"warp\"}",
            "{\"op\":\"submit\",\"tenant\":\"t\"}",
        ] {
            assert!(Request::from_line(bad).is_none(), "accepted {bad:?}");
            assert!(Event::from_line(bad).is_none(), "accepted {bad:?}");
        }
    }
}

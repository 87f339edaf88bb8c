//! A synchronous client for the `hsyn serve` protocol.
//!
//! One [`Client`] owns one TCP connection and issues requests serially,
//! matching responses by `seq`. The daemon may interleave results from
//! *other* connections' jobs onto *their* sockets, never onto this one, so
//! a serial client can simply read the next frame — but [`Client::submit`]
//! still checks the echoed `seq` defensively.

use std::io;
use std::net::TcpStream;
use std::time::Duration;

use hsyn_util::{read_frame, write_frame, FrameError, Json, MAX_FRAME};

use crate::proto::JobSpec;

/// Errors a client call can produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// The transport failed (connect, framing, truncation, disconnect).
    Frame(FrameError),
    /// The daemon answered, but with something the client cannot use.
    Protocol(String),
    /// The daemon answered with a structured error response.
    Server {
        /// Machine-readable error kind (`bad_request`, `deadline`,
        /// `cancelled`, `queue_full`, `draining`, `synthesis`, `internal`, ...).
        kind: String,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { kind, message } => write!(f, "server error [{kind}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Frame(FrameError::Io(e.to_string()))
    }
}

/// A completed job as seen by the client.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The canonical deterministic report — the bytes the differential
    /// suite compares against single-shot CLI runs.
    pub result_json: String,
    /// Generated Verilog, when the job asked for it.
    pub verilog: Option<String>,
    /// Whether the daemon answered from its content-addressed job cache.
    pub cached: bool,
    /// Daemon-side execution wall-clock, milliseconds.
    pub wall_ms: f64,
    /// Time the job spent queued before a worker picked it up, ms.
    pub queue_ms: f64,
}

/// A synchronous `hsyn serve` client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    seq: f64,
    max_frame: usize,
}

impl Client {
    /// Connect to a daemon at `addr` (e.g. `127.0.0.1:7317`).
    ///
    /// # Errors
    ///
    /// Connection failures, as [`ClientError::Frame`].
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            seq: 0.0,
            max_frame: MAX_FRAME,
        })
    }

    /// Set a read timeout for responses; `None` blocks indefinitely.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    fn next_seq(&mut self) -> f64 {
        self.seq += 1.0;
        self.seq
    }

    fn roundtrip(&mut self, body: &Json) -> Result<Json, ClientError> {
        write_frame(&mut self.stream, body.to_string_pretty().as_bytes())?;
        let payload = read_frame(&mut self.stream, self.max_frame)?;
        let text = std::str::from_utf8(&payload)
            .map_err(|_| ClientError::Protocol("response is not UTF-8".to_owned()))?;
        let v = Json::parse(text)
            .map_err(|e| ClientError::Protocol(format!("response is not JSON: {e}")))?;
        if v.get("type").and_then(Json::as_str) == Some("error") {
            return Err(ClientError::Server {
                kind: v
                    .get("kind")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_owned(),
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
            });
        }
        Ok(v)
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let seq = self.next_seq();
        let v = self.roundtrip(&Json::Obj(vec![
            ("type".to_owned(), Json::Str("ping".to_owned())),
            ("seq".to_owned(), Json::Num(seq)),
        ]))?;
        if v.get("type").and_then(Json::as_str) == Some("pong") {
            Ok(())
        } else {
            Err(ClientError::Protocol("expected pong".to_owned()))
        }
    }

    /// Submit one job and block until its result (or error) arrives.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with kinds like `deadline`, `cancelled`,
    /// `queue_full`, or `synthesis`; transport failures as
    /// [`ClientError::Frame`].
    pub fn submit(&mut self, job: &JobSpec) -> Result<JobResult, ClientError> {
        let seq = self.next_seq();
        let v = self.roundtrip(&Json::Obj(vec![
            ("type".to_owned(), Json::Str("submit".to_owned())),
            ("seq".to_owned(), Json::Num(seq)),
            ("job".to_owned(), job.to_json()),
        ]))?;
        if v.get("type").and_then(Json::as_str) != Some("result") {
            return Err(ClientError::Protocol(format!(
                "expected a result, got type {:?}",
                v.get("type").and_then(Json::as_str)
            )));
        }
        if v.get("seq").and_then(Json::as_f64) != Some(seq) {
            return Err(ClientError::Protocol("result seq mismatch".to_owned()));
        }
        let result_json = v
            .get("result_json")
            .and_then(Json::as_str)
            .ok_or_else(|| ClientError::Protocol("result lacks result_json".to_owned()))?
            .to_owned();
        Ok(JobResult {
            result_json,
            verilog: v.get("verilog").and_then(Json::as_str).map(str::to_owned),
            cached: matches!(v.get("cached"), Some(Json::Bool(true))),
            wall_ms: v.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
            queue_ms: v.get("queue_ms").and_then(Json::as_f64).unwrap_or(0.0),
        })
    }

    /// Fetch daemon telemetry as raw JSON.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        let seq = self.next_seq();
        let v = self.roundtrip(&Json::Obj(vec![
            ("type".to_owned(), Json::Str("stats".to_owned())),
            ("seq".to_owned(), Json::Num(seq)),
        ]))?;
        if v.get("type").and_then(Json::as_str) == Some("stats") {
            Ok(v)
        } else {
            Err(ClientError::Protocol("expected stats".to_owned()))
        }
    }

    /// Cancel every queued or running job carrying `tag`. Returns how many
    /// live tokens were tripped.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn cancel(&mut self, tag: &str) -> Result<u64, ClientError> {
        let seq = self.next_seq();
        let v = self.roundtrip(&Json::Obj(vec![
            ("type".to_owned(), Json::Str("cancel".to_owned())),
            ("seq".to_owned(), Json::Num(seq)),
            ("tag".to_owned(), Json::Str(tag.to_owned())),
        ]))?;
        if v.get("type").and_then(Json::as_str) != Some("cancel_ack") {
            return Err(ClientError::Protocol("expected cancel_ack".to_owned()));
        }
        Ok(v.get("cancelled").and_then(Json::as_f64).unwrap_or(0.0) as u64)
    }

    /// Ask the daemon to drain and exit. Blocks until every pending job
    /// has finished and the ack arrives. Returns the daemon's lifetime
    /// jobs-served count.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn shutdown(&mut self) -> Result<u64, ClientError> {
        let seq = self.next_seq();
        let v = self.roundtrip(&Json::Obj(vec![
            ("type".to_owned(), Json::Str("shutdown".to_owned())),
            ("seq".to_owned(), Json::Num(seq)),
        ]))?;
        if v.get("type").and_then(Json::as_str) != Some("shutdown_ack") {
            return Err(ClientError::Protocol("expected shutdown_ack".to_owned()));
        }
        Ok(v.get("jobs_served").and_then(Json::as_f64).unwrap_or(0.0) as u64)
    }
}

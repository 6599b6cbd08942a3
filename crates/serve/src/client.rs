//! A minimal blocking client for the sweep service.
//!
//! One request = one connection: connect, send a single JSON line,
//! read a single JSON line back. The server keeps connections open for
//! pipelining, but the one-shot shape is all the CLI and the tests
//! need, and it makes client failure modes trivial (any error is
//! surfaced as an `Err(String)` with the transport or server message).

use crate::spec::JobSpec;
use spb_stats::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Sends one raw request line and returns the parsed reply.
///
/// # Errors
///
/// Transport errors, malformed replies, and server-side rejections
/// (`{"ok": false, …}`) all come back as `Err` with the reason.
pub fn request(addr: &str, line: &Json) -> Result<Json, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut text = line.to_string();
    debug_assert!(!text.contains('\n'), "requests are one line");
    text.push('\n');
    stream
        .write_all(text.as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| format!("receive: {e}"))?;
    if reply.trim().is_empty() {
        return Err("server closed the connection without replying".into());
    }
    let parsed = Json::parse(reply.trim()).map_err(|e| format!("bad reply: {e}"))?;
    match parsed.get("ok") {
        Some(Json::Bool(true)) => Ok(parsed),
        Some(Json::Bool(false)) => Err(parsed
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("server rejected the request")
            .to_string()),
        _ => Err(format!("reply missing ok field: {parsed}")),
    }
}

/// Submits a sweep job and blocks until its report. The reply carries
/// `report` (checksummed `SweepReport` JSON) and `stats` (`cache_hits`,
/// `computed`, `retries`, `failed` for this job).
///
/// # Errors
///
/// See [`request`]; notably `overloaded: …` when the server shed the
/// job.
pub fn submit(addr: &str, job: &JobSpec) -> Result<Json, String> {
    request(
        addr,
        &Json::obj([("type", Json::str("sweep")), ("job", job.to_json())]),
    )
}

/// Fetches the health/stats snapshot (`queue_depth` plus the service
/// counters).
///
/// # Errors
///
/// See [`request`].
pub fn health(addr: &str) -> Result<Json, String> {
    request(addr, &Json::obj([("type", Json::str("health"))]))
}

/// Asks the server to shut down gracefully.
///
/// # Errors
///
/// See [`request`].
pub fn shutdown(addr: &str) -> Result<Json, String> {
    request(addr, &Json::obj([("type", Json::str("shutdown"))]))
}

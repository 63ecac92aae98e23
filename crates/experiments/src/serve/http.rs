//! Minimal hand-rolled HTTP/1.1 plumbing for both daemons: the one
//! request parser ([`try_parse_request`], fed by the reactor's buffers),
//! the handler's [`Outcome`], response rendering, and the route table
//! mapping paths onto session operations. No external HTTP crate — the
//! daemons speak just enough HTTP for `curl` and the integration tests,
//! exactly like the rest of the workspace hand-rolls its JSON.

use flexserve_workload::JsonValue;

use super::sessions::DEFAULT_SESSION;

/// One parsed HTTP request: the request line, the body, and whether the
/// client wants the connection kept open afterwards (only the
/// `Content-Length` and `Connection` headers matter).
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct HttpRequest {
    pub method: String,
    pub path: String,
    pub body: String,
    /// `Connection: keep-alive` semantics: the HTTP/1.1 default unless
    /// the client sends `Connection: close` (HTTP/1.0 defaults to close
    /// unless it asks for `keep-alive`).
    pub keep_alive: bool,
}

/// A handler's answer to one request: the status and JSON body, and
/// whether the daemon should begin shutting down once the response is
/// on the wire. Whether the connection survives is the front end's call.
pub(crate) struct Outcome {
    pub(crate) status: u16,
    pub(crate) body: String,
    pub(crate) shutdown: bool,
}

impl Outcome {
    /// An ordinary response.
    pub(crate) fn reply(status: u16, body: String) -> Self {
        Outcome {
            status,
            body,
            shutdown: false,
        }
    }

    /// The `POST /shutdown` answer: `{"ok":true}`, then the daemon drains.
    pub(crate) fn shutdown() -> Self {
        Outcome {
            status: 200,
            body: JsonValue::Obj(vec![("ok".into(), JsonValue::Bool(true))]).render(),
            shutdown: true,
        }
    }
}

/// The `{"error": "<message>"}` body every error response carries.
pub(crate) fn error_json(message: &str) -> String {
    JsonValue::Obj(vec![("error".into(), JsonValue::from(message))]).render()
}

/// Per-line cap on the request line and each header line.
const MAX_HEADER_LINE: usize = 8 * 1024;
/// Cap on the whole header block, request line included.
const MAX_HEADER_BYTES: usize = 32 * 1024;
/// Cap on a declared request body: a daemon on loopback still shouldn't
/// let one request balloon the process.
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Why reading a request off the wire failed; each variant maps onto the
/// HTTP status the daemon answers with before closing the connection.
#[derive(Debug)]
pub(crate) enum HttpError {
    /// The connection stalled mid-request — bytes were received, then the
    /// request timeout expired (408).
    Timeout,
    /// A header line, the header block, or the declared body exceeds its
    /// cap (413).
    TooLarge(String),
    /// Any other framing error (400).
    Malformed(String),
}

impl HttpError {
    /// The HTTP status this error is reported as.
    pub(crate) fn status(&self) -> u16 {
        match self {
            HttpError::Timeout => 408,
            HttpError::TooLarge(_) => 413,
            HttpError::Malformed(_) => 400,
        }
    }

    /// The error body text.
    pub(crate) fn message(&self) -> String {
        match self {
            HttpError::Timeout => "request timed out mid-read".into(),
            HttpError::TooLarge(m) | HttpError::Malformed(m) => m.clone(),
        }
    }
}

/// Finds the next `\n` at or after `from`.
fn find_nl(buf: &[u8], from: usize) -> Option<usize> {
    buf[from..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| from + i)
}

/// Parses one request out of a reactor's accumulated byte buffer.
/// Returns `Ok(None)` while the buffer holds only a request prefix,
/// `Ok(Some((request, consumed)))` once a whole request (headers + body)
/// is present — `consumed` bytes belong to it and any remainder is the
/// next pipelined request — and `Err` once the bytes so far can never
/// frame a request. Every cap fires as soon as enough bytes have
/// arrived to cross it: header lines at [`MAX_HEADER_LINE`], the header
/// block at [`MAX_HEADER_BYTES`], a declared body at [`MAX_BODY_BYTES`]
/// (before any of it is buffered). The property suite below pins that
/// the answer never depends on where the buffer was cut.
pub(crate) fn try_parse_request(buf: &[u8]) -> Result<Option<(HttpRequest, usize)>, HttpError> {
    let line_too_large = || {
        HttpError::TooLarge(format!(
            "header line exceeds the {MAX_HEADER_LINE}-byte cap"
        ))
    };
    // request line
    let nl = match find_nl(buf, 0) {
        Some(i) => i,
        None => {
            // more than a full line's worth of bytes with no terminator
            // can never become a valid request line
            if buf.len() > MAX_HEADER_LINE {
                return Err(line_too_large());
            }
            return Ok(None);
        }
    };
    if nl + 1 > MAX_HEADER_LINE {
        return Err(line_too_large());
    }
    let line = std::str::from_utf8(&buf[..nl])
        .map_err(|_| HttpError::Malformed("request line is not UTF-8".into()))?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line has no path".into()))?
        .to_string();
    let mut keep_alive = parts.next() != Some("HTTP/1.0");

    let mut header_bytes = nl + 1;
    let mut content_length = 0usize;
    let mut pos = nl + 1;
    loop {
        let hnl = match find_nl(buf, pos) {
            Some(i) => i,
            None => {
                if buf.len() - pos > MAX_HEADER_LINE {
                    return Err(line_too_large());
                }
                return Ok(None); // header block still arriving
            }
        };
        if hnl + 1 - pos > MAX_HEADER_LINE {
            return Err(line_too_large());
        }
        let header = std::str::from_utf8(&buf[pos..hnl])
            .map_err(|_| HttpError::Malformed("header is not UTF-8".into()))?;
        let line_len = hnl + 1 - pos;
        pos = hnl + 1;
        if header.trim().is_empty() {
            break; // a blank line ends the headers (and is not counted)
        }
        header_bytes += line_len;
        if header_bytes > MAX_HEADER_BYTES {
            return Err(HttpError::TooLarge(format!(
                "header block exceeds the {MAX_HEADER_BYTES}-byte cap"
            )));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::Malformed(format!("bad Content-Length {value:?}")))?;
            } else if name.eq_ignore_ascii_case("connection") {
                let value = value.trim();
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes exceeds the 16 MiB cap"
        )));
    }
    if buf.len() - pos < content_length {
        return Ok(None); // body still arriving
    }
    let body = std::str::from_utf8(&buf[pos..pos + content_length])
        .map_err(|_| HttpError::Malformed("body is not UTF-8".into()))?
        .to_string();
    Ok(Some((
        HttpRequest {
            method,
            path,
            body,
            keep_alive,
        },
        pos + content_length,
    )))
}

/// The reason phrase for the status codes the daemon emits.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        502 => "Bad Gateway",
        _ => "Internal Server Error",
    }
}

/// Renders a full JSON response to bytes. With `keep_alive` the
/// connection stays open for the next request (`Connection:
/// keep-alive`); without it the exchange is closed (`Connection:
/// close`). Bodies always carry an exact `Content-Length`, so persistent
/// connections stay framed.
pub(crate) fn render_response(status: u16, body: &str, keep_alive: bool) -> Vec<u8> {
    let mut body = body.to_string();
    if !body.ends_with('\n') {
        body.push('\n');
    }
    format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    )
    .into_bytes()
}

/// A resolved endpoint. The legacy single-session paths (`/step`,
/// `/placement`, `/metrics`, `/checkpoint`) are aliases for the same
/// operations on the session named [`DEFAULT_SESSION`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// `POST /sessions` — create a session from a JSON body.
    CreateSession,
    /// `GET /sessions` — list live sessions.
    ListSessions,
    /// `POST /sessions/<name>/step` (alias `POST /step`).
    Step(String),
    /// `GET /sessions/<name>/placement` (alias `GET /placement`).
    Placement(String),
    /// `GET /sessions/<name>/metrics` (alias `GET /metrics`).
    Metrics(String),
    /// `POST /sessions/<name>/checkpoint` (alias `POST /checkpoint`).
    Checkpoint(String),
    /// `POST /sessions/<name>/events` — append substrate events to the
    /// session's live schedule (no legacy alias; fault injection is a
    /// deliberate, session-scoped act).
    Events(String),
    /// `DELETE /sessions/<name>` — stop and evict a session.
    DeleteSession(String),
    /// `POST /shutdown` — stop the whole daemon.
    Shutdown,
}

/// Maps `(method, path)` onto a [`Route`]; `None` is a 404.
pub(crate) fn route(method: &str, path: &str) -> Option<Route> {
    let legacy = || DEFAULT_SESSION.to_string();
    match (method, path) {
        ("POST", "/sessions") => return Some(Route::CreateSession),
        ("GET", "/sessions") => return Some(Route::ListSessions),
        ("POST", "/step") => return Some(Route::Step(legacy())),
        ("GET", "/placement") => return Some(Route::Placement(legacy())),
        ("GET", "/metrics") => return Some(Route::Metrics(legacy())),
        ("POST", "/checkpoint") => return Some(Route::Checkpoint(legacy())),
        ("POST", "/shutdown") => return Some(Route::Shutdown),
        _ => {}
    }
    let rest = path.strip_prefix("/sessions/")?;
    match rest.split_once('/') {
        None => {
            (method == "DELETE" && !rest.is_empty()).then(|| Route::DeleteSession(rest.to_string()))
        }
        Some((name, action)) if !name.is_empty() => match (method, action) {
            ("POST", "step") => Some(Route::Step(name.to_string())),
            ("GET", "placement") => Some(Route::Placement(name.to_string())),
            ("GET", "metrics") => Some(Route::Metrics(name.to_string())),
            ("POST", "checkpoint") => Some(Route::Checkpoint(name.to_string())),
            ("POST", "events") => Some(Route::Events(name.to_string())),
            _ => None,
        },
        Some(_) => None,
    }
}

/// The 404 body's endpoint inventory (kept in sync with `docs/SERVING.md`
/// by `tests/docs_drift.rs`).
pub(crate) const ENDPOINT_LIST: &str = "POST /sessions, GET /sessions, \
     POST /sessions/<name>/step, GET /sessions/<name>/placement, \
     GET /sessions/<name>/metrics, POST /sessions/<name>/checkpoint, \
     POST /sessions/<name>/events, DELETE /sessions/<name>, POST /step, \
     GET /placement, GET /metrics, POST /checkpoint, POST /shutdown";

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn routes_resolve_sessions_and_legacy_aliases() {
        assert_eq!(route("POST", "/sessions"), Some(Route::CreateSession));
        assert_eq!(route("GET", "/sessions"), Some(Route::ListSessions));
        assert_eq!(
            route("POST", "/sessions/alpha/step"),
            Some(Route::Step("alpha".into()))
        );
        assert_eq!(
            route("GET", "/sessions/b2/placement"),
            Some(Route::Placement("b2".into()))
        );
        assert_eq!(
            route("GET", "/sessions/b2/metrics"),
            Some(Route::Metrics("b2".into()))
        );
        assert_eq!(
            route("POST", "/sessions/b2/checkpoint"),
            Some(Route::Checkpoint("b2".into()))
        );
        assert_eq!(
            route("POST", "/sessions/b2/events"),
            Some(Route::Events("b2".into()))
        );
        assert_eq!(
            route("DELETE", "/sessions/alpha"),
            Some(Route::DeleteSession("alpha".into()))
        );
        // legacy aliases hit the default session
        assert_eq!(route("POST", "/step"), Some(Route::Step("default".into())));
        assert_eq!(
            route("GET", "/placement"),
            Some(Route::Placement("default".into()))
        );
        assert_eq!(
            route("GET", "/metrics"),
            Some(Route::Metrics("default".into()))
        );
        assert_eq!(
            route("POST", "/checkpoint"),
            Some(Route::Checkpoint("default".into()))
        );
        assert_eq!(route("POST", "/shutdown"), Some(Route::Shutdown));
    }

    #[test]
    fn bad_routes_are_none() {
        assert_eq!(route("GET", "/step"), None); // wrong method
        assert_eq!(route("GET", "/sessions/a/events"), None); // wrong method
        assert_eq!(route("POST", "/sessions/"), None); // empty name
        assert_eq!(route("DELETE", "/sessions/a/step"), None);
        assert_eq!(route("POST", "/sessions//step"), None);
        assert_eq!(route("POST", "/sessions/a/evict"), None);
        assert_eq!(route("GET", "/nope"), None);
    }

    /// Parses a buffer that must hold exactly one whole request.
    fn parse_whole(raw: &str) -> HttpRequest {
        let (request, consumed) = try_parse_request(raw.as_bytes()).unwrap().unwrap();
        assert_eq!(consumed, raw.len(), "{raw:?}");
        request
    }

    #[test]
    fn parses_connection_semantics() {
        // HTTP/1.1 defaults to keep-alive
        let req = parse_whole("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(req.keep_alive);
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        // explicit close wins
        let req = parse_whole("GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!req.keep_alive);
        // HTTP/1.0 defaults to close, opts back in with keep-alive
        let req = parse_whole("GET /metrics HTTP/1.0\r\n\r\n");
        assert!(!req.keep_alive);
        let req = parse_whole("GET /m HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n");
        assert!(req.keep_alive);
        // body framing
        let req = parse_whole("POST /step HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd");
        assert_eq!(req.body, "abcd");
        // nothing received yet (a connection between requests) is "keep
        // reading", never an error
        assert!(try_parse_request(b"").unwrap().is_none());
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        let two = "GET /metrics HTTP/1.1\r\n\r\nPOST /step HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
        let (first, consumed) = try_parse_request(two.as_bytes()).unwrap().unwrap();
        assert_eq!(first.path, "/metrics");
        let (second, rest) = try_parse_request(&two.as_bytes()[consumed..])
            .unwrap()
            .unwrap();
        assert_eq!(second.body, "ok");
        assert_eq!(consumed + rest, two.len());
    }

    #[test]
    fn oversized_requests_are_413() {
        // a single runaway request line...
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(9_000));
        let err = try_parse_request(raw.as_bytes()).unwrap_err();
        assert_eq!(err.status(), 413);
        assert!(err.message().contains("header line"), "{}", err.message());
        // ... even before the newline ever arrives
        let err = try_parse_request("G".repeat(9_000).as_bytes()).unwrap_err();
        assert_eq!(err.status(), 413);
        // a runaway header line
        let raw = format!("GET /m HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "y".repeat(9_000));
        assert_eq!(try_parse_request(raw.as_bytes()).unwrap_err().status(), 413);
        // many medium header lines trip the block cap
        let mut raw = String::from("GET /m HTTP/1.1\r\n");
        for i in 0..10 {
            raw.push_str(&format!("X-Pad-{i}: {}\r\n", "z".repeat(4_000)));
        }
        raw.push_str("\r\n");
        let err = try_parse_request(raw.as_bytes()).unwrap_err();
        assert_eq!(err.status(), 413);
        assert!(err.message().contains("header block"), "{}", err.message());
        // a declared body beyond the 16 MiB cap is refused before it arrives
        let raw = "POST /step HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        let err = try_parse_request(raw.as_bytes()).unwrap_err();
        assert_eq!(err.status(), 413);
        assert!(err.message().contains("16 MiB"), "{}", err.message());
    }

    #[test]
    fn malformed_framing_is_400() {
        for raw in [
            &b"POST /step HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..],
            b"\r\n\r\n",
            b"GET\r\n\r\n",
            b"GET /\xff HTTP/1.1\r\n\r\n",
            b"POST /step HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe",
        ] {
            let err = try_parse_request(raw).unwrap_err();
            assert_eq!(err.status(), 400, "{raw:?}: {}", err.message());
        }
    }

    #[test]
    fn render_response_wire_format() {
        let bytes = render_response(200, "{\"ok\":true}", true);
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(
            text,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
             Content-Length: 12\r\nConnection: keep-alive\r\n\r\n{\"ok\":true}\n"
        );
        let bytes = render_response(404, "{}\n", false);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}\n"));
    }

    /// One generated request: method, path segments, version and line
    /// ending, `Connection` variant, extra headers, body characters.
    type Spec = (usize, Vec<u64>, usize, usize, Vec<(u64, usize)>, Vec<u32>);

    fn spec_strategy() -> impl Strategy<Value = Spec> {
        (
            0usize..5,
            prop::collection::vec(0u64..1000, 0..4),
            0usize..4,
            0usize..6,
            prop::collection::vec((0u64..100, 0usize..40), 0..4),
            prop::collection::vec(0u32..96, 0..48),
        )
    }

    /// Renders a [`Spec`] to wire bytes plus the request the parser must
    /// return for them.
    fn build(spec: &Spec) -> (Vec<u8>, HttpRequest) {
        let (method, segments, version, connection, headers, body) = spec;
        let method = ["GET", "POST", "PUT", "DELETE", "PATCH"][*method].to_string();
        let path = format!(
            "/{}",
            segments
                .iter()
                .map(|s| format!("s{s}"))
                .collect::<Vec<_>>()
                .join("/")
        );
        let http10 = version % 2 == 1;
        let eol = if *version < 2 { "\r\n" } else { "\n" };
        // printable ASCII plus one two-byte character
        let body: String = body
            .iter()
            .map(|&c| {
                char::from_u32(32 + c)
                    .filter(|c| *c != '\x7f')
                    .unwrap_or('é')
            })
            .collect();
        let mut keep_alive = !http10;
        let mut raw = format!(
            "{method} {path} HTTP/1.{}{eol}Host: t{eol}",
            if http10 { 0 } else { 1 }
        );
        let value = ["", "close", "keep-alive", "Keep-Alive", "CLOSE", "upgrade"][*connection];
        match *connection {
            0 => {}
            1 | 4 => keep_alive = false,
            2 | 3 => keep_alive = true,
            _ => {}
        }
        if !value.is_empty() {
            raw.push_str(&format!("Connection: {value}{eol}"));
        }
        for (name, len) in headers {
            raw.push_str(&format!("X-H{name}: {}{eol}", "v".repeat(*len)));
        }
        if !body.is_empty() || segments.len() % 2 == 1 {
            let name = if headers.is_empty() {
                "Content-Length"
            } else {
                "content-length"
            };
            raw.push_str(&format!("{name}: {}{eol}", body.len()));
        }
        raw.push_str(eol);
        raw.push_str(&body);
        let request = HttpRequest {
            method,
            path,
            body,
            keep_alive,
        };
        (raw.into_bytes(), request)
    }

    /// Maps fractions of a length onto sorted cut points.
    fn cut_points(fractions: &[f64], len: usize) -> Vec<usize> {
        let mut cuts: Vec<usize> = fractions
            .iter()
            .map(|f| ((f * len as f64) as usize).min(len))
            .collect();
        cuts.sort_unstable();
        cuts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Split-point invariance: every strict prefix of a valid request
        /// is "keep reading"; any buffer holding all of it yields the same
        /// request and `consumed`, a pipelined follow-up notwithstanding;
        /// and a reactor-style feed in arbitrary chunks parses exactly
        /// the requests the whole buffer holds.
        #[test]
        fn any_chunking_parses_like_the_whole_buffer(
            first in spec_strategy(),
            second in spec_strategy(),
            pipelined in 0usize..2,
            fractions in prop::collection::vec(0.0f64..1.0, 0..6),
        ) {
            let (mut wire, first_request) = build(&first);
            let first_len = wire.len();
            let mut want = vec![first_request];
            if pipelined == 1 {
                let (more, second_request) = build(&second);
                wire.extend_from_slice(&more);
                want.push(second_request);
            }
            for cut in 0..first_len {
                let parsed = try_parse_request(&wire[..cut]);
                prop_assert!(matches!(parsed, Ok(None)), "prefix {} of {:?}", cut, wire);
            }
            for cut in first_len..=wire.len() {
                let (request, consumed) = try_parse_request(&wire[..cut]).unwrap().unwrap();
                prop_assert_eq!(consumed, first_len, "cut {}", cut);
                prop_assert_eq!(&request, &want[0], "cut {}", cut);
            }
            let mut buf = Vec::new();
            let mut got = Vec::new();
            let mut from = 0;
            let mut cuts = cut_points(&fractions, wire.len());
            cuts.push(wire.len());
            for cut in cuts {
                buf.extend_from_slice(&wire[from..cut]);
                from = cut;
                while let Some((request, consumed)) = try_parse_request(&buf).unwrap() {
                    got.push(request);
                    buf.drain(..consumed);
                }
            }
            prop_assert!(buf.is_empty(), "{} bytes left over", buf.len());
            prop_assert_eq!(got, want);
        }

        /// Every cap fails with 413 and its own message at exactly the
        /// byte that crosses it, and at every cut after; before that
        /// byte the parser keeps reading.
        #[test]
        fn caps_fail_once_enough_bytes_have_arrived(
            kind in 0usize..4,
            lead in prop::collection::vec((0u64..100, 0usize..40), 0..4),
            excess in 1usize..2000,
            fractions in prop::collection::vec(0.0f64..1.0, 8..16),
        ) {
            let mut raw = String::from("POST /x HTTP/1.1\r\n");
            if kind == 0 {
                raw = format!("GET /{} HTTP/1.1\r\n", "p".repeat(MAX_HEADER_LINE + excess));
            }
            for (name, len) in &lead {
                raw.push_str(&format!("X-H{name}: {}\r\n", "v".repeat(*len)));
            }
            let (threshold, message) = match kind {
                0 => (MAX_HEADER_LINE + 1, "header line"),
                1 => {
                    let at = raw.len();
                    raw.push_str(&format!("X-Pad: {}\r\n", "y".repeat(MAX_HEADER_LINE + excess)));
                    (at + MAX_HEADER_LINE + 1, "header line")
                }
                2 => {
                    // lines under the line cap, until the block crosses its cap
                    let pad = format!("X-Pad: {}\r\n", "z".repeat(2_000 + 3 * excess));
                    while raw.len() + pad.len() <= MAX_HEADER_BYTES {
                        raw.push_str(&pad);
                    }
                    raw.push_str(&pad);
                    (raw.len(), "header block")
                }
                _ => {
                    raw.push_str(&format!("Content-Length: {}\r\n\r\n", MAX_BODY_BYTES + excess));
                    (raw.len(), "16 MiB")
                }
            };
            raw.push_str("\r\nabc");
            let wire = raw.as_bytes();
            let mut cuts = cut_points(&fractions, wire.len());
            cuts.extend([0, threshold - 1, threshold, threshold + 1, wire.len()]);
            for cut in cuts {
                let parsed = try_parse_request(&wire[..cut]);
                if cut < threshold {
                    prop_assert!(matches!(parsed, Ok(None)), "kind {} cut {} < {}", kind, cut, threshold);
                } else {
                    let err = parsed.unwrap_err();
                    prop_assert_eq!(err.status(), 413, "kind {} cut {}", kind, cut);
                    prop_assert!(err.message().contains(message), "kind {}: {}", kind, err.message());
                }
            }
        }
    }
}

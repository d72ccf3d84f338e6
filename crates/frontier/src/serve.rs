//! The `tiscc serve --stdin-json` protocol: newline-delimited JSON
//! requests answered by newline-delimited JSON responses, estimating
//! against one warm in-process [`Compiler`] (and, optionally, one
//! persistent [`DiskCache`]) for the life of the process.
//!
//! Requests are **flat** JSON objects — every value is a string, number,
//! boolean or null; lists (layouts, profiles) travel as comma-separated
//! strings. Each key is the CLI flag of the same setting (`p_phys` is
//! `--p-phys`, `profiles` is `--profile`), and [`crate::request`] reads
//! both into one spec:
//!
//! ```text
//! {"cmd":"ping"}
//! {"cmd":"estimate","program":"adder.tql","budget":1e-9,"profiles":"h1"}
//! {"cmd":"frontier","program":"adder.tql","layouts":"row,checkerboard",
//!  "dmin":3,"dmax":13,"profiles":"h1,projected"}
//! {"op":"metrics"}
//! ```
//!
//! `"op"` is accepted as an alias for `"cmd"`. A key the op does not
//! define is a `bad_request` naming the key, never silently ignored.
//! Every response is one line: `{"ok":true,...}` on success,
//! `{"ok":false,"error":"...","kind":"..."}` on failure, where `kind` is
//! one of `oversized_line` (the line exceeds [`MAX_REQUEST_BYTES`]),
//! `malformed_json` (also for a line that is not UTF-8), `unknown_op` or
//! `bad_request`. A malformed line never kills the server — it yields an
//! error response and the loop continues.
//!
//! [`read_request`] reads the input a line at a time as bytes and buffers
//! at most [`MAX_REQUEST_BYTES`]` + 1` of a line, skipping the rest to its
//! newline, so a request's memory is bounded before it is parsed;
//! [`handle_request`] answers what it read.
//!
//! The state keeps an always-on [`Telemetry`] recorder: every request
//! bumps `serve.requests` (and `serve.requests.<op>` for known ops),
//! every error bumps `serve.errors` and `serve.errors.<kind>`, and
//! request latency accrues in `serve.request_us_total`. The `metrics`
//! verb reports these counters together with the warm compiler-memo and
//! persistent-cache statistics, so a session's cache behaviour is
//! observable without scraping stderr.

use std::io::{self, BufRead};
use std::time::Instant;

use tiscc_estimator::compiler::Compiler;
use tiscc_estimator::program::{estimate_program_with, ProgramEstimateSpec};
use tiscc_program::LogicalProgram;
use tiscc_telemetry::json::{self, Value};
use tiscc_telemetry::{json_f64, json_string, Span, Telemetry};

use crate::cache::DiskCache;
use crate::engine::run_frontier_with;
use crate::request::{self, Params};
use crate::spec::FrontierSpec;

/// Longest accepted request line in bytes; longer lines are answered with
/// an `oversized_line` error without being parsed.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// The state a serve loop holds across requests: the warm compiler memo,
/// the optional persistent cache, and the session's telemetry recorder.
pub struct ServeState {
    /// The shared compiler; its memo makes repeated requests cheap.
    pub compiler: Compiler,
    /// The persistent cache, when the server was started with a cache dir.
    pub disk: Option<DiskCache>,
    /// Always-on session telemetry: request/error counters and per-request
    /// spans (span recording stops at the recorder's cap, counters never
    /// do). The `metrics` verb reads from here.
    pub tel: Telemetry,
}

impl ServeState {
    /// A fresh server state with no persistent cache.
    pub fn new(disk: Option<DiskCache>) -> ServeState {
        ServeState { compiler: Compiler::new(), disk, tel: Telemetry::new_enabled() }
    }
}

/// A structured serve-loop failure: a stable machine-readable `kind`
/// plus a human-readable message.
struct ServeError {
    kind: &'static str,
    message: String,
}

impl ServeError {
    fn bad_request(message: String) -> ServeError {
        ServeError { kind: "bad_request", message }
    }

    /// A line of `len` bytes, past the cap.
    fn oversized(len: usize) -> ServeError {
        ServeError {
            kind: "oversized_line",
            message: format!("request line is {len} bytes (limit {MAX_REQUEST_BYTES})"),
        }
    }
}

/// The keys `estimate` accepts besides `"cmd"`/`"op"`.
const ESTIMATE_KEYS: &[&str] =
    &["program", "layout", "budget", "profiles", "dmax", "p_phys", "p_th", "prefactor"];

/// The keys `frontier` accepts besides `"cmd"`/`"op"`.
const FRONTIER_KEYS: &[&str] =
    &["program", "layouts", "dmin", "dmax", "profiles", "p_phys", "p_th", "prefactor"];

/// Reads the next request line of `input` into `line`, without its
/// newline, and returns the line's full length in bytes, or `None` at the
/// end of the input. At most [`MAX_REQUEST_BYTES`]` + 1` bytes of a line
/// are kept in `line`: the rest is skipped through the reader's buffer, a
/// chunk at a time, and only counted.
pub fn read_request(input: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<Option<usize>> {
    line.clear();
    let mut len = 0;
    let mut read_any = false;
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(read_any.then_some(len));
        }
        read_any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let end = newline.unwrap_or(chunk.len());
        let room = (MAX_REQUEST_BYTES + 1).saturating_sub(line.len());
        line.extend_from_slice(&chunk[..end.min(room)]);
        len += end;
        input.consume(end + usize::from(newline.is_some()));
        if newline.is_some() {
            return Ok(Some(len));
        }
    }
}

/// Answers one line read by [`read_request`], whose full length is
/// `len`: `oversized_line` past [`MAX_REQUEST_BYTES`], `malformed_json`
/// if it is not UTF-8, and otherwise the reply of [`handle_line`] to the
/// trimmed text. A blank line gets no reply.
pub fn handle_request(line: &[u8], len: usize, state: &ServeState) -> Option<String> {
    if len > MAX_REQUEST_BYTES {
        return Some(respond(state, || Err(ServeError::oversized(len))));
    }
    match std::str::from_utf8(line).map(str::trim) {
        Ok("") => None,
        Ok(text) => Some(handle_line(text, state)),
        Err(e) => Some(respond(state, || {
            Err(ServeError {
                kind: "malformed_json",
                message: format!("request line is not UTF-8 ({e})"),
            })
        })),
    }
}

/// Handles one request line, returning exactly one JSON response line
/// (without a trailing newline). Never panics on malformed input.
pub fn handle_line(line: &str, state: &ServeState) -> String {
    respond(state, || handle(line, state))
}

/// Runs one request and renders its reply line, recording the request,
/// its latency and any error in the session telemetry.
fn respond(state: &ServeState, request: impl FnOnce() -> Result<String, ServeError>) -> String {
    let started = Instant::now();
    state.tel.add("serve.requests", 1);
    let result = request();
    let elapsed_us = started.elapsed().as_secs_f64() * 1e6;
    state.tel.add("serve.request_us_total", elapsed_us as u64);
    state.tel.gauge("serve.last_request_us", elapsed_us);
    match result {
        Ok(body) => body,
        Err(e) => {
            state.tel.add("serve.errors", 1);
            state.tel.add(&format!("serve.errors.{}", e.kind), 1);
            format!(
                "{{\"ok\":false,\"error\":{},\"kind\":{}}}",
                json_string(&e.message),
                json_string(e.kind)
            )
        }
    }
}

fn handle(line: &str, state: &ServeState) -> Result<String, ServeError> {
    if line.len() > MAX_REQUEST_BYTES {
        return Err(ServeError::oversized(line.len()));
    }
    let fields =
        parse_flat_json(line).map_err(|message| ServeError { kind: "malformed_json", message })?;
    let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    // "op" is an alias for "cmd"; "cmd" wins when both are present.
    let cmd = match get("cmd").or_else(|| get("op")) {
        Some(Value::Str(s)) => s.as_str(),
        Some(_) => return Err(ServeError::bad_request("\"cmd\" must be a string".to_string())),
        None => return Err(ServeError::bad_request("request is missing \"cmd\"".to_string())),
    };
    let keys: &[&str] = match cmd {
        "ping" | "metrics" => &[],
        "estimate" => ESTIMATE_KEYS,
        "frontier" => FRONTIER_KEYS,
        other => {
            return Err(ServeError {
                kind: "unknown_op",
                message: format!(
                    "unknown cmd {other:?} (expected \"ping\", \"estimate\", \"frontier\" or \
                     \"metrics\")"
                ),
            })
        }
    };
    state.tel.add(&format!("serve.requests.{cmd}"), 1);
    if let Some((key, _)) =
        fields.iter().find(|(k, _)| k != "cmd" && k != "op" && !keys.contains(&k.as_str()))
    {
        return Err(ServeError::bad_request(format!("unknown key {key:?} for cmd {cmd:?}")));
    }
    match cmd {
        "ping" => Ok(format!(
            "{{\"ok\":true,\"reply\":\"pong\",\"cache_entries\":{}}}",
            state.disk.as_ref().map_or(0, |c| c.len())
        )),
        "metrics" => Ok(handle_metrics(state)),
        _ => handle_program(cmd, &fields, state).map_err(ServeError::bad_request),
    }
}

/// Answers an `estimate` or `frontier` request under a root span named
/// after the command, parsing the program under it.
fn handle_program(
    cmd: &str,
    fields: &[(String, Value)],
    state: &ServeState,
) -> Result<String, String> {
    let span = state.tel.root(cmd);
    let path = fields.text("program")?.ok_or("request is missing \"program\"")?;
    let program = request::load_program(path, &span)?;
    if cmd == "estimate" {
        handle_estimate(&program, &request::estimate_spec(fields)?, state, &span)
    } else {
        handle_frontier(&program, &request::frontier_spec(fields)?, state, &span)
    }
}

/// Renders the `metrics` response: session request/error counters from
/// the telemetry registry plus the live compiler-memo and
/// persistent-cache statistics. Counters are monotonically increasing
/// over a session (the reply counts the `metrics` request itself).
fn handle_metrics(state: &ServeState) -> String {
    let tel = &state.tel;
    format!(
        "{{\"ok\":true,\"requests\":{},\"requests_ping\":{},\"requests_estimate\":{},\
         \"requests_frontier\":{},\"requests_metrics\":{},\"errors\":{},\
         \"errors_malformed_json\":{},\"errors_unknown_op\":{},\"errors_oversized_line\":{},\
         \"errors_bad_request\":{},\"request_us_total\":{},\"compile_cache_hits\":{},\
         \"compile_cache_misses\":{},\"compile_cache_entries\":{},\"disk_entries\":{},\
         \"disk_corrupt\":{}}}",
        tel.counter("serve.requests"),
        tel.counter("serve.requests.ping"),
        tel.counter("serve.requests.estimate"),
        tel.counter("serve.requests.frontier"),
        tel.counter("serve.requests.metrics"),
        tel.counter("serve.errors"),
        tel.counter("serve.errors.malformed_json"),
        tel.counter("serve.errors.unknown_op"),
        tel.counter("serve.errors.oversized_line"),
        tel.counter("serve.errors.bad_request"),
        tel.counter("serve.request_us_total"),
        state.compiler.cache().hits(),
        state.compiler.cache().misses(),
        state.compiler.cache().len(),
        state.disk.as_ref().map_or(0, |c| c.len()),
        state.disk.as_ref().map_or(0, |c| c.corrupt_entries()),
    )
}

fn handle_estimate(
    program: &LogicalProgram,
    spec: &ProgramEstimateSpec,
    state: &ServeState,
    span: &Span,
) -> Result<String, String> {
    let est =
        estimate_program_with(program, spec, &state.compiler, span).map_err(|e| e.to_string())?;
    let mut out = format!(
        "{{\"ok\":true,\"program\":{},\"logical_qubits\":{},\"rows\":[",
        json_string(&est.program),
        est.logical_qubits
    );
    for (i, row) in est.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"profile\":{},\"d\":{},\"error\":{},\"duration_s\":{},\"trapping_zones\":{},\
             \"qubit_rounds\":{}}}",
            json_string(&row.profile),
            row.distance,
            json_f64(row.achieved_error),
            json_f64(row.duration_s),
            row.trapping_zones,
            row.qubit_rounds
        ));
    }
    out.push_str("]}");
    Ok(out)
}

fn handle_frontier(
    program: &LogicalProgram,
    spec: &FrontierSpec,
    state: &ServeState,
    span: &Span,
) -> Result<String, String> {
    let report = run_frontier_with(program, spec, &state.compiler, state.disk.as_ref(), span)
        .map_err(|e| e.to_string())?;
    let frontier = report.frontier();
    let mut out = format!(
        "{{\"ok\":true,\"program\":{},\"matrix_points\":{},\"disk_hits\":{},\"computed\":{},\
         \"frontier\":[",
        json_string(&report.program),
        report.points.len(),
        report.stats.disk_hits,
        report.stats.computed
    );
    for (i, p) in frontier.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"layout\":{},\"d\":{},\"profile\":{},\"physical_qubits\":{},\"duration_s\":{},\
             \"error\":{}}}",
            json_string(p.layout.strategy.name()),
            p.d,
            json_string(&p.profile),
            p.physical_qubits,
            json_f64(p.duration_s),
            json_f64(p.error)
        ));
    }
    out.push_str("]}");
    Ok(out)
}

/// Parses a single flat JSON object (`{"key":value,...}`) into its fields
/// in source order: every value is a string, number, boolean or null.
/// Duplicate keys are rejected.
pub fn parse_flat_json(text: &str) -> Result<Vec<(String, Value)>, String> {
    match json::parse(text)? {
        Value::Obj(fields)
            if fields.iter().any(|(_, v)| matches!(v, Value::Arr(_) | Value::Obj(_))) =>
        {
            Err("nested objects/arrays are not part of the flat protocol".to_string())
        }
        Value::Obj(fields) => Ok(fields),
        _ => Err("expected '{'".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    fn write_program(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tiscc-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.tql"));
        std::fs::write(&path, "qubit a b\nprep_x a\nprep_z b\nmerge_zz a b\n").unwrap();
        path
    }

    fn field<'a>(json: &'a str, key: &str) -> &'a str {
        let at = json.find(&format!("\"{key}\":")).unwrap_or_else(|| panic!("{key} in {json}"));
        &json[at + key.len() + 3..]
    }

    #[test]
    fn flat_json_parses_every_scalar_kind() {
        let fields = parse_flat_json(
            "{\"s\":\"a\\nb\",\"n\":1e-4,\"i\":13,\"t\":true,\"f\":false,\"z\":null}",
        )
        .unwrap();
        assert_eq!(fields[0], ("s".to_string(), Value::Str("a\nb".to_string())));
        assert_eq!(fields[1], ("n".to_string(), Value::Num(1e-4)));
        assert_eq!(fields[2], ("i".to_string(), Value::Num(13.0)));
        assert_eq!(fields[3], ("t".to_string(), Value::Bool(true)));
        assert_eq!(fields[4], ("f".to_string(), Value::Bool(false)));
        assert_eq!(fields[5], ("z".to_string(), Value::Null));
        assert_eq!(parse_flat_json("{}").unwrap(), vec![]);
    }

    #[test]
    fn malformed_json_is_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":1}{",
            "{\"a\":{\"nested\":1}}",
            "{\"a\":[1]}",
            "{\"a\":1,\"a\":2}",
            "{\"a\":\"unterminated}",
            "not json at all",
        ] {
            assert!(parse_flat_json(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn ping_answers_pong() {
        let state = ServeState::new(None);
        let reply = handle_line("{\"cmd\":\"ping\"}", &state);
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert!(reply.contains("\"pong\""), "{reply}");
    }

    #[test]
    fn bad_requests_get_error_responses() {
        let state = ServeState::new(None);
        let dmax_zero = format!(
            "{{\"cmd\":\"estimate\",\"program\":{},\"dmax\":0,\"budget\":0.5}}",
            json_string(write_program("serve_dmax_zero").to_str().unwrap())
        );
        for (request, expect) in [
            ("nonsense", "ok\":false"),
            ("{\"cmd\":\"warp\"}", "unknown cmd"),
            ("{}", "missing \\\"cmd\\\""),
            ("{\"cmd\":\"estimate\"}", "missing \\\"program\\\""),
            ("{\"cmd\":\"frontier\",\"program\":\"/does/not/exist.tql\"}", "cannot read"),
            (dmax_zero.as_str(), "d_max must be at least 3, got 0"),
        ] {
            let reply = handle_line(request, &state);
            assert!(reply.contains("\"ok\":false"), "{request} -> {reply}");
            assert!(reply.contains(expect), "{request} -> {reply}");
            assert!(parse_flat_json(&reply).is_ok() || reply.contains("frontier"), "{reply}");
        }
    }

    /// An explicit grid over the tile cap is a `bad_request` naming
    /// `--grid`, answered before anything is allocated for the grid, and
    /// the state keeps serving.
    #[test]
    fn oversized_grids_are_bad_requests() {
        let path = json_string(write_program("serve_oversized_grid").to_str().unwrap());
        let state = ServeState::new(None);
        for (cmd, fields) in [
            ("estimate", r#""layout":"row@4097x4096","budget":1e-4"#),
            ("estimate", r#""layout":"lane@2x4611686018427387904""#),
            ("frontier", r#""layouts":"lane@2x4611686018427387904""#),
        ] {
            let request = format!(r#"{{"cmd":"{cmd}","program":{path},{fields}}}"#);
            let reply = handle_line(&request, &state);
            assert!(reply.contains(r#""kind":"bad_request""#), "{request} -> {reply}");
            assert!(reply.contains("limit; use a smaller --grid"), "{request} -> {reply}");
        }
        assert!(handle_line(r#"{"cmd":"ping"}"#, &state).contains(r#""pong""#));
    }

    #[test]
    fn estimate_and_frontier_requests_answer_inline() {
        let path = write_program("serve_merge");
        let state = ServeState::new(None);
        let request = format!(
            "{{\"cmd\":\"estimate\",\"program\":{},\"budget\":0.001,\"profiles\":\"h1,projected\"}}",
            json_string(path.to_str().unwrap())
        );
        let reply = handle_line(&request, &state);
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert!(reply.contains("\"profile\":\"projected\""), "{reply}");
        assert!(field(&reply, "logical_qubits").starts_with('2'), "{reply}");

        let request = format!(
            "{{\"cmd\":\"frontier\",\"program\":{},\"layouts\":\"lane,lane\",\"dmin\":3,\
             \"dmax\":5,\"profiles\":\"h1\"}}",
            json_string(path.to_str().unwrap())
        );
        let reply = handle_line(&request, &state);
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert!(reply.contains("\"matrix_points\":2"), "duplicate layout deduped: {reply}");
        assert!(reply.contains("\"frontier\":[{"), "non-empty frontier: {reply}");

        // The second identical request reuses the warm compiler memo: no
        // new compile-cache entries, and nothing computed.
        let computed = format!("\"computed\":{},", metric(&reply, "computed"));
        assert_ne!(computed, "\"computed\":0,", "the estimate left a distance to compile");
        let entries = state.compiler.cache().len();
        let reply2 = handle_line(&request, &state);
        assert_eq!(
            reply2,
            reply.replace(&computed, "\"computed\":0,"),
            "a warm reply differs only in what it computed"
        );
        assert_eq!(state.compiler.cache().len(), entries, "served from the warm memo");
        let _ = std::fs::remove_file(Path::new(&path));
    }

    /// Extracts an integer metrics field from a `metrics` reply.
    fn metric(json: &str, key: &str) -> u64 {
        field(json, key)
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap_or_else(|_| panic!("{key} in {json}"))
    }

    #[test]
    fn op_is_an_alias_for_cmd() {
        let state = ServeState::new(None);
        let reply = handle_line("{\"op\":\"ping\"}", &state);
        assert!(reply.contains("\"reply\":\"pong\""), "{reply}");
        // "cmd" wins when both are present.
        let reply = handle_line("{\"cmd\":\"ping\",\"op\":\"warp\"}", &state);
        assert!(reply.contains("\"reply\":\"pong\""), "{reply}");
    }

    #[test]
    fn error_paths_yield_structured_kinds_and_counters() {
        let state = ServeState::new(None);

        // Malformed JSON.
        let reply = handle_line("this is not json", &state);
        assert!(reply.contains("\"ok\":false"), "{reply}");
        assert!(reply.contains("\"kind\":\"malformed_json\""), "{reply}");
        assert!(parse_flat_json(&reply).is_ok(), "error replies stay flat: {reply}");

        // Unknown op.
        let reply = handle_line("{\"op\":\"warp\"}", &state);
        assert!(reply.contains("\"kind\":\"unknown_op\""), "{reply}");
        assert!(reply.contains("unknown cmd"), "{reply}");

        // Oversized line (valid JSON, but past the limit).
        let oversized =
            format!("{{\"cmd\":\"ping\",\"pad\":\"{}\"}}", "x".repeat(MAX_REQUEST_BYTES));
        let reply = handle_line(&oversized, &state);
        assert!(reply.contains("\"kind\":\"oversized_line\""), "{reply}");

        // Bad request (known op, missing field).
        let reply = handle_line("{\"cmd\":\"estimate\"}", &state);
        assert!(reply.contains("\"kind\":\"bad_request\""), "{reply}");

        // The loop survived all of the above: the metrics verb answers
        // and attributes one error to each kind.
        let reply = handle_line("{\"op\":\"metrics\"}", &state);
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert_eq!(metric(&reply, "requests"), 5);
        assert_eq!(metric(&reply, "errors"), 4);
        assert_eq!(metric(&reply, "errors_malformed_json"), 1);
        assert_eq!(metric(&reply, "errors_unknown_op"), 1);
        assert_eq!(metric(&reply, "errors_oversized_line"), 1);
        assert_eq!(metric(&reply, "errors_bad_request"), 1);
        assert_eq!(metric(&reply, "requests_metrics"), 1);
    }

    #[test]
    fn unknown_keys_are_bad_requests_naming_the_key() {
        let path = write_program("serve_keys");
        let program = json_string(path.to_str().unwrap());
        let state = ServeState::new(None);
        for (request, key) in [
            (
                format!("{{\"cmd\":\"estimate\",\"program\":{program},\"mode\":\"analytic\"}}"),
                "mode",
            ),
            (format!("{{\"cmd\":\"estimate\",\"program\":{program},\"bogus\":1}}"), "bogus"),
            // `layouts` belongs to frontier, `layout` to estimate.
            (
                format!("{{\"cmd\":\"estimate\",\"program\":{program},\"layouts\":\"lane\"}}"),
                "layouts",
            ),
            (format!("{{\"cmd\":\"frontier\",\"program\":{program},\"budget\":0.001}}"), "budget"),
            ("{\"op\":\"ping\",\"verbose\":true}".to_string(), "verbose"),
        ] {
            let reply = handle_line(&request, &state);
            assert!(reply.contains("\"kind\":\"bad_request\""), "{request} -> {reply}");
            assert!(reply.contains(&format!("unknown key \\\"{key}\\\"")), "{request} -> {reply}");
        }
        let metrics = handle_line("{\"op\":\"metrics\"}", &state);
        assert_eq!(metric(&metrics, "errors_bad_request"), 5, "{metrics}");
        assert_eq!(metric(&metrics, "compile_cache_entries"), 0, "rejected before any compile");
        let _ = std::fs::remove_file(Path::new(&path));
    }

    #[test]
    fn metrics_counters_increase_monotonically_across_a_warm_session() {
        let path = write_program("serve_metrics");
        let state = ServeState::new(None);
        let request = format!(
            "{{\"cmd\":\"estimate\",\"program\":{},\"budget\":0.001}}",
            json_string(path.to_str().unwrap())
        );

        let reply = handle_line(&request, &state);
        assert!(reply.contains("\"ok\":true"), "{reply}");
        let m1 = handle_line("{\"op\":\"metrics\"}", &state);
        let (r1, h1) = (metric(&m1, "requests"), metric(&m1, "compile_cache_hits"));
        assert_eq!(metric(&m1, "requests_estimate"), 1);
        assert!(metric(&m1, "compile_cache_entries") > 0, "{m1}");

        // The identical second request is served from the warm memo: the
        // hit counter rises, the entry count stays put.
        let reply = handle_line(&request, &state);
        assert!(reply.contains("\"ok\":true"), "{reply}");
        let m2 = handle_line("{\"op\":\"metrics\"}", &state);
        assert!(metric(&m2, "requests") > r1, "{m2}");
        assert!(metric(&m2, "compile_cache_hits") > h1, "{m2}");
        assert_eq!(metric(&m1, "compile_cache_entries"), metric(&m2, "compile_cache_entries"));
        assert_eq!(metric(&m2, "requests_estimate"), 2);
        assert_eq!(metric(&m2, "errors"), 0);
        let _ = std::fs::remove_file(Path::new(&path));
    }

    #[test]
    fn requests_record_spans_in_session_telemetry() {
        let path = write_program("serve_spans");
        let state = ServeState::new(None);
        let request = format!(
            "{{\"cmd\":\"estimate\",\"program\":{},\"budget\":0.001}}",
            json_string(path.to_str().unwrap())
        );
        handle_line(&request, &state);
        let report = state.tel.snapshot().expect("serve telemetry is always on");
        assert_eq!(report.roots(), vec!["estimate"]);
        let paths: Vec<String> = (0..report.spans.len()).map(|i| report.path(i)).collect();
        assert!(paths.contains(&"estimate/compile".to_string()), "{paths:?}");
        assert!(paths.contains(&"estimate/parse".to_string()), "{paths:?}");
        let _ = std::fs::remove_file(Path::new(&path));
    }

    #[test]
    fn request_lines_buffer_at_most_the_cap() {
        let long = "x".repeat(3 * MAX_REQUEST_BYTES);
        let input = format!("{long}\n\n{{\"cmd\":\"ping\"}}\r\nlast");
        let mut reader = io::BufReader::with_capacity(4096, input.as_bytes());
        let mut line = Vec::new();
        let mut lines = Vec::new();
        while let Some(len) = read_request(&mut reader, &mut line).unwrap() {
            assert!(line.len() <= MAX_REQUEST_BYTES + 1);
            lines.push((len, line.clone()));
        }
        assert_eq!(lines.len(), 4, "the blank line and the unterminated last line count");
        assert_eq!(lines[0].0, long.len());
        assert_eq!(lines[0].1.len(), MAX_REQUEST_BYTES + 1);
        assert_eq!(lines[1], (0, Vec::new()));
        assert_eq!(lines[2].1, b"{\"cmd\":\"ping\"}\r");
        assert_eq!(lines[3], (4, b"last".to_vec()));

        let state = ServeState::new(None);
        let reply = handle_request(&lines[0].1, lines[0].0, &state).unwrap();
        assert!(field(&reply, "kind").starts_with("\"oversized_line\""), "{reply}");
        assert!(reply.contains(&format!("{} bytes", long.len())), "{reply}");
        assert_eq!(handle_request(&lines[1].1, lines[1].0, &state), None);
        let pong = handle_request(&lines[2].1, lines[2].0, &state).unwrap();
        assert!(field(&pong, "reply").starts_with("\"pong\""), "{pong}");
        let bad = handle_request(b"\xff{}", 3, &state).unwrap();
        assert!(field(&bad, "kind").starts_with("\"malformed_json\""), "{bad}");
        assert_eq!(state.tel.counter("serve.requests"), 3, "blank lines are not requests");
        assert_eq!(state.tel.counter("serve.errors.oversized_line"), 1);
        assert_eq!(state.tel.counter("serve.errors.malformed_json"), 1);
    }

    #[test]
    fn long_non_ascii_strings_parse_in_linear_time() {
        let text = "\u{e9}".repeat(30_000);
        let line = format!("{{\"cmd\":\"ping\",\"x\":\"{text}\"}}");
        assert_eq!(line.len(), 60_021);
        let started = Instant::now();
        let fields = parse_flat_json(&line).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(fields[1].1, Value::Str(text));
        assert!(elapsed.as_millis() < 100, "took {elapsed:?}");
    }
}

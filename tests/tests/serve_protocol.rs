//! Loopback battery for the `vnet-serve` wire protocol: register/analyze
//! round-trips, cache-hit byte-identity (the acceptance criterion of the
//! service design — a cached reply must be bit-identical to a cold
//! computation, proven by the `cache.hits`/`cache.misses` counters),
//! malformed-request and backpressure replies, per-request timeouts,
//! graceful-shutdown draining, and a framing + parsing fuzz property
//! (hostile bytes yield typed errors, never a panic).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use proptest::prelude::*;
use verified_net::{AnalysisCtx, Dataset, SynthesisConfig};
use vnet_serve::{parse_request, Frame, LineReader, Server, ServerConfig, MAX_LINE_BYTES};

/// One small dataset shared by every test in this file (synthesis is the
/// expensive part; registration clones are cheap by comparison).
fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| Dataset::build(&SynthesisConfig::small(), &AnalysisCtx::quiet()))
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to loopback server");
        Client { reader: BufReader::new(stream.try_clone().expect("clone stream")), writer: stream }
    }

    /// Send one request line and read the one reply line.
    fn req(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).expect("send request");
        self.writer.write_all(b"\n").expect("send newline");
        self.writer.flush().expect("flush");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        assert!(reply.ends_with('\n'), "reply not line-terminated: {reply:?}");
        reply.trim_end().to_string()
    }
}

fn start(config: ServerConfig) -> vnet_serve::ServerHandle {
    Server::start(config).expect("bind loopback server")
}

fn counter(metrics_reply: &str, name: &str) -> u64 {
    let v: serde_json::Value = serde_json::from_str(metrics_reply).expect("metrics parse");
    v["counters"][name].as_u64().unwrap_or(0)
}

#[test]
fn register_analyze_and_cache_hit_round_trip() {
    let handle = start(ServerConfig::default());
    let fp = handle.register_dataset("snap", dataset().clone());
    let mut c = Client::connect(handle.local_addr());

    // Status sees the snapshot.
    let status = c.req(r#"{"v":1,"cmd":"status"}"#);
    let v: serde_json::Value = serde_json::from_str(&status).unwrap();
    assert_eq!(v["ok"].as_bool(), Some(true));
    assert_eq!(v["snapshots"][0].as_str(), Some("snap"));

    let analyze =
        r#"{"v":1,"cmd":"analyze","snapshot":"snap","sections":["reciprocity","separation"],"options":{"seed":99}}"#;
    let cold = c.req(analyze);
    let v: serde_json::Value = serde_json::from_str(&cold).unwrap();
    assert_eq!(v["ok"].as_bool(), Some(true));
    assert_eq!(v["dataset_fingerprint"].as_u64(), Some(fp));
    assert_eq!(v["sections"][0]["section"].as_str(), Some("reciprocity"));
    assert!(v["sections"][1]["payload"]["mean"].as_f64().unwrap() > 0.0);

    // The repeat query is served from cache and must be BYTE-identical.
    let warm = c.req(analyze);
    assert_eq!(cold, warm, "cached reply diverged from cold computation");

    // A different thread count is the same cache key: options fingerprints
    // exclude `threads` because results are thread-count invariant.
    let threaded = c.req(
        r#"{"v":1,"cmd":"analyze","snapshot":"snap","sections":["reciprocity","separation"],"options":{"seed":99,"threads":4}}"#,
    );
    assert_eq!(cold, threaded, "thread count leaked into the reply");

    // Counters prove the cache did the work: 2 cold misses, then 4 hits.
    let metrics = c.req(r#"{"v":1,"cmd":"metrics"}"#);
    assert_eq!(counter(&metrics, "cache.misses"), 2, "metrics: {metrics}");
    assert_eq!(counter(&metrics, "cache.hits"), 4, "metrics: {metrics}");
    assert_eq!(counter(&metrics, "cache.entries"), 2, "metrics: {metrics}");

    handle.shutdown();
    handle.join();
}

#[test]
fn register_over_the_wire_from_a_saved_bundle() {
    let dir = std::env::temp_dir().join(format!("vnet_serve_bundle_{}", std::process::id()));
    verified_net::save_dataset(dataset(), &dir).expect("save bundle");

    let handle = start(ServerConfig::default());
    let mut c = Client::connect(handle.local_addr());
    let reply = c.req(&format!(
        r#"{{"v":1,"cmd":"register","name":"wire","dir":{}}}"#,
        serde_json::to_string(&dir.display().to_string()).unwrap()
    ));
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(v["ok"].as_bool(), Some(true), "register failed: {reply}");
    // A loaded bundle is content-identical to its source dataset.
    assert_eq!(v["fingerprint"].as_u64(), Some(dataset().fingerprint()));
    assert_eq!(v["users"].as_u64(), Some(dataset().summary().users as u64));

    let analyzed = c.req(r#"{"v":1,"cmd":"analyze","snapshot":"wire","sections":["basic"]}"#);
    let v: serde_json::Value = serde_json::from_str(&analyzed).unwrap();
    assert_eq!(v["ok"].as_bool(), Some(true));
    assert!(v["sections"][0]["payload"]["users"].as_u64().unwrap() > 2_000);

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_replies_match_across_independent_servers() {
    // Two fresh servers, no shared cache: the reply is a pure function of
    // (dataset, options, sections), so both cold computations agree.
    let analyze = r#"{"v":1,"cmd":"analyze","snapshot":"s","sections":["basic"],"options":{"seed":5}}"#;
    let replies: Vec<String> = (0..2)
        .map(|_| {
            let handle = start(ServerConfig::default());
            handle.register_dataset("s", dataset().clone());
            let mut c = Client::connect(handle.local_addr());
            let reply = c.req(analyze);
            handle.shutdown();
            handle.join();
            reply
        })
        .collect();
    assert_eq!(replies[0], replies[1], "independent cold computations diverged");
}

#[test]
fn malformed_requests_get_structured_errors() {
    let handle = start(ServerConfig::default());
    let mut c = Client::connect(handle.local_addr());
    for (line, code) in [
        ("this is not json", "bad_request"),
        (r#"{"v":1,"cmd":"dance"}"#, "bad_request"),
        (r#"{"v":1,"cmd":"register","name":"x"}"#, "bad_request"),
        (r#"{"v":1,"cmd":"analyze","snapshot":"x","sections":["nope"]}"#, "unknown_section"),
        (r#"{"v":1,"cmd":"analyze","snapshot":"ghost","sections":["basic"]}"#, "unknown_snapshot"),
    ] {
        let reply = c.req(line);
        let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(false), "line {line} gave {reply}");
        assert_eq!(v["error"]["code"].as_str(), Some(code), "line {line} gave {reply}");
        assert!(!v["error"]["message"].as_str().unwrap_or("").is_empty());
    }
    // The connection survives every error: a good request still works.
    let status = c.req(r#"{"v":1,"cmd":"status"}"#);
    assert!(status.contains("\"ok\":true"));
    handle.shutdown();
    handle.join();
}

#[test]
fn queue_full_backpressure_reply() {
    // max_in_flight = 0: every analyze is refused with a structured
    // queue_full error instead of queueing unboundedly.
    let config = ServerConfig { max_in_flight: 0, ..ServerConfig::default() };
    let handle = start(config);
    handle.register_dataset("s", dataset().clone());
    let mut c = Client::connect(handle.local_addr());
    let reply = c.req(r#"{"v":1,"cmd":"analyze","snapshot":"s","sections":["basic"]}"#);
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(v["ok"].as_bool(), Some(false));
    assert_eq!(v["error"]["code"].as_str(), Some("queue_full"));
    handle.shutdown();
    handle.join();
}

#[test]
fn per_request_timeout_reply() {
    // A 1 ms budget covers neither a centrality run nor a cold detection:
    // both commands get a structured timeout from the shared request
    // pipeline while their workers finish in the background (shutdown
    // below still drains them).
    let config = ServerConfig { request_timeout_millis: 1, ..ServerConfig::default() };
    let handle = start(config);
    handle.register_dataset("s", dataset().clone());
    let mut c = Client::connect(handle.local_addr());
    // Registration runs on the connection thread, outside the budget.
    let reg = c.req(
        r#"{"v":1,"cmd":"register","name":"adv","scale":"small","churn_days":4,"sybil":true}"#,
    );
    assert!(reg.contains("\"ok\":true"), "sybil register failed: {reg}");
    for line in [
        r#"{"v":1,"cmd":"analyze","snapshot":"s","sections":["centrality"]}"#,
        r#"{"v":1,"cmd":"detect","snapshot":"adv"}"#,
    ] {
        let reply = c.req(line);
        let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(false), "line {line} gave {reply}");
        assert_eq!(v["error"]["code"].as_str(), Some("timeout"), "line {line} gave {reply}");
    }
    let metrics = c.req(r#"{"v":1,"cmd":"metrics"}"#);
    assert_eq!(counter(&metrics, "serve.rejected{reason=timeout}"), 2, "metrics: {metrics}");
    handle.shutdown();
    handle.join();
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let handle = start(ServerConfig::default());
    handle.register_dataset("s", dataset().clone());
    let addr = handle.local_addr();

    // Client A starts a slow analyze; client B asks for shutdown while A
    // is still in flight. A must still get its full reply.
    let worker = std::thread::spawn(move || {
        let mut a = Client::connect(addr);
        a.req(r#"{"v":1,"cmd":"analyze","snapshot":"s","sections":["centrality"],"options":{"seed":3}}"#)
    });
    // Give A a moment to be admitted before requesting shutdown.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let mut b = Client::connect(addr);
    let shutdown_reply = b.req(r#"{"v":1,"cmd":"shutdown"}"#);
    let v: serde_json::Value = serde_json::from_str(&shutdown_reply).unwrap();
    assert_eq!(v["ok"].as_bool(), Some(true));
    assert_eq!(v["drained"].as_bool(), Some(true));

    let a_reply = worker.join().expect("client A thread");
    let v: serde_json::Value = serde_json::from_str(&a_reply).unwrap();
    assert_eq!(
        v["ok"].as_bool(),
        Some(true),
        "in-flight request was dropped by shutdown: {a_reply}"
    );
    assert_eq!(v["sections"][0]["section"].as_str(), Some("centrality"));

    handle.join();

    // After shutdown, the listener is gone: new connections fail.
    assert!(TcpStream::connect(addr).is_err(), "server still accepting after shutdown");
}

/// One hostile input for the framer + parser, picked by `kind`: raw
/// bytes (mostly non-UTF-8), a line past [`MAX_LINE_BYTES`], deeply
/// nested JSON, an unversioned object, or a v1 line with junk spliced
/// in. `noise` seeds the variable parts.
fn hostile_input(kind: u8, noise: &[u8], depth: usize) -> Vec<u8> {
    let cmds = ["status", "analyze", "detect", "register", "metrics", "watch", "shutdown"];
    let cmd = cmds[noise.first().copied().unwrap_or(0) as usize % cmds.len()];
    match kind {
        0 => noise.to_vec(),
        1 => {
            let mut line = vec![b'{'; MAX_LINE_BYTES + 1 + depth % 4096];
            line.extend_from_slice(noise);
            line
        }
        2 => format!(
            "{{\"v\":1,\"cmd\":\"status\",\"snapshot\":{}1{}}}\n",
            "[".repeat(depth),
            "]".repeat(depth / 2)
        )
        .into_bytes(),
        3 => format!("{{\"cmd\":\"{cmd}\",\"snapshot\":\"s\",\"sections\":[\"basic\"]}}\n")
            .into_bytes(),
        _ => {
            let mut line = format!("{{\"v\":1,\"cmd\":\"{cmd}\",\"snapshot\":\"").into_bytes();
            line.extend_from_slice(noise);
            line.extend_from_slice(b"\"}\n{\"v\":1,\"cmd\":\"status\"}\n");
            line
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whatever bytes arrive, the framer yields lines or a typed I/O
    /// error, and every line parses to a `Request` or a typed protocol
    /// error — never a panic, never a stack overflow.
    #[test]
    fn hostile_bytes_yield_typed_errors_or_requests(
        kind in 0u8..5,
        noise in proptest::collection::vec(0u8..=255, 0..512),
        depth in 1usize..200_000,
    ) {
        let bytes = hostile_input(kind, &noise, depth);
        let mut reader = LineReader::new(&bytes[..]);
        let mut lines = 0;
        loop {
            match reader.next_frame() {
                Ok(Frame::Line(line)) => {
                    lines += 1;
                    match parse_request(&line) {
                        Ok(_) => prop_assert!(line.contains("\"v\""), "unversioned line parsed: {line:.200}"),
                        Err(e) => {
                            let code = e.code();
                            prop_assert!(
                                matches!(code, "bad_request" | "invalid_input" | "unknown_section"),
                                "untyped parse error {code}: {e}"
                            );
                            if kind == 3 {
                                prop_assert_eq!(code, "invalid_input");
                            }
                        }
                    }
                }
                Ok(Frame::Closed) => break,
                Ok(Frame::Idle) => prop_assert!(false, "a byte slice never times out"),
                Err(e) => {
                    prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                    prop_assert_eq!(kind, 1, "only the oversized line overflows the framer");
                    break;
                }
            }
        }
        if kind >= 2 {
            prop_assert!(lines >= 1, "newline-terminated input produced no line");
        }
    }
}

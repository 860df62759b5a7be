//! The socket serving battery: the wire protocol round-trips bit-for-bit
//! over real loopback TCP, a hammering multi-client load gets only correct
//! answers or typed errors, malformed/corrupted/truncated frames surface as
//! typed `WireError`s (proptest fuzz — never a panic), health frames report
//! readiness, and graceful drain answers everything it accepted.
//!
//! The served models come from the committed fixture registry under
//! `tests/fixtures/registry/` (see `serve make-fixtures`).

use std::io::Write as _;
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

use proptest::prelude::*;
use sbrl_hap::core::wire::{
    decode_message, encode_message, read_message, Message, MAX_FRAME_PAYLOAD, WIRE_MAGIC,
};
use sbrl_hap::core::{
    ClientConfig, HealthReport, ModelRegistry, SbrlError, ServeClient, ServeConfig, SocketServer,
    WireError,
};
use sbrl_hap::tensor::Matrix;

fn registry() -> ModelRegistry {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/registry");
    ModelRegistry::load_dir(&dir).expect("committed fixture registry loads")
}

fn bind_server(cfg: ServeConfig) -> SocketServer {
    SocketServer::bind(registry(), cfg, "127.0.0.1:0").expect("loopback bind")
}

/// Deterministic covariates for one request, keyed by `salt`.
fn probe(rows: usize, dim: usize, salt: u64) -> Matrix {
    let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut data = Vec::with_capacity(rows * dim);
    for _ in 0..rows * dim {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        data.push(((state >> 33) % 4001) as f64 / 1000.0 - 2.0);
    }
    Matrix::from_vec(rows, dim, data)
}

fn model_dim(server: &SocketServer, name: &str) -> usize {
    server
        .service()
        .registry()
        .require(name)
        .expect("model present")
        .model()
        .export_config()
        .in_dim()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A client-side config with a bounded deadline so no test can hang: every
/// call must resolve (Ok or typed Err) well inside the harness timeout.
fn bounded_client() -> ClientConfig {
    ClientConfig { deadline: Some(Duration::from_secs(20)), ..ClientConfig::default() }
}

// ---------------------------------------------------------------------------
// Loopback round trips
// ---------------------------------------------------------------------------

/// Every model's answer over the socket is bit-identical to the in-process
/// answer for the same covariates: the wire hop must not cost a single bit.
#[test]
fn loopback_predictions_are_bit_identical_to_in_process() {
    let server = bind_server(ServeConfig::default());
    let mut client = ServeClient::connect(server.local_addr(), bounded_client());
    for (i, name) in server.service().registry().names().iter().enumerate() {
        let x = probe(5, model_dim(&server, name), i as u64);
        let over_socket = client.predict(name, &x).expect("socket predict");
        let in_process = server.service().predict(name, x).expect("in-process predict");
        assert_eq!(bits(&over_socket.y0_hat), bits(&in_process.y0_hat), "{name} y0");
        assert_eq!(bits(&over_socket.y1_hat), bits(&in_process.y1_hat), "{name} y1");
    }
    server.shutdown();
}

/// A health probe over the wire reports readiness, queue shape, and the
/// loaded model names.
#[test]
fn health_frame_reports_readiness_and_models() {
    let server = bind_server(ServeConfig { queue_max: 7, ..ServeConfig::default() });
    let mut client = ServeClient::connect(server.local_addr(), bounded_client());
    let report = client.health().expect("health frame");
    assert!(report.ready);
    assert_eq!(report.queue_max, 7);
    let mut names = server.service().registry().names();
    let mut reported = report.models.clone();
    names.sort();
    reported.sort();
    assert_eq!(reported, names);
    server.shutdown();
}

/// Remote failures stay typed: an unknown model name comes back as the same
/// `SbrlError::Persist(UnknownModel)` shape the in-process path returns,
/// carrying the list of known names.
#[test]
fn unknown_model_over_the_socket_is_a_typed_error() {
    let server = bind_server(ServeConfig::default());
    let mut client = ServeClient::connect(server.local_addr(), bounded_client());
    let err = client.predict("no-such-model", &probe(2, 4, 0)).expect_err("must fail");
    match err {
        SbrlError::Persist(e) => {
            let msg = e.to_string();
            assert!(msg.contains("no-such-model"), "message: {msg}");
        }
        other => panic!("expected a typed Persist error, got: {other}"),
    }
    // The connection survives a typed failure: the next request succeeds.
    let names = server.service().registry().names();
    let name = names.first().expect("non-empty registry");
    let x = probe(2, model_dim(&server, name), 9);
    client.predict(name, &x).expect("connection still serviceable");
    server.shutdown();
}

/// Concurrent clients hammering one server each get every answer
/// bit-identical to the in-process baseline — no cross-talk between
/// interleaved frames or connections.
#[test]
fn multi_client_hammer_stays_bit_identical() {
    let clients = 4;
    let per_client = 8;
    let server = bind_server(ServeConfig::default());
    let names = server.service().registry().names();
    let dims: Vec<usize> = names.iter().map(|n| model_dim(&server, n)).collect();

    // In-process baselines, one per (client, request) pair.
    let mut expected = Vec::new();
    for c in 0..clients {
        for r in 0..per_client {
            let which = (c + r) % names.len();
            let x = probe(3, dims[which], (c * 1000 + r) as u64);
            let est = server.service().predict(&names[which], x).expect("baseline");
            expected.push((c, r, bits(&est.y0_hat), bits(&est.y1_hat)));
        }
    }

    let addr = server.local_addr();
    let results: Vec<(usize, usize, Vec<u64>, Vec<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let names = &names;
                let dims = &dims;
                s.spawn(move || {
                    let mut conn = ServeClient::connect(addr, bounded_client());
                    let mut out = Vec::with_capacity(per_client);
                    for r in 0..per_client {
                        let which = (c + r) % names.len();
                        let x = probe(3, dims[which], (c * 1000 + r) as u64);
                        let est = conn.predict(&names[which], &x).expect("hammer predict");
                        out.push((c, r, bits(&est.y0_hat), bits(&est.y1_hat)));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });

    for got in &results {
        let want =
            expected.iter().find(|(c, r, ..)| (*c, *r) == (got.0, got.1)).expect("baseline exists");
        assert_eq!(got.2, want.2, "client {} request {} y0", got.0, got.1);
        assert_eq!(got.3, want.3, "client {} request {} y1", got.0, got.1);
    }
    assert_eq!(results.len(), clients * per_client);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Degradation: malformed frames, drain, closed servers
// ---------------------------------------------------------------------------

/// A raw peer writing garbage gets a typed `Failure` frame back (or a clean
/// close) — the server neither hangs nor panics on attacker-shaped bytes.
#[test]
fn garbage_bytes_get_a_typed_failure_frame_and_a_close() {
    let server = bind_server(ServeConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).expect("raw connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    raw.write_all(&[0xFF; 32]).expect("write garbage");
    match read_message(&mut raw) {
        Ok(Message::Failure(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("bad frame magic"), "failure message: {msg}");
        }
        Ok(other) => panic!("expected a bad-magic failure frame, got: {other:?}"),
        // A clean close before the reply is also an acceptable degradation.
        Err(WireError::Truncated { .. } | WireError::Io { .. }) => {}
        Err(other) => panic!("unexpected wire error: {other}"),
    }
    // The server is still healthy for well-formed peers afterwards.
    let mut client = ServeClient::connect(server.local_addr(), bounded_client());
    assert!(client.health().expect("health after garbage peer").ready);
    server.shutdown();
}

/// Drain answers the world: after `shutdown()`, the listener is gone and a
/// fresh client gets a typed connect error, not a hang.
#[test]
fn shutdown_drains_and_then_refuses_new_connections() {
    let server = bind_server(ServeConfig::default());
    let addr = server.local_addr();
    let mut client = ServeClient::connect(addr, bounded_client());
    let names = server.service().registry().names();
    let name = names.first().expect("non-empty registry");
    let x = probe(2, model_dim(&server, name), 3);
    client.predict(name, &x).expect("predict before drain");

    server.shutdown();

    let mut fresh = ServeClient::connect(
        addr,
        ClientConfig { retries: 0, deadline: Some(Duration::from_secs(5)), ..bounded_client() },
    );
    match fresh.predict(name, &x) {
        Err(SbrlError::Wire(_)) | Err(SbrlError::TimedOut { .. }) => {}
        Err(other) => panic!("expected a typed wire/timeout error, got: {other}"),
        Ok(_) => panic!("a drained server must not answer new requests"),
    }
}

/// A tiny client-side deadline fails fast with `SbrlError::TimedOut` when
/// nothing is listening — the retry/backoff loop respects the budget.
#[test]
fn client_deadline_bounds_retries_against_a_dead_address() {
    // Bind-then-drop to get a loopback port that is currently closed.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        l.local_addr().expect("addr").port()
    };
    let addr = std::net::SocketAddr::from(([127, 0, 0, 1], port));
    let cfg = ClientConfig {
        deadline: Some(Duration::from_millis(200)),
        retries: 50,
        ..ClientConfig::default()
    };
    let started = std::time::Instant::now();
    let mut client = ServeClient::connect(addr, cfg);
    let err = client.predict("anything", &probe(1, 2, 0)).expect_err("must fail");
    assert!(
        matches!(err, SbrlError::TimedOut { .. } | SbrlError::Wire(_)),
        "expected timeout/wire error, got: {err}"
    );
    assert!(started.elapsed() < Duration::from_secs(10), "the deadline must bound the retry loop");
}

// ---------------------------------------------------------------------------
// Golden frames: the byte layout of each message kind, pinned
// ---------------------------------------------------------------------------

/// One frame of each kind encodes to exactly these bytes. The round-trip
/// tests would still pass if the encoder and decoder drifted together;
/// these would not. Every frame is
/// `[magic 4][version 1][kind 1][payload_len u32][payload][crc32 u32]`.
#[test]
fn each_message_kind_encodes_to_its_golden_frame() {
    let predict = Message::Predict {
        model: "TARNet".into(),
        x: Matrix::from_vec(2, 2, vec![1.0, -2.5, 0.5, 0.0]),
    };
    let predict_frame: &[u8] = &[
        0x89, 0x53, 0x42, 0x57, 0x01, 0x01, 0x32, 0x00, 0x00, 0x00, // header, 50-byte payload
        0x06, 0x00, 0x00, 0x00, 0x54, 0x41, 0x52, 0x4e, 0x65, 0x74, // model name (u32 length)
        0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, // rows, cols
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, // 1.0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0xc0, // -2.5
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, // 0.5
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 0.0
        0x46, 0x63, 0xe8, 0xd3, // crc32
    ];
    let prediction = Message::Prediction { y0_hat: vec![1.5], y1_hat: vec![-0.25] };
    let prediction_frame: &[u8] = &[
        0x89, 0x53, 0x42, 0x57, 0x01, 0x02, 0x14, 0x00, 0x00, 0x00, // header, 20-byte payload
        0x01, 0x00, 0x00, 0x00, // row count
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, // y0: 1.5
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0xbf, // y1: -0.25
        0xae, 0xfe, 0x72, 0x0c, // crc32
    ];
    let overloaded = Message::Failure(SbrlError::Overloaded { depth: 9, limit: 8 });
    let overloaded_frame: &[u8] = &[
        0x89, 0x53, 0x42, 0x57, 0x01, 0x03, 0x15, 0x00, 0x00, 0x00, // header, 21-byte payload
        0x03, // code: overloaded
        0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // depth
        0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // limit
        0x00, 0x00, 0x00, 0x00, // empty message
        0xa9, 0x67, 0xae, 0xff, // crc32
    ];
    let health_frame: &[u8] = &[
        0x89, 0x53, 0x42, 0x57, 0x01, 0x04, 0x00, 0x00, 0x00, 0x00, // header, empty payload
        0xc2, 0x50, 0x53, 0x01, // crc32
    ];
    let report = Message::HealthReport(HealthReport {
        ready: true,
        queue_depth: 3,
        queue_max: 64,
        models: vec!["a".into(), "TARNet".into()],
    });
    let report_frame: &[u8] = &[
        0x89, 0x53, 0x42, 0x57, 0x01, 0x05, 0x1c, 0x00, 0x00, 0x00, // header, 28-byte payload
        0x01, // ready
        0x03, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, // queue depth, queue max
        0x02, 0x00, 0x00, 0x00, // model count
        0x01, 0x00, 0x00, 0x00, 0x61, // "a"
        0x06, 0x00, 0x00, 0x00, 0x54, 0x41, 0x52, 0x4e, 0x65, 0x74, // "TARNet"
        0xee, 0x8e, 0xa2, 0x08, // crc32
    ];
    for (msg, golden) in [
        (predict, predict_frame),
        (prediction, prediction_frame),
        (overloaded, overloaded_frame),
        (Message::Health, health_frame),
        (report, report_frame),
    ] {
        assert_eq!(encode_message(&msg).expect("encodes"), golden, "{msg:?}");
    }
}

// ---------------------------------------------------------------------------
// Proptest fuzz of the frame decoder
// ---------------------------------------------------------------------------

fn sample_frame() -> Vec<u8> {
    let msg = Message::Predict { model: "CFR+SBRL-HAP".to_string(), x: probe(3, 4, 42) };
    encode_message(&msg).expect("encodes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any byte of a valid frame yields `Ok` (the flip missed
    /// nothing the decoder checks — impossible here thanks to the CRC) or a
    /// typed `WireError`; never a panic.
    #[test]
    fn corrupting_any_frame_byte_is_a_typed_wire_error(pos in 0usize..1_000_000, val in 0usize..1_000_000) {
        let mut bytes = sample_frame();
        let pos = pos % bytes.len();
        let flip = (val % 255) as u8 + 1; // never a no-op xor
        bytes[pos] ^= flip;
        match decode_message(&bytes) {
            Err(_) => {}
            Ok(msg) => panic!("a corrupted frame decoded cleanly: {msg:?}"),
        }
    }

    /// Truncating a valid frame at any point is a typed error, never a
    /// panic or an out-of-bounds read.
    #[test]
    fn truncating_a_frame_is_a_typed_wire_error(keep in 0usize..1_000_000) {
        let bytes = sample_frame();
        let keep = keep % bytes.len(); // strictly shorter than the frame
        prop_assert!(decode_message(&bytes[..keep]).is_err());
    }

    /// Arbitrary bytes — attacker-shaped input with no structure at all —
    /// decode to a typed error without panicking or allocating absurdly.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in proptest::collection::vec(0u8..=255u8, 0..64)) {
        let _ = decode_message(&bytes);
    }

    /// A frame whose header advertises an oversized payload is rejected by
    /// the length gate before any allocation happens.
    #[test]
    fn oversized_length_headers_are_rejected(extra in 1u64..1_000_000) {
        let len = (MAX_FRAME_PAYLOAD as u64 + extra).min(u32::MAX as u64) as u32;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WIRE_MAGIC);
        bytes.push(1); // version
        bytes.push(1); // kind: predict
        bytes.extend_from_slice(&len.to_le_bytes());
        match decode_message(&bytes) {
            Err(WireError::FrameTooLarge { .. } | WireError::Truncated { .. }) => {}
            other => panic!("expected FrameTooLarge/Truncated, got: {other:?}"),
        }
    }
}

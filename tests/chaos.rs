//! Chaos suite (behind `fault-inject`): with deterministic network and
//! worker-panic faults armed, every client call must resolve — a bit-identical
//! answer after transparent retries, or a typed error — within its deadline.
//! Zero hangs, zero panics escaping to the client, zero partial responses
//! mistaken for answers.
//!
//! Net faults index the server's response frames by write order (the
//! counter resets on every `inject`), so each scenario arms its fault for
//! frame 0 and fires it on the first reply. The `inject` guard serialises
//! the suite on the global fault plan, one scenario at a time.

#![cfg(feature = "fault-inject")]

use std::path::Path;
use std::time::{Duration, Instant};

use sbrl_hap::core::{
    inject, ClientConfig, FaultPlan, ModelRegistry, SbrlError, ServeClient, ServeConfig,
    SocketServer,
};
use sbrl_hap::tensor::Matrix;

fn plan(spec: &str) -> FaultPlan {
    FaultPlan::parse(spec).expect("valid fault plan")
}

fn registry() -> ModelRegistry {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/registry");
    ModelRegistry::load_dir(&dir).expect("committed fixture registry loads")
}

fn bind_server() -> SocketServer {
    SocketServer::bind(registry(), ServeConfig::default(), "127.0.0.1:0").expect("loopback bind")
}

/// Deterministic covariates, same recipe as the serving suite.
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

fn first_model(server: &SocketServer) -> (String, usize) {
    let names = server.service().registry().names();
    let name = names.first().expect("non-empty registry").clone();
    let dim = server
        .service()
        .registry()
        .require(&name)
        .expect("model present")
        .model()
        .export_config()
        .in_dim();
    (name, dim)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A retrying client with a hard deadline: the chaos contract is judged
/// against this budget.
fn chaos_client() -> ClientConfig {
    ClientConfig {
        deadline: Some(Duration::from_secs(20)),
        retries: 3,
        backoff_base: Duration::from_millis(2),
        ..ClientConfig::default()
    }
}

/// Runs one net-fault scenario: arm `spec`, fire one predict through a
/// retrying client, and require a bit-identical answer (the retry path must
/// fully mask the fault). Returns the call's elapsed time.
fn masked_by_retry(spec: &str) -> Duration {
    let _guard = inject(&plan(spec));
    let server = bind_server();
    let (name, dim) = first_model(&server);
    let x = probe(4, dim, 7);
    let expected = server.service().predict(&name, x.clone()).expect("in-process baseline");
    // The baseline was served in-process: no response frame was written, so
    // the armed fault is still waiting for the first *socket* reply.
    let mut client = ServeClient::connect(server.local_addr(), chaos_client());
    let started = Instant::now();
    let est = client
        .predict(&name, &x)
        .unwrap_or_else(|e| panic!("retries must mask the injected fault `{spec}`, got: {e}"));
    let elapsed = started.elapsed();
    assert_eq!(bits(&est.y0_hat), bits(&expected.y0_hat), "{spec} y0");
    assert_eq!(bits(&est.y1_hat), bits(&expected.y1_hat), "{spec} y1");
    server.shutdown();
    elapsed
}

#[test]
fn dropped_response_is_retried_to_a_bit_identical_answer() {
    masked_by_retry("net-drop@0");
}

#[test]
fn truncated_response_is_retried_to_a_bit_identical_answer() {
    masked_by_retry("net-trunc@0");
}

#[test]
fn corrupted_response_fails_the_crc_and_is_retried_to_a_bit_identical_answer() {
    masked_by_retry("net-garbage@0");
}

#[test]
fn delayed_response_arrives_late_but_intact() {
    let elapsed = masked_by_retry("net-delay@0:150");
    assert!(
        elapsed >= Duration::from_millis(150),
        "the injected delay must actually be paid: {elapsed:?}"
    );
}

/// With retries disabled, every injected net fault degrades to a typed
/// error within the deadline — never a hang and never a partial answer.
#[test]
fn without_retries_every_net_fault_is_a_typed_error_within_deadline() {
    for spec in ["net-drop@0", "net-trunc@0", "net-garbage@0"] {
        let _guard = inject(&plan(spec));
        let server = bind_server();
        let (name, dim) = first_model(&server);
        let cfg = ClientConfig {
            retries: 0,
            deadline: Some(Duration::from_secs(10)),
            ..ClientConfig::default()
        };
        let mut client = ServeClient::connect(server.local_addr(), cfg);
        let started = Instant::now();
        let err = client.predict(&name, &probe(3, dim, 1)).expect_err("fault must surface");
        assert!(
            matches!(err, SbrlError::Wire(_) | SbrlError::TimedOut { .. }),
            "{spec}: expected a typed wire/timeout error, got: {err}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "{spec}: the call must resolve inside the deadline"
        );
        server.shutdown();
    }
}

/// A worker panic inside one served prediction reaches the client as a
/// typed `WorkerPanic` failure frame, and the same server answers the next
/// request on the same connection bit-identically.
#[test]
fn worker_panic_fails_one_request_typed_and_the_server_keeps_serving() {
    let _guard = inject(&plan("panic-task@0"));
    let server = bind_server();
    let (name, dim) = first_model(&server);
    let model = server.service().registry().require(&name).expect("model present");
    let cfg = ClientConfig {
        retries: 0,
        deadline: Some(Duration::from_secs(10)),
        ..ClientConfig::default()
    };
    let mut client = ServeClient::connect(server.local_addr(), cfg);
    let err = client.predict(&name, &probe(2, dim, 5)).expect_err("the poisoned request fails");
    assert!(matches!(err, SbrlError::WorkerPanic { task: 0 }), "expected WorkerPanic, got: {err}");
    let x = probe(2, dim, 6);
    let est = client.predict(&name, &x).expect("the next request is answered");
    let expected = model.predict(&x);
    assert_eq!(bits(&est.y0_hat), bits(&expected.y0_hat));
    assert_eq!(bits(&est.y1_hat), bits(&expected.y1_hat));
    server.shutdown();
}

/// The whole gauntlet back to back: after every scenario the next server
/// boots clean, proving no fault leaks process-global state (beyond the
/// armed plan itself, which `inject` scopes).
#[test]
fn chaos_gauntlet_leaves_no_residue() {
    for spec in ["net-drop@0", "net-garbage@0", "net-trunc@0", "net-delay@0:20"] {
        masked_by_retry(spec);
    }
    // No plan armed: a plain round trip still works. The empty plan holds
    // the suite lock, so this reply cannot consume a fault another test armed.
    let _guard = inject(&FaultPlan::default());
    let server = bind_server();
    let (name, dim) = first_model(&server);
    let mut client = ServeClient::connect(server.local_addr(), chaos_client());
    client.predict(&name, &probe(2, dim, 11)).expect("clean server after the gauntlet");
    server.shutdown();
}

//! `serve` — the model-persistence + inference-service CLI.
//!
//! ```text
//! serve check <registry-dir>             load + smoke-test every artifact
//! serve bench <registry-dir> [opts]      threaded load run; p50/p99/throughput
//!     --requests N   total requests          (default 200)
//!     --clients C    client threads          (default 4)
//!     --rows R       rows per request        (default 16)
//!     --socket       also bench over a loopback TCP socket
//!     --json PATH    write a BENCH_serving.json-format snapshot
//! serve listen <registry-dir> [opts]     TCP front-end (wire protocol)
//!     --addr A       bind address            (default 127.0.0.1:7878; use
//!                                             port 0 for an ephemeral port)
//!     --smoke N      serve N loopback requests, verify each is
//!                    bit-identical to in-process predict, drain, exit
//! serve make-fixtures <fixture-root>     regenerate the committed golden
//!                                        fixtures (deliberate, reviewed act)
//! ```
//!
//! `listen` honours `SBRL_DEADLINE_MS` / `SBRL_QUEUE_MAX` (service knobs)
//! and the smoke client honours `SBRL_DEADLINE_MS` / `SBRL_RETRIES` /
//! `SBRL_BACKOFF_MS` (client knobs) — see `docs/SERVING.md`. Without
//! `--smoke`, `listen` serves until stdin reaches EOF, then drains
//! gracefully (finish every in-flight request, bounded by the drain
//! budget).
//!
//! Exit code 0 on success, 1 on any typed failure (printed to stderr).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use sbrl_core::persist::{fixture, ModelRegistry};
use sbrl_core::serve::{summarize_latencies, InferenceService, ServeConfig, SocketServer};
use sbrl_core::wire::{ClientConfig, ServeClient};
use sbrl_core::SbrlError;
use sbrl_models::Backbone;
use sbrl_tensor::Matrix;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") => args.get(1).map(|d| check(Path::new(d))).unwrap_or_else(usage_err),
        Some("bench") => {
            args.get(1).map(|d| bench(Path::new(d), &args[2..])).unwrap_or_else(usage_err)
        }
        Some("listen") => {
            args.get(1).map(|d| listen(Path::new(d), &args[2..])).unwrap_or_else(usage_err)
        }
        Some("make-fixtures") => {
            args.get(1).map(|d| make_fixtures(Path::new(d))).unwrap_or_else(usage_err)
        }
        _ => usage_err(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage_err() -> Result<(), SbrlError> {
    Err(SbrlError::InvalidConfig {
        what: "serve.args",
        message: "usage: serve <check|bench|listen|make-fixtures> <dir> [options]".into(),
    })
}

fn io_err(path: &Path, e: std::io::Error) -> SbrlError {
    SbrlError::Persist(sbrl_core::PersistError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    })
}

/// Loads a registry, boots the service, and fires one smoke request per
/// model — the CI gate that the committed fixture registry stays servable.
fn check(dir: &Path) -> Result<(), SbrlError> {
    let registry = ModelRegistry::load_dir(dir)?;
    println!("registry at {}: {} model(s)", dir.display(), registry.len());
    let names = registry.names();
    for name in &names {
        let model = registry.require(name)?;
        println!(
            "  {name}: seed {}, {} parameters",
            model.seed(),
            model.model().store().num_scalars()
        );
    }
    let service = InferenceService::start(registry, ServeConfig::default())?;
    for name in &names {
        let dim = service.registry().require(name)?.model().export_config().in_dim();
        let est = service.predict(name, fixture::probe_matrix(dim))?;
        let finite = est.y0_hat.iter().chain(est.y1_hat.iter()).all(|v| v.is_finite());
        if !finite {
            return Err(SbrlError::InvalidConfig {
                what: "serve.check",
                message: format!("model '{name}' produced non-finite predictions"),
            });
        }
        println!("  {name}: smoke request OK ({} rows, all finite)", est.y0_hat.len());
    }
    println!("check OK");
    Ok(())
}

/// Deterministic request covariates for the load run: a cheap LCG keyed by
/// `(client, request)` so every run replays the same request stream.
fn request_matrix(rows: usize, dim: usize, salt: u64) -> Matrix {
    let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut data = Vec::with_capacity(rows * dim);
    for _ in 0..rows * dim {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        data.push(((state >> 33) % 4001) as f64 / 1000.0 - 2.0);
    }
    Matrix::from_vec(rows, dim, data)
}

struct BenchOpts {
    requests: usize,
    clients: usize,
    rows: usize,
    socket: bool,
    json: Option<PathBuf>,
}

fn parse_bench_opts(args: &[String]) -> Result<BenchOpts, SbrlError> {
    let mut opts = BenchOpts { requests: 200, clients: 4, rows: 16, socket: false, json: None };
    let bad = |message: String| SbrlError::InvalidConfig { what: "serve.bench", message };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--socket" {
            opts.socket = true;
            continue;
        }
        let value = it.next().ok_or_else(|| bad(format!("flag {flag} needs a value")))?;
        let parse =
            |v: &str| v.parse::<usize>().map_err(|_| bad(format!("{flag}: not a number: {v}")));
        match flag.as_str() {
            "--requests" => opts.requests = parse(value)?.max(1),
            "--clients" => opts.clients = parse(value)?.max(1),
            "--rows" => opts.rows = parse(value)?.max(1),
            "--json" => opts.json = Some(PathBuf::from(value)),
            other => return Err(bad(format!("unknown flag {other}"))),
        }
    }
    Ok(opts)
}

/// The threaded load run: `clients` threads fire `requests` total requests
/// (round-robin over the registry's models), and the run reports request
/// latency percentiles and row throughput.
fn bench(dir: &Path, args: &[String]) -> Result<(), SbrlError> {
    let opts = parse_bench_opts(args)?;
    let registry = ModelRegistry::load_dir(dir)?;
    let names = registry.names();
    let dims: Vec<usize> = names
        .iter()
        .filter_map(|n| registry.get(n).map(|m| m.model().export_config().in_dim()))
        .collect();
    let service = InferenceService::start(registry, ServeConfig::default())?;

    let started = Instant::now();
    let mut all_latencies: Vec<u64> = Vec::with_capacity(opts.requests);
    let per_client = opts.requests.div_ceil(opts.clients);
    // lint: allow(spawn) — bench client load generators: the clients *are*
    // the external world here, so they must be independent threads, not
    // worker-pool tasks (the pool is busy serving the predictions).
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(opts.clients);
        for client in 0..opts.clients {
            let service = &service;
            let names = &names;
            let dims = &dims;
            handles.push(scope.spawn(move || {
                let mut latencies = Vec::with_capacity(per_client);
                for req in 0..per_client {
                    let which = (client + req) % names.len();
                    let Some(name) = names.get(which) else { continue };
                    let Some(&dim) = dims.get(which) else { continue };
                    let x = request_matrix(opts.rows, dim, (client * 1_000_003 + req) as u64);
                    let t0 = Instant::now();
                    let outcome = service.predict(name, x);
                    let elapsed = t0.elapsed().as_nanos() as u64;
                    if outcome.is_ok() {
                        latencies.push(elapsed);
                    }
                }
                latencies
            }));
        }
        for handle in handles {
            if let Ok(latencies) = handle.join() {
                all_latencies.extend(latencies);
            }
        }
    });
    let wall = started.elapsed();

    let completed = all_latencies.len();
    let summary = summarize_latencies(all_latencies).ok_or_else(|| SbrlError::InvalidConfig {
        what: "serve.bench",
        message: "no request completed".into(),
    })?;
    let total_rows = completed * opts.rows;
    let rows_per_sec = total_rows as f64 / wall.as_secs_f64().max(1e-9);
    let mean_ns_per_row = summary.mean_ns / opts.rows.max(1) as u64;

    println!("serving bench: {completed} requests x {} rows, {} clients", opts.rows, opts.clients);
    println!("  p50 latency  {:>12} ns", summary.p50_ns);
    println!("  p99 latency  {:>12} ns", summary.p99_ns);
    println!("  mean/row     {:>12} ns", mean_ns_per_row);
    println!("  throughput   {rows_per_sec:>12.0} rows/s (wall {:.3}s)", wall.as_secs_f64());

    let socket = if opts.socket {
        let (p50, p99) = socket_bench(dir, &opts)?;
        println!("  socket p50   {p50:>12} ns");
        println!("  socket p99   {p99:>12} ns");
        Some((p50, p99))
    } else {
        None
    };

    if let Some(json_path) = &opts.json {
        let body = bench_json(
            summary.p50_ns,
            summary.p99_ns,
            mean_ns_per_row,
            completed,
            opts.clients,
            socket,
        );
        std::fs::write(json_path, body).map_err(|e| io_err(json_path, e))?;
        println!("  snapshot     {}", json_path.display());
    }
    Ok(())
}

/// The same load run as [`bench()`], but over a loopback TCP socket: every
/// request pays the full wire round trip (encode, CRC, kernel hop, decode).
fn socket_bench(dir: &Path, opts: &BenchOpts) -> Result<(u64, u64), SbrlError> {
    let registry = ModelRegistry::load_dir(dir)?;
    let names = registry.names();
    let dims: Vec<usize> = names
        .iter()
        .filter_map(|n| registry.get(n).map(|m| m.model().export_config().in_dim()))
        .collect();
    let server = SocketServer::bind(registry, ServeConfig::default(), "127.0.0.1:0")?;
    let addr = server.local_addr();
    let per_client = opts.requests.div_ceil(opts.clients);
    let mut all_latencies: Vec<u64> = Vec::with_capacity(opts.requests);
    // lint: allow(spawn) — socket bench clients: real TCP peers must live on
    // their own threads; the service's worker pool is the system under test.
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(opts.clients);
        for client in 0..opts.clients {
            let names = &names;
            let dims = &dims;
            handles.push(scope.spawn(move || {
                let mut latencies = Vec::with_capacity(per_client);
                let mut conn = ServeClient::connect(addr, ClientConfig::default());
                for req in 0..per_client {
                    let which = (client + req) % names.len().max(1);
                    let Some(name) = names.get(which) else { continue };
                    let Some(&dim) = dims.get(which) else { continue };
                    let x = request_matrix(opts.rows, dim, (client * 1_000_003 + req) as u64);
                    let t0 = Instant::now();
                    let outcome = conn.predict(name, &x);
                    let elapsed = t0.elapsed().as_nanos() as u64;
                    if outcome.is_ok() {
                        latencies.push(elapsed);
                    }
                }
                latencies
            }));
        }
        for handle in handles {
            if let Ok(latencies) = handle.join() {
                all_latencies.extend(latencies);
            }
        }
    });
    server.shutdown();
    let summary = summarize_latencies(all_latencies).ok_or_else(|| SbrlError::InvalidConfig {
        what: "serve.bench",
        message: "no socket request completed".into(),
    })?;
    Ok((summary.p50_ns, summary.p99_ns))
}

/// Renders the `BENCH_serving.json` snapshot in the same line-oriented
/// layout as the criterion shim's `SBRL_BENCH_JSON` output, so
/// `bench_compare` parses it unchanged. Latency metrics only (lower is
/// better, matching the comparator's direction).
fn bench_json(
    p50: u64,
    p99: u64,
    ns_per_row: u64,
    samples: usize,
    threads: usize,
    socket: Option<(u64, u64)>,
) -> String {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"bench\": \"serving\",\n");
    body.push_str(&format!("  \"git_rev\": \"{rev}\",\n"));
    body.push_str(&format!("  \"threads\": {threads},\n"));
    body.push_str("  \"results\": [\n");
    body.push_str(&format!(
        "    {{\"name\": \"serving/request_p50\", \"median_ns\": {p50}, \"samples\": {samples}}},\n"
    ));
    body.push_str(&format!(
        "    {{\"name\": \"serving/request_p99\", \"median_ns\": {p99}, \"samples\": {samples}}},\n"
    ));
    let tail = if socket.is_some() { "," } else { "" };
    body.push_str(&format!(
        "    {{\"name\": \"serving/mean_ns_per_row\", \"median_ns\": {ns_per_row}, \"samples\": {samples}}}{tail}\n"
    ));
    if let Some((sp50, sp99)) = socket {
        body.push_str(&format!(
            "    {{\"name\": \"serving/socket_request_p50\", \"median_ns\": {sp50}, \"samples\": {samples}}},\n"
        ));
        body.push_str(&format!(
            "    {{\"name\": \"serving/socket_request_p99\", \"median_ns\": {sp99}, \"samples\": {samples}}}\n"
        ));
    }
    body.push_str("  ]\n}\n");
    body
}

/// `serve listen`: boots the socket front-end over a loaded registry and
/// serves the wire protocol until stdin reaches EOF (operator stop signal)
/// or, with `--smoke N`, until N loopback requests have been verified
/// bit-identical to the in-process answers. Either way the exit path is a
/// graceful drain: every in-flight request finishes, bounded by the drain
/// budget, before the process returns.
fn listen(dir: &Path, args: &[String]) -> Result<(), SbrlError> {
    let bad = |message: String| SbrlError::InvalidConfig { what: "serve.listen", message };
    let mut addr = String::from("127.0.0.1:7878");
    let mut smoke: Option<usize> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| bad(format!("flag {flag} needs a value")))?;
        match flag.as_str() {
            "--addr" => addr = value.clone(),
            "--smoke" => {
                let n = value
                    .parse::<usize>()
                    .map_err(|_| bad(format!("--smoke: not a number: {value}")))?;
                smoke = Some(n.max(1));
            }
            other => return Err(bad(format!("unknown flag {other}"))),
        }
    }

    let registry = ModelRegistry::load_dir(dir)?;
    let cfg = ServeConfig::from_env()?;
    let server = SocketServer::bind(registry, cfg, addr.as_str())?;
    let service = server.service();
    let deadline = service
        .config()
        .deadline
        .map(|d| format!("{}ms", d.as_millis()))
        .unwrap_or_else(|| "off".into());
    println!(
        "listening on {} ({} model(s), queue_max {}, deadline {deadline})",
        server.local_addr(),
        service.registry().len(),
        service.config().queue_max,
    );

    match smoke {
        Some(n) => smoke_requests(&server, n)?,
        None => {
            // Serve until the operator (or CI harness) closes stdin.
            let mut sink = Vec::new();
            std::io::Read::read_to_end(&mut std::io::stdin().lock(), &mut sink)
                .map_err(|e| bad(format!("stdin wait failed: {e}")))?;
        }
    }
    let in_flight = server.shutdown();
    println!("drained: {in_flight} request(s) were in flight at close");
    Ok(())
}

/// Fires `n` loopback requests through a real TCP [`ServeClient`] and
/// verifies each reply is bit-identical to the in-process answer for the
/// same covariates — the wire hop must not cost a single bit.
fn smoke_requests(server: &SocketServer, n: usize) -> Result<(), SbrlError> {
    let service = server.service();
    let names = service.registry().names();
    let mut client = ServeClient::connect(server.local_addr(), ClientConfig::from_env()?);
    let report = client.health()?;
    if !report.ready {
        return Err(SbrlError::InvalidConfig {
            what: "serve.listen",
            message: "health frame reports the service is not ready".into(),
        });
    }
    println!(
        "health: ready, queue {}/{}, models [{}]",
        report.queue_depth,
        report.queue_max,
        report.models.join(", ")
    );
    for req in 0..n {
        let which = req % names.len().max(1);
        let Some(name) = names.get(which) else { continue };
        let dim = service.registry().require(name)?.model().export_config().in_dim();
        let x = request_matrix(4, dim, req as u64);
        let over_socket = client.predict(name, &x)?;
        let in_process = service.predict(name, x)?;
        let identical = over_socket
            .y0_hat
            .iter()
            .zip(&in_process.y0_hat)
            .chain(over_socket.y1_hat.iter().zip(&in_process.y1_hat))
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if !identical {
            return Err(SbrlError::InvalidConfig {
                what: "serve.listen",
                message: format!("smoke request {req} ({name}) was not bit-identical"),
            });
        }
        println!("  smoke {req}: {name} OK ({} rows, bit-identical)", over_socket.y0_hat.len());
    }
    Ok(())
}

/// Regenerates the committed golden fixtures under `root`:
///
/// * `golden_v2.sbrl` — the golden model at the current format version;
/// * `golden_v1.sbrl` — the same model encoded at format version 1
///   (version-skew coverage: no `FITR` section);
/// * `golden_expected_bits.txt` — the model's bit-exact predictions on the
///   deterministic probe matrix;
/// * `registry/` — two distinct-method artifacts the serve tests boot from.
fn make_fixtures(root: &Path) -> Result<(), SbrlError> {
    let registry_dir = root.join("registry");
    std::fs::create_dir_all(&registry_dir).map_err(|e| io_err(&registry_dir, e))?;

    let golden = fixture::train_golden()?;
    let second = fixture::train_second()?;

    let write = |path: &Path, bytes: &[u8]| -> Result<(), SbrlError> {
        std::fs::write(path, bytes).map_err(|e| io_err(path, e))?;
        println!("wrote {} ({} bytes)", path.display(), bytes.len());
        Ok(())
    };
    write(&root.join("golden_v2.sbrl"), &golden.to_sbrl_bytes())?;
    write(&root.join("golden_v1.sbrl"), &golden.to_sbrl_bytes_versioned(1))?;
    write(&registry_dir.join("cfr-sbrl-hap.sbrl"), &golden.to_sbrl_bytes())?;
    write(&registry_dir.join("tarnet.sbrl"), &second.to_sbrl_bytes())?;

    // The expected prediction bits the golden tests compare against.
    let probe = fixture::probe_matrix(golden.model().export_config().in_dim());
    let est = golden.predict(&probe);
    let mut bits = String::new();
    bits.push_str("# Bit-exact predictions of tests/fixtures/golden_v2.sbrl on\n");
    bits.push_str("# persist::fixture::probe_matrix, NumericsMode::BitExact.\n");
    bits.push_str("# Regenerate (deliberately!) with:\n");
    bits.push_str(
        "#   cargo run --release -p sbrl-core --bin serve -- make-fixtures tests/fixtures\n",
    );
    for v in &est.y0_hat {
        bits.push_str(&format!("y0 {:016x}\n", v.to_bits()));
    }
    for v in &est.y1_hat {
        bits.push_str(&format!("y1 {:016x}\n", v.to_bits()));
    }
    let bits_path = root.join("golden_expected_bits.txt");
    std::fs::write(&bits_path, &bits).map_err(|e| io_err(&bits_path, e))?;
    println!("wrote {}", bits_path.display());
    Ok(())
}

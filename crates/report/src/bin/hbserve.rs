//! `hbserve` — the networked corpus service.
//!
//! ```sh
//! cargo run -p hardbound_report --bin hbserve -- \
//!     [--listen 127.0.0.1:7878] [--store PATH] [--workers N] \
//!     [--shard K/N] [--ttl SECS] [--metrics-addr ADDR]
//! ```
//!
//! Binds a TCP front end around one shared (optionally persistent)
//! corpus service: clients submit cell grids over the length-prefixed
//! `hardbound_serve` protocol, the server dedups each cell against the
//! store, drains misses through the lock-free batch scheduler, and
//! streams results back in chunks. Every figure/corpus driver becomes a
//! client transparently by setting `HB_SERVE_ADDR` to this server's
//! address — so one long-lived warm server amortizes simulation across
//! any number of `hbrun`s, bench runs and CI processes.
//!
//! * `--listen ADDR` — bind address (default `127.0.0.1:0`, an ephemeral
//!   port). The bound address is printed as the first stdout line
//!   (`hbserve listening on ADDR`), so wrappers can parse it.
//! * `--store PATH` — persist the result store at `PATH` (defaults to
//!   `HB_STORE_PATH` when set); the log is compacted on shutdown.
//! * `--workers N` — execution worker shards (default: `HB_JOBS` or all
//!   cores).
//! * `--shard K/N` — declare this server shard *K* of an *N*-shard
//!   cluster (`K` in `0..N`): submitted cells are classified as owned vs
//!   foreign in the stats. Routing is advisory — foreign cells still
//!   execute, which is exactly how clients fail over a dead shard.
//! * `--ttl SECS` — expire store entries idle for `SECS` seconds (off
//!   by default).
//! * `--metrics-addr ADDR` — also serve the Prometheus-style text
//!   exposition over plain HTTP at `GET /` on `ADDR` (off by default).
//!   The bound address is printed as a second stdout line
//!   (`hbserve metrics on ADDR`). The same text is available in-protocol
//!   via the `METRICS` request.
//!
//! The flags layer over the `HB_*` settings (`hardbound_runtime::settings`):
//! `HB_STORE_PATH` and `HB_JOBS` give the defaults above, `HB_PROF=1` arms
//! the profiler that `PROFILE` requests read, and a value outside its
//! variable's grammar is a usage error (exit 2).
//!
//! The server runs until a client sends the protocol `SHUTDOWN` request;
//! it then checkpoints the store and exits 0.

use std::process::ExitCode;
use std::sync::{Arc, PoisonError};

use hardbound_compiler::Mode;
use hardbound_runtime::{build_machine_with_config, Settings};
use hardbound_serve::net::{Builder, TagCheck};
use hardbound_serve::{PersistentService, Server};

struct Args {
    listen: String,
    store: Option<String>,
    workers: usize,
    shard: Option<(usize, usize)>,
    ttl: Option<std::time::Duration>,
    metrics_addr: Option<String>,
}

/// Parses `K/N` with `K < N` (the `--shard` form).
fn parse_shard(v: &str) -> Option<(usize, usize)> {
    let (k, n) = v.split_once('/')?;
    let k = k.trim().parse::<usize>().ok()?;
    let n = n.trim().parse::<usize>().ok()?;
    (k < n).then_some((k, n))
}

/// Parses the command line over the defaults `settings` gives.
fn parse_args(settings: &Settings) -> Result<Args, String> {
    let mut listen = "127.0.0.1:0".to_owned();
    let mut store = settings.store_path.clone();
    let mut workers = settings.workers();
    let mut shard = None;
    let mut ttl = None;
    let mut metrics_addr = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => listen = it.next().ok_or("--listen needs an address")?,
            "--store" => store = Some(it.next().ok_or("--store needs a path")?),
            "--workers" => {
                let v = it.next().ok_or("--workers needs a count")?;
                workers =
                    v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--workers must be a positive integer, got `{v}`")
                    })?;
            }
            "--shard" => {
                let v = it.next().ok_or("--shard needs K/N")?;
                shard = Some(parse_shard(&v).ok_or_else(|| {
                    format!("--shard must be K/N with K < N (e.g. 0/3), got `{v}`")
                })?);
            }
            "--ttl" => {
                let v = it.next().ok_or("--ttl needs seconds")?;
                ttl = Some(std::time::Duration::from_secs(v.parse::<u64>().map_err(
                    |_| format!("--ttl must be a whole number of seconds, got `{v}`"),
                )?));
            }
            "--metrics-addr" => {
                metrics_addr = Some(it.next().ok_or("--metrics-addr needs an address")?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: hbserve [--listen ADDR] [--store PATH] [--workers N] \
                     [--shard K/N] [--ttl SECS] [--metrics-addr ADDR]"
                        .to_owned(),
                )
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(Args {
        listen,
        store,
        workers,
        shard,
        ttl,
        metrics_addr,
    })
}

/// Serves the metrics exposition over minimal HTTP: every connection gets
/// a `200 OK text/plain` with the current render, regardless of path —
/// enough for `curl` and a Prometheus scrape config, with no HTTP
/// machinery worth auditing.
fn serve_metrics_http(
    listener: std::net::TcpListener,
    render: impl Fn() -> String + Send + Sync + 'static,
) {
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { continue };
            // Drain (one read of) the request; the response is the same
            // for every path and method.
            let mut buf = [0u8; 1024];
            use std::io::{Read as _, Write as _};
            let _ = conn.read(&mut buf);
            let body = render();
            let _ = write!(
                conn,
                "HTTP/1.1 200 OK\r\ncontent-type: text/plain; version=0.0.4\r\n\
                 content-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            );
        }
    });
}

/// Decodes the wire tag back to a compiler mode (the client sends
/// `mode as u64`, exactly the salt the in-process service uses — so the
/// remote store keys match local ones bit for bit).
fn mode_of(tag: u64) -> Option<Mode> {
    Mode::ALL.into_iter().find(|&m| m as u64 == tag)
}

fn main() -> ExitCode {
    let settings = match hardbound_runtime::settings::load() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let args = match parse_args(settings) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut svc = match &args.store {
        Some(path) => match PersistentService::open(args.workers, path) {
            Ok(svc) => svc,
            Err(e) => {
                eprintln!("cannot open store {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => PersistentService::new(args.workers),
    };
    svc.set_ttl(args.ttl);
    svc.set_profiling(settings.prof);
    let build: Arc<Builder> = Arc::new(|program, config, tag| {
        let mode = mode_of(tag).expect("tags are validated before any build");
        build_machine_with_config(program, mode, config)
    });
    let tag_ok: Arc<TagCheck> = Arc::new(|tag| mode_of(tag).is_some());
    let mut server = match Server::bind(&args.listen, svc, build, tag_ok) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", args.listen);
            return ExitCode::from(2);
        }
    };
    if let Some((index, count)) = args.shard {
        server.set_shard(index, count);
    }
    match server.local_addr() {
        Ok(addr) => {
            // The first stdout line is the contract wrappers parse; flush
            // so a piped reader sees it before the first request.
            println!("hbserve listening on {addr}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("cannot read bound address: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(maddr) = &args.metrics_addr {
        let listener = match std::net::TcpListener::bind(maddr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("cannot bind metrics address {maddr}: {e}");
                return ExitCode::from(2);
            }
        };
        match listener.local_addr() {
            Ok(addr) => {
                // Second stdout line, same parse-friendly shape as the
                // main banner (ephemeral-port discovery for wrappers).
                println!("hbserve metrics on {addr}");
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
            }
            Err(e) => {
                eprintln!("cannot read metrics address: {e}");
                return ExitCode::from(2);
            }
        }
        serve_metrics_http(listener, server.metrics_renderer());
    }
    let shared = server.service();
    if let Err(e) = server.run() {
        eprintln!("accept loop failed: {e}");
        return ExitCode::FAILURE;
    }
    // Shutdown: compact the persistent log and report the totals.
    let mut svc = shared.lock().unwrap_or_else(PoisonError::into_inner);
    if let Err(e) = svc.checkpoint() {
        eprintln!("checkpoint failed: {e}");
        return ExitCode::FAILURE;
    }
    let stats = svc.stats();
    eprintln!(
        "hbserve: served {} hits / {} misses, {} results resident{}",
        stats.service.store.hits,
        stats.service.store.misses,
        stats.service.store_len,
        match stats.log {
            Some(log) => format!(", {} log records appended", log.appended),
            None => String::new(),
        }
    );
    ExitCode::SUCCESS
}

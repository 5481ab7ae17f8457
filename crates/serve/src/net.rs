//! The `hbserve` socket protocol: a length-prefixed request/response
//! framing over TCP.
//!
//! A client submits a grid of cells in one frame and reads the outcomes
//! back on the same connection. The server dedups each cell against the
//! shared (persistent) result store, drains the misses through the
//! lock-free `exec::batch` scheduler in bounded **chunks**, and streams
//! each chunk's outcomes back as soon as it completes — the client
//! consumes results incrementally while later chunks still execute, and
//! concurrent clients interleave at chunk granularity because the service
//! lock is released between chunks. Cross-client dedup falls out of the
//! shared store: a cell one client computed replays for every later
//! submitter.
//!
//! ## Frames
//!
//! Every frame is `length (u32, LE) | kind (u8) | payload`; the length
//! counts the kind byte plus the payload. Each request has the response
//! below, or `ERR` (diagnostic string: the whole request is rejected and
//! nothing executed):
//!
//! | request | payload | response |
//! |---|---|---|
//! | `HELLO` | protocol version (u32) | `HELLO`: the server's protocol version (u32) |
//! | `SUBMIT` | trace id (u64, `0` = untraced), parent span id (u64), listing count (u32), the **deduplicated listing table** (strs), job count (u32), then per job: listing index (u32), [`MachineConfig`], salt (u64), tag (u64) | `RESULTS` frames (start index u32, count u32, then `count` encoded [`RunOutcome`]s), a `SPANS` frame for traced submissions (span count u32, then encoded trace spans), then `DONE` (total results u32) |
//! | `METRICS` | empty | `METRICS`: Prometheus-style text (str) |
//! | `PROFILE` | empty | `PROFILE`: the hot-spot profile in `Profile::to_text` form (str; empty unless the server runs with `HB_PROF` on) |
//! | `SHUTDOWN` | empty | `DONE` (0) |
//!
//! Every payload has a fixed layout and both sides parse it strictly:
//! short or trailing bytes are errors, never guesses.
//!
//! Both ends hold the grid as [`Job<u64>`](Job): [`Client::run_into`]
//! takes the cells the server runs. Cells reference a table of distinct
//! listings, so a mode sweep over one program ships — and parses — the
//! listing once instead of per cell. The server turns cells back into
//! jobs one chunk at a time, so a submission holds at most one chunk of
//! program copies. A
//! submission lives only as long as its connection: when the connection
//! drops, the server stops after the chunk it is running, and the client
//! resubmits the cells it is missing on a new one — the cells the server
//! already ran come back from the store. With a trace context the server
//! stamps its spans under the submitter's `TraceId` and ships them back in
//! the `SPANS` frame, so the merged JSONL reads as one tree.
//!
//! ## Versioning
//!
//! Client and server ship from one workspace and speak one protocol,
//! [`PROTOCOL_VERSION`]. [`Client::connect`] opens every connection with
//! `HELLO` and fails with [`ServeError::VersionMismatch`], naming both
//! versions, when the server answers with another one; there is no
//! fallback. The server keeps no per-connection state and does not
//! require `HELLO` before other requests. Any change to a frame layout —
//! including the [`wire`](crate::wire) encodings frames embed — bumps
//! [`PROTOCOL_VERSION`]. Retired kind bytes are never reused, so a stale
//! peer cannot misparse a payload; a unit test holds the live kinds clear
//! of `RETIRED_KINDS`.
//!
//! Programs travel as their **assembly listing** — the workspace's pinned
//! program serialization (round-trips through `isa::parse_program`, and
//! its bytes are exactly what `ProgramId` hashes), so a re-parsed program
//! lands on the same store keys as the client's and byte-identity holds
//! end to end. The `SUBMIT` encoder renders each distinct program once
//! per submission; callers never handle listings.
//!
//! ## Listing cache
//!
//! A warm server receives the same listings again and again (a figure
//! grid runs each image under every encoding, ablation and tag-cache
//! size, one submission per figure). Each [`Server`] therefore keeps a
//! cache from the exact listing text to its parsed, validated program; a
//! hit skips the parse and the validation, and every cell of the listing
//! shares the one parsed program. Entries are found by string equality —
//! a listing one byte off is a miss — and only listings of a submission
//! that decoded in full are admitted, so a rejected submission leaves the
//! cache unchanged. The cache holds at most a constant 16 MiB of listing
//! text, evicting the oldest entries first. The counters
//! `hbserve_listings_parsed` and `hbserve_listing_cache_hits` in the
//! server's `METRICS` show whether it is hit.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::BuildHasherDefault;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use hardbound_core::{FoldHasher, Machine, MachineConfig, RunOutcome};
use hardbound_exec::service::Job;
use hardbound_isa::Program;
use hardbound_telemetry::{
    trace, Counter, Gauge, Histogram, Registry, SpanEvent, SpanId, SpanTimer, TraceCtx, TraceId,
};

use crate::persist::PersistentService;
use crate::shard::ShardRing;
use crate::wire::{
    decode_config, decode_outcome, decode_span, encode_config, encode_outcome, encode_span, Reader,
    WireError, Writer,
};

/// The one protocol this build speaks (see the module docs' "Versioning").
pub const PROTOCOL_VERSION: u32 = 4;

/// Request kinds (client → server).
const REQ_SHUTDOWN: u8 = 3;
const REQ_METRICS: u8 = 8;
const REQ_PROFILE: u8 = 9;
const REQ_HELLO: u8 = 10;
const REQ_SUBMIT: u8 = 11;
/// Response kinds (server → client).
const RESP_RESULTS: u8 = 16;
const RESP_DONE: u8 = 17;
const RESP_ERR: u8 = 19;
const RESP_SPANS: u8 = 22;
const RESP_METRICS: u8 = 23;
const RESP_PROFILE: u8 = 24;
const RESP_HELLO: u8 = 25;

/// Kind bytes earlier protocol versions used, never to be reused: requests
/// 2 (`STATS`) and 5 (`WATCH`), responses 18 (`STATS`) and 20 (`TICKET`),
/// and the older requests 1, 4, 6, 7 and response 21.
#[cfg(test)]
const RETIRED_KINDS: [u8; 9] = [1, 2, 4, 5, 6, 7, 18, 20, 21];

/// Cells executed (and streamed) per service-lock acquisition: small
/// enough that results flow back while the tail still runs and that
/// concurrent clients interleave, large enough to amortize the lock.
const CHUNK: usize = 32;

/// Sanity cap on one frame (a submission of thousands of cells fits in a
/// few MB; anything past this is a protocol error, not data).
const MAX_FRAME: u32 = 1 << 30;

/// Payload bytes a frame read reserves before any arrive; past this the
/// buffer grows only with the bytes actually received, so a header that
/// merely *declares* a huge frame commits no memory.
const FRAME_RESERVE: u64 = 64 << 10;

/// Total listing text the per-server listing cache holds (see
/// `ListingCache`). A figure grid's 252 distinct smoke images are ~7 MiB
/// of listings, so a warm grid stays resident with room to spare; the
/// parsed programs the entries own add somewhat less than that again.
const LISTING_CACHE_BYTES: usize = 16 << 20;

/// Hard cap on cells per submission. Well beyond any figure grid (a full
/// pipeline is a few thousand cells), comfortably inside `u32` — the
/// protocol's count fields can never truncate a grid the client accepted.
/// Larger corpora split into multiple submissions.
pub const MAX_GRID: usize = 1 << 16;

/// Why a client call failed.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure.
    Io(io::Error),
    /// A frame failed to decode.
    Wire(WireError),
    /// The server rejected the request with a diagnostic.
    Server(String),
    /// The server violated the protocol (wrong frame kind/shape).
    Protocol(&'static str),
    /// The grid exceeds [`MAX_GRID`]; rejected before anything is sent.
    Oversized {
        /// How many cells the caller submitted.
        cells: usize,
    },
    /// The server speaks another protocol version (checked at connect).
    VersionMismatch {
        /// This build's [`PROTOCOL_VERSION`].
        client: u32,
        /// The version the server answered `HELLO` with.
        server: u32,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "socket error: {e}"),
            ServeError::Wire(e) => write!(f, "malformed frame: {e}"),
            ServeError::Server(msg) => write!(f, "server error: {msg}"),
            ServeError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ServeError::Oversized { cells } => write!(
                f,
                "grid of {cells} cells exceeds the {MAX_GRID}-cell submission \
                 limit (split the corpus into multiple submissions)"
            ),
            ServeError::VersionMismatch { client, server } => write!(
                f,
                "protocol version mismatch: client speaks v{client}, server speaks v{server}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> ServeError {
        ServeError::Wire(e)
    }
}

fn write_frame(stream: &mut TcpStream, kind: u8, payload: &[u8]) -> io::Result<()> {
    let len = (payload.len() + 1) as u32;
    let mut frame = Vec::with_capacity(5 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.push(kind);
    frame.extend_from_slice(payload);
    stream.write_all(&frame)
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary. The
/// payload buffer starts at most [`FRAME_RESERVE`] bytes and grows with
/// the data received, never with the declared length alone.
fn read_frame(stream: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, ServeError> {
    let mut len = [0u8; 4];
    match stream.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len);
    if len == 0 || len > MAX_FRAME {
        return Err(ServeError::Protocol("frame length out of range"));
    }
    // The kind byte is read separately so the (possibly multi-MB) payload
    // lands directly at offset 0 — no shift-by-one memmove afterwards.
    let mut kind = [0u8; 1];
    stream.read_exact(&mut kind)?;
    let want = u64::from(len - 1);
    let mut payload = Vec::with_capacity(want.min(FRAME_RESERVE) as usize);
    stream.take(want).read_to_end(&mut payload)?;
    if payload.len() as u64 != want {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    Ok(Some((kind[0], payload)))
}

/// Builds the machine for one remote cell; `hbserve` maps the tag back to
/// a compiler mode and attaches mode-specific extras (object tables).
pub type Builder = dyn Fn(Program, MachineConfig, u64) -> Machine + Send + Sync;

/// Validates a tag before any cell executes; unknown tags reject the
/// whole submission with a diagnostic instead of a builder panic.
pub type TagCheck = dyn Fn(u64) -> bool + Send + Sync;

/// Shard identity of a cluster member (`hbserve --shard k/n`): used to
/// classify submitted cells as owned vs foreign (re-routed) in the
/// server's metrics. Foreign cells are **served, not rejected** — they
/// are exactly how clients fail over a dead shard's cells.
#[derive(Debug)]
struct ShardState {
    index: usize,
    ring: ShardRing,
    owned: AtomicU64,
    foreign: AtomicU64,
}

/// Per-server metric handles plus the server-local [`Registry`] they are
/// registered in. Each [`Server`] owns its own registry (test binaries run
/// several servers in one process; their counters must not alias) — the
/// `METRICS` verb and the `--metrics-addr` exposition render it together
/// with the process-global registry.
struct Metrics {
    registry: Registry,
    submissions: Counter,
    cells_executed: Counter,
    cells_in_flight: Gauge,
    listings_parsed: Counter,
    listing_cache_hits: Counter,
    chunk_us: Histogram,
}

impl Metrics {
    fn new() -> Metrics {
        let registry = Registry::new();
        let started = Instant::now();
        registry.gauge_fn("hbserve_uptime_seconds", move || {
            started.elapsed().as_secs()
        });
        Metrics {
            submissions: registry.counter("hbserve_submissions"),
            cells_executed: registry.counter("hbserve_cells_executed"),
            cells_in_flight: registry.gauge("hbserve_cells_in_flight"),
            listings_parsed: registry.counter("hbserve_listings_parsed"),
            listing_cache_hits: registry.counter("hbserve_listing_cache_hits"),
            chunk_us: registry.histogram("hbserve_chunk_us"),
            registry,
        }
    }

    /// Renders the process-global registry followed by this server's own.
    fn render(&self) -> String {
        let mut text = hardbound_telemetry::global().render();
        text.push_str(&self.registry.render());
        text
    }
}

/// A server's parsed listings, keyed by their exact text: a warm server
/// that receives a listing it has seen before skips the parse and the
/// validation and shares the one parsed [`Program`].
///
/// Entries are found by string equality — [`FoldHasher`] only picks the
/// bucket — so two listings share an entry only when every byte agrees.
/// Only listings that parsed and validated are admitted, and only once
/// the whole submission has decoded, so a rejected submission leaves the
/// cache as it found it. The listing text held is capped at `cap` bytes;
/// past it the oldest entries go first. Lookups and admissions take the
/// lock briefly; parsing runs outside it.
struct ListingCache {
    cap: usize,
    entries: Mutex<ListingEntries>,
    /// Listings parsed (cache misses, rejected listings included).
    parsed: Counter,
    /// Listings served from the cache.
    hits: Counter,
}

#[derive(Default)]
struct ListingEntries {
    map: HashMap<Arc<str>, Arc<Program>, BuildHasherDefault<FoldHasher>>,
    /// Admission order, oldest first (the eviction order).
    order: VecDeque<Arc<str>>,
    /// Listing bytes held: the sum of the keys' lengths.
    bytes: usize,
}

impl ListingCache {
    fn new(cap: usize, parsed: Counter, hits: Counter) -> ListingCache {
        ListingCache {
            cap,
            entries: Mutex::default(),
            parsed,
            hits,
        }
    }

    fn entries(&self) -> std::sync::MutexGuard<'_, ListingEntries> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The program `listing` renders, from the cache or freshly parsed and
    /// validated; a fresh one comes back with `true` so the caller can
    /// [`ListingCache::admit`] it once its submission is accepted.
    fn program(&self, listing: &str) -> Result<(Arc<Program>, bool), String> {
        if let Some(program) = self.entries().map.get(listing) {
            self.hits.inc();
            return Ok((Arc::clone(program), false));
        }
        self.parsed.inc();
        let program = hardbound_isa::parse_program(listing)
            .map_err(|e| format!("unparseable program listing: {e}"))?;
        program
            .validate()
            .map_err(|e| format!("invalid program: {e}"))?;
        Ok((Arc::new(program), true))
    }

    /// Admits freshly parsed listings, evicting the oldest entries past
    /// the byte cap. A listing larger than the whole cap is not kept.
    fn admit<'a>(&self, fresh: impl IntoIterator<Item = (&'a str, Arc<Program>)>) {
        let mut e = self.entries();
        for (listing, program) in fresh {
            if listing.len() > self.cap || e.map.contains_key(listing) {
                continue;
            }
            while e.bytes + listing.len() > self.cap {
                let oldest = e.order.pop_front().expect("held bytes imply an entry");
                e.bytes -= oldest.len();
                e.map.remove(&oldest);
            }
            let key: Arc<str> = Arc::from(listing);
            e.bytes += key.len();
            e.order.push_back(Arc::clone(&key));
            e.map.insert(key, program);
        }
    }
}

/// The `hbserve` TCP front end: owns the shared [`PersistentService`]
/// and serves until a `SHUTDOWN` request.
pub struct Server {
    listener: TcpListener,
    svc: Arc<Mutex<PersistentService>>,
    build: Arc<Builder>,
    tag_ok: Arc<TagCheck>,
    shutdown: Arc<AtomicBool>,
    shard: Option<Arc<ShardState>>,
    metrics: Arc<Metrics>,
    listings: Arc<ListingCache>,
    /// Requests currently being served (not idle connections); `run`
    /// waits for this to reach zero after the accept loop stops, so a
    /// shutdown never cuts an in-flight submission mid-stream.
    busy: Arc<AtomicUsize>,
}

/// Owns one increment of the busy count; decrements when the request
/// finishes (however it ends).
struct BusyGuard<'a>(&'a AtomicUsize);

impl BusyGuard<'_> {
    fn enter(busy: &AtomicUsize) -> BusyGuard<'_> {
        busy.fetch_add(1, Ordering::SeqCst);
        BusyGuard(busy)
    }
}

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A submission's cells not yet executed, held in
/// `hbserve_cells_in_flight`. Whatever ends the submission early — a
/// failed write to a dead client, a builder panic — takes the cells it
/// never ran off the gauge on drop.
struct InFlight<'a> {
    gauge: &'a Gauge,
    left: u64,
}

impl InFlight<'_> {
    fn enter(gauge: &Gauge, cells: usize) -> InFlight<'_> {
        gauge.add(cells as u64);
        InFlight {
            gauge,
            left: cells as u64,
        }
    }

    fn ran(&mut self, cells: usize) {
        self.gauge.sub(cells as u64);
        self.left -= cells as u64;
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.gauge.sub(self.left);
    }
}

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port) around `svc`.
    /// `build` constructs the machine for a missing cell; `tag_ok`
    /// pre-validates job tags.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind(
        addr: impl ToSocketAddrs,
        svc: PersistentService,
        build: Arc<Builder>,
        tag_ok: Arc<TagCheck>,
    ) -> io::Result<Server> {
        let svc = Arc::new(Mutex::new(svc));
        let metrics = Arc::new(Metrics::new());
        // Computed gauges over the service, so one scrape sees store state
        // without extra locking APIs.
        for (name, read) in [
            ("hbserve_store_hits", 0usize),
            ("hbserve_store_misses", 1),
            ("hbserve_store_evicted", 2),
            ("hbserve_store_len", 3),
            ("hbserve_log_appended", 4),
            ("hbserve_log_flushes", 5),
        ] {
            let s = Arc::clone(&svc);
            metrics.registry.gauge_fn(name, move || {
                let stats = s.lock().unwrap_or_else(PoisonError::into_inner).stats();
                let log = stats.log.unwrap_or_default();
                match read {
                    0 => stats.service.store.hits,
                    1 => stats.service.store.misses,
                    2 => stats.service.store.evicted,
                    3 => stats.service.store_len as u64,
                    4 => log.appended,
                    _ => log.flushes,
                }
            });
        }
        let listings = Arc::new(ListingCache::new(
            LISTING_CACHE_BYTES,
            metrics.listings_parsed.clone(),
            metrics.listing_cache_hits.clone(),
        ));
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            svc,
            build,
            tag_ok,
            shutdown: Arc::new(AtomicBool::new(false)),
            shard: None,
            metrics,
            listings,
            busy: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// Declares this server shard `index` of a `count`-shard cluster
    /// (`hbserve --shard k/n`): submitted cells are classified as owned
    /// vs foreign in the metrics. Routing is advisory — foreign cells
    /// still execute, so client-side failover works.
    ///
    /// # Panics
    ///
    /// Panics when `index >= count`.
    pub fn set_shard(&mut self, index: usize, count: usize) {
        assert!(index < count, "shard index {index} out of range 0..{count}");
        let shard = Arc::new(ShardState {
            index,
            ring: ShardRing::new(count),
            owned: AtomicU64::new(0),
            foreign: AtomicU64::new(0),
        });
        let r = &self.metrics.registry;
        r.gauge_fn("hbserve_shard_index", {
            let s = Arc::clone(&shard);
            move || s.index as u64
        });
        r.gauge_fn("hbserve_shard_count", {
            let s = Arc::clone(&shard);
            move || s.ring.shards() as u64
        });
        r.gauge_fn("hbserve_owned_cells", {
            let s = Arc::clone(&shard);
            move || s.owned.load(Ordering::Relaxed)
        });
        r.gauge_fn("hbserve_foreign_cells", {
            let s = Arc::clone(&shard);
            move || s.foreign.load(Ordering::Relaxed)
        });
        self.shard = Some(shard);
    }

    /// A detached renderer for the Prometheus-style text exposition
    /// (process-global registry + this server's own): `hbserve` hands it
    /// to the `--metrics-addr` HTTP thread, which outlives the borrow of
    /// `self` that [`Server::run`] holds.
    pub fn metrics_renderer(&self) -> impl Fn() -> String + Send + Sync + 'static {
        let metrics = Arc::clone(&self.metrics);
        move || metrics.render()
    }

    /// The bound address (read the ephemeral port from here).
    ///
    /// # Errors
    ///
    /// Propagates the OS query error.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Shared handle to the service (checkpointing at exit, tests).
    #[must_use]
    pub fn service(&self) -> Arc<Mutex<PersistentService>> {
        Arc::clone(&self.svc)
    }

    /// Accepts and serves connections (one thread each) until a client
    /// sends `SHUTDOWN`, then waits for every in-flight request to finish
    /// — a shutdown never cuts another client's submission mid-stream,
    /// and the caller can checkpoint safely after `run` returns.
    ///
    /// # Errors
    ///
    /// Propagates accept errors.
    pub fn run(&self) -> io::Result<()> {
        for conn in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = conn?;
            let ctx = ConnCtx {
                svc: Arc::clone(&self.svc),
                build: Arc::clone(&self.build),
                tag_ok: Arc::clone(&self.tag_ok),
                shutdown: Arc::clone(&self.shutdown),
                shard: self.shard.as_ref().map(Arc::clone),
                metrics: Arc::clone(&self.metrics),
                listings: Arc::clone(&self.listings),
                busy: Arc::clone(&self.busy),
                wake: self.listener.local_addr(),
            };
            std::thread::spawn(move || handle_conn(stream, &ctx));
        }
        // Drain in-flight requests. Handlers increment `busy` *before*
        // re-checking the shutdown flag, so once this loop reads zero
        // after the flag is set, any later request observes the flag and
        // is rejected — no request can slip past the drain. Idle
        // connections (no request in flight) are simply abandoned; their
        // clients see EOF at a frame boundary.
        while self.busy.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }
}

/// Everything one connection handler needs, moved into its thread.
struct ConnCtx {
    svc: Arc<Mutex<PersistentService>>,
    build: Arc<Builder>,
    tag_ok: Arc<TagCheck>,
    shutdown: Arc<AtomicBool>,
    shard: Option<Arc<ShardState>>,
    metrics: Arc<Metrics>,
    listings: Arc<ListingCache>,
    busy: Arc<AtomicUsize>,
    wake: io::Result<std::net::SocketAddr>,
}

/// Serves one connection until EOF or shutdown.
fn handle_conn(mut stream: TcpStream, ctx: &ConnCtx) {
    let _ = stream.set_nodelay(true);
    loop {
        let (kind, payload) = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => return,
        };
        // Mark the request in flight *before* re-checking the shutdown
        // flag: the drain loop in `Server::run` reads the counter after
        // setting the flag, so either it sees this request and waits, or
        // this check sees the flag and rejects — never both missed.
        let _busy = BusyGuard::enter(&ctx.busy);
        if ctx.shutdown.load(Ordering::SeqCst) && kind != REQ_SHUTDOWN {
            let _ = reject(&mut stream, "server is shutting down");
            return;
        }
        let result = match kind {
            REQ_HELLO => serve_hello(&mut stream, &payload),
            REQ_SUBMIT => serve_submission(&mut stream, ctx, &payload),
            REQ_METRICS => serve_metrics(&mut stream, ctx),
            REQ_PROFILE => serve_profile(&mut stream),
            REQ_SHUTDOWN => {
                ctx.shutdown.store(true, Ordering::SeqCst);
                let _ = write_frame(&mut stream, RESP_DONE, &0u32.to_le_bytes());
                // The accept loop is blocked in `accept`; poke it so it
                // observes the flag and exits.
                if let Ok(addr) = ctx.wake {
                    let _ = TcpStream::connect(addr);
                }
                return;
            }
            _ => reject(&mut stream, "unknown request kind"),
        };
        if result.is_err() {
            return; // connection is broken; nothing left to report
        }
    }
}

fn reject(stream: &mut TcpStream, msg: &str) -> Result<(), ServeError> {
    let mut w = Writer::new();
    w.put_str(msg);
    write_frame(stream, RESP_ERR, &w.into_bytes())?;
    Ok(())
}

/// Answers `HELLO` with this server's [`PROTOCOL_VERSION`]; the client
/// compares (see the module docs' "Versioning").
fn serve_hello(stream: &mut TcpStream, payload: &[u8]) -> Result<(), ServeError> {
    if payload.len() != 4 {
        return reject(stream, "malformed HELLO payload");
    }
    write_frame(stream, RESP_HELLO, &PROTOCOL_VERSION.to_le_bytes())?;
    Ok(())
}

/// Answers a `METRICS` request with the Prometheus-style text exposition
/// of the process-global registry plus this server's own.
fn serve_metrics(stream: &mut TcpStream, ctx: &ConnCtx) -> Result<(), ServeError> {
    let mut w = Writer::new();
    w.put_str(&ctx.metrics.render());
    write_frame(stream, RESP_METRICS, &w.into_bytes())?;
    Ok(())
}

/// Answers a `PROFILE` request with the process-global hot-spot profile
/// accumulator in its parseable text form. The snapshot is taken under
/// the accumulator's lock, so a mid-grid scrape is atomic with respect to
/// each run's flush: counts are a consistent prefix of the work done, never
/// a torn read.
fn serve_profile(stream: &mut TcpStream) -> Result<(), ServeError> {
    let mut w = Writer::new();
    w.put_str(&hardbound_telemetry::profile::global().snapshot().to_text());
    write_frame(stream, RESP_PROFILE, &w.into_bytes())?;
    Ok(())
}

/// Classifies each decoded cell as owned vs foreign under the cluster
/// ring (no-op for unsharded servers).
fn note_ownership(shard: &Option<Arc<ShardState>>, jobs: &[Job<u64>]) {
    let Some(shard) = shard else { return };
    let mut owned = 0;
    let mut foreign = 0;
    for job in jobs {
        let (pid, fp) = job.key();
        if shard.ring.owner_of_cell(pid.0, fp) == shard.index {
            owned += 1;
        } else {
            foreign += 1;
        }
    }
    shard.owned.fetch_add(owned, Ordering::Relaxed);
    shard.foreign.fetch_add(foreign, Ordering::Relaxed);
}

/// Serves a `SUBMIT` on its own connection: decodes and validates the
/// grid, runs it in [`CHUNK`]-cell batches with the service lock held for
/// each chunk only, and writes each chunk's `RESULTS` frame outside the
/// lock, then `SPANS` (traced submissions only) and `DONE`. A failed write
/// ends the submission; the cells it already ran are in the store, so the
/// client's resubmission replays them.
///
/// Cells reference the decoded listing table; each chunk's jobs take their
/// own copy of the program just before the chunk runs, so a submission
/// holds at most [`CHUNK`] copies however large its grid.
///
/// A traced submission stamps one `submit_exec` span covering the run
/// plus a `chunk` span per service-lock acquisition — shipped back in the
/// `SPANS` frame and mirrored to the server's own `HB_TRACE` sink, if any.
fn serve_submission(
    stream: &mut TcpStream,
    ctx: &ConnCtx,
    payload: &[u8],
) -> Result<(), ServeError> {
    let Submission {
        trace: trace_ctx,
        programs,
        cells,
    } = match decode_submission(payload, &*ctx.tag_ok, &ctx.listings) {
        Ok(decoded) => decoded,
        Err(msg) => return reject(stream, &msg),
    };
    let total = cells.len();
    let m = &ctx.metrics;
    let mut in_flight = InFlight::enter(&m.cells_in_flight, total);
    let exec_timer = trace_ctx.map(|c| SpanTimer::start(c.trace, c.parent, "submit_exec"));
    let mut spans = Vec::new();
    let mut cells = cells.into_iter();
    for chunk_index in 0.. {
        let chunk: Vec<Job<u64>> = cells
            .by_ref()
            .take(CHUNK)
            .map(|c| Job {
                program: Program::clone(&programs[c.program]),
                config: c.config,
                salt: c.salt,
                tag: c.tag,
            })
            .collect();
        if chunk.is_empty() {
            break;
        }
        note_ownership(&ctx.shard, &chunk);
        let chunk_timer = exec_timer
            .as_ref()
            .map(|exec| SpanTimer::start(exec.trace(), exec.span(), "chunk"));
        let t0 = Instant::now();
        let outs = {
            let mut svc = ctx.svc.lock().unwrap_or_else(PoisonError::into_inner);
            svc.run_batch(&chunk, |program, config, &tag| {
                (ctx.build)(program, config, tag)
            })
        };
        m.chunk_us.record_duration(t0.elapsed());
        m.cells_executed.add(outs.len() as u64);
        in_flight.ran(chunk.len());
        if let Some(timer) = chunk_timer {
            let ev = timer.finish(vec![
                ("chunk".into(), (chunk_index as u64).into()),
                ("cells".into(), (chunk.len() as u64).into()),
            ]);
            trace::emit(&ev);
            spans.push(ev);
        }
        let mut w = Writer::new();
        w.put_u32((chunk_index * CHUNK) as u32);
        w.put_u32(outs.len() as u32);
        for out in &outs {
            encode_outcome(&mut w, out);
        }
        write_frame(stream, RESP_RESULTS, &w.into_bytes())?;
    }
    if let Some(timer) = exec_timer {
        let mut fields = vec![("cells".into(), (total as u64).into())];
        if let Some(shard) = &ctx.shard {
            fields.push(("shard_index".into(), (shard.index as u64).into()));
        }
        let ev = timer.finish(fields);
        trace::emit(&ev);
        spans.push(ev);
        let mut w = Writer::new();
        w.put_u32(spans.len() as u32);
        for ev in &spans {
            encode_span(&mut w, ev);
        }
        write_frame(stream, RESP_SPANS, &w.into_bytes())?;
    }
    // Counted before `DONE` goes out: a client that has read `DONE` and
    // then scrapes `METRICS` must see its submission.
    m.submissions.inc();
    write_frame(stream, RESP_DONE, &(total as u32).to_le_bytes())?;
    Ok(())
}

/// A decoded `SUBMIT`: the trace context, the listing table as parsed
/// programs, and the cells that reference it.
struct Submission {
    trace: Option<TraceCtx>,
    programs: Vec<Arc<Program>>,
    cells: Vec<Cell>,
}

/// One submitted cell: an index into [`Submission::programs`] plus the
/// rest of a [`Job`].
struct Cell {
    program: usize,
    config: MachineConfig,
    salt: u64,
    tag: u64,
}

/// Decodes a `SUBMIT` payload, validating every program, config and tag
/// before anything executes, so a bad grid comes back as an `ERR` frame,
/// never a worker panic. Each entry of the deduplicated listing table is
/// looked up in the server's `listings` cache and parsed (and validated)
/// only on a miss; the entries it parsed join the cache once the whole
/// payload has decoded.
fn decode_submission(
    payload: &[u8],
    tag_ok: &TagCheck,
    listings: &ListingCache,
) -> Result<Submission, String> {
    let mut r = Reader::new(payload);
    let trace = r.get_u64().map_err(|e| format!("trace id: {e}"))?;
    let parent = r.get_u64().map_err(|e| format!("parent span: {e}"))?;
    let trace = match (trace, parent) {
        (0, 0) => None,
        (0, _) => return Err("parent span without a trace id".to_owned()),
        (trace, parent) => Some(TraceCtx {
            trace: TraceId(trace),
            parent: SpanId(parent),
        }),
    };
    let count = r.get_u32().map_err(|e| format!("listing count: {e}"))?;
    if count as usize > MAX_GRID {
        return Err(format!(
            "listing table of {count} entries exceeds the {MAX_GRID}-entry limit"
        ));
    }
    let mut programs = Vec::with_capacity(count.min(4096) as usize);
    let mut fresh = Vec::new();
    for i in 0..count {
        let listing = r.get_str().map_err(|e| format!("listing {i}: {e}"))?;
        let (program, parsed) = listings
            .program(listing)
            .map_err(|e| format!("listing {i}: {e}"))?;
        if parsed {
            fresh.push((listing, Arc::clone(&program)));
        }
        programs.push(program);
    }
    let jobs = r.get_u32().map_err(|e| format!("job count: {e}"))?;
    if jobs as usize > MAX_GRID {
        return Err(format!(
            "grid of {jobs} cells exceeds the {MAX_GRID}-cell limit"
        ));
    }
    let mut cells = Vec::with_capacity(jobs.min(4096) as usize);
    for i in 0..jobs {
        let idx = r.get_u32().map_err(|e| format!("job {i}: {e}"))?;
        if idx >= count {
            return Err(format!(
                "job {i}: listing index {idx} out of range 0..{count}"
            ));
        }
        let config = decode_config(&mut r).map_err(|e| format!("job {i}: {e}"))?;
        let salt = r.get_u64().map_err(|e| format!("job {i}: {e}"))?;
        let tag = r.get_u64().map_err(|e| format!("job {i}: {e}"))?;
        // Geometry the hierarchy constructors would `assert!` on must come
        // back as an ERR frame, not a worker panic under the service lock.
        config
            .hierarchy
            .validate()
            .map_err(|e| format!("job {i}: invalid hierarchy config: {e}"))?;
        if !tag_ok(tag) {
            return Err(format!("job {i}: unknown machine-builder tag {tag}"));
        }
        cells.push(Cell {
            program: idx as usize,
            config,
            salt,
            tag,
        });
    }
    if !r.is_exhausted() {
        return Err("trailing bytes after the last job".to_owned());
    }
    listings.admit(fresh);
    Ok(Submission {
        trace,
        programs,
        cells,
    })
}

/// Encodes a `SUBMIT` payload: the trace context (zeros when untraced),
/// then the grid, with equal programs collapsed into one table entry
/// referenced by index (a mode×encoding sweep over one program ships the
/// listing once, not once per cell). Each distinct program is rendered to
/// its listing exactly once, here. A listing round-trips through
/// `isa::parse_program`, so programs are equal exactly when their listings
/// are: keying the table by program gives the same entries, in the same
/// first-use order, as keying it by listing text.
fn encode_submission(jobs: &[Job<u64>], ctx: Option<TraceCtx>) -> Vec<u8> {
    let mut table: Vec<&Program> = Vec::new();
    let mut index: HashMap<&Program, u32, BuildHasherDefault<FoldHasher>> = HashMap::default();
    // Hashing a program walks all of it, so each cell is hashed once, here,
    // and the cell loop below reads its index back from `cells`. The hash
    // only buckets the table (`Eq` decides), so the fast in-process
    // `FoldHasher` serves; no hash value reaches the frame.
    let cells: Vec<u32> = jobs
        .iter()
        .map(|job| {
            *index.entry(&job.program).or_insert_with(|| {
                table.push(&job.program);
                (table.len() - 1) as u32
            })
        })
        .collect();
    let mut w = Writer::new();
    w.put_u64(ctx.map_or(0, |c| c.trace.0));
    w.put_u64(ctx.map_or(0, |c| c.parent.0));
    w.put_u32(table.len() as u32);
    for program in table {
        w.put_str(&program.disassemble());
    }
    w.put_u32(jobs.len() as u32);
    for (job, cell) in jobs.iter().zip(cells) {
        w.put_u32(cell);
        encode_config(&mut w, &job.config);
        w.put_u64(job.salt);
        w.put_u64(job.tag);
    }
    w.into_bytes()
}

/// Fills `results` from one `RESULTS` payload, rejecting out-of-range
/// ranges and re-delivered indices (a second delivery for a filled slot is
/// a protocol violation, not a silent overwrite).
fn fill_results(results: &mut [Option<RunOutcome>], payload: &[u8]) -> Result<(), ServeError> {
    let mut r = Reader::new(payload);
    let start = r.get_u32()? as usize;
    let count = r.get_u32()? as usize;
    let end = start
        .checked_add(count)
        .filter(|&end| end <= results.len())
        .ok_or(ServeError::Protocol("result indices out of range"))?;
    for slot in &mut results[start..end] {
        if slot.is_some() {
            return Err(ServeError::Protocol("duplicate result delivery"));
        }
        *slot = Some(decode_outcome(&mut r)?);
    }
    expect_end(&r)
}

/// Rejects bytes left over after a fixed-layout payload.
fn expect_end(r: &Reader<'_>) -> Result<(), ServeError> {
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(ServeError::Protocol(
            "trailing bytes after a fixed-layout payload",
        ))
    }
}

/// The diagnostic carried by an `ERR` payload.
fn server_error(payload: &[u8]) -> ServeError {
    match Reader::new(payload).get_str() {
        Ok(msg) => ServeError::Server(msg.to_owned()),
        Err(e) => e.into(),
    }
}

/// A client connection to an `hbserve` server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr` (one `HB_SERVE_ADDR` entry) and checks with
    /// `HELLO` that the server speaks this build's [`PROTOCOL_VERSION`].
    ///
    /// # Errors
    ///
    /// [`ServeError::VersionMismatch`] naming both versions when the
    /// server speaks another protocol; otherwise socket failures,
    /// malformed frames, or a server rejection.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Client { stream };
        let hello = PROTOCOL_VERSION.to_le_bytes();
        let payload = client.call(REQ_HELLO, &hello, RESP_HELLO, "expected a HELLO response")?;
        let mut r = Reader::new(&payload);
        let server = r.get_u32()?;
        expect_end(&r)?;
        if server != PROTOCOL_VERSION {
            return Err(ServeError::VersionMismatch {
                client: PROTOCOL_VERSION,
                server,
            });
        }
        Ok(client)
    }

    /// Sends one request frame and reads its single response: the payload
    /// when the response kind is `expect`, the server's diagnostic for
    /// `ERR`, and the protocol violation `what` for anything else.
    fn call(
        &mut self,
        kind: u8,
        payload: &[u8],
        expect: u8,
        what: &'static str,
    ) -> Result<Vec<u8>, ServeError> {
        write_frame(&mut self.stream, kind, payload)?;
        let (got, payload) =
            read_frame(&mut self.stream)?.ok_or(ServeError::Protocol("server closed"))?;
        match got {
            _ if got == expect => Ok(payload),
            RESP_ERR => Err(server_error(&payload)),
            _ => Err(ServeError::Protocol(what)),
        }
    }

    /// [`Client::call`] for an empty request answered by one string.
    fn call_str(&mut self, kind: u8, expect: u8, what: &'static str) -> Result<String, ServeError> {
        let payload = self.call(kind, &[], expect, what)?;
        let mut r = Reader::new(&payload);
        let text = r.get_str()?.to_owned();
        expect_end(&r)?;
        Ok(text)
    }

    /// Submits `jobs` and streams their outcomes into `results` (one slot
    /// per cell, `None` = not yet delivered) and the server-side trace
    /// spans into `spans` (which stays empty without `ctx`). With `ctx` the
    /// server stamps its spans under `ctx.trace`, with `ctx.parent` as
    /// their root's parent. Already-filled slots are kept; a re-delivery
    /// for one of them is a protocol error. On a mid-stream failure the
    /// slots filled so far remain — callers reconnect and resubmit only
    /// the missing cells, and the ones the server already ran replay from
    /// its store.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on oversized grids (rejected before anything is
    /// sent), socket failures, malformed frames, or a server rejection.
    pub fn run_into(
        &mut self,
        jobs: &[Job<u64>],
        ctx: Option<TraceCtx>,
        results: &mut [Option<RunOutcome>],
        spans: &mut Vec<SpanEvent>,
    ) -> Result<(), ServeError> {
        if jobs.len() > MAX_GRID {
            return Err(ServeError::Oversized { cells: jobs.len() });
        }
        write_frame(&mut self.stream, REQ_SUBMIT, &encode_submission(jobs, ctx))?;
        loop {
            let (kind, payload) = read_frame(&mut self.stream)?
                .ok_or(ServeError::Protocol("server closed mid-submission"))?;
            let mut r = Reader::new(&payload);
            match kind {
                RESP_RESULTS => fill_results(results, &payload)?,
                RESP_SPANS => {
                    let count = r.get_u32()?;
                    for _ in 0..count {
                        spans.push(decode_span(&mut r)?);
                    }
                    expect_end(&r)?;
                }
                RESP_DONE => {
                    if r.get_u32()? as usize != jobs.len() {
                        return Err(ServeError::Protocol("DONE covers the wrong cell count"));
                    }
                    return expect_end(&r);
                }
                RESP_ERR => return Err(server_error(&payload)),
                _ => return Err(ServeError::Protocol("unexpected frame kind")),
            }
        }
    }

    /// [`Client::run_into`] for an untraced grid: the outcomes in input
    /// order.
    ///
    /// # Errors
    ///
    /// [`ServeError`] as for [`Client::run_into`].
    pub fn run_jobs(&mut self, jobs: &[Job<u64>]) -> Result<Vec<RunOutcome>, ServeError> {
        let mut results: Vec<Option<RunOutcome>> = vec![None; jobs.len()];
        self.run_into(jobs, None, &mut results, &mut Vec::new())?;
        results
            .into_iter()
            .collect::<Option<Vec<RunOutcome>>>()
            .ok_or(ServeError::Protocol("server omitted results"))
    }

    /// Fetches the server's metrics as Prometheus-style text (the same
    /// exposition `hbserve --metrics-addr` serves over HTTP).
    ///
    /// # Errors
    ///
    /// [`ServeError`] on socket failures, malformed frames, or a server
    /// rejection.
    pub fn metrics(&mut self) -> Result<String, ServeError> {
        self.call_str(REQ_METRICS, RESP_METRICS, "expected a METRICS response")
    }

    /// Fetches the server's accumulated hot-spot profile (non-empty only
    /// when the server executes with `HB_PROF` on).
    ///
    /// # Errors
    ///
    /// [`ServeError`] on socket failures, malformed frames, an unparseable
    /// profile, or a server rejection.
    pub fn profile(&mut self) -> Result<hardbound_telemetry::Profile, ServeError> {
        let text = self.call_str(REQ_PROFILE, RESP_PROFILE, "expected a PROFILE response")?;
        hardbound_telemetry::Profile::from_text(&text).map_err(ServeError::Server)
    }

    /// Asks the server to shut down after in-flight connections finish.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on socket failures.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.call(REQ_SHUTDOWN, &[], RESP_DONE, "expected a DONE response")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardbound_isa::{CmpOp, FunctionBuilder, Reg};

    fn counting_program(limit: i32) -> Program {
        let mut f = FunctionBuilder::new("main", 0);
        f.li(Reg::A0, 0);
        let head = f.bind_label();
        f.addi(Reg::A0, Reg::A0, 1);
        let done = f.new_label();
        f.branch(CmpOp::Ge, Reg::A0, limit, done);
        f.jump(head);
        f.bind(done);
        f.sys(hardbound_isa::SysCall::PrintInt);
        f.li(Reg::A0, 0);
        f.halt();
        Program::with_entry(vec![f.finish()])
    }

    fn spawn_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        spawn_server_sharded(None)
    }

    fn spawn_server_sharded(
        shard: Option<(usize, usize)>,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let svc = PersistentService::new(2);
        let build: Arc<Builder> = Arc::new(|p, cfg, _tag| Machine::new(p, cfg));
        let tag_ok: Arc<TagCheck> = Arc::new(|tag| tag < 5);
        let mut server = Server::bind("127.0.0.1:0", svc, build, tag_ok).unwrap();
        if let Some((index, count)) = shard {
            server.set_shard(index, count);
        }
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());
        (addr, handle)
    }

    fn job(program: Program, config: MachineConfig, salt: u64, tag: u64) -> Job<u64> {
        Job {
            program,
            config,
            salt,
            tag,
        }
    }

    fn expected_outcomes(jobs: &[Job<u64>]) -> Vec<RunOutcome> {
        jobs.iter()
            .map(|j| Machine::new(j.program.clone(), j.config.clone()).run())
            .collect()
    }

    /// Binds a scripted fake server: it answers the client's `HELLO` with
    /// `version`, then hands the connection to `script`.
    fn fake_server(
        version: u32,
        script: impl FnOnce(&mut TcpStream) + Send + 'static,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let (kind, payload) = read_frame(&mut stream).unwrap().unwrap();
            assert_eq!(kind, REQ_HELLO);
            assert_eq!(payload, PROTOCOL_VERSION.to_le_bytes());
            write_frame(&mut stream, RESP_HELLO, &version.to_le_bytes()).unwrap();
            script(&mut stream);
        });
        (addr, handle)
    }

    /// Fake-server script step: swallow the `SUBMIT`.
    fn fake_submit(stream: &mut TcpStream) {
        let (kind, _) = read_frame(stream).unwrap().unwrap();
        assert_eq!(kind, REQ_SUBMIT);
    }

    /// One counter or gauge of the server's `METRICS` exposition.
    fn scrape(client: &mut Client, name: &str) -> u64 {
        let text = client.metrics().unwrap();
        hardbound_telemetry::scrape_value(&text, name)
            .unwrap_or_else(|| panic!("the exposition lacks {name}:\n{text}"))
    }

    /// `cells` cells alternating between two programs; every cell holds
    /// its own clone, so the codec must dedup by value, not by address.
    fn jobs_over_two_listings(cells: usize) -> Vec<Job<u64>> {
        let cfg = MachineConfig::default().with_fuel(1_000_000);
        let programs = [counting_program(5), counting_program(6)];
        (0..cells)
            .map(|k| job(programs[k % 2].clone(), cfg.clone(), k as u64, 0))
            .collect()
    }

    /// A listing cache of `cap` bytes with counters of its own.
    fn listing_cache(cap: usize) -> ListingCache {
        ListingCache::new(cap, Counter::default(), Counter::default())
    }

    /// The cache's listings, oldest first, and the bytes it holds.
    fn cached(cache: &ListingCache) -> (Vec<String>, usize) {
        let e = cache.entries();
        assert_eq!(e.map.len(), e.order.len());
        assert_eq!(e.bytes, e.order.iter().map(|k| k.len()).sum::<usize>());
        (e.order.iter().map(|k| k.to_string()).collect(), e.bytes)
    }

    /// Decodes `payload` against `cache` and materializes its jobs.
    fn decode_jobs(
        payload: &[u8],
        cache: &ListingCache,
    ) -> Result<(Option<TraceCtx>, Vec<Job<u64>>), String> {
        let sub = decode_submission(payload, &|tag| tag < 5, cache)?;
        let jobs = sub
            .cells
            .into_iter()
            .map(|c| job((*sub.programs[c.program]).clone(), c.config, c.salt, c.tag))
            .collect();
        Ok((sub.trace, jobs))
    }

    /// A `SUBMIT` payload built by hand, so a listing can be any text.
    fn raw_submission(listings: &[&str], cells: &[(u32, u64)]) -> Vec<u8> {
        let cfg = MachineConfig::default().with_fuel(1_000_000);
        let mut w = Writer::new();
        w.put_u64(0); // untraced
        w.put_u64(0);
        w.put_u32(listings.len() as u32);
        for listing in listings {
            w.put_str(listing);
        }
        w.put_u32(cells.len() as u32);
        for &(index, tag) in cells {
            w.put_u32(index);
            encode_config(&mut w, &cfg);
            w.put_u64(0);
            w.put_u64(tag);
        }
        w.into_bytes()
    }

    #[test]
    fn submit_frame_round_trips_cells_and_trace_context() {
        let jobs = jobs_over_two_listings(5);
        let traced = TraceCtx {
            trace: TraceId(7),
            parent: SpanId(9),
        };
        let cache = listing_cache(LISTING_CACHE_BYTES);
        for ctx in [Some(traced), None] {
            let (got_ctx, decoded) = decode_jobs(&encode_submission(&jobs, ctx), &cache).unwrap();
            assert_eq!(got_ctx, ctx);
            assert_eq!(decoded.len(), jobs.len());
            for (job, cell) in jobs.iter().zip(&decoded) {
                assert_eq!(cell.program, job.program);
                assert_eq!(cell.config, job.config);
                assert_eq!((cell.salt, cell.tag), (job.salt, job.tag));
            }
        }
        assert_eq!(cache.parsed.get(), 2, "the second decode parses nothing");
        assert_eq!(cache.hits.get(), 2);
    }

    #[test]
    fn every_strict_prefix_of_a_submit_frame_is_rejected() {
        let ctx = TraceCtx {
            trace: TraceId(7),
            parent: SpanId(9),
        };
        let payload = encode_submission(&jobs_over_two_listings(3), Some(ctx));
        let cache = listing_cache(LISTING_CACHE_BYTES);
        for n in 0..payload.len() {
            let err =
                decode_jobs(&payload[..n], &cache).expect_err("a truncated SUBMIT must not decode");
            assert!(
                !err.is_empty(),
                "prefix {n} was rejected without a diagnostic"
            );
        }
    }

    #[test]
    fn live_kinds_are_distinct_and_never_reuse_a_retired_byte() {
        let live = [
            REQ_SHUTDOWN,
            REQ_METRICS,
            REQ_PROFILE,
            REQ_HELLO,
            REQ_SUBMIT,
            RESP_RESULTS,
            RESP_DONE,
            RESP_ERR,
            RESP_SPANS,
            RESP_METRICS,
            RESP_PROFILE,
            RESP_HELLO,
        ];
        for (i, kind) in live.iter().enumerate() {
            assert!(
                !RETIRED_KINDS.contains(kind),
                "live kind {kind} reuses a retired byte"
            );
            assert!(!live[..i].contains(kind), "kind {kind} is live twice");
        }
    }

    #[test]
    fn hello_version_mismatch_fails_connect_naming_both_versions() {
        let (addr, fake) = fake_server(PROTOCOL_VERSION + 1, |_| {});
        let err = Client::connect(addr).unwrap_err();
        assert!(
            matches!(err, ServeError::VersionMismatch { client, server }
                if client == PROTOCOL_VERSION && server == PROTOCOL_VERSION + 1),
            "{err}"
        );
        let msg = err.to_string();
        assert!(msg.contains(&format!("v{PROTOCOL_VERSION}")), "{msg}");
        assert!(msg.contains(&format!("v{}", PROTOCOL_VERSION + 1)), "{msg}");
        fake.join().unwrap();
    }

    /// Records the largest buffer a frame read asks its source to fill.
    struct Recording<R> {
        inner: R,
        largest: usize,
    }

    impl<R: Read> Read for Recording<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.inner.read(buf)
        }
    }

    /// A header declaring a 1 GiB frame followed by 3 payload bytes and EOF
    /// is an error, and the read never buffers more than `FRAME_RESERVE`.
    #[test]
    fn frame_reads_grow_with_received_bytes_not_the_declared_length() {
        let mut bytes = MAX_FRAME.to_le_bytes().to_vec();
        bytes.push(REQ_SUBMIT);
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut source = Recording {
            inner: io::Cursor::new(bytes),
            largest: 0,
        };
        assert!(
            read_frame(&mut source).is_err(),
            "a short payload is an error"
        );
        assert!(
            source.largest as u64 <= FRAME_RESERVE,
            "read asked for {} bytes up front",
            source.largest
        );
    }

    #[test]
    fn submit_streams_byte_identical_results_and_replays_warm() {
        let (addr, handle) = spawn_server();
        let cfg = MachineConfig::default().with_fuel(1_000_000);
        let jobs: Vec<Job<u64>> =
            (0..67) // > 2 chunks
                .map(|k| job(counting_program(5 + k), cfg.clone(), 0, 0))
                .collect();
        let expected = expected_outcomes(&jobs);

        let mut client = Client::connect(addr).unwrap();
        let cold = client.run_jobs(&jobs).unwrap();
        assert_eq!(cold, expected, "remote execution must be byte-identical");
        let warm = client.run_jobs(&jobs).unwrap();
        assert_eq!(warm, expected, "warm replay must be byte-identical");
        assert_eq!(
            scrape(&mut client, "hbserve_store_misses"),
            67,
            "cold pass executed every cell"
        );
        assert_eq!(
            scrape(&mut client, "hbserve_store_hits"),
            67,
            "warm pass replayed every cell"
        );

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn submit_dedups_listings_and_is_byte_identical() {
        let (addr, handle) = spawn_server();
        // 40 cells over 2 distinct programs: the payload's listing table
        // (the count after the two trace words) holds 2 entries, not 40.
        let jobs = jobs_over_two_listings(40);
        let payload = encode_submission(&jobs, None);
        let table = u32::from_le_bytes(payload[16..20].try_into().unwrap());
        assert_eq!(table, 2, "the listing table must be deduplicated");

        let expected = expected_outcomes(&jobs);
        let mut client = Client::connect(addr).unwrap();
        let out = client.run_jobs(&jobs).unwrap();
        assert_eq!(out, expected, "remote execution must be byte-identical");

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    /// A repeated `SUBMIT` — on another connection, since the cache is the
    /// server's — is served from the listing cache: it parses no listing
    /// and returns the same outcomes.
    #[test]
    fn repeated_submit_parses_no_listings() {
        let (addr, handle) = spawn_server();
        let jobs = jobs_over_two_listings(12);
        let mut client = Client::connect(addr).unwrap();
        let first = client.run_jobs(&jobs).unwrap();
        assert_eq!(first, expected_outcomes(&jobs));
        assert_eq!(scrape(&mut client, "hbserve_listings_parsed"), 2);
        assert_eq!(scrape(&mut client, "hbserve_listing_cache_hits"), 0);

        let mut again = Client::connect(addr).unwrap();
        let second = again.run_jobs(&jobs).unwrap();
        assert_eq!(
            second, first,
            "a cached listing must give identical outcomes"
        );
        assert_eq!(
            scrape(&mut again, "hbserve_listings_parsed"),
            2,
            "the repeat parsed a listing"
        );
        assert_eq!(scrape(&mut again, "hbserve_listing_cache_hits"), 2);

        again.shutdown().unwrap();
        handle.join().unwrap();
    }

    /// A listing one byte away from a cached one (an extra space that
    /// parses to the same program) is a miss: it is parsed and kept as an
    /// entry of its own.
    #[test]
    fn a_listing_one_byte_off_is_a_cache_miss() {
        let program = counting_program(5);
        let listing = program.disassemble();
        let spaced = listing.replacen("li    a0", "li     a0", 1);
        assert_eq!(spaced.len(), listing.len() + 1);
        let cache = listing_cache(LISTING_CACHE_BYTES);
        let (_, a) = decode_jobs(&raw_submission(&[&listing], &[(0, 0)]), &cache).unwrap();
        let (_, b) = decode_jobs(&raw_submission(&[&spaced], &[(0, 0)]), &cache).unwrap();
        assert_eq!((cache.parsed.get(), cache.hits.get()), (2, 0));
        assert_eq!(a[0].program, program);
        assert_eq!(b[0].program, program);
        assert_eq!(cached(&cache).0, [listing.clone(), spaced.clone()]);
        // Each text now hits its own entry.
        decode_jobs(&raw_submission(&[&spaced, &listing], &[(1, 0)]), &cache).unwrap();
        assert_eq!((cache.parsed.get(), cache.hits.get()), (2, 2));
    }

    /// A listing that does not parse, or parses but fails validation, is
    /// rejected on every submission and never cached — nor is a good
    /// listing whose submission was rejected.
    #[test]
    fn rejected_listings_are_never_cached() {
        let cache = listing_cache(LISTING_CACHE_BYTES);
        let good = counting_program(5).disassemble();
        let falls_off = "; entry: fn#0\nfn#0 <main> (args=0, frame=0):\n     0: nop\n";
        for round in 1..=3 {
            let err =
                decode_jobs(&raw_submission(&["frobnicate a0\n"], &[(0, 0)]), &cache).unwrap_err();
            assert!(err.contains("unparseable"), "{err}");
            let err = decode_jobs(&raw_submission(&[falls_off], &[(0, 0)]), &cache).unwrap_err();
            assert!(err.contains("invalid program"), "{err}");
            let err =
                decode_jobs(&raw_submission(&[&good, falls_off], &[(0, 0)]), &cache).unwrap_err();
            assert!(err.contains("listing 1: invalid program"), "{err}");
            assert_eq!(
                cache.parsed.get(),
                4 * round,
                "every rejected listing parses again"
            );
            assert_eq!(cache.hits.get(), 0);
            assert_eq!(cached(&cache), (Vec::new(), 0), "round {round}");
        }
    }

    /// Filling the cache past its byte cap evicts the oldest listings: it
    /// never holds more than the cap, a listing larger than the whole cap
    /// is served but not kept, and every decoded program still runs to
    /// the outcome of the program that was sent.
    #[test]
    fn the_listing_cache_stays_within_its_byte_cap() {
        let programs: Vec<Program> = (0..12).map(|k| counting_program(100 + k)).collect();
        let listings: Vec<String> = programs.iter().map(Program::disassemble).collect();
        assert!(listings.iter().all(|l| l.len() == listings[0].len()));
        let cap = 3 * listings[0].len() + listings[0].len() / 2;
        let cache = listing_cache(cap);
        let mut admitted = 0;
        for round in 0..2 {
            for (program, listing) in programs.iter().zip(&listings) {
                let (_, jobs) =
                    decode_jobs(&raw_submission(&[listing], &[(0, 0)]), &cache).unwrap();
                assert_eq!(jobs[0].program, *program, "round {round}");
                assert_eq!(
                    expected_outcomes(&jobs),
                    expected_outcomes(&[job(program.clone(), jobs[0].config.clone(), 0, 0)])
                );
                admitted += 1;
                let (held, bytes) = cached(&cache);
                assert!(bytes <= cap, "{bytes} bytes held over a cap of {cap}");
                assert_eq!(held.len(), admitted.min(3));
                assert_eq!(held.last(), Some(listing), "the newest listing is kept");
            }
        }
        // Twelve listings cycling through three slots never hit.
        assert_eq!((cache.parsed.get(), cache.hits.get()), (24, 0));

        let small = listing_cache(listings[0].len() - 1);
        let (_, jobs) = decode_jobs(&raw_submission(&[&listings[0]], &[(0, 0)]), &small).unwrap();
        assert_eq!(jobs[0].program, programs[0]);
        assert_eq!(cached(&small), (Vec::new(), 0));
    }

    /// Truncated and bit-flipped `SUBMIT` payloads are rejected with a
    /// diagnostic, never a panic, and a rejection leaves the listing cache
    /// exactly as it was — directly at the decoder and through a live
    /// server, which keeps serving from its cache afterwards.
    #[test]
    fn malformed_submits_leave_the_listing_cache_unchanged() {
        let jobs = jobs_over_two_listings(3);
        let payload = encode_submission(&jobs, None);
        let cold = listing_cache(LISTING_CACHE_BYTES);
        let warm = listing_cache(LISTING_CACHE_BYTES);
        decode_jobs(&payload, &warm).unwrap();
        let warmed = cached(&warm);
        assert_eq!(warmed.0.len(), 2);
        for n in 0..payload.len() {
            assert!(decode_jobs(&payload[..n], &cold).is_err(), "prefix {n}");
            assert!(decode_jobs(&payload[..n], &warm).is_err(), "prefix {n}");
            assert_eq!(cached(&cold), (Vec::new(), 0), "prefix {n}");
            assert_eq!(cached(&warm), warmed, "prefix {n}");
        }
        let mut rejected = 0;
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let before = cached(&warm);
            if let Err(msg) = decode_jobs(&flipped, &warm) {
                assert!(!msg.is_empty(), "bit {bit}");
                assert_eq!(cached(&warm), before, "bit {bit}");
                rejected += 1;
            }
        }
        assert!(rejected > payload.len(), "{rejected} flips rejected");

        let (addr, handle) = spawn_server();
        let mut client = Client::connect(addr).unwrap();
        let expected = client.run_jobs(&jobs).unwrap();
        assert_eq!(scrape(&mut client, "hbserve_listings_parsed"), 2);
        // The last eight bytes are the last cell's tag: a set top bit makes
        // it unknown.
        let mut bad_tag = payload.clone();
        let last = bad_tag.len() - 1;
        bad_tag[last] ^= 0x80;
        for bad in [&payload[..payload.len() - 1], &payload[..20], &bad_tag[..]] {
            let mut raw = TcpStream::connect(addr).unwrap();
            write_frame(&mut raw, REQ_SUBMIT, bad).unwrap();
            let (kind, reply) = read_frame(&mut raw).unwrap().unwrap();
            assert_eq!(kind, RESP_ERR);
            assert!(matches!(server_error(&reply), ServeError::Server(_)));
        }
        assert_eq!(client.run_jobs(&jobs).unwrap(), expected);
        assert_eq!(
            scrape(&mut client, "hbserve_listings_parsed"),
            2,
            "the rejected payloads changed the cache"
        );
        assert_eq!(scrape(&mut client, "hbserve_cells_executed"), 6);
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    /// A client that hangs up mid-grid loses nothing the server already
    /// ran: resubmitted on a new connection, those cells replay from the
    /// store. The abandoned submission stops at its first failed write and
    /// takes the cells it never ran off `hbserve_cells_in_flight`.
    #[test]
    fn dropped_connection_replays_finished_chunks_from_the_store() {
        let (addr, handle) = spawn_server();
        let cfg = MachineConfig::default().with_fuel(1_000_000);
        // Five chunks of cells slow enough that the server is still
        // running the grid when the client walks away.
        let jobs: Vec<Job<u64>> = (0..5 * CHUNK as i32)
            .map(|k| job(counting_program(2_000 + k), cfg.clone(), 0, 0))
            .collect();
        let expected = expected_outcomes(&jobs);

        {
            let mut raw = TcpStream::connect(addr).unwrap();
            write_frame(&mut raw, REQ_SUBMIT, &encode_submission(&jobs, None)).unwrap();
            let (kind, _) = read_frame(&mut raw).unwrap().unwrap();
            assert_eq!(kind, RESP_RESULTS, "the first chunk streams back");
        } // dropped after one RESULTS frame

        let mut client = Client::connect(addr).unwrap();
        let out = client.run_jobs(&jobs).unwrap();
        assert_eq!(out, expected, "the resubmitted grid must be byte-identical");
        let hits = scrape(&mut client, "hbserve_store_hits");
        assert!(
            hits >= CHUNK as u64,
            "the chunks run for the dropped connection must replay: {hits} hits"
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while scrape(&mut client, "hbserve_cells_in_flight") != 0 {
            assert!(
                Instant::now() < deadline,
                "the abandoned submission left cells in flight"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn bad_submissions_are_rejected_without_executing() {
        let (addr, handle) = spawn_server();
        let cfg = MachineConfig::default();
        let mut client = Client::connect(addr).unwrap();

        // Rejected before anything executes.
        let mut bad_tag = vec![job(counting_program(3), cfg.clone(), 0, 99)];
        match client.run_jobs(&bad_tag).unwrap_err() {
            ServeError::Server(msg) => assert!(msg.contains("tag 99"), "{msg}"),
            other => panic!("expected a server rejection, got {other}"),
        }
        bad_tag[0].tag = 0;
        // A listing that does not parse: `Client` only sends rendered
        // programs, so the frame goes out on a raw socket.
        {
            let mut w = Writer::new();
            w.put_u64(0); // untraced
            w.put_u64(0);
            w.put_u32(1);
            w.put_str("frobnicate a0\n");
            w.put_u32(1);
            w.put_u32(0);
            encode_config(&mut w, &cfg);
            w.put_u64(0);
            w.put_u64(0);
            let mut raw = TcpStream::connect(addr).unwrap();
            write_frame(&mut raw, REQ_SUBMIT, &w.into_bytes()).unwrap();
            let (kind, payload) = read_frame(&mut raw).unwrap().unwrap();
            assert_eq!(kind, RESP_ERR);
            match server_error(&payload) {
                ServeError::Server(msg) => assert!(msg.contains("unparseable"), "{msg}"),
                other => panic!("expected a server rejection, got {other}"),
            }
        }
        // A config whose geometry would panic the cache constructors is
        // rejected up front, not executed.
        bad_tag[0].config.hierarchy.l1_ways = 0;
        match client.run_jobs(&bad_tag).unwrap_err() {
            ServeError::Server(msg) => assert!(msg.contains("invalid hierarchy"), "{msg}"),
            other => panic!("expected a server rejection, got {other}"),
        }
        bad_tag[0].config.hierarchy.l1_ways = 4;
        bad_tag[0].config.hierarchy.l1_bytes = 12345; // not a power of two
        match client.run_jobs(&bad_tag).unwrap_err() {
            ServeError::Server(msg) => assert!(msg.contains("power of two"), "{msg}"),
            other => panic!("expected a server rejection, got {other}"),
        }
        // A TLB whose entry count does not divide into its way count used
        // to silently truncate the TLB; it is now rejected at the wire.
        bad_tag[0].config.hierarchy.l1_bytes = 8192;
        bad_tag[0].config.hierarchy.tlb_entries = 387;
        bad_tag[0].config.hierarchy.tlb_ways = 6;
        match client.run_jobs(&bad_tag).unwrap_err() {
            ServeError::Server(msg) => {
                assert!(msg.contains("387 entries do not divide"), "{msg}");
            }
            other => panic!("expected a server rejection, got {other}"),
        }
        // Geometries past the per-structure line cap would allocate
        // without bound (a 1 TiB L2 is 2^35 lines); both are rejected.
        bad_tag[0].config.hierarchy.tlb_entries = 256;
        bad_tag[0].config.hierarchy.tlb_ways = 4;
        bad_tag[0].config.hierarchy.l2_bytes = 1 << 40;
        match client.run_jobs(&bad_tag).unwrap_err() {
            ServeError::Server(msg) => {
                assert!(msg.contains("L2") && msg.contains("cap of"), "{msg}");
            }
            other => panic!("expected a server rejection, got {other}"),
        }
        bad_tag[0].config.hierarchy.l2_bytes = 4 << 20;
        bad_tag[0].config.hierarchy.tlb_entries = 1 << 40;
        match client.run_jobs(&bad_tag).unwrap_err() {
            ServeError::Server(msg) => {
                assert!(msg.contains("TLB") && msg.contains("cap of"), "{msg}");
            }
            other => panic!("expected a server rejection, got {other}"),
        }
        assert_eq!(scrape(&mut client, "hbserve_cells_executed"), 0);

        // The connection survives rejections; a good job still runs.
        let good = vec![job(counting_program(3), cfg, 0, 0)];
        let outs = client.run_jobs(&good).unwrap();
        assert_eq!(outs[0].ints, vec![3]);
        assert_eq!(
            scrape(&mut client, "hbserve_store_misses"),
            1,
            "rejections ran nothing"
        );

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn two_clients_share_the_store() {
        let (addr, handle) = spawn_server();
        let cfg = MachineConfig::default().with_fuel(1_000_000);
        let jobs = vec![job(counting_program(9), cfg, 0, 0)];
        let mut a = Client::connect(addr).unwrap();
        let mut b = Client::connect(addr).unwrap();
        let out_a = a.run_jobs(&jobs).unwrap();
        let out_b = b.run_jobs(&jobs).unwrap();
        assert_eq!(out_a, out_b);
        assert_eq!(
            scrape(&mut a, "hbserve_store_misses"),
            1,
            "second client replays the first's cell"
        );
        assert_eq!(scrape(&mut a, "hbserve_store_hits"), 1);
        a.shutdown().unwrap();
        handle.join().unwrap();
    }

    /// The server-robustness acceptance test: torn frames and mid-SUBMIT
    /// disconnects must neither poison the store nor wedge the work
    /// queue — the next client sees the warm store and full service.
    #[test]
    fn torn_frames_do_not_wedge_the_server() {
        let (addr, handle) = spawn_server();
        let cfg = MachineConfig::default().with_fuel(1_000_000);
        let jobs = vec![job(counting_program(9), cfg.clone(), 0, 0)];

        // Warm the store so we can verify it survives the abuse.
        let mut warmup = Client::connect(addr).unwrap();
        let expected = warmup.run_jobs(&jobs).unwrap();
        drop(warmup);

        // (a) A length prefix promising bytes that never arrive (client
        // dies mid-SUBMIT).
        {
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.write_all(&500u32.to_le_bytes()).unwrap();
            raw.write_all(&[REQ_SUBMIT]).unwrap();
            raw.write_all(&[0u8; 37]).unwrap(); // 37 of the promised 499
        } // dropped: the server sees EOF mid-frame
          // (b) An insane length prefix (torn/corrupt frame header).
        {
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
            raw.write_all(b"garbage").unwrap();
        }
        // (c) A half-written frame header.
        {
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.write_all(&[7u8, 0]).unwrap();
        }
        // (d) A SUBMIT whose payload is truncated garbage: decodes fail,
        // the submission is rejected, nothing executes.
        {
            let mut raw = TcpStream::connect(addr).unwrap();
            let payload = 3u32.to_le_bytes(); // promises 3 jobs, provides none
            let len = (payload.len() + 1) as u32;
            raw.write_all(&len.to_le_bytes()).unwrap();
            raw.write_all(&[REQ_SUBMIT]).unwrap();
            raw.write_all(&payload).unwrap();
            // The server answers ERR (or closes); either way it keeps
            // serving below.
            let _ = read_frame(&mut raw);
        }

        // Full service for the next client, warm store intact.
        let mut client = Client::connect(addr).unwrap();
        let warm = client.run_jobs(&jobs).unwrap();
        assert_eq!(warm, expected, "the store survived the torn frames");
        assert_eq!(
            scrape(&mut client, "hbserve_store_misses"),
            1,
            "no torn frame executed anything"
        );
        assert_eq!(
            scrape(&mut client, "hbserve_store_hits"),
            1,
            "the warm replay hit the store"
        );
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    /// A scripted fake server delivering index 0 twice: the client must
    /// fail loudly instead of silently overwriting the filled slot.
    #[test]
    fn duplicate_result_delivery_is_a_protocol_error() {
        let cfg = MachineConfig::default().with_fuel(1_000_000);
        let jobs = vec![
            job(counting_program(3), cfg.clone(), 0, 0),
            job(counting_program(4), cfg.clone(), 0, 0),
        ];
        let outcome = {
            let p = counting_program(3);
            Machine::new(p, cfg).run()
        };
        let (addr, fake) = fake_server(PROTOCOL_VERSION, move |stream| {
            fake_submit(stream);
            let frame = |start: u32| {
                let mut w = Writer::new();
                w.put_u32(start);
                w.put_u32(1);
                encode_outcome(&mut w, &outcome);
                w.into_bytes()
            };
            write_frame(stream, RESP_RESULTS, &frame(0)).unwrap();
            write_frame(stream, RESP_RESULTS, &frame(0)).unwrap(); // re-delivery
            let _ = write_frame(stream, RESP_DONE, &2u32.to_le_bytes());
        });
        let mut client = Client::connect(addr).unwrap();
        match client.run_jobs(&jobs).unwrap_err() {
            ServeError::Protocol(msg) => assert!(msg.contains("duplicate"), "{msg}"),
            other => panic!("expected a protocol error, got {other}"),
        }
        fake.join().unwrap();
    }

    /// An out-of-range result range from a buggy server is also a loud
    /// protocol error.
    #[test]
    fn out_of_range_results_are_a_protocol_error() {
        let cfg = MachineConfig::default().with_fuel(1_000_000);
        let jobs = vec![job(counting_program(3), cfg.clone(), 0, 0)];
        let outcome = {
            let p = counting_program(3);
            Machine::new(p, cfg).run()
        };
        let (addr, fake) = fake_server(PROTOCOL_VERSION, move |stream| {
            fake_submit(stream);
            let mut w = Writer::new();
            w.put_u32(u32::MAX); // start far past the grid
            w.put_u32(1);
            encode_outcome(&mut w, &outcome);
            let _ = write_frame(stream, RESP_RESULTS, &w.into_bytes());
        });
        let mut client = Client::connect(addr).unwrap();
        match client.run_jobs(&jobs).unwrap_err() {
            ServeError::Protocol(msg) => assert!(msg.contains("out of range"), "{msg}"),
            other => panic!("expected a protocol error, got {other}"),
        }
        fake.join().unwrap();
    }

    #[test]
    fn traced_submission_returns_enclosed_server_spans() {
        let (addr, handle) = spawn_server_sharded(Some((1, 3)));
        let cfg = MachineConfig::default().with_fuel(1_000_000);
        let jobs: Vec<Job<u64>> =
            (0..40) // > 1 chunk
                .map(|k| job(counting_program(5 + k), cfg.clone(), 0, 0))
                .collect();
        let expected = expected_outcomes(&jobs);

        let trace = TraceId(hardbound_telemetry::trace::fresh_id());
        let parent = SpanId(hardbound_telemetry::trace::fresh_id());
        let mut client = Client::connect(addr).unwrap();
        let mut results: Vec<Option<RunOutcome>> = vec![None; jobs.len()];
        let mut spans = Vec::new();
        client
            .run_into(
                &jobs,
                Some(TraceCtx { trace, parent }),
                &mut results,
                &mut spans,
            )
            .unwrap();
        let results: Vec<RunOutcome> = results.into_iter().map(Option::unwrap).collect();
        assert_eq!(results, expected, "tracing must not perturb results");

        // One submit_exec root under the client's context, stamped with
        // the shard index.
        let exec: Vec<&SpanEvent> = spans.iter().filter(|s| s.kind == "submit_exec").collect();
        assert_eq!(exec.len(), 1, "{spans:?}");
        let exec = exec[0];
        assert_eq!(exec.trace, trace);
        assert_eq!(exec.parent, parent);
        assert_eq!(exec.field_u64("cells"), Some(40));
        assert_eq!(exec.field_u64("shard_index"), Some(1));

        // Chunk spans parent under it, cover every cell exactly once, and
        // sit inside it (slack for µs wall-clock rounding).
        let chunks: Vec<&SpanEvent> = spans.iter().filter(|s| s.kind == "chunk").collect();
        assert_eq!(chunks.len(), 40usize.div_ceil(CHUNK));
        let mut cells = 0;
        for c in &chunks {
            assert_eq!(c.trace, trace);
            assert_eq!(c.parent, exec.span);
            cells += c.field_u64("cells").unwrap();
            assert!(c.start_us + 100 >= exec.start_us, "{c:?} vs {exec:?}");
            assert!(c.end_us() <= exec.end_us() + 100, "{c:?} vs {exec:?}");
        }
        assert_eq!(cells, 40);

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn untraced_submissions_never_see_a_spans_frame() {
        let (addr, handle) = spawn_server();
        let cfg = MachineConfig::default().with_fuel(1_000_000);
        let jobs: Vec<Job<u64>> = (0..3)
            .map(|k| job(counting_program(5 + k), cfg.clone(), 0, 0))
            .collect();
        let mut client = Client::connect(addr).unwrap();
        let mut results: Vec<Option<RunOutcome>> = vec![None; jobs.len()];
        let mut spans = Vec::new();
        client
            .run_into(&jobs, None, &mut results, &mut spans)
            .unwrap();
        assert!(spans.is_empty(), "{spans:?}");
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn metrics_report_submissions_and_cells() {
        let (addr, handle) = spawn_server();
        let cfg = MachineConfig::default().with_fuel(1_000_000);
        let jobs: Vec<Job<u64>> = (0..9)
            .map(|k| job(counting_program(5 + k), cfg.clone(), 0, 0))
            .collect();
        let mut client = Client::connect(addr).unwrap();
        client.run_jobs(&jobs).unwrap();
        client.run_jobs(&jobs).unwrap(); // warm replay, still "executed"

        let text = client.metrics().unwrap();
        let get = |name| hardbound_telemetry::scrape_value(&text, name);
        assert_eq!(get("hbserve_submissions"), Some(2));
        assert_eq!(
            get("hbserve_cells_in_flight"),
            Some(0),
            "drained grids leave no queue"
        );
        let uptime = get("hbserve_uptime_seconds").unwrap();
        assert!(uptime < 600, "{uptime}");
        assert_eq!(get("hbserve_cells_executed"), Some(18));
        assert_eq!(get("hbserve_store_misses"), Some(9));
        assert_eq!(get("hbserve_store_hits"), Some(9));
        assert_eq!(
            get("hbserve_chunk_us_count"),
            Some(2),
            "one chunk per 9-cell grid: {text}"
        );
        assert!(text.contains("# TYPE hbserve_chunk_us histogram"), "{text}");

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    /// Satellite coverage: METRICS and PROFILE scrapes racing a grid
    /// mid-execution (plus concurrent profile flushes) must never tear —
    /// every scrape parses, profile invariants hold, and the monotonic
    /// counters never go backwards.
    #[test]
    fn concurrent_scrapes_mid_grid_are_atomic_and_monotonic() {
        use hardbound_telemetry::{BlockKey, BlockStat, Profile};
        let (addr, handle) = spawn_server();
        let cfg = MachineConfig::default().with_fuel(1_000_000);
        let jobs: Vec<Job<u64>> = (0..96)
            .map(|k| job(counting_program(200 + k), cfg.clone(), 0, 0))
            .collect();
        // The grid runs on its own connection while the scrapers below
        // hammer the server.
        let grid = std::thread::spawn(move || Client::connect(addr).unwrap().run_jobs(&jobs));
        // Concurrent per-run flush traffic into the profile accumulator:
        // each flush adds 1 exec / 5 cycles to one block, so any snapshot
        // that tore a flush in half would break `cycles == 5 * execs`.
        const PROG: u64 = 0x5eed;
        let seeder = std::thread::spawn(|| {
            for i in 0..50u32 {
                let mut p = Profile::new();
                p.record(
                    BlockKey {
                        prog: PROG,
                        func: 0,
                        entry: i % 4,
                    },
                    &BlockStat {
                        name: "seeded".into(),
                        execs: 1,
                        cycles: 5,
                        taken: 0,
                    },
                );
                hardbound_telemetry::profile::global().add(&p);
                std::thread::yield_now();
            }
        });
        let scraper = |addr: std::net::SocketAddr| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut last_cells = 0u64;
                let mut last_execs = 0u64;
                for _ in 0..25 {
                    let text = c.metrics().unwrap();
                    let cells = hardbound_telemetry::scrape_value(&text, "hbserve_cells_executed")
                        .expect("metrics scrape must always carry the counter");
                    assert!(cells >= last_cells, "counter went backwards");
                    last_cells = cells;
                    let p = c.profile().unwrap();
                    let seeded: Vec<_> = p
                        .blocks
                        .iter()
                        .filter(|(k, _)| k.prog == PROG)
                        .map(|(_, s)| s)
                        .collect();
                    let execs: u64 = seeded.iter().map(|s| s.execs).sum();
                    let cycles: u64 = seeded.iter().map(|s| s.cycles).sum();
                    assert_eq!(cycles, 5 * execs, "torn profile snapshot");
                    assert!(execs >= last_execs, "profile went backwards");
                    last_execs = execs;
                }
            })
        };
        let scrapers: Vec<_> = (0..2).map(|_| scraper(addr)).collect();
        for s in scrapers {
            s.join().unwrap();
        }
        seeder.join().unwrap();
        assert_eq!(grid.join().unwrap().unwrap().len(), 96);
        let mut collector = Client::connect(addr).unwrap();
        let final_cells = hardbound_telemetry::scrape_value(
            &collector.metrics().unwrap(),
            "hbserve_cells_executed",
        );
        assert_eq!(final_cells, Some(96), "the whole grid executed");
        let p = collector.profile().unwrap();
        let execs: u64 = p
            .blocks
            .iter()
            .filter(|(k, _)| k.prog == PROG)
            .map(|(_, s)| s.execs)
            .sum();
        assert_eq!(execs, 50, "every flush landed exactly once");
        collector.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn sharded_server_counts_owned_and_foreign_cells() {
        let (addr, handle) = spawn_server_sharded(Some((0, 3)));
        let cfg = MachineConfig::default().with_fuel(1_000_000);
        // Enough distinct cells that both ownership classes occur.
        let jobs: Vec<Job<u64>> = (0..24)
            .map(|k| job(counting_program(5 + k), cfg.clone(), 0, 0))
            .collect();
        let mut client = Client::connect(addr).unwrap();
        client.run_jobs(&jobs).unwrap();
        assert_eq!(scrape(&mut client, "hbserve_shard_index"), 0);
        assert_eq!(scrape(&mut client, "hbserve_shard_count"), 3);
        let owned = scrape(&mut client, "hbserve_owned_cells");
        let foreign = scrape(&mut client, "hbserve_foreign_cells");
        assert_eq!(owned + foreign, 24);
        assert!(owned > 0, "{owned} owned");
        assert!(foreign > 0, "{foreign} foreign");
        client.shutdown().unwrap();
        handle.join().unwrap();
    }
}

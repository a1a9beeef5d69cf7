//! The SPMD execution backend: per-processor worker threads, typed
//! message channels, and a resilient transport layer.
//!
//! The default [`Backend::Virtual`] computes every collective on the host
//! (rayon pool) and *models* the off-processor traffic analytically. Under
//! [`Backend::Spmd`] each collective in `dpf-comm` instead runs one worker
//! per virtual processor, hands each worker only its own block of every
//! distributed array (per the [`Layout`] block extents) and moves data
//! between blocks over typed `mpsc` channels — so the bytes a run reports
//! are bytes that actually crossed a channel. The worker threads are
//! parked between collectives in the process-wide cache of the vendored
//! rayon's engine ([`rayon::run_concurrent`]), which the host's parallel
//! loops share: a collective checks out p − 1 of them, spawning only a
//! shortfall, and runs its last worker on the calling thread.
//!
//! This module is the machinery shared by every SPMD collective:
//!
//! * [`Backend`] — the enum threaded through `Ctx`, the suite harness and
//!   the `dpf --backend` CLI flag.
//! * [`LinkMeter`] — counts messages and payload bytes that crossed a
//!   channel between two *distinct* workers (self-sends are local), plus
//!   the transport-layer traffic (retransmissions, injected link faults,
//!   the acks a real lossy wire would carry) that the paper's
//!   communication model does **not** count.
//! * [`TransportCfg`] / [`Transport`] — the transport's own limits
//!   (timeouts, buffer caps, respawn budget) and the meter + fault plan +
//!   limits every collective passes to [`run_workers`]. The link model
//!   (fault rate, seed and kinds, retry budget, kill schedule, recovery
//!   mode) is read from the [`FaultPlan`] alone.
//! * [`Router`] — a worker's mailbox: senders to every peer plus a
//!   receiver with per-sender pending queues, so per-pair FIFO order
//!   holds even when rounds interleave on the shared channel.
//! * [`run_workers`] — runs the worker set on parked threads
//!   and the calling thread, each worker building its own [`Router`] over
//!   one shared sender table and borrowing its own work item; supervises
//!   them (a panicked worker is recorded and the peers that need it are
//!   released with a typed [`DpfError::WorkerDied`]), waits for all of
//!   them, and either re-runs the collective (in-run healing, below) or
//!   re-raises the most informative failure on the caller.
//!
//! # Reliable delivery over unreliable links
//!
//! When the [`FaultPlan`] arms link faults (`--link-faults RATE`), every
//! cross-worker frame consults a deterministic SplitMix64 hash of
//! `(seed, collective, src, dst, seq, attempt)` and may be dropped,
//! duplicated, reordered, or corrupted *on the simulated wire*. The
//! transport then guarantees exactly-once, per-link FIFO delivery on top
//! of the lossy link: frames carry sequence numbers and a CRC32 header
//! checksum, and receivers dedup and reassemble them.
//!
//! The sender decides every loss itself, so it owns every repair and
//! needs no word back from the receiver: a frame joins its link's list
//! of lost frames only when its transmission is dropped or corrupted.
//! Simulated time is logical: a lost frame is repaired at the sender's
//! next service point — on entry to [`Router::recv_from`] and
//! [`Router::barrier`], every `SEND_SERVICE_EVERY` sends, and when the
//! collective body returns — by retransmitting it until a transmission
//! gets through or its retry budget is spent. No wall-clock timer drives
//! a repair, and no worker blocks while it still owes a peer a frame. A
//! frame is never repaired inside the `send` that lost it, so receivers
//! still see drop gaps and reassemble across them. A budget spent on a
//! body's last frames fails that body like any other.
//!
//! Because the decision function is pure, the entire retransmission
//! history — and therefore every transport meter (messages, bytes,
//! retransmissions, fault tallies, dedup and CRC-reject counts, and the
//! in-order acceptances [`LinkMeter::acks`] counts) — is
//! byte-reproducible from the fault seed, independent of thread timing.
//! A frame whose budget is exhausted raises a typed
//! [`DpfError::LinkFailure`] that the suite harness turns into a
//! retry/quarantine decision rather than a hung run.
//!
//! A worker leaves as soon as its body has returned and it has put every
//! held and lost frame on the wire; its mailbox closes with it. Nothing
//! can still need it, after a death too:
//!
//! * every frame it sent is on its receiver's channel, so it owes no
//!   repair;
//! * on each FIFO link a rejected or duplicate copy travels no later
//!   than the good copy, so a receiver has tallied every transport
//!   counter for a message by the time it takes that message;
//! * every `dpf-comm` protocol receives every message it sends, so a
//!   worker whose body returned has taken in every frame meant for it,
//!   and no peer sends it another.
//!
//! # Worker deaths
//!
//! A worker that fails records its death and wakes every peer with a
//! no-op control frame. A peer blocked in [`Router::recv_from`] gives up
//! only once the worker it waits on is recorded dead, and only after one
//! last drain of its channel, which holds everything the dead worker
//! sent before it died; a peer at [`Router::barrier`] gives up on any
//! death; a frame to a dead worker is dropped rather than failing its
//! sender. So each survivor runs exactly as far as its own program and
//! the dead workers' program order let it, and which failure a
//! collective reports — the first root cause in rank order — does not
//! depend on thread timing.
//!
//! # Deadlock diagnostics
//!
//! Blocking operations publish a [`WaitState`] and watch a global progress
//! counter. If every live worker is blocked and the counter stays flat for
//! [`TransportCfg::stall_timeout`], the first worker to notice dumps a
//! wait-for graph (who waits on whom, barrier generations, expected
//! sequence numbers, buffered-message counts, heartbeat ages), runs cycle
//! detection over it, and panics with a typed [`DpfError::Deadlock`]. A
//! hard per-wait timeout ([`TransportCfg::hard_timeout`]) remains as the
//! backstop of last resort. These two wall-clock windows are the only
//! timers left in the transport: they catch genuine stalls, never a
//! simulated loss, which is always repaired before its sender waits.
//!
//! # In-run self-healing (`--recover in-run`)
//!
//! Under [`RecoverMode::InRun`] (with more than one worker) a worker
//! death re-runs the collective instead of failing it. Every collective
//! is one *epoch*: before any worker starts, [`run_workers`] captures
//! each work item's [`Checkpoint`] bytes with a CRC — its *replica*, the
//! same snapshot form the iterative kernels' in-attempt rollback uses.
//! Nothing has been sent yet, so the p replicas are a globally
//! consistent cut by construction.
//!
//! Workers take no part in healing: a scheduled kill (`--kill-worker`)
//! or an untyped body panic is an ordinary death, and the peers abort as
//! they do after any death. After the join, if no root failure is a
//! typed [`DpfError`] and every dead rank is within
//! [`TransportCfg::max_respawns`], the caller scrambles each dead rank's
//! work item and restores it from its replica once the CRC verifies (a
//! mismatch is a typed [`DpfError::ReplicaCorrupt`] that falls back to
//! harness restart), restores every other rank from its replica, rolls
//! the logical §1.5 meters back to the epoch mark, and runs the
//! collective again: fresh channels, barrier and supervision under the
//! same collective index. Sequence numbers restart from zero, so the
//! deterministic link-fault decisions re-roll identically and the healed
//! run's results *and* logical §1.5 meters are byte-identical to a clean
//! run's. Each kill-schedule entry fires at most once across attempts.
//! Respawns and rewound epochs are counted on their own [`LinkMeter`]
//! counters, never on the logical messages/bytes the paper's model
//! counts.

// The transport legitimately reads the wall clock: heartbeat stall
// detection and hard-timeout deadlines are the backstops for genuine
// stalls, not §1.5 busy/elapsed metering — that accounting stays
// centralized in `instr.rs`, which never sees these reads because
// transport time is wait time, metered as messages. No repair of a
// simulated loss waits on the clock.
// dpf-lint: allow-file(untimed-clock, reason = "heartbeat/stall/deadline backstops for genuine stalls, not busy-elapsed metering; section 1.5 accounting stays in instr.rs")

use std::any::Any;
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Condvar, Mutex, Once, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex as PlMutex;

use crate::checkpoint::Checkpoint;
use crate::fault::{splitmix64, DpfError, FaultPlan, LinkFaultKind, RecoverMode};

/// Backstop timeout for a single blocking receive or barrier wait; stall
/// detection normally diagnoses a deadlock long before this fires.
const DEFAULT_HARD_TIMEOUT: Duration = Duration::from_secs(60);
/// How long global progress must stay flat — with every live worker
/// blocked — before a deadlock is diagnosed.
const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a blocked receiver sleeps on its channel per service slice.
const SERVICE_SLICE: Duration = Duration::from_millis(25);
/// On the reliable path, a sender repairs the frames it has lost every
/// this-many sends, so a tight send loop does not overflow receiver-side
/// reassembly windows with frames queued behind an unrepaired gap.
const SEND_SERVICE_EVERY: u32 = 64;
/// XOR mask applied to a checksum to simulate corruption: a frame's on
/// the simulated wire, or every replica's under `replica_corrupt`.
const CRC_MANGLE: u32 = 0xA5A5_5A5A;
/// Default per-collective respawn budget under in-run recovery; a rank
/// that keeps dying past this budget hard-fails the collective so the
/// harness-level restart path takes over.
const DEFAULT_MAX_RESPAWNS: u32 = 8;

/// Which execution engine runs the communication primitives.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Host-side reference implementation: collectives compute on the
    /// shared-memory rayon pool and communication volume is modeled
    /// analytically from the block layouts.
    #[default]
    Virtual,
    /// Message-passing implementation: one worker thread per virtual
    /// processor, each restricted to its own blocks, exchanging data over
    /// typed channels.
    Spmd,
}

impl Backend {
    /// True for [`Backend::Spmd`].
    #[inline]
    pub const fn is_spmd(self) -> bool {
        matches!(self, Backend::Spmd)
    }

    /// The CLI spelling of the backend.
    pub const fn name(self) -> &'static str {
        match self {
            Backend::Virtual => "virtual",
            Backend::Spmd => "spmd",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "virtual" => Ok(Backend::Virtual),
            "spmd" => Ok(Backend::Spmd),
            other => Err(format!("unknown backend {other:?} (virtual|spmd)")),
        }
    }
}

/// Counts the traffic that actually crossed a channel between two distinct
/// workers. The *logical* counters (`messages`, `payload_bytes`) count each
/// application-level message exactly once — this is the quantity compared
/// against the paper's communication model and it is unchanged by link
/// faults. The *transport* counters (retransmissions, injected faults,
/// discarded duplicates, checksum rejects, and the acks a real lossy wire
/// would carry) account for the extra wire traffic a reliability protocol
/// generates; all are deterministic for a given fault seed, and all are
/// excluded from the paper-model comparison.
/// Self-sends are delivered through the same channels for uniform worker
/// code but are not communication, so they are not counted anywhere.
#[derive(Debug, Default)]
pub struct LinkMeter {
    messages: AtomicU64,
    payload_bytes: AtomicU64,
    retransmits: AtomicU64,
    retransmitted_bytes: AtomicU64,
    acks: AtomicU64,
    faults_dropped: AtomicU64,
    faults_duplicated: AtomicU64,
    faults_reordered: AtomicU64,
    faults_corrupted: AtomicU64,
    duplicates_discarded: AtomicU64,
    crc_rejects: AtomicU64,
    collectives: AtomicU64,
    respawns: AtomicU64,
    epochs_rewound: AtomicU64,
}

impl LinkMeter {
    /// A fresh meter.
    pub fn new() -> Self {
        LinkMeter::default()
    }

    /// Record one cross-worker message carrying `bytes` of payload.
    #[inline]
    pub fn record(&self, bytes: u64) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.payload_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Messages that crossed a channel between distinct workers, counting
    /// each logical message once (retransmissions excluded).
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Payload bytes that crossed a channel between distinct workers,
    /// counting each logical message once (retransmissions excluded).
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes.load(Ordering::Relaxed)
    }

    #[inline]
    fn note_retransmit(&self, bytes: u64) {
        self.retransmits.fetch_add(1, Ordering::Relaxed);
        self.retransmitted_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    #[inline]
    fn note_ack(&self) {
        self.acks.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn note_fault(&self, kind: LinkFaultKind) {
        let ctr = match kind {
            LinkFaultKind::Drop => &self.faults_dropped,
            LinkFaultKind::Duplicate => &self.faults_duplicated,
            LinkFaultKind::Reorder => &self.faults_reordered,
            LinkFaultKind::Corrupt => &self.faults_corrupted,
        };
        ctr.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn note_duplicate_discarded(&self) {
        self.duplicates_discarded.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn note_crc_reject(&self) {
        self.crc_rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Retransmission attempts performed by all senders (each attempt
    /// counts, whether or not the simulated link lost it again).
    pub fn retransmits(&self) -> u64 {
        self.retransmits.load(Ordering::Relaxed)
    }

    /// Payload bytes pushed by retransmission attempts. These bytes show
    /// up here — and only here — never in [`LinkMeter::payload_bytes`],
    /// so the paper's comm-count model stays fault-invariant.
    pub fn retransmitted_bytes(&self) -> u64 {
        self.retransmitted_bytes.load(Ordering::Relaxed)
    }

    /// The cumulative acks a real lossy wire would carry: receivers count
    /// one per frame accepted in order (reliable mode only). No ack frame
    /// is sent, since every sender decides its own losses and repairs
    /// them unasked.
    pub fn acks(&self) -> u64 {
        self.acks.load(Ordering::Relaxed)
    }

    /// Total injected link faults of every kind.
    pub fn link_faults(&self) -> u64 {
        self.faults_dropped.load(Ordering::Relaxed)
            + self.faults_duplicated.load(Ordering::Relaxed)
            + self.faults_reordered.load(Ordering::Relaxed)
            + self.faults_corrupted.load(Ordering::Relaxed)
    }

    /// Injected frame drops.
    pub fn faults_dropped(&self) -> u64 {
        self.faults_dropped.load(Ordering::Relaxed)
    }

    /// Injected frame duplications.
    pub fn faults_duplicated(&self) -> u64 {
        self.faults_duplicated.load(Ordering::Relaxed)
    }

    /// Injected frame reorderings.
    pub fn faults_reordered(&self) -> u64 {
        self.faults_reordered.load(Ordering::Relaxed)
    }

    /// Injected frame corruptions (detected via checksum at the receiver).
    pub fn faults_corrupted(&self) -> u64 {
        self.faults_corrupted.load(Ordering::Relaxed)
    }

    /// Frames a receiver discarded as duplicates of already-delivered or
    /// already-buffered sequence numbers.
    pub fn duplicates_discarded(&self) -> u64 {
        self.duplicates_discarded.load(Ordering::Relaxed)
    }

    /// Frames a receiver rejected because the checksum did not verify.
    pub fn crc_rejects(&self) -> u64 {
        self.crc_rejects.load(Ordering::Relaxed)
    }

    /// Collectives (i.e. [`run_workers`] invocations) metered so far.
    pub fn collectives(&self) -> u64 {
        self.collectives.load(Ordering::Relaxed)
    }

    /// Claim the next collective index (0-based, monotone per meter).
    fn begin_collective(&self) -> u64 {
        self.collectives.fetch_add(1, Ordering::Relaxed)
    }

    #[inline]
    fn note_respawn(&self) {
        self.respawns.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn note_epoch_rewound(&self) {
        self.epochs_rewound.fetch_add(1, Ordering::Relaxed);
    }

    /// Roll the logical counters back to an epoch mark. Only called by
    /// [`run_workers`] between attempts, when every worker of the
    /// collective has finished (so no concurrent `record`).
    fn rollback_logical(&self, mark: (u64, u64)) {
        self.messages.store(mark.0, Ordering::Relaxed);
        self.payload_bytes.store(mark.1, Ordering::Relaxed);
    }

    /// Dead workers restored from their replicas by an in-run heal.
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// In-run heals: collectives rewound to their replicas and re-run.
    pub fn epochs_rewound(&self) -> u64 {
        self.epochs_rewound.load(Ordering::Relaxed)
    }
}

/// The transport's own limits: the stall and hard timeouts, the
/// receiver-side buffer caps and the respawn budget. The link model
/// itself — fault rate, seed and kinds, retry budget, kill schedule,
/// recovery mode — is the context's [`FaultPlan`]'s. The default suits
/// every suite run; unit tests tighten single limits.
#[derive(Clone, Copy, Debug)]
pub struct TransportCfg {
    /// Flat-progress window after which a fully-blocked worker set is
    /// diagnosed as deadlocked.
    pub stall_timeout: Duration,
    /// Backstop timeout for one blocking receive or barrier wait.
    pub hard_timeout: Duration,
    /// Max delivered-but-undrained messages buffered per peer before the
    /// receiver raises [`DpfError::LinkBackpressure`].
    pub pending_cap: usize,
    /// Max out-of-order frames buffered per peer awaiting reassembly
    /// before the receiver raises [`DpfError::LinkBackpressure`].
    pub reassembly_cap: usize,
    /// Respawns allowed per worker per collective under in-run recovery
    /// before the death hard-fails the collective.
    pub max_respawns: u32,
}

impl Default for TransportCfg {
    fn default() -> Self {
        TransportCfg {
            stall_timeout: DEFAULT_STALL_TIMEOUT,
            hard_timeout: DEFAULT_HARD_TIMEOUT,
            pending_cap: 1 << 16,
            reassembly_cap: 4096,
            max_respawns: DEFAULT_MAX_RESPAWNS,
        }
    }
}

/// What a collective hands to [`run_workers`]: the meter it records
/// into, the fault plan that models its links and kills, and the
/// transport's limits.
#[derive(Clone, Copy)]
pub struct Transport<'a> {
    meter: &'a LinkMeter,
    plan: &'a FaultPlan,
    cfg: TransportCfg,
}

static CLEAN_PLAN: OnceLock<FaultPlan> = OnceLock::new();

impl<'a> Transport<'a> {
    /// A transport over `meter` running `plan`'s link model and kill
    /// schedule within `cfg`'s limits.
    pub fn new(meter: &'a LinkMeter, plan: &'a FaultPlan, cfg: TransportCfg) -> Self {
        Transport { meter, plan, cfg }
    }

    /// A clean (fault-free, default-limited) transport over `meter`.
    pub fn clean(meter: &'a LinkMeter) -> Self {
        Transport::new(
            meter,
            CLEAN_PLAN.get_or_init(FaultPlan::default),
            TransportCfg::default(),
        )
    }
}

/// Bit-serial CRC32 (IEEE polynomial, reflected): the checksum of SPMD
/// frames and shard replicas, and of the campaign journal's lines.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Checksum over a frame's identifying header: source, destination,
/// sequence number, payload length. Corruption is simulated by mangling
/// this checksum, which the receiver detects exactly like a payload
/// bit-flip under an end-to-end checksum.
fn header_crc(src: usize, dst: usize, seq: u64, payload_bytes: u64) -> u32 {
    let mut buf = [0u8; 32];
    buf[0..8].copy_from_slice(&(src as u64).to_le_bytes());
    buf[8..16].copy_from_slice(&(dst as u64).to_le_bytes());
    buf[16..24].copy_from_slice(&seq.to_le_bytes());
    buf[24..32].copy_from_slice(&payload_bytes.to_le_bytes());
    crc32(&buf)
}

/// The deterministic per-transmission fault decision: a pure function of
/// `(seed, collective, src, dst, seq, attempt)`, so every run with the
/// same fault seed sees the identical loss pattern regardless of thread
/// timing. Sequence numbers restart in every collective, so the collective
/// index keeps each collective's decisions independent of the last's; an
/// in-run heal re-runs the same index and re-rolls identically. Repair
/// transmissions (`attempt > 0`) only re-roll Drop/Corrupt: duplicating or
/// reordering a retransmission adds nothing the first-attempt model
/// doesn't already cover, and mapping those rolls to clean delivery keeps
/// the retry budget meaningful.
fn link_decide(
    plan: &FaultPlan,
    collective: u64,
    src: usize,
    dst: usize,
    seq: u64,
    attempt: u32,
) -> Option<LinkFaultKind> {
    if src == dst || !plan.link_active() {
        return None;
    }
    let mut h = splitmix64(plan.seed ^ 0xA076_1D64_78BD_642F);
    h = splitmix64(h ^ collective);
    h = splitmix64(h ^ ((src as u64) << 32) ^ dst as u64);
    h = splitmix64(h ^ seq);
    h = splitmix64(h ^ attempt as u64);
    let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    if unit >= plan.link_rate {
        return None;
    }
    let pick = (splitmix64(h) % plan.link_kinds.len() as u64) as usize;
    let kind = plan.link_kinds[pick];
    if attempt > 0 && matches!(kind, LinkFaultKind::Duplicate | LinkFaultKind::Reorder) {
        return None;
    }
    Some(kind)
}

/// A sequence-numbered, checksummed data frame.
#[derive(Clone)]
struct Envelope<M> {
    seq: u64,
    payload_bytes: u64,
    crc: u32,
    msg: M,
}

impl<M: Clone> Envelope<M> {
    /// A copy whose checksum the simulated wire has mangled.
    fn corrupted(&self) -> Self {
        Envelope {
            crc: self.crc ^ CRC_MANGLE,
            ..self.clone()
        }
    }
}

/// What travels on a channel: data frames plus one control frame, a
/// dying worker's wake. The wake rides the same (lossless) channel but
/// is never metered as a logical message and never meets a link fault.
enum Frame<M> {
    Data(Envelope<M>),
    /// A data frame the simulated wire duplicated: the receiver accepts
    /// it twice. The two copies travel as one channel item, so the copy
    /// cannot arrive after a receiver that took the first one has left,
    /// and every injected duplicate is discarded exactly once.
    Twice(Envelope<M>),
    /// Sent by a dying worker to every peer, so a receiver asleep on its
    /// channel rechecks deaths at once. Carries nothing and changes no
    /// state.
    Wake,
}

/// Sender-side state for one outgoing link.
struct TxLink<M> {
    next_seq: u64,
    /// Frames whose first transmission the simulated wire dropped or
    /// corrupted, in sequence order: the repairs this sender owes the
    /// link's receiver. [`Router::repair`] drains it.
    lost: VecDeque<Envelope<M>>,
    /// A frame held back by a Reorder fault; released after the next send
    /// on this link (so it arrives swapped) or at any blocking operation.
    held: Option<Envelope<M>>,
}

impl<M> TxLink<M> {
    fn new() -> Self {
        TxLink {
            next_seq: 0,
            lost: VecDeque::new(),
            held: None,
        }
    }
}

/// Receiver-side state for one incoming link.
struct RxLink<M> {
    /// Next in-order sequence number expected from this peer.
    expected: u64,
    /// Out-of-order frames awaiting reassembly, keyed by sequence number.
    reorder: BTreeMap<u64, Envelope<M>>,
}

impl<M> RxLink<M> {
    fn new() -> Self {
        RxLink {
            expected: 0,
            reorder: BTreeMap::new(),
        }
    }
}

/// What a blocked worker is waiting on, published for the stall detector.
#[derive(Clone, Copy, Debug)]
enum WaitState {
    Recv {
        peer: usize,
        expected: u64,
        reordered: usize,
        buffered: usize,
    },
    Barrier {
        generation: u64,
    },
}

/// Shared supervision state for one worker set: a global progress counter
/// (the stall detector's signal), finish/death accounting, per-worker
/// heartbeats and published wait states.
struct Supervision {
    start: Instant,
    progress: AtomicU64,
    dead: AtomicUsize,
    deaths: PlMutex<Vec<(usize, String)>>,
    done: Vec<AtomicBool>,
    heartbeats: Vec<AtomicU64>,
    waits: Vec<PlMutex<Option<WaitState>>>,
    diagnosed: AtomicBool,
}

impl Supervision {
    fn new(n: usize) -> Self {
        Supervision {
            start: Instant::now(),
            progress: AtomicU64::new(0),
            dead: AtomicUsize::new(0),
            deaths: PlMutex::new(Vec::new()),
            done: (0..n).map(|_| AtomicBool::new(false)).collect(),
            heartbeats: (0..n).map(|_| AtomicU64::new(0)).collect(),
            waits: (0..n).map(|_| PlMutex::new(None)).collect(),
            diagnosed: AtomicBool::new(false),
        }
    }

    #[inline]
    fn bump(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn heartbeat(&self, rank: usize) {
        self.heartbeats[rank].store(self.now_ms(), Ordering::Relaxed);
    }

    fn retire(&self, rank: usize) {
        self.done[rank].store(true, Ordering::Release);
        self.bump();
    }

    /// Record a worker death.
    fn record_death(&self, rank: usize, msg: String) {
        self.deaths.lock().push((rank, msg));
        self.done[rank].store(true, Ordering::Release);
        self.dead.fetch_add(1, Ordering::AcqRel);
        self.bump();
    }

    /// First death on record, if any.
    fn first_dead(&self) -> Option<usize> {
        if self.dead.load(Ordering::Acquire) == 0 {
            return None;
        }
        self.deaths.lock().first().map(|&(rank, _)| rank)
    }

    /// True once `rank`'s death is on record. Everything `rank` sent
    /// before it died is on its receivers' channels by then.
    fn is_dead(&self, rank: usize) -> bool {
        self.dead.load(Ordering::Acquire) > 0 && self.deaths.lock().iter().any(|&(r, _)| r == rank)
    }
}

/// Snapshot of the progress counter used by blocking loops to decide when
/// the system has stalled.
struct StallWatch {
    last: u64,
    since: Instant,
}

impl StallWatch {
    fn new(sup: &Supervision) -> Self {
        StallWatch {
            last: sup.progress.load(Ordering::Relaxed),
            since: Instant::now(),
        }
    }
}

/// A reusable barrier for `n` workers: generation-counted, so the same
/// object serves every round of a collective. Its waiters poll it in
/// slices ([`Router::barrier`]) so they can watch for stalls and deaths.
struct SpmdBarrier {
    state: Mutex<(usize, u64)>,
    cv: Condvar,
    n: usize,
}

impl SpmdBarrier {
    /// Barrier for `n` workers.
    fn new(n: usize) -> Self {
        SpmdBarrier {
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
            n,
        }
    }

    /// Arrive at the barrier. Returns `None` when this arrival released
    /// the generation (the caller proceeds immediately), otherwise the
    /// generation to [`SpmdBarrier::poll`] for.
    fn arrive(&self) -> Option<u64> {
        let mut state = self.state.lock().expect("spmd barrier poisoned");
        let gen = state.1;
        state.0 += 1;
        if state.0 == self.n {
            state.0 = 0;
            state.1 += 1;
            self.cv.notify_all();
            None
        } else {
            Some(gen)
        }
    }

    /// Wait up to `timeout` for generation `gen` to be released. Returns
    /// true once the barrier has advanced past `gen`.
    fn poll(&self, gen: u64, timeout: Duration) -> bool {
        let state = self.state.lock().expect("spmd barrier poisoned");
        if state.1 != gen {
            return true;
        }
        let (state, _) = self
            .cv
            .wait_timeout(state, timeout)
            .expect("spmd barrier poisoned");
        state.1 != gen
    }

    /// Workers arrived at the current generation so far.
    fn arrived(&self) -> usize {
        self.state.lock().expect("spmd barrier poisoned").0
    }
}

/// A worker's communication endpoint: senders to every rank (self
/// included, so collective code stays uniform) and the worker's receiver.
/// Incoming frames are tagged with the sender rank, verified, deduped and
/// reassembled into per-sender pending queues, preserving exactly-once
/// per-pair FIFO order even under injected link faults.
///
/// The sender table is borrowed from [`run_workers`], which outlives every
/// Router of the collective, so a receive never sees a disconnected
/// channel; a send fails only once its receiver's Router has been dropped.
pub struct Router<'a, M> {
    rank: usize,
    /// This collective's index in the context's meter: it keys the
    /// link-fault decisions, which an in-run heal's re-run repeats.
    collective: u64,
    txs: &'a [Sender<(usize, Frame<M>)>],
    rx: Receiver<(usize, Frame<M>)>,
    pending: Vec<VecDeque<M>>,
    tx_links: Vec<TxLink<M>>,
    rx_links: Vec<RxLink<M>>,
    ops_since_service: u32,
    meter: &'a LinkMeter,
    plan: &'a FaultPlan,
    cfg: &'a TransportCfg,
    barrier: &'a SpmdBarrier,
    sup: &'a Supervision,
}

impl<M: Send + Clone> Router<'_, M> {
    /// This worker's rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total worker count.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.txs.len()
    }

    /// Send `msg` to worker `to`, metering `payload_bytes` when the
    /// message crosses between distinct workers. Sends never block
    /// (unbounded channels); under an armed link-fault plan the frame may
    /// be dropped, duplicated, reordered or corrupted on the simulated
    /// wire, and the reliability protocol repairs it transparently at the
    /// sender's next service point.
    pub fn send(&mut self, to: usize, payload_bytes: u64, msg: M) {
        let local = to == self.rank;
        if !local {
            self.meter.record(payload_bytes);
        }
        let seq = self.tx_links[to].next_seq;
        self.tx_links[to].next_seq += 1;
        if local || !self.plan.link_active() {
            // Lossless fast path: no checksum, no repair state.
            self.transmit(
                to,
                Frame::Data(Envelope {
                    seq,
                    payload_bytes,
                    crc: 0,
                    msg,
                }),
            );
            return;
        }
        // Repair periodically so a tight send loop can't overflow peer
        // reassembly windows behind a lost frame.
        self.ops_since_service += 1;
        if self.ops_since_service >= SEND_SERVICE_EVERY {
            self.ops_since_service = 0;
            for peer in 0..self.txs.len() {
                self.repair(peer);
            }
        }
        let env = Envelope {
            seq,
            payload_bytes,
            crc: header_crc(self.rank, to, seq, payload_bytes),
            msg,
        };
        match link_decide(self.plan, self.collective, self.rank, to, seq, 0) {
            None => {
                self.transmit(to, Frame::Data(env));
                self.flush_held(to);
            }
            Some(kind @ (LinkFaultKind::Drop | LinkFaultKind::Corrupt)) => {
                self.meter.note_fault(kind);
                if kind == LinkFaultKind::Corrupt {
                    self.transmit(to, Frame::Data(env.corrupted()));
                }
                self.flush_held(to);
                self.fail_if_spent(to, seq, 0);
                self.tx_links[to].lost.push_back(env);
            }
            Some(LinkFaultKind::Duplicate) => {
                self.meter.note_fault(LinkFaultKind::Duplicate);
                self.transmit(to, Frame::Twice(env));
                self.flush_held(to);
            }
            Some(LinkFaultKind::Reorder) => {
                self.meter.note_fault(LinkFaultKind::Reorder);
                // Release any previously held frame, then hold this one
                // until the next send on this link (or a blocking op).
                self.flush_held(to);
                self.tx_links[to].held = Some(env);
            }
        }
    }

    /// Receive the next message from worker `from`, buffering messages
    /// from other senders. Before it blocks the worker puts everything it
    /// owes its peers on the wire; while blocked it takes in peer frames,
    /// publishes its wait state for the stall detector, and aborts with a
    /// diagnosis instead of hanging. It gives up on `from` only once
    /// `from` is recorded dead and a last drain has not brought the
    /// message.
    pub fn recv_from(&mut self, from: usize) -> M {
        if let Some(m) = self.pending[from].pop_front() {
            self.sup.bump();
            return m;
        }
        self.heartbeat();
        self.flush_owed();
        let deadline = Instant::now() + self.cfg.hard_timeout;
        let mut watch = StallWatch::new(self.sup);
        loop {
            // Read before the drain: once `from` is recorded dead, the
            // drain takes in everything it sent.
            let gone = self.sup.is_dead(from);
            self.service(None);
            if let Some(m) = self.pending[from].pop_front() {
                self.clear_wait();
                self.heartbeat();
                self.sup.bump();
                return m;
            }
            if gone {
                self.abort_on(from);
            }
            self.publish_wait(WaitState::Recv {
                peer: from,
                expected: self.rx_links[from].expected,
                reordered: self.rx_links[from].reorder.len(),
                buffered: self.pending.iter().map(VecDeque::len).sum(),
            });
            self.service(Some(SERVICE_SLICE));
            self.stall_check(&mut watch);
            if Instant::now() >= deadline {
                self.clear_wait();
                let hb = self
                    .sup
                    .now_ms()
                    .saturating_sub(self.sup.heartbeats[from].load(Ordering::Relaxed));
                panic!(
                    "spmd worker {} timed out after {:?} waiting for worker {from} \
                     (expected seq {}, {} reordered frame(s) held, {} message(s) buffered \
                     across peers, peer heartbeat {hb}ms ago; deadlock suspected)",
                    self.rank,
                    self.cfg.hard_timeout,
                    self.rx_links[from].expected,
                    self.rx_links[from].reorder.len(),
                    self.pending.iter().map(VecDeque::len).sum::<usize>(),
                );
            }
        }
    }

    /// Wait on the collective's reusable barrier, first putting everything
    /// this worker owes its peers on the wire, then watching for stalls
    /// while blocked. Any death aborts the wait unless the barrier has
    /// already released. Peer frames stay on the channel until the next
    /// receive.
    pub fn barrier(&mut self) {
        self.heartbeat();
        self.flush_owed();
        let Some(gen) = self.barrier.arrive() else {
            self.sup.bump();
            return;
        };
        let deadline = Instant::now() + self.cfg.hard_timeout;
        let mut watch = StallWatch::new(self.sup);
        loop {
            // Read before the poll: a worker that died after passing this
            // generation released it first, so if the poll still finds it
            // unreleased, some dead worker never arrives.
            let died = self.sup.first_dead();
            let slice = if died.is_some() {
                Duration::ZERO
            } else {
                Duration::from_millis(5)
            };
            if self.barrier.poll(gen, slice) {
                self.clear_wait();
                self.sup.bump();
                return;
            }
            if let Some(worker) = died {
                self.abort_on(worker);
            }
            self.publish_wait(WaitState::Barrier { generation: gen });
            self.stall_check(&mut watch);
            if Instant::now() >= deadline {
                self.clear_wait();
                panic!(
                    "spmd worker {} timed out after {:?} at barrier generation {gen} \
                     ({}/{} workers arrived; deadlock suspected)",
                    self.rank,
                    self.cfg.hard_timeout,
                    self.barrier.arrived(),
                    self.nprocs(),
                );
            }
        }
    }

    #[inline]
    fn heartbeat(&self) {
        self.sup.heartbeat(self.rank);
    }

    fn publish_wait(&self, w: WaitState) {
        *self.sup.waits[self.rank].lock() = Some(w);
    }

    fn clear_wait(&self) {
        *self.sup.waits[self.rank].lock() = None;
    }

    /// Abort this worker's blocking wait because `worker` died.
    fn abort_on(&self, worker: usize) -> ! {
        self.clear_wait();
        std::panic::panic_any(DpfError::WorkerDied {
            worker,
            waiter: self.rank,
        });
    }

    /// Put a data frame on the wire. A frame to a worker recorded dead is
    /// dropped, so the sender runs on as if it had been delivered; any
    /// other send error means a live peer left early: panic.
    fn transmit(&self, to: usize, frame: Frame<M>) {
        if self.txs[to].send((self.rank, frame)).is_err() && !self.sup.is_dead(to) {
            panic!("spmd worker {}: peer worker {to} hung up", self.rank);
        }
    }

    /// Send a control frame (a wake). It rides the lossless channel, is
    /// never metered as a logical message and never meets a link fault.
    /// Losing one to a peer that has left is harmless, so errors are
    /// ignored.
    fn send_ctl(&self, to: usize, frame: Frame<M>) {
        let _ = self.txs[to].send((self.rank, frame));
    }

    fn flush_held(&mut self, to: usize) {
        if let Some(env) = self.tx_links[to].held.take() {
            self.transmit(to, Frame::Data(env));
        }
    }

    /// Put everything this worker owes its peers on the wire: release each
    /// held (reordered) frame and repair each lost one. Runs on entry to
    /// every blocking operation and when the collective body returns, so
    /// no worker waits while a peer waits on a frame only it can send.
    fn flush_owed(&mut self) {
        for to in 0..self.txs.len() {
            self.flush_held(to);
            self.repair(to);
        }
    }

    /// Retransmit each lost frame on link `to`, in sequence order, until
    /// a transmission gets through, re-rolling the fault decision for
    /// every attempt; a frame whose retry budget is spent fails the link.
    fn repair(&mut self, to: usize) {
        while let Some(env) = self.tx_links[to].lost.pop_front() {
            for attempt in 1.. {
                self.meter.note_retransmit(env.payload_bytes);
                match link_decide(self.plan, self.collective, self.rank, to, env.seq, attempt) {
                    Some(LinkFaultKind::Drop) => self.meter.note_fault(LinkFaultKind::Drop),
                    Some(LinkFaultKind::Corrupt) => {
                        self.meter.note_fault(LinkFaultKind::Corrupt);
                        self.transmit(to, Frame::Data(env.corrupted()));
                    }
                    _ => {
                        self.transmit(to, Frame::Data(env));
                        break;
                    }
                }
                self.fail_if_spent(to, env.seq, attempt);
            }
        }
    }

    /// Fail link `to` with a typed error when transmission `attempt` of
    /// frame `seq` was lost and the retry budget allows no further one.
    fn fail_if_spent(&self, to: usize, seq: u64, attempt: u32) {
        if attempt >= self.plan.max_retransmits {
            self.clear_wait();
            std::panic::panic_any(DpfError::LinkFailure {
                src: self.rank,
                dst: to,
                seq,
                attempts: attempt + 1,
            });
        }
    }

    /// Drain the channel; with `block` set, sleep up to that long for one
    /// more frame if the drain came up empty.
    fn service(&mut self, block: Option<Duration>) {
        let mut got_any = false;
        while let Ok(item) = self.rx.try_recv() {
            got_any = true;
            self.dispatch(item);
        }
        if !got_any {
            if let Some(timeout) = block {
                if let Ok(item) = self.rx.recv_timeout(timeout) {
                    self.dispatch(item);
                }
            }
        }
    }

    fn dispatch(&mut self, (sender, frame): (usize, Frame<M>)) {
        match frame {
            Frame::Data(env) => self.accept(sender, env),
            Frame::Twice(env) => {
                self.accept(sender, env.clone());
                self.accept(sender, env);
            }
            Frame::Wake => {}
        }
    }

    /// Verify, dedup and reassemble an incoming data frame, delivering
    /// in-order messages to the per-sender pending queue.
    fn accept(&mut self, src: usize, env: Envelope<M>) {
        if src == self.rank {
            self.deliver(src, env.msg);
            return;
        }
        // A rejected or missing frame needs no word back: its sender
        // decided the loss itself and repairs it at its next service point.
        let reliable = self.plan.link_active();
        if reliable && env.crc != header_crc(src, self.rank, env.seq, env.payload_bytes) {
            self.meter.note_crc_reject();
            return;
        }
        let expected = self.rx_links[src].expected;
        if env.seq < expected || self.rx_links[src].reorder.contains_key(&env.seq) {
            self.meter.note_duplicate_discarded();
            return;
        }
        if env.seq > expected {
            if self.rx_links[src].reorder.len() >= self.cfg.reassembly_cap {
                self.clear_wait();
                std::panic::panic_any(DpfError::LinkBackpressure {
                    worker: self.rank,
                    peer: src,
                    buffered: self.rx_links[src].reorder.len(),
                    cap: self.cfg.reassembly_cap,
                });
            }
            self.rx_links[src].reorder.insert(env.seq, env);
            return;
        }
        self.rx_links[src].expected += 1;
        self.deliver(src, env.msg);
        while let Some(e) = {
            let next = self.rx_links[src].expected;
            self.rx_links[src].reorder.remove(&next)
        } {
            self.rx_links[src].expected += 1;
            self.deliver(src, e.msg);
        }
        if reliable {
            // The cumulative ack a real lossy wire would carry here. None
            // is sent: the sender decided every loss and repairs it unasked.
            self.meter.note_ack();
        }
    }

    fn deliver(&mut self, src: usize, msg: M) {
        if self.pending[src].len() >= self.cfg.pending_cap {
            self.clear_wait();
            std::panic::panic_any(DpfError::LinkBackpressure {
                worker: self.rank,
                peer: src,
                buffered: self.pending[src].len(),
                cap: self.cfg.pending_cap,
            });
        }
        self.pending[src].push_back(msg);
        self.sup.bump();
    }

    /// Diagnose a deadlock once the whole worker set is blocked and global
    /// progress has been flat for the stall window.
    fn stall_check(&mut self, watch: &mut StallWatch) {
        let current = self.sup.progress.load(Ordering::Relaxed);
        if current != watch.last {
            watch.last = current;
            watch.since = Instant::now();
            return;
        }
        let stalled_for = watch.since.elapsed();
        if stalled_for < self.cfg.stall_timeout {
            return;
        }
        let n = self.txs.len();
        for rank in 0..n {
            if self.sup.done[rank].load(Ordering::Acquire) {
                continue;
            }
            if self.sup.waits[rank].lock().is_none() {
                // Someone is still computing: not a deadlock (the hard
                // timeout remains as the backstop).
                return;
            }
        }
        if self.sup.diagnosed.swap(true, Ordering::SeqCst) {
            return;
        }
        let detail = self.render_wait_graph(stalled_for);
        self.clear_wait();
        std::panic::panic_any(DpfError::Deadlock {
            worker: self.rank,
            detail,
        });
    }

    /// Render the wait-for graph: one line per worker (what it waits on,
    /// with sequence/buffer/heartbeat detail) plus cycle detection.
    fn render_wait_graph(&self, stalled_for: Duration) -> String {
        use std::fmt::Write as _;
        let n = self.txs.len();
        let now = self.sup.now_ms();
        let deaths = self.sup.deaths.lock().clone();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "no global progress for {stalled_for:?}; wait-for graph ({n} worker(s)):"
        );
        let mut edges: Vec<Option<usize>> = vec![None; n];
        #[allow(clippy::needless_range_loop)] // rank also indexes the sup arrays
        for rank in 0..n {
            let hb = now.saturating_sub(self.sup.heartbeats[rank].load(Ordering::Relaxed));
            if let Some((_, msg)) = deaths.iter().find(|(d, _)| *d == rank) {
                let _ = writeln!(out, "  worker {rank}: dead ({msg})");
                continue;
            }
            if self.sup.done[rank].load(Ordering::Acquire) {
                let _ = writeln!(out, "  worker {rank}: finished");
                continue;
            }
            match *self.sup.waits[rank].lock() {
                Some(WaitState::Recv {
                    peer,
                    expected,
                    reordered,
                    buffered,
                }) => {
                    edges[rank] = Some(peer);
                    let _ = writeln!(
                        out,
                        "  worker {rank}: waiting on worker {peer} (expected seq {expected}, \
                         {reordered} reordered frame(s) held, {buffered} undrained message(s); \
                         heartbeat {hb}ms ago)"
                    );
                }
                Some(WaitState::Barrier { generation }) => {
                    let _ = writeln!(
                        out,
                        "  worker {rank}: at barrier generation {generation} \
                         ({}/{n} arrived; heartbeat {hb}ms ago)",
                        self.barrier.arrived()
                    );
                }
                None => {
                    let _ = writeln!(out, "  worker {rank}: running (heartbeat {hb}ms ago)");
                }
            }
        }
        match find_cycle(&edges) {
            Some(cycle) => {
                let mut path = cycle
                    .iter()
                    .map(|r| format!("worker {r}"))
                    .collect::<Vec<_>>()
                    .join(" -> ");
                let _ = write!(path, " -> worker {}", cycle[0]);
                let _ = writeln!(out, "  wait cycle detected: {path}");
            }
            None => {
                let _ = writeln!(
                    out,
                    "  no recv cycle; suspect a barrier mismatch or lost wakeup"
                );
            }
        }
        out
    }

    /// Record this worker's death, caused by `payload`, and wake every
    /// peer so one asleep on its channel notices at once. Returns the
    /// payload.
    fn die(&self, payload: Box<dyn Any + Send>) -> Box<dyn Any + Send> {
        self.clear_wait();
        self.sup
            .record_death(self.rank, payload_str(payload.as_ref()));
        for to in (0..self.nprocs()).filter(|&to| to != self.rank) {
            self.send_ctl(to, Frame::Wake);
        }
        payload
    }
}

/// Walk the single-successor wait graph and return the first cycle found.
fn find_cycle(edges: &[Option<usize>]) -> Option<Vec<usize>> {
    let n = edges.len();
    // 0 = unvisited, 1 = on the current path, 2 = fully explored.
    let mut color = vec![0u8; n];
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut path = Vec::new();
        let mut cur = start;
        loop {
            if color[cur] == 1 {
                let pos = path.iter().position(|&x| x == cur).expect("on path");
                return Some(path[pos..].to_vec());
            }
            if color[cur] == 2 {
                break;
            }
            color[cur] = 1;
            path.push(cur);
            match edges[cur] {
                Some(next) => cur = next,
                None => break,
            }
        }
        for &x in &path {
            color[x] = 2;
        }
    }
    None
}

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Install (once, process-wide) a panic hook that suppresses the default
/// stderr report on threads that opted in via [`set_quiet_panics`]. SPMD
/// worker panics are routine under fault injection — they are caught,
/// recorded and re-raised as typed errors on the caller — so printing
/// each one would bury real output.
pub fn install_quiet_panic_hook() {
    QUIET_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if QUIET_PANICS.with(Cell::get) {
                return;
            }
            previous(info);
        }));
    });
}

/// Mark the current thread's panics as quiet (suppressed by the hook
/// installed via [`install_quiet_panic_hook`]).
pub fn set_quiet_panics(quiet: bool) {
    QUIET_PANICS.with(|q| q.set(quiet));
}

/// Best-effort human-readable rendering of a caught panic payload: a
/// typed [`DpfError`]'s message, a string payload, or a placeholder.
pub fn payload_str(payload: &(dyn Any + Send)) -> String {
    if let Some(e) = payload.downcast_ref::<DpfError>() {
        e.to_string()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Restore `w` from a snapshot whose bytes have been deliberately
/// garbled. A dead worker's work item is scrambled before an in-run heal
/// restores it from its replica, so that the restore is provably
/// load-bearing — if it were skipped or wrong, the healed results could
/// not come out byte-identical to a clean run.
fn scramble<W: Checkpoint>(w: &mut W, snapshot: &[u8]) {
    let garbled: Vec<u8> = snapshot.iter().map(|b| b ^ 0xFF).collect();
    w.restore(&mut &garbled[..]);
}

/// The ranks a collective's kill schedule kills in this attempt: each
/// rank's first entry for `collective` not yet `fired`. Each entry fires
/// at most once, so the re-run after a heal does not re-kill a rank.
fn due_kills(plan: &FaultPlan, collective: u64, fired: &mut [bool]) -> Vec<usize> {
    let mut doomed = Vec::new();
    for (i, &(rank, at)) in plan.kill_workers.iter().enumerate() {
        if at == collective && !fired[i] && !doomed.contains(&rank) {
            fired[i] = true;
            doomed.push(rank);
        }
    }
    doomed
}

/// Marks the current thread's panics quiet until dropped, then restores
/// the thread's own setting: a worker runs on a parked thread that later
/// runs host loops, or on the caller.
struct QuietPanics(bool);

impl QuietPanics {
    fn enter() -> QuietPanics {
        QuietPanics(QUIET_PANICS.with(|q| q.replace(true)))
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        set_quiet_panics(self.0);
    }
}

/// One worker's share of an attempt: die at once if `killed`, else run
/// the body, put what it still owes on the wire and retire. A failure is
/// recorded as this worker's death, and its payload is the worker's
/// result. The worker leaves on return, dropping its Router and so
/// closing its mailbox. The worker's panics are quiet; its thread's own
/// setting is restored on return.
fn drive<M, W, R, F>(
    w: &mut W,
    mut router: Router<'_, M>,
    f: &F,
    killed: bool,
) -> Result<R, Box<dyn Any + Send>>
where
    M: Send + Clone,
    F: Fn(usize, &mut W, &mut Router<'_, M>) -> R,
{
    let _quiet = QuietPanics::enter();
    let rank = router.rank;
    if killed {
        let msg = format!(
            "injected fault: spmd worker {rank} killed at collective {}",
            router.collective
        );
        return Err(router.die(Box::new(msg)));
    }
    // The body's own frames are flushed inside the guard, so a frame
    // whose budget runs out on the way fails the body like any other
    // link failure, before this worker retires.
    let body = catch_unwind(AssertUnwindSafe(|| {
        let out = f(rank, w, &mut router);
        router.flush_owed();
        out
    }));
    match body {
        Ok(out) => {
            router.sup.retire(rank);
            Ok(out)
        }
        Err(payload) => Err(router.die(payload)),
    }
}

/// Each worker's result of one attempt, in rank order.
type Results<R> = Vec<Option<Result<R, Box<dyn Any + Send>>>>;

/// One attempt at collective `collective`: fresh channels, barrier and
/// supervision, and one worker per work item — the last on the calling
/// thread, the others on parked threads. The ranks in `doomed` die
/// before running the body.
fn attempt<M, W, R, F>(
    transport: Transport<'_>,
    collective: u64,
    work: &mut [W],
    f: &F,
    doomed: &[usize],
) -> Results<R>
where
    M: Send + Clone,
    W: Send,
    R: Send,
    F: Fn(usize, &mut W, &mut Router<'_, M>) -> R + Sync,
{
    let Transport { meter, plan, cfg } = transport;
    let nprocs = work.len();
    let barrier = SpmdBarrier::new(nprocs);
    let sup = Supervision::new(nprocs);
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..nprocs).map(|_| channel()).unzip();
    let mut results: Results<R> = (0..nprocs).map(|_| None).collect();
    let (txs, cfg, barrier, sup) = (&txs[..], &cfg, &barrier, &sup);
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = rxs
        .into_iter()
        .zip(work.iter_mut().zip(results.iter_mut()))
        .enumerate()
        .map(|(rank, (rx, (w, slot)))| {
            Box::new(move || {
                // Built here, on the worker that drives and drops it, so
                // its buffers come from and return to this thread's heap.
                let router = Router {
                    rank,
                    collective,
                    txs,
                    rx,
                    pending: (0..nprocs).map(|_| VecDeque::new()).collect(),
                    tx_links: (0..nprocs).map(|_| TxLink::new()).collect(),
                    rx_links: (0..nprocs).map(|_| RxLink::new()).collect(),
                    ops_since_service: 0,
                    meter,
                    plan,
                    cfg,
                    barrier,
                    sup,
                };
                *slot = Some(drive(w, router, f, doomed.contains(&rank)));
            }) as Box<_>
        })
        .collect();
    rayon::run_concurrent(jobs);
    results
}

/// Run `nprocs` workers, one per virtual processor: the last on the
/// calling thread, the others on parked threads. Each worker
/// receives its rank, a borrow of its element of `work` (the worker's own
/// array blocks and outputs) and a [`Router`] wired to every peer, which
/// it builds, drives and drops on its own thread. Returns the workers'
/// results in rank order; `work` is freed here, on the caller.
///
/// Workers are supervised: a panicking worker is caught, its death is
/// recorded so the peers that need it abort with a typed
/// [`DpfError::WorkerDied`], and after every worker has finished the most
/// informative failure — the root cause, preferring any non-`WorkerDied`
/// payload — is re-raised on the caller. A worker leaves as soon as its
/// body has returned and its held and lost frames are on the wire, so
/// faults on final frames are repaired before it goes; the module docs
/// say why no peer can need it after that.
///
/// Under `--recover in-run` (with more than one worker) a death whose
/// root causes are all untyped — scheduled kills and body panics — within
/// the respawn budget is healed instead: every work item is restored
/// from the replica taken before the first attempt and the collective
/// runs again — see the module docs and [`Checkpoint`].
pub fn run_workers<M, W, R, F>(
    nprocs: usize,
    transport: Transport<'_>,
    mut work: Vec<W>,
    f: F,
) -> Vec<R>
where
    M: Send + Clone,
    W: Send + Checkpoint,
    R: Send,
    F: Fn(usize, &mut W, &mut Router<'_, M>) -> R + Sync,
{
    assert_eq!(work.len(), nprocs, "one work item per worker");
    install_quiet_panic_hook();
    let Transport { meter, plan, cfg } = transport;
    let collective = meter.begin_collective();
    let heal_armed = plan.recover == RecoverMode::InRun && nprocs > 1;
    // Each work item's replica — its CRC and bytes — taken before any
    // worker runs: a consistent cut of the work items.
    let mangle = if plan.replica_corrupt { CRC_MANGLE } else { 0 };
    let replicas: Vec<(u32, Vec<u8>)> = if heal_armed {
        work.iter()
            .map(|w| {
                let mut bytes = Vec::new();
                w.capture(&mut bytes);
                (crc32(&bytes) ^ mangle, bytes)
            })
            .collect()
    } else {
        Vec::new()
    };
    // The logical-meter rollback point for a heal: §1.5 counters as they
    // stood before any worker of this collective sent anything.
    let epoch_mark = (meter.messages(), meter.payload_bytes());
    let mut fired = vec![false; plan.kill_workers.len()];
    let mut respawned = vec![0u32; replicas.len()];
    loop {
        let doomed = due_kills(plan, collective, &mut fired);
        let results = attempt(transport, collective, &mut work, &f, &doomed);
        let mut oks = Vec::with_capacity(nprocs);
        let mut root: Option<Box<dyn Any + Send>> = None;
        let mut secondary: Option<Box<dyn Any + Send>> = None;
        let mut victims = Vec::new();
        let mut typed_root = false;
        for (rank, result) in results.into_iter().enumerate() {
            match result.expect("spmd worker thread machinery panicked") {
                Ok(r) => oks.push(r),
                Err(payload) => match payload.downcast_ref::<DpfError>() {
                    Some(DpfError::WorkerDied { .. }) => {
                        secondary.get_or_insert(payload);
                    }
                    cause => {
                        typed_root |= cause.is_some();
                        victims.push(rank);
                        root.get_or_insert(payload);
                    }
                },
            }
        }
        let Some(payload) = root.or(secondary) else {
            return oks;
        };
        let healable = heal_armed
            && !typed_root
            && !victims.is_empty()
            && victims.iter().all(|&v| respawned[v] < cfg.max_respawns);
        if !healable {
            std::panic::resume_unwind(payload);
        }
        for (rank, (w, (crc, bytes))) in work.iter_mut().zip(&replicas).enumerate() {
            if victims.contains(&rank) {
                scramble(w, bytes);
                if crc32(bytes) != *crc {
                    std::panic::resume_unwind(Box::new(DpfError::ReplicaCorrupt {
                        worker: rank,
                        epoch: collective,
                    }));
                }
                respawned[rank] += 1;
                meter.note_respawn();
            }
            w.restore(&mut &bytes[..]);
        }
        meter.rollback_logical(epoch_mark);
        meter.note_epoch_rewound();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A transport over `meter` running `plan` within the default limits.
    fn transport<'a>(meter: &'a LinkMeter, plan: &'a FaultPlan) -> Transport<'a> {
        Transport::new(meter, plan, TransportCfg::default())
    }

    /// Link faults at `rate` from `seed`, with a 32-retransmit budget.
    fn lossy(rate: f64, seed: u64) -> FaultPlan {
        FaultPlan::new(0.0, seed)
            .with_link_faults(rate)
            .with_max_retransmits(32)
    }

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("virtual".parse::<Backend>().unwrap(), Backend::Virtual);
        assert_eq!("spmd".parse::<Backend>().unwrap(), Backend::Spmd);
        assert!("mpi".parse::<Backend>().is_err());
        assert_eq!(Backend::Spmd.to_string(), "spmd");
        assert_eq!(Backend::default(), Backend::Virtual);
        assert!(Backend::Spmd.is_spmd());
        assert!(!Backend::Virtual.is_spmd());
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn workers_restore_their_threads_quiet_panic_flag() {
        let meter = LinkMeter::new();
        let quiet = || QUIET_PANICS.with(Cell::get);
        // The last rank runs on this thread, so its flag is a worker's
        // thread's flag after the worker ran.
        for was in [true, false] {
            set_quiet_panics(was);
            let inside = run_workers::<u64, (), bool, _>(
                2,
                Transport::clean(&meter),
                vec![(); 2],
                |_, _, _| QUIET_PANICS.with(Cell::get),
            );
            assert_eq!(inside, [true, true], "workers' panics are quiet");
            assert_eq!(quiet(), was, "the caller's flag was not restored");
        }
        // Parked threads, the one that just ran rank 0 among them, go
        // back to the cache with their flag as they were spawned: off.
        let flags = Mutex::new(Vec::new());
        let read: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| Box::new(|| flags.lock().unwrap().push(quiet())) as Box<_>)
            .collect();
        rayon::run_concurrent(read);
        assert_eq!(*flags.lock().unwrap(), [false; 4]);
    }

    #[test]
    fn meter_ignores_self_sends() {
        let meter = LinkMeter::new();
        let results = run_workers::<u64, (), u64, _>(
            4,
            Transport::clean(&meter),
            vec![(); 4],
            |rank, _w, router| {
                // Every worker sends its rank to every rank (self included).
                for to in 0..router.nprocs() {
                    router.send(to, 8, rank as u64);
                }
                let mut sum = 0;
                for from in 0..router.nprocs() {
                    sum += router.recv_from(from);
                }
                sum
            },
        );
        assert_eq!(results, vec![1 + 2 + 3; 4]);
        // 4 workers x 3 cross-peers each = 12 metered messages; the clean
        // transport generates no control traffic at all.
        assert_eq!(meter.messages(), 12);
        assert_eq!(meter.payload_bytes(), 12 * 8);
        assert_eq!(meter.acks(), 0);
        assert_eq!(meter.retransmits(), 0);
        assert_eq!(meter.link_faults(), 0);
    }

    #[test]
    fn per_sender_fifo_holds_across_rounds() {
        let meter = LinkMeter::new();
        let results = run_workers::<u32, (), Vec<u32>, _>(
            3,
            Transport::clean(&meter),
            vec![(); 3],
            |rank, _w, router| {
                // Two back-to-back rounds; receivers must see each peer's
                // messages in send order even though the shared channel
                // interleaves senders arbitrarily.
                for round in 0..2u32 {
                    for to in 0..router.nprocs() {
                        router.send(to, 0, round * 10 + rank as u32);
                    }
                }
                router.barrier();
                let mut got = Vec::new();
                for from in 0..router.nprocs() {
                    for round in 0..2u32 {
                        let m = router.recv_from(from);
                        assert_eq!(m, round * 10 + from as u32);
                        got.push(m);
                    }
                }
                got
            },
        );
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn barrier_is_reusable() {
        let b = SpmdBarrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        if let Some(gen) = b.arrive() {
                            let released = (0..200).any(|_| b.poll(gen, Duration::from_millis(50)));
                            assert!(released, "generation {gen} never released");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let meter = LinkMeter::new();
        let res = std::panic::catch_unwind(|| {
            run_workers::<(), usize, (), _>(
                2,
                Transport::clean(&meter),
                vec![0, 1],
                |rank, _w, _router| {
                    if rank == 1 {
                        panic!("worker bug");
                    }
                },
            );
        });
        assert!(res.is_err());
    }

    /// All-to-all exchange under every fault kind (and the full mix):
    /// results must be bit-identical to the fault-free run, the logical
    /// meter must be unchanged, and the transport counters must show the
    /// faults were actually exercised and repaired.
    #[test]
    fn lossy_links_deliver_exactly_once_in_order() {
        let rounds = 40u64;
        let exchange = |plan: &FaultPlan| {
            let meter = LinkMeter::new();
            let results = run_workers::<u64, (), Vec<u64>, _>(
                4,
                transport(&meter, plan),
                vec![(); 4],
                |rank, _w, router| {
                    for round in 0..rounds {
                        for to in 0..router.nprocs() {
                            router.send(to, 8, round * 100 + rank as u64);
                        }
                    }
                    let mut got = Vec::new();
                    for from in 0..router.nprocs() {
                        for round in 0..rounds {
                            let m = router.recv_from(from);
                            assert_eq!(
                                m,
                                round * 100 + from as u64,
                                "out-of-order or corrupted delivery"
                            );
                            got.push(m);
                        }
                    }
                    got
                },
            );
            (results, meter.messages(), meter.payload_bytes())
        };
        let clean = exchange(&FaultPlan::default());
        let mix = lossy(0.3, 0xD5F_0004);
        let mut kinds: Vec<Vec<LinkFaultKind>> =
            LinkFaultKind::ALL.iter().map(|&k| vec![k]).collect();
        kinds.push(LinkFaultKind::ALL.to_vec());
        for link_kinds in kinds {
            let plan = FaultPlan {
                link_kinds: link_kinds.clone(),
                ..mix.clone()
            };
            assert_eq!(
                exchange(&plan),
                clean,
                "kinds {link_kinds:?} changed results or logical meters"
            );
        }
        // The full mix must actually have exercised the repair machinery.
        let meter = LinkMeter::new();
        run_workers::<u64, (), (), _>(
            4,
            transport(&meter, &mix),
            vec![(); 4],
            |rank, _w, router| {
                for round in 0..rounds {
                    for to in 0..router.nprocs() {
                        router.send(to, 8, round * 100 + rank as u64);
                    }
                }
                for from in 0..router.nprocs() {
                    for _ in 0..rounds {
                        router.recv_from(from);
                    }
                }
            },
        );
        assert!(meter.link_faults() > 0, "injector never fired");
        assert!(meter.retransmits() > 0, "no repairs performed");
        assert!(meter.acks() > 0, "no in-order acceptance counted");
    }

    /// Retransmission accounting is a pure function of the fault seed:
    /// two identical lossy runs agree on every transport counter.
    #[test]
    fn lossy_transport_counters_are_deterministic() {
        let run = || {
            let plan = lossy(0.25, 99);
            let meter = LinkMeter::new();
            run_workers::<u64, (), (), _>(
                3,
                transport(&meter, &plan),
                vec![(); 3],
                |rank, _w, router| {
                    for round in 0..30u64 {
                        for to in 0..router.nprocs() {
                            router.send(to, 16, round * 10 + rank as u64);
                        }
                        for from in 0..router.nprocs() {
                            router.recv_from(from);
                        }
                        router.barrier();
                    }
                },
            );
            assert!(meter.acks() > 0, "no in-order acceptance counted");
            (
                meter.messages(),
                meter.payload_bytes(),
                meter.retransmits(),
                meter.retransmitted_bytes(),
                meter.link_faults(),
                meter.duplicates_discarded(),
                meter.crc_rejects(),
                meter.acks(),
            )
        };
        assert_eq!(run(), run());
    }

    /// One collective at p = 2 in which rank 0 sends rank 1 one frame.
    fn one_frame(meter: &LinkMeter, plan: &FaultPlan) {
        run_workers::<u64, (), (), _>(
            2,
            transport(meter, plan),
            vec![(); 2],
            |rank, _w, router| {
                if rank == 0 {
                    router.send(1, 8, 7);
                } else {
                    assert_eq!(router.recv_from(0), 7);
                }
            },
        );
    }

    /// Drops only, at a rate of one transmission in two.
    fn half_dropped() -> FaultPlan {
        lossy(0.5, 3).only_link(LinkFaultKind::Drop)
    }

    /// Simulated losses are repaired in logical time: a sender retransmits
    /// each frame it lost before it next blocks, with no timer to wait
    /// out. 100 one-frame collectives at p = 2, with half of all
    /// transmissions dropped, finish far inside a second, and every drop
    /// costs exactly one retransmission.
    #[test]
    fn lost_frames_are_repaired_without_waiting() {
        let plan = half_dropped();
        let meter = LinkMeter::new();
        let start = Instant::now();
        for _ in 0..100 {
            one_frame(&meter, &plan);
        }
        let took = start.elapsed();
        assert!(meter.link_faults() > 0, "no drop fired");
        assert_eq!(meter.retransmits(), meter.link_faults());
        assert!(
            took < Duration::from_secs(1),
            "100 lossy one-frame collectives took {took:?}"
        );
    }

    /// Each collective rolls its own link faults. Sequence numbers restart
    /// in every collective, so a decision that ignored the collective
    /// would drop the one frame of every collective below alike, or of
    /// none.
    #[test]
    fn each_collective_rolls_its_own_link_faults() {
        let plan = half_dropped();
        let meter = LinkMeter::new();
        let mut dropped_in = 0;
        for _ in 0..100 {
            let before = meter.link_faults();
            one_frame(&meter, &plan);
            if meter.link_faults() > before {
                dropped_in += 1;
            }
        }
        assert!(
            0 < dropped_in && dropped_in < 100,
            "a drop fired in {dropped_in} of 100 collectives"
        );
    }

    /// Probe `peer`'s mailbox with wakes, which change nothing on a live
    /// peer, until a send fails because `peer` has left and dropped its
    /// Router. False if it is still there after two seconds.
    fn saw_leave(router: &Router<'_, u64>, peer: usize) -> bool {
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            // dpf-lint: allow(metered-send, reason = "test probe: a failed send is how a worker observes that its peer has left")
            if router.txs[peer].send((router.rank, Frame::Wake)).is_err() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }

    /// On the reliable transport a worker leaves as soon as its body
    /// returns: it does not wait for a peer that is still in its body.
    #[test]
    fn finished_worker_leaves_when_its_body_returns() {
        // Arms the reliable transport; no fault fires at this rate.
        let plan = FaultPlan::default().with_link_faults(f64::MIN_POSITIVE);
        assert!(plan.link_active());
        let meter = LinkMeter::new();
        let left = run_workers::<u64, (), bool, _>(
            2,
            transport(&meter, &plan),
            vec![(); 2],
            |rank, _w, router| {
                if rank == 0 {
                    router.send(1, 8, 7);
                    return true;
                }
                assert_eq!(router.recv_from(0), 7);
                saw_leave(router, 0)
            },
        );
        assert_eq!(left, vec![true, true], "rank 0 waited for rank 1 to retire");
        // The in-order acceptance of rank 0's only frame.
        assert_eq!(meter.acks(), 1);
    }

    /// A finished worker leaves even once a death is recorded: it does
    /// not wait for the survivors still in their bodies to retire.
    #[test]
    fn finished_worker_leaves_while_a_death_is_recorded() {
        let plan = FaultPlan::default().with_kill_worker(2, 0);
        let meter = LinkMeter::new();
        let left = AtomicBool::new(false);
        let res = std::panic::catch_unwind(|| {
            run_workers::<u64, (), (), _>(
                3,
                transport(&meter, &plan),
                vec![(); 3],
                |rank, _w, router| match rank {
                    0 => {
                        router.send(1, 8, 7);
                        while router.sup.first_dead().is_none() {
                            std::thread::yield_now();
                        }
                    }
                    1 => {
                        assert_eq!(router.recv_from(0), 7);
                        left.store(saw_leave(router, 0), Ordering::Release);
                    }
                    _ => unreachable!("rank 2 is killed before its body runs"),
                },
            );
        });
        let payload = res.expect_err("the kill must fail the collective");
        let msg = payload_str(payload.as_ref());
        assert!(msg.contains("killed at collective 0"), "got: {msg}");
        assert!(
            left.load(Ordering::Acquire),
            "rank 0 waited for the survivors to retire"
        );
    }

    /// An exhausted retry budget surfaces as a typed LinkFailure carrying
    /// the exact link coordinates, not a bare panic string.
    #[test]
    fn retry_budget_exhaustion_is_typed() {
        let plan = lossy(1.0, 7)
            .only_link(LinkFaultKind::Drop)
            .with_max_retransmits(2);
        let meter = LinkMeter::new();
        let res = std::panic::catch_unwind(|| {
            run_workers::<u64, (), (), _>(
                2,
                transport(&meter, &plan),
                vec![(); 2],
                |rank, _w, router| {
                    router.send(1 - rank, 8, rank as u64);
                    router.recv_from(1 - rank);
                },
            );
        });
        let payload = res.expect_err("budget exhaustion must fail the collective");
        let err = payload
            .downcast_ref::<DpfError>()
            .expect("typed DpfError payload");
        match err {
            DpfError::LinkFailure { attempts, .. } => assert_eq!(*attempts, 3),
            other => panic!("expected LinkFailure, got {other}"),
        }
    }

    /// A budget spent repairing a body's last frame fails that body with
    /// the typed LinkFailure, also under in-run recovery, which does not
    /// heal a typed failure.
    #[test]
    fn budget_spent_on_a_final_frame_is_typed() {
        let plan = lossy(1.0, 7)
            .only_link(LinkFaultKind::Drop)
            .with_max_retransmits(1)
            .with_recover(RecoverMode::InRun);
        let meter = LinkMeter::new();
        let res = std::panic::catch_unwind(|| {
            run_workers::<u64, (), (), _>(
                2,
                transport(&meter, &plan),
                vec![(); 2],
                |rank, _w, router| {
                    if rank == 0 {
                        router.send(1, 8, 7);
                    } else {
                        router.recv_from(0);
                    }
                },
            );
        });
        let payload = res.expect_err("a spent budget must fail the collective");
        match payload.downcast_ref::<DpfError>() {
            Some(DpfError::LinkFailure { attempts, .. }) => assert_eq!(*attempts, 2),
            _ => panic!(
                "expected LinkFailure, got {}",
                payload_str(payload.as_ref())
            ),
        }
    }

    /// A killed worker is recorded, the peer blocked on it aborts with a
    /// typed WorkerDied, and the kill (the root cause) wins propagation.
    #[test]
    fn killed_worker_releases_blocked_peers() {
        let plan = FaultPlan::default().with_kill_worker(1, 0);
        let meter = LinkMeter::new();
        let res = std::panic::catch_unwind(|| {
            run_workers::<u64, (), (), _>(
                2,
                transport(&meter, &plan),
                vec![(); 2],
                |rank, _w, router| {
                    if rank == 0 {
                        router.recv_from(1);
                    }
                },
            );
        });
        let payload = res.expect_err("kill must fail the collective");
        let msg = payload_str(payload.as_ref());
        assert!(
            msg.contains("killed at collective 0"),
            "root cause should win propagation, got: {msg}"
        );
        // The next collective (index 1) must not re-fire the kill.
        let results = run_workers::<u64, (), u64, _>(
            2,
            transport(&meter, &plan),
            vec![(); 2],
            |rank, _w, router| {
                router.send(1 - rank, 8, rank as u64);
                router.recv_from(1 - rank)
            },
        );
        assert_eq!(results, vec![1, 0]);
    }

    /// Two workers receiving from each other with nothing in flight is a
    /// cycle the stall detector must name explicitly.
    #[test]
    fn deadlock_diagnosis_names_the_cycle() {
        let cfg = TransportCfg {
            stall_timeout: Duration::from_millis(200),
            hard_timeout: Duration::from_secs(20),
            ..TransportCfg::default()
        };
        let meter = LinkMeter::new();
        let res = std::panic::catch_unwind(|| {
            run_workers::<u64, (), (), _>(
                2,
                Transport::new(&meter, &FaultPlan::default(), cfg),
                vec![(); 2],
                |rank, _w, router| {
                    router.recv_from(1 - rank);
                },
            );
        });
        let payload = res.expect_err("cross wait must be diagnosed");
        let err = payload
            .downcast_ref::<DpfError>()
            .expect("typed DpfError payload");
        match err {
            DpfError::Deadlock { detail, .. } => {
                assert!(detail.contains("wait cycle detected"), "detail: {detail}");
                assert!(detail.contains("worker 0"), "detail: {detail}");
                assert!(detail.contains("worker 1"), "detail: {detail}");
            }
            other => panic!("expected Deadlock, got {other}"),
        }
    }

    /// Overflowing the per-peer delivered-message buffer is a typed
    /// backpressure error, not an OOM.
    #[test]
    fn pending_buffer_overflow_is_typed_backpressure() {
        let cfg = TransportCfg {
            pending_cap: 4,
            ..TransportCfg::default()
        };
        let meter = LinkMeter::new();
        let sent = std::sync::Barrier::new(2);
        let res = std::panic::catch_unwind(|| {
            run_workers::<u64, (), (), _>(
                2,
                Transport::new(&meter, &FaultPlan::default(), cfg),
                vec![(); 2],
                |rank, _w, router| {
                    if rank == 1 {
                        for i in 0..32u64 {
                            router.send(0, 8, i);
                        }
                        sent.wait();
                    } else {
                        // Every frame is on the wire before the receive,
                        // so its first service pass takes in all 32 and
                        // the fifth overflows the pending queue.
                        sent.wait();
                        router.recv_from(1);
                    }
                },
            );
        });
        let payload = res.expect_err("overflow must fail the collective");
        let err = payload
            .downcast_ref::<DpfError>()
            .expect("typed DpfError payload");
        assert!(
            matches!(err, DpfError::LinkBackpressure { cap: 4, .. }),
            "got {err}"
        );
    }

    /// The fault decision is a pure function of its inputs.
    #[test]
    fn link_decisions_are_deterministic() {
        let plan = FaultPlan::new(0.0, 1234).with_link_faults(0.5);
        let mut fired = 0;
        for seq in 0..200u64 {
            let a = link_decide(&plan, 3, 0, 1, seq, 0);
            let b = link_decide(&plan, 3, 0, 1, seq, 0);
            assert_eq!(a, b);
            if a.is_some() {
                fired += 1;
            }
        }
        assert!(fired > 50 && fired < 150, "rate wildly off: {fired}/200");
        // Self-links and disarmed plans never fault.
        assert_eq!(link_decide(&plan, 3, 2, 2, 0, 0), None);
        assert_eq!(link_decide(&FaultPlan::default(), 3, 0, 1, 0, 0), None);
    }

    /// The exchange used by the healing tests: every worker's shard is a
    /// vector it mutates with values received from every peer, so a
    /// mid-run death leaves real state that only the replica can bring
    /// back.
    fn healing_exchange(
        plan: &FaultPlan,
        cfg: TransportCfg,
    ) -> (Vec<Vec<usize>>, u64, u64, u64, u64) {
        let meter = LinkMeter::new();
        let nprocs = 4;
        let work: Vec<Vec<usize>> = (0..nprocs).map(|r| vec![r; 8]).collect();
        let results = run_workers::<u64, Vec<usize>, Vec<usize>, _>(
            nprocs,
            Transport::new(&meter, plan, cfg),
            work,
            |rank, w, router| {
                for to in 0..router.nprocs() {
                    router.send(to, 8, (rank * 10) as u64);
                }
                let n = router.nprocs();
                for (from, slot) in w.iter_mut().enumerate().take(n) {
                    let m = router.recv_from(from) as usize;
                    *slot = *slot * 100 + m;
                }
                router.barrier();
                w.clone()
            },
        );
        (
            results,
            meter.messages(),
            meter.payload_bytes(),
            meter.respawns(),
            meter.epochs_rewound(),
        )
    }

    /// An injected kill under `--recover in-run` heals: the run completes
    /// with results and §1.5 logical meters byte-identical to a clean
    /// run, one respawn and one epoch rewind on the recovery counters.
    #[test]
    fn killed_worker_heals_bit_identically() {
        let clean = healing_exchange(&FaultPlan::default(), TransportCfg::default());
        assert_eq!(clean.3, 0);
        assert_eq!(clean.4, 0);
        let plan = FaultPlan::default()
            .with_kill_worker(2, 0)
            .with_recover(RecoverMode::InRun);
        let healed = healing_exchange(&plan, TransportCfg::default());
        assert_eq!(healed.0, clean.0, "healed results differ from clean run");
        assert_eq!(healed.1, clean.1, "logical message count drifted");
        assert_eq!(healed.2, clean.2, "logical payload bytes drifted");
        assert_eq!(healed.3, 1, "exactly one respawn expected");
        assert_eq!(healed.4, 1, "exactly one epoch rewind expected");
    }

    /// A generic (untyped) body panic is healable too: the buggy rank is
    /// respawned once and the re-run succeeds.
    #[test]
    fn untyped_body_panic_heals_once() {
        let plan = FaultPlan::default().with_recover(RecoverMode::InRun);
        let meter = LinkMeter::new();
        let boom = AtomicBool::new(true);
        let results = run_workers::<u64, usize, usize, _>(
            3,
            transport(&meter, &plan),
            vec![10, 20, 30],
            |rank, w, router| {
                if rank == 1 && boom.swap(false, Ordering::AcqRel) {
                    panic!("transient worker bug");
                }
                for to in 0..router.nprocs() {
                    router.send(to, 8, *w as u64);
                }
                let mut sum = 0;
                for from in 0..router.nprocs() {
                    sum += router.recv_from(from) as usize;
                }
                sum
            },
        );
        assert_eq!(results, vec![60; 3]);
        assert_eq!(meter.respawns(), 1);
        assert_eq!(meter.epochs_rewound(), 1);
    }

    /// A corrupted replica must not produce wrong answers: the dead
    /// worker's replica fails its CRC check and the collective aborts
    /// with a typed ReplicaCorrupt (the harness then falls back to a full
    /// restart).
    #[test]
    fn corrupt_replica_aborts_with_typed_error() {
        let plan = FaultPlan::default()
            .with_kill_worker(1, 0)
            .with_recover(RecoverMode::InRun)
            .with_replica_corrupt();
        let res = std::panic::catch_unwind(|| healing_exchange(&plan, TransportCfg::default()));
        let payload = res.expect_err("corrupt replica must fail the collective");
        let err = payload
            .downcast_ref::<DpfError>()
            .expect("typed DpfError payload");
        assert!(
            matches!(err, DpfError::ReplicaCorrupt { worker: 1, .. }),
            "got {err}"
        );
    }

    /// The respawn budget bounds healing: with it exhausted, a kill is a
    /// hard death exactly as under `--recover restart`.
    #[test]
    fn exhausted_respawn_budget_is_a_hard_death() {
        let plan = FaultPlan::default()
            .with_kill_worker(1, 0)
            .with_recover(RecoverMode::InRun);
        let cfg = TransportCfg {
            max_respawns: 0,
            ..TransportCfg::default()
        };
        let res = std::panic::catch_unwind(|| healing_exchange(&plan, cfg));
        let payload = res.expect_err("kill with no budget must fail");
        let msg = payload_str(payload.as_ref());
        assert!(msg.contains("killed at collective 0"), "got: {msg}");
    }

    /// Shard serialization composes structurally and round-trips through
    /// capture/restore, including the scramble applied to dead workers.
    #[test]
    fn shard_state_round_trips() {
        let original: (Vec<usize>, Option<usize>) = (vec![7, 0, usize::MAX], Some(42));
        let mut snapshot = Vec::new();
        original.capture(&mut snapshot);
        assert_eq!(snapshot.len(), 4 * 8);
        let mut rebuilt: (Vec<usize>, Option<usize>) = (vec![0, 0, 0], Some(0));
        rebuilt.restore(&mut &snapshot[..]);
        assert_eq!(rebuilt, original);
        scramble(&mut rebuilt, &snapshot);
        assert_ne!(rebuilt, original, "scramble must actually garble state");
        rebuilt.restore(&mut &snapshot[..]);
        assert_eq!(rebuilt, original);
    }
}

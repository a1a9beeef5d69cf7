//! Shared machinery for the SPMD backend of the communication primitives.
//!
//! Under [`Backend::Spmd`](dpf_core::Backend) each collective runs one
//! worker per virtual processor ([`run_workers`](dpf_core::run_workers)):
//! the last on the calling thread, the others on threads that stay parked
//! between collectives. A worker sees only its own block of every
//! distributed array — the [`Segs`]/[`SegsMut`] views built here from
//! [`Layout::for_each_owner_segment`] — and obtains every remote element
//! through a typed channel, so the run's
//! [`LinkMeter`](dpf_core::LinkMeter) counts bytes that actually crossed
//! between workers. Under `--recover in-run` these views are a worker's
//! shard: [`SegsMut`] captures its owned elements through
//! [`Checkpoint`](dpf_core::Checkpoint), the snapshot trait the
//! iterative kernels also roll back with, and [`Segs`] captures nothing.
//!
//! Six reusable protocols cover the primitives. Three of them — route,
//! fold and axis — also run their own serial form on the host when the
//! backend is virtual or the layouts are not distributed, calling the
//! same element closures in the protocol's serial order, so each
//! primitive built on them states its element rule once and the protocol
//! body is the reference its host form reproduces.
//!
//! * [`pull_exec`] — owner-computes-output: each worker maps its output
//!   flats to source flats, requests the off-block ones from their owners
//!   (`Req` round) and receives the values (`Vals` round). Used by
//!   spread/broadcast, gather/get/gather_nd and transpose.
//! * [`broadcast_scalar_exec`] — worker 0 sends one scalar to every
//!   owner of an output block, which fills its blocks with it. Used by
//!   `broadcast_scalar`.
//! * [`shift_exec`] — a neighbour slab exchange for CSHIFT/EOSHIFT along
//!   a distributed axis, and so for each shift of the stencil's CSHIFT
//!   composition: each worker cuts its output range along the axis
//!   into at most three runs, each reading one source block or the fill,
//!   with [`axis_runs`], the statement of the shift rule the host shifts
//!   read through too; it sends the other owners on its axis line the
//!   rows of its block their runs read, copies its own runs and unpacks
//!   the frames it receives. Rows are addressed by index; nothing is
//!   looked up per element.
//! * [`route_exec`] — owner-computes-source: each worker routes
//!   `(src_flat, dst_flat, value)` triples to the destination owners; the
//!   receiver sorts by source flat before applying, which reproduces the
//!   serial form's flat-source-order collision semantics exactly. Used by
//!   the scatter/send/combine family.
//! * [`fold_exec`] — a sequential fold on one folder, the owner of the
//!   first segment: every other owner ships it the values of its own
//!   elements in one frame, and the folder runs the serial left fold over
//!   the owner-segment table in flat order, making whole-array reductions
//!   bit-identical to the serial form's. Used by the reductions and the
//!   dot product.
//! * [`axis_exec`] — a per-lane pipeline along one axis: lane accumulators
//!   are carried from each axis block to its successor, visiting each
//!   lane's elements in index order as the serial form does. Used by the
//!   scans and `sum_axis`.
//!
//! # Sparse exchange
//!
//! The pull and route protocols are dynamic sparse data exchanges: a
//! worker knows whom it sends to, but not who sends to it. They send a
//! frame only when it carries something, and a worker's own block never
//! crosses a channel. The receivers are found by one [`Handshake`] per
//! collective: each worker sets its destination bits in a p × ⌈p/64⌉
//! table, waits at the collective's barrier and reads its own row. This
//! is a control-network operation — the CM-5 ran barriers and global ORs
//! beside its data network — so no element crosses it and it is not
//! metered as a message. A dense pattern, where every pair talks, pays
//! the one barrier on top of its frames.
//!
//! Each worker of a pull first sends its non-empty requests, then does
//! the handshake, then serves the requests its row names, then receives
//! its replies. This cannot deadlock. Sends never block (the channels are
//! unbounded), so every worker reaches the barrier, and
//! [`Router::barrier`] first puts every frame its worker owes on the
//! wire, so a frame the reliable transport must repair is repaired
//! before anyone waits on it. A request named in a worker's row was sent
//! before its sender reached the barrier, so the serve loop waits only
//! on frames already sent.
//! Serving needs nothing back from the requesters, so every worker
//! finishes its serve loop and sends every reply a receive loop waits
//! for. The route protocol is the pull without the reply round.
//!
//! A shift needs neither the request round nor the handshake. The pull
//! has them because a source owner cannot know what is wanted from it;
//! for a shift, sender and receiver derive the same runs from the layout,
//! the shift and the boundary alone. So each worker sends all its frames,
//! then copies its own runs, then receives. This cannot deadlock either:
//! sends never block, no worker receives before it has sent everything,
//! and every frame a worker waits for is one its sender derived and sent
//! unconditionally. Every frame sent is received, because both sides cut
//! runs with the same function.
//!
//! Every protocol is acyclic (requests always precede replies; a shift
//! sends everything before it receives; a fold's frames all go one way,
//! to the folder, which sends nothing; pipeline chains are linear), so the per-sender FIFO order the router
//! guarantees makes deadlock impossible by construction — and the
//! router's timeouts turn any future protocol bug into a diagnosed panic
//! rather than a hang. Every protocol also receives every message it
//! sends: a worker whose part is done leaves at once and closes its
//! mailbox, so a message nobody receives could be sent to a worker that
//! has left.
//!
//! The value traffic is metered; index/request traffic is sent with zero
//! payload size, since the analytic `Instr` model the tables are built
//! from never charges addressing overhead either.

// The `*_exec` drivers below are the SPMD protocol layer, not numeric hot
// paths: each collective builds its O(p) worker-view table and owned
// message payloads once per call, which is the message-passing model
// itself (frames are owned when handed to the router). Per-element work
// stays allocation-free inside the worker closures.
// dpf-lint: allow-file(hot-path-alloc, reason = "per-collective O(p) view setup and owned message payloads are the SPMD protocol, not per-element hot-path traffic")

use crate::shift::axis_runs;
use dpf_array::Layout;
use dpf_core::{Checkpoint, Ctx, Elem, Router};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// A worker's read-only view of its blocks of one array: the flat
/// segments it owns, ascending.
struct Segs<'a, T> {
    pieces: Vec<(usize, &'a [T])>,
}

impl<T: Copy> Segs<'_, T> {
    /// Value at a flat offset this worker owns.
    #[inline]
    fn get(&self, flat: usize) -> T {
        let i = self.pieces.partition_point(|p| p.0 <= flat);
        let (start, slice) = self.pieces[i - 1];
        slice[flat - start]
    }

    /// The `(start, len)` of every owned segment, ascending.
    fn ranges(&self) -> Vec<(usize, usize)> {
        self.pieces.iter().map(|p| (p.0, p.1.len())).collect()
    }
}

/// A worker's mutable view of its blocks of one array.
struct SegsMut<'a, T> {
    pieces: Vec<(usize, &'a mut [T])>,
}

impl<T: Copy> SegsMut<'_, T> {
    /// Write a flat offset this worker owns.
    #[inline]
    fn set(&mut self, flat: usize, v: T) {
        *self.get_mut(flat) = v;
    }

    /// Mutable slot at a flat offset this worker owns.
    #[inline]
    fn get_mut(&mut self, flat: usize) -> &mut T {
        let i = self.pieces.partition_point(|p| p.0 <= flat);
        let (start, slice) = &mut self.pieces[i - 1];
        &mut slice[flat - *start]
    }

    /// The `(start, len)` of every owned segment, ascending.
    fn ranges(&self) -> Vec<(usize, usize)> {
        self.pieces.iter().map(|p| (p.0, p.1.len())).collect()
    }

    /// Fill every owned element with `v`.
    fn fill(&mut self, v: T) {
        for piece in &mut self.pieces {
            piece.1.fill(v);
        }
    }
}

// In-run recovery snapshots (`--recover in-run`): a worker's shard state
// is whatever it owns *and may mutate* during the collective. Read-only
// source views never change, so they serialize to nothing; mutable views
// capture their owned elements bit-exactly in segment order. Segment
// starts and lengths are structural (fixed by the layout, identical
// across attempts of an epoch) and are not serialized.
impl<T> Checkpoint for Segs<'_, T> {
    fn capture(&self, _out: &mut Vec<u8>) {}
    fn restore(&mut self, _cursor: &mut &[u8]) {}
}

impl<T: Elem> Checkpoint for SegsMut<'_, T> {
    fn capture(&self, out: &mut Vec<u8>) {
        for piece in &self.pieces {
            piece.1.capture(out);
        }
    }
    fn restore(&mut self, cursor: &mut &[u8]) {
        for piece in &mut self.pieces {
            piece.1.restore(cursor);
        }
    }
}

/// Split a shared slice into per-worker [`Segs`] views per `layout`.
fn split_ref<'a, T>(layout: &Layout, data: &'a [T], nprocs: usize) -> Vec<Segs<'a, T>> {
    let mut out: Vec<Segs<'a, T>> = (0..nprocs).map(|_| Segs { pieces: Vec::new() }).collect();
    layout.for_each_owner_segment(0, layout.len(), |s, l, o| {
        out[o].pieces.push((s, &data[s..s + l]));
    });
    out
}

/// Split a mutable slice into per-worker [`SegsMut`] views per `layout`.
/// Owner segments cover the flat range contiguously in ascending order, so
/// the slice splits left to right without overlap.
fn split_mut<'a, T>(layout: &Layout, data: &'a mut [T], nprocs: usize) -> Vec<SegsMut<'a, T>> {
    let mut table: Vec<(usize, usize, usize)> = Vec::new();
    layout.for_each_owner_segment(0, layout.len(), |s, l, o| table.push((s, l, o)));
    let mut out: Vec<SegsMut<'a, T>> = (0..nprocs)
        .map(|_| SegsMut { pieces: Vec::new() })
        .collect();
    let mut rest = data;
    for &(s, l, o) in &table {
        let (seg, r) = rest.split_at_mut(l);
        rest = r;
        out[o].pieces.push((s, seg));
    }
    out
}

/// The sparse-exchange handshake of one collective (module docs): row `d`
/// of the p × ⌈p/64⌉ table holds one bit per worker that sends to worker
/// `d`.
///
/// The table is never reset, not even when an in-run heal re-runs the
/// collective. A worker's destinations are a pure function of the
/// layouts, the index maps (`src_of`, `dst_of`) and read-only index
/// arrays, so a re-run re-publishes the same bits,
/// and `fetch_or` is idempotent. Each attempt waits at a fresh barrier,
/// so a row is read only after all p workers of the current attempt have
/// published.
struct Handshake {
    words: usize,
    bits: Vec<AtomicU64>,
}

impl Handshake {
    /// An empty table for `p` workers.
    fn new(p: usize) -> Self {
        let words = p.div_ceil(64);
        Handshake {
            words,
            bits: (0..p * words).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Send this worker's `(to, payload_bytes, msg)` frames — none to
    /// itself, none empty — then learn which peers send to it: publish
    /// the destination bits, wait at the collective's barrier and read
    /// this worker's row. Returns those peers ascending.
    ///
    /// Every worker must call this exactly once per collective, even
    /// with nothing to send: it is a barrier. Relaxed atomics suffice,
    /// because the barrier's mutex orders every worker's `fetch_or`
    /// before any worker's read.
    fn sparse_send<M: Send + Clone>(
        &self,
        router: &mut Router<'_, M>,
        frames: impl IntoIterator<Item = (usize, u64, M)>,
    ) -> Vec<usize> {
        let me = router.rank();
        let (word, bit) = (me / 64, 1u64 << (me % 64));
        for (to, bytes, msg) in frames {
            debug_assert_ne!(to, me, "a worker's own block never crosses a channel");
            self.bits[to * self.words + word].fetch_or(bit, Ordering::Relaxed);
            router.send(to, bytes, msg);
        }
        router.barrier();
        let row = &self.bits[me * self.words..(me + 1) * self.words];
        let mut senders = Vec::new();
        for (w, cell) in row.iter().enumerate() {
            let mut set = cell.load(Ordering::Relaxed);
            while set != 0 {
                senders.push(w * 64 + set.trailing_zeros() as usize);
                set &= set - 1;
            }
        }
        senders
    }
}

/// Message type of [`pull_exec`]: a request for source flats, then the
/// values in request order. `Clone` lets the resilient transport send a
/// simulated duplicate or corrupted copy of a frame under link-fault
/// injection and still hold the frame for its repair.
#[derive(Clone)]
enum PullMsg<T> {
    /// Source flat offsets the sender needs from the receiver's blocks.
    Req(Vec<usize>),
    /// The requested values, in request order.
    Vals(Vec<T>),
}

/// Owner-computes-output pull: every worker maps each of its output flats
/// through `src_of` to a source flat, reads sources in its own block
/// directly, fetches the off-block ones from their owners over the
/// channels, and writes only its own blocks of `out_data`.
pub(crate) fn pull_exec<T: Elem>(
    ctx: &Ctx,
    src_layout: &Layout,
    src_data: &[T],
    out_layout: &Layout,
    out_data: &mut [T],
    src_of: &(dyn Fn(usize) -> usize + Sync),
) {
    let p = ctx.nprocs();
    let work: Vec<_> = split_ref(src_layout, src_data, p)
        .into_iter()
        .zip(split_mut(out_layout, out_data, p))
        .collect();
    let esize = T::DTYPE.size() as u64;
    let handshake = Handshake::new(p);
    dpf_core::run_workers(
        p,
        ctx.transport(),
        work,
        |rank, (src, out), router: &mut Router<'_, PullMsg<T>>| {
            let p = router.nprocs();
            let mut reqs: Vec<Vec<usize>> = (0..p).map(|_| Vec::new()).collect();
            let mut places: Vec<Vec<usize>> = (0..p).map(|_| Vec::new()).collect();
            for (start, len) in out.ranges() {
                for flat in start..start + len {
                    let s = src_of(flat);
                    let owner = src_layout.owner_id_flat(s);
                    if owner == rank {
                        out.set(flat, src.get(s));
                    } else {
                        reqs[owner].push(s);
                        places[owner].push(flat);
                    }
                }
            }
            let frames = reqs
                .into_iter()
                .enumerate()
                .filter(|(_, r)| !r.is_empty())
                .map(|(q, r)| (q, 0, PullMsg::Req(r)));
            for q in handshake.sparse_send(router, frames) {
                let PullMsg::Req(r) = router.recv_from(q) else {
                    unreachable!("pull protocol: Req must precede Vals");
                };
                let vals: Vec<T> = r.iter().map(|&s| src.get(s)).collect();
                router.send(q, vals.len() as u64 * esize, PullMsg::Vals(vals));
            }
            for (q, flats) in places.into_iter().enumerate() {
                if flats.is_empty() {
                    continue;
                }
                let PullMsg::Vals(v) = router.recv_from(q) else {
                    unreachable!("pull protocol: Req must precede Vals");
                };
                for (flat, val) in flats.into_iter().zip(v) {
                    out.set(flat, val);
                }
            }
        },
    );
}

/// A worker's block box in a layout: its processor-grid coordinates and
/// the `[lo, hi)` index range it owns along each axis.
struct BlockBox {
    coords: Vec<usize>,
    lo: Vec<usize>,
    hi: Vec<usize>,
}

impl BlockBox {
    /// The box of worker `wrank`, or `None` for a worker past the grid or
    /// one whose box is empty (a ragged grid).
    fn of(layout: &Layout, wrank: usize) -> Option<Self> {
        let rank = layout.rank();
        let mut coords = vec![0usize; rank];
        let mut r = wrank;
        for d in (0..rank).rev() {
            coords[d] = r % layout.procs_on(d);
            r /= layout.procs_on(d);
        }
        if r > 0 {
            return None; // idle virtual processor for this layout
        }
        let lo: Vec<usize> = (0..rank).map(|d| coords[d] * layout.block(d)).collect();
        let hi: Vec<usize> = (0..rank)
            .map(|d| ((coords[d] + 1) * layout.block(d)).min(layout.shape()[d]))
            .collect();
        (0..rank)
            .all(|d| lo[d] < hi[d])
            .then_some(BlockBox { coords, lo, hi })
    }
}

/// The grid-rank distance between neighbouring blocks along `axis`: the
/// processor count over the axes after it.
fn line_stride(layout: &Layout, axis: usize) -> usize {
    (axis + 1..layout.rank())
        .map(|d| layout.procs_on(d))
        .product()
}

/// The row geometry of a shift along `axis` between boxes that share
/// every extent but the axis one: the boxes on one axis line of the grid.
/// A worker's [`Segs`]/[`SegsMut`] pieces are exactly its box rows in
/// row-major order, since owner segments are cut at last-axis block
/// boundaries and at row ends, so a row is addressed by its index.
struct ShiftRows {
    /// The shift runs along the last axis, within rows.
    in_row: bool,
    /// Rows in a box.
    count: usize,
    /// Elements per row.
    row_len: usize,
    /// Box extent product over the axes before `axis`.
    outer: usize,
    /// Rows per axis position: the box extent product over the axes
    /// between `axis` and the last.
    inner: usize,
}

impl ShiftRows {
    fn new(bx: &BlockBox, axis: usize) -> Self {
        let last = bx.lo.len() - 1;
        let extent = |d: usize| bx.hi[d] - bx.lo[d];
        ShiftRows {
            in_row: axis == last,
            count: (0..last).map(extent).product(),
            row_len: extent(last),
            outer: (0..axis).map(extent).product(),
            inner: (axis + 1..last).map(extent).product(),
        }
    }

    /// The rows a run of `len` axis positions covers when it starts `dx`
    /// into a destination box of axis extent `de` and reads from `sx`
    /// into a source box of axis extent `se`: its `(dst_row, src_row)`
    /// pairs in row-major order, and the element windows it copies within
    /// each destination and source row.
    fn run_rows(
        &self,
        dx: usize,
        sx: usize,
        len: usize,
        de: usize,
        se: usize,
    ) -> (
        impl Iterator<Item = (usize, usize)> + '_,
        Range<usize>,
        Range<usize>,
    ) {
        let (slabs, per_slab) = if self.in_row {
            (1, self.count)
        } else {
            (self.outer, len * self.inner)
        };
        let pairs = (0..slabs).flat_map(move |o| {
            let (d0, s0) = if self.in_row {
                (0, 0)
            } else {
                ((o * de + dx) * self.inner, (o * se + sx) * self.inner)
            };
            (0..per_slab).map(move |r| (d0 + r, s0 + r))
        });
        if self.in_row {
            (pairs, dx..dx + len, sx..sx + len)
        } else {
            (pairs, 0..self.row_len, 0..self.row_len)
        }
    }
}

/// Neighbour slab exchange for a shift by `shift` along a distributed
/// `axis` of `layout`, the layout of both arrays: `fill` is the end-off
/// fill value, `None` for a circular shift. Every worker derives from the
/// layout alone which source blocks its output runs read ([`axis_runs`])
/// and which owners on its axis line read its own block, so it needs no
/// request round and no handshake. It sends each such owner one frame per
/// run holding the values read from its block, in the receiver's row
/// order; then copies its own runs and fills the fill runs; then receives
/// and unpacks the frames its remote runs read. Nothing is looked up per
/// element.
pub(crate) fn shift_exec<T: Elem>(
    ctx: &Ctx,
    layout: &Layout,
    src_data: &[T],
    out_data: &mut [T],
    axis: usize,
    shift: isize,
    fill: Option<T>,
) {
    let p = ctx.nprocs();
    let work: Vec<_> = split_ref(layout, src_data, p)
        .into_iter()
        .zip(split_mut(layout, out_data, p))
        .collect();
    let (n, b) = (layout.shape()[axis], layout.block(axis));
    let line_stride = line_stride(layout, axis);
    let esize = T::DTYPE.size() as u64;
    dpf_core::run_workers(
        p,
        ctx.transport(),
        work,
        |wrank, (src, out), router: &mut Router<'_, Vec<T>>| {
            let Some(bx) = BlockBox::of(layout, wrank) else {
                return; // owns nothing: sends and receives nothing
            };
            let rows = ShiftRows::new(&bx, axis);
            debug_assert!(src.pieces.len() == rows.count && out.pieces.len() == rows.count);
            let me = bx.coords[axis];
            // Axis extent, grid rank and output runs of block `k` of this
            // worker's axis line.
            let extent = |k: usize| ((k + 1) * b).min(n).saturating_sub(k * b);
            let peer = |k: usize| wrank - me * line_stride + k * line_stride;
            let runs = |k: usize| axis_runs(k * b, k * b + extent(k), n, b, shift, fill.is_none());
            // Sends first: every run of another block on the line that
            // reads this block gets one frame.
            for k in (0..layout.procs_on(axis)).filter(|&k| k != me) {
                for run in runs(k) {
                    let Some(j) = run.src.filter(|&j| j / b == me) else {
                        continue;
                    };
                    let (pairs, _, cols) =
                        rows.run_rows(run.out % b, j % b, run.len, extent(k), extent(me));
                    let mut vals = Vec::new();
                    for (_, r) in pairs {
                        vals.extend_from_slice(&src.pieces[r].1[cols.clone()]);
                    }
                    router.send(peer(k), vals.len() as u64 * esize, vals);
                }
            }
            // Then the runs that need no channel, then the remote ones.
            let de = extent(me);
            for run in runs(me) {
                match run.src {
                    None => {
                        let v = fill.expect("only an end-off shift has fill runs");
                        let (pairs, cols, _) = rows.run_rows(run.out % b, 0, run.len, de, 0);
                        for (r, _) in pairs {
                            out.pieces[r].1[cols.clone()].fill(v);
                        }
                    }
                    Some(j) if j / b == me => {
                        let (pairs, dcols, scols) =
                            rows.run_rows(run.out % b, j % b, run.len, de, de);
                        for (d, s) in pairs {
                            out.pieces[d].1[dcols.clone()]
                                .copy_from_slice(&src.pieces[s].1[scols.clone()]);
                        }
                    }
                    Some(_) => {}
                }
            }
            for run in runs(me) {
                let Some(j) = run.src.filter(|&j| j / b != me) else {
                    continue;
                };
                let vals = router.recv_from(peer(j / b));
                let (pairs, cols, _) =
                    rows.run_rows(run.out % b, j % b, run.len, de, extent(j / b));
                let mut at = 0;
                for (d, _) in pairs {
                    out.pieces[d].1[cols.clone()].copy_from_slice(&vals[at..at + cols.len()]);
                    at += cols.len();
                }
                debug_assert_eq!(at, vals.len(), "a shift frame is unpacked whole");
            }
        },
    );
}

/// Distribute one scalar from worker 0 to every worker owning a block of
/// the output layout; each recipient fills its own blocks with the value.
pub(crate) fn broadcast_scalar_exec<T: Elem>(
    ctx: &Ctx,
    layout: &Layout,
    value: T,
    out_data: &mut [T],
) {
    let p = ctx.nprocs();
    let mut has = vec![false; p];
    layout.for_each_owner_segment(0, layout.len(), |_, _, o| has[o] = true);
    let has = &has;
    let work = split_mut(layout, out_data, p);
    let esize = T::DTYPE.size() as u64;
    dpf_core::run_workers(
        p,
        ctx.transport(),
        work,
        move |rank, segs, router: &mut Router<'_, T>| {
            if rank == 0 {
                for (q, &owns) in has.iter().enumerate() {
                    if owns {
                        router.send(q, esize, value);
                    }
                }
            }
            if has[rank] {
                let v = router.recv_from(0);
                segs.fill(v);
            }
        },
    );
}

/// Apply every source element to its destination, `apply(&mut
/// dst[dst_of(k)], src[k])`, in flat source order: last-writer-wins for
/// plain scatter, left-to-right combining otherwise. The serial form
/// walks the source flats on the host. Under SPMD with a distributed
/// layout this is an owner-computes-source push: every worker walks its
/// own source flats, routes `(src_flat, dst_flat, value)` triples to the
/// destination owners (keeping those for its own block), and each
/// receiver applies its incoming triples sorted by source flat.
pub(crate) fn route_exec<T: Elem>(
    ctx: &Ctx,
    src_layout: &Layout,
    src_data: &[T],
    dst_layout: &Layout,
    dst_data: &mut [T],
    dst_of: impl Fn(usize) -> usize + Sync,
    apply: impl Fn(&mut T, T) + Sync,
) {
    if ctx.spmd() && (src_layout.is_distributed() || dst_layout.is_distributed()) {
        return route_workers(
            ctx, src_layout, src_data, dst_layout, dst_data, &dst_of, &apply,
        );
    }
    for (k, &v) in src_data.iter().enumerate() {
        apply(&mut dst_data[dst_of(k)], v);
    }
}

/// The SPMD push of [`route_exec`]. It takes its closures as trait
/// objects, so the worker protocol is built once per element type, not
/// once per caller.
fn route_workers<T: Elem>(
    ctx: &Ctx,
    src_layout: &Layout,
    src_data: &[T],
    dst_layout: &Layout,
    dst_data: &mut [T],
    dst_of: &(dyn Fn(usize) -> usize + Sync),
    apply: &(dyn Fn(&mut T, T) + Sync),
) {
    let p = ctx.nprocs();
    let work: Vec<_> = split_ref(src_layout, src_data, p)
        .into_iter()
        .zip(split_mut(dst_layout, dst_data, p))
        .collect();
    let esize = T::DTYPE.size() as u64;
    let handshake = Handshake::new(p);
    dpf_core::run_workers(
        p,
        ctx.transport(),
        work,
        |rank, (src, dst), router: &mut Router<'_, Vec<(usize, usize, T)>>| {
            let p = router.nprocs();
            let mut outgoing: Vec<Vec<(usize, usize, T)>> = (0..p).map(|_| Vec::new()).collect();
            for (start, len) in src.ranges() {
                for k in start..start + len {
                    let d = dst_of(k);
                    outgoing[dst_layout.owner_id_flat(d)].push((k, d, src.get(k)));
                }
            }
            let mut incoming = std::mem::take(&mut outgoing[rank]);
            let frames = outgoing
                .into_iter()
                .enumerate()
                .filter(|(_, t)| !t.is_empty())
                .map(|(q, t)| (q, t.len() as u64 * esize, t));
            for q in handshake.sparse_send(router, frames) {
                incoming.extend(router.recv_from(q));
            }
            // Source flats are unique keys, so the unstable sort is
            // deterministic and recovers global source order.
            incoming.sort_unstable_by_key(|&(k, _, _)| k);
            for (_, d, v) in incoming {
                apply(dst.get_mut(d), v);
            }
        },
    );
}

/// Sequential left fold over the whole array in flat order: `step` runs
/// on `lift(flat, x)` of every element. The serial form folds the flats
/// on the host. Under SPMD with a distributed layout the fold is gathered
/// to one folder, the owner of the first segment. Every other owner lifts
/// its own elements in flat order and sends the results to the folder in
/// one frame, metered at the array's element size per value. The folder
/// walks the owner-segment table in flat order, lifting its own elements
/// in place and taking the other owners' values from per-owner cursors,
/// and runs `step` on every element. Element order — and therefore
/// floating-point rounding — is identical to the serial form's; reads of
/// aligned operands (`lift`) stay on the worker that owns the flat.
pub(crate) fn fold_exec<T: Elem, U: Send + Clone, A: Send + Sync + Clone>(
    ctx: &Ctx,
    layout: &Layout,
    data: &[T],
    init: A,
    lift: impl Fn(usize, T) -> U + Sync,
    step: impl Fn(&mut A, usize, U) + Sync,
) -> A {
    if ctx.spmd() && layout.is_distributed() {
        return fold_workers(ctx, layout, data, init, &lift, &step);
    }
    data.iter().enumerate().fold(init, |mut acc, (flat, &x)| {
        step(&mut acc, flat, lift(flat, x));
        acc
    })
}

/// The SPMD fold of [`fold_exec`], on trait objects like
/// [`route_workers`].
fn fold_workers<T: Elem, U: Send + Clone, A: Send + Sync + Clone>(
    ctx: &Ctx,
    layout: &Layout,
    data: &[T],
    init: A,
    lift: &(dyn Fn(usize, T) -> U + Sync),
    step: &(dyn Fn(&mut A, usize, U) + Sync),
) -> A {
    let p = ctx.nprocs();
    let mut table: Vec<(usize, usize, usize)> = Vec::new();
    layout.for_each_owner_segment(0, layout.len(), |s, l, o| table.push((s, l, o)));
    let folder = table.first().map_or(0, |t| t.2);
    let mut ships = vec![false; p];
    for &(_, _, o) in &table {
        ships[o] = o != folder;
    }
    let esize = T::DTYPE.size() as u64;
    let (table, ships, init) = (&table, &ships, &init);
    let mut results = dpf_core::run_workers(
        p,
        ctx.transport(),
        split_ref(layout, data, p),
        |rank, segs, router: &mut Router<'_, Vec<U>>| {
            if rank != folder {
                if ships[rank] {
                    let vals: Vec<U> = segs
                        .pieces
                        .iter()
                        .flat_map(|&(s, xs)| (s..).zip(xs).map(|(flat, &x)| lift(flat, x)))
                        .collect();
                    router.send(folder, vals.len() as u64 * esize, vals);
                }
                return None;
            }
            let mut from: Vec<_> = (0..p).map(|_| Vec::new().into_iter()).collect();
            for q in (0..p).filter(|&q| ships[q]) {
                from[q] = router.recv_from(q).into_iter();
            }
            let mut own = segs.pieces.iter();
            let mut acc = init.clone();
            for &(s, l, o) in table {
                if o == rank {
                    let &(_, xs) = own.next().expect("the folder's pieces follow the table");
                    for (flat, &x) in (s..).zip(xs) {
                        step(&mut acc, flat, lift(flat, x));
                    }
                } else {
                    for (flat, u) in (s..s + l).zip(from[o].by_ref()) {
                        step(&mut acc, flat, u);
                    }
                }
            }
            Some(acc)
        },
    );
    results
        .swap_remove(folder)
        .expect("the folder returns the fold")
}

/// Per-lane scan along `axis`: `step(state, flat)` advances a lane's
/// state past the element at `flat` and returns that element's value of
/// the optional same-layout output. Each lane starts from `init` and
/// visits its elements in ascending index order. Returns every lane's
/// final `(reduced_flat, state)` — the lane's flat offset in the shape
/// with `axis` removed — for axis reductions.
///
/// The serial form walks the rows on the host with one state per lane.
/// Under SPMD with a distributed axis this is a pipeline: each worker
/// processes its block of every lane, carrying one state per lane from
/// the predecessor block (same grid coordinates, axis coordinate − 1) to
/// the successor, metered at the element size per lane.
pub(crate) fn axis_exec<T: Elem, A: Send + Sync + Clone>(
    ctx: &Ctx,
    layout: &Layout,
    axis: usize,
    mut out_data: Option<&mut [T]>,
    init: A,
    step: impl Fn(&mut A, usize) -> T + Sync,
) -> Vec<(usize, A)> {
    if ctx.spmd() && layout.procs_on(axis) > 1 {
        return axis_workers(ctx, layout, axis, out_data, init, &step);
    }
    let shape = layout.shape();
    let (n, inner) = (shape[axis], shape[axis + 1..].iter().product::<usize>());
    let mut states = vec![init; layout.lanes(axis)];
    let mut write = |flat: usize, v: T| {
        if let Some(out) = out_data.as_deref_mut() {
            out[flat] = v;
        }
    };
    let mut flat = 0;
    for block in states.chunks_mut(inner.max(1)) {
        if let [state] = block {
            // One lane per row: its state stays in a local, off the
            // memory round trip a row of lanes needs.
            let mut s = state.clone();
            for f in flat..flat + n {
                write(f, step(&mut s, f));
            }
            *state = s;
            flat += n;
            continue;
        }
        for _ in 0..n {
            for state in block.iter_mut() {
                write(flat, step(state, flat));
                flat += 1;
            }
        }
    }
    states.into_iter().enumerate().collect()
}

/// The SPMD pipeline of [`axis_exec`], on trait objects like
/// [`route_workers`].
fn axis_workers<T: Elem, A: Send + Sync + Clone>(
    ctx: &Ctx,
    layout: &Layout,
    axis: usize,
    out_data: Option<&mut [T]>,
    init: A,
    step: &(dyn Fn(&mut A, usize) -> T + Sync),
) -> Vec<(usize, A)> {
    let p = ctx.nprocs();
    let rank = layout.rank();
    let shape = layout.shape();
    let strides = layout.strides();
    let line_stride = line_stride(layout, axis);
    let work: Vec<Option<SegsMut<'_, T>>> = match out_data {
        Some(d) => split_mut(layout, d, p).into_iter().map(Some).collect(),
        None => (0..p).map(|_| None).collect(),
    };
    let esize = T::DTYPE.size() as u64;
    let init = &init;
    let strides = &strides;
    let results = dpf_core::run_workers(
        p,
        ctx.transport(),
        work,
        move |wrank, out, router: &mut Router<'_, Vec<A>>| {
            let mut finals: Vec<(usize, A)> = Vec::new();
            let Some(BlockBox { coords, lo, hi }) = BlockBox::of(layout, wrank) else {
                return finals;
            };
            let lanes_local: usize = (0..rank)
                .filter(|&d| d != axis)
                .map(|d| hi[d] - lo[d])
                .product();
            let pred = (coords[axis] > 0).then(|| wrank - line_stride);
            let succ = (hi[axis] < shape[axis]).then(|| wrank + line_stride);
            // Lane carries arrive in the canonical lane order: the
            // row-major odometer over the non-axis dimensions of the box,
            // which predecessor and successor share.
            let carries: Vec<A> = match pred {
                Some(pr) => router.recv_from(pr),
                None => vec![init.clone(); lanes_local],
            };
            let mut onward: Vec<A> = Vec::with_capacity(lanes_local);
            let mut idx = lo.clone();
            let mut lane = 0usize;
            loop {
                let mut base = 0usize;
                let mut reduced_flat = 0usize;
                for d in 0..rank {
                    if d != axis {
                        base += idx[d] * strides[d];
                        reduced_flat = reduced_flat * shape[d] + idx[d];
                    }
                }
                let mut state = carries[lane].clone();
                for i in lo[axis]..hi[axis] {
                    let flat = base + i * strides[axis];
                    let v = step(&mut state, flat);
                    if let Some(o) = out.as_mut() {
                        o.set(flat, v);
                    }
                }
                if succ.is_some() {
                    onward.push(state);
                } else {
                    finals.push((reduced_flat, state));
                }
                lane += 1;
                // Advance the non-axis odometer within the box.
                let mut d = rank;
                loop {
                    if d == 0 {
                        if let Some(sq) = succ {
                            router.send(sq, lanes_local as u64 * esize, onward);
                        }
                        return finals;
                    }
                    d -= 1;
                    if d == axis {
                        continue;
                    }
                    idx[d] += 1;
                    if idx[d] < hi[d] {
                        break;
                    }
                    idx[d] = lo[d];
                }
            }
        },
    );
    results.into_iter().flatten().collect()
}

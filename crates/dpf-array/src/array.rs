//! The distributed array type.
//!
//! A [`DistArray`] is the Rust rendering of a CMF/HPF array: a contiguous
//! row-major buffer plus a [`Layout`] that says which axes are `:serial`
//! (local) and which are `:` (parallel, block-distributed over the virtual
//! processor grid). Element-wise computation executes on the host's real
//! cores through rayon; the layout exists so the communication layer can
//! account exactly which primitive invocations move data between virtual
//! processors.
//!
//! Every compute method takes the run's [`Ctx`] and a per-element FLOP
//! cost, so FLOP accounting is part of the operation's signature and
//! cannot be forgotten — mirroring how the paper derives its Table 4/6
//! FLOP columns from the source text of each benchmark.

use dpf_core::{Ctx, Elem};
use rayon::prelude::*;

use crate::layout::{AxisKind, IndexIter, Layout};

/// Element count above which element-wise loops run under rayon.
///
/// It also picks the summation tree of `dpf_comm::dot`: below it the dot
/// folds serially, above it rayon sums fixed chunks piece by piece, so
/// moving the threshold changes result bits for the lengths in between.
pub const PAR_THRESHOLD: usize = 16_384;

/// Maximum rank supported by the stack-allocated index decoder used in
/// indexed loops ([`DistArray::indexed_map`], [`DistArray::permute`], …).
/// The suite's arrays top out at rank 7 (`qcd_kernel`).
pub const MAX_RANK: usize = 8;

/// Elements per chunk in indexed loops: the multi-index is decoded from
/// the flat offset once per chunk and advanced in place afterwards, so
/// the decode cost is amortized over this many elements.
const INDEX_CHUNK: usize = 1024;

/// Elements per chunk for parallel bulk copies (`assign`).
const COPY_CHUNK: usize = 1 << 16;

/// An HPF-style array: contiguous row-major data plus a distribution
/// layout.
#[derive(Clone, Debug, PartialEq)]
pub struct DistArray<T> {
    data: Vec<T>,
    layout: Layout,
}

impl<T: Elem> DistArray<T> {
    /// An array of `Default` (zero) values.
    pub fn zeros(ctx: &Ctx, shape: &[usize], axes: &[AxisKind]) -> Self {
        let layout = Layout::new(&ctx.machine, shape, axes);
        let data = vec![T::default(); layout.len()];
        DistArray { data, layout }
    }

    /// An array filled with `value`.
    pub fn full(ctx: &Ctx, shape: &[usize], axes: &[AxisKind], value: T) -> Self {
        let layout = Layout::new(&ctx.machine, shape, axes);
        let data = vec![value; layout.len()];
        DistArray { data, layout }
    }

    /// Wrap an existing buffer (length must match the shape product).
    pub fn from_vec(ctx: &Ctx, shape: &[usize], axes: &[AxisKind], data: Vec<T>) -> Self {
        let layout = Layout::new(&ctx.machine, shape, axes);
        assert_eq!(
            data.len(),
            layout.len(),
            "buffer length {} != shape product {}",
            data.len(),
            layout.len()
        );
        DistArray { data, layout }
    }

    /// Build from a function of the multi-index.
    pub fn from_fn(
        ctx: &Ctx,
        shape: &[usize],
        axes: &[AxisKind],
        mut f: impl FnMut(&[usize]) -> T,
    ) -> Self {
        let layout = Layout::new(&ctx.machine, shape, axes);
        let mut data = Vec::with_capacity(layout.len());
        for idx in IndexIter::new(shape) {
            data.push(f(&idx));
        }
        DistArray { data, layout }
    }

    /// Register this array's bytes as user-declared storage (paper §1.5
    /// attribute 3 counts declared data structures, not compiler
    /// temporaries). Returns `self` for chaining.
    pub fn declare(self, ctx: &Ctx) -> Self {
        ctx.instr
            .declare_bytes((self.len() as u64) * T::DTYPE.size() as u64);
        self
    }

    /// The layout.
    #[inline]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        self.layout.shape()
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.layout.rank()
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the array holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The flat row-major buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume into the flat buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Element at a multi-index.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> T {
        self.data[self.layout.offset(idx)]
    }

    /// Set the element at a multi-index.
    #[inline]
    pub fn set(&mut self, idx: &[usize], value: T) {
        let off = self.layout.offset(idx);
        self.data[off] = value;
    }

    /// Map into a new array, charging `flops_per_elem` per element.
    ///
    /// The output buffer comes from the context's pool when a same-shaped
    /// buffer has been [`recycle`](Self::recycle)d.
    pub fn map<U: Elem>(
        &self,
        ctx: &Ctx,
        flops_per_elem: u64,
        f: impl Fn(T) -> U + Sync + Send,
    ) -> DistArray<U> {
        ctx.add_flops(flops_per_elem * self.len() as u64);
        let mut data: Vec<U> = ctx.pool.take(self.len());
        ctx.busy(|| map_slice(&self.data, &mut data, &f));
        DistArray {
            data,
            layout: self.layout.clone(),
        }
    }

    /// Like [`map`](Self::map), but writing into an existing same-shaped
    /// array instead of allocating. Charges the same FLOPs.
    pub fn map_into<U: Elem>(
        &self,
        ctx: &Ctx,
        flops_per_elem: u64,
        out: &mut DistArray<U>,
        f: impl Fn(T) -> U + Sync + Send,
    ) {
        assert_eq!(self.shape(), out.shape(), "map_into shape mismatch");
        ctx.add_flops(flops_per_elem * self.len() as u64);
        ctx.busy(|| map_slice(&self.data, &mut out.data, &f));
    }

    /// Combine with another same-shaped array into a new array.
    pub fn zip_map<U: Elem, V: Elem>(
        &self,
        ctx: &Ctx,
        flops_per_elem: u64,
        other: &DistArray<U>,
        f: impl Fn(T, U) -> V + Sync + Send,
    ) -> DistArray<V> {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        ctx.add_flops(flops_per_elem * self.len() as u64);
        let mut data: Vec<V> = ctx.pool.take(self.len());
        ctx.busy(|| zip_map_slice(&self.data, &other.data, &mut data, &f));
        DistArray {
            data,
            layout: self.layout.clone(),
        }
    }

    /// Like [`zip_map`](Self::zip_map), but writing into an existing
    /// same-shaped array instead of allocating. Charges the same FLOPs.
    pub fn zip_map_into<U: Elem, V: Elem>(
        &self,
        ctx: &Ctx,
        flops_per_elem: u64,
        other: &DistArray<U>,
        out: &mut DistArray<V>,
        f: impl Fn(T, U) -> V + Sync + Send,
    ) {
        assert_eq!(self.shape(), other.shape(), "zip_map_into shape mismatch");
        assert_eq!(
            self.shape(),
            out.shape(),
            "zip_map_into output shape mismatch"
        );
        ctx.add_flops(flops_per_elem * self.len() as u64);
        ctx.busy(|| zip_map_slice(&self.data, &other.data, &mut out.data, &f));
    }

    /// Update in place.
    pub fn map_inplace(
        &mut self,
        ctx: &Ctx,
        flops_per_elem: u64,
        f: impl Fn(&mut T) + Sync + Send,
    ) {
        ctx.add_flops(flops_per_elem * self.len() as u64);
        ctx.busy(|| {
            if self.len() >= PAR_THRESHOLD {
                self.data.par_iter_mut().for_each(&f);
            } else {
                self.data.iter_mut().for_each(f);
            }
        });
    }

    /// Update in place from a same-shaped array.
    pub fn zip_inplace<U: Elem>(
        &mut self,
        ctx: &Ctx,
        flops_per_elem: u64,
        other: &DistArray<U>,
        f: impl Fn(&mut T, U) + Sync + Send,
    ) {
        assert_eq!(self.shape(), other.shape(), "zip_inplace shape mismatch");
        ctx.add_flops(flops_per_elem * self.len() as u64);
        ctx.busy(|| {
            if self.len() >= PAR_THRESHOLD {
                self.data
                    .par_iter_mut()
                    .zip(other.data.par_iter())
                    .for_each(|(x, &y)| f(x, y));
            } else {
                self.data
                    .iter_mut()
                    .zip(other.data.iter())
                    .for_each(|(x, &y)| f(x, y));
            }
        });
    }

    /// FORALL: map with the multi-index available, into a new array.
    ///
    /// The multi-index is decoded from the flat offset once per
    /// [`INDEX_CHUNK`]-element chunk and advanced in place on a
    /// stack-local buffer — no per-element heap allocation.
    pub fn indexed_map<U: Elem>(
        &self,
        ctx: &Ctx,
        flops_per_elem: u64,
        f: impl Fn(&[usize], T) -> U + Sync + Send,
    ) -> DistArray<U> {
        ctx.add_flops(flops_per_elem * self.len() as u64);
        let shape = self.shape();
        let mut data: Vec<U> = ctx.pool.take(self.len());
        ctx.busy(|| {
            if self.len() >= PAR_THRESHOLD {
                data.par_chunks_mut(INDEX_CHUNK)
                    .zip(self.data.par_chunks(INDEX_CHUNK))
                    .enumerate()
                    .for_each(|(c, (out, src))| {
                        indexed_map_chunk(shape, c * INDEX_CHUNK, src, out, &f)
                    });
            } else {
                indexed_map_chunk(shape, 0, &self.data, &mut data, &f);
            }
        });
        DistArray {
            data,
            layout: self.layout.clone(),
        }
    }

    /// FORALL assignment: set every element from its multi-index.
    ///
    /// Chunked like [`indexed_map`](Self::indexed_map): one index decode
    /// per chunk, in-place advance per element, no heap allocation.
    pub fn indexed_fill(
        &mut self,
        ctx: &Ctx,
        flops_per_elem: u64,
        f: impl Fn(&[usize]) -> T + Sync + Send,
    ) {
        ctx.add_flops(flops_per_elem * self.len() as u64);
        let (shape, data) = self.layout_and_data_mut();
        ctx.busy(|| {
            if data.len() >= PAR_THRESHOLD {
                data.par_chunks_mut(INDEX_CHUNK)
                    .enumerate()
                    .for_each(|(c, out)| indexed_fill_chunk(shape, c * INDEX_CHUNK, out, &f));
            } else {
                indexed_fill_chunk(shape, 0, data, &f);
            }
        });
    }

    /// Overwrite all elements with `value` (parallel above
    /// [`PAR_THRESHOLD`]).
    pub fn fill(&mut self, ctx: &Ctx, value: T) {
        ctx.busy(|| {
            if self.data.len() >= PAR_THRESHOLD {
                self.data.par_iter_mut().for_each(|x| *x = value);
            } else {
                self.data.iter_mut().for_each(|x| *x = value);
            }
        });
    }

    /// Copy the contents of a same-shaped array into this one (parallel
    /// above [`PAR_THRESHOLD`]).
    pub fn assign(&mut self, ctx: &Ctx, other: &DistArray<T>) {
        assert_eq!(self.shape(), other.shape(), "assign shape mismatch");
        ctx.busy(|| {
            if self.data.len() >= PAR_THRESHOLD {
                self.data
                    .par_chunks_mut(COPY_CHUNK)
                    .zip(other.data.par_chunks(COPY_CHUNK))
                    .for_each(|(dst, src)| dst.copy_from_slice(src));
            } else {
                self.data.copy_from_slice(&other.data);
            }
        });
    }

    /// Split borrows: the shape (borrowed from the layout) and the data,
    /// mutably. Lets chunked loops borrow both without cloning the shape.
    fn layout_and_data_mut(&mut self) -> (&[usize], &mut [T]) {
        (self.layout.shape(), &mut self.data)
    }

    /// Reinterpret with a new shape and axis kinds (copying none of the
    /// data; the length must match).
    pub fn reshape(&self, ctx: &Ctx, shape: &[usize], axes: &[AxisKind]) -> DistArray<T> {
        let layout = Layout::new(&ctx.machine, shape, axes);
        assert_eq!(layout.len(), self.len(), "reshape length mismatch");
        DistArray {
            data: self.data.clone(),
            layout,
        }
    }

    /// Permute axes (copying), e.g. `permute(&[1, 0])` is a 2-D transpose
    /// of the *storage*. Communication accounting for distributed
    /// transposes lives in `dpf-comm::transpose`.
    pub fn permute(&self, ctx: &Ctx, order: &[usize]) -> DistArray<T> {
        assert_eq!(order.len(), self.rank(), "permute order rank mismatch");
        let mut seen = vec![false; self.rank()];
        for &d in order {
            assert!(!seen[d], "permute order repeats axis {d}");
            seen[d] = true;
        }
        let new_shape: Vec<usize> = order.iter().map(|&d| self.shape()[d]).collect();
        let new_axes: Vec<AxisKind> = order.iter().map(|&d| self.layout.axes()[d]).collect();
        let layout = Layout::new(&ctx.machine, &new_shape, &new_axes);
        let old_strides = self.layout.strides();
        let strides_in_new_order: Vec<usize> = order.iter().map(|&d| old_strides[d]).collect();
        let mut data: Vec<T> = ctx.pool.take(self.len());
        ctx.busy(|| {
            if self.len() >= PAR_THRESHOLD {
                data.par_chunks_mut(INDEX_CHUNK)
                    .enumerate()
                    .for_each(|(c, out)| {
                        permute_chunk(
                            &new_shape,
                            &strides_in_new_order,
                            c * INDEX_CHUNK,
                            &self.data,
                            out,
                        )
                    });
            } else {
                permute_chunk(&new_shape, &strides_in_new_order, 0, &self.data, &mut data);
            }
        });
        DistArray { data, layout }
    }

    /// An array whose buffer is taken from the context's pool when a
    /// same-sized buffer has been [`recycle`](Self::recycle)d (falling
    /// back to a zeroed allocation).
    ///
    /// The contents are **unspecified** — either zeros or stale data from
    /// a retired buffer. Callers must overwrite every element before
    /// reading; the `_into` primitives and `fill`/`indexed_fill` do.
    pub fn scratch(ctx: &Ctx, shape: &[usize], axes: &[AxisKind]) -> Self {
        let layout = Layout::new(&ctx.machine, shape, axes);
        let data = ctx.pool.take(layout.len());
        DistArray { data, layout }
    }

    /// Retire this array's buffer to the context's pool so a later
    /// same-shaped [`scratch`](Self::scratch) or pooled primitive can
    /// reuse it instead of allocating.
    pub fn recycle(self, ctx: &Ctx) {
        ctx.pool.put(self.data);
    }

    /// The elements as a plain `Vec` (clone).
    pub fn to_vec(&self) -> Vec<T> {
        self.data.clone()
    }
}

/// Element-wise map over a slice pair, parallel above [`PAR_THRESHOLD`].
fn map_slice<T: Elem, U: Elem>(src: &[T], out: &mut [U], f: &(impl Fn(T) -> U + Sync + Send)) {
    debug_assert_eq!(src.len(), out.len());
    if src.len() >= PAR_THRESHOLD {
        out.par_iter_mut()
            .zip(src.par_iter())
            .for_each(|(o, &x)| *o = f(x));
    } else {
        for (o, &x) in out.iter_mut().zip(src) {
            *o = f(x);
        }
    }
}

/// Element-wise binary map over slices, parallel above [`PAR_THRESHOLD`].
fn zip_map_slice<T: Elem, U: Elem, V: Elem>(
    a: &[T],
    b: &[U],
    out: &mut [V],
    f: &(impl Fn(T, U) -> V + Sync + Send),
) {
    debug_assert_eq!(a.len(), out.len());
    debug_assert_eq!(b.len(), out.len());
    if a.len() >= PAR_THRESHOLD {
        out.par_iter_mut()
            .zip(a.par_iter())
            .zip(b.par_iter())
            .for_each(|((o, &x), &y)| *o = f(x, y));
    } else {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = f(x, y);
        }
    }
}

/// Decode a flat row-major offset into `idx` (no allocation).
#[inline]
fn decode_index(mut flat: usize, shape: &[usize], idx: &mut [usize]) {
    for d in (0..shape.len()).rev() {
        idx[d] = flat % shape[d];
        flat /= shape[d];
    }
}

/// Advance a multi-index to the next row-major position in place.
#[inline]
fn advance_index(idx: &mut [usize], shape: &[usize]) {
    for d in (0..shape.len()).rev() {
        idx[d] += 1;
        if idx[d] < shape[d] {
            return;
        }
        idx[d] = 0;
    }
}

/// One chunk of an indexed map: decode the chunk's starting index once,
/// then advance in place per element.
fn indexed_map_chunk<T: Elem, U: Elem>(
    shape: &[usize],
    start: usize,
    src: &[T],
    out: &mut [U],
    f: &(impl Fn(&[usize], T) -> U + Sync + Send),
) {
    let rank = shape.len();
    assert!(
        rank <= MAX_RANK,
        "indexed ops support rank <= {MAX_RANK}, got {rank}"
    );
    let mut idx = [0usize; MAX_RANK];
    decode_index(start, shape, &mut idx[..rank]);
    for (slot, &x) in out.iter_mut().zip(src) {
        *slot = f(&idx[..rank], x);
        advance_index(&mut idx[..rank], shape);
    }
}

/// One chunk of an indexed fill (no source values).
fn indexed_fill_chunk<T: Elem>(
    shape: &[usize],
    start: usize,
    out: &mut [T],
    f: &(impl Fn(&[usize]) -> T + Sync + Send),
) {
    let rank = shape.len();
    assert!(
        rank <= MAX_RANK,
        "indexed ops support rank <= {MAX_RANK}, got {rank}"
    );
    let mut idx = [0usize; MAX_RANK];
    decode_index(start, shape, &mut idx[..rank]);
    for slot in out.iter_mut() {
        *slot = f(&idx[..rank]);
        advance_index(&mut idx[..rank], shape);
    }
}

/// One chunk of a permute: walk output positions in row-major order while
/// tracking the corresponding source offset incrementally (`strides` are
/// the source strides reordered to the output's axis order), so the inner
/// loop is a gather with O(1) amortized index arithmetic.
fn permute_chunk<T: Elem>(
    new_shape: &[usize],
    strides: &[usize],
    start: usize,
    src: &[T],
    out: &mut [T],
) {
    let rank = new_shape.len();
    assert!(
        rank <= MAX_RANK,
        "permute supports rank <= {MAX_RANK}, got {rank}"
    );
    let mut idx = [0usize; MAX_RANK];
    decode_index(start, new_shape, &mut idx[..rank]);
    let mut flat_old: usize = idx[..rank].iter().zip(strides).map(|(&i, &s)| i * s).sum();
    for slot in out.iter_mut() {
        *slot = src[flat_old];
        for d in (0..rank).rev() {
            idx[d] += 1;
            flat_old += strides[d];
            if idx[d] < new_shape[d] {
                break;
            }
            flat_old -= new_shape[d] * strides[d];
            idx[d] = 0;
        }
    }
}

/// A distributed array checkpoints as its flat buffer; the layout is
/// immutable over a kernel's iteration loop, so only the data needs
/// saving. Health is per-element soundness (finite floats, no poison
/// markers), which is what the fault injector's corruptions violate.
impl<T: Elem> dpf_core::Checkpoint for DistArray<T> {
    fn capture(&self, out: &mut Vec<u8>) {
        self.data.capture(out);
    }

    fn restore(&mut self, cursor: &mut &[u8]) {
        self.data.restore(cursor);
    }

    fn healthy(&self) -> bool {
        self.data.healthy()
    }
}

/// Convert a flat row-major offset back into a multi-index.
#[inline]
pub fn unflatten(mut flat: usize, shape: &[usize]) -> Vec<usize> {
    let mut idx = vec![0usize; shape.len()];
    for d in (0..shape.len()).rev() {
        idx[d] = flat % shape[d];
        flat /= shape[d];
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{PAR, SER};
    use dpf_core::Machine;

    fn ctx() -> Ctx {
        Ctx::new(Machine::cm5(4))
    }

    #[test]
    fn construction_and_indexing() {
        let ctx = ctx();
        let mut a = DistArray::<f64>::zeros(&ctx, &[2, 3], &[PAR, PAR]);
        a.set(&[1, 2], 7.5);
        assert_eq!(a.get(&[1, 2]), 7.5);
        assert_eq!(a.get(&[0, 0]), 0.0);
        assert_eq!(a.len(), 6);
        assert_eq!(a.rank(), 2);
    }

    #[test]
    fn from_fn_builds_row_major() {
        let ctx = ctx();
        let a = DistArray::<i32>::from_fn(&ctx, &[2, 2], &[PAR, PAR], |idx| {
            (10 * idx[0] + idx[1]) as i32
        });
        assert_eq!(a.to_vec(), vec![0, 1, 10, 11]);
    }

    #[test]
    fn map_charges_flops() {
        let ctx = ctx();
        let a = DistArray::<f64>::full(&ctx, &[10], &[PAR], 2.0);
        let b = a.map(&ctx, 1, |x| x * x);
        assert_eq!(b.to_vec(), vec![4.0; 10]);
        assert_eq!(ctx.instr.flops(), 10);
    }

    #[test]
    fn zip_map_combines() {
        let ctx = ctx();
        let a = DistArray::<f64>::full(&ctx, &[8], &[PAR], 3.0);
        let b = DistArray::<f64>::full(&ctx, &[8], &[PAR], 4.0);
        let c = a.zip_map(&ctx, 2, &b, |x, y| x * y + 1.0);
        assert_eq!(c.to_vec(), vec![13.0; 8]);
        assert_eq!(ctx.instr.flops(), 16);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn zip_map_rejects_shape_mismatch() {
        let ctx = ctx();
        let a = DistArray::<f64>::zeros(&ctx, &[4], &[PAR]);
        let b = DistArray::<f64>::zeros(&ctx, &[5], &[PAR]);
        let _ = a.zip_map(&ctx, 0, &b, |x, _| x);
    }

    #[test]
    fn indexed_fill_sees_indices() {
        let ctx = ctx();
        let mut a = DistArray::<i32>::zeros(&ctx, &[3, 2], &[PAR, SER]);
        a.indexed_fill(&ctx, 0, |idx| (idx[0] * 2 + idx[1]) as i32);
        assert_eq!(a.to_vec(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn declare_registers_paper_sized_bytes() {
        let ctx = ctx();
        let _a = DistArray::<f64>::zeros(&ctx, &[100], &[PAR]).declare(&ctx);
        assert_eq!(ctx.instr.declared_bytes(), 800);
        // Logicals count 4 bytes each (Fortran LOGICAL), not Rust's 1.
        let _m = DistArray::<bool>::zeros(&ctx, &[10], &[PAR]).declare(&ctx);
        assert_eq!(ctx.instr.declared_bytes(), 840);
    }

    #[test]
    fn permute_transposes() {
        let ctx = ctx();
        let a = DistArray::<i32>::from_fn(&ctx, &[2, 3], &[PAR, PAR], |idx| {
            (idx[0] * 3 + idx[1]) as i32
        });
        let t = a.permute(&ctx, &[1, 0]);
        assert_eq!(t.shape(), &[3, 2]);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(a.get(&[i, j]), t.get(&[j, i]));
            }
        }
    }

    #[test]
    fn permute_three_axes() {
        let ctx = ctx();
        let a = DistArray::<i32>::from_fn(&ctx, &[2, 3, 4], &[PAR, PAR, PAR], |idx| {
            (idx[0] * 100 + idx[1] * 10 + idx[2]) as i32
        });
        let p = a.permute(&ctx, &[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.get(&[3, 1, 2]), a.get(&[1, 2, 3]));
    }

    #[test]
    fn unflatten_inverts_offset() {
        let ctx = ctx();
        let a = DistArray::<i32>::zeros(&ctx, &[3, 4, 5], &[PAR, PAR, SER]);
        for flat in 0..a.len() {
            let idx = unflatten(flat, a.shape());
            assert_eq!(a.layout().offset(&idx), flat);
        }
    }

    #[test]
    fn fill_and_assign_parallel_path_matches_serial() {
        // Regression for the seed behaviour where fill/assign ran serially
        // at every size: both must take the parallel path above
        // PAR_THRESHOLD and produce the same result as below it.
        let ctx = ctx();
        let big = PAR_THRESHOLD + 37;
        let mut a = DistArray::<f64>::zeros(&ctx, &[big], &[PAR]);
        a.fill(&ctx, 2.5);
        assert!(a.to_vec().iter().all(|&x| x == 2.5));

        let src = DistArray::<f64>::from_fn(&ctx, &[big], &[PAR], |idx| idx[0] as f64);
        a.assign(&ctx, &src);
        assert_eq!(a.to_vec(), src.to_vec());

        // Small (serial-path) sanity check with the same operations.
        let mut s = DistArray::<f64>::zeros(&ctx, &[8], &[PAR]);
        s.fill(&ctx, 2.5);
        assert_eq!(s.to_vec(), vec![2.5; 8]);
        let ssrc = DistArray::<f64>::from_fn(&ctx, &[8], &[PAR], |idx| idx[0] as f64);
        s.assign(&ctx, &ssrc);
        assert_eq!(s.to_vec(), ssrc.to_vec());
    }

    #[test]
    fn indexed_ops_chunked_decode_matches_unflatten() {
        // Exercise the parallel chunked path (len > PAR_THRESHOLD) with a
        // shape that doesn't divide the chunk size evenly.
        let ctx = ctx();
        let shape = [37, 21, 23]; // 17_871 elements, odd extents
        let mut a = DistArray::<i32>::zeros(&ctx, &shape, &[PAR, PAR, SER]);
        a.indexed_fill(&ctx, 0, |idx| {
            (idx[0] * 1_000_000 + idx[1] * 1_000 + idx[2]) as i32
        });
        for flat in (0..a.len()).step_by(997) {
            let idx = unflatten(flat, &shape);
            assert_eq!(
                a.get(&idx),
                (idx[0] * 1_000_000 + idx[1] * 1_000 + idx[2]) as i32
            );
        }
        let b = a.indexed_map(&ctx, 0, |idx, x| x - (idx[0] * 1_000_000) as i32);
        for flat in (0..b.len()).step_by(991) {
            let idx = unflatten(flat, &shape);
            assert_eq!(b.get(&idx), (idx[1] * 1_000 + idx[2]) as i32);
        }
    }

    #[test]
    fn map_into_matches_map() {
        let ctx = ctx();
        let a = DistArray::<f64>::from_fn(&ctx, &[300], &[PAR], |idx| idx[0] as f64);
        let expected = a.map(&ctx, 2, |x| x * 2.0 + 1.0);
        let flops_after_map = ctx.instr.flops();
        let mut out = DistArray::<f64>::zeros(&ctx, &[300], &[PAR]);
        a.map_into(&ctx, 2, &mut out, |x| x * 2.0 + 1.0);
        assert_eq!(out, expected);
        // Identical FLOP charge.
        assert_eq!(ctx.instr.flops() - flops_after_map, flops_after_map);
    }

    #[test]
    fn zip_map_into_matches_zip_map() {
        let ctx = ctx();
        let a = DistArray::<f64>::from_fn(&ctx, &[64], &[PAR], |idx| idx[0] as f64);
        let b = DistArray::<f64>::full(&ctx, &[64], &[PAR], 3.0);
        let expected = a.zip_map(&ctx, 1, &b, |x, y| x * y);
        let mut out = DistArray::<f64>::zeros(&ctx, &[64], &[PAR]);
        a.zip_map_into(&ctx, 1, &b, &mut out, |x, y| x * y);
        assert_eq!(out, expected);
    }

    #[test]
    fn scratch_recycle_round_trip() {
        let ctx = ctx();
        let a = DistArray::<f64>::full(&ctx, &[500], &[PAR], 9.0);
        a.recycle(&ctx);
        assert_eq!(ctx.pool.shelved(), 1);
        // scratch reuses the retired buffer: contents unspecified, so
        // overwrite before reading.
        let mut s = DistArray::<f64>::scratch(&ctx, &[500], &[PAR]);
        assert_eq!(ctx.pool.hits(), 1);
        s.fill(&ctx, 1.0);
        assert_eq!(s.to_vec(), vec![1.0; 500]);
    }

    #[test]
    fn permute_parallel_path_matches_reference() {
        let ctx = ctx();
        let shape = [19, 23, 41]; // 17_917 elements: parallel path
        let a = DistArray::<i32>::from_fn(&ctx, &shape, &[PAR, PAR, PAR], |idx| {
            (idx[0] * 10_000 + idx[1] * 100 + idx[2]) as i32
        });
        let p = a.permute(&ctx, &[2, 0, 1]);
        assert_eq!(p.shape(), &[41, 19, 23]);
        for flat in (0..p.len()).step_by(887) {
            let idx = unflatten(flat, p.shape());
            assert_eq!(p.get(&idx), a.get(&[idx[1], idx[2], idx[0]]));
        }
    }

    #[test]
    fn reshape_preserves_data() {
        let ctx = ctx();
        let a = DistArray::<i32>::from_fn(&ctx, &[6], &[PAR], |idx| idx[0] as i32);
        let b = a.reshape(&ctx, &[2, 3], &[PAR, PAR]);
        assert_eq!(b.get(&[1, 2]), 5);
    }
}

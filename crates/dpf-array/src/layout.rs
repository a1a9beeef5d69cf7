//! Array layouts: serial/parallel axes and block distribution.
//!
//! The paper (§1.4) adheres to HPF terminology: each axis of an array is
//! either **local** (`:serial` in Tables 2 and 5 — the whole axis lives in
//! one processor's memory) or **parallel** (`:` — block-distributed over
//! the machine's processors). The layout determines which primitive
//! invocations move data between processors, and is the classification
//! axis of the paper's data-representation tables.
//!
//! Parallel axes share the machine's `P` processors: a processor grid is
//! factored over them CMF-style, assigning processors to the longest
//! extents first. Distribution along an axis is the standard block map:
//! with extent `n` over `p` processors, block size `b = ceil(n/p)` and
//! processor `i` owns indices `[i·b, min((i+1)·b, n))`.

use dpf_core::Machine;

/// Whether an axis is local to a processor or distributed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AxisKind {
    /// `:serial` — the axis lies entirely within one processor's memory.
    Serial,
    /// `:` — the axis is block-distributed over the processor grid.
    Parallel,
}

impl AxisKind {
    /// True for [`AxisKind::Parallel`].
    pub const fn is_parallel(self) -> bool {
        matches!(self, AxisKind::Parallel)
    }
}

/// Shorthand: a serial axis.
pub const SER: AxisKind = AxisKind::Serial;
/// Shorthand: a parallel axis.
pub const PAR: AxisKind = AxisKind::Parallel;

/// The shape, axis kinds and processor-grid factorization of an array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layout {
    shape: Vec<usize>,
    axes: Vec<AxisKind>,
    /// Processors assigned to each axis (1 for serial axes).
    procs: Vec<usize>,
    /// Precomputed block extent per axis: `ceil(shape/procs)`. Owner
    /// queries sit on gather/scatter hot paths, so the division by the
    /// block size must not recompute the block size itself each call.
    blocks: Vec<usize>,
}

impl Layout {
    /// Build a layout for `shape` with the given axis kinds on `machine`.
    ///
    /// # Panics
    /// If `shape` and `axes` lengths differ or any extent is zero.
    pub fn new(machine: &Machine, shape: &[usize], axes: &[AxisKind]) -> Self {
        assert_eq!(
            shape.len(),
            axes.len(),
            "shape rank {} != axis-kind rank {}",
            shape.len(),
            axes.len()
        );
        assert!(
            shape.iter().all(|&n| n > 0),
            "zero extent in shape {shape:?}"
        );
        let procs = factor_grid(machine.nprocs, shape, axes);
        let blocks = shape
            .iter()
            .zip(&procs)
            .map(|(&n, &p)| n.div_ceil(p))
            .collect();
        Layout {
            shape: shape.to_vec(),
            axes: axes.to_vec(),
            procs,
            blocks,
        }
    }

    /// A rank-0 (scalar) layout.
    pub fn scalar() -> Self {
        Layout {
            shape: vec![],
            axes: vec![],
            procs: vec![],
            blocks: vec![],
        }
    }

    /// The array shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The axis kinds.
    #[inline]
    pub fn axes(&self) -> &[AxisKind] {
        &self.axes
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// True for zero-rank layouts (scalars still hold one element).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.shape.is_empty()
    }

    /// Processors assigned to `axis` (1 for serial axes).
    #[inline]
    pub fn procs_on(&self, axis: usize) -> usize {
        self.procs[axis]
    }

    /// Block size along `axis`: `ceil(extent / procs)` (precomputed).
    #[inline]
    pub fn block(&self, axis: usize) -> usize {
        self.blocks[axis]
    }

    /// Precomputed block extents for every axis.
    #[inline]
    pub fn blocks(&self) -> &[usize] {
        &self.blocks
    }

    /// The processor (along this axis's grid dimension) owning index `i`.
    #[inline]
    pub fn owner(&self, axis: usize, i: usize) -> usize {
        debug_assert!(i < self.shape[axis]);
        i / self.blocks[axis]
    }

    /// Whether any axis is parallel over more than one processor.
    pub fn is_distributed(&self) -> bool {
        self.procs.iter().any(|&p| p > 1)
    }

    /// Row-major strides for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.rank()];
        for d in (0..self.rank().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * self.shape[d + 1];
        }
        strides
    }

    /// Flat row-major offset of a multi-index.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.rank());
        let mut off = 0;
        for d in 0..self.rank() {
            debug_assert!(
                idx[d] < self.shape[d],
                "index {idx:?} out of {:?}",
                self.shape
            );
            off = off * self.shape[d] + idx[d];
        }
        off
    }

    /// Number of elements for which moving from index `i` to `i+shift`
    /// (cyclically) along `axis` crosses a processor boundary, per
    /// full-extent traversal of that axis.
    ///
    /// For a block map over `p` processors, a cyclic shift by `s` is
    /// equivalent to one by `-(n-s)`, so the effective magnitude is
    /// `e = min(s mod n, n - s mod n)`; each of the `p` blocks exports
    /// `min(e, b)` of its elements. The count `p·min(e, b)` (clamped to
    /// `n`) is exact for uniform blocks and an upper bound when the last
    /// block is ragged.
    pub fn offproc_per_lane(&self, axis: usize, shift: isize) -> usize {
        let n = self.shape[axis];
        let p = self.procs[axis];
        if p <= 1 || n == 0 {
            return 0;
        }
        let s = (shift.rem_euclid(n as isize)) as usize;
        if s == 0 {
            return 0;
        }
        let eff = s.min(n - s);
        let b = self.block(axis);
        let per_block = eff.min(b);
        (per_block * p).min(n)
    }

    /// Product of the extents of all axes except `axis` (the number of
    /// independent "lanes" a shift along `axis` operates on).
    pub fn lanes(&self, axis: usize) -> usize {
        if self.shape[axis] == 0 {
            return 0;
        }
        self.len() / self.shape[axis]
    }

    /// Linearized id of the virtual processor owning a multi-index: the
    /// mixed-radix combination (row-major over the grid) of the per-axis
    /// owners. Cross-array movement accounting compares these ids under
    /// the HPF alignment assumption that identically-factored grids
    /// coincide.
    #[inline]
    pub fn owner_id(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.rank());
        let mut id = 0usize;
        for (d, &i) in idx.iter().enumerate() {
            id = id * self.procs[d] + self.owner(d, i);
        }
        id
    }

    /// Visit `[start, start + len)` as maximal flat-offset segments within
    /// which the owning processor id is constant, calling
    /// `f(segment_start, segment_len, owner_id)` once per segment.
    ///
    /// In row-major order only the last axis varies within a row, so the
    /// owner changes exactly at that axis's block boundaries and at row
    /// ends. Communication accounting loops use this to replace a
    /// per-element [`Layout::owner_id_flat`] (rank divmods each) with one
    /// id computation per block segment.
    ///
    /// The walk decodes the start once. After that it divides nothing: it
    /// advances the row's leading-axis index like an odometer at each row
    /// end, carrying each axis's block owner and the row's owner id with
    /// it.
    pub fn for_each_owner_segment(
        &self,
        start: usize,
        len: usize,
        mut f: impl FnMut(usize, usize, usize),
    ) {
        debug_assert!(start + len <= self.len(), "segment range past the array");
        if len == 0 {
            return;
        }
        if self.rank() == 0 || !self.is_distributed() {
            // Every element is owned by processor 0 of a 1-sized grid.
            f(start, len, 0);
            return;
        }
        let last = self.rank() - 1;
        let (n_last, b_last) = (self.shape[last], self.blocks[last]);
        // Index and block owner of the current row along each leading
        // axis, and the row's owner id with the last axis's owner at 0.
        let mut idx = vec![0usize; last];
        let mut own = vec![0usize; last];
        let mut row_id = 0usize;
        let (mut row, mut radix) = (start / n_last, self.procs[last]);
        for d in (0..last).rev() {
            idx[d] = row % self.shape[d];
            own[d] = self.owner(d, idx[d]);
            row_id += own[d] * radix;
            row /= self.shape[d];
            radix *= self.procs[d];
        }
        let mut j = start % n_last;
        let mut o = j / b_last;
        let end = start + len;
        let mut pos = start;
        loop {
            let seg = (((o + 1) * b_last).min(n_last) - j).min(end - pos);
            f(pos, seg, row_id + o);
            pos += seg;
            if pos == end {
                return;
            }
            j += seg;
            if j < n_last {
                o += 1;
                continue;
            }
            j = 0;
            o = 0;
            let mut radix = self.procs[last];
            for d in (0..last).rev() {
                idx[d] += 1;
                if idx[d] < self.shape[d] {
                    if idx[d] == (own[d] + 1) * self.blocks[d] {
                        own[d] += 1;
                        row_id += radix;
                    }
                    break;
                }
                row_id -= own[d] * radix;
                idx[d] = 0;
                own[d] = 0;
                radix *= self.procs[d];
            }
        }
    }

    /// Like [`Layout::owner_id`] but from a flat row-major offset.
    #[inline]
    pub fn owner_id_flat(&self, mut flat: usize) -> usize {
        // Decode the index in reverse and accumulate owners with their
        // radix, then fold; avoids allocating the index vector.
        let mut id = 0usize;
        let mut radix = 1usize;
        for d in (0..self.rank()).rev() {
            let i = flat % self.shape[d];
            flat /= self.shape[d];
            id += self.owner(d, i) * radix;
            radix *= self.procs[d];
        }
        id
    }
}

/// Factor `nprocs` over the parallel axes, longest-first, using the prime
/// factors of `nprocs` (largest primes placed first so the grid stays as
/// balanced as CMF's layouts).
fn factor_grid(nprocs: usize, shape: &[usize], axes: &[AxisKind]) -> Vec<usize> {
    let mut procs = vec![1usize; shape.len()];
    let par_axes: Vec<usize> = (0..shape.len())
        .filter(|&d| axes[d].is_parallel())
        .collect();
    if par_axes.is_empty() {
        return procs;
    }
    for f in prime_factors_desc(nprocs) {
        // Give the factor to the parallel axis with the largest remaining
        // block, provided it can still be split.
        let best = par_axes
            .iter()
            .copied()
            .filter(|&d| procs[d] * f <= shape[d].max(1))
            .max_by_key(|&d| shape[d].div_ceil(procs[d]));
        if let Some(d) = best {
            procs[d] *= f;
        }
        // If no axis can absorb the factor, some virtual processors stay
        // idle along that dimension — the same thing happens on a real
        // machine when the array is smaller than the partition.
    }
    procs
}

fn prime_factors_desc(mut n: usize) -> Vec<usize> {
    let mut fs = Vec::new();
    let mut d = 2;
    while d * d <= n {
        while n.is_multiple_of(d) {
            fs.push(d);
            n /= d;
        }
        d += 1;
    }
    if n > 1 {
        fs.push(n);
    }
    fs.sort_unstable_by(|a, b| b.cmp(a));
    fs
}

/// Iterator over all multi-indices of a shape, row-major order.
#[derive(Clone, Debug)]
pub struct IndexIter {
    shape: Vec<usize>,
    next: Option<Vec<usize>>,
}

impl IndexIter {
    /// Iterate over every index of `shape` (empty shape yields one empty
    /// index — the scalar case).
    pub fn new(shape: &[usize]) -> Self {
        let next = if shape.contains(&0) {
            None
        } else {
            Some(vec![0; shape.len()])
        };
        IndexIter {
            shape: shape.to_vec(),
            next,
        }
    }
}

impl Iterator for IndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.next.clone()?;
        // Advance row-major.
        let mut idx = current.clone();
        let mut d = self.shape.len();
        loop {
            if d == 0 {
                self.next = None;
                break;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < self.shape[d] {
                self.next = Some(idx);
                break;
            }
            idx[d] = 0;
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(p: usize) -> Machine {
        Machine::cm5(p)
    }

    #[test]
    fn serial_axes_get_one_processor() {
        let l = Layout::new(&m(16), &[8, 64], &[SER, PAR]);
        assert_eq!(l.procs_on(0), 1);
        assert_eq!(l.procs_on(1), 16);
    }

    #[test]
    fn grid_factors_over_parallel_axes() {
        let l = Layout::new(&m(16), &[64, 64], &[PAR, PAR]);
        assert_eq!(l.procs_on(0) * l.procs_on(1), 16);
        assert_eq!(l.procs_on(0), 4);
        assert_eq!(l.procs_on(1), 4);
    }

    #[test]
    fn grid_prefers_longer_axes() {
        let l = Layout::new(&m(8), &[256, 4], &[PAR, PAR]);
        assert!(l.procs_on(0) >= l.procs_on(1));
        assert!(l.procs_on(0) * l.procs_on(1) <= 8);
    }

    #[test]
    fn small_axes_do_not_oversplit() {
        let l = Layout::new(&m(64), &[2], &[PAR]);
        assert!(l.procs_on(0) <= 2);
    }

    #[test]
    fn block_and_owner_are_consistent() {
        let l = Layout::new(&m(4), &[10], &[PAR]);
        let b = l.block(0);
        assert_eq!(b, 3); // ceil(10/4)
        assert_eq!(l.owner(0, 0), 0);
        assert_eq!(l.owner(0, 2), 0);
        assert_eq!(l.owner(0, 3), 1);
        assert_eq!(l.owner(0, 9), 3);
    }

    #[test]
    fn offsets_are_row_major() {
        let l = Layout::new(&m(1), &[2, 3, 4], &[PAR, PAR, PAR]);
        assert_eq!(l.offset(&[0, 0, 0]), 0);
        assert_eq!(l.offset(&[0, 0, 3]), 3);
        assert_eq!(l.offset(&[0, 1, 0]), 4);
        assert_eq!(l.offset(&[1, 2, 3]), 23);
        assert_eq!(l.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offproc_per_lane_counts_boundary_crossings() {
        // 16 elements over 4 procs: blocks of 4. Shift by 1: each of the 4
        // blocks exports 1 element -> 4 off-proc elements per lane.
        let l = Layout::new(&m(4), &[16], &[PAR]);
        assert_eq!(l.offproc_per_lane(0, 1), 4);
        assert_eq!(l.offproc_per_lane(0, -1), 4);
        // Shift by the block size or more: everything moves off-processor.
        assert_eq!(l.offproc_per_lane(0, 4), 16);
        assert_eq!(l.offproc_per_lane(0, 9), 16);
        // Full-cycle shift: nothing moves.
        assert_eq!(l.offproc_per_lane(0, 16), 0);
        // Serial layout: never off-processor.
        let ls = Layout::new(&m(4), &[16], &[SER]);
        assert_eq!(ls.offproc_per_lane(0, 1), 0);
    }

    #[test]
    fn lanes_is_product_of_other_axes() {
        let l = Layout::new(&m(2), &[4, 5, 6], &[PAR, PAR, SER]);
        assert_eq!(l.lanes(0), 30);
        assert_eq!(l.lanes(1), 24);
        assert_eq!(l.lanes(2), 20);
    }

    #[test]
    fn index_iter_visits_all_row_major() {
        let v: Vec<Vec<usize>> = IndexIter::new(&[2, 2]).collect();
        assert_eq!(v, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
        let s: Vec<Vec<usize>> = IndexIter::new(&[]).collect();
        assert_eq!(s, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn owner_id_agrees_with_flat_decode() {
        let l = Layout::new(&m(8), &[8, 6], &[PAR, PAR]);
        let strides = l.strides();
        for i in 0..8 {
            for j in 0..6 {
                let flat = i * strides[0] + j * strides[1];
                assert_eq!(l.owner_id(&[i, j]), l.owner_id_flat(flat));
            }
        }
    }

    #[test]
    fn owner_id_is_bounded_by_grid_size() {
        let l = Layout::new(&m(16), &[32, 32], &[PAR, PAR]);
        let total = l.procs_on(0) * l.procs_on(1);
        for i in (0..32).step_by(3) {
            for j in (0..32).step_by(5) {
                assert!(l.owner_id(&[i, j]) < total);
            }
        }
    }

    #[test]
    fn owner_segments_cover_range_with_constant_owner() {
        for (shape, axes, p) in [
            (vec![16usize], vec![PAR], 4usize),
            (vec![10], vec![PAR], 4),
            (vec![8, 6], vec![PAR, PAR], 8),
            (vec![3, 5, 7], vec![PAR, SER, PAR], 6),
            (vec![9, 9], vec![SER, SER], 4),
            // qcd-kernel's link field: split along its last axis at p = 2,
            // over three parallel axes at p = 12.
            (
                vec![4, 3, 3, 6, 6, 6, 6],
                vec![SER, SER, SER, PAR, PAR, PAR, PAR],
                2,
            ),
            (
                vec![4, 3, 3, 6, 6, 6, 6],
                vec![SER, SER, SER, PAR, PAR, PAR, PAR],
                12,
            ),
        ] {
            let l = Layout::new(&m(p), &shape, &axes);
            let n_last = shape[shape.len() - 1];
            // Whole, trimmed, last-element and mid-row multi-row ranges.
            let mid = (l.len() / 3 + n_last / 2).min(l.len() - 1);
            let mid_row = (mid, (l.len() - mid).min(l.len() / 2).max(1));
            for (start, len) in [
                (0usize, l.len()),
                (3, l.len() - 5),
                (l.len() - 1, 1),
                mid_row,
            ] {
                let mut covered = start;
                l.for_each_owner_segment(start, len, |s0, slen, owner| {
                    assert_eq!(s0, covered, "segments must be contiguous");
                    assert!(slen > 0);
                    for flat in s0..s0 + slen {
                        assert_eq!(
                            l.owner_id_flat(flat),
                            owner,
                            "owner not constant in segment (layout {shape:?} over {p})"
                        );
                    }
                    covered = s0 + slen;
                });
                assert_eq!(covered, start + len, "segments must cover the range");
            }
        }
    }

    #[test]
    fn prime_factorization_descends() {
        assert_eq!(prime_factors_desc(12), vec![3, 2, 2]);
        assert_eq!(prime_factors_desc(7), vec![7]);
        assert_eq!(prime_factors_desc(1), Vec::<usize>::new());
    }
}

//! FLOP-counting conventions (paper §1.5, attribute 1).
//!
//! The suite adopts the operation weights suggested by Hennessy & Patterson
//! (the paper's reference [6]):
//!
//! * addition, subtraction, multiplication — **1** FLOP
//! * division, square root — **4** FLOPs
//! * logarithm, exponential, trigonometric functions — **8** FLOPs
//! * a reduction or parallel-prefix over `N` elements — **N − 1** FLOPs
//!   (its *sequential* operation count)
//!
//! Masked computations are counted over the **full** extent per HPF
//! execution semantics (paper §1.4): `sum(v*v, mask)` performs the multiply
//! for every element, so the suite charges all of them.
//!
//! These are *conventions*, not hardware counters: benchmarks charge FLOPs
//! in bulk via [`Ctx::add_flops`](crate::Ctx::add_flops) using the helper
//! constants and formulas below, exactly as the paper derives its Table 4
//! and Table 6 entries analytically.

/// Weight of a floating add, subtract or multiply.
pub const ADD: u64 = 1;
/// Weight of a floating subtract (alias of [`ADD`]).
pub const SUB: u64 = 1;
/// Weight of a floating multiply (alias of [`ADD`]).
pub const MUL: u64 = 1;
/// Weight of a floating divide.
pub const DIV: u64 = 4;
/// Weight of a square root.
pub const SQRT: u64 = 4;
/// Weight of a logarithm or exponential.
pub const LOG: u64 = 8;
/// Weight of a trigonometric function.
pub const TRIG: u64 = 8;
/// Weight of an exponential (alias of [`LOG`]).
pub const EXP: u64 = 8;

/// Sequential FLOP count of a reduction (or scan) over `n` elements:
/// `n − 1`, or zero for an empty or singleton extent.
#[inline]
pub const fn reduction(n: u64) -> u64 {
    n.saturating_sub(1)
}

/// FLOPs of a complex multiply expressed in real operations
/// (4 multiplies + 2 adds = 6); the paper's *tables* use the coarser
/// 4× convention of [`DType::flop_factor`](crate::DType::flop_factor) for
/// multiply-add pairs, which is what the bulk helpers below use.
pub const CMUL_EXACT: u64 = 6;

/// FLOPs charged for `n` multiply-add pairs of the given element type:
/// `2n` for real types, `8n` for complex (Table 4's `2nm` vs `8nm`).
#[inline]
pub const fn madd_pairs(dtype: crate::DType, n: u64) -> u64 {
    2 * n * dtype.flop_factor()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DType;

    #[test]
    fn complex_madd_is_four_times_real() {
        assert_eq!(madd_pairs(DType::F64, 10), 20);
        assert_eq!(madd_pairs(DType::C64, 10), 80);
    }
}

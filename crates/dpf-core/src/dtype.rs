//! Element types and the paper's memory-size conventions.
//!
//! Paper §1.5, attribute 3 fixes the sizes and single-letter sigils used in
//! every memory-usage formula of Tables 4 and 6:
//!
//! | sigil | type | bytes |
//! |---|---|---|
//! | `t` | integer | 4 |
//! | `l` | logical | 4 |
//! | `s` | single-precision real | 4 |
//! | `d` | double-precision real | 8 |
//! | `c` | single-precision complex | 8 |
//! | `z` | double-precision complex | 16 |
//!
//! Note that a Fortran `LOGICAL` occupies four bytes; Rust's `bool` is one
//! byte, so the memory ledger accounts logicals at the Fortran size (what
//! the paper's formulas assume) regardless of the host representation.

use crate::complex::{C32, C64};

/// The six element types of the suite, with the paper's sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DType {
    /// 4-byte integer (`t`).
    I32,
    /// 4-byte logical (`l`).
    Bool,
    /// 4-byte single-precision real (`s`).
    F32,
    /// 8-byte double-precision real (`d`).
    F64,
    /// 8-byte single-precision complex (`c`).
    C32,
    /// 16-byte double-precision complex (`z`).
    C64,
}

impl DType {
    /// Size in bytes under the paper's conventions.
    pub const fn size(self) -> usize {
        match self {
            DType::I32 | DType::Bool | DType::F32 => 4,
            DType::F64 | DType::C32 => 8,
            DType::C64 => 16,
        }
    }

    /// The single-letter sigil used in the paper's memory formulas.
    pub const fn sigil(self) -> char {
        match self {
            DType::I32 => 't',
            DType::Bool => 'l',
            DType::F32 => 's',
            DType::F64 => 'd',
            DType::C32 => 'c',
            DType::C64 => 'z',
        }
    }

    /// FLOP multiplier for complex arithmetic relative to real arithmetic.
    ///
    /// Tables 4's complex rows count four real FLOPs per complex
    /// multiply-add pair (e.g. `matrix-vector` counts `2nm` for `s,d` and
    /// `8nm` for `c,z`), i.e. a factor of 4.
    pub const fn flop_factor(self) -> u64 {
        match self {
            DType::C32 | DType::C64 => 4,
            _ => 1,
        }
    }

    /// True for the two complex types.
    pub const fn is_complex(self) -> bool {
        matches!(self, DType::C32 | DType::C64)
    }

    /// Real FLOPs of one addition in this type (2 for complex).
    pub const fn add_flops(self) -> u64 {
        if self.is_complex() {
            2
        } else {
            1
        }
    }

    /// Real FLOPs of one multiplication in this type (6 for complex:
    /// 4 multiplies + 2 adds).
    pub const fn mul_flops(self) -> u64 {
        if self.is_complex() {
            6
        } else {
            1
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.sigil())
    }
}

/// An element that can live in a DPF array.
///
/// `Default` provides the zero value used for padding and `eoshift`
/// boundaries; `PartialEq + Debug` support testing.
///
/// The three fault-surface methods describe how the fault injector
/// corrupts a value of this type and how checkpoint health checks detect
/// corruption: [`Elem::poisoned`] is the loudest corruption the type can
/// express (NaN where available), [`Elem::bit_flipped`] flips a
/// high-order bit of the representation (large but possibly still finite),
/// and [`Elem::is_sound`] is true when the value shows no sign of either.
pub trait Elem: Copy + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static {
    /// The DPF type descriptor for this element.
    const DTYPE: DType;

    /// Bytes of the *host* representation serialized by
    /// [`Elem::put_le`]/[`Elem::get_le`] (Rust sizes, e.g. 1 for `bool`
    /// — not the paper's ledger sizes in [`DType::size`]).
    const WIRE_BYTES: usize;

    /// The value after NaN-poisoning (or the closest analogue the type
    /// can express).
    fn poisoned(self) -> Self;

    /// The value after flipping a high-order bit of its representation.
    fn bit_flipped(self) -> Self;

    /// True when the value carries no corruption marker (finite for
    /// floating point; always true where corruption is representable as
    /// a legal value).
    fn is_sound(self) -> bool;

    /// Append the value's little-endian bytes (exactly
    /// [`Elem::WIRE_BYTES`] of them) to `out`. Bit-exact round-trip with
    /// [`Elem::get_le`] — NaN payloads and signed zeros survive — so
    /// replica snapshots restore to the identical value.
    fn put_le(self, out: &mut Vec<u8>);

    /// Read one value back from the first [`Elem::WIRE_BYTES`] bytes of
    /// `bytes` (the inverse of [`Elem::put_le`]).
    fn get_le(bytes: &[u8]) -> Self;
}

impl Elem for i32 {
    const DTYPE: DType = DType::I32;
    const WIRE_BYTES: usize = 4;
    fn poisoned(self) -> Self {
        i32::MIN
    }
    fn bit_flipped(self) -> Self {
        self ^ (1 << 30)
    }
    fn is_sound(self) -> bool {
        self != i32::MIN
    }
    fn put_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get_le(bytes: &[u8]) -> Self {
        i32::from_le_bytes(bytes[..4].try_into().unwrap())
    }
}
impl Elem for bool {
    const DTYPE: DType = DType::Bool;
    const WIRE_BYTES: usize = 1;
    fn poisoned(self) -> Self {
        !self
    }
    fn bit_flipped(self) -> Self {
        !self
    }
    fn is_sound(self) -> bool {
        true
    }
    fn put_le(self, out: &mut Vec<u8>) {
        out.push(self as u8);
    }
    fn get_le(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }
}
impl Elem for f32 {
    const DTYPE: DType = DType::F32;
    const WIRE_BYTES: usize = 4;
    fn poisoned(self) -> Self {
        f32::NAN
    }
    fn bit_flipped(self) -> Self {
        f32::from_bits(self.to_bits() ^ (1 << 30))
    }
    fn is_sound(self) -> bool {
        self.is_finite()
    }
    fn put_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn get_le(bytes: &[u8]) -> Self {
        f32::from_bits(u32::from_le_bytes(bytes[..4].try_into().unwrap()))
    }
}
impl Elem for f64 {
    const DTYPE: DType = DType::F64;
    const WIRE_BYTES: usize = 8;
    fn poisoned(self) -> Self {
        f64::NAN
    }
    fn bit_flipped(self) -> Self {
        f64::from_bits(self.to_bits() ^ (1 << 62))
    }
    fn is_sound(self) -> bool {
        self.is_finite()
    }
    fn put_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn get_le(bytes: &[u8]) -> Self {
        f64::from_bits(u64::from_le_bytes(bytes[..8].try_into().unwrap()))
    }
}
impl Elem for C32 {
    const DTYPE: DType = DType::C32;
    const WIRE_BYTES: usize = 8;
    fn poisoned(self) -> Self {
        C32 {
            re: f32::NAN,
            im: self.im,
        }
    }
    fn bit_flipped(self) -> Self {
        C32 {
            re: self.re.bit_flipped(),
            im: self.im,
        }
    }
    fn is_sound(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
    fn put_le(self, out: &mut Vec<u8>) {
        self.re.put_le(out);
        self.im.put_le(out);
    }
    fn get_le(bytes: &[u8]) -> Self {
        C32 {
            re: f32::get_le(&bytes[..4]),
            im: f32::get_le(&bytes[4..8]),
        }
    }
}
impl Elem for C64 {
    const DTYPE: DType = DType::C64;
    const WIRE_BYTES: usize = 16;
    fn poisoned(self) -> Self {
        C64 {
            re: f64::NAN,
            im: self.im,
        }
    }
    fn bit_flipped(self) -> Self {
        C64 {
            re: self.re.bit_flipped(),
            im: self.im,
        }
    }
    fn is_sound(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
    fn put_le(self, out: &mut Vec<u8>) {
        self.re.put_le(out);
        self.im.put_le(out);
    }
    fn get_le(bytes: &[u8]) -> Self {
        C64 {
            re: f64::get_le(&bytes[..8]),
            im: f64::get_le(&bytes[8..16]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_paper_table() {
        assert_eq!(DType::I32.size(), 4);
        assert_eq!(DType::Bool.size(), 4);
        assert_eq!(DType::F32.size(), 4);
        assert_eq!(DType::F64.size(), 8);
        assert_eq!(DType::C32.size(), 8);
        assert_eq!(DType::C64.size(), 16);
    }

    #[test]
    fn sigils_match_paper_notation() {
        let sigils: Vec<char> = [
            DType::I32,
            DType::Bool,
            DType::F32,
            DType::F64,
            DType::C32,
            DType::C64,
        ]
        .iter()
        .map(|d| d.sigil())
        .collect();
        assert_eq!(sigils, vec!['t', 'l', 's', 'd', 'c', 'z']);
    }

    #[test]
    fn complex_flop_factor_is_four() {
        assert_eq!(DType::C32.flop_factor(), 4);
        assert_eq!(DType::C64.flop_factor(), 4);
        assert_eq!(DType::F64.flop_factor(), 1);
    }

    #[test]
    fn fault_surface_detects_its_own_corruption() {
        assert!(1.0f64.is_sound());
        assert!(!1.0f64.poisoned().is_sound());
        assert!(!1.0f64.bit_flipped().is_sound() || 1.0f64.bit_flipped() != 1.0);
        assert!(!1.0f32.poisoned().is_sound());
        assert!(!7i32.poisoned().is_sound());
        assert_ne!(7i32.bit_flipped(), 7);
        let z = C64 { re: 1.0, im: 2.0 };
        assert!(z.is_sound());
        assert!(!z.poisoned().is_sound());
    }

    #[test]
    fn wire_round_trip_is_bit_exact() {
        fn rt<T: Elem>(v: T) {
            let mut buf = Vec::new();
            v.put_le(&mut buf);
            assert_eq!(buf.len(), T::WIRE_BYTES);
            assert_eq!(T::get_le(&buf), v);
        }
        rt(-7i32);
        rt(true);
        rt(false);
        rt(-0.0f32);
        rt(1.5e-39f32);
        rt(-0.0f64);
        rt(f64::MIN_POSITIVE / 8.0);
        rt(C32 { re: 0.5, im: -2.0 });
        rt(C64 {
            re: 1.0e300,
            im: -3.5,
        });
        // NaN payloads must survive byte-for-byte even though NaN != NaN.
        let mut buf = Vec::new();
        f64::from_bits(0x7FF8_0000_0000_1234).put_le(&mut buf);
        assert_eq!(f64::get_le(&buf).to_bits(), 0x7FF8_0000_0000_1234);
    }

    #[test]
    fn f64_bit_flip_is_large_and_detectable() {
        // Flipping bit 62 of a normal double changes the exponent's top
        // bit, guaranteeing a magnitude change no residual tolerance hides.
        let x = 1.5f64;
        let y = x.bit_flipped();
        assert!(y.is_nan() || y.is_infinite() || (y / x).abs() > 1e100 || (x / y).abs() > 1e100);
    }
}

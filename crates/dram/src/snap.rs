//! Binary codec for simulator snapshots.
//!
//! Checkpoints serialize component state through this little-endian,
//! length-prefixed encoder/decoder pair. The decoder is hardened against
//! untrusted bytes: every read checks the remaining length first, every
//! length prefix is capped by the bytes actually left (so corrupt input
//! can never trigger an oversized allocation), and every failure is a
//! typed [`SnapError`] — no code path panics on malformed input.
//!
//! # One declaration per field
//!
//! A type joins the format by implementing [`Snap`]. Structs do it with
//! [`snap_fields!`](crate::snap_fields), which expands one field list,
//! in encoding order, into both [`Snap::save`] and [`Snap::load`]:
//!
//! ```
//! use menda_dram::snap::{Decoder, Encoder, Snap, SnapError};
//!
//! #[derive(Debug, Default, PartialEq)]
//! struct Probe {
//!     hits: u64,
//!     queue: Vec<u32>,
//!     slots: Vec<bool>,
//!     last: Option<(u64, usize)>,
//!     /// Derived from `queue`, so never written.
//!     queued: usize,
//! }
//!
//! impl Probe {
//!     fn restored(&mut self) -> Result<(), SnapError> {
//!         if self.queue.len() > 4 {
//!             return Err(SnapError::BadValue);
//!         }
//!         self.queued = self.queue.len();
//!         Ok(())
//!     }
//! }
//!
//! menda_dram::snap_fields!(Probe { hits, queue, slots: fixed, last } after restored);
//!
//! // Two slots is this configuration's shape.
//! let fresh = || Probe { slots: vec![false; 2], ..Probe::default() };
//! let probe = Probe {
//!     hits: 3,
//!     queue: vec![7, 9],
//!     slots: vec![true, false],
//!     last: Some((5, 1)),
//!     queued: 2,
//! };
//! let mut enc = Encoder::new();
//! probe.save(&mut enc);
//! let bytes = enc.into_bytes();
//! let mut back = fresh();
//! back.load(&mut Decoder::new(&bytes)).unwrap();
//! assert_eq!(back, probe);
//! ```
//!
//! Adding state to a type is one line: name the field in its list. Each
//! entry is one of
//!
//! * `field` or `field.inner` — the value's own [`Snap`] encoding; a
//!   vector, deque or option is *free*: loading replaces it with
//!   whatever the bytes hold, within [`Decoder::len_capped`];
//! * `field: fixed` — a vector or option whose shape (length, presence)
//!   comes from the configuration, encoded the same way: loading
//!   requires the bytes to match the freshly built shape and overlays
//!   the elements in place ([`Fixed`]);
//! * `(save_x, load_x)` — a segment a pair of methods on the type writes
//!   and reads, for an encoding that is not a plain field list.
//!
//! [`Snap::load`] overlays onto a *freshly built* value of the same
//! configuration: fields that are not listed keep their fresh value.
//!
//! # The post-load hook
//!
//! `after hook` names a method `fn hook(&mut self) -> Result<(),
//! SnapError>` that runs once every listed field has loaded. It holds
//! the type's restore-side safety code: domain checks across fields
//! (bounds, sorted sequence numbers, ring indices, invariants between
//! counters), rejected as [`SnapError::BadValue`], and the rebuild of
//! every derived field from the loaded ones. Derived state is rebuilt,
//! never read from the bytes. A failed load leaves the value
//! unspecified; callers discard it.
//!
//! # Custom encodings
//!
//! These keep a short hand-written impl or segment, each with its reason
//! at the site:
//!
//! * the tagged enums `Packet`, `StreamKind`, `PimPhase`,
//!   [`ReqKind`](crate::ReqKind) and [`CommandKind`](crate::CommandKind),
//!   written as a tag byte and the variant's payload;
//! * the merge tree's packed FIFO control words, written as two `u16`
//!   arrays (heads, then occupancies);
//! * a channel's response heap, written in pop order and renumbered on
//!   restore;
//! * a prefetch chunk's block list, whose length is one byte;
//! * a job run's paused iteration, whose fresh state is built against
//!   the unit it runs on.

use std::collections::VecDeque;
use std::fmt;

/// Decoding failure over untrusted snapshot bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// A tag, flag or count held a value outside its domain.
    BadValue,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot bytes truncated"),
            SnapError::BadValue => write!(f, "snapshot field out of domain"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit hash, used for payload checksums and fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// Append-only little-endian snapshot writer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder and returns its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes an `f32` by bit pattern (bit-exact round trip).
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Writes a length prefix followed by raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }
}

/// Bounds-checked little-endian snapshot reader.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` (stored as `u64`), rejecting values that do not fit.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::BadValue)
    }

    /// Reads a bool; any byte other than 0/1 is rejected.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::BadValue),
        }
    }

    /// Reads an `f32` by bit pattern.
    pub fn f32(&mut self) -> Result<f32, SnapError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a length-prefixed byte slice (borrowed from the input).
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.len_capped(1)?;
        self.take(n)
    }

    /// Reads a sequence length whose elements occupy at least
    /// `min_elem_bytes` each, rejecting prefixes the remaining input could
    /// not possibly satisfy — the allocation cap that keeps corrupt
    /// snapshots from requesting absurd reservations.
    pub fn len_capped(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let n = self.usize()?;
        if n.checked_mul(min_elem_bytes.max(1))
            .is_none_or(|total| total > self.remaining())
        {
            return Err(SnapError::Truncated);
        }
        Ok(n)
    }
}

/// A value with a snapshot encoding.
///
/// Implement it with [`snap_fields!`](crate::snap_fields) for structs;
/// see the [module docs](self) for the field syntax and the post-load
/// hook.
pub trait Snap {
    /// The fewest bytes one encoded value occupies. Sequences of this type
    /// cap their length prefix with it ([`Decoder::len_capped`]).
    const MIN_BYTES: usize;

    /// Appends the encoding of `self`.
    fn save(&self, enc: &mut Encoder);

    /// Overlays an encoding onto `self`, a freshly built value of the same
    /// configuration.
    ///
    /// # Errors
    ///
    /// A [`SnapError`] on truncated or out-of-domain bytes; `self` is then
    /// unspecified and must be discarded.
    fn load(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError>;
}

/// A vector or option whose shape — length, presence — comes from the
/// configuration rather than from the bytes (the `field: fixed` entries of
/// [`snap_fields!`](crate::snap_fields)).
///
/// The encoding is the type's [`Snap`] encoding. Loading rejects bytes of
/// another shape as [`SnapError::BadValue`] and overlays the elements onto
/// the fresh ones in place, so element types need no `Default`.
pub trait Fixed {
    /// The fewest bytes one encoded value occupies.
    const MIN_BYTES: usize;

    /// Appends the encoding of `self`.
    fn save_fixed(&self, enc: &mut Encoder);

    /// Overlays an encoding of the same shape onto `self`.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadValue`] on a shape mismatch, or any error of the
    /// elements' [`Snap::load`].
    fn load_fixed(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError>;
}

/// [`Snap::MIN_BYTES`] of the field `field` selects (a const-evaluable way
/// for [`snap_fields!`](crate::snap_fields) to name a field's type).
#[doc(hidden)]
pub const fn min_bytes_of<S, T: Snap + ?Sized>(_field: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

/// [`Fixed::MIN_BYTES`] of the field `field` selects.
#[doc(hidden)]
pub const fn fixed_min_bytes_of<S, T: Fixed>(_field: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

macro_rules! primitive {
    ($($t:ty => $method:ident, $bytes:expr;)*) => {$(
        impl Snap for $t {
            const MIN_BYTES: usize = $bytes;

            fn save(&self, enc: &mut Encoder) {
                enc.$method(*self);
            }

            fn load(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError> {
                *self = dec.$method()?;
                Ok(())
            }
        }
    )*};
}

primitive! {
    u8 => u8, 1;
    u16 => u16, 2;
    u32 => u32, 4;
    u64 => u64, 8;
    usize => usize, 8;
    bool => bool, 1;
    f32 => f32, 4;
}

/// Low half first, then high half.
impl Snap for u128 {
    const MIN_BYTES: usize = 16;

    fn save(&self, enc: &mut Encoder) {
        enc.u64(*self as u64);
        enc.u64((*self >> 64) as u64);
    }

    fn load(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError> {
        let lo = dec.u64()?;
        *self = (lo as u128) | ((dec.u64()? as u128) << 64);
        Ok(())
    }
}

macro_rules! tuple {
    ($($name:ident . $idx:tt),+) => {
        impl<$($name: Snap),+> Snap for ($($name,)+) {
            const MIN_BYTES: usize = 0 $(+ $name::MIN_BYTES)+;

            fn save(&self, enc: &mut Encoder) {
                $(self.$idx.save(enc);)+
            }

            fn load(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError> {
                $(self.$idx.load(dec)?;)+
                Ok(())
            }
        }
    };
}

tuple!(A.0, B.1);
tuple!(A.0, B.1, C.2);

/// No length prefix: the length is part of the type.
impl<T: Snap, const N: usize> Snap for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;

    fn save(&self, enc: &mut Encoder) {
        self.iter().for_each(|x| x.save(enc));
    }

    fn load(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError> {
        self.iter_mut().try_for_each(|x| x.load(dec))
    }
}

/// Decodes one value overlaid onto `T::default()`.
fn load_fresh<T: Snap + Default>(dec: &mut Decoder<'_>) -> Result<T, SnapError> {
    let mut v = T::default();
    v.load(dec)?;
    Ok(v)
}

/// A length prefix, then the elements. The length is the slice's shape:
/// loading requires the prefix to equal it and overlays in place.
impl<T: Snap> Snap for [T] {
    const MIN_BYTES: usize = 8;

    fn save(&self, enc: &mut Encoder) {
        enc.usize(self.len());
        self.iter().for_each(|x| x.save(enc));
    }

    fn load(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError> {
        if dec.len_capped(T::MIN_BYTES)? != self.len() {
            return Err(SnapError::BadValue);
        }
        self.iter_mut().try_for_each(|x| x.load(dec))
    }
}

/// Encoded like a slice.
impl<T: Snap + Default> Snap for Vec<T> {
    const MIN_BYTES: usize = 8;

    fn save(&self, enc: &mut Encoder) {
        self[..].save(enc);
    }

    /// Replaces the contents, keeping the allocation.
    fn load(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError> {
        let n = dec.len_capped(T::MIN_BYTES)?;
        self.clear();
        self.reserve(n);
        for _ in 0..n {
            self.push(load_fresh(dec)?);
        }
        Ok(())
    }
}

/// Encoded like a `Vec`, front to back.
impl<T: Snap + Default> Snap for VecDeque<T> {
    const MIN_BYTES: usize = 8;

    fn save(&self, enc: &mut Encoder) {
        enc.usize(self.len());
        self.iter().for_each(|x| x.save(enc));
    }

    /// Replaces the contents, keeping the allocation.
    fn load(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError> {
        let n = dec.len_capped(T::MIN_BYTES)?;
        self.clear();
        self.reserve(n);
        for _ in 0..n {
            self.push_back(load_fresh(dec)?);
        }
        Ok(())
    }
}

/// A presence byte, then the value.
impl<T: Snap + Default> Snap for Option<T> {
    const MIN_BYTES: usize = 1;

    fn save(&self, enc: &mut Encoder) {
        save_option(self.as_ref(), enc);
    }

    fn load(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError> {
        *self = load_option(dec, T::default)?;
        Ok(())
    }
}

/// Writes an option the way `Option<T>`'s [`Snap`] impl does, for a `T`
/// whose fresh value needs more than `Default`.
pub fn save_option<T: Snap>(v: Option<&T>, enc: &mut Encoder) {
    enc.bool(v.is_some());
    if let Some(v) = v {
        v.save(enc);
    }
}

/// Reads an option written by [`save_option`], overlaying a present value
/// onto `fresh()`.
///
/// # Errors
///
/// A [`SnapError`] on a bad presence byte or from the value's
/// [`Snap::load`].
pub fn load_option<T: Snap>(
    dec: &mut Decoder<'_>,
    fresh: impl FnOnce() -> T,
) -> Result<Option<T>, SnapError> {
    if !dec.bool()? {
        return Ok(None);
    }
    let mut v = fresh();
    v.load(dec)?;
    Ok(Some(v))
}

/// Through the slice's own, fixed-length [`Snap`] impl.
impl<T: Snap> Fixed for Vec<T> {
    const MIN_BYTES: usize = 8;

    fn save_fixed(&self, enc: &mut Encoder) {
        self[..].save(enc);
    }

    fn load_fixed(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError> {
        self[..].load(dec)
    }
}

impl<T: Snap> Fixed for Option<T> {
    const MIN_BYTES: usize = 1;

    fn save_fixed(&self, enc: &mut Encoder) {
        save_option(self.as_ref(), enc);
    }

    fn load_fixed(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError> {
        if dec.bool()? != self.is_some() {
            return Err(SnapError::BadValue);
        }
        self.iter_mut().try_for_each(|v| v.load(dec))
    }
}

/// Implements [`Snap`](crate::snap::Snap) for a struct from one list of
/// its serialized fields, in encoding order, with an optional post-load
/// hook: `snap_fields!(Type { a, b.c, d: fixed, (save_e, load_e) } after
/// hook)`. See the [`snap`](crate::snap) module docs for the entry forms
/// and the hook's contract. Invoke it in the module that defines `Type`.
#[macro_export]
macro_rules! snap_fields {
    (@min ($save:ident, $load:ident)) => { 0 };
    (@min $f:ident $(. $sub:ident)*) => {
        $crate::snap::min_bytes_of(|s: &Self| &s.$f $(. $sub)*)
    };
    (@min $f:ident $(. $sub:ident)* : fixed) => {
        $crate::snap::fixed_min_bytes_of(|s: &Self| &s.$f $(. $sub)*)
    };
    (@save $s:ident $e:ident ($save:ident, $load:ident)) => { $s.$save($e) };
    (@save $s:ident $e:ident $f:ident $(. $sub:ident)*) => {
        $crate::snap::Snap::save(&$s.$f $(. $sub)*, $e)
    };
    (@save $s:ident $e:ident $f:ident $(. $sub:ident)* : fixed) => {
        $crate::snap::Fixed::save_fixed(&$s.$f $(. $sub)*, $e)
    };
    (@load $s:ident $d:ident ($save:ident, $load:ident)) => { $s.$load($d)? };
    (@load $s:ident $d:ident $f:ident $(. $sub:ident)*) => {
        $crate::snap::Snap::load(&mut $s.$f $(. $sub)*, $d)?
    };
    (@load $s:ident $d:ident $f:ident $(. $sub:ident)* : fixed) => {
        $crate::snap::Fixed::load_fixed(&mut $s.$f $(. $sub)*, $d)?
    };
    ($ty:ty { $($head:tt $(. $sub:ident)* $(: $mode:ident)?),* $(,)? } $(after $hook:ident)?) => {
        impl $crate::snap::Snap for $ty {
            const MIN_BYTES: usize =
                0 $(+ $crate::snap_fields!(@min $head $(. $sub)* $(: $mode)?))*;

            fn save(&self, enc: &mut $crate::snap::Encoder) {
                $($crate::snap_fields!(@save self enc $head $(. $sub)* $(: $mode)?);)*
            }

            fn load(
                &mut self,
                dec: &mut $crate::snap::Decoder<'_>,
            ) -> Result<(), $crate::snap::SnapError> {
                $($crate::snap_fields!(@load self dec $head $(. $sub)* $(: $mode)?);)*
                $(self.$hook()?;)?
                Ok(())
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Snap + Default>(v: &T) -> T {
        let mut e = Encoder::new();
        v.save(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back = load_fresh(&mut d).unwrap();
        assert!(d.is_empty());
        back
    }

    #[test]
    fn round_trips_scalars() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u16(65535);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.usize(123);
        e.bool(true);
        e.bool(false);
        e.f32(-0.0);
        e.f32(f32::NAN);
        Some(9u64).save(&mut e);
        None::<u64>.save(&mut e);
        e.bytes(b"hi");
        vec![1u64, 2, 3].save(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 65535);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.usize().unwrap(), 123);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert!(d.f32().unwrap().is_nan());
        assert_eq!(load_fresh::<Option<u64>>(&mut d).unwrap(), Some(9));
        assert_eq!(load_fresh::<Option<u64>>(&mut d).unwrap(), None);
        assert_eq!(d.bytes().unwrap(), b"hi");
        assert_eq!(load_fresh::<Vec<u64>>(&mut d).unwrap(), vec![1, 2, 3]);
        assert!(d.is_empty());
    }

    #[test]
    fn containers_round_trip_with_their_encodings() {
        let wide = (1u128 << 100) | 5;
        assert_eq!(round_trip(&wide), wide);
        let deque: VecDeque<(u32, bool)> = [(1, true), (2, false)].into();
        assert_eq!(round_trip(&deque), deque);
        let array = [(3u64, 4usize); 3];
        assert_eq!(round_trip(&array), array);
        // The u128 halves and the fixed array's missing prefix.
        let mut e = Encoder::new();
        wide.save(&mut e);
        [1u8, 2].save(&mut e);
        assert_eq!(e.as_bytes()[..8], 5u64.to_le_bytes());
        assert_eq!(e.as_bytes()[8..16], (1u64 << 36).to_le_bytes());
        assert_eq!(e.as_bytes()[16..], [1, 2]);
    }

    #[test]
    fn fixed_shapes_reject_other_shapes() {
        let mut e = Encoder::new();
        vec![1u64, 2].save_fixed(&mut e);
        Some(4u16).save_fixed(&mut e);
        let bytes = e.into_bytes();
        let mut v = vec![0u64; 2];
        let mut o = Some(0u16);
        let mut d = Decoder::new(&bytes);
        v.load_fixed(&mut d).unwrap();
        o.load_fixed(&mut d).unwrap();
        assert_eq!((v, o), (vec![1, 2], Some(4)));
        let mut d = Decoder::new(&bytes);
        assert_eq!(vec![0u64; 3].load_fixed(&mut d), Err(SnapError::BadValue));
        let mut d = Decoder::new(&bytes[24..]);
        assert_eq!(None::<u16>.load_fixed(&mut d), Err(SnapError::BadValue));
    }

    #[test]
    fn truncation_is_typed_not_panicking() {
        let mut e = Encoder::new();
        vec![1u64, 2, 3, 4].save(&mut e);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            assert_eq!(
                load_fresh::<Vec<u64>>(&mut d).unwrap_err(),
                SnapError::Truncated,
                "cut={cut}"
            );
        }
    }

    #[test]
    fn absurd_length_prefix_is_rejected_before_allocation() {
        let mut e = Encoder::new();
        e.u64(u64::MAX); // claims ~2^64 elements
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(load_fresh::<Vec<u64>>(&mut d).is_err());
        let mut d = Decoder::new(&bytes);
        assert!(d.bytes().is_err());
    }

    #[test]
    fn bad_bool_is_rejected() {
        let mut d = Decoder::new(&[2]);
        assert_eq!(d.bool().unwrap_err(), SnapError::BadValue);
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}

//! The layout language: fixed little-endian binary layouts for every value
//! that leaves the process, on the wire (`dbtouch-net`'s frames) and on disk
//! (`dbtouch-storage`'s manifest).
//!
//! Each layout is declared once, next to its type — a struct's fields in
//! layout order ([`wire_struct!`](crate::wire_struct)), a tagged enum's tag
//! bytes and variant fields ([`wire_enum!`](crate::wire_enum)), or, where
//! those cannot express it, one hand-written [`Wire`] impl with the encoder
//! beside the decoder — and both directions follow that one declaration, so
//! encode and decode cannot disagree.
//!
//! Floats travel as their IEEE 754 bit patterns: a decoded value digests
//! bit-identically to the value it was encoded from, NaN payloads and signed
//! zeros included.
//!
//! The decoder is *total*: any byte sequence either decodes or returns a
//! [`DbTouchError::ParseError`], never a panic. Every read checks the
//! remaining length first; a sequence count is checked against the smallest
//! encoding its element layout allows, and a sequence preallocates no more
//! than the remaining bytes could hold, so a forged `u32::MAX` count
//! allocates nothing; and sequences and boxes nest only so deep, so a forged
//! recursive value cannot recurse the decoder off its stack.

use std::collections::BTreeMap;
use std::mem::size_of;

use crate::{DataType, DbTouchError, PointCm, Result, RowId, Timestamp, Value};

/// How deep `Vec`s and `Box`es may nest in one payload. Every recursive
/// layout recurses through one of them, so this bounds the decoder's
/// recursion whatever the bytes say.
pub const MAX_NESTING: usize = 64;

fn bad(msg: impl Into<String>) -> DbTouchError {
    DbTouchError::ParseError(msg.into())
}

#[cold]
fn truncated(need: usize, have: usize) -> DbTouchError {
    bad(format!("truncated payload: need {need} bytes, have {have}"))
}

// ---------------------------------------------------------------------------
// The layout trait, its writer and reader
// ---------------------------------------------------------------------------

/// A binary layout: `put` appends a value, `get` reads one back, and
/// `MIN_BYTES` is the fewest bytes any value of the type encodes to — the
/// bound a sequence count is checked against.
pub trait Wire: Sized {
    /// The size of the smallest encoding of any value of the type.
    const MIN_BYTES: usize;
    /// Append `self`.
    fn put(&self, w: &mut WireWriter);
    /// Read one value.
    fn get(r: &mut WireReader<'_>) -> Result<Self>;
}

/// Append-only little-endian byte writer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Length prefix of a following sequence.
    #[inline]
    pub fn count(&mut self, n: usize) {
        (n as u32).put(self);
    }

    /// A length-prefixed sequence.
    #[inline]
    pub fn seq<T: Wire>(&mut self, items: &[T]) {
        self.count(items.len());
        for item in items {
            item.put(self);
        }
    }
}

/// Bounds-checked little-endian byte reader.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> WireReader<'a> {
    fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(truncated(n, self.remaining()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next value of layout `T`.
    #[inline]
    pub fn get<T: Wire>(&mut self) -> Result<T> {
        T::get(self)
    }

    /// Length prefix of a sequence of `T`, validated against the bytes
    /// actually remaining: each element needs at least `T::MIN_BYTES`, so a
    /// forged count fails here, before anything is allocated for it.
    #[inline]
    pub fn count<T: Wire>(&mut self) -> Result<usize> {
        let n = self.get::<u32>()? as usize;
        if n.saturating_mul(T::MIN_BYTES.max(1)) > self.remaining() {
            return Err(bad(format!(
                "sequence of {n} elements does not fit in {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Run `f` one nesting level deeper, refusing past [`MAX_NESTING`].
    #[inline]
    pub fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return Err(bad("nesting exceeds maximum depth"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }
}

/// Encode one value into a fresh buffer.
pub fn encode<T: Wire>(v: &T) -> Vec<u8> {
    let mut w = WireWriter::default();
    v.put(&mut w);
    w.buf
}

/// Decode one value that must span all of `bytes`: trailing bytes are an
/// error, not something a lenient decoder silently drops.
pub fn decode<T: Wire>(bytes: &[u8]) -> Result<T> {
    let mut r = WireReader::new(bytes);
    let v = r.get()?;
    match r.remaining() {
        0 => Ok(v),
        n => Err(bad(format!("{n} trailing bytes after payload"))),
    }
}

// ---------------------------------------------------------------------------
// Primitives and generic containers
// ---------------------------------------------------------------------------

/// Fixed-width little-endian. Floats go through `to_le_bytes`, which is
/// their exact bit pattern: NaN payloads and signed zeros survive.
macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = size_of::<$t>();
            #[inline]
            fn put(&self, w: &mut WireWriter) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut WireReader<'_>) -> Result<Self> {
                let bytes = r.take(size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("take returns exactly n bytes")))
            }
        }
    )*};
}

wire_le!(u8, u16, u32, u64, i64, i128, f64);

impl Wire for bool {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, w: &mut WireWriter) {
        (*self as u8).put(w);
    }
    #[inline]
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        match r.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(bad(format!("invalid bool byte {other}"))),
        }
    }
}

/// As a `u64`, whatever the platform's width.
impl Wire for usize {
    const MIN_BYTES: usize = u64::MIN_BYTES;
    #[inline]
    fn put(&self, w: &mut WireWriter) {
        (*self as u64).put(w);
    }
    #[inline]
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(r.get::<u64>()? as usize)
    }
}

/// Length-prefixed UTF-8.
impl Wire for String {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    #[inline]
    fn put(&self, w: &mut WireWriter) {
        w.count(self.len());
        w.buf.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let n = r.count::<u8>()?;
        String::from_utf8(r.take(n)?.to_vec()).map_err(|_| bad("invalid UTF-8 in string"))
    }
}

/// Presence flag, then the value.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = bool::MIN_BYTES;
    fn put(&self, w: &mut WireWriter) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(if r.get::<bool>()? {
            Some(r.get()?)
        } else {
            None
        })
    }
}

/// Count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn put(&self, w: &mut WireWriter) {
        w.seq(self);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        r.nested(|r| {
            let n = r.count::<T>()?;
            // An element may take far more memory than its wire minimum:
            // reserve no more than the remaining bytes could hold, and grow
            // past that only as real elements arrive.
            let mut items = Vec::with_capacity(n.min(r.remaining() / size_of::<T>().max(1)));
            for _ in 0..n {
                items.push(r.get()?);
            }
            Ok(items)
        })
    }
}

/// The boxed value. `MIN_BYTES` is 0: a boxed layout may be recursive, and a
/// recursive layout's minimum cannot be summed from itself.
impl<T: Wire> Wire for Box<T> {
    const MIN_BYTES: usize = 0;
    fn put(&self, w: &mut WireWriter) {
        (**self).put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        r.nested(|r| r.get().map(Box::new))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, w: &mut WireWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok((r.get()?, r.get()?))
    }
}

/// Count, then the key-value pairs in key order.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn put(&self, w: &mut WireWriter) {
        w.count(self.len());
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        r.nested(|r| (0..r.count::<(K, V)>()?).map(|_| r.get()).collect())
    }
}

// ---------------------------------------------------------------------------
// The layout macros
// ---------------------------------------------------------------------------

/// The smallest of `sizes`: a tagged enum's smallest variant.
#[doc(hidden)]
pub const fn min_of(sizes: &[usize]) -> usize {
    let mut min = usize::MAX;
    let mut i = 0;
    while i < sizes.len() {
        if sizes[i] < min {
            min = sizes[i];
        }
        i += 1;
    }
    min
}

/// A struct's layout: `Name { field: Type, .. }`, the fields in layout order
/// (a tuple struct's fields are `0`, `1`, …). `get` builds a struct literal,
/// so a field the type has and the layout lacks does not compile. Both macros
/// mark `put`/`get` `#[inline]`: a report nests a dozen layouts per result,
/// and a call across codegen units at each level made decoding ~30 % slower.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:tt: $fty:ty),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty as $crate::wire::Wire>::MIN_BYTES)*;
            #[inline]
            fn put(&self, w: &mut $crate::wire::WireWriter) {
                $(<$fty as $crate::wire::Wire>::put(&self.$field, w);)*
            }
            #[inline]
            fn get(r: &mut $crate::wire::WireReader<'_>) -> $crate::Result<Self> {
                Ok($ty { $($field: r.get::<$fty>()?),* })
            }
        }
    };
}

/// A tagged enum's layout: one tag byte, then the variant's fields. Each
/// variant is `tag => Name`, `tag => Name(field: Type, ..)` (a tuple variant,
/// its fields named for the layout only) or `tag => Name { field: Type, .. }`.
/// The `pub enum` form also declares the enum itself, attributes and docs
/// included, and its `name()`.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$m:meta])*
        pub enum $ty:ident {
            $(
                $(#[$vm:meta])*
                $tag:path => $v:ident $(($($b:ident: $t:ty),*))?
                $({ $($(#[$fm:meta])* $f:ident: $ft:ty),* $(,)? })?
            ),* $(,)?
        }
    ) => {
        $(#[$m])*
        pub enum $ty {
            $($(#[$vm])* $v $(($($t),*))? $({ $($(#[$fm])* $f: $ft),* })?),*
        }

        impl $ty {
            /// The variant's name, for error messages.
            pub(crate) fn name(&self) -> &'static str {
                match self {
                    $($ty::$v { .. } => stringify!($v)),*
                }
            }
        }

        $crate::wire_enum!($ty { $($tag => $v $(($($b: $t),*))? $({ $($f: $ft),* })?),* });
    };
    ($ty:ident {
        $(
            $tag:expr => $v:ident $(($($b:ident: $t:ty),*))?
            $({ $($f:ident: $ft:ty),* $(,)? })?
        ),* $(,)?
    }) => {
        impl $crate::wire::Wire for $ty {
            const MIN_BYTES: usize = 1 + $crate::wire::min_of(&[$(
                0 $($(+ <$t as $crate::wire::Wire>::MIN_BYTES)*)?
                $($(+ <$ft as $crate::wire::Wire>::MIN_BYTES)*)?
            ),*]);
            #[inline]
            fn put(&self, w: &mut $crate::wire::WireWriter) {
                match self {
                    $($ty::$v $(($($b),*))? $({ $($f),* })? => {
                        <u8 as $crate::wire::Wire>::put(&$tag, w);
                        $($(<$t as $crate::wire::Wire>::put($b, w);)*)?
                        $($(<$ft as $crate::wire::Wire>::put($f, w);)*)?
                    })*
                }
            }
            #[inline]
            fn get(r: &mut $crate::wire::WireReader<'_>) -> $crate::Result<Self> {
                let found = r.get::<u8>()?;
                $(if found == $tag {
                    return Ok($ty::$v $(($(r.get::<$t>()?),*))? $({ $($f: r.get::<$ft>()?),* })?);
                })*
                Err($crate::DbTouchError::ParseError(format!(
                    "invalid {} tag 0x{found:02x}",
                    stringify!($ty)
                )))
            }
        }
    };
}

// ---------------------------------------------------------------------------
// This crate's layouts
// ---------------------------------------------------------------------------

crate::wire_struct!(Timestamp { 0: u64 });
crate::wire_struct!(RowId { 0: u64 });
crate::wire_struct!(PointCm { x: f64, y: f64 });

crate::wire_enum!(Value {
    0 => Int(v: i64),
    1 => Float(v: f64),
    2 => Bool(v: bool),
    3 => Str(v: String),
    4 => Timestamp(v: i64),
});

crate::wire_enum!(DataType {
    0 => Int64,
    1 => Float64,
    2 => Bool,
    3 => FixedStr(width: u16),
    4 => TimestampMillis,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire>(v: &T) -> T {
        decode(&encode(v)).unwrap()
    }

    #[test]
    fn value_roundtrip_preserves_float_bits() {
        for v in [
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Float(f64::INFINITY),
            Value::Int(i64::MIN),
            Value::Timestamp(-1),
            Value::Str("αβγ".into()),
        ] {
            let back = roundtrip(&v);
            if let (Value::Float(a), Value::Float(b)) = (&v, &back) {
                assert_eq!(a.to_bits(), b.to_bits());
            } else {
                assert_eq!(v, back);
            }
        }
    }

    #[test]
    fn wide_integers_and_data_types_roundtrip() {
        for v in [i128::MIN, -1, 0, i128::MAX] {
            assert_eq!(roundtrip(&v), v);
        }
        for dt in [
            DataType::Int64,
            DataType::Float64,
            DataType::Bool,
            DataType::FixedStr(u16::MAX),
            DataType::TimestampMillis,
        ] {
            assert_eq!(roundtrip(&dt), dt);
        }
    }

    /// `MIN_BYTES` is what the smallest value of each layout actually
    /// encodes to: no sequence guard rejects a valid payload.
    #[test]
    fn min_bytes_is_the_smallest_encoding() {
        fn smallest<T: Wire>(v: T) {
            assert_eq!(
                encode(&v).len(),
                T::MIN_BYTES,
                "{}",
                std::any::type_name::<T>()
            );
        }
        smallest(Value::Bool(false));
        smallest(DataType::Int64);
        smallest(String::new());
        smallest(None::<u64>);
        smallest(Vec::<u64>::new());
        smallest(0i128);
    }
}

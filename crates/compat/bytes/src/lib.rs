//! Offline stand-in for the `bytes` crate.
//!
//! Provides cheaply-cloneable immutable byte buffers ([`Bytes`]), a growable
//! builder ([`BytesMut`]), and the [`Buf`]/[`BufMut`] trait subset the `cmpi`
//! wire format relies on. `Bytes` clones share one allocation via `Arc` and
//! track a `[start, end)` window, so `clone`/`split_to` are O(1) like the
//! real crate.

#![forbid(unsafe_code)]

use std::sync::Arc;

/// A cheaply cloneable, contiguous slice of immutable bytes.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes {
            data: Arc::new(Vec::new()),
            start: 0,
            end: 0,
        }
    }

    /// Wraps a static slice (copied; the real crate borrows, but callers
    /// only rely on value semantics).
    pub fn from_static(slice: &'static [u8]) -> Self {
        Bytes::copy_from_slice(slice)
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(slice: &[u8]) -> Self {
        let v = slice.to_vec();
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }

    /// Number of readable bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether no bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The readable window as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Copies the readable window into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Splits off and returns the first `at` bytes, advancing `self`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of range");
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    fn take_array<const N: usize>(&mut self) -> [u8; N] {
        assert!(self.len() >= N, "buffer underflow");
        let mut out = [0u8; N];
        out.copy_from_slice(&self.data[self.start..self.start + N]);
        self.start += N;
        out
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:?})", self.as_slice())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

/// Read cursor over a byte buffer.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Whether any bytes are left.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
}

macro_rules! impl_get {
    ($($name:ident -> $t:ty [ $n:expr, $conv:ident ]),+ $(,)?) => {
        impl Bytes {
            $(
                /// Reads one scalar from the front, advancing the cursor.
                pub fn $name(&mut self) -> $t {
                    <$t>::$conv(self.take_array::<$n>())
                }
            )+
        }
    };
}

impl_get! {
    get_u16_le -> u16 [2, from_le_bytes],
    get_u32_le -> u32 [4, from_le_bytes],
    get_u64_le -> u64 [8, from_le_bytes],
    get_i16_le -> i16 [2, from_le_bytes],
    get_i32_le -> i32 [4, from_le_bytes],
    get_i64_le -> i64 [8, from_le_bytes],
    get_f32_le -> f32 [4, from_le_bytes],
    get_f64_le -> f64 [8, from_le_bytes],
}

impl Bytes {
    /// Reads one byte, advancing the cursor.
    pub fn get_u8(&mut self) -> u8 {
        self.take_array::<1>()[0]
    }

    /// Reads one signed byte, advancing the cursor.
    pub fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }
}

/// Write cursor that appends to a byte buffer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, slice: &[u8]);
}

/// A growable byte buffer; freeze into [`Bytes`] when done writing.
#[derive(Clone, Debug, Default)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, slice: &[u8]) {
        self.data.extend_from_slice(slice);
    }
}

macro_rules! impl_put {
    ($($name:ident ( $t:ty )),+ $(,)?) => {
        impl BytesMut {
            $(
                /// Appends one scalar in little-endian byte order.
                pub fn $name(&mut self, v: $t) {
                    self.data.extend_from_slice(&v.to_le_bytes());
                }
            )+
        }
    };
}

impl_put! {
    put_u16_le(u16),
    put_u32_le(u32),
    put_u64_le(u64),
    put_i16_le(i16),
    put_i32_le(i32),
    put_i64_le(i64),
    put_f32_le(f32),
    put_f64_le(f64),
}

impl BytesMut {
    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    /// Appends one signed byte.
    pub fn put_i8(&mut self, v: i8) {
        self.data.push(v as u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut b = BytesMut::new();
        b.put_u8(7);
        b.put_u32_le(0xDEAD_BEEF);
        b.put_f64_le(2.5);
        let mut r = b.freeze();
        assert_eq!(r.remaining(), 13);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_f64_le(), 2.5);
        assert!(!r.has_remaining());
    }

    #[test]
    fn split_to_advances() {
        let mut b = Bytes::copy_from_slice(&[1, 2, 3, 4]);
        let head = b.split_to(3);
        assert_eq!(head.as_slice(), &[1, 2, 3]);
        assert_eq!(b.as_slice(), &[4]);
    }

    #[test]
    fn clones_share_data_cheaply() {
        let b = Bytes::copy_from_slice(&[9; 1024]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(c.len(), 1024);
    }
}

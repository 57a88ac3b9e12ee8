//! Marshaling: the wire format the stub compiler generates code for.
//!
//! Hand-rolled (no serde) so that byte counts — and therefore marshaling
//! and copy *costs* — are explicit and chargeable, mirroring the paper's
//! stub compiler, which emits marshaling code per remote procedure (§3.2).
//!
//! Encoding: little-endian fixed-width integers and floats; `Vec`/`String`
//! are a `u32` length followed by elements; `Option` is a presence byte.
//!
//! Encoders write into a [`WireWriter`]: an inline-first sink that keeps
//! payloads up to [`SHORT_PAYLOAD_MAX`] bytes on the stack (they become
//! allocation-free inline packet payloads) and spills larger ones into a
//! buffer leased from the sending node's [`BufPool`], so even bulk
//! marshaling recycles storage instead of allocating per message.

use core::fmt;

use oam_net::{BufPool, PayloadBuf, SHORT_PAYLOAD_MAX};

/// Marshaling/unmarshaling failure: the payload did not match the expected
/// shape. In this simulation that is always a programming error (there is
/// no packet corruption), so stubs `expect` on it; the type exists so the
/// trait is honest about fallibility.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was being decoded.
    pub what: &'static str,
    /// Byte offset at which decoding failed.
    pub at: usize,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode of {} failed at byte {}", self.what, self.at)
    }
}

impl std::error::Error for WireError {}

/// Cursor over a received payload.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Current offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError { what, at: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// Marshaling sink. Encodes accumulate in a stack buffer while they fit a
/// short packet ([`SHORT_PAYLOAD_MAX`] bytes); the first write past that
/// spills everything into a heap buffer — leased from a [`BufPool`] when
/// one was attached, so bulk marshaling reuses recycled storage.
pub struct WireWriter {
    inline: [u8; SHORT_PAYLOAD_MAX],
    /// Bytes used in `inline`; meaningless once `spill` is `Some`.
    inline_len: usize,
    spill: Option<Vec<u8>>,
    pool: Option<BufPool>,
}

impl WireWriter {
    /// A writer with no pool: spilled buffers come from (and return to) the
    /// global allocator.
    pub fn new() -> Self {
        WireWriter { inline: [0u8; SHORT_PAYLOAD_MAX], inline_len: 0, spill: None, pool: None }
    }

    /// A writer that leases its spill buffer from `pool`; the resulting
    /// payload returns the storage on last drop.
    pub fn pooled(pool: BufPool) -> Self {
        WireWriter {
            inline: [0u8; SHORT_PAYLOAD_MAX],
            inline_len: 0,
            spill: None,
            pool: Some(pool),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        match &self.spill {
            Some(v) => v.len(),
            None => self.inline_len,
        }
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one byte.
    #[inline]
    pub fn push(&mut self, b: u8) {
        if let Some(v) = &mut self.spill {
            v.push(b);
        } else if self.inline_len < SHORT_PAYLOAD_MAX {
            self.inline[self.inline_len] = b;
            self.inline_len += 1;
        } else {
            self.spill_then(&[b]);
        }
    }

    /// Append raw bytes.
    #[inline]
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        if let Some(v) = &mut self.spill {
            v.extend_from_slice(src);
        } else if self.inline_len + src.len() <= SHORT_PAYLOAD_MAX {
            self.inline[self.inline_len..self.inline_len + src.len()].copy_from_slice(src);
            self.inline_len += src.len();
        } else {
            self.spill_then(src);
        }
    }

    /// Move the inline bytes to a heap buffer and append `src` (cold path:
    /// runs at most once per writer).
    fn spill_then(&mut self, src: &[u8]) {
        let cap = (self.inline_len + src.len()).max(64);
        let mut v = match &self.pool {
            Some(p) => p.lease(cap),
            None => Vec::with_capacity(cap),
        };
        v.extend_from_slice(&self.inline[..self.inline_len]);
        v.extend_from_slice(src);
        self.spill = Some(v);
    }

    /// Finish into a payload: inline (allocation-free) when the bytes fit a
    /// short packet, otherwise the spilled — possibly pool-leased — buffer.
    pub fn finish(self) -> PayloadBuf {
        match self.spill {
            Some(v) => match self.pool {
                Some(p) => p.wrap(v),
                None => PayloadBuf::heap(v),
            },
            None => PayloadBuf::inline(&self.inline[..self.inline_len]),
        }
    }

    /// Finish into a plain byte vector (for callers that need owned bytes;
    /// a pool-leased spill buffer is detached from its pool).
    pub fn into_vec(self) -> Vec<u8> {
        match self.spill {
            Some(v) => v,
            None => self.inline[..self.inline_len].to_vec(),
        }
    }
}

impl Default for WireWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Types that can cross the simulated wire.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut WireWriter);
    /// Decode one value.
    fn decode(rd: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Append the encodings of `vs` back to back (no length prefix).
    /// Fixed-width numbers override this to copy the whole run at once;
    /// the bytes are the same as encoding each value in turn.
    fn encode_slice(vs: &[Self], out: &mut WireWriter) {
        for v in vs {
            v.encode(out);
        }
    }

    /// Decode `n` values written by [`Wire::encode_slice`]. Fails without
    /// reserving more than the payload could hold when it is too short.
    fn decode_n(n: usize, rd: &mut WireReader<'_>) -> Result<Vec<Self>, WireError> {
        let mut v = Vec::with_capacity(n.min(rd.remaining()));
        for _ in 0..n {
            v.push(Self::decode(rd)?);
        }
        Ok(v)
    }
}

/// Encode a value into a fresh buffer.
pub fn to_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut out = WireWriter::new();
    v.encode(&mut out);
    out.into_vec()
}

/// Encode a value into a payload, leasing heap storage (if any is needed)
/// from `pool`.
pub fn to_payload<T: Wire>(v: &T, pool: &BufPool) -> PayloadBuf {
    let mut out = WireWriter::pooled(pool.clone());
    v.encode(&mut out);
    out.finish()
}

/// Decode a value that must consume the whole buffer.
pub fn from_bytes<T: Wire>(buf: &[u8]) -> Result<T, WireError> {
    let mut rd = WireReader::new(buf);
    let v = T::decode(&mut rd)?;
    if rd.remaining() != 0 {
        return Err(WireError { what: "trailing bytes", at: rd.position() });
    }
    Ok(v)
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut WireWriter) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(rd: &mut WireReader<'_>) -> Result<Self, WireError> {
                let n = core::mem::size_of::<$t>();
                let b = rd.take(n, stringify!($t))?;
                let mut a = [0u8; core::mem::size_of::<$t>()];
                a.copy_from_slice(b);
                Ok(<$t>::from_le_bytes(a))
            }
            // A run is one copy: on a little-endian target the values'
            // memory is already their wire encoding.
            #[cfg(target_endian = "little")]
            fn encode_slice(vs: &[Self], out: &mut WireWriter) {
                // SAFETY: a plain number has no padding and no invalid
                // bytes, so its slice is readable as `size_of_val` bytes.
                let bytes = unsafe {
                    core::slice::from_raw_parts(vs.as_ptr().cast::<u8>(), size_of_val(vs))
                };
                out.extend_from_slice(bytes);
            }
            fn decode_n(n: usize, rd: &mut WireReader<'_>) -> Result<Vec<Self>, WireError> {
                const W: usize = core::mem::size_of::<$t>();
                let at = rd.position();
                let len = n.checked_mul(W).ok_or(WireError { what: stringify!($t), at })?;
                let b = rd.take(len, stringify!($t))?;
                let value = |c: &[u8]| <$t>::from_le_bytes(c.try_into().expect("W-byte chunk"));
                Ok(b.chunks_exact(W).map(value).collect())
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Wire for usize {
    fn encode(&self, out: &mut WireWriter) {
        (*self as u64).encode(out);
    }
    fn decode(rd: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(u64::decode(rd)? as usize)
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut WireWriter) {
        out.push(*self as u8);
    }
    fn decode(rd: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(rd.take(1, "bool")?[0] != 0)
    }
}

impl Wire for () {
    fn encode(&self, _out: &mut WireWriter) {}
    fn decode(_rd: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut WireWriter) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(rd: &mut WireReader<'_>) -> Result<Self, WireError> {
        match rd.take(1, "Option tag")?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(rd)?)),
            _ => Err(WireError { what: "Option tag", at: rd.position() - 1 }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut WireWriter) {
        (self.len() as u32).encode(out);
        T::encode_slice(self, out);
    }
    fn decode(rd: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = u32::decode(rd)? as usize;
        T::decode_n(n, rd)
    }
}

/// Unframed trailing bytes: encodes with **no** length prefix and decodes
/// by consuming everything left in the payload. For layers that marshal
/// their own opaque argument or result blobs (e.g. the object layer's
/// per-class operation encodings) — as the final stub argument or the
/// return value it keeps their wire format byte-identical to a hand-rolled
/// `[header][raw bytes]` layout. Must be the *last* field decoded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RawTail(pub Vec<u8>);

impl Wire for RawTail {
    fn encode(&self, out: &mut WireWriter) {
        out.extend_from_slice(&self.0);
    }
    fn decode(rd: &mut WireReader<'_>) -> Result<Self, WireError> {
        let b = rd.take(rd.remaining(), "RawTail")?;
        Ok(RawTail(b.to_vec()))
    }
}

impl Wire for String {
    fn encode(&self, out: &mut WireWriter) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(rd: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = u32::decode(rd)? as usize;
        let b = rd.take(n, "String")?;
        String::from_utf8(b.to_vec())
            .map_err(|_| WireError { what: "String utf8", at: rd.position() })
    }
}

impl<const N: usize, T: Wire + Copy + Default> Wire for [T; N] {
    fn encode(&self, out: &mut WireWriter) {
        for v in self {
            v.encode(out);
        }
    }
    fn decode(rd: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut a = [T::default(); N];
        for slot in &mut a {
            *slot = T::decode(rd)?;
        }
        Ok(a)
    }
}

macro_rules! wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, out: &mut WireWriter) {
                $(self.$idx.encode(out);)+
            }
            fn decode(rd: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(($($name::decode(rd)?,)+))
            }
        }
    };
}

wire_tuple!(A: 0);
wire_tuple!(A: 0, B: 1);
wire_tuple!(A: 0, B: 1, C: 2);
wire_tuple!(A: 0, B: 1, C: 2, D: 3);
wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + core::fmt::Debug>(v: T) {
        let b = to_bytes(&v);
        let back: T = from_bytes(&b).expect("roundtrip decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX);
        roundtrip(-1i8);
        roundtrip(i16::MIN);
        roundtrip(i32::MIN);
        roundtrip(i64::MIN);
        roundtrip(3.25f32);
        roundtrip(-2.5e300f64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(());
        roundtrip(usize::MAX);
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(Some(7u32));
        roundtrip(Option::<u32>::None);
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip("hello wire".to_string());
        roundtrip(String::new());
        roundtrip([1.5f64, 2.5, 3.5]);
        roundtrip((1u32, 2.5f64, true));
        roundtrip((1u8, 2u16, 3u32, 4u64, 5i32));
        roundtrip(vec![Some((1u32, false)), None]);
    }

    #[test]
    fn truncated_buffers_error_not_panic() {
        let b = to_bytes(&vec![1u64, 2, 3]);
        for cut in 0..b.len() {
            let r: Result<Vec<u64>, _> = from_bytes(&b[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut b = to_bytes(&7u32);
        b.push(0);
        let r: Result<u32, _> = from_bytes(&b);
        assert!(r.is_err());
    }

    #[test]
    fn bad_option_tag_is_an_error() {
        let r: Result<Option<u32>, _> = from_bytes(&[2, 0, 0, 0, 0]);
        assert!(r.is_err());
    }

    /// Run lengths around the inline boundary and well past it.
    const RUN_LENS: [usize; 8] = [0, 1, 2, 15, 16, 17, 64, 1000];

    /// `n` values of `T` decoded from a mixed byte pattern, so floats
    /// include NaNs with assorted payloads.
    fn sample<T: Wire>(n: usize) -> Vec<T> {
        let bytes: Vec<u8> = (0..n * core::mem::size_of::<T>())
            .map(|i| (i as u32).wrapping_mul(0x9e37_79b9).rotate_right(13) as u8)
            .collect();
        let mut rd = WireReader::new(&bytes);
        (0..n).map(|_| T::decode(&mut rd).unwrap()).collect()
    }

    /// The inline-first, already-spilled and pooled writers.
    fn writers() -> [WireWriter; 3] {
        let mut spilled = WireWriter::new();
        for b in 0..=SHORT_PAYLOAD_MAX as u8 {
            spilled.push(b);
        }
        [WireWriter::new(), spilled, WireWriter::pooled(BufPool::new())]
    }

    fn check_run_path<T: Wire>() {
        for n in RUN_LENS {
            let vs = sample::<T>(n);
            for (mut run, mut each) in writers().into_iter().zip(writers()) {
                T::encode_slice(&vs, &mut run);
                for v in &vs {
                    v.encode(&mut each);
                }
                assert_eq!(run.into_vec(), each.into_vec(), "{} x{n}", core::any::type_name::<T>());
            }
            // `Vec<T>` is the length prefix then the run; it decodes bit for bit.
            let bytes = to_bytes(&vs);
            let mut each = to_bytes(&(n as u32));
            for v in &vs {
                each.extend(to_bytes(v));
            }
            assert_eq!(bytes, each);
            let back: Vec<T> = from_bytes(&bytes).unwrap();
            assert_eq!(to_bytes(&back), bytes);
            // Every truncation of a run fails cleanly.
            for cut in [0, 3, 4, bytes.len() / 2, bytes.len().saturating_sub(1)] {
                if cut < bytes.len() {
                    assert!(from_bytes::<Vec<T>>(&bytes[..cut]).is_err(), "cut {cut} of x{n}");
                }
            }
        }
        // A huge claimed count fails before reserving it: reserving
        // `isize::MAX` elements would panic or abort the test binary.
        let huge = [0xffu8, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9];
        assert!(from_bytes::<Vec<T>>(&huge).is_err());
        for n in [u32::MAX as usize, isize::MAX as usize, usize::MAX] {
            assert!(T::decode_n(n, &mut WireReader::new(&huge[4..])).is_err());
        }
    }

    #[test]
    fn runs_encode_like_their_elements_and_roundtrip() {
        check_run_path::<u8>();
        check_run_path::<u16>();
        check_run_path::<u32>();
        check_run_path::<u64>();
        check_run_path::<i8>();
        check_run_path::<i16>();
        check_run_path::<i32>();
        check_run_path::<i64>();
        check_run_path::<f32>();
        check_run_path::<f64>();
        // The per-element default path keeps the same guards.
        check_run_path::<bool>();
    }

    #[test]
    fn float_runs_keep_nan_payloads() {
        let f =
            [f64::from_bits(0x7ff8_dead_beef_0001), f64::from_bits(0xfff0_0000_0000_0001), -0.0];
        let back: Vec<f64> = from_bytes(&to_bytes(&f.to_vec())).unwrap();
        assert_eq!(back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), f.map(f64::to_bits));
        let f = [f32::from_bits(0x7fc1_2345), f32::from_bits(0xff80_0001)];
        let back: Vec<f32> = from_bytes(&to_bytes(&f.to_vec())).unwrap();
        assert_eq!(back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), f.map(f32::to_bits));
    }

    #[test]
    fn encoding_is_little_endian_and_compact() {
        assert_eq!(to_bytes(&1u32), vec![1, 0, 0, 0]);
        assert_eq!(to_bytes(&(1u32, 2u32)), vec![1, 0, 0, 0, 2, 0, 0, 0]);
        assert_eq!(to_bytes(&vec![9u8]), vec![1, 0, 0, 0, 9]);
    }
}

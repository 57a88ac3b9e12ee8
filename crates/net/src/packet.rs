//! Packet format of the simulated data network.
//!
//! Short packets mirror the CM-5's active-message format: a handler tag plus
//! a small payload (at most [`SHORT_PAYLOAD_MAX`] bytes — the CM-5's four
//! 32-bit argument words). Larger payloads must use the bulk-transfer engine
//! ([`crate::fabric::Network::start_bulk`]), which delivers a
//! [`PacketKind::BulkDone`] completion carrying the data.
//!
//! Short payloads are stored inline in the packet ([`PayloadBuf`]), so the
//! fabric's per-hop packet clones — duplication faults, retransmission
//! buffers, staging queues — are plain memcpys with no heap traffic. Heap
//! payloads share their storage through an [`Rc`], so those same clones are
//! a refcount bump rather than a byte copy. A pooled payload's `Rc` is a
//! *shell* its [`crate::BufPool`] keeps, so once the last payload reference
//! drops, both the shell and the bytes in it serve the pool's next wrap.

use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use oam_model::NodeId;

use crate::pool::BufPool;

/// Maximum payload of a short packet, in bytes (CM-5: 4 argument words).
pub const SHORT_PAYLOAD_MAX: usize = 16;

/// Reference-counted heap storage behind [`PayloadBuf::Heap`]. A
/// [`BufPool`] keeps a reference to each one it wraps; the pool holding
/// the only reference means no payload reads the bytes any more.
pub struct HeapBuf {
    /// The payload bytes.
    pub(crate) bytes: Vec<u8>,
}

/// A packet payload: stored inline when it fits a short packet
/// ([`SHORT_PAYLOAD_MAX`] bytes), spilled to `Rc`-shared heap storage only
/// for bulk transfers. Cloning is O(1) for both variants — a memcpy of at
/// most 16 bytes, or a refcount bump.
///
/// Dereferences to `&[u8]`, so existing slice-based consumers (wire
/// decoders, handlers) need no changes.
#[derive(Clone)]
pub enum PayloadBuf {
    /// At most [`SHORT_PAYLOAD_MAX`] bytes, stored in the packet itself.
    Inline {
        /// Number of meaningful bytes in `bytes`.
        len: u8,
        /// Payload storage; bytes past `len` are zero.
        bytes: [u8; SHORT_PAYLOAD_MAX],
    },
    /// A shared heap-backed payload of any size (bulk transfers).
    Heap(Rc<HeapBuf>),
}

impl PayloadBuf {
    /// The payload bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match self {
            PayloadBuf::Inline { len, bytes } => &bytes[..*len as usize],
            PayloadBuf::Heap(h) => &h.bytes,
        }
    }

    /// Payload length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            PayloadBuf::Inline { len, .. } => *len as usize,
            PayloadBuf::Heap(h) => h.bytes.len(),
        }
    }

    /// True when the payload is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy `src` into an inline payload.
    ///
    /// # Panics
    /// Panics if `src` exceeds [`SHORT_PAYLOAD_MAX`] bytes.
    pub fn inline(src: &[u8]) -> Self {
        assert!(src.len() <= SHORT_PAYLOAD_MAX, "payload {} bytes won't inline", src.len());
        let mut bytes = [0u8; SHORT_PAYLOAD_MAX];
        bytes[..src.len()].copy_from_slice(src);
        PayloadBuf::Inline { len: src.len() as u8, bytes }
    }

    /// Wrap an owned heap buffer without pool backing, keeping it on the
    /// heap regardless of size.
    pub fn heap(bytes: Vec<u8>) -> Self {
        PayloadBuf::Heap(Rc::new(HeapBuf { bytes }))
    }

    /// A zero-copy view of this payload from byte `start` to the end,
    /// sharing the same storage (the view holds a clone of `self`, which is
    /// O(1)).
    ///
    /// # Panics
    /// Panics if `start > self.len()`.
    pub fn view_from(&self, start: usize) -> PayloadView {
        assert!(start <= self.len(), "view start {} past payload end {}", start, self.len());
        PayloadView { buf: self.clone(), start }
    }
}

impl Default for PayloadBuf {
    /// The empty payload (inline, zero bytes).
    fn default() -> Self {
        PayloadBuf::Inline { len: 0, bytes: [0u8; SHORT_PAYLOAD_MAX] }
    }
}

impl Deref for PayloadBuf {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for PayloadBuf {
    /// Inline when it fits; keep the existing heap buffer otherwise.
    fn from(v: Vec<u8>) -> Self {
        if v.len() <= SHORT_PAYLOAD_MAX {
            PayloadBuf::inline(&v)
        } else {
            PayloadBuf::heap(v)
        }
    }
}

impl From<&[u8]> for PayloadBuf {
    fn from(src: &[u8]) -> Self {
        if src.len() <= SHORT_PAYLOAD_MAX {
            PayloadBuf::inline(src)
        } else {
            PayloadBuf::heap(src.to_vec())
        }
    }
}

impl PartialEq for PayloadBuf {
    /// Byte-wise equality, independent of storage variant or sharing.
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PayloadBuf {}

impl PartialEq<Vec<u8>> for PayloadBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<PayloadBuf> for Vec<u8> {
    fn eq(&self, other: &PayloadBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[u8]> for PayloadBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl fmt::Debug for PayloadBuf {
    /// Render as the byte list, independent of the storage variant, so
    /// traces and assertions don't distinguish inline from heap.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

/// A `Send`-able snapshot of a payload, used only at shard boundaries.
///
/// Within a shard, payloads stay in their `Rc`-shared, pool-leased form
/// (the zero-copy path). When a packet must cross to another shard's
/// thread, its bytes are copied once into this owned form — into storage
/// leased from the *source* node's pool ([`PayloadBuf::to_cross`]) — and
/// the vector is then adopted as-is by the *destination* node's pool
/// ([`CrossPayload::into_payload`]), no second copy. Capacity migrates
/// from the source arena to the destination arena; under the symmetric
/// traffic typical of boundary exchange it flows back the other way, so
/// steady-state cross-shard traffic allocates nothing. Content is
/// identical either way; only the storage changes hands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CrossPayload {
    /// A short payload, carried by value.
    Inline {
        /// Number of meaningful bytes in `bytes`.
        len: u8,
        /// Payload storage; bytes past `len` are zero.
        bytes: [u8; SHORT_PAYLOAD_MAX],
    },
    /// A bulk payload, copied out of its shared storage.
    Heap(Vec<u8>),
}

impl CrossPayload {
    /// Rewrap into a [`PayloadBuf`] on the receiving shard. Bulk payloads
    /// hand their vector straight to `pool` when given one — zero copy —
    /// so the storage joins the destination's arena and recycles from
    /// there.
    pub fn into_payload(self, pool: Option<&BufPool>) -> PayloadBuf {
        match self {
            CrossPayload::Inline { len, bytes } => PayloadBuf::Inline { len, bytes },
            CrossPayload::Heap(v) => match pool {
                Some(pool) => pool.wrap(v),
                None => PayloadBuf::heap(v),
            },
        }
    }
}

impl PayloadBuf {
    /// Snapshot this payload into its [`Send`]-able cross-shard form. The
    /// one unavoidable copy (the `Rc`-shared buffer may have other
    /// holders) goes into storage leased from `pool` when one is given —
    /// the source node's arena — so repeated boundary crossings recycle
    /// capacity instead of allocating.
    pub fn to_cross(&self, pool: Option<&BufPool>) -> CrossPayload {
        match self {
            PayloadBuf::Inline { len, bytes } => CrossPayload::Inline { len: *len, bytes: *bytes },
            PayloadBuf::Heap(h) => CrossPayload::Heap(match pool {
                Some(pool) => {
                    let mut v = pool.lease(h.bytes.len());
                    v.extend_from_slice(&h.bytes);
                    v
                }
                None => h.bytes.clone(),
            }),
        }
    }
}

/// A zero-copy suffix view of a [`PayloadBuf`]: the reply/result bytes of a
/// message without the header prefix, still sharing the in-flight buffer's
/// storage. Dereferences to `&[u8]`.
#[derive(Clone, Default)]
pub struct PayloadView {
    buf: PayloadBuf,
    start: usize,
}

impl PayloadView {
    /// The viewed bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf.as_slice()[self.start..]
    }

    /// Length of the view in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Deref for PayloadView {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for PayloadView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl PartialEq<[u8]> for PayloadView {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for PayloadView {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// What a delivered packet represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A short active message travelling through the data network.
    Short,
    /// Completion of a bulk (scopy) transfer; the payload is the full
    /// transferred buffer.
    BulkDone,
}

/// A packet as seen by the layers above the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Short message or bulk completion.
    pub kind: PacketKind,
    /// Dispatch tag; the Active Message layer stores the handler id here.
    pub tag: u32,
    /// Message payload. For `Short` packets this is at most
    /// [`SHORT_PAYLOAD_MAX`] bytes (held inline); for `BulkDone` it is the
    /// whole buffer.
    pub payload: PayloadBuf,
}

impl Packet {
    /// Build a short packet.
    ///
    /// # Panics
    /// Panics if `payload` exceeds [`SHORT_PAYLOAD_MAX`]; callers must route
    /// larger payloads through the bulk engine (the stub layer does this
    /// automatically).
    pub fn short(src: NodeId, dst: NodeId, tag: u32, payload: impl Into<PayloadBuf>) -> Self {
        let payload = payload.into();
        assert!(
            payload.len() <= SHORT_PAYLOAD_MAX,
            "short packet payload {} exceeds {} bytes — use a bulk transfer",
            payload.len(),
            SHORT_PAYLOAD_MAX
        );
        Packet { src, dst, kind: PacketKind::Short, tag, payload }
    }

    /// Build a bulk-completion packet (internal to the network layer).
    pub(crate) fn bulk_done(src: NodeId, dst: NodeId, tag: u32, payload: PayloadBuf) -> Self {
        Packet { src, dst, kind: PacketKind::BulkDone, tag, payload }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_packet_accepts_up_to_16_bytes() {
        let p = Packet::short(NodeId(0), NodeId(1), 7, vec![0u8; 16]);
        assert_eq!(p.kind, PacketKind::Short);
        assert_eq!(p.len(), 16);
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "use a bulk transfer")]
    fn short_packet_rejects_oversized_payload() {
        let _ = Packet::short(NodeId(0), NodeId(1), 7, vec![0u8; 17]);
    }

    #[test]
    fn bulk_done_carries_arbitrary_sizes() {
        let p = Packet::bulk_done(NodeId(0), NodeId(1), 3, vec![0u8; 4096].into());
        assert_eq!(p.kind, PacketKind::BulkDone);
        assert_eq!(p.len(), 4096);
    }

    #[test]
    fn short_payloads_inline_and_compare_as_bytes() {
        let p = Packet::short(NodeId(0), NodeId(1), 7, vec![1, 2, 3]);
        assert!(matches!(p.payload, PayloadBuf::Inline { len: 3, .. }));
        assert_eq!(p.payload, vec![1, 2, 3]);
        assert_eq!(&p.payload[1..], &[2, 3]);
        // Debug output is storage-independent: inline renders like a slice.
        assert_eq!(format!("{:?}", p.payload), format!("{:?}", [1u8, 2, 3]));
        let q = p.clone();
        assert_eq!(p, q, "clone is byte-identical");
    }

    #[test]
    fn oversized_vec_conversion_keeps_the_heap_buffer() {
        let buf: PayloadBuf = vec![0u8; 64].into();
        assert!(matches!(buf, PayloadBuf::Heap(_)));
        assert_eq!(buf.len(), 64);
    }

    #[test]
    fn heap_clones_share_storage() {
        let buf = PayloadBuf::heap(vec![9u8; 64]);
        let copy = buf.clone();
        let (PayloadBuf::Heap(a), PayloadBuf::Heap(b)) = (&buf, &copy) else {
            panic!("expected heap payloads");
        };
        assert!(Rc::ptr_eq(a, b), "clone bumps the refcount instead of copying bytes");
        assert_eq!(buf, copy);
    }

    #[test]
    fn views_share_storage_and_skip_the_prefix() {
        let mut bytes = vec![0u8; 64];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = i as u8;
        }
        let buf = PayloadBuf::heap(bytes);
        let view = buf.view_from(4);
        assert_eq!(view.len(), 60);
        assert_eq!(view[0], 4);
        assert_eq!(&view[..4], &[4, 5, 6, 7]);
        // The view keeps the storage alive on its own.
        drop(buf);
        assert_eq!(view[0], 4);
    }

    #[test]
    fn equality_is_byte_wise_across_variants() {
        let small: PayloadBuf = vec![1u8, 2, 3].into();
        let heap = PayloadBuf::heap(vec![1u8, 2, 3]);
        assert_eq!(small, heap);
    }
}

//! Minimal binary codec for checkpoint images.
//!
//! Hand-rolled little-endian encoding: a checkpoint image must restore
//! under a different MPI library and cluster than the one that wrote it,
//! so its layout is spelled out byte-by-byte (and stamped with one format
//! version) rather than delegated to a serialization framework.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use mana_sim::memory::{pages_of_len, DenseSnap, PAGE};
use mana_sim::scatter::{tally_shared_flatten, ScatterBuf, Segment};

/// Decode errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended early.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// Magic number mismatch (not a MANA image).
    BadMagic(u64),
    /// Unsupported format version.
    BadVersion(u32),
    /// An enum discriminant was out of range.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending discriminant.
        tag: u32,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { what } => write!(f, "truncated image while decoding {what}"),
            CodecError::BadMagic(m) => write!(f, "bad image magic {m:#x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported image version {v}"),
            CodecError::BadTag { what, tag } => write!(f, "invalid {what} discriminant {tag}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A serialization sink: the one set of field-writing primitives, backed
/// either by a contiguous buffer ([`Enc`]) or by a scatter of owned runs
/// and shared pages ([`ScatterEnc`]). Encoders written against `Sink`
/// produce the same wire bytes through either.
pub trait Sink {
    /// Write a `u8`.
    fn u8(&mut self, v: u8);
    /// Write a `u32`.
    fn u32(&mut self, v: u32);
    /// Write an `i32`.
    fn i32(&mut self, v: i32);
    /// Write a `u64`.
    fn u64(&mut self, v: u64);
    /// Write a bool as one byte.
    fn boolean(&mut self, v: bool);
    /// Write raw bytes with no length prefix (content chunks whose
    /// framing was already written).
    fn raw(&mut self, v: &[u8]);

    /// Write a length-prefixed byte string.
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.raw(v);
    }

    /// Write a length-prefixed UTF-8 string.
    fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Write a length prefix for a sequence.
    fn seq(&mut self, len: usize) {
        self.u64(len as u64);
    }

    /// Write a dense snapshot's content bytes (its pages, concatenated)
    /// with no framing — the caller has already written the length. The
    /// default streams each page through [`Sink::raw`]; scatter sinks
    /// override this to capture the frozen page handles without
    /// copying a byte, which is the entire zero-copy image path.
    fn dense_pages(&mut self, snap: &DenseSnap) {
        for p in snap.pages() {
            self.raw(p);
        }
    }
}

/// Encoder over a growable buffer.
#[derive(Default)]
pub struct Enc {
    buf: BytesMut,
}

impl Enc {
    /// Fresh encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Finish and take the bytes (moves; no copy).
    pub fn finish(self) -> Vec<u8> {
        self.buf.into_vec()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Write a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Write an `i32`.
    pub fn i32(&mut self, v: i32) {
        self.buf.put_i32_le(v);
    }

    /// Write a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Write a bool as one byte.
    pub fn boolean(&mut self, v: bool) {
        self.buf.put_u8(u8::from(v));
    }

    /// Write a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.put_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Write a length prefix for a sequence.
    pub fn seq(&mut self, len: usize) {
        self.u64(len as u64);
    }

    /// Write raw bytes with no length prefix.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }
}

impl Sink for Enc {
    fn u8(&mut self, v: u8) {
        Enc::u8(self, v);
    }
    fn u32(&mut self, v: u32) {
        Enc::u32(self, v);
    }
    fn i32(&mut self, v: i32) {
        Enc::i32(self, v);
    }
    fn u64(&mut self, v: u64) {
        Enc::u64(self, v);
    }
    fn boolean(&mut self, v: bool) {
        Enc::boolean(self, v);
    }
    fn raw(&mut self, v: &[u8]) {
        Enc::raw(self, v);
    }
}

/// Scatter-building sink: produces the same byte stream as [`Enc`], but
/// dense snapshot pages are appended as *shared* segments (`Arc` clones
/// of the rope pages) instead of being memcpy'd — metadata accumulates in
/// a small owned tail that is flushed as an owned segment whenever a page
/// run begins. Wire-identity with the flat encoder is structural: both
/// sinks receive the identical sequence of `Sink` calls.
#[derive(Default)]
pub struct ScatterEnc {
    buf: ScatterBuf,
    tail: Vec<u8>,
}

impl ScatterEnc {
    /// Fresh scatter encoder.
    pub fn new() -> ScatterEnc {
        ScatterEnc::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len() + self.tail.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn flush_tail(&mut self) {
        if !self.tail.is_empty() {
            self.buf.push_owned(std::mem::take(&mut self.tail));
        }
    }

    /// Finish and take the scatter buffer.
    pub fn finish(mut self) -> ScatterBuf {
        self.flush_tail();
        self.buf
    }
}

impl Sink for ScatterEnc {
    fn u8(&mut self, v: u8) {
        self.tail.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.tail.extend_from_slice(&v.to_le_bytes());
    }
    fn i32(&mut self, v: i32) {
        self.tail.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.tail.extend_from_slice(&v.to_le_bytes());
    }
    fn boolean(&mut self, v: bool) {
        self.tail.push(u8::from(v));
    }
    fn raw(&mut self, v: &[u8]) {
        self.tail.extend_from_slice(v);
    }
    fn dense_pages(&mut self, snap: &DenseSnap) {
        self.flush_tail();
        for i in 0..snap.page_count() {
            self.buf.push_shared(snap.page_handle(i));
        }
    }
}

/// Decoder over a byte slice.
pub struct Dec {
    buf: Bytes,
}

impl Dec {
    /// Wrap `data` for decoding.
    pub fn new(data: &[u8]) -> Dec {
        Dec {
            buf: Bytes::copy_from_slice(data),
        }
    }

    /// Remaining undecoded bytes.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    fn need(&self, n: usize, what: &'static str) -> Result<(), CodecError> {
        if self.buf.remaining() < n {
            Err(CodecError::Truncated { what })
        } else {
            Ok(())
        }
    }

    /// Read a `u8`.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        self.need(1, what)?;
        Ok(self.buf.get_u8())
    }

    /// Read a `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        self.need(4, what)?;
        Ok(self.buf.get_u32_le())
    }

    /// Read an `i32`.
    pub fn i32(&mut self, what: &'static str) -> Result<i32, CodecError> {
        self.need(4, what)?;
        Ok(self.buf.get_i32_le())
    }

    /// Read a `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        self.need(8, what)?;
        Ok(self.buf.get_u64_le())
    }

    /// Read a bool.
    pub fn boolean(&mut self, what: &'static str) -> Result<bool, CodecError> {
        Ok(self.u8(what)? != 0)
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, CodecError> {
        Ok(self.bytes_ref(what)?.to_vec())
    }

    /// Borrow a length-prefixed byte string straight out of the input —
    /// the zero-copy variant for payloads the caller re-chunks itself
    /// (e.g. dense region content into snapshot pages).
    pub fn bytes_ref(&mut self, what: &'static str) -> Result<&[u8], CodecError> {
        let n = self.u64(what)? as usize;
        self.need(n, what)?;
        Ok(self.buf.get_slice(n))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self, what: &'static str) -> Result<String, CodecError> {
        String::from_utf8(self.bytes(what)?).map_err(|_| CodecError::Truncated { what })
    }

    /// Read a sequence length.
    pub fn seq(&mut self, what: &'static str) -> Result<usize, CodecError> {
        Ok(self.u64(what)? as usize)
    }
}

/// A decoding source: the one set of field-reading primitives, backed
/// either by a contiguous buffer ([`Dec`]) or by a scatter of segments
/// ([`ScatterDec`]). Decoders written against `Src` run unchanged on
/// both; the scatter source additionally recovers dense payloads as
/// shared page handles instead of copying them — the read-side
/// twin of [`Sink::dense_pages`].
pub trait Src {
    /// Read a `u8`.
    fn u8(&mut self, what: &'static str) -> Result<u8, CodecError>;
    /// Read a `u32`.
    fn u32(&mut self, what: &'static str) -> Result<u32, CodecError>;
    /// Read an `i32`.
    fn i32(&mut self, what: &'static str) -> Result<i32, CodecError>;
    /// Read a `u64`.
    fn u64(&mut self, what: &'static str) -> Result<u64, CodecError>;
    /// Read a bool.
    fn boolean(&mut self, what: &'static str) -> Result<bool, CodecError> {
        Ok(self.u8(what)? != 0)
    }
    /// Read a length-prefixed byte string.
    fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, CodecError>;
    /// Read a length-prefixed UTF-8 string.
    fn string(&mut self, what: &'static str) -> Result<String, CodecError> {
        String::from_utf8(self.bytes(what)?).map_err(|_| CodecError::Truncated { what })
    }
    /// Read a sequence length.
    fn seq(&mut self, what: &'static str) -> Result<usize, CodecError> {
        Ok(self.u64(what)? as usize)
    }
    /// Read a length-prefixed dense region payload as a frozen snapshot.
    fn dense(&mut self, what: &'static str) -> Result<DenseSnap, CodecError>;
}

impl Src for Dec {
    fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Dec::u8(self, what)
    }
    fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        Dec::u32(self, what)
    }
    fn i32(&mut self, what: &'static str) -> Result<i32, CodecError> {
        Dec::i32(self, what)
    }
    fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        Dec::u64(self, what)
    }
    fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, CodecError> {
        Dec::bytes(self, what)
    }
    fn dense(&mut self, what: &'static str) -> Result<DenseSnap, CodecError> {
        // Chunk straight from the decoder's buffer into frozen pages —
        // one copy, no intermediate contiguous Vec.
        Ok(DenseSnap::from_bytes(self.bytes_ref(what)?))
    }
}

/// Decoder over a [`ScatterBuf`], walking its segments in place. Metadata
/// reads copy a handful of bytes out of owned segments; a dense payload
/// whose page run survived storage as discrete shared segments (the
/// [`ScatterEnc`] layout) is recovered as `Arc` clones of those very
/// pages — zero copies for every clean stored page. Payloads that lost
/// their segment alignment (re-framed, flattened, or foreign bytes) fall
/// back to a copy that is tallied in
/// [`mana_sim::scatter::shared_flatten_bytes`], so the byte stream
/// decodes identically either way.
pub struct ScatterDec<'a> {
    segs: &'a [Segment],
    /// Current segment index.
    seg: usize,
    /// Offset within the current segment.
    off: usize,
    remaining: usize,
    copied: u64,
    pages_shared: u64,
}

impl<'a> ScatterDec<'a> {
    /// Wrap `buf` for decoding.
    pub fn new(buf: &'a ScatterBuf) -> ScatterDec<'a> {
        ScatterDec {
            segs: buf.raw_segments(),
            seg: 0,
            off: 0,
            remaining: buf.len(),
            copied: 0,
            pages_shared: 0,
        }
    }

    /// Remaining undecoded bytes.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Bytes this decoder copied out of segments (metadata plus any dense
    /// fallback); zero page copies shows up here as a near-zero value.
    pub fn bytes_copied(&self) -> u64 {
        self.copied
    }

    /// Dense pages recovered as shared `Arc` handles (no copy).
    pub fn pages_shared(&self) -> u64 {
        self.pages_shared
    }

    /// Skip exhausted segments so `(seg, off)` always points at unread
    /// bytes (or one past the final segment).
    fn normalize(&mut self) {
        while self
            .segs
            .get(self.seg)
            .is_some_and(|s| self.off >= s.as_bytes().len())
        {
            self.seg += 1;
            self.off = 0;
        }
    }

    /// Copy exactly `out.len()` bytes into `out`, crossing segment
    /// boundaries as needed.
    fn read_into(&mut self, out: &mut [u8], what: &'static str) -> Result<(), CodecError> {
        if self.remaining < out.len() {
            return Err(CodecError::Truncated { what });
        }
        let mut done = 0usize;
        while done < out.len() {
            self.normalize();
            let seg = &self.segs[self.seg];
            let bytes = seg.as_bytes();
            let n = (bytes.len() - self.off).min(out.len() - done);
            out[done..done + n].copy_from_slice(&bytes[self.off..self.off + n]);
            if matches!(seg, Segment::Shared(_)) {
                tally_shared_flatten(n as u64);
            }
            self.off += n;
            done += n;
        }
        self.copied += out.len() as u64;
        self.remaining -= out.len();
        self.normalize();
        Ok(())
    }

    fn scalar<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        let mut buf = [0u8; N];
        self.read_into(&mut buf, what)?;
        Ok(buf)
    }
}

impl Src for ScatterDec<'_> {
    fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.scalar::<1>(what)?[0])
    }
    fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.scalar::<4>(what)?))
    }
    fn i32(&mut self, what: &'static str) -> Result<i32, CodecError> {
        Ok(i32::from_le_bytes(self.scalar::<4>(what)?))
    }
    fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.scalar::<8>(what)?))
    }
    fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, CodecError> {
        let n = Src::u64(self, what)? as usize;
        if self.remaining < n {
            return Err(CodecError::Truncated { what });
        }
        let mut v = vec![0u8; n];
        self.read_into(&mut v, what)?;
        Ok(v)
    }
    fn dense(&mut self, what: &'static str) -> Result<DenseSnap, CodecError> {
        let len = Src::u64(self, what)? as usize;
        if self.remaining < len {
            return Err(CodecError::Truncated { what });
        }
        // Fast path: the cursor sits at a segment boundary and the next
        // segments are exactly the payload's canonical page chunking as
        // shared handles — the ScatterEnc layout, preserved by stores
        // that kept the scatter intact. Recover the page handles.
        if self.off == 0 {
            let npages = pages_of_len(len);
            let mut pages = Vec::with_capacity(npages);
            for k in 0..npages {
                let want = if k + 1 < npages {
                    PAGE as usize
                } else {
                    len - k * PAGE as usize
                };
                match self.segs.get(self.seg + k).and_then(Segment::shared_handle) {
                    Some(p) if p.len() == want => pages.push(p.clone()),
                    _ => {
                        pages.clear();
                        break;
                    }
                }
            }
            if pages.len() == npages {
                if let Some(snap) = DenseSnap::from_pages(len, pages) {
                    self.seg += npages;
                    self.off = 0;
                    self.remaining -= len;
                    self.pages_shared += npages as u64;
                    self.normalize();
                    return Ok(snap);
                }
            }
        }
        // Fallback: copy the payload (tallied) and re-chunk it.
        let mut v = vec![0u8; len];
        self.read_into(&mut v, what)?;
        Ok(DenseSnap::from_bytes(&v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.i32(-42);
        e.u64(u64::MAX - 1);
        e.boolean(true);
        e.bytes(b"hello");
        e.string("wörld");
        let data = e.finish();
        let mut d = Dec::new(&data);
        assert_eq!(d.u8("a").unwrap(), 7);
        assert_eq!(d.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.i32("c").unwrap(), -42);
        assert_eq!(d.u64("d").unwrap(), u64::MAX - 1);
        assert!(d.boolean("e").unwrap());
        assert_eq!(d.bytes("f").unwrap(), b"hello");
        assert_eq!(d.string("g").unwrap(), "wörld");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn truncation_detected() {
        let mut e = Enc::new();
        e.u64(5);
        let mut data = e.finish();
        data.truncate(3);
        let mut d = Dec::new(&data);
        assert_eq!(d.u64("x"), Err(CodecError::Truncated { what: "x" }));
    }

    #[test]
    fn scatter_sink_is_wire_identical_to_flat() {
        fn encode<S: Sink>(s: &mut S, snap: &DenseSnap) {
            s.u8(1);
            s.u64(snap.len() as u64);
            s.dense_pages(snap);
            s.u32(0xFEED);
            s.bytes(b"trailer");
        }
        let snap = DenseSnap::from_vec((0..20_000u32).map(|i| i as u8).collect());
        let mut flat = Enc::new();
        encode(&mut flat, &snap);
        let mut scatter = ScatterEnc::new();
        encode(&mut scatter, &snap);
        assert_eq!(scatter.len(), flat.len());
        let sb = scatter.finish();
        // Pages crossed as shared segments, not copies.
        assert_eq!(sb.shared_len(), snap.len());
        assert_eq!(sb.to_vec(), flat.finish());
    }

    #[test]
    fn scatter_dec_recovers_pages_without_copying() {
        fn encode<S: Sink>(s: &mut S, snap: &DenseSnap) {
            s.u8(1);
            s.string("meta");
            s.u64(snap.len() as u64);
            s.dense_pages(snap);
            s.u32(0xFEED);
        }
        let snap = DenseSnap::from_vec((0..10_000u32).map(|i| (i * 7) as u8).collect());
        let mut enc = ScatterEnc::new();
        encode(&mut enc, &snap);
        let sb = enc.finish();

        let mut d = ScatterDec::new(&sb);
        assert_eq!(Src::u8(&mut d, "a").unwrap(), 1);
        assert_eq!(Src::string(&mut d, "b").unwrap(), "meta");
        let back = {
            let len = Src::u64(&mut d, "len").unwrap() as usize;
            assert_eq!(len, snap.len());
            // Re-wind is impossible; call dense via the region framing
            // convention: length already consumed means the payload
            // starts here, so test the trait-level read instead.
            let mut d2 = ScatterDec::new(&sb);
            Src::u8(&mut d2, "a").unwrap();
            Src::string(&mut d2, "b").unwrap();
            let got = Src::dense(&mut d2, "payload").unwrap();
            assert_eq!(Src::u32(&mut d2, "t").unwrap(), 0xFEED);
            assert_eq!(d2.remaining(), 0);
            assert_eq!(d2.pages_shared(), snap.page_count() as u64);
            // Pages are the same allocations, not copies.
            for i in 0..snap.page_count() {
                assert!(got.shares_page(&snap, i), "page {i} was copied");
            }
            got
        };
        assert_eq!(back.to_vec(), snap.to_vec());
        let _ = d;
    }

    #[test]
    fn scatter_dec_falls_back_on_flat_bytes() {
        fn encode<S: Sink>(s: &mut S, snap: &DenseSnap) {
            s.u64(snap.len() as u64);
            s.dense_pages(snap);
        }
        let snap = DenseSnap::from_vec(vec![3u8; 9000]);
        let mut enc = Enc::new();
        encode(&mut enc, &snap);
        // Flat bytes: no shared segments to recover.
        let sb = ScatterBuf::from_vec(enc.finish());
        let mut d = ScatterDec::new(&sb);
        let got = Src::dense(&mut d, "payload").unwrap();
        assert_eq!(d.pages_shared(), 0);
        assert_eq!(got.to_vec(), snap.to_vec());
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn scatter_dec_truncation_is_typed() {
        let mut sb = ScatterBuf::new();
        sb.push_owned(vec![1, 2, 3]);
        let mut d = ScatterDec::new(&sb);
        assert!(matches!(
            Src::u64(&mut d, "x"),
            Err(CodecError::Truncated { what: "x" })
        ));
        let mut sb2 = ScatterBuf::new();
        sb2.push_owned(1000u64.to_le_bytes().to_vec());
        let mut d2 = ScatterDec::new(&sb2);
        assert!(matches!(
            Src::bytes(&mut d2, "p"),
            Err(CodecError::Truncated { .. })
        ));
        assert!(matches!(
            Src::dense(&mut ScatterDec::new(&sb2), "q"),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn bytes_length_checked() {
        let mut e = Enc::new();
        e.u64(1000); // claims 1000 bytes, provides none
        let data = e.finish();
        let mut d = Dec::new(&data);
        assert!(matches!(d.bytes("p"), Err(CodecError::Truncated { .. })));
    }
}

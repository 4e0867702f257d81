//! Codec layer: length-prefixed frames, moved in bursts over reused buffers.
//!
//! [`crate::proto`] defines the byte format; this module owns the *buffer
//! discipline* around it, so the serve path pays one socket syscall per
//! burst of small frames — not three per frame — and allocates nothing per
//! frame in steady state:
//!
//! * [`FrameReader`] — one per connection side.  It owns a fixed read
//!   buffer and hands out every complete frame already in it before it
//!   issues another `read`, so one syscall picks up however many small
//!   frames the peer sent since the last one.  A frame larger than the
//!   buffer is read straight into a payload scratch that grows to the
//!   largest frame the connection has seen: an MB-sized `Commit` or epoch
//!   payload is never copied through the buffer.
//! * [`FrameWriter`] — one per connection side.  [`FrameWriter::queue`]
//!   appends a small frame to a fixed burst buffer and
//!   [`FrameWriter::flush`] writes the burst with one `write`; a frame
//!   that does not fit the buffer is written through with
//!   [`crate::proto::write_frame`]'s single vectored header+payload call,
//!   after whatever was queued before it.  *When* to flush is the caller's
//!   rule — the session layer states it once, next to the code that keeps
//!   it (see `TcpTransport`'s flush rule and the owner's writer stage).
//! * [`FramePool`] — a small shared pool of encoded-frame buffers for the
//!   pipelined server, where the *dispatch* stage encodes a reply and the
//!   *writer* stage copies it into its burst on another thread: the buffer
//!   travels down the reply queue and comes back to the pool as soon as it
//!   is copied, instead of being allocated and freed per reply.
//!
//! `crates/dds/tests/framing_alloc.rs` pins the zero-allocation property
//! with a counting allocator; the tests below pin the syscall counts over
//! counting `Read` / `Write` adapters.

use crate::proto::{
    encode_reply_into, encode_request_into, frame_fits, refused, write_frame, Reply, Request,
    MAX_FRAME_BYTES,
};
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::sync::Arc;

/// Bytes of the length prefix before every payload.
const PREFIX_BYTES: usize = 4;

/// Size of a [`FrameReader`]'s read buffer and of a [`FrameWriter`]'s burst
/// buffer: several full client windows of the protocol's small frames (a
/// four-pair `Commit` is ≈ 180 bytes, its ack 21), and small enough that a
/// frame which does not fit is cheaper to move without the extra copy.
const BUFFER_BYTES: usize = 16 * 1024;

/// Read side of one connection: a fixed buffer that one `read` fills with
/// as many frames as have arrived, and a payload scratch for the frames
/// that are larger than it.
pub struct FrameReader {
    /// `buffer[start..end]` holds bytes read from the stream and not yet
    /// handed out.
    buffer: Box<[u8]>,
    start: usize,
    end: usize,
    /// Payload of a frame too large for `buffer`, read into directly.
    payload: Vec<u8>,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
    }
}

impl FrameReader {
    /// A reader with an empty buffer.
    pub fn new() -> FrameReader {
        FrameReader {
            buffer: vec![0; BUFFER_BYTES].into_boxed_slice(),
            start: 0,
            end: 0,
            payload: Vec::new(),
        }
    }

    /// Payload length of the frame at the head of the buffer, once its
    /// whole prefix has been read.
    fn buffered_len(&self) -> Option<usize> {
        let prefix = self.buffer[self.start..self.end].first_chunk::<PREFIX_BYTES>()?;
        Some(u32::from_le_bytes(*prefix) as usize)
    }

    /// `true` if a complete frame is already buffered, so the next
    /// [`FrameReader::read`] returns it without touching the stream (and
    /// therefore cannot block).
    pub fn has_frame(&self) -> bool {
        self.buffered_len()
            .is_some_and(|len| self.end - self.start >= PREFIX_BYTES + len)
    }

    /// Forget every buffered byte: the stream they came from is gone.
    pub fn discard(&mut self) {
        self.start = 0;
        self.end = 0;
    }

    /// One `read` into the free tail of the buffer (the unread bytes move
    /// to the front first, so the tail is as long as it can be).
    fn fill<R: Read>(&mut self, reader: &mut R) -> std::io::Result<()> {
        if self.start > 0 {
            self.buffer.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        loop {
            match reader.read(&mut self.buffer[self.end..]) {
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.end += n;
                    return Ok(());
                }
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
    }

    /// The next frame's payload: from the buffer if a whole frame is
    /// already there, otherwise after as few `read`s of `reader` as bring
    /// one in.  Steady-state allocation-free once the scratch has grown to
    /// the connection's largest frame.
    ///
    /// # Errors
    /// `InvalidData` if the declared length exceeds [`MAX_FRAME_BYTES`] (the
    /// payload is not read, let alone allocated); `UnexpectedEof` if the
    /// stream ends mid-frame; otherwise any I/O error of `reader`.  After
    /// an error the reader's contents are unspecified.
    pub fn read<R: Read>(&mut self, reader: &mut R) -> std::io::Result<&[u8]> {
        let len = loop {
            match self.buffered_len() {
                Some(len) => break len,
                None => self.fill(reader)?,
            }
        };
        frame_fits(len).map_err(refused)?;
        let frame = PREFIX_BYTES + len;
        if frame <= BUFFER_BYTES {
            while self.end - self.start < frame {
                self.fill(reader)?;
            }
            let payload = &self.buffer[self.start + PREFIX_BYTES..self.start + frame];
            self.start += frame;
            return Ok(payload);
        }
        // Larger than the buffer: whatever part of the payload came in with
        // the prefix moves over, the rest is read where it will be decoded.
        let head = &self.buffer[self.start + PREFIX_BYTES..self.end];
        self.payload.clear();
        self.payload.resize(len, 0);
        self.payload[..head.len()].copy_from_slice(head);
        let buffered = head.len();
        self.discard();
        reader.read_exact(&mut self.payload[buffered..])?;
        Ok(&self.payload)
    }
}

/// Write side of one connection: small frames accumulate in a fixed burst
/// buffer until [`FrameWriter::flush`]; a frame that does not fit it goes
/// out with one vectored write.
pub struct FrameWriter {
    /// Encode scratch of [`FrameWriter::queue_request`] /
    /// [`FrameWriter::send_reply`]; grows to the largest frame sent.
    payload: Vec<u8>,
    /// Queued frames, prefix and payload each, at most [`BUFFER_BYTES`].
    burst: Vec<u8>,
}

impl Default for FrameWriter {
    fn default() -> Self {
        FrameWriter::new()
    }
}

/// [`FrameWriter::queue`] over the writer's fields, so the encode scratch
/// can be the payload.
fn queue_into<W: Write>(
    burst: &mut Vec<u8>,
    writer: &mut W,
    payload: &[u8],
) -> std::io::Result<()> {
    // Refused before a byte of it is buffered.
    frame_fits(payload.len()).map_err(refused)?;
    let frame = PREFIX_BYTES + payload.len();
    if burst.len() + frame > BUFFER_BYTES {
        flush_from(burst, writer)?;
    }
    if frame > BUFFER_BYTES {
        return write_frame(writer, payload);
    }
    burst.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    burst.extend_from_slice(payload);
    Ok(())
}

/// [`FrameWriter::flush`] over the writer's fields.  The burst is empty
/// afterwards either way: bytes a dead stream refused are not re-offered to
/// the next one.
fn flush_from<W: Write>(burst: &mut Vec<u8>, writer: &mut W) -> std::io::Result<()> {
    if burst.is_empty() {
        return Ok(());
    }
    let written = writer.write_all(burst);
    burst.clear();
    written
}

impl FrameWriter {
    /// A writer with nothing queued.
    pub fn new() -> FrameWriter {
        FrameWriter {
            payload: Vec::new(),
            burst: Vec::with_capacity(BUFFER_BYTES),
        }
    }

    /// Queue one already-encoded `payload` as a frame behind those queued
    /// before it.  Writes only when it must: the queued burst if this frame
    /// does not fit behind it, and this frame itself (vectored, uncopied)
    /// if it does not fit the buffer at all.
    ///
    /// # Errors
    /// `InvalidData` if the payload exceeds [`MAX_FRAME_BYTES`] — nothing
    /// is buffered or written; otherwise any I/O error of `writer`.
    pub fn queue<W: Write>(&mut self, writer: &mut W, payload: &[u8]) -> std::io::Result<()> {
        queue_into(&mut self.burst, writer, payload)
    }

    /// Encode `request` into the scratch and [`FrameWriter::queue`] it.
    pub fn queue_request<W: Write>(
        &mut self,
        writer: &mut W,
        request: &Request,
    ) -> std::io::Result<()> {
        encode_request_into(&mut self.payload, request);
        queue_into(&mut self.burst, writer, &self.payload)
    }

    /// Write every queued frame with one `write` call (more only if the
    /// stream takes the burst in pieces).  A no-op with nothing queued.
    pub fn flush<W: Write>(&mut self, writer: &mut W) -> std::io::Result<()> {
        flush_from(&mut self.burst, writer)
    }

    /// Forget every queued frame: the stream they were meant for is gone.
    pub fn discard(&mut self) {
        self.burst.clear();
    }

    /// Queue `request` and flush: one frame (and anything queued before
    /// it), out now.
    pub fn send_request<W: Write>(
        &mut self,
        writer: &mut W,
        request: &Request,
    ) -> std::io::Result<()> {
        self.queue_request(writer, request)?;
        self.flush(writer)
    }

    /// Encode `reply`, queue it and flush.
    pub fn send_reply<W: Write>(&mut self, writer: &mut W, reply: &Reply) -> std::io::Result<()> {
        encode_reply_into(&mut self.payload, reply);
        queue_into(&mut self.burst, writer, &self.payload)?;
        self.flush(writer)
    }
}

/// Buffers a [`FramePool`] retains at most; beyond this, returned buffers
/// are simply freed.  Dispatch can run a client's whole window ahead of the
/// writer stage, so up to that many small buffers are out at once even
/// though the writer hands each one back the moment it is copied into the
/// burst; the ones over the cap are freed and allocated again, which costs
/// less than pinning a window of buffers that may each have grown to an
/// epoch frame.  The cap bounds that memory, not the rotation.
const POOL_CAP: usize = 8;

/// A shared pool of encoded-frame buffers, for handing serialized frames
/// between pipeline stages without a fresh allocation per frame.
///
/// Cloning shares the pool.  `take` pops a warm buffer (or starts an empty
/// one); `put` returns a buffer, cleared, capacity retained.
#[derive(Clone, Default)]
pub struct FramePool {
    buffers: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl FramePool {
    /// An empty pool.
    pub fn new() -> FramePool {
        FramePool::default()
    }

    /// Pop a reusable buffer, or start an empty one if the pool is dry.
    pub fn take(&self) -> Vec<u8> {
        self.buffers.lock().pop().unwrap_or_default()
    }

    /// Return a buffer to the pool (cleared, capacity retained) unless the
    /// pool is already at capacity or the buffer outgrew the largest legal
    /// frame ([`MAX_FRAME_BYTES`]): no legal frame can need more, so it is
    /// freed rather than pinned for a payload the codec would refuse anyway.
    pub fn put(&self, mut buffer: Vec<u8>) {
        if buffer.capacity() > MAX_FRAME_BYTES {
            return;
        }
        buffer.clear();
        let mut buffers = self.buffers.lock();
        if buffers.len() < POOL_CAP {
            buffers.push(buffer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{Key, KeyTag, Value};
    use crate::proto::decode_request;

    fn commit() -> Request {
        Request::Commit {
            epoch: 1,
            seq: 2,
            batches: vec![(0, vec![(Key::of(KeyTag::Scalar, 3), Value::scalar(4))])],
        }
    }

    /// A payload of `len` bytes that no shifted copy of itself matches.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    /// One call a [`CountingWriter`] received: how it was made and how many
    /// bytes it offered.
    #[derive(Debug, PartialEq, Eq)]
    enum WriteCall {
        Plain(usize),
        Vectored(usize),
    }

    /// A sink that accepts everything and records each call — the stand-in
    /// for "one syscall" a noisy host cannot blur.
    #[derive(Default)]
    struct CountingWriter {
        calls: Vec<WriteCall>,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls.push(WriteCall::Plain(buf.len()));
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            let offered = bufs.iter().map(|buf| buf.len()).sum();
            self.calls.push(WriteCall::Vectored(offered));
            for buf in bufs {
                self.bytes.extend_from_slice(buf);
            }
            Ok(offered)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A source that hands out at most `chunk` bytes per call and records
    /// the size of the buffer each call offered.
    struct CountingReader<'a> {
        bytes: &'a [u8],
        chunk: usize,
        offered: Vec<usize>,
    }

    impl<'a> CountingReader<'a> {
        fn new(bytes: &'a [u8]) -> Self {
            CountingReader {
                bytes,
                chunk: usize::MAX,
                offered: Vec::new(),
            }
        }
    }

    impl Read for CountingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.offered.push(buf.len());
            let n = buf.len().min(self.chunk).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn reader_and_writer_round_trip_reusing_scratch() {
        let mut wire = Vec::new();
        let mut writer = FrameWriter::new();
        writer.send_request(&mut wire, &commit()).unwrap();
        writer.send_request(&mut wire, &Request::Goodbye).unwrap();

        let mut reader = FrameReader::new();
        let mut stream: &[u8] = &wire;
        let payload = reader.read(&mut stream).unwrap();
        assert_eq!(decode_request(payload), Ok(commit()));
        // The slice is sized to the frame, not to the buffer it sits in.
        let payload = reader.read(&mut stream).unwrap();
        assert_eq!(decode_request(payload), Ok(Request::Goodbye));
        assert!(stream.is_empty());
        assert!(!reader.has_frame());
    }

    #[test]
    fn a_burst_of_small_frames_is_one_write_and_one_read() {
        const FRAMES: usize = 32;
        let mut sink = CountingWriter::default();
        let mut writer = FrameWriter::new();
        for _ in 0..FRAMES {
            writer.queue_request(&mut sink, &commit()).unwrap();
        }
        assert!(sink.calls.is_empty(), "queueing must not write");
        writer.flush(&mut sink).unwrap();
        assert_eq!(sink.calls, [WriteCall::Plain(sink.bytes.len())]);
        writer.flush(&mut sink).unwrap();
        assert_eq!(sink.calls.len(), 1, "nothing queued, nothing written");

        let mut source = CountingReader::new(&sink.bytes);
        let mut reader = FrameReader::new();
        for frame in 0..FRAMES {
            assert_eq!(reader.has_frame(), frame > 0);
            let payload = reader.read(&mut source).unwrap();
            assert_eq!(decode_request(payload), Ok(commit()));
        }
        assert_eq!(
            source.offered,
            [BUFFER_BYTES],
            "every frame of the burst comes out of the one read that brought it in"
        );
        assert!(!reader.has_frame());
    }

    #[test]
    fn a_full_burst_buffer_flushes_itself_and_keeps_frame_order() {
        // More small frames than the buffer holds: the writer flushes what
        // it has when the next frame does not fit, never splitting a frame
        // and never reordering.
        let payload = pattern(1000);
        let frames = 2 * BUFFER_BYTES / (PREFIX_BYTES + payload.len());
        let mut sink = CountingWriter::default();
        let mut writer = FrameWriter::new();
        for _ in 0..frames {
            writer.queue(&mut sink, &payload).unwrap();
        }
        writer.flush(&mut sink).unwrap();
        assert!(sink.calls.iter().all(
            |call| matches!(call, WriteCall::Plain(n) if *n <= BUFFER_BYTES
                && n % (PREFIX_BYTES + payload.len()) == 0)
        ));
        let mut reader = FrameReader::new();
        let mut source = CountingReader::new(&sink.bytes);
        for _ in 0..frames {
            assert_eq!(reader.read(&mut source).unwrap(), &payload[..]);
        }
        assert!(source.bytes.is_empty() && !reader.has_frame());
    }

    #[test]
    fn frames_at_the_buffer_boundary_round_trip_and_large_ones_bypass_it() {
        // `BUFFER_BYTES - 4` is the largest payload whose frame still fits.
        for len in [
            BUFFER_BYTES - 5,
            BUFFER_BYTES - 4,
            BUFFER_BYTES,
            BUFFER_BYTES + 1,
        ] {
            let fits = PREFIX_BYTES + len <= BUFFER_BYTES;
            let (small, payload) = (pattern(9), pattern(len));
            let mut sink = CountingWriter::default();
            let mut writer = FrameWriter::new();
            writer.queue(&mut sink, &small).unwrap();
            writer.queue(&mut sink, &payload).unwrap();
            // Either way the small frame queued first cannot share the
            // buffer with this one, so it leaves first…
            assert_eq!(sink.calls[0], WriteCall::Plain(PREFIX_BYTES + small.len()));
            if fits {
                // …and a frame that fits waits for the flush,
                assert_eq!(sink.calls.len(), 1, "{len}");
                writer.flush(&mut sink).unwrap();
                assert_eq!(sink.calls[1], WriteCall::Plain(PREFIX_BYTES + len));
            } else {
                // while one that does not goes out at once, header and
                // payload in one vectored call, never copied into the burst.
                assert_eq!(sink.calls[1], WriteCall::Vectored(PREFIX_BYTES + len));
                writer.flush(&mut sink).unwrap();
            }
            assert_eq!(sink.calls.len(), 2, "{len}");

            let mut source = CountingReader::new(&sink.bytes);
            let mut reader = FrameReader::new();
            assert_eq!(reader.read(&mut source).unwrap(), &small[..]);
            assert_eq!(reader.read(&mut source).unwrap(), &payload[..], "{len}");
            // The first read filled the buffer; behind the small frame it
            // holds this much of the second one.
            let held = BUFFER_BYTES - (PREFIX_BYTES + small.len());
            if fits {
                // The tail of a frame that fits is read into the buffer,
                // behind the part already there.
                assert_eq!(source.offered, [BUFFER_BYTES, BUFFER_BYTES - held], "{len}");
            } else {
                // The rest of a frame that does not is read in place: one
                // call, sized to exactly what is missing of the payload.
                let missing = PREFIX_BYTES + len - held;
                assert_eq!(source.offered, [BUFFER_BYTES, missing], "{len}");
            }
            assert!(source.bytes.is_empty() && !reader.has_frame());
        }
    }

    #[test]
    fn frames_trickling_in_are_reassembled_across_reads() {
        // Small, boundary and large frames through a stream that yields
        // seven bytes a call: prefixes and payloads split at every offset,
        // and the unread tail moves to the front of the buffer many times.
        let lens = [0, 1, 9, 180, BUFFER_BYTES - 4, 3, BUFFER_BYTES + 1, 21, 21];
        let mut wire = Vec::new();
        let mut writer = FrameWriter::new();
        for len in lens {
            writer.queue(&mut wire, &pattern(len)).unwrap();
        }
        writer.flush(&mut wire).unwrap();
        let mut source = CountingReader::new(&wire);
        source.chunk = 7;
        let mut reader = FrameReader::new();
        for len in lens {
            assert_eq!(
                reader.read(&mut source).unwrap(),
                &pattern(len)[..],
                "{len}"
            );
        }
        let err = reader.read(&mut source).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn over_cap_frames_are_refused_before_they_are_buffered() {
        // Lazily zeroed, never read: the refusal is by length alone.
        let oversized = vec![0u8; MAX_FRAME_BYTES + 1];
        let mut sink = CountingWriter::default();
        let mut writer = FrameWriter::new();
        writer.queue(&mut sink, &pattern(9)).unwrap();
        let err = writer.queue(&mut sink, &oversized).unwrap_err();
        assert!(crate::proto::frame_refusal(&err).is_some());
        // The frame queued before it is untouched and still goes out.
        writer.flush(&mut sink).unwrap();
        assert_eq!(sink.calls, [WriteCall::Plain(PREFIX_BYTES + 9)]);

        let header = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        let err = FrameReader::new().read(&mut &header[..]).unwrap_err();
        assert!(crate::proto::frame_refusal(&err).is_some());
    }

    #[test]
    fn discarded_buffers_carry_nothing_to_the_next_stream() {
        let mut sink = CountingWriter::default();
        let mut writer = FrameWriter::new();
        writer.queue_request(&mut sink, &commit()).unwrap();
        writer.discard();
        writer.flush(&mut sink).unwrap();
        assert!(sink.calls.is_empty());

        let mut wire = Vec::new();
        writer.send_request(&mut wire, &commit()).unwrap();
        writer.send_request(&mut wire, &commit()).unwrap();
        let mut reader = FrameReader::new();
        reader.read(&mut &wire[..]).unwrap();
        assert!(reader.has_frame());
        reader.discard();
        assert!(!reader.has_frame());
    }

    #[test]
    fn pool_recycles_buffers_and_caps_retention() {
        let pool = FramePool::new();
        let mut buffer = pool.take();
        buffer.extend_from_slice(b"some encoded frame");
        let capacity = buffer.capacity();
        pool.put(buffer);
        let again = pool.take();
        assert!(again.is_empty(), "returned buffers come back cleared");
        assert_eq!(again.capacity(), capacity, "…with their capacity intact");
        pool.put(again);

        // Flooding the pool beyond its cap frees the excess instead of
        // hoarding it.
        for _ in 0..3 * POOL_CAP {
            pool.put(Vec::with_capacity(64));
        }
        assert!(pool.buffers.lock().len() <= POOL_CAP);
    }

    /// A writer that accepts exactly one byte per call, forcing both the
    /// burst's `write_all` and the vectored write in `write_frame` down
    /// their short-write paths on every single byte.
    struct OneByteWriter(Vec<u8>);

    impl Write for OneByteWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            self.0.push(buf[0]);
            Ok(1)
        }

        // Inherit the default `write_vectored`, which forwards to `write`
        // of the first non-empty slice — exactly the "OS took fewer bytes
        // than offered" shape the fallback must absorb.

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_still_produce_exact_frames() {
        let large = pattern(BUFFER_BYTES + 1);
        let mut short = OneByteWriter(Vec::new());
        let mut writer = FrameWriter::new();
        writer.send_request(&mut short, &commit()).unwrap();
        writer.queue(&mut short, &large).unwrap();

        let mut full = Vec::new();
        writer.send_request(&mut full, &commit()).unwrap();
        writer.queue(&mut full, &large).unwrap();
        assert_eq!(short.0, full, "byte-identical regardless of write sizes");

        let mut reader = FrameReader::new();
        let mut stream: &[u8] = &short.0;
        let payload = reader.read(&mut stream).unwrap();
        assert_eq!(decode_request(payload), Ok(commit()));
        assert_eq!(reader.read(&mut stream).unwrap(), &large[..]);
    }

    /// A writer that dies after `n` accepted bytes — a flush must surface
    /// `WriteZero`, not spin.
    struct DyingWriter {
        remaining: usize,
    }

    impl Write for DyingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.remaining);
            self.remaining -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writers_that_stop_accepting_bytes_error_out() {
        for remaining in 0..8 {
            for large in [false, true] {
                let mut dying = DyingWriter { remaining };
                let mut writer = FrameWriter::new();
                let err = if large {
                    writer
                        .queue(&mut dying, &pattern(BUFFER_BYTES))
                        .unwrap_err()
                } else {
                    writer.send_request(&mut dying, &commit()).unwrap_err()
                };
                assert_eq!(err.kind(), std::io::ErrorKind::WriteZero, "{remaining}");
            }
        }
    }
}

//! Codec layer: length-prefixed frames over pooled, reused buffers.
//!
//! [`crate::proto`] defines the byte format; this module owns the *buffer
//! discipline* around it, so the serve path allocates nothing per frame in
//! steady state:
//!
//! * [`FrameReader`] / [`FrameWriter`] — one per connection side.  Each
//!   reuses a single scratch buffer across frames: it grows to the largest
//!   frame the connection has seen and is reused from then on.  Writes go
//!   out through [`crate::proto::write_frame`]'s single vectored
//!   header+payload syscall.
//! * [`FramePool`] — a small shared pool of encoded-frame buffers for the
//!   pipelined server, where the *dispatch* stage encodes a reply and the
//!   *writer* stage flushes it on another thread: the buffer travels down
//!   the reply queue and comes back to the pool once written, instead of
//!   being allocated and freed per reply.
//!
//! `crates/dds/tests/framing_alloc.rs` pins the zero-allocation property
//! with a counting allocator.

use crate::proto::{
    encode_reply_into, encode_request_into, read_frame, write_frame, Reply, Request,
    MAX_FRAME_BYTES,
};
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::sync::Arc;

/// Read side of one connection: a reusable payload scratch buffer.
#[derive(Default)]
pub struct FrameReader {
    payload: Vec<u8>,
}

impl FrameReader {
    /// A reader with an empty scratch (it grows on first use).
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Read the next frame from `reader` into the scratch and return its
    /// payload.  Steady-state allocation-free once the scratch has grown to
    /// the connection's working frame size.
    pub fn read<R: Read>(&mut self, reader: &mut R) -> std::io::Result<&[u8]> {
        read_frame(reader, &mut self.payload)?;
        Ok(&self.payload)
    }
}

/// Write side of one connection: encodes into a reusable scratch buffer and
/// emits each frame with one vectored write.
#[derive(Default)]
pub struct FrameWriter {
    payload: Vec<u8>,
}

impl FrameWriter {
    /// A writer with an empty scratch (it grows on first use).
    pub fn new() -> FrameWriter {
        FrameWriter::default()
    }

    /// Encode `request` into the scratch and write it as one frame.
    pub fn send_request<W: Write>(
        &mut self,
        writer: &mut W,
        request: &Request,
    ) -> std::io::Result<()> {
        encode_request_into(&mut self.payload, request);
        write_frame(writer, &self.payload)
    }

    /// Encode `reply` into the scratch and write it as one frame.
    pub fn send_reply<W: Write>(&mut self, writer: &mut W, reply: &Reply) -> std::io::Result<()> {
        encode_reply_into(&mut self.payload, reply);
        write_frame(writer, &self.payload)
    }
}

/// Buffers a [`FramePool`] retains at most; beyond this, returned buffers
/// are simply freed.  A pipelined connection needs two or three in rotation
/// (one being encoded, one in the queue, one being written), so a small cap
/// bounds the memory a burst of large epoch frames can pin.
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
        // The second (smaller) frame reuses the same scratch; the slice is
        // sized to the frame, not to the scratch capacity.
        let payload = reader.read(&mut stream).unwrap();
        assert_eq!(decode_request(payload), Ok(Request::Goodbye));
        assert!(stream.is_empty());
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

    /// A writer that accepts exactly one byte per call, forcing the
    /// vectored write in `write_frame` down its short-write path on every
    /// single byte of header and payload.
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
    fn short_vectored_writes_still_produce_exact_frames() {
        let mut short = OneByteWriter(Vec::new());
        let mut writer = FrameWriter::new();
        writer.send_request(&mut short, &commit()).unwrap();

        let mut full = Vec::new();
        writer.send_request(&mut full, &commit()).unwrap();
        assert_eq!(short.0, full, "byte-identical regardless of write sizes");

        let mut reader = FrameReader::new();
        let mut stream: &[u8] = &short.0;
        let payload = reader.read(&mut stream).unwrap();
        assert_eq!(decode_request(payload), Ok(commit()));
    }

    /// A writer that dies after `n` accepted bytes — `write_frame` must
    /// surface `WriteZero`, not spin.
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
            let mut dying = DyingWriter { remaining };
            let mut writer = FrameWriter::new();
            let err = writer.send_request(&mut dying, &commit()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::WriteZero, "{remaining}");
        }
    }
}

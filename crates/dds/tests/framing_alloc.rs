//! Pins the allocation behaviour of the wire path with the counting
//! `#[global_allocator]` shim of `counting_alloc/` (checkable without
//! external tooling):
//!
//! * once the scratch buffers have grown to the connection's working frame
//!   size, encoding and framing a request — and reading it back — must not
//!   touch the allocator at all, frame by frame or burst by burst through
//!   the connection's buffered reader and writer;
//! * a frozen epoch crosses the wire from hash maps to bytes to hash maps:
//!   the owner encodes it into a warm pooled buffer with no allocation, and
//!   the client decodes it with a handful of allocations per *shard*, never
//!   one per key — a change that reintroduces a `Vec` per key fails here
//!   rather than in a benchmark run.

use ampc_dds::proto::{
    decode_request, encode_reply, encode_request_into, read_frame, write_frame, EpochFrame, Reply,
    Request, ShardFrame,
};
use ampc_dds::transport::codec::{FrameReader, FrameWriter};
use ampc_dds::transport::{ClientReply, OwnerReply, ServerTransport};
use ampc_dds::{Key, KeyTag, TcpOptions, TcpTransport, Transport, Value};
use std::net::TcpListener;

mod counting_alloc;
use counting_alloc::allocations;

fn commit(seq: u64) -> Request {
    Request::Commit {
        epoch: 0,
        seq,
        batches: vec![(
            0,
            (0..16)
                .map(|i| (Key::of(KeyTag::Scalar, i), Value::scalar(seq + i)))
                .collect(),
        )],
    }
}

#[test]
fn steady_state_framing_allocates_nothing() {
    let request = commit(1);

    // Warm-up: one full encode → frame → read pass grows every scratch
    // buffer to its working size.
    let mut encoded = Vec::new();
    let mut wire = Vec::new();
    let mut scratch = Vec::new();
    encode_request_into(&mut encoded, &request);
    write_frame(&mut wire, &encoded).unwrap();
    let mut reader: &[u8] = &wire;
    read_frame(&mut reader, &mut scratch).unwrap();
    assert_eq!(scratch, encoded, "warm-up pass must round-trip");

    // Steady state: the identical traffic, many times over, must be
    // allocation-free — the scratches are reused, the frame goes out
    // through the vectored write, and the read resizes within capacity.
    let before = allocations();
    for _ in 0..256 {
        encode_request_into(&mut encoded, &request);
        wire.clear();
        write_frame(&mut wire, &encoded).unwrap();
        let mut reader: &[u8] = &wire;
        read_frame(&mut reader, &mut scratch).unwrap();
    }
    assert_eq!(
        allocations(),
        before,
        "steady-state framing must not allocate"
    );
    assert_eq!(scratch, encoded, "steady-state passes still round-trip");
}

#[test]
fn steady_state_bursts_allocate_nothing() {
    // A connection's two codec ends as the session layer drives them: a
    // window of small requests queued and flushed as one burst, a frame
    // too large for the burst buffer written through, and all of them read
    // back.  The buffers are the connection's, allocated once; the first
    // pass grows the encode and payload scratches.
    let small: Vec<Request> = (0..32).map(commit).collect();
    let large = Request::Commit {
        epoch: 0,
        seq: 99,
        batches: vec![(
            0,
            (0..4096)
                .map(|i| (Key::of(KeyTag::Scalar, i), Value::scalar(i)))
                .collect(),
        )],
    };
    let mut writer = FrameWriter::new();
    let mut reader = FrameReader::new();
    let mut wire = Vec::new();
    let mut pass = |wire: &mut Vec<u8>| {
        wire.clear();
        for request in &small {
            writer.queue_request(wire, request).unwrap();
        }
        writer.queue_request(wire, &large).unwrap();
        writer.flush(wire).unwrap();
        let mut stream: &[u8] = wire;
        let mut bytes = 0;
        for _ in 0..=small.len() {
            bytes += reader.read(&mut stream).unwrap().len();
        }
        assert!(stream.is_empty());
        bytes
    };
    let warm = pass(&mut wire);
    let before = allocations();
    for _ in 0..64 {
        assert_eq!(pass(&mut wire), warm);
    }
    assert_eq!(
        allocations(),
        before,
        "steady-state bursts must not allocate"
    );
}

/// A scripted owner on its own thread (whose allocations the thread-local
/// counter never sees): grant the lease, then answer every request with
/// `payload` until the client leaves.
fn epoch_owner(payload: Vec<u8>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let owner = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut scratch = Vec::new();
        read_frame(&mut stream, &mut scratch).unwrap();
        let Ok(Request::Lease {
            session, ttl_ms, ..
        }) = decode_request(&scratch)
        else {
            panic!("a lease opens every connection");
        };
        let granted = Reply::LeaseGranted {
            session,
            ttl_ms,
            resumed: false,
            shard_map: None,
        };
        write_frame(&mut stream, &encode_reply(&granted)).unwrap();
        while read_frame(&mut stream, &mut scratch).is_ok() {
            if decode_request(&scratch) == Ok(Request::Goodbye) {
                break;
            }
            write_frame(&mut stream, &payload).unwrap();
        }
    });
    (addr, owner)
}

#[test]
fn an_epoch_crosses_the_wire_without_an_allocation_per_key() {
    const SHARDS: usize = 4;
    const KEYS: u64 = 10_000;
    // The epoch as a typed frame — scaffolding, free to allocate: 10 000
    // single-value keys dealt over the shards.
    let frame = EpochFrame {
        shards: (0..SHARDS as u64)
            .map(|shard| ShardFrame {
                writes: KEYS / SHARDS as u64,
                entries: (0..KEYS)
                    .filter(|key| key % SHARDS as u64 == shard)
                    .map(|key| (Key::of(KeyTag::Scalar, key), vec![Value::scalar(key)]))
                    .collect(),
            })
            .collect(),
    };
    let (addr, owner) = epoch_owner(encode_reply(&Reply::Epoch(frame)));

    // Decode, on this thread: the first advance grows the connection's
    // read scratch to the frame; the second is the steady state.
    let mut client = TcpTransport::connect_to(addr, 0, TcpOptions::fresh()).unwrap();
    client.send(Request::Advance { epoch: 0 }).unwrap();
    assert!(matches!(client.recv(), Ok(ClientReply::SharedEpoch(_))));
    client.send(Request::Advance { epoch: 1 }).unwrap();
    let before = allocations();
    let reply = client.recv();
    let decoding = allocations() - before;
    let Ok(ClientReply::SharedEpoch(epoch)) = reply else {
        panic!("an advance is answered with a frozen epoch");
    };
    // One map per shard plus the vectors and the `Arc` that hold them —
    // not one list per key.
    assert!(
        decoding <= 2 * SHARDS as u64 + 8,
        "decoding {KEYS} single-value keys over {SHARDS} shards allocated {decoding} times"
    );
    drop(client);
    owner.join().unwrap();

    // Encode, on this thread: play the owner's dispatch stage by hand and
    // answer a lock-step peer with the epoch just decoded.  Early rounds
    // grow the pooled reply buffers; from then on encoding must allocate
    // nothing.  (The minimum over the rounds, because whether the writer
    // stage has handed the last buffer back yet is its business; an
    // encoder that allocates per key allocates on every round.)
    const ROUNDS: usize = 8;
    let (mut peer, mut server) = TcpTransport::connect_pair(0, TcpOptions::fresh()).unwrap();
    let peer = std::thread::spawn(move || {
        for epoch in 0..ROUNDS {
            peer.send(Request::Advance { epoch }).unwrap();
            assert!(matches!(peer.recv(), Ok(ClientReply::SharedEpoch(_))));
        }
    });
    let mut encoding = Vec::new();
    while let Some(request) = server.recv_request() {
        assert!(matches!(request, Request::Advance { .. }));
        let before = allocations();
        server.send_reply(OwnerReply::Epoch(epoch.clone()));
        encoding.push(allocations() - before);
    }
    peer.join().unwrap();
    assert_eq!(encoding.len(), ROUNDS);
    assert_eq!(
        encoding[2..].iter().min(),
        Some(&0),
        "encoding into a warm pooled buffer must not allocate: {encoding:?}"
    );
}

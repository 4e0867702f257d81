//! The client against a *scripted* owner: a bare `TcpListener` that speaks
//! exactly the frames a test tells it to, so the rules a real owner never
//! breaks on its own — which lease grant arrives when, how many shards an
//! epoch carries — are each pinned deterministically.

use ampc_dds::proto::{
    decode_request, encode_reply, read_frame, write_frame, EpochFrame, ProtoError, Reply, Request,
    MAX_FRAME_BYTES,
};
use ampc_dds::transport::ClientReply;
use ampc_dds::{TcpBackend, TcpOptions, TcpTransport, Transport, TransportError};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;

/// The next request on `stream`, or `None` once the client is gone.
fn next_request(stream: &mut TcpStream) -> Option<Request> {
    let mut payload = Vec::new();
    read_frame(stream, &mut payload).ok()?;
    Some(decode_request(&payload).expect("clients send well-formed frames"))
}

fn reply(stream: &mut TcpStream, reply: &Reply) {
    write_frame(stream, &encode_reply(reply)).expect("the client is still connected");
}

/// Read the lease that opens a connection and grant it with `resumed`.
fn grant(stream: &mut TcpStream, resumed: bool) {
    let Some(Request::Lease {
        session, ttl_ms, ..
    }) = next_request(stream)
    else {
        panic!("a lease opens every connection");
    };
    let granted = Reply::LeaseGranted {
        session,
        ttl_ms,
        resumed,
        shard_map: None,
    };
    reply(stream, &granted);
}

/// Serve `script.len()` connections in turn: `Some(resumed)` grants the
/// lease with that flag and answers one `TotalWrites`, `None` reads the
/// lease and closes the connection with it unanswered.
fn lease_owner(script: Vec<Option<bool>>) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let owner = std::thread::spawn(move || {
        for resumed in script {
            let (mut stream, _) = listener.accept().unwrap();
            let Some(resumed) = resumed else {
                assert!(matches!(
                    next_request(&mut stream),
                    Some(Request::Lease { .. })
                ));
                continue;
            };
            grant(&mut stream, resumed);
            if let Some(request) = next_request(&mut stream) {
                assert_eq!(request, Request::TotalWrites);
                reply(&mut stream, &Reply::TotalWrites(5));
            }
        }
    });
    (addr, owner)
}

#[test]
fn a_session_severed_before_its_first_grant_accepts_a_fresh_one() {
    // The first connection dies with its lease unanswered; the reconnect's
    // handshake then reaches the owner first and is granted as a fresh
    // session.  Nothing was ever acknowledged, and the request is replayed
    // in full, so the client must carry on.
    let (addr, owner) = lease_owner(vec![None, Some(false)]);
    let mut client = TcpTransport::connect_to(addr, 0, TcpOptions::fresh()).unwrap();
    client.send(Request::TotalWrites).unwrap();
    match client.recv() {
        Ok(ClientReply::Wire(Reply::TotalWrites(5))) => {}
        Ok(_) => panic!("the replayed request must be answered"),
        Err(err) => panic!("a never-granted session has no lease to lose: {err}"),
    }
    drop(client);
    owner.join().unwrap();
}

#[test]
fn a_granted_session_that_reconnects_to_fresh_state_lost_its_lease() {
    // Granted, served, severed — and the reconnect is granted as a fresh
    // session: the owner reclaimed acknowledged state.
    let (addr, owner) = lease_owner(vec![Some(false), Some(false)]);
    let options = TcpOptions::fresh();
    let session = options.session;
    let mut client = TcpTransport::connect_to(addr, 0, options).unwrap();
    client.send(Request::TotalWrites).unwrap();
    assert!(matches!(
        client.recv(),
        Ok(ClientReply::Wire(Reply::TotalWrites(5)))
    ));
    // The owner closed the first connection after that reply.
    client.send(Request::TotalWrites).unwrap();
    assert_eq!(
        client.recv().err(),
        Some(TransportError::LeaseLost { worker: 0, session })
    );
    drop(client);
    owner.join().unwrap();
}

#[test]
fn a_length_prefix_over_the_cap_fails_typed_without_a_reconnect() {
    // Garbage where a frame header should be: the client must report the
    // typed refusal at once.  Treating it as a dead socket would dial the
    // owner again (a second accept, which this owner never makes) and have
    // it replay the same bytes.
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let owner = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        grant(&mut stream, false);
        assert_eq!(next_request(&mut stream), Some(Request::TotalWrites));
        let header = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        stream.write_all(&header).unwrap();
    });
    let mut client = TcpTransport::connect_to(addr, 2, TcpOptions::fresh()).unwrap();
    client.send(Request::TotalWrites).unwrap();
    assert_eq!(
        client.recv().err(),
        Some(TransportError::Proto {
            worker: 2,
            error: ProtoError::Oversized {
                len: MAX_FRAME_BYTES + 1,
                max: MAX_FRAME_BYTES,
            },
        })
    );
    drop(client);
    owner.join().unwrap();
}

#[test]
fn short_epoch_frames_fail_the_advance_not_the_readers() {
    // An owner that answers `Advance` with a frame of no shards at all — or
    // of any count but its share of the routing table (all four shards,
    // here): the advance must fail with a typed protocol error instead of
    // handing machines a view that panics on its first lookup.
    for carried in [0usize, 3, 5] {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let owner = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            grant(&mut stream, false);
            assert_eq!(
                next_request(&mut stream),
                Some(Request::Advance { epoch: 0 })
            );
            let short = Reply::Epoch(EpochFrame {
                shards: vec![Default::default(); carried],
            });
            reply(&mut stream, &short);
            // Hold the socket until the client has read the frame and left.
            while next_request(&mut stream).is_some() {}
        });
        let mut backend = TcpBackend::connect_remote(addr, 4, 1).unwrap();
        match backend.try_advance() {
            Err(TransportError::Protocol { worker: 0, message }) => {
                let expected = format!("carries {carried} shards");
                assert!(message.contains(&expected), "{message}");
            }
            other => panic!("expected a rejected frame, got {other:?}"),
        }
        drop(backend);
        owner.join().unwrap();
    }
}

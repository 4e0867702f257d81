//! Every owner a backend spawns is a thread it joins: once a backend has
//! dropped, the process runs exactly the threads it ran before the backend
//! was built — whichever constructor built it, and whether or not an owner
//! died panicking first.
//!
//! Linux-only (it counts `/proc/self/task`), and the only `#[test]` of its
//! binary, so no other test's threads are counted.

#![cfg(target_os = "linux")]

use ampc_dds::{
    ChannelBackend, DdsBackend, Key, KeyTag, RemoteBackend, SnapshotView, TcpBackend, Transport,
    TransportError, Value,
};

/// Threads of this process that are not on their way out.  `join` returns
/// once the kernel has cleared the joined thread's tid, a step of its exit
/// that comes after the task is flagged `PF_EXITING` and a moment before it
/// leaves `/proc/self/task` — a moment a loaded host can stretch.  A task
/// flagged so has finished running; a detached thread still serving has
/// not, and is counted.
fn threads() -> usize {
    const PF_EXITING: u64 = 0x4;
    std::fs::read_dir("/proc/self/task")
        .expect("listing /proc/self/task")
        .filter_map(|task| {
            let stat = std::fs::read_to_string(task.ok()?.path().join("stat")).ok()?;
            // `tid (comm) state ppid pgrp session tty_nr tpgid flags …`
            let flags: u64 = stat
                .rsplit_once(')')?
                .1
                .split_whitespace()
                .nth(6)?
                .parse()
                .ok()?;
            (flags & PF_EXITING == 0).then_some(())
        })
        .count()
}

/// Commit, advance and read one epoch; with `owner_panics`, then ask for an
/// epoch that does not exist, which kills the owners, and check that the
/// panic surfaced through the join.  The backend drops on return.
fn exercise<T: Transport>(mut backend: RemoteBackend<T>, owner_panics: bool) {
    let key = Key::of(KeyTag::Scalar, 1);
    backend.commit_round(vec![vec![(key, Value::scalar(10))]], 1);
    assert_eq!(backend.advance(1).get(&key), Some(Value::scalar(10)));
    if owner_panics {
        match backend.epoch_loads(7) {
            Err(TransportError::PeerClosed {
                panic: Some(message),
                ..
            }) => assert!(message.contains("unknown epoch 7"), "{message}"),
            other => panic!("expected a harvested owner panic, got {other:?}"),
        }
    }
}

#[test]
fn a_dropped_backend_leaves_no_owner_thread_behind() {
    for owner_panics in [false, true] {
        let constructors: [(&str, &dyn Fn()); 4] = [
            ("ChannelBackend::new(4, 2)", &|| {
                exercise(ChannelBackend::new(4, 2), owner_panics)
            }),
            ("TcpBackend::new(4, 2)", &|| {
                exercise(TcpBackend::new(4, 2), owner_panics)
            }),
            ("TcpBackend::spawn_local(1, 4)", &|| {
                exercise(TcpBackend::spawn_local(1, 4).unwrap(), owner_panics)
            }),
            ("TcpBackend::spawn_local(3, 4)", &|| {
                exercise(TcpBackend::spawn_local(3, 4).unwrap(), owner_panics)
            }),
        ];
        for (name, build_use_and_drop) in constructors {
            let before = threads();
            build_use_and_drop();
            assert_eq!(
                threads(),
                before,
                "threads still running after {name} dropped (owner panicked: {owner_panics})"
            );
        }
    }
}

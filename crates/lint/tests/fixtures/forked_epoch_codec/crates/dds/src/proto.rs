pub enum RequestKind {
    Commit,
    Advance,
}

pub enum Request {
    Commit { seq: u64 },
    Advance { epoch: usize },
}

pub enum Reply {
    Committed,
    Epoch(Vec<u64>),
}

pub enum ReplayPolicy {
    Deduped,
    Idempotent,
    Pure,
}

pub const REPLAY_POLICY: &[(RequestKind, ReplayPolicy)] = &[
    (RequestKind::Commit, ReplayPolicy::Deduped),
    (RequestKind::Advance, ReplayPolicy::Idempotent),
];

const TAG_COMMIT: u8 = 0;
const TAG_ADVANCE: u8 = 1;

const TAG_COMMITTED: u8 = 0;
const TAG_EPOCH: u8 = 1;

pub fn encode_request_into(buf: &mut Vec<u8>, request: &Request) {
    match request {
        Request::Commit { .. } => buf.push(TAG_COMMIT),
        Request::Advance { .. } => buf.push(TAG_ADVANCE),
    }
}

pub fn decode_request(bytes: &[u8]) -> Option<Request> {
    match bytes.first()? {
        &TAG_COMMIT => Some(Request::Commit { seq: 0 }),
        &TAG_ADVANCE => Some(Request::Advance { epoch: 0 }),
        _ => None,
    }
}

// The shared writer: reached from `encode_reply_into`, so the tag counts as
// used by the encoder although the entry point itself does not name it.
fn put_epoch(buf: &mut Vec<u8>, words: &[u64]) {
    buf.push(TAG_EPOCH);
    for word in words {
        buf.extend_from_slice(&word.to_le_bytes());
    }
}

pub fn encode_reply_into(buf: &mut Vec<u8>, reply: &Reply) {
    match reply {
        Reply::Committed => buf.push(TAG_COMMITTED),
        Reply::Epoch(words) => put_epoch(buf, words),
    }
}

// Seeded violation 1: a second, hand-rolled writer of the epoch payload.
pub fn encode_epoch_from_maps(buf: &mut Vec<u8>, words: &[u64]) {
    buf.push(TAG_EPOCH);
    buf.extend(words.iter().flat_map(|word| word.to_le_bytes()));
}

pub fn decode_reply(bytes: &[u8]) -> Option<Reply> {
    match *bytes.first()? {
        TAG_COMMITTED => Some(Reply::Committed),
        TAG_EPOCH => Some(Reply::Epoch(Vec::new())),
        _ => None,
    }
}

// Seeded violation 2: a second parser matching the tag on its own.
pub fn decode_epoch_into_maps(bytes: &[u8]) -> Option<Vec<u64>> {
    match *bytes.first()? {
        TAG_EPOCH => Some(Vec::new()),
        _ => None,
    }
}

// Seeded violation 3: sniffing the tag outside the codec, the first step of
// a decoder of its own.
pub fn is_epoch(payload: &[u8]) -> bool {
    payload.first() == Some(&crate::proto::TAG_EPOCH)
}

//! **const-consistency** — numeric invariants that span files.
//!
//! Two relationships hold the transport together and nothing but
//! convention kept them aligned:
//!
//! * `COMMIT_REPLAY_WINDOW` (dispatch) must be ≥ 2 × `PIPELINE_DEPTH` and
//!   ≥ `MAX_PIPELINE` (session): a reconnect replays up to a full pipeline
//!   of outstanding commits, and the dedup window must still recognize all
//!   of them *plus* the new traffic pipelined behind the replay.
//! * the frame-size cap must be the same number in `proto.rs`
//!   (`MAX_FRAME_BYTES`, rejects oversized frames) and
//!   `transport/codec.rs` (`MAX_RETAINED_FRAME_BYTES`, stops the frame
//!   pool from pinning buffers no legal frame can need).

use crate::diag::Diagnostic;
use crate::parse;
use crate::workspace::Workspace;

pub const NAME: &str = "const-consistency";

const DISPATCH: &str = "crates/dds/src/transport/dispatch.rs";
const SESSION: &str = "crates/dds/src/transport/session.rs";
const PROTO: &str = "crates/dds/src/proto.rs";
const TCODEC: &str = "crates/dds/src/transport/codec.rs";

pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    let window = anchor(ws, DISPATCH, "COMMIT_REPLAY_WINDOW", &mut diags);
    let depth = anchor(ws, SESSION, "PIPELINE_DEPTH", &mut diags);
    let max_pipeline = anchor(ws, SESSION, "MAX_PIPELINE", &mut diags);
    if let (Some((window, line)), Some((depth, _))) = (window, depth) {
        if window < 2 * depth {
            diags.push(Diagnostic::new(
                NAME,
                DISPATCH,
                line,
                format!(
                    "COMMIT_REPLAY_WINDOW ({window}) < 2 × PIPELINE_DEPTH ({depth}): a reconnect replaying a full pipeline could fall outside the dedup window and double-apply commits"
                ),
            ));
        }
    }
    if let (Some((window, _)), Some((max_pipeline, line))) = (window, max_pipeline) {
        if max_pipeline > window {
            diags.push(Diagnostic::new(
                NAME,
                SESSION,
                line,
                format!(
                    "MAX_PIPELINE ({max_pipeline}) > COMMIT_REPLAY_WINDOW ({window}): the deepest legal pipeline outruns commit deduplication"
                ),
            ));
        }
    }

    let frame_cap = anchor(ws, PROTO, "MAX_FRAME_BYTES", &mut diags);
    let retain_cap = anchor(ws, TCODEC, "MAX_RETAINED_FRAME_BYTES", &mut diags);
    if let (Some((frame, _)), Some((retain, line))) = (frame_cap, retain_cap) {
        if frame != retain {
            diags.push(Diagnostic::new(
                NAME,
                TCODEC,
                line,
                format!(
                    "MAX_RETAINED_FRAME_BYTES ({retain}) != proto::MAX_FRAME_BYTES ({frame}): the frame pool's retention cap must equal the legal frame cap"
                ),
            ));
        }
    }

    diags
}

fn anchor(
    ws: &Workspace,
    file: &'static str,
    name: &str,
    diags: &mut Vec<Diagnostic>,
) -> Option<(u128, usize)> {
    let Some(sf) = ws.file(file) else {
        diags.push(Diagnostic::new(
            NAME,
            file,
            0,
            format!("file not found — anchor const `{name}` unreachable"),
        ));
        return None;
    };
    let found = parse::const_value(sf, name);
    if found.is_none() {
        diags.push(Diagnostic::new(
            NAME,
            file,
            0,
            format!("anchor const `{name}` not found or not a literal expression"),
        ));
    }
    found
}

//! **proto-conformance** — the wire protocol's cross-file closure property.
//!
//! A protocol message is only *done* when four files agree: the variant in
//! `proto.rs`, a wire tag paired across encode and decode, a dispatch arm
//! in `transport/dispatch.rs`, and a replay classification in the
//! `REPLAY_POLICY` table (the PR 5/6 idempotent-replay guarantee says every
//! request must be safe to replay — so every request must *declare* why).
//! This pass fails the build when any leg is missing:
//!
//! * a `Request` variant with no `Request::X` match arm in `Worker::handle`;
//! * a wire tag duplicated within the request or reply codec, or declared
//!   but not used by both the encoder and the decoder of its direction
//!   (a codec function *uses* a tag when its body, or a helper of the same
//!   file its body reaches, names it);
//! * a wire tag pushed at more than one site, matched at more than one
//!   site, or named anywhere else under `crates/dds/src` — a payload whose
//!   layout two code paths share (the frozen epoch: typed frame and hash
//!   maps) must share *one* writer and *one* parser, so a second
//!   hand-rolled encoder or decoder of a tag is a finding;
//! * a `Request` variant without exactly one `REPLAY_POLICY` entry, or an
//!   entry naming an unknown variant or policy;
//! * `RequestKind` drifting from `Request` (the fault-injection keyspace).

use crate::diag::Diagnostic;
use crate::parse;
use crate::source::{contains_word, find_word, SourceFile};
use crate::workspace::Workspace;
use std::collections::{BTreeMap, BTreeSet};

pub const NAME: &str = "proto-conformance";

const DDS_SRC: &str = "crates/dds/src/";
const PROTO: &str = "crates/dds/src/proto.rs";
const DISPATCH: &str = "crates/dds/src/transport/dispatch.rs";

const POLICIES: [&str; 3] = ["Idempotent", "Deduped", "Pure"];

pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let Some(proto) = ws.file(PROTO) else {
        diags.push(Diagnostic::new(
            NAME,
            PROTO,
            0,
            "file not found — the protocol definition moved without updating ampc-lint",
        ));
        return diags;
    };

    let Some(req_variants) = parse::enum_variants(proto, "Request") else {
        diags.push(Diagnostic::new(NAME, PROTO, 0, "no `enum Request` found"));
        return diags;
    };
    let reply_variants = parse::enum_variants(proto, "Reply").unwrap_or_else(|| {
        diags.push(Diagnostic::new(NAME, PROTO, 0, "no `enum Reply` found"));
        Vec::new()
    });
    let kind_variants = parse::enum_variants(proto, "RequestKind").unwrap_or_default();

    let tags: Vec<parse::ConstDecl> = parse::const_decls(proto)
        .into_iter()
        .filter(|c| c.name.starts_with("TAG_"))
        .collect();
    check_tags(proto, &tags, &req_variants, &mut diags);
    check_tag_sites(ws, &tags, &mut diags);
    check_dispatch(ws, &req_variants, &mut diags);
    check_replay_policy(proto, &req_variants, &mut diags);
    check_kind_mirror(&req_variants, &kind_variants, &mut diags);
    let _ = reply_variants; // reply-side coverage is the tag pairing above

    diags
}

/// Wire-tag discipline: every `TAG_*` const must belong to exactly one
/// direction (request or reply), be used by both that direction's encoder
/// and decoder — directly or through the helpers they reach — and carry a
/// value unique within its direction.  Request
/// variants additionally map to their tag by naming convention
/// (`FreezeEpoch` → `TAG_FREEZE_EPOCH`), so a new variant cannot ship
/// without declaring a tag.
fn check_tags(
    proto: &SourceFile,
    tags: &[parse::ConstDecl],
    req_variants: &[(String, usize)],
    diags: &mut Vec<Diagnostic>,
) {
    let mut used: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for fn_name in [
        "encode_request_into",
        "decode_request",
        "encode_reply_into",
        "decode_reply",
    ] {
        let Some(spans) = parse::reachable_bodies(proto, fn_name) else {
            diags.push(Diagnostic::new(
                NAME,
                PROTO,
                0,
                format!("codec function `{fn_name}` not found"),
            ));
            continue;
        };
        let names = |tag: &&parse::ConstDecl| {
            spans
                .iter()
                .any(|&(open, close)| contains_word(&proto.code[open..close], &tag.name))
        };
        let set = tags.iter().filter(names).map(|t| t.name.clone()).collect();
        used.insert(fn_name, set);
    }
    let empty = BTreeSet::new();
    let enc_req = used.get("encode_request_into").unwrap_or(&empty);
    let dec_req = used.get("decode_request").unwrap_or(&empty);
    let enc_rep = used.get("encode_reply_into").unwrap_or(&empty);
    let dec_rep = used.get("decode_reply").unwrap_or(&empty);

    let mut req_values: BTreeMap<u128, &str> = BTreeMap::new();
    let mut reply_values: BTreeMap<u128, &str> = BTreeMap::new();
    for tag in tags {
        let in_req = enc_req.contains(&tag.name) || dec_req.contains(&tag.name);
        let in_rep = enc_rep.contains(&tag.name) || dec_rep.contains(&tag.name);
        match (in_req, in_rep) {
            (true, true) => diags.push(Diagnostic::new(
                NAME,
                PROTO,
                tag.line,
                format!(
                    "wire tag `{}` is used by both the request and reply codecs",
                    tag.name
                ),
            )),
            (false, false) => diags.push(Diagnostic::new(
                NAME,
                PROTO,
                tag.line,
                format!(
                    "unpaired wire tag `{}`: declared but used by no codec function",
                    tag.name
                ),
            )),
            (true, false) => {
                for (side, set) in [
                    ("encode_request_into", enc_req),
                    ("decode_request", dec_req),
                ] {
                    if !set.contains(&tag.name) {
                        diags.push(Diagnostic::new(
                            NAME,
                            PROTO,
                            tag.line,
                            format!("unpaired wire tag `{}`: missing from `{side}`", tag.name),
                        ));
                    }
                }
                record_value(&mut req_values, tag, "request", diags);
            }
            (false, true) => {
                for (side, set) in [("encode_reply_into", enc_rep), ("decode_reply", dec_rep)] {
                    if !set.contains(&tag.name) {
                        diags.push(Diagnostic::new(
                            NAME,
                            PROTO,
                            tag.line,
                            format!("unpaired wire tag `{}`: missing from `{side}`", tag.name),
                        ));
                    }
                }
                record_value(&mut reply_values, tag, "reply", diags);
            }
        }
    }

    // Variant → tag naming convention (request direction only; reply tags
    // disambiguate with a `_REPLY` suffix and are covered by pairing).
    for (variant, line) in req_variants {
        let expected = format!("TAG_{}", parse::camel_to_upper_snake(variant));
        if !tags.iter().any(|t| t.name == expected) {
            diags.push(Diagnostic::new(
                NAME,
                PROTO,
                *line,
                format!("Request::{variant} has no wire tag const `{expected}`"),
            ));
        }
    }
}

/// One writer and one parser per tag: outside its declaration, a `TAG_*`
/// const of `proto.rs` may be named in non-test code under `crates/dds/src`
/// only where it is pushed (`push(TAG_X)`) and where it is matched (a
/// `TAG_X =>` arm), once each.  A tag that is never pushed or never matched
/// is [`check_tags`]'s to report.
fn check_tag_sites(ws: &Workspace, tags: &[parse::ConstDecl], diags: &mut Vec<Diagnostic>) {
    for tag in tags {
        let (mut pushes, mut arms) = (Vec::new(), Vec::new());
        for file in ws.files().filter(|f| f.rel.starts_with(DDS_SRC)) {
            let mut from = 0usize;
            while let Some(at) = find_word(&file.code, &tag.name, from) {
                from = at + tag.name.len();
                let line = file.line_of(at);
                let before = file.code[..at].trim_end();
                if file.is_test_line(line) || (file.rel == PROTO && before.ends_with("const")) {
                    continue;
                }
                let site = format!("{}:{line}", file.rel);
                let after = file.code[from..].trim_start();
                if before.ends_with("push(") {
                    pushes.push(site);
                } else if after.starts_with("=>") {
                    arms.push(site);
                } else {
                    diags.push(Diagnostic::new(
                        NAME,
                        &file.rel,
                        line,
                        format!(
                            "wire tag `{}` named outside its one push and its one match arm — route this code path through the shared writer / parser in proto.rs instead of a second hand-rolled one",
                            tag.name
                        ),
                    ));
                }
            }
        }
        for (what, sites) in [("pushed", pushes), ("matched", arms)] {
            if sites.len() > 1 {
                diags.push(Diagnostic::new(
                    NAME,
                    PROTO,
                    tag.line,
                    format!(
                        "wire tag `{}` is {what} at {} sites ({}): its payload must have exactly one writer and one parser",
                        tag.name,
                        sites.len(),
                        sites.join(", ")
                    ),
                ));
            }
        }
    }
}

fn record_value<'a>(
    seen: &mut BTreeMap<u128, &'a str>,
    tag: &'a parse::ConstDecl,
    direction: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(value) = tag.value else {
        diags.push(Diagnostic::new(
            NAME,
            PROTO,
            tag.line,
            format!(
                "wire tag `{}` has a non-literal value ampc-lint cannot check",
                tag.name
            ),
        ));
        return;
    };
    if let Some(previous) = seen.insert(value, &tag.name) {
        diags.push(Diagnostic::new(
            NAME,
            PROTO,
            tag.line,
            format!(
                "duplicate {direction} wire tag value {value}: `{}` collides with `{previous}`",
                tag.name
            ),
        ));
    }
}

/// Every `Request` variant must have a `Request::X` match arm in the owner
/// dispatch (`Worker::handle`).  Lifecycle variants consumed by the session
/// layer still appear there — in the arm that rejects them loudly.
fn check_dispatch(ws: &Workspace, req_variants: &[(String, usize)], diags: &mut Vec<Diagnostic>) {
    let Some(dispatch) = ws.file(DISPATCH) else {
        diags.push(Diagnostic::new(
            NAME,
            DISPATCH,
            0,
            "file not found — the dispatch layer moved without updating ampc-lint",
        ));
        return;
    };
    let Some(span) = parse::fn_body_span(dispatch, "handle") else {
        diags.push(Diagnostic::new(
            NAME,
            DISPATCH,
            0,
            "no `fn handle` found in the dispatch worker",
        ));
        return;
    };
    let handled: BTreeSet<String> = parse::path_refs(dispatch, span, "Request")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    for (variant, line) in req_variants {
        if !handled.contains(variant) {
            diags.push(Diagnostic::new(
                NAME,
                DISPATCH,
                0,
                format!(
                    "Request::{variant} (declared at {PROTO}:{line}) has no match arm in `Worker::handle`"
                ),
            ));
        }
    }
}

/// Every `Request` variant needs exactly one `REPLAY_POLICY` entry naming a
/// valid policy; entries must not name unknown variants.
fn check_replay_policy(
    proto: &SourceFile,
    req_variants: &[(String, usize)],
    diags: &mut Vec<Diagnostic>,
) {
    let Some(entries) = parse::replay_policy(proto) else {
        diags.push(Diagnostic::new(
            NAME,
            PROTO,
            0,
            "no REPLAY_POLICY table found — every request must declare its replay classification",
        ));
        return;
    };
    let variants: BTreeSet<&str> = req_variants.iter().map(|(n, _)| n.as_str()).collect();
    let mut classified: BTreeMap<&str, usize> = BTreeMap::new();
    for (variant, policy, line) in &entries {
        if !variants.contains(variant.as_str()) {
            diags.push(Diagnostic::new(
                NAME,
                PROTO,
                *line,
                format!("REPLAY_POLICY entry names unknown request variant `{variant}`"),
            ));
            continue;
        }
        if !POLICIES.contains(&policy.as_str()) {
            diags.push(Diagnostic::new(
                NAME,
                PROTO,
                *line,
                format!(
                    "REPLAY_POLICY entry for `{variant}` has malformed policy `{policy}` (expected one of {POLICIES:?})"
                ),
            ));
        }
        if let Some(first) = classified.insert(variant.as_str(), *line) {
            diags.push(Diagnostic::new(
                NAME,
                PROTO,
                *line,
                format!("duplicate REPLAY_POLICY entry for `{variant}` (first at line {first})"),
            ));
        }
    }
    for (variant, line) in req_variants {
        if !classified.contains_key(variant.as_str()) {
            diags.push(Diagnostic::new(
                NAME,
                PROTO,
                *line,
                format!(
                    "Request::{variant} missing from REPLAY_POLICY — classify it (idempotent | deduped | pure)"
                ),
            ));
        }
    }
}

/// `RequestKind` (the fault-injection keyspace) must mirror `Request`.
fn check_kind_mirror(
    req_variants: &[(String, usize)],
    kind_variants: &[(String, usize)],
    diags: &mut Vec<Diagnostic>,
) {
    if kind_variants.is_empty() {
        return; // fixtures without RequestKind exercise other checks
    }
    let kinds: BTreeSet<&str> = kind_variants.iter().map(|(n, _)| n.as_str()).collect();
    let reqs: BTreeSet<&str> = req_variants.iter().map(|(n, _)| n.as_str()).collect();
    for (variant, line) in req_variants {
        if !kinds.contains(variant.as_str()) {
            diags.push(Diagnostic::new(
                NAME,
                PROTO,
                *line,
                format!("Request::{variant} has no RequestKind mirror variant"),
            ));
        }
    }
    for (variant, line) in kind_variants {
        if !reqs.contains(variant.as_str()) {
            diags.push(Diagnostic::new(
                NAME,
                PROTO,
                *line,
                format!("RequestKind::{variant} names no Request variant"),
            ));
        }
    }
}

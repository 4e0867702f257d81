//! Item-level recovery on blanked source: enums and their variants, const
//! integer values (with a small const-expression evaluator), function body
//! spans, `Path::Variant` references, and the `REPLAY_POLICY` table.
//!
//! Everything here operates on [`SourceFile::code`] — comments and literal
//! contents are already spaces, so plain substring scans are token scans.

use crate::source::{contains_word, find_word, is_ident_byte, match_delim, SourceFile};

/// Read the identifier starting at `b[at]`, if any.
fn ident_at(b: &[u8], at: usize) -> Option<&str> {
    if at >= b.len() || !(b[at].is_ascii_alphabetic() || b[at] == b'_') {
        return None;
    }
    let mut end = at;
    while end < b.len() && is_ident_byte(b[end]) {
        end += 1;
    }
    std::str::from_utf8(&b[at..end]).ok()
}

fn skip_ws(b: &[u8], mut at: usize) -> usize {
    while at < b.len() && (b[at] as char).is_whitespace() {
        at += 1;
    }
    at
}

/// Variants of `enum <name>`: `(variant, line)` in declaration order.
pub fn enum_variants(sf: &SourceFile, name: &str) -> Option<Vec<(String, usize)>> {
    let code = &sf.code;
    let b = code.as_bytes();
    let mut at = 0usize;
    let body_open = loop {
        let kw = find_word(code, "enum", at)?;
        let ident_start = skip_ws(b, kw + 4);
        if ident_at(b, ident_start) == Some(name) {
            let open = code[ident_start..].find('{')? + ident_start;
            break open;
        }
        at = kw + 4;
    };
    let close = match_delim(b, body_open, b'{', b'}')?;
    let mut variants = Vec::new();
    let mut i = body_open + 1;
    while i < close {
        i = skip_ws(b, i);
        if i >= close {
            break;
        }
        // Skip variant attributes.
        if b[i] == b'#' {
            let open = skip_ws(b, i + 1);
            if b.get(open) == Some(&b'[') {
                i = match_delim(b, open, b'[', b']')? + 1;
                continue;
            }
        }
        let Some(ident) = ident_at(b, i) else {
            i += 1;
            continue;
        };
        variants.push((ident.to_string(), sf.line_of(i)));
        i += ident.len();
        // Skip the variant payload/discriminant to the next top-level comma.
        let mut depth = 0isize;
        while i < close {
            match b[i] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b',' if depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    Some(variants)
}

/// A `const <name>: <ty> = <expr>;` declaration.
pub struct ConstDecl {
    pub name: String,
    /// Evaluated value, when the initializer is a literal expression.
    pub value: Option<u128>,
    pub line: usize,
}

/// All const declarations in the file (any visibility, module level or
/// associated).
pub fn const_decls(sf: &SourceFile) -> Vec<ConstDecl> {
    let code = &sf.code;
    let b = code.as_bytes();
    let mut out = Vec::new();
    let mut at = 0usize;
    while let Some(kw) = find_word(code, "const", at) {
        at = kw + 5;
        let ident_start = skip_ws(b, at);
        let Some(name) = ident_at(b, ident_start) else {
            continue; // `*const T`, `const fn`, `const _` etc.
        };
        if name == "fn" {
            continue;
        }
        let Some(eq_rel) = code[ident_start..].find('=') else {
            continue;
        };
        let expr_start = ident_start + eq_rel + 1;
        let Some(semi_rel) = code[expr_start..].find(';') else {
            continue;
        };
        let expr = &code[expr_start..expr_start + semi_rel];
        out.push(ConstDecl {
            name: name.to_string(),
            value: eval_const(expr),
            line: sf.line_of(kw),
        });
    }
    out
}

/// The const named `name`, with an evaluated integer value.
pub fn const_value(sf: &SourceFile, name: &str) -> Option<(u128, usize)> {
    const_decls(sf)
        .into_iter()
        .find(|c| c.name == name)
        .and_then(|c| c.value.map(|v| (v, c.line)))
}

// ---------------------------------------------------------------------------
// Const-expression evaluation: integers, `_` separators, type suffixes,
// parens, `<< >> * / + -`.
// ---------------------------------------------------------------------------

/// Evaluate a literal integer expression; `None` when it references
/// identifiers or uses unsupported syntax.
pub fn eval_const(expr: &str) -> Option<u128> {
    let tokens = tokenize(expr)?;
    let mut pos = 0usize;
    let value = parse_shift(&tokens, &mut pos)?;
    if pos == tokens.len() {
        Some(value)
    } else {
        None
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Num(u128),
    Op(char),
    Shl,
    Shr,
    LParen,
    RParen,
}

fn tokenize(expr: &str) -> Option<Vec<Tok>> {
    let b = expr.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        if (c as char).is_whitespace() {
            i += 1;
        } else if c.is_ascii_digit() {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            toks.push(Tok::Num(parse_int(&expr[start..i])?));
        } else if c == b'<' && b.get(i + 1) == Some(&b'<') {
            toks.push(Tok::Shl);
            i += 2;
        } else if c == b'>' && b.get(i + 1) == Some(&b'>') {
            toks.push(Tok::Shr);
            i += 2;
        } else if matches!(c, b'*' | b'/' | b'+' | b'-') {
            toks.push(Tok::Op(c as char));
            i += 1;
        } else if c == b'(' {
            toks.push(Tok::LParen);
            i += 1;
        } else if c == b')' {
            toks.push(Tok::RParen);
            i += 1;
        } else {
            return None;
        }
    }
    Some(toks)
}

fn parse_int(text: &str) -> Option<u128> {
    let clean: String = text.chars().filter(|&c| c != '_').collect();
    let (radix, digits) = if let Some(rest) = clean.strip_prefix("0x") {
        (16, rest)
    } else if let Some(rest) = clean.strip_prefix("0b") {
        (2, rest)
    } else if let Some(rest) = clean.strip_prefix("0o") {
        (8, rest)
    } else {
        (10, clean.as_str())
    };
    // A type suffix (`128usize`, `0xFFu8`) starts at the first non-digit.
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    if end == 0 {
        return None;
    }
    u128::from_str_radix(&digits[..end], radix).ok()
}

fn parse_shift(toks: &[Tok], pos: &mut usize) -> Option<u128> {
    let mut left = parse_add(toks, pos)?;
    while let Some(op) = toks.get(*pos) {
        match op {
            Tok::Shl => {
                *pos += 1;
                left = left.checked_shl(parse_add(toks, pos)?.try_into().ok()?)?;
            }
            Tok::Shr => {
                *pos += 1;
                left = left.checked_shr(parse_add(toks, pos)?.try_into().ok()?)?;
            }
            _ => break,
        }
    }
    Some(left)
}

fn parse_add(toks: &[Tok], pos: &mut usize) -> Option<u128> {
    let mut left = parse_mul(toks, pos)?;
    while let Some(&Tok::Op(op)) = toks.get(*pos) {
        if op != '+' && op != '-' {
            break;
        }
        *pos += 1;
        let right = parse_mul(toks, pos)?;
        left = if op == '+' {
            left.checked_add(right)?
        } else {
            left.checked_sub(right)?
        };
    }
    Some(left)
}

fn parse_mul(toks: &[Tok], pos: &mut usize) -> Option<u128> {
    let mut left = parse_atom(toks, pos)?;
    while let Some(&Tok::Op(op)) = toks.get(*pos) {
        if op != '*' && op != '/' {
            break;
        }
        *pos += 1;
        let right = parse_atom(toks, pos)?;
        left = if op == '*' {
            left.checked_mul(right)?
        } else {
            left.checked_div(right)?
        };
    }
    Some(left)
}

fn parse_atom(toks: &[Tok], pos: &mut usize) -> Option<u128> {
    match toks.get(*pos)? {
        Tok::Num(n) => {
            *pos += 1;
            Some(*n)
        }
        Tok::LParen => {
            *pos += 1;
            let v = parse_shift(toks, pos)?;
            if toks.get(*pos) == Some(&Tok::RParen) {
                *pos += 1;
                Some(v)
            } else {
                None
            }
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Functions and path references
// ---------------------------------------------------------------------------

/// Every `fn` of the file that has a body: `(name, (open, close))`, the span
/// covering the body's braces.  Bodiless declarations (trait methods ending
/// in `;`) are skipped.
pub fn fn_bodies(sf: &SourceFile) -> Vec<(&str, (usize, usize))> {
    let code = &sf.code;
    let b = code.as_bytes();
    let mut out = Vec::new();
    let mut at = 0usize;
    while let Some(kw) = find_word(code, "fn", at) {
        at = kw + 2;
        let ident_start = skip_ws(b, at);
        let Some(name) = ident_at(b, ident_start) else {
            continue; // `fn(usize) -> T` pointer types
        };
        // First `{` at paren/bracket depth 0 after the signature; a `;`
        // there first means the declaration has no body.
        let mut i = ident_start + name.len();
        let mut depth = 0isize;
        while i < b.len() {
            match b[i] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b';' if depth == 0 => break,
                b'{' if depth == 0 => {
                    if let Some(close) = match_delim(b, i, b'{', b'}') {
                        out.push((name, (i, close)));
                    }
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    out
}

/// Byte span `(open, close)` of the body of `fn <name>` (braces included).
pub fn fn_body_span(sf: &SourceFile, name: &str) -> Option<(usize, usize)> {
    fn_bodies(sf)
        .into_iter()
        .find(|(found, _)| *found == name)
        .map(|(_, span)| span)
}

/// The body of `fn <entry>` plus the body of every fn of the same file it
/// names, transitively — what a codec entry point *reaches* once its
/// layout lives in helpers it shares with another entry point.  Matching
/// is by word, so a fn sharing its name with a field or local is reached
/// too: an over-approximation, harmless as long as only codec code names
/// wire tags.  `None` when `entry` is absent.
pub fn reachable_bodies(sf: &SourceFile, entry: &str) -> Option<Vec<(usize, usize)>> {
    let bodies = fn_bodies(sf);
    let mut reached = vec![false; bodies.len()];
    let mut queue: Vec<usize> = (0..bodies.len())
        .filter(|&i| bodies[i].0 == entry)
        .collect();
    if queue.is_empty() {
        return None;
    }
    for &i in &queue {
        reached[i] = true;
    }
    while let Some(from) = queue.pop() {
        let (open, close) = bodies[from].1;
        let body = &sf.code[open..close];
        for (i, (name, _)) in bodies.iter().enumerate() {
            if !reached[i] && contains_word(body, name) {
                reached[i] = true;
                queue.push(i);
            }
        }
    }
    Some(
        bodies
            .iter()
            .zip(reached)
            .filter(|(_, hit)| *hit)
            .map(|((_, span), _)| *span)
            .collect(),
    )
}

/// `(variant, line)` for every `base::Variant` reference inside
/// `code[span]`.  `RequestKind::X` does not match base `Request` (word
/// boundaries are respected).
pub fn path_refs(sf: &SourceFile, span: (usize, usize), base: &str) -> Vec<(String, usize)> {
    let slice = &sf.code[span.0..span.1];
    let b = slice.as_bytes();
    let mut out = Vec::new();
    let mut at = 0usize;
    while let Some(pos) = find_word(slice, base, at) {
        at = pos + base.len();
        let sep = skip_ws(b, at);
        if !slice[sep..].starts_with("::") {
            continue;
        }
        let ident_start = skip_ws(b, sep + 2);
        if let Some(ident) = ident_at(b, ident_start) {
            out.push((ident.to_string(), sf.line_of(span.0 + pos)));
            at = ident_start + ident.len();
        }
    }
    out
}

/// Whole-file span, for [`path_refs`] over everything.
pub fn full_span(sf: &SourceFile) -> (usize, usize) {
    (0, sf.code.len())
}

/// The `REPLAY_POLICY` table: `(request_variant, policy_variant, line)` per
/// entry, or `None` when the table is absent.
pub fn replay_policy(sf: &SourceFile) -> Option<Vec<(String, String, usize)>> {
    let code = &sf.code;
    let start = find_word(code, "REPLAY_POLICY", 0)?;
    let semi = code[start..].find(';')? + start;
    let span = (start, semi);
    let kinds = path_refs(sf, span, "RequestKind");
    let policies = path_refs(sf, span, "ReplayPolicy");
    // Entries are `(RequestKind::X, ReplayPolicy::Y)` pairs in order; the
    // type annotation contributes one leading RequestKind/ReplayPolicy pair
    // only when written with paths, which it is not.
    if kinds.len() != policies.len() {
        return Some(
            kinds
                .into_iter()
                .map(|(k, line)| (k, String::new(), line))
                .collect(),
        );
    }
    Some(
        kinds
            .into_iter()
            .zip(policies)
            .map(|((k, line), (p, _))| (k, p, line))
            .collect(),
    )
}

/// CamelCase → UPPER_SNAKE, for variant → tag-const naming checks
/// (`FreezeEpoch` → `FREEZE_EPOCH`).
pub fn camel_to_upper_snake(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() && i > 0 {
            out.push('_');
        }
        out.push(c.to_ascii_uppercase());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(src: &str) -> SourceFile {
        SourceFile::parse("x.rs", src)
    }

    #[test]
    fn parses_enum_variants() {
        let f = sf("pub enum Request {\n  Commit { epoch: usize },\n  Advance(usize),\n  #[allow(dead_code)]\n  Loads,\n}\n");
        let v = enum_variants(&f, "Request").unwrap();
        let names: Vec<&str> = v.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["Commit", "Advance", "Loads"]);
        assert_eq!(v[1].1, 3);
    }

    #[test]
    fn distinguishes_enum_names() {
        let f = sf("enum RequestKind { A }\nenum Request { B }\n");
        let v = enum_variants(&f, "Request").unwrap();
        assert_eq!(v[0].0, "B");
    }

    #[test]
    fn evaluates_const_exprs() {
        assert_eq!(eval_const("256 << 20"), Some(256 << 20));
        assert_eq!(eval_const(" 64 "), Some(64));
        assert_eq!(eval_const("2 * (3 + 4)"), Some(14));
        assert_eq!(eval_const("0x1_0000"), Some(0x1_0000));
        assert_eq!(eval_const("SOME_IDENT"), None);
        assert_eq!(eval_const("128usize"), Some(128));
    }

    #[test]
    fn finds_const_decls() {
        let f = sf("pub const MAX_FRAME_BYTES: usize = 256 << 20;\nconst TAG_COMMIT: u8 = 0;\n");
        let (v, line) = const_value(&f, "MAX_FRAME_BYTES").unwrap();
        assert_eq!(v, 256 << 20);
        assert_eq!(line, 1);
        assert_eq!(const_value(&f, "TAG_COMMIT").unwrap().0, 0);
    }

    #[test]
    fn finds_fn_body_and_path_refs() {
        let f = sf("fn other() { Request::Advance; }\nfn handle(r: Request) {\n  match r {\n    Request::Commit { .. } => {}\n    Request::Lease { .. } | Request::Goodbye => {}\n  }\n  RequestKind::Commit;\n}\n");
        let span = fn_body_span(&f, "handle").unwrap();
        let refs = path_refs(&f, span, "Request");
        let names: Vec<&str> = refs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["Commit", "Lease", "Goodbye"]);
    }

    #[test]
    fn bodiless_fns_are_skipped_and_helpers_are_reached() {
        let f = sf("trait Sink {\n  fn shard(n: usize) -> Self;\n  fn done(self);\n}\nfn entry() { helper(); }\nfn helper() { leaf([0u8; 4]) }\nfn leaf(_: [u8; 4]) { TAG_A; }\nfn stranger() { TAG_B; }\n");
        let names: Vec<&str> = fn_bodies(&f).iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["entry", "helper", "leaf", "stranger"]);
        let reached = reachable_bodies(&f, "entry").unwrap();
        let text: String = reached.iter().map(|&(o, c)| &f.code[o..c]).collect();
        assert!(text.contains("TAG_A") && !text.contains("TAG_B"), "{text}");
        assert!(reachable_bodies(&f, "absent").is_none());
    }

    #[test]
    fn parses_replay_policy() {
        let f = sf("pub const REPLAY_POLICY: &[(RequestKind, ReplayPolicy)] = &[\n  (RequestKind::Commit, ReplayPolicy::Deduped),\n  (RequestKind::Loads, ReplayPolicy::Pure),\n];\n");
        let entries = replay_policy(&f).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, "Commit");
        assert_eq!(entries[0].1, "Deduped");
        assert_eq!(entries[1].2, 3);
    }

    #[test]
    fn camel_conversion() {
        assert_eq!(camel_to_upper_snake("FreezeEpoch"), "FREEZE_EPOCH");
        assert_eq!(camel_to_upper_snake("Commit"), "COMMIT");
        assert_eq!(camel_to_upper_snake("TotalWrites"), "TOTAL_WRITES");
    }
}

//! The frozen read-back corpus of the text format,
//! `tests/golden/compat/profile_text_v1.txt`: the golden profiles as
//! `write_profile` wrote them, the other spellings the reader accepts
//! (tabs, runs of spaces, `+7`, the legacy `u64::MAX` minimum, lines
//! after the last `end`, `\r\n`, escaped names), one input per refusal,
//! and every truncation and a mutation sample of one rich profile — each
//! with the verdict of the reader that preceded the byte-level walk. The
//! file is never regenerated; its header states the format.

use pomp::fnv1a;
use profstore::{encode_record, put_meta, transcode_text, RunMeta};

/// The record body after the header of the payload `record` for `meta`.
fn body_of<'r>(record: &'r [u8], meta: &RunMeta) -> &'r [u8] {
    let mut header = Vec::new();
    put_meta(&mut header, meta);
    assert_eq!(&record[..header.len()], &header[..]);
    &record[header.len()..]
}

fn refused(e: cube::ParseError) -> String {
    format!("err {} {} {}", e.line, e.column, e.message)
}

/// What `read_profile` made of one input, as the corpus spells it.
fn read(input: &str) -> String {
    match cube::read_profile(input) {
        Ok(profile) => {
            let text = cube::write_profile(&profile);
            let meta = RunMeta::default();
            let record = encode_record(&meta, &profile);
            let body = body_of(&record, &meta);
            format!(
                "ok {} {:016x} {} {:016x}",
                text.len(),
                fnv1a(text.as_bytes()),
                body.len(),
                fnv1a(body)
            )
        }
        Err(e) => refused(e),
    }
}

/// What `transcode_text` made of one input: the verdict's body length
/// and hash, or the error.
fn transcode(input: &str) -> String {
    match transcode_text(input) {
        Ok(body) => {
            let meta = RunMeta::default();
            let record = body.stamp(&meta);
            let body = body_of(&record, &meta);
            format!("ok {} {:016x}", body.len(), fnv1a(body))
        }
        Err(e) => refused(e),
    }
}

/// A corpus verdict without what only `read_profile` reports: the
/// length and hash of the text it writes back.
fn body_verdict(verdict: &str) -> String {
    match verdict.strip_prefix("ok ") {
        Some(rest) => {
            let fields: Vec<&str> = rest.split(' ').collect();
            format!("ok {} {}", fields[2], fields[3])
        }
        None => verdict.to_string(),
    }
}

/// The inverse of the corpus escapes (see its header).
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                assert_eq!(chars.next(), Some('{'), "corpus escape in {s:?}");
                let hex: String = chars.by_ref().take_while(|&c| c != '}').collect();
                let code = u32::from_str_radix(&hex, 16).expect("corpus escape");
                out.push(char::from_u32(code).expect("corpus escape"));
            }
            other => panic!("unknown corpus escape {other:?} in {s:?}"),
        }
    }
    out
}

/// A verdict from the corpus, its message unescaped.
fn expected(verdict: &str) -> String {
    match verdict.strip_prefix("err ") {
        Some(rest) => {
            let mut parts = rest.splitn(3, ' ');
            let (line, column) = (parts.next().unwrap(), parts.next().unwrap());
            format!(
                "err {line} {column} {}",
                unescape(parts.next().unwrap_or(""))
            )
        }
        None => verdict.to_string(),
    }
}

/// Every (what, input, verdict) of the corpus.
fn corpus() -> Vec<(String, String, String)> {
    let mut cases = Vec::new();
    let (mut label, mut text) = (String::new(), String::new());
    for line in include_str!("golden/compat/profile_text_v1.txt").lines() {
        if line.starts_with('#') {
            continue;
        }
        let (key, rest) = line.split_once(' ').expect("<kind> <rest>");
        match key {
            "case" => label = rest.to_string(),
            "text" => text = unescape(rest),
            "read" => cases.push((label.clone(), text.clone(), expected(rest))),
            "cut" => {
                let (n, verdict) = rest.split_once(' ').expect("cut N VERDICT");
                let n: usize = n.parse().expect("cut length");
                let what = format!("{label}: first {n} bytes");
                cases.push((what, text[..n].to_string(), expected(verdict)));
            }
            "set" => {
                let mut parts = rest.splitn(3, ' ');
                let at: usize = parts.next().unwrap().parse().expect("set position");
                let repl = match parts.next().unwrap() {
                    "~" => String::new(),
                    r => unescape(r),
                };
                let old = text[at..].chars().next().expect("a character at AT");
                let mutated = format!("{}{repl}{}", &text[..at], &text[at + old.len_utf8()..]);
                let what = format!("{label}: {old:?} at {at} set to {repl:?}");
                cases.push((what, mutated, expected(parts.next().unwrap())));
            }
            other => panic!("unknown corpus line kind {other:?}"),
        }
    }
    cases
}

#[test]
fn the_reader_gives_every_frozen_verdict() {
    let cases = corpus();
    assert!(cases.len() > 1500, "corpus truncated: {}", cases.len());
    let ok = cases.iter().filter(|(_, _, v)| v.starts_with("ok")).count();
    assert!(
        ok > 150 && cases.len() - ok > 1000,
        "{ok} of {}",
        cases.len()
    );
    for (what, input, want) in &cases {
        assert_eq!(&read(input), want, "{what}: {input:?}");
    }
}

/// The transcoder accepts and refuses what the reader did, with the same
/// error, and writes the body the encoder wrote for what the reader read.
#[test]
fn the_transcoder_gives_every_frozen_verdict() {
    for (what, input, want) in corpus() {
        assert_eq!(transcode(&input), body_verdict(&want), "{what}: {input:?}");
    }
}

//! The frozen wire corpus, `tests/golden/compat/wire_v1.txt`: one
//! canonical entry per `Request` / `Response` shape with its TPF1 payload
//! and JSON line, the compat inputs each decoder still accepts, and the
//! inputs both refuse — every verdict as the hand-written codecs of
//! commit 0c78482 gave it. The file is never regenerated; its header
//! states the rules checked here.

use profserve::protocol::hex_decode;
use profserve::wire::{decode_request, decode_response, encode_request, encode_response};
use profserve::{Request, Response};
use std::fmt::Debug;

struct Entry {
    label: String,
    request: bool,
    bin: Option<Vec<u8>>,
    json: Option<String>,
    val: Option<String>,
    jval: Option<String>,
}

fn corpus() -> Vec<Entry> {
    let mut entries: Vec<Entry> = Vec::new();
    for line in include_str!("golden/compat/wire_v1.txt").lines() {
        if line.starts_with('#') {
            continue;
        }
        if let Some(head) = line.strip_prefix("== ") {
            let (kind, label) = head.split_once(' ').expect("== <kind> <label>");
            entries.push(Entry {
                label: label.to_string(),
                request: kind == "request",
                bin: None,
                json: None,
                val: None,
                jval: None,
            });
            continue;
        }
        let e = entries.last_mut().expect("a line before the first entry");
        let (key, value) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "bin" => e.bin = Some(hex_decode(value).expect("corpus hex")),
            "json" => e.json = Some(value.to_string()),
            "val" => e.val = Some(value.to_string()),
            "jval" => e.jval = Some(value.to_string()),
            other => panic!("unknown corpus line kind {other:?}"),
        }
    }
    assert!(entries.len() > 400, "corpus truncated: {}", entries.len());
    entries
}

/// A decoded message: its `Debug` rendering and what each encoder makes
/// of it again.
struct Decoded {
    debug: String,
    bin: Vec<u8>,
    json: String,
}

impl Decoded {
    fn of<T: Debug>(v: &T, bin: fn(&T) -> Vec<u8>, json: fn(&T) -> String) -> Self {
        Decoded {
            debug: format!("{v:?}"),
            bin: bin(v),
            json: json(v),
        }
    }
}

fn from_bin(request: bool, payload: &[u8]) -> Result<Decoded, String> {
    if request {
        decode_request(payload)
            .map(|r| Decoded::of(&r, encode_request, Request::to_json_line))
            .map_err(|e| e.to_string())
    } else {
        decode_response(payload)
            .map(|r| Decoded::of(&r, encode_response, Response::to_json_line))
            .map_err(|e| e.to_string())
    }
}

fn from_json(request: bool, line: &str) -> Result<Decoded, String> {
    if request {
        Request::from_json_line(line)
            .map(|r| Decoded::of(&r, encode_request, Request::to_json_line))
    } else {
        Response::from_json_line(line)
            .map(|r| Decoded::of(&r, encode_response, Response::to_json_line))
    }
}

fn canonical(e: &Entry) -> Option<(&[u8], &str)> {
    match (&e.bin, &e.json, &e.val) {
        (Some(bin), Some(json), Some(_)) => Some((bin, json)),
        _ => None,
    }
}

#[test]
fn every_entry_decodes_to_its_frozen_value_or_is_refused() {
    for e in corpus() {
        let label = &e.label;
        let bin = e.bin.as_deref().map(|b| from_bin(e.request, b));
        let json = e.json.as_deref().map(|l| from_json(e.request, l));
        match &e.val {
            None => {
                if let Some(Ok(d)) = &bin {
                    panic!("{label}: payload newly accepted as {}", d.debug);
                }
                if let Some(Ok(d)) = &json {
                    panic!("{label}: line newly accepted as {}", d.debug);
                }
            }
            Some(val) => {
                if let Some(bin) = bin {
                    let d = bin.unwrap_or_else(|e| panic!("{label}: payload refused: {e}"));
                    assert_eq!(&d.debug, val, "{label}: payload");
                }
                if let Some(json) = json {
                    let d = json.unwrap_or_else(|e| panic!("{label}: line refused: {e}"));
                    assert_eq!(&d.debug, e.jval.as_ref().unwrap_or(val), "{label}: line");
                }
            }
        }
    }
}

#[test]
fn both_encoders_write_the_canonical_bytes() {
    let entries = corpus();
    let mut seen = 0;
    for e in &entries {
        let Some((bin, json)) = canonical(e) else {
            continue;
        };
        seen += 1;
        let d = from_bin(e.request, bin).expect("canonical payload");
        assert_eq!(d.bin, bin, "{}: TPF1 encoding", e.label);
        assert_eq!(
            d.json, json,
            "{}: JSON encoding of the payload's value",
            e.label
        );
        let d = from_json(e.request, json).expect("canonical line");
        assert_eq!(
            d.json, json,
            "{}: JSON encoding of the line's value",
            e.label
        );
    }
    assert!(seen >= 60, "only {seen} canonical entries");
}

#[test]
fn cut_and_padded_canonical_lines_are_refused() {
    for e in corpus() {
        let Some((bin, json)) = canonical(&e) else {
            continue;
        };
        let label = &e.label;
        for cut in 0..bin.len() {
            if let Ok(d) = from_bin(e.request, &bin[..cut]) {
                // The one accepted prefix: a HELLO from before the auth
                // extension, whose canonical form adds the absent-flag byte.
                assert!(
                    d.debug.starts_with("Hello {") && d.bin == [&bin[..cut], &[0]].concat(),
                    "{label}: payload cut at {cut} accepted as {}",
                    d.debug
                );
            }
        }
        let padded = [bin, &[0]].concat();
        assert!(
            from_bin(e.request, &padded).is_err(),
            "{label}: trailing byte accepted"
        );
        for cut in (0..json.len()).filter(|&i| json.is_char_boundary(i)) {
            assert!(
                from_json(e.request, &json[..cut]).is_err(),
                "{label}: line cut at {cut} accepted"
            );
        }
    }
}

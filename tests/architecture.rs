//! The shapes this tree removed stay removed.
//!
//! Each row of [`SHAPES`] is one shape a change deleted — a second
//! recorder of the hook stream, a hashing DAG builder, an ingest that
//! decodes what it only stores, a vendored stub built as a workspace
//! member — with the literal spellings that would bring it back, the
//! paths they may not appear in, the files or functions allowed to use
//! them, why the shape went, and the commit that removed it (or, for a
//! shape that was never let in, the commit that drew the line).
//!
//! The tree is read with `std::fs` from the package root. Directories
//! named `target` or starting with `.`, and this file, are skipped. A
//! needle is a plain substring of one line, or of the line with its `_`
//! removed and its letters lowercased for a [`Check::Folded`] row; a path
//! is a prefix (`crates/critpath/src/`), a suffix (`*.rs`) or both
//! (`crates/*.rs`).

use std::path::Path;

/// One removed shape: a row of [`SHAPES`].
struct Shape {
    name: &'static str,
    why: &'static str,
    /// The commit that removed the shape, or first kept it out.
    removed_in: &'static str,
    checks: &'static [Check],
}

/// One way a shape comes back.
enum Check {
    /// A needle on a line of a covered file outside the allowed ones.
    Text {
        needles: &'static [&'static str],
        paths: &'static [&'static str],
        allowed: &'static [&'static str],
    },
    /// [`Check::Text`] on each line with its `_` removed and its letters
    /// lowercased, so one lowercase needle stands for every spelling of a
    /// name or a number literal.
    Folded {
        needles: &'static [&'static str],
        paths: &'static [&'static str],
        allowed: &'static [&'static str],
    },
    /// A needle inside the body of one of `items` (see [`item_lines`])
    /// in a covered file.
    InItems {
        items: &'static [&'static str],
        needles: &'static [&'static str],
        paths: &'static [&'static str],
    },
    /// A needle in a covered file outside the bodies of `items`.
    OutsideItems {
        items: &'static [&'static str],
        needles: &'static [&'static str],
        paths: &'static [&'static str],
    },
    /// Any file under one of these directories.
    Exists(&'static [&'static str]),
    /// A package under `vendor/` that the root workspace would build and
    /// test as a member.
    VendoredMember,
}

const SHAPES: &[Shape] = &[
    Shape {
        name: "one recorder, one event language",
        why: "the packed edge log in crates/core is the only transcript of the hook stream and \
              taskprof::Event the only enum naming its events; the three recorders that rode \
              beside it drifted apart unnoticed",
        removed_in: "07a0759",
        checks: &[Check::Text {
            needles: &[
                "TraceMonitor",
                "TraceThread",
                "EventRecorder",
                "RecorderThread",
                "enum EventKind",
            ],
            paths: &["*.rs"],
            allowed: &[],
        }],
    },
    Shape {
        name: "one flat task DAG",
        why: "critpath builds its DAG in index-addressed arrays; a map keyed by task or a vector \
              per vertex is the shape that cost 6 us per task",
        removed_in: "5cb5db6",
        checks: &[Check::Text {
            needles: &["TaskKey", "Vec<Vec<"],
            paths: &["crates/critpath/src/"],
            allowed: &[],
        }],
    },
    Shape {
        name: "one walk of the edge log",
        why: "the Section VII trace analysis reads the critpath DAG builder's walk \
              (crates/critpath/src/analysis.rs); the trace crate walked the log a second time \
              with maps of its own, and the two walkers drifted",
        removed_in: "cd0b2c2",
        checks: &[
            Check::Exists(&["crates/trace/"]),
            Check::Text {
                needles: &["taskprof_trace", "read_trace", "from_edge_log"],
                paths: &["*.rs", "*.toml"],
                allowed: &[],
            },
            Check::Text {
                needles: &["HashMap<TaskId"],
                paths: &["crates/critpath/src/"],
                allowed: &[],
            },
        ],
    },
    Shape {
        name: "one form of the edge log",
        why: "a drained edge log is the packed words the hooks wrote, decoded one event at a time \
              as the critpath walk reads it; the per-thread Vec<Event> cost 24 B per event and \
              set glibc's trim threshold, and the origins list beside it read as 0 where missing",
        removed_in: "1d2c6c7",
        checks: &[
            Check::Text {
                needles: &["into_events"],
                paths: &["*.rs"],
                allowed: &[],
            },
            Check::Text {
                needles: &[
                    "Vec<(usize, Vec<Event>",
                    "Vec<(usize, Vec<taskprof::Event>",
                    "pub origins",
                ],
                paths: &["crates/", "src/"],
                allowed: &[],
            },
        ],
    },
    Shape {
        name: "one store read path",
        why: "the store reads records through a SegmentReader holding one StoreIo::open_read \
              handle per segment; read_range survives only as the trait method that handle's \
              default falls back to",
        removed_in: "0c78482",
        checks: &[Check::Text {
            needles: &["read_range("],
            paths: &["crates/profstore/src/"],
            allowed: &["crates/profstore/src/io.rs"],
        }],
    },
    Shape {
        name: "one wire declaration",
        why: "every Request/Response field is declared once in crates/profserve/src/codec.rs and \
              both codecs derive from it; a varint written or read, a member looked up or a Json \
              tree built elsewhere in the daemon is a second spelling of the wire",
        removed_in: "95b899e",
        checks: &[Check::Text {
            needles: &["put_uv(", ".uv()?", "need_u64(", "Json::obj("],
            paths: &["crates/profserve/src/"],
            allowed: &[
                "crates/profserve/src/codec.rs",
                "crates/profserve/src/json.rs",
            ],
        }],
    },
    Shape {
        name: "one frame codec",
        why: "every profile at rest or in flight is one len | payload | crc32 frame written and \
              checked by crates/profstore/src/frame.rs alone; a crc32 call elsewhere is a second \
              hand-written frame, and the names below belonged to the framing code it replaced",
        removed_in: "b8105f7",
        checks: &[
            Check::Text {
                needles: &["crc32("],
                paths: &["crates/", "src/", "tests/"],
                allowed: &[
                    "crates/profstore/src/crc.rs",
                    "crates/profstore/src/frame.rs",
                ],
            },
            Check::Text {
                needles: &[
                    "payload_crc",
                    "frame_payload",
                    "FRAME_OVERHEAD",
                    "TailDefect",
                    "parse_spool_frame",
                ],
                paths: &["*.rs"],
                // The benchmark times profstore::crc::crc32 itself.
                allowed: &["benchmark/"],
            },
        ],
    },
    Shape {
        name: "machine code stays in two files",
        why: "architecture intrinsics and CPU feature dispatch live beside the portable code \
              other CPUs take, in the TSC clock read and the carry-less-multiply CRC fold; the \
              store's only unsafe code is that fold's loads and the calls into it",
        removed_in: "c6c06d6",
        checks: &[
            Check::Text {
                needles: &[
                    "core::arch",
                    "std::arch",
                    "target_feature",
                    "is_x86_feature_detected",
                ],
                paths: &["crates/", "src/", "tests/"],
                allowed: &["crates/pomp/src/clock.rs", "crates/profstore/src/crc.rs"],
            },
            Check::Text {
                needles: &["unsafe"],
                paths: &["crates/profstore/src/"],
                allowed: &["crates/profstore/src/crc.rs"],
            },
        ],
    },
    Shape {
        name: "one hand-off in core",
        why: "profiler threads share state a few times per thread per region, all of it under \
              one mutex in crates/core/src/monitor.rs; the Treiber stack and three atomics it \
              replaced let a drain check for live threads and take the snapshots in two steps",
        removed_in: "e0a2539",
        checks: &[
            Check::Text {
                needles: &["HandoffStack", "AtomicPtr", "std::sync::atomic"],
                paths: &["crates/core/src/"],
                allowed: &[],
            },
            Check::Text {
                needles: &["unsafe"],
                paths: &["crates/core/src/"],
                allowed: &["crates/core/src/monitor.rs"],
            },
        ],
    },
    Shape {
        name: "one readiness backend",
        why: "the daemon's reactor waits in one poll(2) call on a set rebuilt from its connection \
              table; the epoll backend kept registration state in step by hand and needed five \
              unsafe sites, and reactor.rs's one poll call is the crate's only foreign call",
        removed_in: "0206c1f",
        checks: &[
            Check::Folded {
                needles: &["epoll"],
                paths: &["crates/", "src/", "tests/"],
                allowed: &[],
            },
            Check::Text {
                needles: &["extern \"C\"", "unsafe"],
                paths: &["crates/profserve/src/"],
                allowed: &["crates/profserve/src/reactor.rs"],
            },
        ],
    },
    Shape {
        name: "one declaration per metric",
        why: "each telemetry family is declared once, one row per metric, and \
              crates/telemetry/src/export.rs holds the one Prometheus writer and the one JSONL \
              writer and reader; the export counters and fleet structs mirrored other families",
        removed_in: "ccc3047",
        checks: &[
            Check::Text {
                needles: &["# HELP", "# TYPE"],
                paths: &["crates/*.rs", "src/*.rs"],
                allowed: &["crates/telemetry/src/export.rs"],
            },
            Check::Text {
                needles: &[
                    "export_counters",
                    "ExportCounters",
                    "FleetStats",
                    "FleetLatencyRow",
                    "jsonl_keys",
                ],
                paths: &["*.rs"],
                allowed: &[],
            },
        ],
    },
    Shape {
        name: "TPF1 ingest verifies, stamps, appends",
        why: "a TPF1 record is verified in place, stamped with its run id and appended; decoding \
              it into a Profile to encode it again cost 110 us of a 185 us coarse_large ingest \
              and interned every name of untrusted input into the never-freed registry",
        removed_in: "4137bba",
        checks: &[Check::InItems {
            items: &[
                "ingest_records",
                "check",
                "ingest_record",
                "ingest_record_with_id",
                "stamp",
                "append_payload",
                "verify_record",
                "walk_record",
                "walk_node",
            ],
            needles: &["decode_record", ".decode(", "read_node"],
            paths: &[
                "crates/profserve/src/server.rs",
                "crates/profserve/src/protocol.rs",
                "crates/profstore/src/codec.rs",
                "crates/profstore/src/store.rs",
                "crates/profstore/src/shard.rs",
                "crates/profstore/src/repo.rs",
            ],
        }],
    },
    Shape {
        name: "text ingest builds no Profile",
        why: "JSON profile text is transcoded straight to the record body it spells \
              (profstore::transcode_text) and appended like a TPF1 record; parsing it into \
              SnapNode trees to encode them again was the largest term of a coarse_large JSON \
              ingest and interned every name of untrusted text into the never-freed registry",
        removed_in: "7eee832",
        checks: &[Check::InItems {
            items: &[
                "ingest_records",
                "check",
                "summary",
                "Request::QueryRegress {",
            ],
            needles: &["parse_text", "read_profile", "Checked::Profile", ".decode("],
            paths: &[
                "crates/profserve/src/server.rs",
                "crates/profserve/src/protocol.rs",
            ],
        }],
    },
    Shape {
        name: "queries fold record bytes",
        why: "compaction, the windowed aggregate, the trend and a regress candidate sent as a \
              record reduce each run straight from its bytes (RunSummary::from_record); decoding \
              every folded run first made ~1 000 allocations per coarse_large record and \
              interned every stored name into the never-freed registry",
        removed_in: "740e426",
        checks: &[Check::InItems {
            items: &[
                "stream_entries",
                "compact",
                "aggregate",
                "aggregate_window",
                "trend",
                "Request::QueryRegress {",
            ],
            needles: &[
                "decode_record",
                ".decode(",
                ".load(",
                "from_profile",
                "registry",
            ],
            paths: &[
                "crates/profstore/src/store.rs",
                "crates/profstore/src/shard.rs",
                "crates/profserve/src/server.rs",
            ],
        }],
    },
    Shape {
        name: "one task completion sequence",
        why: "taskrt begins and completes every task instance in WorkerState::run_task, which \
              hands a completion that resumes a suspended task to the monitor as one \
              task_end_resume call; a second copy would bring back task_end + task_switch and \
              a second clock read",
        removed_in: "2d0629a",
        checks: &[Check::OutsideItems {
            items: &["run_task"],
            needles: &[".task_end(", ".task_end_resume(", ".task_abort("],
            paths: &["crates/taskrt/src/"],
        }],
    },
    Shape {
        name: "one seeded generator",
        why: "pomp::SplitMix64 is the one generator and simsched's ChoiceStream over it the one \
              source of property-test inputs; four copies of splitmix64 and a vendored proptest \
              that seeded each run at random stood beside it",
        removed_in: "95685d2",
        checks: &[
            Check::Folded {
                needles: &["9e3779b97f4a7c15"],
                paths: &["*.rs"],
                allowed: &["crates/pomp/src/rng.rs"],
            },
            Check::Text {
                needles: &["proptest"],
                paths: &["*Cargo.toml", "*Cargo.lock"],
                allowed: &[],
            },
            Check::Text {
                needles: &["use proptest"],
                paths: &["*.rs"],
                allowed: &[],
            },
        ],
    },
    Shape {
        name: "no vendored stub is a workspace member",
        why: "the stubs under vendor/ stand in for registry crates and are built only as path \
              dependencies; cargo matches `exclude` by path prefix, not by glob, so \
              `exclude = [\"vendor/*\"]` kept nothing out and the workspace tests ran the stubs' \
              own tests as this project's",
        removed_in: "8525407",
        checks: &[Check::VendoredMember],
    },
];

/// One file of the tree: its path relative to the root, `/`-separated,
/// and its text (invalid UTF-8 replaced).
struct File {
    path: String,
    text: String,
}

/// Every file under `root`, skipping `target` and hidden directories and
/// this test's own source.
fn read_tree(root: &Path) -> Vec<File> {
    let mut files = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("read a directory of the tree") {
            let entry = entry.expect("read a directory entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            let path = entry.path();
            let kind = entry.file_type().expect("file type");
            if kind.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    dirs.push(path);
                }
                continue;
            }
            if !kind.is_file() {
                continue;
            }
            let rel = path
                .strip_prefix(root)
                .expect("under the root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            if rel == "tests/architecture.rs" {
                continue;
            }
            let bytes = std::fs::read(&path).expect("read a file of the tree");
            files.push(File {
                path: rel,
                text: String::from_utf8_lossy(&bytes).into_owned(),
            });
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    files
}

/// Whether `path` matches `spec`: `prefix*suffix`, or a bare prefix.
fn covers(spec: &str, path: &str) -> bool {
    match spec.split_once('*') {
        Some((prefix, suffix)) => path.starts_with(prefix) && path.ends_with(suffix),
        None => path.starts_with(spec),
    }
}

fn covered<'a>(
    files: &'a [File],
    paths: &'a [&str],
    allowed: &'a [&str],
) -> impl Iterator<Item = &'a File> {
    files.iter().filter(|f| {
        paths.iter().any(|p| covers(p, &f.path)) && !allowed.iter().any(|a| covers(a, &f.path))
    })
}

/// For each line of `text`, whether it lies in the body of one of
/// `items`. An item is a function name, whose header is the line holding
/// `fn NAME(` or `fn NAME<`, or any other text, whose header is the line
/// holding it (a match arm such as `Request::QueryRegress {`). The body
/// runs from the header to the first later line that is the header's
/// indent followed by a lone `}`, as rustfmt closes an item or an arm.
fn item_lines(text: &str, items: &[&str]) -> Vec<bool> {
    let headers: Vec<String> = items
        .iter()
        .flat_map(|item| {
            if item.chars().all(|c| c.is_alphanumeric() || c == '_') {
                vec![format!("fn {item}("), format!("fn {item}<")]
            } else {
                vec![item.to_string()]
            }
        })
        .collect();
    let is_header = |line: &str| headers.iter().any(|h| line.contains(h.as_str()));
    let mut inside = Vec::new();
    let mut close: Option<String> = None;
    for line in text.lines() {
        match &close {
            Some(end) => {
                inside.push(true);
                if line == end {
                    close = None;
                }
            }
            None if is_header(line) => {
                inside.push(true);
                let indent = line.len() - line.trim_start_matches(' ').len();
                close = Some(format!("{}}}", &line[..indent]));
            }
            None => inside.push(false),
        }
    }
    inside
}

/// Lines of `file` holding a needle, where `keep(line index)` holds; with
/// `fold`, a line is searched with its `_` removed and its letters
/// lowercased.
fn hits(
    file: &File,
    needles: &[&str],
    fold: bool,
    keep: impl Fn(usize) -> bool,
    out: &mut Vec<String>,
) {
    for (i, line) in file.text.lines().enumerate() {
        let folded;
        let text = if fold {
            folded = line.replace('_', "").to_lowercase();
            folded.as_str()
        } else {
            line
        };
        if keep(i) && needles.iter().any(|n| text.contains(n)) {
            out.push(format!("{}:{}: {}", file.path, i + 1, line.trim()));
        }
    }
}

/// The quoted strings of the `key = [...]` array in the `[workspace]`
/// table of a manifest.
fn workspace_array(manifest: &str, key: &str) -> Vec<String> {
    let table = manifest
        .split_once("[workspace]")
        .map_or("", |(_, rest)| rest.split("\n[").next().unwrap_or(""));
    let Some(start) = table
        .lines()
        .position(|l| l.trim_start().starts_with(key) && l.contains('='))
    else {
        return Vec::new();
    };
    let rest: String = table.lines().skip(start).collect::<Vec<_>>().join("\n");
    let (_, array) = rest.split_once('[').unwrap_or(("", ""));
    let array = array.split(']').next().unwrap_or("");
    array
        .split(',')
        .filter_map(|s| {
            let s = s.trim();
            s.strip_prefix('"')?.strip_suffix('"').map(str::to_owned)
        })
        .collect()
}

/// Stub packages under `vendor/` the root workspace would take in: a
/// member pattern that names `vendor`, or a stub no `exclude` entry
/// covers as a path prefix (cargo reads `exclude` as paths, not globs).
fn vendored_members(files: &[File]) -> Vec<String> {
    let manifest = files
        .iter()
        .find(|f| f.path == "Cargo.toml")
        .map_or("", |f| f.text.as_str());
    let members = workspace_array(manifest, "members");
    let exclude = workspace_array(manifest, "exclude");
    let mut out: Vec<String> = members
        .iter()
        .filter(|m| m.starts_with("vendor"))
        .map(|m| format!("Cargo.toml: member pattern {m:?} takes in vendor/"))
        .collect();
    for f in files {
        let Some(stub) = f
            .path
            .strip_prefix("vendor/")
            .and_then(|p| p.strip_suffix("/Cargo.toml"))
        else {
            continue;
        };
        let dir = format!("vendor/{stub}");
        if !exclude.iter().any(|e| Path::new(&dir).starts_with(e)) {
            out.push(format!(
                "{dir}: not excluded from the workspace (exclude = {exclude:?})"
            ));
        }
    }
    out
}

/// Every line that brings `check` back, as `path:line: text`.
fn violations(check: &Check, files: &[File]) -> Vec<String> {
    let mut out = Vec::new();
    match check {
        Check::Text {
            needles,
            paths,
            allowed,
        } => {
            for f in covered(files, paths, allowed) {
                hits(f, needles, false, |_| true, &mut out);
            }
        }
        Check::Folded {
            needles,
            paths,
            allowed,
        } => {
            for f in covered(files, paths, allowed) {
                hits(f, needles, true, |_| true, &mut out);
            }
        }
        Check::InItems {
            items,
            needles,
            paths,
        } => {
            for f in covered(files, paths, &[]) {
                let inside = item_lines(&f.text, items);
                hits(f, needles, false, |i| inside[i], &mut out);
            }
        }
        Check::OutsideItems {
            items,
            needles,
            paths,
        } => {
            for f in covered(files, paths, &[]) {
                let inside = item_lines(&f.text, items);
                hits(f, needles, false, |i| !inside[i], &mut out);
            }
        }
        Check::Exists(dirs) => {
            out.extend(covered(files, dirs, &[]).map(|f| format!("{}: exists", f.path)));
        }
        Check::VendoredMember => out = vendored_members(files),
    }
    out
}

#[test]
fn every_removed_shape_stays_removed() {
    let files = read_tree(Path::new(env!("CARGO_MANIFEST_DIR")));
    assert!(
        files.iter().any(|f| f.path == "crates/core/src/monitor.rs"),
        "the tree was not found"
    );
    let mut report = String::new();
    for shape in SHAPES {
        let found: Vec<String> = shape
            .checks
            .iter()
            .flat_map(|c| violations(c, &files))
            .collect();
        if !found.is_empty() {
            report += &format!(
                "\n{} (removed in {}) is back: {}\n",
                shape.name, shape.removed_in, shape.why
            );
            for line in found {
                report += &format!("  {line}\n");
            }
        }
    }
    assert!(report.is_empty(), "{report}");
}

#[test]
fn an_item_body_ends_at_the_first_brace_of_its_indent() {
    let text = "\
fn other() {
    decode_record();
}
impl S {
    pub(crate) fn run_task<'env>(
        &self,
    ) {
        if x {
            decode_record();
        }
        decode_record();
    }
    fn after() {}
}
match request {
    Request::QueryRegress {
        bench,
    } => {
        decode_record();
    }
    _ => {}
}";
    let inside = item_lines(text, &["run_task"]);
    let lines: Vec<usize> = (0..inside.len()).filter(|&i| inside[i]).collect();
    assert_eq!(lines, (4..=11).collect::<Vec<_>>());
    let inside = item_lines(text, &["Request::QueryRegress {"]);
    let lines: Vec<usize> = (0..inside.len()).filter(|&i| inside[i]).collect();
    assert_eq!(lines, (15..=19).collect::<Vec<_>>());
    // A longer name with the same prefix is another item.
    assert!(item_lines("fn run_tasks() {\n}\n", &["run_task"])
        .iter()
        .all(|&b| !b));
}

#[test]
fn a_folded_row_matches_every_case_and_underscore_placement() {
    let rows = |name: &str| {
        SHAPES
            .iter()
            .find(|s| s.name == name)
            .expect("a row of SHAPES")
            .checks
    };
    let brought_back = |name: &str, path: &str, line: &str| {
        let tree = [File {
            path: path.into(),
            text: format!("fn f() {{}}\n{line}\n"),
        }];
        rows(name).iter().any(|c| !violations(c, &tree).is_empty())
    };
    for line in [
        "const GOLDEN: u64 = 0x9E3779B97F4A7C15;",
        "const GOLDEN: u64 = 0x9E3779B9_7F4A7C15;",
        "const GOLDEN: u64 = 0x9e3779b97F4A7C15;",
        "const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15_u64;",
    ] {
        assert!(
            brought_back("one seeded generator", "crates/bots/src/x.rs", line),
            "{line}"
        );
    }
    assert!(!brought_back(
        "one seeded generator",
        "crates/pomp/src/rng.rs",
        "const GOLDEN: u64 = 0x9E3779B9_7F4A7C15;"
    ));
    for line in [
        "use epoll;",
        "struct EPoll;",
        "EPOLL_CTL_ADD",
        "e_poll_wait()",
    ] {
        assert!(
            brought_back("one readiness backend", "crates/profserve/src/x.rs", line),
            "{line}"
        );
    }
    assert!(!brought_back(
        "one readiness backend",
        "crates/profserve/src/x.rs",
        "libc::poll(fds.as_mut_ptr(), n, timeout)"
    ));
}

#[test]
fn a_vendor_glob_in_exclude_keeps_no_stub_out() {
    let tree = |manifest: &str| {
        vec![
            File {
                path: "Cargo.toml".into(),
                text: manifest.into(),
            },
            File {
                path: "vendor/parking_lot/Cargo.toml".into(),
                text: String::new(),
            },
        ]
    };
    let glob = "[workspace]\nmembers = [\"crates/*\"]\nexclude = [\"vendor/*\"]\n\n[package]\n";
    assert_eq!(vendored_members(&tree(glob)).len(), 1);
    let prefix = "[workspace]\nmembers = [\"crates/*\"]\nexclude = [\"vendor\"]\n";
    assert!(vendored_members(&tree(prefix)).is_empty());
    let member = "[workspace]\nmembers = [\"crates/*\", \"vendor/*\"]\nexclude = [\"vendor\"]\n";
    assert_eq!(vendored_members(&tree(member)).len(), 1);
}

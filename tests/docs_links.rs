//! Relative-link checker for the repo's markdown documentation.
//!
//! Every `[text](target)` in the tracked documents must resolve:
//! relative targets (optionally with a `#fragment`) must exist on disk
//! relative to the document that links them. A doc rename or move that
//! leaves a dangling `docs/...` link fails here instead of rotting
//! silently. External (`http://`, `https://`, `mailto:`) and
//! pure-fragment (`#section`) links are out of scope — the build
//! environment is offline and fragments are editor-dependent.
//!
//! The same documents' `repro` examples must also name only flags the
//! binary parses: a removed flag left in a fenced example fails here.

use std::path::{Path, PathBuf};

/// The documents whose outgoing links are checked, relative to the
/// repo root (`CARGO_MANIFEST_DIR` of the root `pov_integration`
/// package).
const DOCS: &[&str] = &[
    "README.md",
    "ROADMAP.md",
    "PAPER.md",
    "CHANGES.md",
    "docs/ARCHITECTURE.md",
    "docs/BENCHMARKING.md",
    "docs/OBSERVABILITY.md",
    "docs/SCALING.md",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Extract `(link_text, target)` pairs from inline markdown links.
/// Skips image links (`![alt](src)`) no differently — their targets
/// must resolve too — but ignores fenced code blocks, where brackets
/// and parens are code, not links.
fn links(markdown: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'[' {
                if let Some(close) = line[i..].find("](") {
                    let text_end = i + close;
                    let target_start = text_end + 2;
                    if let Some(end) = line[target_start..].find(')') {
                        let text = line[i + 1..text_end].to_string();
                        let target = line[target_start..target_start + end].to_string();
                        out.push((text, target));
                        i = target_start + end + 1;
                        continue;
                    }
                }
            }
            i += 1;
        }
    }
    out
}

fn is_external(target: &str) -> bool {
    target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:")
        || target.starts_with('#')
}

/// The `--flag`s passed to `repro` on the command lines inside fenced
/// code blocks. A command line may continue over `\`-ended lines.
/// Only tokens after the `repro` (or `…/repro`) token count, up to a
/// `#` comment or the next command (`|`, `&&`, `;`, `>`).
fn fenced_repro_flags(markdown: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_fence = false;
    let mut command = String::new();
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            command.clear();
            continue;
        }
        if !in_fence {
            continue;
        }
        match line.trim_end().strip_suffix('\\') {
            Some(head) => {
                command.push_str(head);
                command.push(' ');
                continue;
            }
            None => command.push_str(line),
        }
        let mut tokens = command
            .split_whitespace()
            .take_while(|t| !t.starts_with('#') && !matches!(*t, "|" | "&&" | ";" | ">"))
            .skip_while(|t| *t != "repro" && !t.ends_with("/repro"))
            .skip(1)
            .peekable();
        if tokens.peek().is_some() {
            for token in tokens {
                let flag = token
                    .trim_start_matches('[')
                    .trim_end_matches([']', ',', ')']);
                let flag = flag.split('=').next().unwrap_or(flag);
                let named = flag
                    .strip_prefix("--")
                    .is_some_and(|name| name.starts_with(|c: char| c.is_ascii_alphabetic()));
                if named {
                    out.push(flag.to_string());
                }
            }
        }
        command.clear();
    }
    out
}

#[test]
fn documented_repro_flags_exist() {
    let root = repo_root();
    let source = std::fs::read_to_string(root.join("crates/bench/src/bin/repro.rs"))
        .expect("crates/bench/src/bin/repro.rs");
    let mut failures = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("cannot read tracked doc {doc}: {e}"));
        for flag in fenced_repro_flags(&text) {
            if !source.contains(&format!("\"{flag}\"")) {
                failures.push(format!("{doc}: `repro {flag}` is not a flag repro parses"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "documented repro flags missing from repro.rs:\n{}",
        failures.join("\n")
    );
}

#[test]
fn repro_flag_extractor_handles_the_grammar() {
    let md = "repro --paper outside a fence\n\
              ```sh\n\
              cargo run --release --bin repro -- bench --quick --json b.json  # --not-this\n\
              target/release/repro scenario a.scn \\\n  --threads 8 | grep --count x\n\
              repro [--out DIR] [--format=chrome]\n\
              cargo build --release\n\
              ```";
    assert_eq!(
        fenced_repro_flags(md),
        ["--quick", "--json", "--threads", "--out", "--format"]
    );
}

#[test]
fn relative_markdown_links_resolve() {
    let root = repo_root();
    let mut failures = Vec::new();
    for doc in DOCS {
        let path = root.join(doc);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read tracked doc {doc}: {e}"));
        let dir = path.parent().unwrap_or(Path::new("."));
        for (label, target) in links(&text) {
            if is_external(&target) || target.is_empty() {
                continue;
            }
            // Drop a #fragment; the file part must still exist.
            let file_part = target.split('#').next().unwrap_or("");
            if file_part.is_empty() {
                continue;
            }
            if !dir.join(file_part).exists() {
                failures.push(format!("{doc}: [{label}]({target}) -> missing {file_part}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "dangling doc links:\n{}",
        failures.join("\n")
    );
}

#[test]
fn docs_cross_link_each_other() {
    // The operator docs must stay discoverable: the README links both
    // docs/ files, and each doc links back to at least one sibling.
    let root = repo_root();
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let readme_targets: Vec<String> = links(&readme).into_iter().map(|(_, t)| t).collect();
    for required in [
        "docs/ARCHITECTURE.md",
        "docs/BENCHMARKING.md",
        "docs/OBSERVABILITY.md",
        "docs/SCALING.md",
    ] {
        assert!(
            readme_targets
                .iter()
                .any(|t| t.split('#').next() == Some(required)),
            "README.md does not link {required}"
        );
    }
    let arch = std::fs::read_to_string(root.join("docs/ARCHITECTURE.md")).expect("ARCHITECTURE");
    for sibling in ["BENCHMARKING.md", "OBSERVABILITY.md"] {
        assert!(
            links(&arch)
                .iter()
                .any(|(_, t)| t.split('#').next() == Some(sibling)),
            "docs/ARCHITECTURE.md does not link its sibling {sibling}"
        );
    }
}

#[test]
fn link_extractor_handles_the_grammar() {
    let md = "see [a](x.md) and [b](docs/y.md#frag), skip [c](https://e.com)\n\
              ```\n[not](a-link.md)\n```\n\
              ![img](pic.png)";
    let got = links(md);
    assert_eq!(
        got,
        vec![
            ("a".to_string(), "x.md".to_string()),
            ("b".to_string(), "docs/y.md#frag".to_string()),
            ("c".to_string(), "https://e.com".to_string()),
            ("img".to_string(), "pic.png".to_string()),
        ]
    );
}

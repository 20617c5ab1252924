//! Documentation points only at files that exist: every `*.md` path named
//! in the crates, tests, examples, README and results must resolve, either
//! from the repository root or from the directory of the file naming it.

use std::fs;
use std::path::{Path, PathBuf};

/// Directories never scanned: build output and vendored third-party code.
const SKIP: [&str; 2] = ["target", "vendor"];

fn files_under(path: &Path, out: &mut Vec<PathBuf>) {
    if !path.is_dir() {
        out.push(path.to_path_buf());
        return;
    }
    if path
        .file_name()
        .is_some_and(|n| SKIP.iter().any(|s| n == *s))
    {
        return;
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(path)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for e in entries {
        files_under(&e, out);
    }
}

/// Every `*.md` path mentioned in `text` (a run of path characters ending
/// in `.md` that is not the prefix of a longer extension).
fn md_paths(text: &str) -> Vec<&str> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | '/');
    let mut out = Vec::new();
    for (at, _) in text.match_indices(".md") {
        let end = at + 3;
        if text[end..]
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            continue;
        }
        let start = text[..at]
            .char_indices()
            .rev()
            .find(|&(_, c)| !is_path(c))
            .map_or(0, |(i, c)| i + c.len_utf8());
        let name = &text[start..end];
        // a bare extension (as in "`*.md`") names no file
        if name != ".md" && !name.ends_with("/.md") {
            out.push(name);
        }
    }
    out
}

#[test]
fn every_markdown_path_named_in_the_repo_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples", "README.md", "results"] {
        files_under(&root.join(top), &mut files);
    }
    let (mut checked, mut dangling) = (0, Vec::new());
    for file in &files {
        // binary files hold no references
        let Ok(text) = fs::read_to_string(file) else {
            continue;
        };
        let dir = file.parent().unwrap();
        for name in md_paths(&text) {
            checked += 1;
            if !root.join(name).exists() && !dir.join(name).exists() {
                dangling.push(format!(
                    "{}: {name}",
                    file.strip_prefix(root).unwrap().display()
                ));
            }
        }
    }
    assert!(checked > 0, "the scan found no references at all");
    assert!(
        dangling.is_empty(),
        "dangling references:\n{}",
        dangling.join("\n")
    );
}

#[test]
fn md_path_extraction() {
    let text = "see `results/profile_point.md`, README.md. Not *.md, x.mdx or a.md_old.";
    assert_eq!(
        md_paths(text),
        vec!["results/profile_point.md", "README.md"]
    );
}

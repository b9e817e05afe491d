//! Tracked size numbers (ROADMAP aim 2, "LOC and `pub`-item counts trend
//! down"): per crate, the non-test non-comment code lines and the `pub`
//! items of its `src/` tree, plus rows for the umbrella crate's `src/` and
//! the workspace's `examples/`. Test code is everything from a file's
//! first `cfg(test)` attribute on; a `pub` item is `pub` followed by an
//! item keyword, so `pub(crate)` items and `pub` fields do not count.

use crate::collect_rs;
use crate::lexer::{lex, Tok, TokKind};
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

const ITEM_KEYWORDS: [&str; 11] = [
    "fn", "struct", "enum", "trait", "mod", "const", "static", "type", "use", "unsafe", "async",
];

/// `(code lines, pub items)` of one source file.
pub fn source_stats(src: &str) -> (usize, usize) {
    let toks: Vec<Tok> = lex(src)
        .into_iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let cfg_test = ["#", "[", "cfg", "(", "test", ")", "]"];
    let end = toks
        .windows(cfg_test.len())
        .position(|w| w.iter().map(|t| t.text.as_str()).eq(cfg_test))
        .unwrap_or(toks.len());
    let code = &toks[..end];
    let lines: BTreeSet<usize> = code
        .iter()
        .flat_map(|t| t.line..=t.line + t.text.matches('\n').count())
        .collect();
    let pubs = code
        .windows(2)
        .filter(|w| w[0].kind == TokKind::Ident && w[0].text == "pub")
        .filter(|w| ITEM_KEYWORDS.contains(&w[1].text.as_str()))
        .count();
    (lines.len(), pubs)
}

/// `(row, code lines, pub items)` for every crate's `src/` under
/// `root/crates` and `root/vendor`, in sorted order, then the umbrella
/// crate's `src` and the workspace's `examples`, then their `total`. Examples count because they are shipped code: moving code out
/// of a crate into an example must not read as deleting it.
pub fn crate_stats(root: &Path) -> io::Result<Vec<(String, usize, usize)>> {
    let mut units: Vec<(String, PathBuf)> = Vec::new();
    for top in ["crates", "vendor"] {
        let entries = fs::read_dir(root.join(top)).into_iter().flatten();
        let mut dirs: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        dirs.sort();
        for dir in dirs {
            let name = dir.file_name().unwrap_or_default().to_string_lossy();
            units.push((format!("{top}/{name}"), dir.join("src")));
        }
    }
    for top in ["src", "examples"] {
        units.push((top.to_string(), root.join(top)));
    }
    let mut rows = Vec::new();
    for (name, dir) in units {
        let mut files = Vec::new();
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
        let mut sums = (0, 0);
        for file in &files {
            let (lines, pubs) = source_stats(&fs::read_to_string(file)?);
            sums = (sums.0 + lines, sums.1 + pubs);
        }
        if !files.is_empty() {
            rows.push((name, sums.0, sums.1));
        }
    }
    let (lines, pubs) = rows.iter().fold((0, 0), |(l, p), r| (l + r.1, p + r.2));
    rows.push(("total".to_string(), lines, pubs));
    Ok(rows)
}

/// The rows as JSON lines: one object per crate, `total` last.
pub fn render(rows: &[(String, usize, usize)]) -> String {
    let row = |(name, lines, pubs): &(String, usize, usize)| {
        format!("{{\"crate\":\"{name}\",\"code_lines\":{lines},\"pub_items\":{pubs}}}\n")
    };
    rows.iter().map(row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_code_lines_and_pub_items_before_the_test_module() {
        let src = "//! docs\n\n/// item docs\npub fn a() {\n    let s = \"two\nlines\"; // trailing\n}\n\
                   pub(crate) fn b() {}\npub struct S {\n    pub field: u8,\n}\n/* block\n comment */\n\
                   #[cfg(test)]\nmod tests {\n    pub fn not_counted() {}\n}\n";
        // a: 4 lines (the string spans two), b: 1, S: 3; `pub fn a` and
        // `pub struct S` are the items.
        assert_eq!(source_stats(src), (8, 2));
    }

    #[test]
    fn renders_one_json_object_per_line() {
        let rows = vec![
            ("crates/a".to_string(), 10, 2),
            ("total".to_string(), 10, 2),
        ];
        assert_eq!(
            render(&rows),
            "{\"crate\":\"crates/a\",\"code_lines\":10,\"pub_items\":2}\n\
             {\"crate\":\"total\",\"code_lines\":10,\"pub_items\":2}\n"
        );
    }
}

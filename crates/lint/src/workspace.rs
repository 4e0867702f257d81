//! Workspace loading: the set of source files the passes inspect, keyed by
//! workspace-relative path.
//!
//! Two constructors exist on purpose: [`Workspace::load`] reads a real
//! checkout (or a fixture tree mirroring its layout), while
//! [`Workspace::from_files`] builds one from in-memory texts so tests can
//! mutate real sources and assert the lint notices.

use crate::source::SourceFile;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// The crates whose sources the passes walk.  Everything a pass anchors on
/// (proto enums, dispatch arms, the transport constants) lives under these.
const SCANNED_CRATES: [&str; 2] = ["crates/dds/src", "crates/ampc/src"];

/// Loaded view of the workspace sources.
pub struct Workspace {
    files: BTreeMap<String, SourceFile>,
}

impl Workspace {
    /// Load every `.rs` file under the scanned crates of `root`.  Missing
    /// directories are skipped (fixture trees carry only the files their
    /// pass needs); unreadable files are errors.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut files = BTreeMap::new();
        for prefix in SCANNED_CRATES {
            let dir = root.join(prefix);
            if dir.is_dir() {
                collect(&dir, prefix, &mut files)?;
            }
        }
        Ok(Workspace { files })
    }

    /// Build a workspace from `(relative_path, text)` pairs.
    pub fn from_files<'a>(files: impl IntoIterator<Item = (&'a str, &'a str)>) -> Workspace {
        Workspace {
            files: files
                .into_iter()
                .map(|(rel, text)| (rel.to_string(), SourceFile::parse(rel, text)))
                .collect(),
        }
    }

    /// The file at workspace-relative `rel`, if loaded.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.get(rel)
    }

    /// All loaded files, in path order.
    pub fn files(&self) -> impl Iterator<Item = &SourceFile> {
        self.files.values()
    }
}

fn collect(dir: &Path, rel: &str, files: &mut BTreeMap<String, SourceFile>) -> io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let child_rel = format!("{rel}/{name}");
        if path.is_dir() {
            collect(&path, &child_rel, files)?;
        } else if name.ends_with(".rs") {
            let text = std::fs::read_to_string(&path)?;
            files.insert(child_rel.clone(), SourceFile::parse(&child_rel, &text));
        }
    }
    Ok(())
}

//! Per-run JSON fragment checkpoints for interruptible campaigns.
//!
//! A campaign writes one fragment file per completed run under
//! `<root>/<namespace>/<key>.json`, where the namespace names everything
//! that changes a fragment (the fault campaign's seed, injection count
//! and protection; the fuzz campaign's seed and budget) and the key the
//! run (a kernel, a case). A fragment's existence means that run
//! completed; its content is reused **verbatim**
//! on resume, so a resumed campaign's final report is byte-identical to
//! an uninterrupted one. Saves go through a temp-file + rename, so an
//! interrupt mid-write never leaves a truncated fragment behind to poison
//! the resume.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Filesystem store of per-run checkpoint fragments.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    root: PathBuf,
}

impl CheckpointStore {
    /// A store rooted at `root` (created lazily on first save).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        CheckpointStore { root: root.into() }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the fragment for one run.
    pub fn fragment_path(&self, namespace: &str, key: &str) -> PathBuf {
        self.root
            .join(sanitize(namespace))
            .join(format!("{}.json", sanitize(key)))
    }

    /// The fragment's content if that run already completed.
    pub fn load(&self, namespace: &str, key: &str) -> Option<String> {
        fs::read_to_string(self.fragment_path(namespace, key)).ok()
    }

    /// Records a completed run. Written via temp file + rename so a
    /// fragment either exists complete or not at all.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (unwritable root, disk full).
    pub fn save(&self, namespace: &str, key: &str, content: &str) -> io::Result<()> {
        let path = self.fragment_path(namespace, key);
        let dir = path.parent().expect("fragment path has a parent");
        fs::create_dir_all(dir)?;
        let tmp = path.with_extension("json.tmp");
        fs::write(&tmp, content)?;
        fs::rename(&tmp, &path)
    }
}

/// Keeps `[A-Za-z0-9._-]`, replaces everything else with `-`, so labels
/// like `latency-c8-d4` or `only<4,1>` become safe path segments.
fn sanitize(s: &str) -> String {
    let cleaned: String = s
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "unnamed".into()
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("wc-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::new(dir)
    }

    #[test]
    fn save_load_round_trips_verbatim() {
        let store = temp_store("roundtrip");
        assert!(store.load("warped-compression", "bfs").is_none());
        let content = "{\"kernel\": \"bfs\",\n  \"x\": 1}\n";
        store.save("warped-compression", "bfs", content).unwrap();
        assert_eq!(
            store.load("warped-compression", "bfs").as_deref(),
            Some(content)
        );
        assert!(store.load("baseline", "bfs").is_none());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn labels_are_sanitized_into_safe_paths() {
        let store = temp_store("sanitize");
        store.save("only<4,1>", "a/b kernel", "{}").unwrap();
        let path = store.fragment_path("only<4,1>", "a/b kernel");
        assert!(path.ends_with("only-4-1-/a-b-kernel.json"), "{path:?}");
        assert!(path.exists());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn no_tmp_files_survive_a_save() {
        let store = temp_store("tmpfiles");
        store.save("d", "k", "content").unwrap();
        let dir = store.fragment_path("d", "k");
        let dir = dir.parent().unwrap();
        let leftovers: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(store.root());
    }
}

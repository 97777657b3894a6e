//! Temporary trace files for the file-backed reader suites (include it
//! with `#[path = "common/tempfile.rs"] mod tempfile;`).

#![allow(dead_code)]

use std::fs::File;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A temporary file removed on drop.
pub struct TempFile(pub PathBuf);

impl TempFile {
    /// Writes `bytes` to a file whose name no other `TempFile` of this
    /// process shares.
    pub fn new(tag: &str, bytes: &[u8]) -> TempFile {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let tag = tag.replace(['/', ' '], "_");
        let path = std::env::temp_dir().join(format!("ta-test-{}-{n}-{tag}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        TempFile(path)
    }

    /// Opens the file for reading.
    pub fn open(&self) -> File {
        File::open(&self.0).unwrap()
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

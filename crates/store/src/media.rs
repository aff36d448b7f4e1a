//! Storage media abstraction: where WAL and snapshot bytes actually live.
//!
//! The durability logic ([`crate::log`]) is written against the small
//! [`Media`] trait so the same code path serves two worlds:
//!
//! * [`MemMedia`] — an in-memory byte device for tests, benchmarks, and the
//!   default in-process cluster. Deterministic and infallible, it is the
//!   substrate the chaos suite tears and corrupts with byte precision.
//! * [`FileMedia`] — a real file under a data directory for the `texid`
//!   CLI and `texid serve --data DIR`. Appends go straight to the file;
//!   `replace` writes a temp file and renames it into place so a crashed
//!   snapshot write can never destroy the previous snapshot.
//!
//! A [`Volume`] bundles the two blobs one durable store needs (`store.wal`
//! and `store.snap`).

use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An append-only byte blob with whole-blob read and atomic replace.
pub trait Media: Send + Sync {
    /// Read the entire blob.
    ///
    /// # Errors
    /// Transport errors from the underlying device (never for memory).
    fn read(&self) -> std::io::Result<Vec<u8>>;

    /// Append `bytes` at the end and make them durable.
    ///
    /// # Errors
    /// Transport errors from the underlying device (never for memory).
    fn append(&self, bytes: &[u8]) -> std::io::Result<()>;

    /// Atomically replace the whole blob with `bytes`.
    ///
    /// # Errors
    /// Transport errors from the underlying device (never for memory).
    fn replace(&self, bytes: &[u8]) -> std::io::Result<()>;

    /// Current blob length in bytes.
    fn len(&self) -> u64;

    /// True when the blob is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// In-memory [`Media`]: a plain byte vector behind a lock.
#[derive(Default)]
pub struct MemMedia {
    bytes: Mutex<Vec<u8>>,
}

impl MemMedia {
    /// An empty in-memory blob.
    pub fn new() -> MemMedia {
        MemMedia::default()
    }

    /// Flip bit `bit` of byte `offset` in place — the chaos suite's
    /// bit-rot primitive. Out-of-range offsets are ignored.
    pub fn flip_bit(&self, offset: usize, bit: u8) {
        let mut bytes = self.bytes.lock();
        if let Some(b) = bytes.get_mut(offset) {
            *b ^= 1 << (bit & 7);
        }
    }

    /// Truncate the blob to `len` bytes (tearing off the tail).
    pub fn truncate(&self, len: usize) {
        self.bytes.lock().truncate(len);
    }
}

impl Media for MemMedia {
    fn read(&self) -> std::io::Result<Vec<u8>> {
        Ok(self.bytes.lock().clone())
    }

    fn append(&self, bytes: &[u8]) -> std::io::Result<()> {
        self.bytes.lock().extend_from_slice(bytes);
        Ok(())
    }

    fn replace(&self, bytes: &[u8]) -> std::io::Result<()> {
        *self.bytes.lock() = bytes.to_vec();
        Ok(())
    }

    fn len(&self) -> u64 {
        self.bytes.lock().len() as u64
    }
}

/// File-backed [`Media`]: one blob per file path.
pub struct FileMedia {
    path: PathBuf,
    /// Serializes append/replace so interleaved writers cannot shear a
    /// record across each other.
    write: Mutex<()>,
}

impl FileMedia {
    /// Open (creating if absent) the blob at `path`.
    ///
    /// # Errors
    /// Propagates file creation failures.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<FileMedia> {
        let path = path.into();
        if !path.exists() {
            File::create(&path)?;
        }
        Ok(FileMedia { path, write: Mutex::new(()) })
    }

    /// The file path backing this blob.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Media for FileMedia {
    fn read(&self) -> std::io::Result<Vec<u8>> {
        let _guard = self.write.lock();
        let mut bytes = Vec::new();
        File::open(&self.path)?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn append(&self, bytes: &[u8]) -> std::io::Result<()> {
        let _guard = self.write.lock();
        let mut f = OpenOptions::new().append(true).open(&self.path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn replace(&self, bytes: &[u8]) -> std::io::Result<()> {
        let _guard = self.write.lock();
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)
    }

    fn len(&self) -> u64 {
        std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0)
    }
}

/// The pair of blobs one durable store needs: the WAL and the snapshot.
#[derive(Clone)]
pub struct Volume {
    /// Append-only record log.
    pub wal: Arc<dyn Media>,
    /// Last checksummed snapshot (whole-blob replaced at compaction).
    pub snapshot: Arc<dyn Media>,
}

impl Volume {
    /// An in-memory volume (the default for in-process clusters and tests).
    pub fn in_memory() -> Volume {
        Volume { wal: Arc::new(MemMedia::new()), snapshot: Arc::new(MemMedia::new()) }
    }

    /// A file-backed volume under `dir` (`store.wal` + `store.snap`),
    /// creating the directory if needed.
    ///
    /// # Errors
    /// Propagates directory/file creation failures.
    pub fn in_dir(dir: impl AsRef<Path>) -> std::io::Result<Volume> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        Ok(Volume {
            wal: Arc::new(FileMedia::open(dir.join("store.wal"))?),
            snapshot: Arc::new(FileMedia::open(dir.join("store.snap"))?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_media_appends_and_replaces() {
        let m = MemMedia::new();
        assert!(m.is_empty());
        m.append(b"abc").unwrap();
        m.append(b"def").unwrap();
        assert_eq!(m.read().unwrap(), b"abcdef");
        assert_eq!(m.len(), 6);
        m.replace(b"xy").unwrap();
        assert_eq!(m.read().unwrap(), b"xy");
        m.truncate(1);
        assert_eq!(m.read().unwrap(), b"x");
        m.flip_bit(0, 0);
        assert_eq!(m.read().unwrap(), b"y");
        m.flip_bit(99, 0); // out of range: ignored
    }

    #[test]
    fn file_media_roundtrip() {
        let dir = std::env::temp_dir().join(format!("texid-store-test-{}", std::process::id()));
        let vol = Volume::in_dir(&dir).unwrap();
        vol.wal.append(b"hello ").unwrap();
        vol.wal.append(b"world").unwrap();
        assert_eq!(vol.wal.read().unwrap(), b"hello world");
        assert_eq!(vol.wal.len(), 11);
        vol.snapshot.replace(b"snap-1").unwrap();
        vol.snapshot.replace(b"snap-2").unwrap();
        assert_eq!(vol.snapshot.read().unwrap(), b"snap-2");
        // Reopening sees the same bytes.
        let again = Volume::in_dir(&dir).unwrap();
        assert_eq!(again.wal.read().unwrap(), b"hello world");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

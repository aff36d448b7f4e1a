//! Storage media abstraction: where WAL and snapshot bytes actually live.
//!
//! The durability logic ([`crate::log`]) is written against the small
//! [`Media`] trait so the same code path serves two worlds:
//!
//! * [`MemMedia`] — an in-memory byte device for tests, benchmarks, and the
//!   default in-process cluster. Deterministic and infallible, it is the
//!   substrate the chaos suite tears and corrupts with byte precision.
//! * [`FileMedia`] — a real file under a data directory for the `texid`
//!   CLI. Appends go straight to the file; `replace` writes a temp file and
//!   renames it into place so a crashed snapshot write can never destroy
//!   the previous snapshot.
//!
//! A reader that indexes a blob (the feature store's keydir) keeps the
//! offsets [`Media::append`] returns and reads values back with
//! [`Media::read_at`].
//!
//! A [`Volume`] bundles the two blobs one durable store needs (`store.wal`
//! and `store.snap`).

use parking_lot::{Mutex, RwLock};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An append-only byte blob with whole-blob and ranged reads and atomic
/// replace.
pub trait Media: Send + Sync {
    /// Read the entire blob.
    ///
    /// # Errors
    /// Transport errors from the underlying device (never for memory).
    fn read(&self) -> std::io::Result<Vec<u8>>;

    /// Read the `len` bytes that start at `offset`.
    ///
    /// # Errors
    /// `InvalidInput` when the range does not lie inside the blob (an
    /// `offset + len` that overflows included) — nothing is allocated for
    /// it; transport errors from the underlying device.
    fn read_at(&self, offset: u64, len: usize) -> std::io::Result<Vec<u8>>;

    /// Append `bytes` at the end and make them durable. Returns the offset
    /// the first of them landed at.
    ///
    /// # Errors
    /// Transport errors from the underlying device (never for memory).
    fn append(&self, bytes: &[u8]) -> std::io::Result<u64>;

    /// Atomically replace the whole blob with `bytes`.
    ///
    /// # Errors
    /// Transport errors from the underlying device (never for memory).
    fn replace(&self, bytes: Vec<u8>) -> std::io::Result<()>;

    /// Current blob length in bytes.
    fn len(&self) -> u64;

    /// True when the blob is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The end of `len` bytes at `offset` in a blob of `size` bytes, or the
/// `InvalidInput` error [`Media::read_at`] answers a range outside it with.
fn range_end(offset: u64, len: usize, size: u64) -> std::io::Result<u64> {
    u64::try_from(len)
        .ok()
        .and_then(|len| offset.checked_add(len))
        .filter(|&end| end <= size)
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{len} bytes at offset {offset} lie outside a {size}-byte blob"),
            )
        })
}

/// In-memory [`Media`]: a plain byte vector behind a lock.
#[derive(Default)]
pub struct MemMedia {
    bytes: RwLock<Vec<u8>>,
}

impl MemMedia {
    /// An empty in-memory blob.
    pub fn new() -> MemMedia {
        MemMedia::default()
    }

    /// Flip bit `bit` of byte `offset` in place — the chaos suite's
    /// bit-rot primitive. Out-of-range offsets are ignored.
    pub fn flip_bit(&self, offset: usize, bit: u8) {
        let mut bytes = self.bytes.write();
        if let Some(b) = bytes.get_mut(offset) {
            *b ^= 1 << (bit & 7);
        }
    }

    /// Truncate the blob to `len` bytes (tearing off the tail).
    pub fn truncate(&self, len: usize) {
        self.bytes.write().truncate(len);
    }
}

impl Media for MemMedia {
    fn read(&self) -> std::io::Result<Vec<u8>> {
        Ok(self.bytes.read().clone())
    }

    fn read_at(&self, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        let bytes = self.bytes.read();
        let end = range_end(offset, len, bytes.len() as u64)?;
        // In range of a resident blob, so both ends fit a `usize`.
        Ok(bytes[offset as usize..end as usize].to_vec())
    }

    fn append(&self, bytes: &[u8]) -> std::io::Result<u64> {
        let mut blob = self.bytes.write();
        let at = blob.len() as u64;
        blob.extend_from_slice(bytes);
        Ok(at)
    }

    fn replace(&self, bytes: Vec<u8>) -> std::io::Result<()> {
        *self.bytes.write() = bytes;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.bytes.read().len() as u64
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

    fn read_at(&self, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        let _guard = self.write.lock();
        let mut f = File::open(&self.path)?;
        range_end(offset, len, f.metadata()?.len())?;
        let mut bytes = vec![0; len];
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(&mut bytes)?;
        Ok(bytes)
    }

    fn append(&self, bytes: &[u8]) -> std::io::Result<u64> {
        let _guard = self.write.lock();
        let mut f = OpenOptions::new().append(true).open(&self.path)?;
        let at = f.metadata()?.len();
        f.write_all(bytes)?;
        f.sync_all()?;
        Ok(at)
    }

    fn replace(&self, bytes: Vec<u8>) -> std::io::Result<()> {
        let _guard = self.write.lock();
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
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
        assert_eq!(m.append(b"abc").unwrap(), 0);
        assert_eq!(m.append(b"def").unwrap(), 3);
        assert_eq!(m.read().unwrap(), b"abcdef");
        assert_eq!(m.read_at(2, 3).unwrap(), b"cde");
        assert_eq!(m.len(), 6);
        m.replace(b"xy".to_vec()).unwrap();
        assert_eq!(m.read().unwrap(), b"xy");
        m.truncate(1);
        assert_eq!(m.read().unwrap(), b"x");
        m.flip_bit(0, 0);
        assert_eq!(m.read().unwrap(), b"y");
        m.flip_bit(99, 0); // out of range: ignored
    }

    fn temp_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("texid-store-{name}-{}", std::process::id()))
    }

    #[test]
    fn file_media_roundtrip() {
        let dir = temp_dir("test");
        let vol = Volume::in_dir(&dir).unwrap();
        assert_eq!(vol.wal.append(b"hello ").unwrap(), 0);
        assert_eq!(vol.wal.append(b"world").unwrap(), 6);
        assert_eq!(vol.wal.read().unwrap(), b"hello world");
        assert_eq!(vol.wal.read_at(6, 5).unwrap(), b"world");
        assert_eq!(vol.wal.len(), 11);
        vol.snapshot.replace(b"snap-1".to_vec()).unwrap();
        vol.snapshot.replace(b"snap-2".to_vec()).unwrap();
        assert_eq!(vol.snapshot.read().unwrap(), b"snap-2");
        // Reopening sees the same bytes.
        let again = Volume::in_dir(&dir).unwrap();
        assert_eq!(again.wal.read().unwrap(), b"hello world");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_at_refuses_every_range_outside_the_blob() {
        let dir = temp_dir("read-at");
        let file = Volume::in_dir(&dir).unwrap().wal;
        let mem: Arc<dyn Media> = Arc::new(MemMedia::new());
        for m in [&mem, &file] {
            m.append(b"0123456789").unwrap();
            assert_eq!(m.read_at(0, 10).unwrap(), b"0123456789");
            assert_eq!(m.read_at(10, 0).unwrap(), b"");
            for (offset, len) in [
                (0, 11),
                (10, 1),
                (11, 0),
                (9, usize::MAX),
                (u64::MAX, 0),
                (u64::MAX, 1),
                (u64::MAX, usize::MAX),
                (1 << 63, 1 << 40),
            ] {
                let err = m.read_at(offset, len).expect_err("outside the blob");
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "({offset}, {len})");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

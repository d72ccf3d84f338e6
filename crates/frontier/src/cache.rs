//! A persistent on-disk compile cache.
//!
//! Rows produced by the estimator are stored one-per-file under a
//! versioned directory:
//!
//! ```text
//! <root>/v3/<instruction>-dx3-dz3-dt3-<fingerprint>.entry
//! ```
//!
//! Each entry holds a two-line header (format version, the entry's own
//! file stem) followed by the [`ResourceRow`] record, whose
//! `junction_stalls=` and `batched_pulses=` lines carry the compile's
//! scheduling-pass stats. Every field a row carries round-trips
//! **bit-for-bit** through the record renderer, so a warm run reproduces a
//! cold run exactly.
//!
//! The cache is corruption-tolerant by construction: an entry is used only
//! if it is a regular file of at most 64 KiB, the whole file
//! parses, its header stem matches its file name, and the decoded row
//! agrees with the distances encoded in the stem. Anything else — a
//! symlink, a FIFO, an oversized file — is counted as corrupt, ignored,
//! and recomputed, without being opened or read whole: a bad byte can cost
//! time, never correctness, and a stray file can neither hang the open nor
//! exhaust memory. Writers that share a directory never disturb each
//! other: each writes its own temporary file and renames it into place.
//! Bumping
//! [`CACHE_FORMAT_VERSION`] changes the directory name, so old-format
//! entries are invisible to new binaries rather than misread.

use std::collections::HashMap;
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tiscc_estimator::sweep::SweepKey;
use tiscc_estimator::tables::ResourceRow;

use crate::spec::FrontierError;

/// Version of the on-disk entry format. Bump on any change to the entry
/// layout; each version lives in its own `v<N>/` subdirectory, so a
/// mismatched cache directory is simply empty, never misinterpreted.
pub const CACHE_FORMAT_VERSION: u32 = 3;

/// The largest entry [`DiskCache::open`] reads. Real entries are a few
/// hundred bytes; a larger file is corrupt and is not read.
const MAX_ENTRY_BYTES: u64 = 64 * 1024;

/// A persistent, versioned, corruption-tolerant store of estimator rows
/// keyed by [`SweepKey`].
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    entries: Mutex<HashMap<String, ResourceRow>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    corrupt: usize,
}

impl DiskCache {
    /// Opens (creating if needed) the cache under `root` at the current
    /// [`CACHE_FORMAT_VERSION`], loading every intact entry into memory.
    pub fn open(root: &Path) -> Result<DiskCache, FrontierError> {
        DiskCache::open_versioned(root, CACHE_FORMAT_VERSION)
    }

    /// [`DiskCache::open`] pinned to an explicit format version. Exposed
    /// so tests can demonstrate that a version bump orphans old entries.
    pub fn open_versioned(root: &Path, version: u32) -> Result<DiskCache, FrontierError> {
        let dir = root.join(format!("v{version}"));
        fs::create_dir_all(&dir)
            .map_err(|e| FrontierError::Cache(format!("cannot create {}: {e}", dir.display())))?;
        let mut entries = HashMap::new();
        let mut corrupt = 0usize;
        let listing = fs::read_dir(&dir)
            .map_err(|e| FrontierError::Cache(format!("cannot list {}: {e}", dir.display())))?;
        for dirent in listing {
            let path = match dirent {
                Ok(d) => d.path(),
                Err(_) => {
                    corrupt += 1;
                    continue;
                }
            };
            if path.extension().and_then(|e| e.to_str()) != Some("entry") {
                continue;
            }
            let stem = match path.file_stem().and_then(|s| s.to_str()) {
                Some(s) => s.to_string(),
                None => {
                    corrupt += 1;
                    continue;
                }
            };
            match read_entry(&path).and_then(|t| decode_entry(&stem, &t, version)) {
                Some(row) => {
                    entries.insert(stem, row);
                }
                None => corrupt += 1,
            }
        }
        Ok(DiskCache {
            dir,
            entries: Mutex::new(entries),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            corrupt,
        })
    }

    /// The versioned directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of intact entries currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries that failed to decode during [`DiskCache::open`] and were
    /// set aside for recomputation.
    pub fn corrupt_entries(&self) -> usize {
        self.corrupt
    }

    /// Lookups served from disk-loaded entries so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found no intact entry so far.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Returns the stored row for `key`, if an intact entry exists.
    pub fn get(&self, key: &SweepKey) -> Option<ResourceRow> {
        let row = self.entries.lock().unwrap().get(&entry_stem(key)).cloned();
        match &row {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        row
    }

    /// Persists a freshly computed row. The entry is written to a
    /// temporary file and atomically renamed into place, so readers never
    /// observe a half-written entry even if the process dies mid-write.
    /// The temporary is named per writer (process id and a counter), so
    /// writers of the same entry in one or several processes never rename
    /// each other's file away; the last rename wins with an intact entry.
    /// [`DiskCache::open`] ignores temporaries a killed writer left.
    pub fn insert(&self, key: &SweepKey, row: &ResourceRow) -> Result<(), FrontierError> {
        static WRITES: AtomicUsize = AtomicUsize::new(0);
        let stem = entry_stem(key);
        let text = encode_entry(&stem, row);
        let writer = format!("{}-{}", std::process::id(), WRITES.fetch_add(1, Ordering::Relaxed));
        let tmp = self.dir.join(format!("{stem}.{writer}.tmp"));
        let dest = self.dir.join(format!("{stem}.entry"));
        fs::write(&tmp, &text)
            .map_err(|e| FrontierError::Cache(format!("cannot write {}: {e}", tmp.display())))?;
        fs::rename(&tmp, &dest)
            .map_err(|e| FrontierError::Cache(format!("cannot rename {}: {e}", dest.display())))?;
        self.entries.lock().unwrap().insert(stem, row.clone());
        Ok(())
    }
}

/// The text of the entry file at `path`, if it is a regular file (not
/// followed through a symlink) of at most [`MAX_ENTRY_BYTES`]. Nothing
/// else is opened, so a FIFO cannot block the open, and the read stops
/// past the cap even if the file grew after it was measured.
fn read_entry(path: &Path) -> Option<String> {
    let meta = fs::symlink_metadata(path).ok()?;
    if !meta.file_type().is_file() || meta.len() > MAX_ENTRY_BYTES {
        return None;
    }
    let mut text = String::new();
    fs::File::open(path).ok()?.take(MAX_ENTRY_BYTES + 1).read_to_string(&mut text).ok()?;
    (text.len() as u64 <= MAX_ENTRY_BYTES).then_some(text)
}

/// The file stem an entry for `key` is stored under. Built only from
/// filename-safe pieces: instruction ids are `snake_case` and the
/// fingerprint is fixed-width hex.
fn entry_stem(key: &SweepKey) -> String {
    format!("{}-dx{}-dz{}-dt{}-{}", key.instruction.id(), key.dx, key.dz, key.dt, key.spec)
}

fn encode_entry(stem: &str, row: &ResourceRow) -> String {
    format!("tiscc-frontier-cache v{CACHE_FORMAT_VERSION}\nstem={stem}\n{}", row.to_record())
}

/// Decodes an entry file, returning `None` unless every check passes:
/// the version header matches, the recorded stem matches the file name
/// (catching renamed or cross-copied entries), the row record parses, and
/// the row's distances agree with the stem.
fn decode_entry(stem: &str, text: &str, version: u32) -> Option<ResourceRow> {
    let (header, rest) = text.split_once('\n')?;
    if header != format!("tiscc-frontier-cache v{version}") {
        return None;
    }
    let (stem_line, record) = rest.split_once('\n')?;
    if stem_line.strip_prefix("stem=")? != stem {
        return None;
    }
    let row = ResourceRow::from_record(record).ok()?;
    if !stem.contains(&format!("-dx{}-dz{}-", row.dx, row.dz)) {
        return None;
    }
    Some(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiscc_core::Instruction;
    use tiscc_estimator::compiler::{CompileRequest, Compiler};
    use tiscc_hw::HardwareSpec;

    fn scratch_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("tiscc-frontier-cache-{tag}-{}-{id}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_row() -> (SweepKey, ResourceRow) {
        let spec = HardwareSpec::h1();
        let request = CompileRequest::new(Instruction::PrepareZ, 3, 3, 3).with_spec(spec);
        let compiler = Compiler::default();
        let row = compiler.compile_row(&request).unwrap();
        (request.key(), row)
    }

    #[test]
    fn entries_survive_reopen_bit_for_bit() {
        let root = scratch_dir("reopen");
        let (key, row) = sample_row();
        let cache = DiskCache::open(&root).unwrap();
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.misses(), 1);
        cache.insert(&key, &row).unwrap();

        let warm = DiskCache::open(&root).unwrap();
        assert_eq!(warm.len(), 1);
        assert_eq!(warm.corrupt_entries(), 0);
        let loaded = warm.get(&key).unwrap();
        assert_eq!(warm.hits(), 1);
        assert_eq!(loaded, row);
        assert_eq!(
            loaded.resources.execution_time_s.to_bits(),
            row.resources.execution_time_s.to_bits(),
            "durations must round-trip bit-for-bit, not just approximately"
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn version_mismatch_orphans_entries() {
        let root = scratch_dir("version");
        let (key, row) = sample_row();
        let cache = DiskCache::open(&root).unwrap();
        cache.insert(&key, &row).unwrap();
        drop(cache);

        let next = DiskCache::open_versioned(&root, CACHE_FORMAT_VERSION + 1).unwrap();
        assert!(next.is_empty(), "a new format version must not see old entries");
        assert!(next.get(&key).is_none());
        // The old version's entries are untouched on disk.
        let old = DiskCache::open(&root).unwrap();
        assert_eq!(old.len(), 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_entries_are_counted_and_skipped() {
        let root = scratch_dir("corrupt");
        let (key, row) = sample_row();
        let cache = DiskCache::open(&root).unwrap();
        cache.insert(&key, &row).unwrap();
        let dir = cache.dir().to_path_buf();
        drop(cache);

        // Truncate the real entry mid-record and add one file of garbage.
        let entry = fs::read_dir(&dir)
            .unwrap()
            .map(|d| d.unwrap().path())
            .find(|p| p.extension().and_then(|e| e.to_str()) == Some("entry"));
        let entry = entry.unwrap();
        let text = fs::read_to_string(&entry).unwrap();
        fs::write(&entry, &text[..text.len() / 2]).unwrap();
        fs::write(dir.join("garbage.entry"), "not a cache entry at all\n").unwrap();

        let reopened = DiskCache::open(&root).unwrap();
        assert_eq!(reopened.corrupt_entries(), 2);
        assert!(reopened.is_empty());
        assert!(reopened.get(&key).is_none(), "bad entries never served");

        // Recomputing and re-inserting heals the cache in place.
        reopened.insert(&key, &row).unwrap();
        let healed = DiskCache::open(&root).unwrap();
        assert_eq!(healed.corrupt_entries(), 1, "only the pure-garbage file remains corrupt");
        assert_eq!(healed.get(&key).unwrap(), row);
        fs::remove_dir_all(&root).unwrap();
    }

    /// Two writers, each with its own cache on one directory, insert the
    /// same rows again and again, as two processes sharing a
    /// `--cache-dir` do. No insert may fail, and the directory ends with
    /// the intact entries only.
    #[test]
    fn concurrent_writers_never_fail_each_other() {
        let root = scratch_dir("race");
        let (key, row) = sample_row();
        let keys: Vec<SweepKey> = (1..=3).map(|dt| SweepKey { dt, ..key }).collect();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let cache = DiskCache::open(&root).unwrap();
                    start.wait();
                    for _ in 0..300 {
                        for key in &keys {
                            cache.insert(key, &row).unwrap();
                        }
                    }
                });
            }
        });
        let reopened = DiskCache::open(&root).unwrap();
        assert_eq!((reopened.len(), reopened.corrupt_entries()), (3, 0));
        let leftovers = fs::read_dir(reopened.dir()).unwrap().count();
        assert_eq!(leftovers, 3, "every temporary was renamed into place");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn leftover_temporaries_are_ignored() {
        let root = scratch_dir("leftover");
        let (key, row) = sample_row();
        let cache = DiskCache::open(&root).unwrap();
        cache.insert(&key, &row).unwrap();
        // A writer killed between its write and its rename.
        let stem = entry_stem(&key);
        fs::write(cache.dir().join(format!("{stem}.4242-0.tmp")), "half an entr").unwrap();
        let reopened = DiskCache::open(&root).unwrap();
        assert_eq!((reopened.len(), reopened.corrupt_entries()), (1, 0));
        fs::remove_dir_all(&root).unwrap();
    }

    /// A FIFO named like an entry is counted corrupt without being opened:
    /// opening it would block until a writer appeared, that is forever.
    #[cfg(unix)]
    #[test]
    fn a_fifo_entry_is_skipped_without_blocking() {
        let root = scratch_dir("fifo");
        let dir = DiskCache::open(&root).unwrap().dir().to_path_buf();
        let made = std::process::Command::new("mkfifo").arg(dir.join("x.entry")).status();
        assert!(made.expect("mkfifo runs").success());
        let (tx, rx) = std::sync::mpsc::channel();
        let opener_root = root.clone();
        let opener = std::thread::spawn(move || {
            let _ = tx.send(DiskCache::open(&opener_root).map(|c| c.corrupt_entries()));
        });
        // A hung open leaves its thread blocked: fail without joining it.
        let opened = rx.recv_timeout(std::time::Duration::from_secs(20));
        assert_eq!(opened.expect("open returns, not hangs on the FIFO").unwrap(), 1);
        opener.join().unwrap();
        fs::remove_dir_all(&root).unwrap();
    }

    /// Only regular files of at most `MAX_ENTRY_BYTES` are read: an entry
    /// padded past the cap (blank lines, which the record parser skips)
    /// and a symlink to an intact entry elsewhere are both corrupt.
    #[cfg(unix)]
    #[test]
    fn oversized_entries_and_symlinks_are_corrupt() {
        let root = scratch_dir("oversized");
        let (key, row) = sample_row();
        let cache = DiskCache::open(&root).unwrap();
        let stem = entry_stem(&key);
        let text = encode_entry(&stem, &row);
        let padded = format!("{text}{}", "\n".repeat(MAX_ENTRY_BYTES as usize));
        fs::write(cache.dir().join(format!("{stem}.entry")), padded).unwrap();
        let outside = root.join("elsewhere.entry");
        let other = SweepKey { dt: key.dt + 1, ..key };
        let other_stem = entry_stem(&other);
        fs::write(&outside, encode_entry(&other_stem, &row)).unwrap();
        std::os::unix::fs::symlink(&outside, cache.dir().join(format!("{other_stem}.entry")))
            .unwrap();
        let reopened = DiskCache::open(&root).unwrap();
        assert_eq!((reopened.len(), reopened.corrupt_entries()), (0, 2));
        // Recomputed rows replace both files with intact entries.
        reopened.insert(&key, &row).unwrap();
        reopened.insert(&other, &row).unwrap();
        let healed = DiskCache::open(&root).unwrap();
        assert_eq!((healed.len(), healed.corrupt_entries()), (2, 0));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn renamed_entries_are_rejected() {
        let root = scratch_dir("renamed");
        let (key, row) = sample_row();
        let cache = DiskCache::open(&root).unwrap();
        cache.insert(&key, &row).unwrap();
        let dir = cache.dir().to_path_buf();
        drop(cache);

        // Copy the intact entry under a different instruction's stem: the
        // stem header check must refuse to serve it as that instruction.
        let src = dir.join(format!("{}.entry", entry_stem(&key)));
        let forged_stem = entry_stem(&key).replace("prepare_z", "idle");
        fs::copy(&src, dir.join(format!("{forged_stem}.entry"))).unwrap();

        let reopened = DiskCache::open(&root).unwrap();
        assert_eq!(reopened.corrupt_entries(), 1);
        assert_eq!(reopened.len(), 1, "the genuine entry still loads");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn version_one_entries_are_invisible_and_left_in_place() {
        let root = scratch_dir("v1");
        let (key, row) = sample_row();
        // A version-1 directory as older binaries wrote it: the stem
        // carried an estimate-mode suffix and the header said `v1`.
        let old_dir = root.join("v1");
        fs::create_dir_all(&old_dir).unwrap();
        let old_stem = format!("{}-compiled", entry_stem(&key));
        let old_entry = old_dir.join(format!("{old_stem}.entry"));
        let old_text = format!("tiscc-frontier-cache v1\nstem={old_stem}\n{}", row.to_record());
        fs::write(&old_entry, &old_text).unwrap();
        // A version-2 directory: today's stem, a record without the stat
        // lines, and the `v2` header.
        let v2_dir = root.join("v2");
        fs::create_dir_all(&v2_dir).unwrap();
        let stem = entry_stem(&key);
        let v2_entry = v2_dir.join(format!("{stem}.entry"));
        let v2_record: String = row
            .to_record()
            .lines()
            .filter(|l| !l.starts_with("junction_stalls=") && !l.starts_with("batched_pulses="))
            .map(|l| format!("{l}\n"))
            .collect();
        let v2_text = format!("tiscc-frontier-cache v2\nstem={stem}\n{v2_record}");
        fs::write(&v2_entry, &v2_text).unwrap();

        let cache = DiskCache::open(&root).unwrap();
        assert!(cache.is_empty());
        assert_eq!(cache.corrupt_entries(), 0, "old entries are not corrupt, just unseen");
        assert!(cache.get(&key).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert_eq!(fs::read_to_string(&old_entry).unwrap(), old_text, "old files are untouched");
        assert_eq!(fs::read_to_string(&v2_entry).unwrap(), v2_text, "old files are untouched");
        fs::remove_dir_all(&root).unwrap();
    }
}

//! The daemon's persistent, corruption-safe disk cache: one layer,
//! `jobs/<key>.json` under the cache directory.
//!
//! It is a **content-addressed response cache**: one file per distinct job
//! (key = [`JobSpec::cache_key`]), holding the exact `result_json` string
//! (and Verilog when requested) the job produced. A repeat submission of
//! the same job, in this daemon or a later one on the same directory, is
//! answered from here without synthesizing at all.
//!
//! Entries are written with atomic rename (write a temp file unique to the
//! write, then rename), versioned, and checksummed: a truncated,
//! bit-flipped, or version-skewed file is detected on load, deleted, and
//! counted — the daemon then recomputes and rewrites it. Any other file in
//! the directory (such as the `area.json` an older daemon kept) is never
//! read.
//!
//! [`JobSpec::cache_key`]: crate::JobSpec::cache_key

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use hsyn_util::{content_key, Json};

/// On-disk format version of a job file. Bump on any layout change;
/// mismatched files are discarded as corrupt.
pub const STORE_VERSION: f64 = 1.0;

/// Outcome of a job-cache lookup.
#[derive(Debug)]
pub enum JobLookup {
    /// A valid entry: the stored response payload.
    Hit(Json),
    /// No entry on disk.
    Miss,
    /// An entry existed but failed validation; it has been deleted.
    Corrupt,
}

/// Handle to the daemon's cache directory.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
}

impl DiskStore {
    /// Open (creating if needed) the cache directory and its `jobs/`
    /// subdirectory.
    ///
    /// # Errors
    ///
    /// Any directory-creation failure.
    pub fn open(root: &Path) -> io::Result<Self> {
        fs::create_dir_all(root.join("jobs"))?;
        Ok(DiskStore {
            root: root.to_path_buf(),
        })
    }

    /// The cache directory this store lives in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn job_path(&self, key: &str) -> PathBuf {
        self.root.join("jobs").join(format!("{key}.json"))
    }

    /// Atomic write: a temp file named for this write (pid and a
    /// process-wide counter), then rename over `path`. Concurrent writers
    /// of one path never share a temp file, so the last rename wins with a
    /// whole file. A crash mid-write leaves either the old file or a stray
    /// `.tmp`, never a torn target.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let n = WRITES.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("json.{}.{n}.tmp", std::process::id()));
        let written = fs::write(&tmp, bytes).and_then(|()| fs::rename(&tmp, path));
        if written.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        written
    }

    /// Look up a job by content key, validating version, key echo, and
    /// payload checksum. Any validation failure deletes the file and
    /// reports [`JobLookup::Corrupt`].
    pub fn load_job(&self, key: &str) -> JobLookup {
        let path = self.job_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return JobLookup::Miss,
            // Unreadable counts as corrupt (best effort delete below).
            Err(_) => {
                let _ = fs::remove_file(&path);
                return JobLookup::Corrupt;
            }
        };
        match validate_job_file(&text, key) {
            Some(payload) => JobLookup::Hit(payload),
            None => {
                let _ = fs::remove_file(&path);
                JobLookup::Corrupt
            }
        }
    }

    /// Write-through a computed job response.
    ///
    /// # Errors
    ///
    /// Any filesystem write/rename failure.
    pub fn store_job(&self, key: &str, payload: &Json) -> io::Result<()> {
        let payload_text = payload.to_string_pretty();
        let file = Json::Obj(vec![
            ("version".to_owned(), Json::Num(STORE_VERSION)),
            ("key".to_owned(), Json::Str(key.to_owned())),
            (
                "check".to_owned(),
                Json::Str(content_key(payload_text.as_bytes())),
            ),
            ("payload".to_owned(), payload.clone()),
        ]);
        self.write_atomic(&self.job_path(key), file.to_string_pretty().as_bytes())
    }
}

/// Validate a job-cache file: parse, version match, key echo, checksum.
fn validate_job_file(text: &str, key: &str) -> Option<Json> {
    let v = Json::parse(text).ok()?;
    if v.get("version")?.as_f64()? != STORE_VERSION {
        return None;
    }
    if v.get("key")?.as_str()? != key {
        return None;
    }
    let payload = v.get("payload")?;
    let check = v.get("check")?.as_str()?;
    if content_key(payload.to_string_pretty().as_bytes()) != check {
        return None;
    }
    Some(payload.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hsyn-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn job_cache_round_trips_and_rejects_corruption() {
        let dir = tmp_dir("job");
        let store = DiskStore::open(&dir).unwrap();
        let key = "00112233445566778899aabbccddeeff";
        assert!(matches!(store.load_job(key), JobLookup::Miss));
        let payload = Json::Obj(vec![(
            "result_json".to_owned(),
            Json::Str("{\n  \"x\": 1\n}".to_owned()),
        )]);
        store.store_job(key, &payload).unwrap();
        match store.load_job(key) {
            JobLookup::Hit(p) => assert_eq!(p.to_string_pretty(), payload.to_string_pretty()),
            other => panic!("expected hit, got {other:?}"),
        }
        // Truncate the file: detected, deleted, then a clean miss.
        let path = dir.join("jobs").join(format!("{key}.json"));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(store.load_job(key), JobLookup::Corrupt));
        assert!(matches!(store.load_job(key), JobLookup::Miss));
        // Bit-flip inside the payload: the checksum catches it.
        store.store_job(key, &payload).unwrap();
        let flipped = fs::read_to_string(&path)
            .unwrap()
            .replace("result_json", "result_jsox");
        fs::write(&path, flipped).unwrap();
        assert!(matches!(store.load_job(key), JobLookup::Corrupt));
        // A version skew is rejected even with a consistent checksum.
        store.store_job(key, &payload).unwrap();
        let skewed = fs::read_to_string(&path)
            .unwrap()
            .replace("\"version\": 1", "\"version\": 2");
        fs::write(&path, skewed).unwrap();
        assert!(matches!(store.load_job(key), JobLookup::Corrupt));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_of_one_key_leave_a_whole_entry() {
        let dir = tmp_dir("race");
        let store = DiskStore::open(&dir).unwrap();
        let key = "ffeeddccbbaa99887766554433221100";
        let payload = Json::Obj(vec![(
            "result_json".to_owned(),
            Json::Str("x".repeat(64 * 1024)),
        )]);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| store.store_job(key, &payload).unwrap());
            }
        });
        match store.load_job(key) {
            JobLookup::Hit(p) => assert_eq!(p.to_string_pretty(), payload.to_string_pretty()),
            other => panic!("expected hit, got {other:?}"),
        }
        let strays: Vec<_> = fs::read_dir(dir.join("jobs"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".tmp"))
            .collect();
        assert!(strays.is_empty(), "stray temp files: {strays:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}

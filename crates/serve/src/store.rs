//! The daemon's persistent, corruption-safe disk cache.
//!
//! Two layers live under one cache directory:
//!
//! * `jobs/<key>.json` — the **content-addressed response cache**: one file
//!   per distinct job (key = [`JobSpec::cache_key`]), holding the exact
//!   `result_json` string (and Verilog when requested) the job produced.
//!   A repeat submission of the same job is answered from here without
//!   synthesizing at all.
//! * `area.json` — the **fingerprint-keyed area store**: every
//!   `(structural fingerprint → AreaBreakdown)` pair any job priced, per
//!   library. New jobs are seeded from it, so shared submodules (biquads,
//!   dot-products) hit warm across jobs *and* across daemon restarts.
//!
//! Both layers are written with atomic rename (write a temp file unique to
//! the write, then rename), versioned, and checksummed: a truncated, bit-flipped, or
//! version-skewed file is detected on load, discarded (and deleted, for
//! job files), and counted — the daemon then recomputes cold and rewrites.
//! Floats persist as `f64::to_bits` hex, so a round trip is bit-exact.
//!
//! [`JobSpec::cache_key`]: crate::JobSpec::cache_key

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use hsyn_rtl::AreaBreakdown;
use hsyn_util::{content_key, Json};

/// On-disk format version for both layers. Bump on any layout change;
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

    /// Path of the persisted area store.
    pub fn area_path(&self) -> PathBuf {
        self.root.join("area.json")
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

    /// Load the persisted per-library area entries. Returns the entries
    /// and how many whole-file discards happened (0 or 1: the area store
    /// is one file; any corruption discards it entirely — area entries
    /// are pure optimization, so starting cold is always safe).
    pub fn load_areas(&self) -> (HashMap<String, Vec<(u64, AreaBreakdown)>>, u64) {
        let path = self.area_path();
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return (HashMap::new(), 0),
            Err(_) => return (HashMap::new(), 1),
        };
        match validate_area_file(&text) {
            Some(libs) => (libs, 0),
            None => {
                let _ = fs::remove_file(&path);
                (HashMap::new(), 1)
            }
        }
    }

    /// Persist the area store: libraries sorted by name, entries sorted by
    /// fingerprint — equal stores serialize to equal bytes.
    ///
    /// # Errors
    ///
    /// Any filesystem write/rename failure.
    pub fn store_areas(&self, libs: &[(String, Vec<(u64, AreaBreakdown)>)]) -> io::Result<()> {
        let mut lib_fields: Vec<(String, Json)> = Vec::new();
        for (name, entries) in libs {
            let arr: Vec<Json> = entries
                .iter()
                .map(|&(fp, a)| Json::Arr(vec![Json::Str(format!("{fp:016x}")), area_to_json(&a)]))
                .collect();
            lib_fields.push((name.clone(), Json::Arr(arr)));
        }
        let body = Json::Obj(lib_fields).to_string_pretty();
        let file = Json::Obj(vec![
            ("version".to_owned(), Json::Num(STORE_VERSION)),
            ("check".to_owned(), Json::Str(content_key(body.as_bytes()))),
            ("libs_text".to_owned(), Json::Str(body)),
        ]);
        self.write_atomic(&self.area_path(), file.to_string_pretty().as_bytes())
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

/// Validate the area-store file and decode its per-library entries.
fn validate_area_file(text: &str) -> Option<HashMap<String, Vec<(u64, AreaBreakdown)>>> {
    let v = Json::parse(text).ok()?;
    if v.get("version")?.as_f64()? != STORE_VERSION {
        return None;
    }
    let body = v.get("libs_text")?.as_str()?;
    if content_key(body.as_bytes()) != v.get("check")?.as_str()? {
        return None;
    }
    let libs = Json::parse(body).ok()?;
    let Json::Obj(fields) = &libs else {
        return None;
    };
    let mut out = HashMap::new();
    for (name, arr) in fields {
        let mut entries = Vec::new();
        for entry in arr.as_arr()? {
            let pair = entry.as_arr()?;
            if pair.len() != 2 {
                return None;
            }
            let fp = u64::from_str_radix(pair[0].as_str()?, 16).ok()?;
            entries.push((fp, area_from_json(&pair[1])?));
        }
        out.insert(name.clone(), entries);
    }
    Some(out)
}

/// Hex-bits field order for [`AreaBreakdown`] persistence.
const AREA_FIELDS: [&str; 7] = ["fu", "reg", "mux", "wire", "controller", "mem", "subs"];

fn area_to_json(a: &AreaBreakdown) -> Json {
    let vals = [a.fu, a.reg, a.mux, a.wire, a.controller, a.mem, a.subs];
    Json::Obj(
        AREA_FIELDS
            .iter()
            .zip(vals)
            .map(|(k, v)| ((*k).to_owned(), Json::Str(format!("{:016x}", v.to_bits()))))
            .collect(),
    )
}

fn area_from_json(v: &Json) -> Option<AreaBreakdown> {
    let mut vals = [0f64; 7];
    for (slot, key) in vals.iter_mut().zip(AREA_FIELDS) {
        *slot = f64::from_bits(u64::from_str_radix(v.get(key)?.as_str()?, 16).ok()?);
    }
    let [fu, reg, mux, wire, controller, mem, subs] = vals;
    Some(AreaBreakdown {
        fu,
        reg,
        mux,
        wire,
        controller,
        mem,
        subs,
    })
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

    #[test]
    fn area_store_round_trips_bit_exactly_and_survives_poisoning() {
        let dir = tmp_dir("area");
        let store = DiskStore::open(&dir).unwrap();
        let entries = vec![
            (
                7u64,
                AreaBreakdown {
                    fu: 1.5,
                    reg: 0.1 + 0.2, // deliberately non-representable
                    mux: -0.0,
                    wire: f64::MIN_POSITIVE,
                    controller: 1e300,
                    mem: 0.0,
                    subs: 3.25,
                },
            ),
            (u64::MAX, AreaBreakdown::default()),
        ];
        store
            .store_areas(&[("realistic".to_owned(), entries.clone())])
            .unwrap();
        let (loaded, discards) = store.load_areas();
        assert_eq!(discards, 0);
        let got = &loaded["realistic"];
        assert_eq!(got.len(), entries.len());
        for ((fp_w, a_w), (fp_r, a_r)) in entries.iter().zip(got) {
            assert_eq!(fp_w, fp_r);
            // Bit-exact floats, including -0.0 and subnormal-adjacent values.
            assert_eq!(a_w.fu.to_bits(), a_r.fu.to_bits());
            assert_eq!(a_w.reg.to_bits(), a_r.reg.to_bits());
            assert_eq!(a_w.mux.to_bits(), a_r.mux.to_bits());
            assert_eq!(a_w.wire.to_bits(), a_r.wire.to_bits());
            assert_eq!(a_w.controller.to_bits(), a_r.controller.to_bits());
            assert_eq!(a_w.mem.to_bits(), a_r.mem.to_bits());
            assert_eq!(a_w.subs.to_bits(), a_r.subs.to_bits());
        }
        // Poison the file: load discards it (counted) and starts cold.
        fs::write(store.area_path(), b"{\"version\": 1, garbage").unwrap();
        let (loaded, discards) = store.load_areas();
        assert!(loaded.is_empty());
        assert_eq!(discards, 1);
        // The poisoned file was deleted: the next load is a clean cold start.
        assert_eq!(store.load_areas().1, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}

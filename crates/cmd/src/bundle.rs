//! Self-contained campaign bundles: store + journal + reports in one file.
//!
//! ## Format
//!
//! ```text
//! magic  b"RFBUNDLE" + version byte 0x01
//! u32 LE file count
//! per file, in sorted path order:
//!   u32 LE path length, path bytes (UTF-8, '/'-separated, relative)
//!   u64 LE data length, data bytes
//!   u32 LE CRC-32 of data
//! ```
//!
//! Paths carry one of three prefixes: `store/` (the result store tree,
//! minus in-flight `*.tmp.*` files and minus its embedded journal, which
//! gets its own prefix), `journal/` and `reports/`. Import verifies the
//! magic and every checksum before writing anything, then recreates each
//! file with temp+rename — a bundle either imports byte-for-byte or not at
//! all.

use crate::journal::crc32;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 9] = b"RFBUNDLE\x01";

/// What a bundle export or import covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BundleStats {
    /// Files in the bundle.
    pub files: usize,
    /// Total payload bytes (excluding framing).
    pub bytes: u64,
}

/// Collects `root` recursively into `files` under `prefix/`, skipping
/// in-flight temp files. Missing roots contribute nothing (a campaign
/// without reports is still bundleable).
fn collect(
    files: &mut BTreeMap<String, PathBuf>,
    prefix: &str,
    root: &Path,
    skip: Option<&Path>,
) -> io::Result<()> {
    if !root.exists() {
        return Ok(());
    }
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            if Some(path.as_path()) == skip {
                continue;
            }
            if entry.file_type()?.is_dir() {
                stack.push(path);
                continue;
            }
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.contains(".tmp.") {
                continue;
            }
            let rel = path
                .strip_prefix(root)
                .expect("walked paths start at root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            files.insert(format!("{prefix}/{rel}"), path);
        }
    }
    Ok(())
}

/// Exports `store_root` (+ optional journal dir + optional reports dir) as
/// one bundle file at `dest`, written with temp+rename.
///
/// When the journal lives inside the store root (the default layout), it
/// is excluded from the `store/` walk and exported under `journal/` — the
/// bundle layout is identical wherever the journal physically lives.
pub fn export_bundle(
    store_root: &Path,
    journal_dir: Option<&Path>,
    reports_dir: Option<&Path>,
    dest: &Path,
) -> io::Result<BundleStats> {
    let mut files: BTreeMap<String, PathBuf> = BTreeMap::new();
    collect(&mut files, "store", store_root, journal_dir)?;
    if let Some(journal) = journal_dir {
        collect(&mut files, "journal", journal, None)?;
    }
    if let Some(reports) = reports_dir {
        collect(&mut files, "reports", reports, None)?;
    }

    let mut stats = BundleStats {
        files: files.len(),
        bytes: 0,
    };
    let tmp = dest.with_extension(format!("rfb.tmp.{}", std::process::id()));
    if let Some(parent) = dest.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut out = io::BufWriter::new(std::fs::File::create(&tmp)?);
    out.write_all(MAGIC)?;
    out.write_all(&(files.len() as u32).to_le_bytes())?;
    for (rel, path) in &files {
        let data = std::fs::read(path)?;
        out.write_all(&(rel.len() as u32).to_le_bytes())?;
        out.write_all(rel.as_bytes())?;
        out.write_all(&(data.len() as u64).to_le_bytes())?;
        out.write_all(&data)?;
        out.write_all(&crc32(&data).to_le_bytes())?;
        stats.bytes += data.len() as u64;
    }
    out.flush()?;
    out.into_inner()
        .map_err(|e| io::Error::other(e.to_string()))?
        .sync_all()?;
    std::fs::rename(&tmp, dest)?;
    Ok(stats)
}

fn corrupt(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Reads and verifies every entry of the bundle at `src`.
pub fn read_bundle(src: &Path) -> io::Result<Vec<(String, Vec<u8>)>> {
    let mut file = io::BufReader::new(std::fs::File::open(src)?);
    let mut magic = [0u8; 9];
    file.read_exact(&mut magic)
        .map_err(|_| corrupt("bundle too short for magic"))?;
    if &magic != MAGIC {
        return Err(corrupt("not a rackfabric bundle (bad magic)"));
    }
    let mut u32buf = [0u8; 4];
    let mut u64buf = [0u8; 8];
    file.read_exact(&mut u32buf)
        .map_err(|_| corrupt("truncated file count"))?;
    let count = u32::from_le_bytes(u32buf) as usize;
    let mut entries = Vec::with_capacity(count.min(1 << 16));
    for i in 0..count {
        file.read_exact(&mut u32buf)
            .map_err(|_| corrupt(format!("entry {i}: truncated path length")))?;
        let path_len = u32::from_le_bytes(u32buf) as usize;
        if path_len > 4096 {
            return Err(corrupt(format!("entry {i}: implausible path length")));
        }
        let mut path = vec![0u8; path_len];
        file.read_exact(&mut path)
            .map_err(|_| corrupt(format!("entry {i}: truncated path")))?;
        let path = String::from_utf8(path)
            .map_err(|_| corrupt(format!("entry {i}: path is not UTF-8")))?;
        if path.starts_with('/') || path.split('/').any(|c| c.is_empty() || c == "..") {
            return Err(corrupt(format!("entry {i}: unsafe path {path:?}")));
        }
        file.read_exact(&mut u64buf)
            .map_err(|_| corrupt(format!("{path}: truncated data length")))?;
        let data_len = u64::from_le_bytes(u64buf);
        let mut data = vec![0u8; data_len as usize];
        file.read_exact(&mut data)
            .map_err(|_| corrupt(format!("{path}: truncated data")))?;
        file.read_exact(&mut u32buf)
            .map_err(|_| corrupt(format!("{path}: truncated checksum")))?;
        if crc32(&data) != u32::from_le_bytes(u32buf) {
            return Err(corrupt(format!("{path}: checksum mismatch")));
        }
        entries.push((path, data));
    }
    Ok(entries)
}

/// Imports the bundle at `src` under `dest_root`, recreating
/// `store/`, `journal/` and `reports/` byte-for-byte. Verification happens
/// before the first write; each file is then written with temp+rename.
pub fn import_bundle(src: &Path, dest_root: &Path) -> io::Result<BundleStats> {
    let entries = read_bundle(src)?;
    let mut stats = BundleStats::default();
    for (rel, data) in entries {
        let path = dest_root.join(&rel);
        let parent = path.parent().expect("bundle paths have parents");
        std::fs::create_dir_all(parent)?;
        let tmp = parent.join(format!(
            "{}.tmp.{}",
            path.file_name()
                .and_then(|n| n.to_str())
                .expect("validated path"),
            std::process::id()
        ));
        std::fs::write(&tmp, &data)?;
        std::fs::rename(&tmp, &path)?;
        stats.files += 1;
        stats.bytes += data.len() as u64;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rackfabric_sweep::testdir::TestDir;

    fn write(path: &Path, contents: &str) {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, contents).unwrap();
    }

    fn tree(root: &Path) -> BTreeMap<String, Vec<u8>> {
        let mut out = BTreeMap::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir).unwrap().flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    let rel = path.strip_prefix(root).unwrap().display().to_string();
                    out.insert(rel, std::fs::read(&path).unwrap());
                }
            }
        }
        out
    }

    #[test]
    fn round_trip_is_byte_for_byte_and_skips_temp_files() {
        let root = TestDir::new("cmd-bundle-roundtrip");
        let store = root.join("store");
        let journal = store.join("journal");
        let reports = root.join("reports");
        write(&store.join("objects/ab/cdef.json"), "{\"x\":1}\n");
        write(&store.join("objects/cd/0123.json"), "{\"y\":2}\n");
        write(&store.join("stats.json"), "{\"hits\": 3}\n");
        write(&store.join("objects/ab/junk.tmp.999.0"), "half");
        write(&journal.join("seg-00000000.wal"), "fakewal");
        write(&reports.join("cells.csv"), "a,b\n1,2\n");
        write(&reports.join("plots/latency.svg"), "<svg/>");

        let dest = root.join("campaign.rfb");
        let stats = export_bundle(&store, Some(&journal), Some(&reports), &dest).unwrap();
        assert_eq!(stats.files, 6, "tmp file excluded, journal not doubled");

        let restored = root.join("restored");
        let back = import_bundle(&dest, &restored).unwrap();
        assert_eq!(back.files, 6);
        assert_eq!(back.bytes, stats.bytes);

        // Store records and reports reproduce byte-for-byte; the journal
        // lands under its own prefix regardless of where it lived.
        let mut expected = BTreeMap::new();
        for (k, v) in tree(&store) {
            if k.contains(".tmp.") || k.starts_with("journal") {
                continue;
            }
            expected.insert(format!("store/{k}"), v);
        }
        for (k, v) in tree(&journal) {
            expected.insert(format!("journal/{k}"), v);
        }
        for (k, v) in tree(&reports) {
            expected.insert(format!("reports/{k}"), v);
        }
        assert_eq!(tree(&restored), expected);

        // Exporting the restored tree reproduces the bundle bytes exactly.
        let dest2 = root.join("campaign2.rfb");
        export_bundle(
            &restored.join("store"),
            Some(&restored.join("journal")),
            Some(&restored.join("reports")),
            &dest2,
        )
        .unwrap();
        assert_eq!(
            std::fs::read(&dest).unwrap(),
            std::fs::read(&dest2).unwrap()
        );
    }

    #[test]
    fn corrupt_bundles_are_rejected_before_any_write() {
        let root = TestDir::new("cmd-bundle-corrupt");
        let store = root.join("store");
        write(&store.join("objects/ab/cd.json"), "{}\n");
        let dest = root.join("x.rfb");
        export_bundle(&store, None, None, &dest).unwrap();

        let mut bytes = std::fs::read(&dest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // flip a checksum byte
        std::fs::write(&dest, &bytes).unwrap();

        let restored = root.join("restored");
        let err = import_bundle(&dest, &restored).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!restored.exists(), "nothing may be written on failure");

        // Traversal attempts are rejected too.
        let evil = root.join("evil.rfb");
        let mut payload = Vec::new();
        payload.extend_from_slice(MAGIC);
        payload.extend_from_slice(&1u32.to_le_bytes());
        let path = b"../escape";
        payload.extend_from_slice(&(path.len() as u32).to_le_bytes());
        payload.extend_from_slice(path);
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&crc32(b"").to_le_bytes());
        std::fs::write(&evil, &payload).unwrap();
        assert!(import_bundle(&evil, &restored).is_err());
    }
}

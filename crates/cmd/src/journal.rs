//! The append-only campaign journal.
//!
//! ## On-disk format
//!
//! A journal is a directory of segment files `seg-00000000.wal`,
//! `seg-00000001.wal`, … Each segment is a sequence of records:
//!
//! ```text
//! [u32 LE payload length][u32 LE CRC-32 of payload][payload bytes]
//! ```
//!
//! The payload is one canonical-JSON document
//! `{"cmd":<command>,"format":1,"seq":<n>}` with strictly increasing
//! sequence numbers across segments. Records are written ahead of the
//! mutation they describe, with a flush before the mutation starts, so a
//! crash can lose at most the tail record of a mutation that had not
//! happened yet — never a record of one that had.
//!
//! New segments are created with temp+rename (never half-visible); appends
//! go to the newest segment until it passes the rotation threshold.
//!
//! ## Torn tails
//!
//! Readers validate every record (length sanity, checksum, JSON shape,
//! sequence continuity) and stop at the first invalid byte: the result is
//! the **longest valid prefix** of the log, with the truncation point
//! reported in [`LogTail`]. A journal that was torn mid-record is still a
//! perfectly good journal for everything before the tear.

use crate::command::Command;
use rackfabric_sim::json::{self, JsonValue};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Journal payload format version.
const FORMAT: u64 = 1;

/// Appends move to a fresh segment once the active one passes this size.
/// Small enough that campaign journals rotate in practice (so rotation is
/// exercised, not theoretical), large enough that a segment holds many
/// records.
const SEGMENT_ROTATE_BYTES: u64 = 64 * 1024;

/// Upper bound on a single record payload; a length prefix beyond this is
/// treated as corruption rather than an allocation request.
const MAX_RECORD_BYTES: u32 = 16 * 1024 * 1024;

/// One validated journal entry.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Strictly increasing sequence number.
    pub seq: u64,
    /// The journaled command.
    pub command: Command,
}

/// Where (and whether) reading stopped before the end of the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogTail {
    /// True when every byte of every segment validated.
    pub clean: bool,
    /// Segment file the read stopped in (empty when the journal has none).
    pub segment: String,
    /// Byte offset of the first invalid (or trailing) byte in that segment.
    pub offset: u64,
}

/// An open, appendable campaign journal.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    /// Index of the segment appends currently go to.
    active: u64,
    /// Size in bytes of the active segment.
    active_len: u64,
    /// Sequence number the next append will use.
    next_seq: u64,
}

fn segment_name(index: u64) -> String {
    format!("seg-{index:08}.wal")
}

/// Sorted indices of the segment files present in `dir`.
fn segment_indices(dir: &Path) -> io::Result<Vec<u64>> {
    let mut indices = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(indices),
        Err(e) => return Err(e),
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(index) = name
            .strip_prefix("seg-")
            .and_then(|rest| rest.strip_suffix(".wal"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            indices.push(index);
        }
    }
    indices.sort_unstable();
    Ok(indices)
}

impl Journal {
    /// Opens (creating if needed) the journal rooted at `dir` and positions
    /// the appender after the longest valid prefix of the existing log.
    ///
    /// A torn or corrupt tail is healed on open: the damaged segment is
    /// truncated to its valid prefix and any later segments — unreachable
    /// continuation past the tear — are removed, so new appends extend the
    /// valid prefix contiguously.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Journal> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let (records, tail) = read_log(&dir)?;
        let mut indices = segment_indices(&dir)?;
        if indices.is_empty() {
            create_segment(&dir, 0)?;
            indices.push(0);
        }
        let next_seq = records.last().map(|r| r.seq + 1).unwrap_or(0);
        let mut active = *indices.last().expect("non-empty above");
        if !tail.clean {
            let damaged = indices
                .iter()
                .copied()
                .find(|&i| segment_name(i) == tail.segment)
                .expect("tail names an existing segment");
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(dir.join(&tail.segment))?;
            file.set_len(tail.offset)?;
            file.sync_all()?;
            for &index in indices.iter().filter(|&&i| i > damaged) {
                std::fs::remove_file(dir.join(segment_name(index)))?;
            }
            active = damaged;
        }
        let active_len = std::fs::metadata(dir.join(segment_name(active)))?.len();
        Ok(Journal {
            dir,
            active,
            active_len,
            next_seq,
        })
    }

    /// The journal's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number the next append will be given.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one command record (write-ahead: call this **before**
    /// performing the mutation it describes) and flushes it to disk.
    pub fn append(&mut self, command: &Command) -> io::Result<u64> {
        if self.active_len >= SEGMENT_ROTATE_BYTES {
            let next = self.active + 1;
            create_segment(&self.dir, next)?;
            self.active = next;
            self.active_len = 0;
        }
        let seq = self.next_seq;
        let payload = json::canonical(&JsonValue::Object(vec![
            ("cmd".to_string(), command.to_value()),
            ("format".to_string(), JsonValue::Number(FORMAT.to_string())),
            ("seq".to_string(), JsonValue::Number(seq.to_string())),
        ]));
        let payload = payload.as_bytes();
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);

        let path = self.dir.join(segment_name(self.active));
        let mut file = std::fs::OpenOptions::new().append(true).open(&path)?;
        file.write_all(&frame)?;
        file.flush()?;
        file.sync_data()?;
        self.active_len += frame.len() as u64;
        self.next_seq += 1;
        Ok(seq)
    }
}

/// Creates segment `index` atomically (temp+rename), leaving an existing
/// segment of that index untouched.
fn create_segment(dir: &Path, index: u64) -> io::Result<()> {
    let path = dir.join(segment_name(index));
    if path.exists() {
        return Ok(());
    }
    let tmp = dir.join(format!(
        "{}.tmp.{}",
        segment_name(index),
        std::process::id()
    ));
    std::fs::write(&tmp, b"")?;
    std::fs::rename(&tmp, &path)?;
    Ok(())
}

/// Reads the longest valid prefix of the journal at `dir`.
///
/// Never fails on corruption — a checksum mismatch, short frame, malformed
/// payload or sequence break terminates the read and is reported via
/// [`LogTail`]; only real I/O errors (permissions, disappearing directory)
/// surface as `Err`.
pub fn read_log(dir: &Path) -> io::Result<(Vec<LogRecord>, LogTail)> {
    let mut records = Vec::new();
    let mut tail = LogTail {
        clean: true,
        segment: String::new(),
        offset: 0,
    };
    let mut expected_seq = 0u64;
    for index in segment_indices(dir)? {
        let name = segment_name(index);
        let bytes = std::fs::read(dir.join(&name))?;
        let mut offset = 0usize;
        tail.segment = name.clone();
        loop {
            if offset == bytes.len() {
                tail.offset = offset as u64;
                break;
            }
            match parse_record(&bytes[offset..], expected_seq) {
                Some((record, consumed)) => {
                    records.push(record);
                    expected_seq += 1;
                    offset += consumed;
                }
                None => {
                    // Torn or corrupt: the valid prefix ends here, and any
                    // later segments are unreachable continuation.
                    tail.clean = false;
                    tail.offset = offset as u64;
                    return Ok((records, tail));
                }
            }
        }
    }
    Ok((records, tail))
}

/// Parses one record from the head of `bytes`; `None` on any damage.
fn parse_record(bytes: &[u8], expected_seq: u64) -> Option<(LogRecord, usize)> {
    if bytes.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().ok()?);
    let checksum = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    if len > MAX_RECORD_BYTES {
        return None;
    }
    let end = 8usize.checked_add(len as usize)?;
    let payload = bytes.get(8..end)?;
    if crc32(payload) != checksum {
        return None;
    }
    let text = std::str::from_utf8(payload).ok()?;
    let doc = json::parse(text).ok()?;
    if doc.get("format")?.as_u64()? != FORMAT {
        return None;
    }
    let seq = doc.get("seq")?.as_u64()?;
    if seq != expected_seq {
        return None;
    }
    let command = Command::from_value(doc.get("cmd")?)?;
    Some((LogRecord { seq, command }, end))
}

/// CRC-32 (IEEE 802.3, reflected), implemented bitwise — the journal is not
/// throughput-bound and this keeps the crate dependency-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in bytes {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rackfabric_sweep::key::JobKey;
    use rackfabric_sweep::testdir::TestDir;

    fn sample(i: u64) -> Command {
        Command::ExecuteCell {
            key: JobKey(i as u128 * 0x1_0001),
            spec_json: format!("{{\"seed\":{i}}}"),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn append_read_round_trip_with_reopen() {
        let dir = TestDir::new("cmd-journal-roundtrip");
        let mut journal = Journal::open(dir.path()).unwrap();
        for i in 0..5 {
            assert_eq!(journal.append(&sample(i)).unwrap(), i);
        }
        drop(journal);
        // Reopen continues the sequence.
        let mut journal = Journal::open(dir.path()).unwrap();
        assert_eq!(journal.next_seq(), 5);
        journal.append(&sample(5)).unwrap();

        let (records, tail) = read_log(dir.path()).unwrap();
        assert!(tail.clean);
        assert_eq!(records.len(), 6);
        for (i, record) in records.iter().enumerate() {
            assert_eq!(record.seq, i as u64);
            assert_eq!(record.command, sample(i as u64));
        }
    }

    #[test]
    fn segments_rotate_and_reads_span_them() {
        let dir = TestDir::new("cmd-journal-rotate");
        let mut journal = Journal::open(dir.path()).unwrap();
        // Big-ish records so the 64 KiB threshold trips quickly.
        let fat_spec = format!("{{\"seed\":{}}}", "9".repeat(4000));
        let n = 40u64;
        for i in 0..n {
            journal
                .append(&Command::ExecuteCell {
                    key: JobKey(i as u128),
                    spec_json: fat_spec.clone(),
                })
                .unwrap();
        }
        let segments = segment_indices(dir.path()).unwrap();
        assert!(
            segments.len() >= 2,
            "expected rotation, got {} segment(s)",
            segments.len()
        );
        let (records, tail) = read_log(dir.path()).unwrap();
        assert!(tail.clean);
        assert_eq!(records.len(), n as usize);
    }

    #[test]
    fn corrupt_checksum_truncates_to_valid_prefix() {
        let dir = TestDir::new("cmd-journal-corrupt");
        let mut journal = Journal::open(dir.path()).unwrap();
        for i in 0..4 {
            journal.append(&sample(i)).unwrap();
        }
        // Flip one payload byte of the third record.
        let seg = dir.join(segment_name(0));
        let mut bytes = std::fs::read(&seg).unwrap();
        let record_len = {
            let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
            8 + len
        };
        bytes[2 * record_len + 12] ^= 0x40;
        std::fs::write(&seg, &bytes).unwrap();

        let (records, tail) = read_log(dir.path()).unwrap();
        assert!(!tail.clean);
        assert_eq!(records.len(), 2, "prefix before the flipped byte survives");
        assert_eq!(tail.offset, (2 * record_len) as u64);

        // Reopening after damage truncates it and appends resume cleanly.
        let mut journal = Journal::open(dir.path()).unwrap();
        assert_eq!(journal.next_seq(), 2);
        journal.append(&sample(2)).unwrap();
        let (records, tail) = read_log(dir.path()).unwrap();
        assert!(tail.clean);
        assert_eq!(records.len(), 3);
    }
}

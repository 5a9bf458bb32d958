//! The append-only manifest log: framing, checksums, torn-tail replay.
//!
//! Every metadata mutation (register, delete) is one framed record
//! appended to `manifest.log` and fsynced before the call returns. A
//! record is `[len: u32 LE][fnv1a-64(payload): u64 LE][payload]` where
//! the payload is one JSON document. On open the log is replayed from
//! the start; the first record that fails its frame or checksum marks
//! the *valid prefix* — everything before it is applied, everything
//! from it on is a torn tail (a crash mid-append) and is **truncated,
//! not fatal**. This is the standard write-ahead-log recovery rule: an
//! append either fully commits or effectively never happened.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;

/// Frame header size: `u32` length + `u64` checksum.
const HEADER: usize = 12;

/// Upper bound on one record's payload — far above any real manifest
/// record (they are small JSON documents), low enough that a corrupt
/// length field cannot ask for gigabytes.
const MAX_RECORD: usize = 1 << 20;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends one framed record and fsyncs. The frame is written with a
/// single `write_all` so a crash tears at most the trailing record —
/// exactly the case replay recovers from.
pub(crate) fn append_record(log: &mut File, payload: &[u8]) -> std::io::Result<()> {
    assert!(payload.len() <= MAX_RECORD, "manifest record over the frame bound");
    let mut frame = Vec::with_capacity(HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    log.write_all(&frame)?;
    log.sync_data()
}

/// The result of replaying a manifest log.
pub(crate) struct Replay {
    /// Every valid record's payload, in append order.
    pub(crate) records: Vec<Vec<u8>>,
    /// Torn/garbage tail bytes dropped (0 for a clean log).
    pub(crate) truncated_bytes: u64,
    /// The log file, positioned at its (possibly truncated) end, ready
    /// for appends.
    pub(crate) log: File,
}

/// Opens (creating if absent) and replays the log at `path`, truncating
/// any torn tail in place.
pub(crate) fn replay(path: &Path) -> std::io::Result<Replay> {
    let mut log = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    let mut bytes = Vec::new();
    log.read_to_end(&mut bytes)?;

    let mut records = Vec::new();
    let mut at = 0usize;
    loop {
        let rest = &bytes[at..];
        if rest.is_empty() {
            break; // clean end
        }
        if rest.len() < HEADER {
            break; // torn header
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let sum = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
        if len > MAX_RECORD || rest.len() < HEADER + len {
            break; // absurd length (garbage) or torn payload
        }
        let payload = &rest[HEADER..HEADER + len];
        if fnv1a64(payload) != sum {
            break; // payload bytes damaged
        }
        records.push(payload.to_vec());
        at += HEADER + len;
    }

    let truncated_bytes = (bytes.len() - at) as u64;
    if truncated_bytes > 0 {
        log.set_len(at as u64)?;
        log.sync_data()?;
    }
    log.seek(SeekFrom::Start(at as u64))?;
    Ok(Replay { records, truncated_bytes, log })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Removes its directory on drop, so a test run leaves nothing
    /// behind in the temp dir.
    struct ScratchDir(std::path::PathBuf);

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A fresh log path in a directory of the calling test's own.
    fn scratch(name: &str) -> (ScratchDir, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("hsr-manifest-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        (ScratchDir(dir), path)
    }

    #[test]
    fn records_replay_in_order() {
        let (_dir, path) = scratch("order.log");
        {
            let mut r = replay(&path).unwrap();
            append_record(&mut r.log, b"one").unwrap();
            append_record(&mut r.log, b"two").unwrap();
            append_record(&mut r.log, b"three").unwrap();
        }
        let r = replay(&path).unwrap();
        assert_eq!(r.records, vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]);
        assert_eq!(r.truncated_bytes, 0);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let (_dir, path) = scratch("torn.log");
        {
            let mut r = replay(&path).unwrap();
            append_record(&mut r.log, b"keep-a").unwrap();
            append_record(&mut r.log, b"keep-b").unwrap();
        }
        // Simulate a crash mid-append: half a frame of garbage.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x07, 0x00, 0x00, 0x00, 0xde, 0xad]).unwrap();
        }
        let mut r = replay(&path).unwrap();
        assert_eq!(r.records, vec![b"keep-a".to_vec(), b"keep-b".to_vec()]);
        assert_eq!(r.truncated_bytes, 6);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        // The truncated log accepts new appends cleanly.
        append_record(&mut r.log, b"after").unwrap();
        let r = replay(&path).unwrap();
        assert_eq!(r.records.len(), 3);
        assert_eq!(r.records[2], b"after".to_vec());
    }

    #[test]
    fn damaged_payload_drops_the_tail_from_the_damage_on() {
        let (_dir, path) = scratch("damage.log");
        {
            let mut r = replay(&path).unwrap();
            append_record(&mut r.log, b"good").unwrap();
            append_record(&mut r.log, b"flipped").unwrap();
        }
        // Flip one byte inside the second record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let second_payload_at = HEADER + 4 + HEADER;
        bytes[second_payload_at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let r = replay(&path).unwrap();
        assert_eq!(r.records, vec![b"good".to_vec()]);
        assert!(r.truncated_bytes > 0);
    }

    #[test]
    fn absurd_length_field_is_garbage_not_an_allocation() {
        let (_dir, path) = scratch("absurd.log");
        {
            let mut r = replay(&path).unwrap();
            append_record(&mut r.log, b"ok").unwrap();
        }
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            let mut frame = Vec::new();
            frame.extend_from_slice(&u32::MAX.to_le_bytes());
            frame.extend_from_slice(&[0u8; 8]);
            frame.extend_from_slice(b"pretend payload");
            f.write_all(&frame).unwrap();
        }
        let r = replay(&path).unwrap();
        assert_eq!(r.records, vec![b"ok".to_vec()]);
    }
}

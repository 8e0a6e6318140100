//! Crash-safe SEM state: an append-only, checksummed journal.
//!
//! The paper keeps the SEM online "all the system's lifetime" (§4),
//! which in practice means *across restarts* — a revocation that
//! evaporates when the daemon reboots is no revocation at all. The
//! journal persists exactly the SEM state that is not re-derivable
//! from key material: the revocation set and the validity-period epoch
//! counter.
//!
//! **Record layout** (all integers big-endian):
//!
//! ```text
//! u32 payload-len ‖ u32 crc32(payload) ‖ payload
//! payload = u8 kind ‖ data
//!   kind 1 (Revoke):   data = identity bytes (UTF-8)
//!   kind 2 (Unrevoke): data = identity bytes (UTF-8)
//!   kind 3 (Epoch):    data = u64 epoch
//!   kind 4 (Warm):     data = identity bytes (UTF-8)
//!   kind 5 (RolloverChunk): data = u32 shard ‖ u64 epoch ‖ u64 cursor ‖ u8 done
//! ```
//!
//! `Warm` records the hot-identity set the serving cache tier saw, so
//! a restarted daemon can precompute those identities' pairing values
//! before its first request (DESIGN.md §14). Pre-`Warm` binaries
//! treat kind 4 as an unknown record — i.e. as a torn tail — and
//! truncate from the first one; acceptable because warm records are
//! only appended when the operator opts in (`--cache-warm`), and
//! losing them costs warm-start coverage, never correctness.
//!
//! `RolloverChunk` journals the progress of an *incremental* epoch
//! rollover (DESIGN.md §15): shard `shard` has re-keyed the first
//! `cursor` of its users toward `epoch`, and `done = 1` marks the
//! shard's atomic switch to the new epoch. A crash between chunks
//! replays the last progress record and resumes exactly where the
//! re-key stopped — no user is re-issued twice, none skipped. Like
//! `Warm`, pre-rollover binaries treat kind 5 as a torn tail; the
//! records only appear once an operator runs an incremental rollover
//! with the newer binary.
//!
//! **Replay semantics.** [`Journal::open`] scans the file from the
//! start and folds each intact record into a [`ReplayedState`]. The
//! first record that is short, fails its CRC, carries an unknown kind,
//! or is otherwise malformed marks a *torn tail* — everything from
//! that offset on is truncated (a crash mid-append must not brick the
//! daemon) and replay stops. Corruption is therefore recoverable by
//! construction: state up to the tear survives, and the next append
//! extends the truncated file.

// Journal bytes come off disk and may be torn or corrupt: replay must
// never index past a frame, so decoding goes through the bounds-checked
// [`sempair_core::cursor::Reader`].
#![warn(clippy::indexing_slicing)]
#![cfg_attr(test, allow(clippy::indexing_slicing))]

use std::collections::{BTreeMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Replay refuses to allocate a record larger than this; a bigger
/// length prefix is treated as tail corruption, not an allocation.
const MAX_RECORD: usize = 1 << 20;

/// One durable state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// The identity joins the revocation set.
    Revoke(String),
    /// The identity leaves the revocation set.
    Unrevoke(String),
    /// The validity-period epoch counter advanced to this value.
    Epoch(u64),
    /// The identity joined the serving cache tier's hot set; replay
    /// warm-starts its precomputed values.
    Warm(String),
    /// Progress of an incremental epoch rollover on one shard: the
    /// first `cursor` users of `shard` have been re-keyed toward
    /// `epoch`; `done` marks the shard's switch to the new epoch.
    RolloverChunk {
        /// Identity-hash shard index the progress applies to.
        shard: u32,
        /// Target epoch the shard is rolling toward.
        epoch: u64,
        /// Users of the shard already re-keyed at the target epoch.
        cursor: u64,
        /// Whether the shard committed (switched to) the target epoch.
        done: bool,
    },
}

impl Record {
    fn payload(&self) -> Vec<u8> {
        match self {
            Record::Revoke(id) => {
                let mut out = vec![1u8];
                out.extend_from_slice(id.as_bytes());
                out
            }
            Record::Unrevoke(id) => {
                let mut out = vec![2u8];
                out.extend_from_slice(id.as_bytes());
                out
            }
            Record::Epoch(epoch) => {
                let mut out = vec![3u8];
                out.extend_from_slice(&epoch.to_be_bytes());
                out
            }
            Record::Warm(id) => {
                let mut out = vec![4u8];
                out.extend_from_slice(id.as_bytes());
                out
            }
            Record::RolloverChunk {
                shard,
                epoch,
                cursor,
                done,
            } => {
                let mut out = vec![5u8];
                out.extend_from_slice(&shard.to_be_bytes());
                out.extend_from_slice(&epoch.to_be_bytes());
                out.extend_from_slice(&cursor.to_be_bytes());
                out.push(u8::from(*done));
                out
            }
        }
    }

    fn from_payload(payload: &[u8]) -> Option<Record> {
        let (&kind, data) = payload.split_first()?;
        match kind {
            1 => Some(Record::Revoke(String::from_utf8(data.to_vec()).ok()?)),
            2 => Some(Record::Unrevoke(String::from_utf8(data.to_vec()).ok()?)),
            3 => {
                let data: [u8; 8] = data.try_into().ok()?;
                Some(Record::Epoch(u64::from_be_bytes(data)))
            }
            4 => Some(Record::Warm(String::from_utf8(data.to_vec()).ok()?)),
            5 => {
                let data: [u8; 21] = data.try_into().ok()?;
                let shard = u32::from_be_bytes(data.get(..4)?.try_into().ok()?);
                let epoch = u64::from_be_bytes(data.get(4..12)?.try_into().ok()?);
                let cursor = u64::from_be_bytes(data.get(12..20)?.try_into().ok()?);
                let done = match data.get(20)? {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                Some(Record::RolloverChunk {
                    shard,
                    epoch,
                    cursor,
                    done,
                })
            }
            _ => None,
        }
    }
}

/// Journaled progress of one shard's incremental epoch rollover, as
/// rebuilt by replay (last record per shard wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RolloverProgress {
    /// Target epoch the shard is rolling toward.
    pub epoch: u64,
    /// Users of the shard already re-keyed at the target epoch.
    pub cursor: u64,
    /// Whether the shard committed (switched to) the target epoch.
    pub done: bool,
}

/// The state rebuilt by replaying a journal on startup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayedState {
    /// Identities revoked as of the last intact record.
    pub revoked: HashSet<String>,
    /// Last persisted validity-period epoch (0 if never advanced).
    pub epoch: u64,
    /// Intact records replayed.
    pub records: usize,
    /// Bytes of torn/corrupt tail that were truncated away.
    pub truncated_bytes: u64,
    /// Hot identities journaled by the cache tier, in first-seen
    /// order (deduplicated), for warm-starting precomputed values.
    pub warm: Vec<String>,
    /// Per-shard incremental rollover progress (last record per shard
    /// wins); committed (`done`) entries record the shard's epoch.
    pub rollover: BTreeMap<u32, RolloverProgress>,
}

impl ReplayedState {
    fn apply(&mut self, record: &Record) {
        match record {
            Record::Revoke(id) => {
                self.revoked.insert(id.clone());
            }
            Record::Unrevoke(id) => {
                self.revoked.remove(id);
            }
            Record::Epoch(epoch) => self.epoch = *epoch,
            Record::Warm(id) => {
                if !self.warm.contains(id) {
                    self.warm.push(id.clone());
                }
            }
            Record::RolloverChunk {
                shard,
                epoch,
                cursor,
                done,
            } => {
                self.rollover.insert(
                    *shard,
                    RolloverProgress {
                        epoch: *epoch,
                        cursor: *cursor,
                        done: *done,
                    },
                );
            }
        }
        self.records += 1;
    }
}

/// An append-only journal of SEM state transitions.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    /// `false` from the creation of the file until its first append
    /// has synced the parent directory ([`Journal::append`]).
    name_durable: bool,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, replays every
    /// intact record, truncates any torn tail, and positions the file
    /// for appending.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the filesystem; corruption inside
    /// the file is *not* an error (it is truncated and reported via
    /// [`ReplayedState::truncated_bytes`]).
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<(Journal, ReplayedState)> {
        let path = path.as_ref().to_path_buf();
        let mut options = OpenOptions::new();
        options.read(true).append(true);
        let (mut file, name_durable) = match options.clone().create_new(true).open(&path) {
            Ok(file) => (file, false),
            Err(e) if e.kind() == ErrorKind::AlreadyExists => (options.open(&path)?, true),
            Err(e) => return Err(e),
        };
        let mut raw = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut raw)?;
        let mut state = ReplayedState::default();
        let mut offset = 0usize;
        while offset < raw.len() {
            let Some(record_end) = decode_at(&raw, offset) else {
                break;
            };
            let (record, end) = record_end;
            state.apply(&record);
            offset = end;
        }
        if offset < raw.len() {
            state.truncated_bytes = (raw.len() - offset) as u64;
            file.set_len(offset as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((
            Journal {
                path,
                file,
                name_durable,
            },
            state,
        ))
    }

    /// Appends one record and flushes it to the operating system. The
    /// first append to a file this journal created also syncs the
    /// parent directory: `sync_data` persists the file's contents, not
    /// the directory entry that names it, and without that entry a
    /// power loss would leave no journal to replay. Syncing here rather
    /// than at creation keeps the cost off start-up and still precedes
    /// every acknowledged record.
    ///
    /// # Errors
    ///
    /// Propagates write/sync failures; on error the record may be
    /// partially written, which the next [`open`](Self::open) heals by
    /// truncating the torn tail.
    pub fn append(&mut self, record: &Record) -> std::io::Result<()> {
        let payload = record.payload();
        // Payloads are built from bounded record fields, but cap the
        // pre-allocation at the decoder's own frame ceiling anyway so
        // a pathological record cannot reserve unbounded memory.
        let mut frame = Vec::with_capacity((8 + payload.len()).min(8 + MAX_RECORD));
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&crc32(&payload).to_be_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        if !self.name_durable {
            let dir = self.path.parent().filter(|d| !d.as_os_str().is_empty());
            File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
            self.name_durable = true;
        }
        Ok(())
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Decodes one record at `offset`; `None` marks the torn tail.
fn decode_at(raw: &[u8], offset: usize) -> Option<(Record, usize)> {
    let mut r = sempair_core::cursor::Reader::new(raw.get(offset..)?);
    let len = r.u32_be()? as usize;
    if len > MAX_RECORD {
        return None;
    }
    let crc = r.u32_be()?;
    let payload = r.bytes(len)?;
    if crc32(payload) != crc {
        return None;
    }
    let record = Record::from_payload(payload)?;
    Some((record, offset + 8 + len))
}

// --- CRC-32 (IEEE 802.3, reflected) ------------------------------------------
//
// Hand-rolled so the journal stays dependency-free; the table is built
// at compile time.

// The loop index stays below 256 by construction, and the table is
// fully evaluated at compile time anyway.
#[allow(clippy::indexing_slicing)]
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 checksum over `data`.
// The table index is masked to 8 bits against a 256-entry table, so
// the lookup cannot go out of range for any input byte.
#[allow(clippy::indexing_slicing)]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique path under the system temp dir (no tempfile dep).
    fn temp_journal(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "sempair-store-{}-{}-{tag}.journal",
            std::process::id(),
            n
        ))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // The classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn replay_rebuilds_revocations_and_epoch() {
        let path = temp_journal("replay");
        let _cleanup = Cleanup(path.clone());
        {
            let (mut journal, state) = Journal::open(&path).unwrap();
            assert_eq!(state, ReplayedState::default());
            journal.append(&Record::Revoke("alice".into())).unwrap();
            journal.append(&Record::Revoke("bob".into())).unwrap();
            journal.append(&Record::Unrevoke("bob".into())).unwrap();
            journal.append(&Record::Epoch(7)).unwrap();
        }
        let (_, state) = Journal::open(&path).unwrap();
        assert_eq!(state.records, 4);
        assert_eq!(state.epoch, 7);
        assert!(state.revoked.contains("alice"));
        assert!(!state.revoked.contains("bob"));
        assert_eq!(state.truncated_bytes, 0);
    }

    #[test]
    fn torn_tail_truncated_and_journal_reusable() {
        let path = temp_journal("torn");
        let _cleanup = Cleanup(path.clone());
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            journal.append(&Record::Revoke("alice".into())).unwrap();
            journal.append(&Record::Revoke("carol".into())).unwrap();
        }
        // Simulate a crash mid-append: half a header.
        let intact_len = std::fs::metadata(&path).unwrap().len();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x00, 0x00, 0x00]).unwrap();
        }
        let (mut journal, state) = Journal::open(&path).unwrap();
        assert_eq!(state.records, 2);
        assert_eq!(state.truncated_bytes, 3);
        assert!(state.revoked.contains("alice") && state.revoked.contains("carol"));
        // The file was healed to the intact prefix and appends extend it.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact_len);
        journal.append(&Record::Revoke("dave".into())).unwrap();
        let (_, state) = Journal::open(&path).unwrap();
        assert_eq!(state.records, 3);
        assert!(state.revoked.contains("dave"));
    }

    #[test]
    fn corrupt_record_truncates_from_there() {
        let path = temp_journal("corrupt");
        let _cleanup = Cleanup(path.clone());
        let second_starts;
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            journal.append(&Record::Revoke("alice".into())).unwrap();
            second_starts = std::fs::metadata(&path).unwrap().len();
            journal.append(&Record::Revoke("mallory".into())).unwrap();
            journal.append(&Record::Epoch(3)).unwrap();
        }
        // Flip a payload byte inside the second record: its CRC fails,
        // so it AND everything after it are discarded.
        let mut raw = std::fs::read(&path).unwrap();
        raw[second_starts as usize + 9] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let (_, state) = Journal::open(&path).unwrap();
        assert_eq!(state.records, 1);
        assert!(state.revoked.contains("alice"));
        assert!(!state.revoked.contains("mallory"));
        assert_eq!(state.epoch, 0);
        assert!(state.truncated_bytes > 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), second_starts);
    }

    #[test]
    fn oversized_length_prefix_is_corruption_not_allocation() {
        let path = temp_journal("oversize");
        let _cleanup = Cleanup(path.clone());
        std::fs::write(&path, 0xFFFF_FFFFu32.to_be_bytes()).unwrap();
        let (_, state) = Journal::open(&path).unwrap();
        assert_eq!(state.records, 0);
        assert_eq!(state.truncated_bytes, 4);
    }

    #[test]
    fn warm_records_replay_in_first_seen_order_deduplicated() {
        let path = temp_journal("warm");
        let _cleanup = Cleanup(path.clone());
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            journal.append(&Record::Warm("carol".into())).unwrap();
            journal.append(&Record::Revoke("alice".into())).unwrap();
            journal.append(&Record::Warm("alice".into())).unwrap();
            journal.append(&Record::Warm("carol".into())).unwrap();
        }
        let (_, state) = Journal::open(&path).unwrap();
        assert_eq!(state.records, 4);
        assert_eq!(state.warm, vec!["carol".to_string(), "alice".to_string()]);
        // Warm records never touch the revocation set.
        assert!(state.revoked.contains("alice"));
        assert_eq!(state.revoked.len(), 1);
    }

    #[test]
    fn record_payload_roundtrip() {
        for record in [
            Record::Revoke("ålice@example.com".into()),
            Record::Unrevoke(String::new()),
            Record::Epoch(u64::MAX),
            Record::Warm("hot@example.com".into()),
            Record::RolloverChunk {
                shard: 7,
                epoch: u64::MAX,
                cursor: 12345,
                done: true,
            },
            Record::RolloverChunk {
                shard: 0,
                epoch: 1,
                cursor: 0,
                done: false,
            },
        ] {
            assert_eq!(Record::from_payload(&record.payload()), Some(record));
        }
        assert_eq!(Record::from_payload(&[]), None);
        assert_eq!(Record::from_payload(&[9]), None);
        assert_eq!(Record::from_payload(&[3, 1, 2]), None, "short epoch");
        assert_eq!(Record::from_payload(&[1, 0xFF, 0xFE]), None, "bad utf-8");
        // Rollover payloads are fixed-width; a short body or a done
        // byte other than 0/1 is corruption, not a record.
        assert_eq!(Record::from_payload(&[5, 0, 0]), None, "short rollover");
        let mut bad = Record::RolloverChunk {
            shard: 1,
            epoch: 2,
            cursor: 3,
            done: false,
        }
        .payload();
        *bad.last_mut().unwrap() = 2;
        assert_eq!(Record::from_payload(&bad), None, "bad done flag");
    }

    #[test]
    fn rollover_progress_replays_last_record_per_shard() {
        let path = temp_journal("rollover");
        let _cleanup = Cleanup(path.clone());
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            for record in [
                Record::RolloverChunk {
                    shard: 0,
                    epoch: 2,
                    cursor: 0,
                    done: false,
                },
                Record::RolloverChunk {
                    shard: 1,
                    epoch: 2,
                    cursor: 0,
                    done: false,
                },
                Record::RolloverChunk {
                    shard: 0,
                    epoch: 2,
                    cursor: 8,
                    done: false,
                },
                Record::RolloverChunk {
                    shard: 0,
                    epoch: 2,
                    cursor: 10,
                    done: true,
                },
            ] {
                journal.append(&record).unwrap();
            }
        }
        let (_, state) = Journal::open(&path).unwrap();
        assert_eq!(state.records, 4);
        assert_eq!(
            state.rollover.get(&0),
            Some(&RolloverProgress {
                epoch: 2,
                cursor: 10,
                done: true
            })
        );
        assert_eq!(
            state.rollover.get(&1),
            Some(&RolloverProgress {
                epoch: 2,
                cursor: 0,
                done: false
            })
        );
        // Rollover records never touch the global epoch or revocations.
        assert_eq!(state.epoch, 0);
        assert!(state.revoked.is_empty());
    }
}

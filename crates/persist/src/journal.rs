//! The append-only allocation journal.
//!
//! Every state transition of a durable scheduler session is one [`Record`]
//! appended to a single journal file. Records are framed as
//!
//! ```text
//! [u32 LE payload length][u32 LE CRC-32 of payload][payload: JSON Record]
//! ```
//!
//! so a reader can always tell a *complete* record from a torn tail: a
//! crash (or `kill -9`) mid-append leaves a partial frame, a short payload,
//! or a CRC mismatch at the end of the file, and [`Journal::scan`] stops at
//! the last record that checks out. [`Journal::open`] additionally truncates
//! the file back to that valid prefix so subsequent appends never interleave
//! with garbage.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use jigsaw_core::Allocation;
use jigsaw_topology::ids::JobId;
use serde::{Deserialize, Serialize};

/// Records larger than this are treated as corruption, not data: the
/// framing would otherwise let one flipped length byte demand a gigabyte
/// allocation while scanning.
pub const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// One journaled state transition.
///
/// `Grant` dominates the enum's size, but events are serialized
/// immediately and never held in bulk, so boxing the allocation would
/// only complicate the (de)serialization path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// An allocation was granted and claimed into the system state.
    Grant(Allocation),
    /// The job's allocation was released — or, for a job that never held
    /// resources (still queued), its submission was withdrawn.
    Release(JobId),
    /// A DAG job was durably accepted into the submission queue: it may
    /// not be granted until every job in `parents` has been released
    /// (workload model v2, DESIGN §13).
    Submit {
        /// The submitted job.
        job: JobId,
        /// Nodes the job will request when it becomes eligible.
        size: u32,
        /// Bandwidth class it will request (tenths of a link).
        bw_tenths: u16,
        /// Job ids that must be released before this job can start.
        parents: Vec<u32>,
    },
    /// An advance reservation: `alloc` is claimed into the state now and
    /// held for the job until its reserved `start` time (and beyond,
    /// until released), so no later grant can delay it.
    Reserve {
        /// The reserved resources, claimed immediately.
        alloc: Allocation,
        /// The promised start time (caller-defined clock).
        start: f64,
    },
    /// A live job was migrated by the defragmenter: its old placement
    /// `from` was released and the new placement `to` (same job, same
    /// size, same bandwidth class) claimed in one logical step. Journaled
    /// write-ahead, *before* the state changes, so a crash mid-plan
    /// replays the move rather than losing it.
    Migrate {
        /// The placement being vacated (must match the live allocation).
        from: Allocation,
        /// The placement the job moves to.
        to: Allocation,
    },
    /// A snapshot covering everything up to `last_seq` was durably written.
    /// Purely informational on replay (snapshot discovery goes through the
    /// snapshot directory, not the journal), but makes the journal
    /// self-describing for offline inspection.
    Snapshot {
        /// Sequence number of the last event the snapshot covers.
        last_seq: u64,
    },
}

/// An [`Event`] plus its position in the global sequence. Sequence numbers
/// are assigned monotonically by the writer and never reused, which is what
/// lets recovery replay a journal suffix against a snapshot: records with
/// `seq <= snapshot.last_seq` are already part of the snapshot and are
/// skipped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Monotonic sequence number (1-based; 0 means "nothing happened yet").
    pub seq: u64,
    /// The transition.
    pub event: Event,
}

/// The result of scanning a journal file.
#[derive(Debug)]
pub struct Scan {
    /// Every complete, checksum-valid record, in file order.
    pub records: Vec<Record>,
    /// Byte length of the valid prefix.
    pub valid_len: u64,
    /// Total file length; `> valid_len` means a torn or corrupt tail.
    pub file_len: u64,
}

impl Scan {
    /// `true` if the file ended in a torn/corrupt tail.
    pub fn torn(&self) -> bool {
        self.file_len > self.valid_len
    }
}

/// Append handle for a journal file.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Open (creating if absent) the journal at `path`, returning the
    /// scan of its current contents. The file is truncated to the valid
    /// prefix, so a torn tail from a previous crash is discarded exactly
    /// once, here, and the handle is positioned for clean appends.
    #[must_use = "an unchecked open can silently drop the journal's recovered records"]
    pub fn open(path: &Path) -> std::io::Result<(Journal, Scan)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let scan = scan_stream(&mut file)?;
        if scan.torn() {
            file.set_len(scan.valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(scan.valid_len))?;
        Ok((
            Journal {
                path: path.to_path_buf(),
                file,
            },
            scan,
        ))
    }

    /// Scan `path` without opening it for writing (and without truncating
    /// a torn tail). Missing file reads as an empty journal.
    #[must_use = "the scan result is the journal's entire readable history"]
    pub fn scan(path: &Path) -> std::io::Result<Scan> {
        match File::open(path) {
            Ok(mut f) => scan_stream(&mut f),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Scan {
                records: Vec::new(),
                valid_len: 0,
                file_len: 0,
            }),
            Err(e) => Err(e),
        }
    }

    /// Append one record and flush it to stable storage before returning.
    /// The fsync-per-append policy is deliberate: the journal exists for
    /// crash recovery, and an unsynced append is exactly the data a crash
    /// loses.
    #[must_use = "an ignored append error means the record is not durable"]
    pub fn append(&mut self, record: &Record) -> std::io::Result<()> {
        self.append_batch(std::slice::from_ref(record))
    }

    /// Append a *batch* of records with one write and **one** `sync_data`
    /// — the group-commit primitive. N concurrent clients' operations are
    /// framed back-to-back into a single buffer, so the dominant cost of
    /// durability (the fsync) is paid once per batch instead of once per
    /// record. On error nothing in the batch may be considered durable:
    /// the tail the crash scanner finds is whatever the kernel got around
    /// to, and recovery discards any torn frame.
    #[must_use = "an ignored append error means the whole batch is not durable"]
    pub fn append_batch(&mut self, records: &[Record]) -> std::io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let mut batch = Vec::new();
        for record in records {
            let payload = serde_json::to_string(record)
                .map_err(|e| std::io::Error::other(format!("journal encode: {e}")))?;
            let payload = payload.as_bytes();
            let len = frame_len(payload.len())?;
            batch.reserve(8 + payload.len());
            batch.extend_from_slice(&len.to_le_bytes());
            batch.extend_from_slice(&crc32(payload).to_le_bytes());
            batch.extend_from_slice(payload);
        }
        self.file.write_all(&batch)?;
        self.file.sync_data()
    }

    /// Discard every record (used after a snapshot makes them redundant).
    #[must_use = "an ignored truncate error leaves stale records that recovery will replay"]
    pub fn truncate(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Validate a payload length for framing. Before this guard the `as u32`
/// length cast silently wrapped on a >4 GiB payload and wrote a frame the
/// scanner could never read; anything over [`MAX_RECORD_LEN`] is rejected
/// at append time because the scanner would discard it as corruption.
fn frame_len(payload_len: usize) -> std::io::Result<u32> {
    u32::try_from(payload_len)
        .ok()
        .filter(|&l| l <= MAX_RECORD_LEN)
        .ok_or_else(|| {
            std::io::Error::other(format!(
                "journal record of {payload_len} bytes exceeds MAX_RECORD_LEN ({MAX_RECORD_LEN})"
            ))
        })
}

/// Read the little-endian `u32` at `off`. The caller has bounds-checked
/// `b.len() >= off + 4`; fixed-size array construction keeps the frame
/// parser free of fallible slice conversions.
fn read_u32_le(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([b[off], b[off + 1], b[off + 2], b[off + 3]])
}

fn scan_stream(file: &mut File) -> std::io::Result<Scan> {
    let mut buf = Vec::new();
    file.seek(SeekFrom::Start(0))?;
    file.read_to_end(&mut buf)?;
    let file_len = buf.len() as u64;
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &buf[pos..];
        if rest.len() < 8 {
            break; // clean EOF (empty rest) or torn header
        }
        let len = read_u32_le(rest, 0);
        let crc = read_u32_le(rest, 4);
        if len > MAX_RECORD_LEN {
            break; // length byte garbage: corrupt tail
        }
        let len = len as usize;
        if rest.len() < 8 + len {
            break; // torn payload
        }
        let payload = &rest[8..8 + len];
        if crc32(payload) != crc {
            break; // bit rot or overwritten tail
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        let Ok(record) = serde_json::from_str::<Record>(text) else {
            break;
        };
        records.push(record);
        pos += 8 + len;
    }
    Ok(Scan {
        records,
        valid_len: pos as u64,
        file_len,
    })
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), the same function `cksum`-era
/// tools and zlib use. Table-driven; the table is built at compile time.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut n = 0u32;
        while n < 256 {
            let mut c = n;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[n as usize] = c;
            n += 1;
        }
        table
    };
    let mut c = !0u32;
    for &b in data {
        c = TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TempDir;
    use jigsaw_core::Shape;
    use jigsaw_topology::ids::{LeafId, NodeId};

    fn tmpdir(tag: &str) -> TempDir {
        let dir = TempDir::new(&format!("jigsaw-journal-{tag}"));
        std::fs::create_dir_all(&*dir).unwrap();
        dir
    }

    fn grant(seq: u64, job: u32) -> Record {
        Record {
            seq,
            event: Event::Grant(Allocation {
                job: JobId(job),
                requested: 2,
                nodes: vec![NodeId(0), NodeId(1)],
                leaf_links: vec![],
                spine_links: vec![],
                bw_tenths: 0,
                shape: Shape::SingleLeaf {
                    leaf: LeafId(0),
                    n: 2,
                },
            }),
        }
    }

    #[test]
    fn oversize_record_is_rejected_not_wrapped() {
        assert_eq!(frame_len(0).unwrap(), 0);
        assert_eq!(frame_len(MAX_RECORD_LEN as usize).unwrap(), MAX_RECORD_LEN);
        let err = frame_len(MAX_RECORD_LEN as usize + 1).unwrap_err();
        assert!(err.to_string().contains("MAX_RECORD_LEN"), "{err}");
        // The old `as u32` cast wrapped this to 0 and framed garbage.
        let err = frame_len(u32::MAX as usize + 1).unwrap_err();
        assert!(err.to_string().contains("MAX_RECORD_LEN"), "{err}");
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("journal.wal");
        let (mut j, scan) = Journal::open(&path).unwrap();
        assert!(scan.records.is_empty());
        let records = vec![
            grant(1, 7),
            Record {
                seq: 2,
                event: Event::Release(JobId(7)),
            },
            grant(3, 9),
        ];
        for r in &records {
            j.append(r).unwrap();
        }
        drop(j);
        let scan = Journal::scan(&path).unwrap();
        assert_eq!(scan.records, records);
        assert!(!scan.torn());
    }

    #[test]
    fn batched_append_scans_identically_to_singles() {
        let dir = tmpdir("batch");
        let single = dir.join("single.wal");
        let batched = dir.join("batched.wal");
        let records = vec![
            grant(1, 7),
            Record {
                seq: 2,
                event: Event::Release(JobId(7)),
            },
            grant(3, 9),
        ];
        let (mut j, _) = Journal::open(&single).unwrap();
        for r in &records {
            j.append(r).unwrap();
        }
        drop(j);
        let (mut j, _) = Journal::open(&batched).unwrap();
        j.append_batch(&records).unwrap();
        j.append_batch(&[]).unwrap(); // empty batch is a no-op
        drop(j);
        // Byte-identical files: group commit changes *when* fsync happens,
        // never what lands on disk.
        assert_eq!(
            std::fs::read(&single).unwrap(),
            std::fs::read(&batched).unwrap()
        );
        let scan = Journal::scan(&batched).unwrap();
        assert_eq!(scan.records, records);
    }

    #[test]
    fn torn_tail_within_a_batch_drops_only_the_torn_suffix() {
        let dir = tmpdir("batchtorn");
        let path = dir.join("journal.wal");
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append_batch(&[grant(1, 7), grant(2, 8)]).unwrap();
        drop(j);
        // Chop the file mid-way through the second frame: the batch was
        // written with one write, but frames are still the recovery unit.
        let bytes = std::fs::read(&path).unwrap();
        let full = bytes.len();
        std::fs::write(&path, &bytes[..full - 10]).unwrap();
        let scan = Journal::scan(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].seq, 1);
        assert!(scan.torn());
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let dir = tmpdir("torn");
        let path = dir.join("journal.wal");
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(&grant(1, 7)).unwrap();
        j.append(&grant(2, 8)).unwrap();
        drop(j);
        // Simulate a crash mid-append: a partial frame at the tail.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x55, 0x00, 0x00, 0x00, 0xde, 0xad]).unwrap();
        drop(f);

        let scan = Journal::scan(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(scan.torn());

        // Re-opening truncates the garbage and appends continue cleanly.
        let (mut j, scan) = Journal::open(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        j.append(&grant(3, 9)).unwrap();
        drop(j);
        let scan = Journal::scan(&path).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert!(!scan.torn());
    }

    #[test]
    fn corrupt_crc_stops_the_scan() {
        let dir = tmpdir("crc");
        let path = dir.join("journal.wal");
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(&grant(1, 7)).unwrap();
        j.append(&grant(2, 8)).unwrap();
        drop(j);
        // Flip one byte in the *second* record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let scan = Journal::scan(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].seq, 1);
        assert!(scan.torn());
    }

    #[test]
    fn truncate_empties_the_file() {
        let dir = tmpdir("truncate");
        let path = dir.join("journal.wal");
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(&grant(1, 7)).unwrap();
        j.truncate().unwrap();
        j.append(&grant(2, 8)).unwrap();
        drop(j);
        let scan = Journal::scan(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].seq, 2);
    }

    #[test]
    fn scan_of_missing_file_is_empty() {
        let dir = tmpdir("missing");
        let scan = Journal::scan(&dir.join("nope.wal")).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.file_len, 0);
    }
}

//! Full-state snapshots.
//!
//! A [`Snapshot`] is a complete, self-contained copy of the scheduler's
//! allocation state — the [`SystemState`] (which embeds the topology) plus
//! every live [`Allocation`] — tagged with the sequence number of the last
//! journaled event it covers. Snapshots bound recovery time and let the
//! journal be truncated: after a snapshot at `last_seq` is durably on disk,
//! every record with `seq <= last_seq` is redundant.
//!
//! Snapshots are written atomically (temp file + rename) and named
//! `snap-<seq>.json`, zero-padded so lexicographic order is sequence order.
//! [`SnapshotStore::load_latest`] walks candidates newest-first and falls
//! back past unreadable ones, so a crash mid-snapshot (or bit rot in the
//! newest file) degrades to the previous snapshot instead of losing the
//! store.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::{QueuedJob, ReservedJob};
use jigsaw_core::Allocation;
use jigsaw_topology::SystemState;
use serde::{Deserialize, Serialize};

/// A complete copy of the scheduler's allocation state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Sequence number of the last journaled event this snapshot covers.
    pub last_seq: u64,
    /// The allocation bookkeeping (embeds the topology).
    pub state: SystemState,
    /// Every live allocation, in ascending job-id order.
    pub live: Vec<Allocation>,
    /// Durably submitted jobs still waiting on parents or resources, in
    /// ascending job-id order (workload model v2; empty when unused).
    pub queued: Vec<QueuedJob>,
    /// Advance reservations whose resources are claimed in `state`, in
    /// ascending job-id order (workload model v2; empty when unused).
    pub reserved: Vec<ReservedJob>,
}

/// Directory of `snap-<seq>.json` files.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

/// How `load_latest` arrived at its answer.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Snapshot files that were present but unreadable/unparseable and
    /// were skipped while falling back to an older one.
    pub corrupt_skipped: usize,
}

impl SnapshotStore {
    /// A store rooted at `dir` (not created until the first save).
    pub fn new(dir: &Path) -> SnapshotStore {
        SnapshotStore {
            dir: dir.to_path_buf(),
        }
    }

    /// Path of the snapshot covering `last_seq`.
    pub fn path_for(&self, last_seq: u64) -> PathBuf {
        self.dir.join(format!("snap-{last_seq:020}.json"))
    }

    /// Durably write `snapshot`, atomically: the bytes go to a temp file
    /// that is fsynced and then renamed into place, so a crash at any point
    /// leaves either the old set of snapshots or the old set plus the new
    /// one — never a half-written `snap-*.json`.
    #[must_use = "an ignored save error means the snapshot is not durable"]
    pub fn save(&self, snapshot: &Snapshot) -> std::io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let final_path = self.path_for(snapshot.last_seq);
        let tmp_path = final_path.with_extension("json.tmp");
        let text = serde_json::to_string(snapshot)
            .map_err(|e| std::io::Error::other(format!("snapshot encode: {e}")))?;
        {
            let mut f = File::create(&tmp_path)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        Ok(final_path)
    }

    /// The newest readable snapshot, or `None` if the directory holds no
    /// snapshot files at all. Unreadable candidates are skipped (counted in
    /// the outcome); if files exist but none parses, that is an error — the
    /// caller must not silently recover from an empty state when durable
    /// state demonstrably existed.
    #[must_use = "an unchecked load discards the newest readable snapshot"]
    pub fn load_latest(&self) -> std::io::Result<(Option<Snapshot>, LoadOutcome)> {
        let mut outcome = LoadOutcome::default();
        let mut candidates = self.list()?;
        candidates.reverse(); // newest first
        if candidates.is_empty() {
            return Ok((None, outcome));
        }
        for (_, path) in &candidates {
            match fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| serde_json::from_str::<Snapshot>(&text).map_err(|e| e.to_string()))
            {
                Ok(snap) => return Ok((Some(snap), outcome)),
                Err(_) => outcome.corrupt_skipped += 1,
            }
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "all {} snapshot file(s) under {} are unreadable",
                outcome.corrupt_skipped,
                self.dir.display()
            ),
        ))
    }

    /// Delete all but the newest `keep` snapshot files.
    #[must_use = "an ignored prune error leaves stale snapshot files on disk"]
    pub fn prune(&self, keep: usize) -> std::io::Result<()> {
        let candidates = self.list()?;
        let n = candidates.len().saturating_sub(keep);
        for (_, path) in candidates.into_iter().take(n) {
            fs::remove_file(path)?;
        }
        Ok(())
    }

    /// Every `snap-<seq>.json` in the store, sorted by sequence ascending.
    fn list(&self) -> std::io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(seq) = name
                .strip_prefix("snap-")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|digits| digits.parse::<u64>().ok())
            else {
                continue;
            };
            out.push((seq, entry.path()));
        }
        out.sort_unstable();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TempDir;
    use jigsaw_topology::FatTree;

    fn tmpdir(tag: &str) -> TempDir {
        TempDir::new(&format!("jigsaw-snapshot-{tag}"))
    }

    fn snap(last_seq: u64) -> Snapshot {
        Snapshot {
            last_seq,
            state: SystemState::new(FatTree::maximal(4).unwrap()),
            live: Vec::new(),
            queued: Vec::new(),
            reserved: Vec::new(),
        }
    }

    #[test]
    fn empty_store_loads_none() {
        let dir = tmpdir("empty");
        let store = SnapshotStore::new(&dir);
        let (loaded, outcome) = store.load_latest().unwrap();
        assert!(loaded.is_none());
        assert_eq!(outcome.corrupt_skipped, 0);
    }

    #[test]
    fn save_load_roundtrip_picks_newest() {
        let dir = tmpdir("roundtrip");
        let store = SnapshotStore::new(&dir);
        store.save(&snap(3)).unwrap();
        store.save(&snap(12)).unwrap();
        let (loaded, _) = store.load_latest().unwrap();
        assert_eq!(loaded.unwrap().last_seq, 12);
    }

    #[test]
    fn corrupt_newest_falls_back_to_older() {
        let dir = tmpdir("fallback");
        let store = SnapshotStore::new(&dir);
        store.save(&snap(5)).unwrap();
        let newest = store.save(&snap(9)).unwrap();
        fs::write(&newest, b"{ not json").unwrap();
        let (loaded, outcome) = store.load_latest().unwrap();
        assert_eq!(loaded.unwrap().last_seq, 5);
        assert_eq!(outcome.corrupt_skipped, 1);
    }

    #[test]
    fn all_corrupt_is_an_error_not_a_fresh_start() {
        let dir = tmpdir("allcorrupt");
        let store = SnapshotStore::new(&dir);
        let p = store.save(&snap(5)).unwrap();
        fs::write(&p, b"garbage").unwrap();
        assert!(store.load_latest().is_err());
    }

    #[test]
    fn prune_keeps_newest() {
        let dir = tmpdir("prune");
        let store = SnapshotStore::new(&dir);
        for s in [1u64, 2, 3, 4] {
            store.save(&snap(s)).unwrap();
        }
        store.prune(2).unwrap();
        let (loaded, _) = store.load_latest().unwrap();
        assert_eq!(loaded.unwrap().last_seq, 4);
        assert!(!store.path_for(1).exists());
        assert!(!store.path_for(2).exists());
        assert!(store.path_for(3).exists());
    }
}

//! A durable job queue over the write-ahead journal.
//!
//! The serve layer's admission contract is *journal before acknowledge*:
//! a job the client was told "accepted" must survive `kill -9`. This
//! module gives that contract a file format — one journal whose records
//! are tagged [`Submit`](QueueEntry::Submit) / [`Done`](QueueEntry::Done)
//! pairs keyed by job id — and a replay that folds a (possibly torn)
//! journal back into *pending* (submitted, not yet done) and *completed*
//! work. Restart = [`QueueJournal::resume`] + re-enqueue the pending
//! items; nothing acknowledged is ever lost, and completed results replay
//! verbatim so digests stay byte-identical across the crash.
//!
//! Payloads are opaque bytes: the queue does not interpret them. The
//! serve layer stores a job-spec string in the submit record and the
//! job's stable report line in the done record.
//!
//! Replay salvages around mid-stream corruption (see
//! [`crate::SalvageEntry`]): a quarantined `Done` leaves its job pending
//! (it re-runs deterministically), and a quarantined `Submit` whose
//! `Done` survived is reconstructed from the completion — the orphan-done
//! hard error only applies to journals with *no* quarantined ranges,
//! where an orphan proves a writer protocol violation rather than lost
//! bytes.

use crate::{
    fs_backend, open, read_journal_on, seal, ByteReader, ByteWriter, JournalWriter, SalvageEntry,
    StorageBackend,
};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

const HEADER_KIND: &str = "rvv-queue-journal";
const HEADER_VERSION: u16 = 1;
const TAG_SUBMIT: u8 = 1;
const TAG_DONE: u8 = 2;

/// One decoded queue record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueEntry {
    /// A job was accepted: journaled before the client was acknowledged.
    Submit {
        /// Monotonic job id (assigned by the queue owner).
        id: u64,
        /// The job's specification, verbatim.
        payload: Vec<u8>,
    },
    /// A job finished (successfully or not — the payload records which).
    Done {
        /// The id from the matching submit record.
        id: u64,
        /// The job's result record, verbatim.
        payload: Vec<u8>,
    },
}

/// One queued or completed job recovered by [`QueueJournal::resume`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueItem {
    /// The job's id.
    pub id: u64,
    /// The submit payload (for pending items) or done payload (for
    /// completed ones).
    pub payload: Vec<u8>,
}

/// What a journal replay recovered (see the module docs).
#[derive(Debug, Default)]
pub struct QueueRecovery {
    /// Jobs submitted but not completed, in submit order — the work a
    /// restarted service re-enqueues.
    pub pending: Vec<QueueItem>,
    /// Jobs completed before the crash, in id order, with their recorded
    /// results.
    pub completed: Vec<QueueItem>,
    /// The highest job id seen; id assignment resumes above it.
    pub max_id: u64,
    /// Quarantined byte ranges the reader skipped (empty = clean replay).
    /// Non-empty salvage means some history was lost: the affected jobs
    /// are accounted for (re-run or reconstructed), but callers should
    /// surface the loss.
    pub salvage: Vec<SalvageEntry>,
}

/// The appending side of the durable queue.
///
/// `fsync_every` has the [`JournalWriter`] semantics; the serve layer
/// uses 1 so every submit is durable before its acknowledgment goes out.
#[derive(Debug)]
pub struct QueueJournal {
    writer: JournalWriter,
}

fn header(tag: &str) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str(tag);
    seal(HEADER_KIND, HEADER_VERSION, &w.into_bytes())
}

fn encode_entry(tag: u8, id: u64, payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(tag);
    w.put_u64(id);
    w.put_bytes(payload);
    w.into_bytes()
}

fn decode_entry(record: &[u8]) -> io::Result<QueueEntry> {
    let mut r = ByteReader::new(record);
    let entry = (|| {
        let tag = r.get_u8()?;
        let id = r.get_u64()?;
        let payload = r.get_bytes()?.to_vec();
        Ok::<_, crate::CodecError>((tag, id, payload))
    })()
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("queue record: {e}")))?;
    r.finish()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("queue record: {e}")))?;
    match entry {
        (TAG_SUBMIT, id, payload) => Ok(QueueEntry::Submit { id, payload }),
        (TAG_DONE, id, payload) => Ok(QueueEntry::Done { id, payload }),
        (tag, id, _) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("queue record for job {id} has unknown tag {tag}"),
        )),
    }
}

impl QueueJournal {
    /// Create (truncate) a queue journal at `path`. `tag` binds the
    /// journal to its owner (the serve layer stamps its engine
    /// configuration) so a resume against the wrong service is refused.
    pub fn create(path: &Path, tag: &str, fsync_every: u32) -> io::Result<QueueJournal> {
        Self::create_on(&fs_backend(), path, tag, fsync_every)
    }

    /// [`QueueJournal::create`] through an explicit [`StorageBackend`].
    pub fn create_on(
        backend: &Arc<dyn StorageBackend>,
        path: &Path,
        tag: &str,
        fsync_every: u32,
    ) -> io::Result<QueueJournal> {
        Ok(QueueJournal {
            writer: JournalWriter::create_on(backend, path, &header(tag), fsync_every)?,
        })
    }

    /// Reopen a queue journal, replaying its valid prefix: verifies the
    /// header (kind, version, `tag`), folds submit/done pairs into a
    /// [`QueueRecovery`], truncates any torn tail, and returns a writer
    /// positioned to append.
    pub fn resume(
        path: &Path,
        tag: &str,
        fsync_every: u32,
    ) -> io::Result<(QueueJournal, QueueRecovery)> {
        Self::resume_on(&fs_backend(), path, tag, fsync_every)
    }

    /// [`QueueJournal::resume`] through an explicit [`StorageBackend`].
    pub fn resume_on(
        backend: &Arc<dyn StorageBackend>,
        path: &Path,
        tag: &str,
        fsync_every: u32,
    ) -> io::Result<(QueueJournal, QueueRecovery)> {
        let journal = read_journal_on(backend, path)?;
        let bad = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
        let payload = open(HEADER_KIND, HEADER_VERSION, &journal.header)
            .map_err(|e| bad(format!("{}: {e}", path.display())))?;
        let mut r = ByteReader::new(payload);
        let found = r
            .get_str()
            .map_err(|e| bad(format!("{}: {e}", path.display())))?;
        if found != tag {
            return Err(bad(format!(
                "{}: journal belongs to {found:?}, expected {tag:?}",
                path.display()
            )));
        }
        let mut submitted: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut order: Vec<u64> = Vec::new();
        let mut completed: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut max_id = 0u64;
        for record in &journal.records {
            match decode_entry(record)? {
                QueueEntry::Submit { id, payload } => {
                    if submitted.insert(id, payload).is_none() {
                        order.push(id);
                    }
                    max_id = max_id.max(id);
                }
                QueueEntry::Done { id, payload } => {
                    if !submitted.contains_key(&id) && journal.salvage.is_empty() {
                        // A clean journal with an orphan done means the
                        // writer protocol was violated; replay refuses
                        // rather than inventing history.
                        return Err(bad(format!(
                            "{}: done record for job {id} without a submit",
                            path.display()
                        )));
                    }
                    // The submit record was evidently inside a
                    // quarantined range: the completion is the proof
                    // the job was accepted *and* finished, so recover
                    // it as completed rather than discarding it.
                    // First completion wins: a crash can land between a
                    // re-run and its done append, so duplicates are legal
                    // — and byte-identical for deterministic jobs anyway.
                    completed.entry(id).or_insert(payload);
                    max_id = max_id.max(id);
                }
            }
        }
        let recovery = QueueRecovery {
            pending: order
                .iter()
                .filter(|id| !completed.contains_key(id))
                .map(|id| QueueItem {
                    id: *id,
                    payload: submitted[id].clone(),
                })
                .collect(),
            completed: completed
                .into_iter()
                .map(|(id, payload)| QueueItem { id, payload })
                .collect(),
            max_id,
            salvage: journal.salvage,
        };
        let writer = JournalWriter::resume_on(backend, path, journal.valid_len, fsync_every)?;
        Ok((QueueJournal { writer }, recovery))
    }

    /// Journal a submission. Durable (for `fsync_every = 1`) when this
    /// returns — acknowledge the client only after.
    pub fn submit(&mut self, id: u64, payload: &[u8]) -> io::Result<()> {
        self.writer.append(&encode_entry(TAG_SUBMIT, id, payload))?;
        Ok(())
    }

    /// Journal a completion, pairing a prior submit.
    pub fn complete(&mut self, id: u64, payload: &[u8]) -> io::Result<()> {
        self.writer.append(&encode_entry(TAG_DONE, id, payload))?;
        Ok(())
    }

    /// Records appended through this writer (submits + completions).
    pub fn appended(&self) -> u64 {
        self.writer.appended()
    }

    /// Force everything to disk (graceful-shutdown path).
    pub fn sync(&mut self) -> io::Result<()> {
        self.writer.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "rvv-queue-{tag}-{}-{:p}",
            std::process::id(),
            &tag as *const _
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn resume_splits_pending_from_completed() {
        let dir = tmpdir("split");
        let path = dir.join("q.journal");
        {
            let mut q = QueueJournal::create(&path, "svc", 1).unwrap();
            q.submit(1, b"job-one").unwrap();
            q.submit(2, b"job-two").unwrap();
            q.submit(3, b"job-three").unwrap();
            q.complete(2, b"result-two").unwrap();
        }
        let (_q, rec) = QueueJournal::resume(&path, "svc", 1).unwrap();
        assert_eq!(rec.max_id, 3);
        assert_eq!(
            rec.pending,
            vec![
                QueueItem {
                    id: 1,
                    payload: b"job-one".to_vec()
                },
                QueueItem {
                    id: 3,
                    payload: b"job-three".to_vec()
                },
            ]
        );
        assert_eq!(
            rec.completed,
            vec![QueueItem {
                id: 2,
                payload: b"result-two".to_vec()
            }]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_appends_after_the_valid_prefix() {
        let dir = tmpdir("append");
        let path = dir.join("q.journal");
        {
            let mut q = QueueJournal::create(&path, "svc", 1).unwrap();
            q.submit(1, b"a").unwrap();
        }
        // Torn tail: half a record of garbage after the valid prefix.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0x55; 9]);
        fs::write(&path, &bytes).unwrap();
        let (mut q, rec) = QueueJournal::resume(&path, "svc", 1).unwrap();
        assert_eq!(rec.pending.len(), 1);
        q.complete(1, b"done-a").unwrap();
        drop(q);
        let (_q, rec) = QueueJournal::resume(&path, "svc", 1).unwrap();
        assert!(rec.pending.is_empty());
        assert_eq!(
            rec.completed,
            vec![QueueItem {
                id: 1,
                payload: b"done-a".to_vec()
            }]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_tag_or_orphan_done_is_refused() {
        let dir = tmpdir("guard");
        let path = dir.join("q.journal");
        {
            let mut q = QueueJournal::create(&path, "svc-a", 1).unwrap();
            q.submit(1, b"a").unwrap();
        }
        assert!(QueueJournal::resume(&path, "svc-b", 1).is_err());
        {
            let (mut q, _) = QueueJournal::resume(&path, "svc-a", 1).unwrap();
            // An orphan done (no submit) means the writer protocol was
            // violated; replay refuses rather than inventing history.
            q.complete(99, b"ghost").unwrap();
        }
        assert!(QueueJournal::resume(&path, "svc-a", 1).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_done_keeps_the_first_result() {
        let dir = tmpdir("dup");
        let path = dir.join("q.journal");
        {
            let mut q = QueueJournal::create(&path, "svc", 1).unwrap();
            q.submit(1, b"a").unwrap();
            q.complete(1, b"first").unwrap();
            q.complete(1, b"second").unwrap();
        }
        let (_q, rec) = QueueJournal::resume(&path, "svc", 1).unwrap();
        assert_eq!(
            rec.completed,
            vec![QueueItem {
                id: 1,
                payload: b"first".to_vec()
            }]
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

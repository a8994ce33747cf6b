//! Crash-consistent file publication.
//!
//! Every durable artifact UCP writes — containers, atom files, manifests,
//! and the `latest` / `latest_universal` markers — lands through the same
//! four-step protocol:
//!
//! 1. write the full contents to `<name>.tmp` in the destination directory,
//! 2. fsync the staging file,
//! 3. rename `<name>.tmp` over `<name>` (atomic on POSIX filesystems),
//! 4. fsync the parent directory so the rename itself is durable.
//!
//! A reader therefore observes either the old file or the complete new
//! one, never a torn write. A crash before step 3 leaves only a `.tmp`
//! remnant, which loaders ignore and `ucp fsck` sweeps away.
//!
//! `staged` is the one implementation of the protocol; what fills the
//! staging file — written bytes ([`publish`]) or a hard link
//! ([`link_file_durable`]) — is its argument. Each step registers a kill
//! point with [`crate::io::fault`] (a data write counts once per buffer
//! that reaches the file), so the crash-replay harness can kill the process
//! (in effect) at any write, fsync, or rename and assert recovery.

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::io::fault::{self, FaultWriter};
use crate::{Result, StorageError};

/// Suffix staged files carry until they are renamed into place.
pub const TMP_SUFFIX: &str = ".tmp";

/// The staging path for `dest` (`model_states.ucpt` → `model_states.ucpt.tmp`).
pub fn tmp_path(dest: &Path) -> PathBuf {
    let mut name = dest.file_name().unwrap_or_default().to_os_string();
    name.push(TMP_SUFFIX);
    dest.with_file_name(name)
}

/// Whether `path` is a leftover staging file from an interrupted commit.
pub fn is_tmp(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.ends_with(TMP_SUFFIX))
}

/// fsync a directory so a preceding rename within it is durable.
pub fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    fault::gate("commit.dirsync", dir)?;
    File::open(dir)?.sync_all()
}

/// The staged-rename skeleton: create `dest`'s parent directories, let
/// `stage` produce `<dest>.tmp`, rename it over `dest` and — when
/// `durable` — fsync the parent directory.
///
/// On a genuine failure anywhere in that sequence (ENOSPC, permission
/// errors, ...) the staging file is unlinked best-effort, so failed
/// publishes do not leak stale `.tmp` files. *Injected crashes* from
/// [`crate::io::fault`] are exempt: they simulate the process dying
/// mid-commit, where nothing gets to clean up, and the crash-replay tests
/// assert the remnant survives (for `ucp fsck` to sweep).
fn staged(dest: &Path, durable: bool, stage: impl FnOnce(&Path) -> Result<()>) -> Result<()> {
    let parent = dest.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(parent) = parent {
        fs::create_dir_all(parent)?;
    }
    let tmp = tmp_path(dest);
    let result = stage(&tmp).and_then(|()| {
        fault::gate("commit.rename", dest)?;
        fs::rename(&tmp, dest)?;
        match parent {
            Some(parent) if durable => Ok(fsync_dir(parent)?),
            _ => Ok(()),
        }
    });
    if let Err(e) = &result {
        let crashed = matches!(e, StorageError::Io(io) if fault::is_injected(io));
        if !crashed {
            let _ = fs::remove_file(&tmp);
        }
    }
    result
}

/// Atomically publish a file whose contents `fill` streams into a
/// buffered writer: readers see the old file or the complete new one.
/// `durable` adds the two fsyncs (staged data, parent directory) that
/// make it survive power loss.
///
/// Kill points: one per buffer the `BufWriter` hands to the file (a torn
/// write lands exactly a prefix of it), then `commit.fsync`,
/// `commit.rename`, `commit.dirsync`. Serialization and durability cost
/// are recorded as the spans `storage/write` and `storage/fsync`, the
/// file size under `storage/bytes_written`.
pub fn publish(
    dest: &Path,
    durable: bool,
    fill: impl FnOnce(&mut dyn Write) -> Result<()>,
) -> Result<()> {
    let write_span = ucp_telemetry::span("storage/write");
    // Opened once the bytes are flushed; closes after the rename and the
    // directory sync.
    let mut fsync_span = None;
    staged(dest, durable, |tmp| {
        let file = File::create(tmp)?;
        let mut w = BufWriter::new(FaultWriter::new(&file, tmp));
        fill(&mut w)?;
        w.flush()?;
        drop(write_span);
        if ucp_telemetry::enabled() {
            ucp_telemetry::count("storage/bytes_written", file.metadata()?.len());
        }
        if durable {
            fsync_span = Some(ucp_telemetry::span("storage/fsync"));
            fault::gate("commit.fsync", tmp)?;
            file.sync_all()?;
        }
        Ok(())
    })
}

/// Durably publish `bytes` at `path` via the full staged protocol.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<()> {
    publish(path, true, |w| Ok(w.write_all(bytes)?))
}

/// Durably publish `dst` as a hard link to the existing file `src`,
/// through the same staged protocol as [`atomic_write`]: link to
/// `<dst>.tmp`, rename over `dst`, fsync the parent directory. Used by
/// the incremental save pipeline to reuse a prior universal step's atom
/// files for clean (untouched) atoms without rewriting their bytes.
///
/// `src`'s *contents* are already durable (it was itself committed), so no
/// data fsync is needed — only the directory entry must survive a crash,
/// which the dir fsync guarantees. A crash mid-way leaves at most a
/// `<dst>.tmp` remnant that `ucp fsck` sweeps. Readers see either no file
/// or a complete, valid atom: hard links are atomic at the namespace
/// level, and both names resolve to the same verified inode.
///
/// Three kill points: `commit.link` (the staging link), `commit.rename`,
/// `commit.dirsync`.
pub fn link_file_durable(src: &Path, dst: &Path) -> Result<()> {
    staged(dst, true, |tmp| {
        // A stale staging link from an interrupted earlier attempt would
        // make the fresh hard_link fail; sweep it first.
        let _ = fs::remove_file(tmp);
        fault::gate("commit.link", tmp)?;
        fs::hard_link(src, tmp)?;
        Ok(())
    })
}

/// Crash-consistently append one `line` (no trailing newline) to the file
/// at `path`, creating it if absent — the primitive under the run journal.
///
/// Appends don't stage-and-rename (that would rewrite the whole file per
/// record); instead the whole line plus its newline lands in a single
/// `O_APPEND` write followed by an fsync. A crash can therefore lose or
/// tear only the final record, and only up to its newline — every earlier
/// line is intact, which is exactly the "parseable prefix" contract the
/// journal reader and `ucp fsck` enforce. Two kill points per append: the
/// data write (torn-write injectable) and `append.fsync`.
///
/// If the file ends mid-line — debris from a crash during an earlier
/// append — the torn tail is truncated away first, so a new record never
/// concatenates onto debris and the file heals on the next append.
pub fn append_line(path: &Path, line: &str) -> Result<()> {
    debug_assert!(!line.contains('\n'), "journal records are single lines");
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent)?;
    }
    let file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .read(true)
        .open(path)?;
    heal_torn_tail(&file)?;
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    let mut w = FaultWriter::new(&file, path);
    w.write_all(buf.as_bytes())?;
    w.flush()?;
    fault::gate("append.fsync", path)?;
    file.sync_all()?;
    Ok(())
}

/// Truncate `file` back to its last newline if it does not end in one.
/// Crash-safe without a kill point of its own: dying before or during the
/// truncate leaves either the torn tail or the healed prefix, both of
/// which readers already tolerate.
fn heal_torn_tail(file: &File) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let len = file.metadata()?.len();
    if len == 0 {
        return Ok(());
    }
    let mut f = file;
    f.seek(SeekFrom::End(-1))?;
    let mut last = [0u8; 1];
    f.read_exact(&mut last)?;
    if last[0] == b'\n' {
        return Ok(());
    }
    // Torn tail (only ever one record long, so a full read is cheap
    // relative to how rarely a crash precedes an append).
    f.seek(SeekFrom::Start(0))?;
    let mut bytes = Vec::with_capacity(len as usize);
    f.read_to_end(&mut bytes)?;
    let keep = bytes
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|i| i + 1)
        .unwrap_or(0);
    file.set_len(keep as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::fault::FaultPlan;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ucp_commit_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_publishes_and_cleans_tmp() {
        let dir = temp_dir("publish");
        let path = dir.join("marker");
        atomic_write(&path, b"global_step10").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"global_step10");
        assert!(!tmp_path(&path).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_replaces_existing_contents() {
        let dir = temp_dir("replace");
        let path = dir.join("marker");
        atomic_write(&path, b"old").unwrap();
        atomic_write(&path, b"new").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_before_rename_preserves_old_contents() {
        let dir = temp_dir("crash");
        let path = dir.join("marker");
        atomic_write(&path, b"old").unwrap();

        // One write + fsync + rename + dirsync = kill points 0..=3.
        // Killing at the fsync (point 1) must leave the old file intact
        // and the torn tmp on disk.
        let armed = fault::arm(FaultPlan::kill_at(1, &dir));
        let err = atomic_write(&path, b"new").unwrap_err();
        drop(armed);
        assert!(err.to_string().contains("injected crash"));
        assert_eq!(fs::read(&path).unwrap(), b"old");
        assert!(tmp_path(&path).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_truncates_tmp_only() {
        let dir = temp_dir("torn");
        let path = dir.join("marker");
        let armed = fault::arm(FaultPlan {
            truncate_to: Some(3),
            ..FaultPlan::kill_at(0, &dir)
        });
        let err = atomic_write(&path, b"global_step99").unwrap_err();
        drop(armed);
        assert!(err.to_string().contains("injected crash"));
        assert!(!path.exists());
        assert_eq!(fs::read(tmp_path(&path)).unwrap(), b"glo");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_point_counting_is_stable() {
        let dir = temp_dir("count");
        let path = dir.join("marker");
        let armed = fault::arm(FaultPlan::count_only(&dir));
        atomic_write(&path, b"x").unwrap();
        // write, fsync, rename, dirsync.
        assert_eq!(armed.hits(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The publishers the failure-path tests run over — a marker-sized
    /// `atomic_write` and a durable container write, both single-write
    /// files (write 0, fsync 1, rename 2, dirsync 3). `seed` varies the
    /// contents.
    type Publisher = fn(&Path, u8) -> Result<()>;
    const PUBLISHERS: [(&str, Publisher); 2] = [
        ("atomic_write", |path, seed| atomic_write(path, &[seed; 13])),
        ("container", |path, seed| {
            let mut c = crate::Container::new("{}");
            c.push("w", ucp_tensor::Tensor::full([5], seed as f32));
            c.write_file_durable(path)
        }),
    ];

    #[test]
    fn torn_disk_full_write_cleans_up_tmp() {
        for (tag, publish) in PUBLISHERS {
            let dir = temp_dir(&format!("enospc_{tag}"));
            let path = dir.join("file");
            // A survivable failure (torn write, then ENOSPC) — unlike an
            // injected crash, the process lives, so the staging file must go.
            let torn = FaultPlan {
                truncate_to: Some(3),
                ..FaultPlan::kill_at(0, &dir)
            };
            let armed = fault::arm(FaultPlan {
                full_disk: true,
                ..torn.clone()
            });
            let err = publish(&path, 9).unwrap_err();
            drop(armed);
            assert!(err.to_string().contains("no space left"), "{tag}: {err}");
            match err {
                crate::StorageError::Io(io) => assert!(!fault::is_injected(&io)),
                other => panic!("{tag}: expected an Io error, got {other:?}"),
            }
            assert!(!path.exists());
            assert!(
                !tmp_path(&path).exists(),
                "{tag}: failed write leaked the .tmp staging file"
            );
            // The same strike as a *crash* leaves exactly the torn prefix.
            let armed = fault::arm(torn);
            let err = publish(&path, 9).unwrap_err();
            drop(armed);
            assert!(err.to_string().contains("injected crash"), "{tag}: {err}");
            assert_eq!(fs::read(tmp_path(&path)).unwrap().len(), 3, "{tag}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn disk_full_at_rename_cleans_tmp_and_keeps_old_contents() {
        for (tag, publish) in PUBLISHERS {
            let dir = temp_dir(&format!("enospc_rename_{tag}"));
            let path = dir.join("file");
            publish(&path, 1).unwrap();
            let old = fs::read(&path).unwrap();
            // Kill point 2 is the rename gate; a genuine failure there must
            // leave the published file untouched and remove the staging file.
            let armed = fault::arm(FaultPlan {
                full_disk: true,
                ..FaultPlan::kill_at(2, &dir)
            });
            let err = publish(&path, 2).unwrap_err();
            drop(armed);
            assert!(err.to_string().contains("no space left"), "{tag}: {err}");
            assert_eq!(fs::read(&path).unwrap(), old, "{tag}");
            assert!(!tmp_path(&path).exists(), "{tag}");
            // An injected crash at the same gate leaves the complete
            // staged file behind — nothing got to clean up.
            let armed = fault::arm(FaultPlan::kill_at(2, &dir));
            let err = publish(&path, 2).unwrap_err();
            drop(armed);
            assert!(err.to_string().contains("injected crash"), "{tag}: {err}");
            assert_eq!(fs::read(&path).unwrap(), old, "{tag}");
            assert!(tmp_path(&path).exists(), "{tag}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn append_line_accumulates_lines() {
        let dir = temp_dir("append");
        let path = dir.join("journal.jsonl");
        append_line(&path, "{\"a\":1}").unwrap();
        append_line(&path, "{\"b\":2}").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"a\":1}\n{\"b\":2}\n");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_line_has_two_kill_points() {
        let dir = temp_dir("append_count");
        let path = dir.join("journal.jsonl");
        let armed = fault::arm(FaultPlan::count_only(&dir));
        append_line(&path, "{}").unwrap();
        // data write, fsync.
        assert_eq!(armed.hits(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_append_preserves_earlier_lines() {
        let dir = temp_dir("append_torn");
        let path = dir.join("journal.jsonl");
        append_line(&path, "{\"a\":1}").unwrap();
        let armed = fault::arm(FaultPlan {
            truncate_to: Some(3),
            ..FaultPlan::kill_at(0, &dir)
        });
        let err = append_line(&path, "{\"b\":2}").unwrap_err();
        drop(armed);
        assert!(err.to_string().contains("injected crash"));
        // The first record survives complete; the torn tail has no newline.
        assert_eq!(fs::read(&path).unwrap(), b"{\"a\":1}\n{\"b");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_after_torn_tail_heals_the_file() {
        let dir = temp_dir("append_heal");
        let path = dir.join("journal.jsonl");
        append_line(&path, "{\"a\":1}").unwrap();
        // Crash debris: a partial record with no newline.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"half");
        fs::write(&path, &bytes).unwrap();
        append_line(&path, "{\"b\":2}").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"a\":1}\n{\"b\":2}\n");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn link_file_durable_shares_the_inode() {
        use std::os::unix::fs::MetadataExt;
        let dir = temp_dir("link");
        let src = dir.join("step1").join("atom");
        fs::create_dir_all(src.parent().unwrap()).unwrap();
        atomic_write(&src, b"atom-bytes").unwrap();
        let dst = dir.join("step2").join("atom");
        link_file_durable(&src, &dst).unwrap();
        assert_eq!(fs::read(&dst).unwrap(), b"atom-bytes");
        let (ms, md) = (fs::metadata(&src).unwrap(), fs::metadata(&dst).unwrap());
        assert_eq!(ms.ino(), md.ino(), "dst must be a hard link, not a copy");
        assert_eq!(ms.nlink(), 2);
        assert!(!tmp_path(&dst).exists());
        // Unlinking the source name leaves the shared inode reachable via
        // dst — pruning the old step cannot corrupt the new one.
        fs::remove_file(&src).unwrap();
        assert_eq!(fs::read(&dst).unwrap(), b"atom-bytes");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn link_file_durable_crash_at_rename_leaves_only_tmp() {
        let dir = temp_dir("link_crash");
        let src = dir.join("src");
        atomic_write(&src, b"x").unwrap();
        let dst = dir.join("sub").join("dst");
        // Kill points: link (0), rename (1), dirsync (2).
        let armed = fault::arm(FaultPlan::kill_at(1, &dir));
        let err = link_file_durable(&src, &dst).unwrap_err();
        drop(armed);
        assert!(err.to_string().contains("injected crash"));
        assert!(!dst.exists());
        assert!(tmp_path(&dst).exists(), "crash remnant is the staged link");
        // A retry after the crash heals the stale staging link.
        link_file_durable(&src, &dst).unwrap();
        assert_eq!(fs::read(&dst).unwrap(), b"x");
        assert!(!tmp_path(&dst).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn link_file_durable_has_three_kill_points() {
        let dir = temp_dir("link_count");
        let src = dir.join("src");
        atomic_write(&src, b"x").unwrap();
        let armed = fault::arm(FaultPlan::count_only(&dir));
        link_file_durable(&src, &dir.join("dst")).unwrap();
        // link, rename, dirsync.
        assert_eq!(armed.hits(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faults_outside_scope_do_not_fire() {
        let dir = temp_dir("scope");
        let other = temp_dir("scope_other");
        let armed = fault::arm(FaultPlan::kill_at(0, &other));
        // Writes under `dir` are outside the armed scope: untouched.
        atomic_write(&dir.join("marker"), b"safe").unwrap();
        assert_eq!(armed.hits(), 0);
        drop(armed);
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&other).unwrap();
    }
}

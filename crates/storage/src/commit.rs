//! Crash-consistent file publication.
//!
//! Every durable artifact UCP writes — containers, atom files, manifests,
//! and the `latest` / `latest_universal` markers — lands through the same
//! protocol, and the unit it makes durable is a [`Group`] of files (often
//! a group of one):
//!
//! 1. **stage** — write each member's full contents to `<name>.tmp` in its
//!    destination directory (or hard-link an already durable file there),
//! 2. **sync** — fsync every staged file,
//! 3. **rename** — rename each `<name>.tmp` over `<name>` (atomic on POSIX
//!    filesystems),
//! 4. **dirsync** — fsync each distinct parent directory once, so the
//!    renames themselves are durable.
//!
//! No rename happens before every member's data is on the device, so a
//! reader observes, per file, either the old file or the complete new
//! one, never a torn write. A crash before a member's rename leaves its
//! `.tmp` remnant, which loaders ignore and `ucp fsck` sweeps away; a
//! crash between renames leaves some members published and some not,
//! which is why whatever names the group as a whole (a manifest, a
//! marker) is committed only after [`Group::commit`] returns.
//!
//! A step's atoms are one group because the fsyncs, issued one file at a
//! time, are latency a writer thread sleeps through: issued together from
//! a few threads the filesystem journal serves them from a handful of
//! commits, and the one directory a step's atoms share is synced once.
//!
//! `Group::add` is the one staged skeleton; what fills the staging file —
//! written bytes ([`Group::stage`]) or a hard link ([`Group::link`]) — is
//! its argument, and [`publish`], [`atomic_write`] and
//! [`link_file_durable`] are groups of one. Each step registers a kill
//! point with [`crate::io::fault`] (a data write counts once per buffer
//! that reaches the file), so the crash-replay harness can kill the process
//! (in effect) at any write, link, fsync, rename or directory sync and
//! assert recovery.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

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

/// Threads a [`Group::commit`] spreads the fsyncs of a phase over (files
/// in the sync phase, directories in the dirsync phase). They sleep in
/// the kernel, not on a core, so the width is set by how many flushes the
/// journal can fold into one commit rather than by the CPU count: over
/// 303 atom files of ≈160 KB the file pass measured 134–155 ms at width 1,
/// 66–84 ms at 4 and 44–46 ms at 16 on a two-core machine.
const SYNC_WIDTH: usize = 16;

#[derive(Default)]
struct Staged {
    /// Destination → whether bytes were written (they need the data
    /// fsync), as opposed to a hard link to a file whose contents are
    /// durable already. Keyed by destination so one staged twice is one
    /// member, and ordered so a commit passes its gates in the same order
    /// however many threads staged.
    members: BTreeMap<PathBuf, bool>,
    /// Parent directories this group has already created: a step's atoms
    /// share a few directories, and each is made once, not once a member.
    dirs: BTreeSet<PathBuf>,
    /// An injected crash struck one of the group's operations.
    crashed: bool,
}

/// A set of files that become durable together: staged one by one (from
/// any number of threads), then fsynced, renamed into place and
/// directory-synced by one [`Group::commit`] — see the module docs for the
/// four phases and what a crash in each leaves.
///
/// A member is remembered as a path, not as an open descriptor (a step
/// stages thousands of atoms); the sync phase reopens each staging file,
/// which is sound because `fsync` flushes the *file's* dirty pages and
/// metadata, whichever descriptor dirtied them.
///
/// On a genuine failure anywhere (ENOSPC, permission errors, ...) — in a
/// stage, in the commit, or in the caller, which then drops the group
/// uncommitted — every member's staging file is unlinked best-effort, so
/// failed publishes do not leak stale `.tmp` files. *Injected crashes*
/// from [`crate::io::fault`] are exempt: they simulate the process dying
/// mid-commit, where nothing gets to clean up, and the crash-replay tests
/// assert the remnants survive (for `ucp fsck` to sweep).
pub struct Group {
    durable: bool,
    staged: Mutex<Staged>,
}

impl Group {
    /// An empty group. `durable` adds the fsyncs (staged data, parent
    /// directories) that make its files survive power loss; without them a
    /// commit is atomic against concurrent readers only.
    pub fn new(durable: bool) -> Group {
        Group {
            durable,
            staged: Mutex::default(),
        }
    }

    /// Every update leaves `Staged` valid, so a stager that panicked
    /// while holding the lock does not take the group's cleanup with it.
    fn lock(&self) -> MutexGuard<'_, Staged> {
        self.staged.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The staged skeleton: create `dest`'s parent directories (once per
    /// group), register the member and let `fill` produce `<dest>.tmp`. A
    /// destination staged twice keeps one member, the later.
    fn add(
        &self,
        dest: &Path,
        written: bool,
        fill: impl FnOnce(&Path) -> Result<()>,
    ) -> Result<()> {
        if let Some(parent) = parent_of(dest) {
            if !self.lock().dirs.contains(parent) {
                fs::create_dir_all(parent)?;
                self.lock().dirs.insert(parent.to_path_buf());
            }
        }
        let tmp = tmp_path(dest);
        self.lock().members.insert(dest.to_path_buf(), written);
        let result = fill(&tmp);
        if result.as_ref().is_err_and(is_crash) {
            self.lock().crashed = true;
        }
        result
    }

    /// Stage a file whose contents `fill` streams into a buffered writer.
    ///
    /// Kill points: one per buffer the `BufWriter` hands to the file (a
    /// torn write lands exactly a prefix of it). Serialization is recorded
    /// as the span `storage/write`, the file size under
    /// `storage/bytes_written`.
    pub fn stage(
        &self,
        dest: &Path,
        fill: impl FnOnce(&mut dyn Write) -> Result<()>,
    ) -> Result<()> {
        let _write_span = ucp_telemetry::span("storage/write");
        self.add(dest, true, |tmp| {
            let file = create_fresh(tmp, |tmp| {
                File::options().write(true).create_new(true).open(tmp)
            })?;
            let mut w = BufWriter::new(FaultWriter::new(&file, tmp));
            fill(&mut w)?;
            w.flush()?;
            if ucp_telemetry::enabled() {
                ucp_telemetry::count("storage/bytes_written", file.metadata()?.len());
            }
            Ok(())
        })
    }

    /// Stage `dest` as a hard link to the existing file `src`. `src`'s
    /// *contents* are already durable (it was itself committed), so the
    /// member takes no data fsync — only its directory entry must survive
    /// a crash. One kill point: `commit.link`.
    pub fn link(&self, src: &Path, dest: &Path) -> Result<()> {
        self.add(dest, false, |tmp| {
            fault::gate("commit.link", tmp)?;
            Ok(create_fresh(tmp, |tmp| fs::hard_link(src, tmp))?)
        })
    }

    /// Make every staged member durable and visible: fsync the written
    /// ones (`commit.fsync` each, up to `SYNC_WIDTH` at a time), rename
    /// all of them into place in path order (`commit.rename` each),
    /// then fsync each distinct parent directory once (`commit.dirsync`
    /// each, again up to `SYNC_WIDTH` at a time).
    /// The durability cost — everything after the bytes are flushed — is
    /// recorded as one `storage/fsync` span per durable group.
    pub fn commit(mut self) -> Result<()> {
        let durable = self.durable;
        let _fsync_span = durable.then(|| ucp_telemetry::span("storage/fsync"));
        let staged = self.staged_mut();
        let result = commit_members(&staged.members, durable);
        match &result {
            Ok(()) => staged.members.clear(),
            Err(e) => staged.crashed |= is_crash(e),
        }
        result
    }

    fn staged_mut(&mut self) -> &mut Staged {
        self.staged
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Group {
    /// Unlink what an uncommitted (or half-committed) group staged —
    /// unless the process "died".
    fn drop(&mut self) {
        let staged = self.staged_mut();
        if !staged.crashed {
            for dest in staged.members.keys() {
                let _ = fs::remove_file(tmp_path(dest));
            }
        }
    }
}

/// Create the staging file `tmp` with `create`, which must fail with
/// `AlreadyExists` rather than reuse a file that is there. A stale one — an
/// earlier member for the same destination, or debris of an interrupted
/// attempt — is unlinked and the creation retried: it would make a hard
/// link fail, and if it *is* a hard link, truncating it in place would
/// reach the published file it shares an inode with. The common case, no
/// stale file, costs no unlink.
fn create_fresh<T>(tmp: &Path, create: impl Fn(&Path) -> io::Result<T>) -> io::Result<T> {
    match create(tmp) {
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
            fs::remove_file(tmp)?;
            create(tmp)
        }
        done => done,
    }
}

fn parent_of(dest: &Path) -> Option<&Path> {
    dest.parent().filter(|p| !p.as_os_str().is_empty())
}

/// Whether `e` is an injected crash, after which nothing may clean up.
fn is_crash(e: &StorageError) -> bool {
    matches!(e, StorageError::Io(io) if fault::is_injected(io))
}

/// Run `sync` over `paths` on up to [`SYNC_WIDTH`] threads: thread `t`
/// takes paths t, t + width, ..., each stops at its first failure, and the
/// first failing thread's error is reported. A single path is synced on
/// the calling thread.
fn sync_each(paths: &[&Path], sync: fn(&Path) -> std::io::Result<()>) -> std::io::Result<()> {
    let width = paths.len().min(SYNC_WIDTH);
    if width <= 1 {
        return paths.iter().copied().try_for_each(sync);
    }
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..width)
            .map(|t| {
                let mut mine = paths.iter().copied().skip(t).step_by(width);
                s.spawn(move || mine.try_for_each(sync))
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("sync worker panicked"))
    })
}

/// Phases 2–4 of the protocol over `members`, each already staged.
fn commit_members(members: &BTreeMap<PathBuf, bool>, durable: bool) -> Result<()> {
    if durable {
        let written: Vec<&Path> = (members.iter())
            .filter_map(|(dest, written)| written.then_some(dest.as_path()))
            .collect();
        sync_each(&written, |dest| {
            let tmp = tmp_path(dest);
            fault::gate("commit.fsync", &tmp)?;
            fs::OpenOptions::new().write(true).open(&tmp)?.sync_all()
        })?;
    }
    for dest in members.keys() {
        fault::gate("commit.rename", dest)?;
        fs::rename(tmp_path(dest), dest)?;
    }
    if durable {
        let mut parents: Vec<&Path> = members.keys().filter_map(|d| parent_of(d)).collect();
        parents.sort_unstable();
        parents.dedup();
        sync_each(&parents, fsync_dir)?;
    }
    Ok(())
}

/// Atomically publish a file whose contents `fill` streams into a
/// buffered writer — a [`Group`] of one: readers see the old file or the
/// complete new one, and `durable` adds the two fsyncs (staged data,
/// parent directory) that make it survive power loss.
///
/// Kill points: the data writes, then `commit.fsync`, `commit.rename`,
/// `commit.dirsync`.
pub fn publish(
    dest: &Path,
    durable: bool,
    fill: impl FnOnce(&mut dyn Write) -> Result<()>,
) -> Result<()> {
    let group = Group::new(durable);
    group.stage(dest, fill)?;
    group.commit()
}

/// Durably publish `bytes` at `path` via the full staged protocol.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<()> {
    publish(path, true, |w| Ok(w.write_all(bytes)?))
}

/// Durably publish `dst` as a hard link to the existing file `src` — a
/// [`Group`] of one [`Group::link`]: link to `<dst>.tmp`, rename over
/// `dst`, fsync the parent directory. A crash mid-way leaves at most a
/// `<dst>.tmp` remnant that `ucp fsck` sweeps. Readers see either no file
/// or a complete, valid file: hard links are atomic at the namespace
/// level, and both names resolve to the same verified inode.
///
/// Three kill points: `commit.link`, `commit.rename`, `commit.dirsync`.
pub fn link_file_durable(src: &Path, dst: &Path) -> Result<()> {
    let group = Group::new(true);
    group.link(src, dst)?;
    group.commit()
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

    /// The group the sweeps below commit: `a/x` (three data writes),
    /// `a/y` (one) and `b/z` (one) — three files in two directories.
    /// Returns the destinations.
    fn stage_three(group: &Group, dir: &Path, seed: u8) -> Result<[PathBuf; 3]> {
        let dests = [dir.join("a/x"), dir.join("a/y"), dir.join("b/z")];
        // 20 000 bytes through an 8 KiB `BufWriter` reach the file as three
        // writes: two when the buffer fills, one at the flush.
        group.stage(&dests[0], |w| {
            for _ in 0..20 {
                w.write_all(&[seed; 1000])?;
            }
            Ok(())
        })?;
        group.stage(&dests[1], |w| Ok(w.write_all(&[seed; 7])?))?;
        group.stage(&dests[2], |w| Ok(w.write_all(&[seed; 9])?))?;
        Ok(dests)
    }

    fn commit_three(dir: &Path, seed: u8) -> Result<[PathBuf; 3]> {
        let group = Group::new(true);
        let dests = stage_three(&group, dir, seed)?;
        group.commit()?;
        Ok(dests)
    }

    /// What the three files hold after `commit_three(dir, seed)`.
    fn contents(seed: u8) -> [Vec<u8>; 3] {
        [vec![seed; 20_000], vec![seed; 7], vec![seed; 9]]
    }

    fn tmp_remnants(dir: &Path) -> Vec<PathBuf> {
        let mut found = Vec::new();
        for sub in ["a", "b"] {
            for e in fs::read_dir(dir.join(sub)).into_iter().flatten().flatten() {
                if is_tmp(&e.path()) {
                    found.push(e.path());
                }
            }
        }
        found.sort();
        found
    }

    #[test]
    fn group_kill_sweep_never_exposes_an_unsynced_or_torn_member() {
        let cal = temp_dir("group_cal");
        let armed = fault::arm(FaultPlan::count_only(&cal));
        commit_three(&cal, 1).unwrap();
        let total = armed.hits();
        drop(armed);
        fs::remove_dir_all(&cal).unwrap();
        // Σ data writes, then a gate per member and phase, then one
        // directory sync per *directory*.
        let (writes, files, dirs) = (3 + 1 + 1, 3, 2);
        assert_eq!(total, writes + files + files + dirs);

        for over_old in [false, true] {
            for k in 0..total {
                let dir = temp_dir(&format!("group_k{k}_{over_old}"));
                if over_old {
                    commit_three(&dir, 1).unwrap();
                }
                let armed = fault::arm(FaultPlan::kill_at(k, &dir));
                let err = commit_three(&dir, 2).unwrap_err().to_string();
                drop(armed);
                assert!(err.contains("injected crash"), "kill {k}: {err}");
                let dests = [dir.join("a/x"), dir.join("a/y"), dir.join("b/z")];
                // Renames run in path order once every fsync gate has
                // passed: index `k` names how many were reached.
                let renamed = (k.saturating_sub(writes + files)).min(files) as usize;
                let fsync_phase_done = k >= writes + files;
                for (i, dest) in dests.iter().enumerate() {
                    let new = i < renamed;
                    assert!(
                        !new || fsync_phase_done,
                        "kill {k}: {dest:?} visible unsynced"
                    );
                    match fs::read(dest) {
                        Ok(bytes) if new => assert_eq!(bytes, contents(2)[i], "kill {k}"),
                        Ok(bytes) => {
                            assert!(over_old, "kill {k}: {dest:?} visible before its rename");
                            assert_eq!(bytes, contents(1)[i], "kill {k}: old file damaged");
                        }
                        Err(_) => assert!(!new && !over_old, "kill {k}: {dest:?} missing"),
                    }
                }
                // The remnants are exactly the staged, unrenamed members:
                // a crash cleans nothing up, a rename consumes its `.tmp`.
                let staged = match k {
                    0..=2 => 1,
                    3 => 2,
                    _ => 3,
                };
                let want: Vec<PathBuf> = (renamed..staged).map(|i| tmp_path(&dests[i])).collect();
                assert_eq!(tmp_remnants(&dir), want, "kill {k}");
                fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn group_disk_full_unlinks_every_staged_tmp_crash_leaves_them() {
        // ENOSPC at a data write of the third member (both earlier ones
        // are staged in full), at an fsync and at a rename — the second of
        // each, so members on both sides of the failure are covered.
        for (what, k) in [("write", 4), ("fsync", 6), ("rename", 9)] {
            let dir = temp_dir(&format!("group_enospc_{what}"));
            let old = commit_three(&dir, 1).unwrap();
            let armed = fault::arm(FaultPlan {
                full_disk: true,
                ..FaultPlan::kill_at(k, &dir)
            });
            let err = commit_three(&dir, 2).unwrap_err().to_string();
            drop(armed);
            assert!(err.contains("no space left"), "{what}: {err}");
            assert_eq!(tmp_remnants(&dir), Vec::<PathBuf>::new(), "{what}");
            // Members renamed before the failure stay published, complete;
            // the rest keep their old contents.
            for (i, dest) in old.iter().enumerate() {
                let new = what == "rename" && i == 0;
                let want = &contents(if new { 2 } else { 1 })[i];
                assert_eq!(&fs::read(dest).unwrap(), want, "{what} {dest:?}");
            }
            // The injected-crash twin leaves every unrenamed staging file.
            let armed = fault::arm(FaultPlan::kill_at(k, &dir));
            let err = commit_three(&dir, 3).unwrap_err().to_string();
            drop(armed);
            assert!(err.contains("injected crash"), "{what}: {err}");
            let left = tmp_remnants(&dir).len();
            assert_eq!(left, if what == "rename" { 2 } else { 3 }, "{what}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn dropped_uncommitted_group_unlinks_what_it_staged() {
        let dir = temp_dir("group_drop");
        let group = Group::new(true);
        let dests = stage_three(&group, &dir, 1).unwrap();
        assert_eq!(tmp_remnants(&dir).len(), 3);
        drop(group);
        assert_eq!(tmp_remnants(&dir), Vec::<PathBuf>::new());
        assert!(dests.iter().all(|d| !d.exists()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn destination_staged_twice_commits_once_with_the_later_bytes() {
        let dir = temp_dir("group_twice");
        let src = dir.join("src");
        atomic_write(&src, b"linked").unwrap();
        let (dest, other) = (dir.join("sub/atom"), dir.join("sub/other"));
        let armed = fault::arm(FaultPlan::count_only(&dir.join("sub")));
        let group = Group::new(true);
        // A link first, so the rewrite must not reach `src` through the
        // staging link's shared inode.
        group.link(&src, &dest).unwrap();
        group.stage(&other, |w| Ok(w.write_all(b"other")?)).unwrap();
        group.stage(&dest, |w| Ok(w.write_all(b"later")?)).unwrap();
        group.commit().unwrap();
        // link + two writes, then two members' fsync and rename, one dir.
        assert_eq!(armed.hits(), 3 + 2 + 2 + 1);
        drop(armed);
        assert_eq!(fs::read(&dest).unwrap(), b"later");
        assert_eq!(fs::read(&other).unwrap(), b"other");
        assert_eq!(fs::read(&src).unwrap(), b"linked");
        assert!(!tmp_path(&dest).exists());
        fs::remove_dir_all(&dir).unwrap();
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

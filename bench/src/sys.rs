//! What the benchmark reads from the operating system: the process's I/O
//! byte counters and peak RSS, and where (and whether) it may write its
//! scratch trees.

use std::path::{Path, PathBuf};

/// Refuse to run with less free scratch space than this (a pass holds
/// at most ≈1 GB of trees at once and deletes them when it ends).
pub const MIN_FREE_BYTES: u64 = 2 << 30;

/// Cumulative bytes this process passed to `read()`-like / `write()`-like
/// calls (`rchar` / `wchar` of `/proc/self/io`). Page-cache hits count,
/// `mmap` accesses do not.
pub fn proc_io() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    (field("rchar:"), field("wchar:"))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn vm_hwm_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`), e.g. `tmpfs` or `ext4`.
pub fn fs_type(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut it = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(kind)) = (it.next(), it.next(), it.next()) else {
            continue;
        };
        if path.starts_with(mount) && best.is_none_or(|(len, _)| mount.len() > len) {
            best = Some((mount.len(), kind));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, k)| k.to_string())
}

/// Bytes available to an unprivileged writer on the filesystem holding
/// `path`, or `None` where `statvfs` is not wired up.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn free_bytes(path: &Path) -> Option<u64> {
    use std::os::unix::ffi::OsStrExt;

    /// `struct statvfs` of 64-bit Linux (glibc and musl agree).
    #[repr(C)]
    struct StatVfs {
        f_bsize: u64,
        f_frsize: u64,
        f_blocks: u64,
        f_bfree: u64,
        f_bavail: u64,
        f_files: u64,
        f_ffree: u64,
        f_favail: u64,
        f_fsid: u64,
        f_flag: u64,
        f_namemax: u64,
        spare: [i32; 6],
    }
    extern "C" {
        fn statvfs(path: *const std::ffi::c_char, buf: *mut StatVfs) -> std::ffi::c_int;
    }

    let c_path = std::ffi::CString::new(path.as_os_str().as_bytes()).ok()?;
    let mut buf = std::mem::MaybeUninit::<StatVfs>::zeroed();
    // SAFETY: `c_path` is a valid NUL-terminated string that outlives the
    // call, and `buf` points to writable memory of the size and layout
    // `statvfs(3)` fills on 64-bit Linux. The struct is all integers and
    // starts zeroed, so `assume_init` reads only initialized bytes.
    let st = unsafe {
        if statvfs(c_path.as_ptr(), buf.as_mut_ptr()) != 0 {
            return None;
        }
        buf.assume_init()
    };
    Some(st.f_bavail.saturating_mul(st.f_frsize))
}

/// See the Linux version.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn free_bytes(_path: &Path) -> Option<u64> {
    None
}

/// Default scratch root, relative to the current directory: the driver
/// runs the benchmark from the root of a checkout and allows writes
/// nowhere else. On a machine of your own, `--scratch /dev/shm` takes the
/// disk (fsync latency, writeback throttling) out of the numbers.
pub const LOCAL_SCRATCH: &str = ".bench_scratch";

/// The scratch root: `explicit`, else [`LOCAL_SCRATCH`]. It must be
/// creatable and have `min_free` bytes free.
pub fn choose_scratch_root(explicit: Option<&Path>, min_free: u64) -> Result<PathBuf, String> {
    let root = explicit.map_or_else(|| PathBuf::from(LOCAL_SCRATCH), Path::to_path_buf);
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    match free_bytes(&root) {
        Some(free) if free < min_free => Err(format!(
            "{} has {free} bytes free, need {min_free}",
            root.display()
        )),
        _ => Ok(root),
    }
}

/// A scratch directory that is removed when dropped — on success and on
/// unwind alike.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Create `root/ucp_e2e_<pid>_<label>` (emptying any leftover).
    pub fn create(root: &Path, label: &str) -> Result<Scratch, String> {
        let path = root.join(format!("ucp_e2e_{}_{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory.
    pub fn sub(&self, name: &str) -> PathBuf {
        let p = self.path.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("create scratch subdirectory");
        p
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Where the unit tests may write: the repository's ignored scratch
/// directory, never the system temp dir.
#[cfg(test)]
pub(crate) fn test_root() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(LOCAL_SCRATCH);
    std::fs::create_dir_all(&root).expect("create test scratch root");
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_move() {
        let (r0, w0) = proc_io();
        let dir = test_root().join(format!("ucp_e2e_sys_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("x"), vec![7u8; 1 << 16]).unwrap();
        let back = std::fs::read(dir.join("x")).unwrap();
        assert_eq!(back.len(), 1 << 16);
        let (r1, w1) = proc_io();
        std::fs::remove_dir_all(&dir).unwrap();
        if r0 + w0 + r1 + w1 > 0 {
            // /proc/self/io is readable here: both counters saw the 64 KiB.
            assert!(r1 - r0 >= 1 << 16, "rchar {r0} -> {r1}");
            assert!(w1 - w0 >= 1 << 16, "wchar {w0} -> {w1}");
        }
        assert!(vm_hwm_mib() >= 0.0);
    }

    #[test]
    fn scratch_guard_refuses_when_space_is_short() {
        let tmp = test_root();
        if free_bytes(&tmp).is_some() {
            let err = choose_scratch_root(Some(&tmp), u64::MAX).unwrap_err();
            assert!(err.contains("bytes free"), "{err}");
        }
        assert!(choose_scratch_root(Some(&tmp), 0).is_ok());
    }

    #[test]
    fn scratch_removed_on_success_and_on_panic() {
        let root = test_root();
        let kept = {
            let s = Scratch::create(&root, "ok").unwrap();
            std::fs::write(s.sub("a").join("f"), b"x").unwrap();
            s.path().to_path_buf()
        };
        assert!(!kept.exists());
        let seen = std::sync::Mutex::new(None);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let s = Scratch::create(&root, "panic").unwrap();
            *seen.lock().unwrap() = Some(s.path().to_path_buf());
            panic!("pass failed");
        }));
        assert!(r.is_err());
        let path = seen.lock().unwrap().clone().unwrap();
        assert!(!path.exists());
    }
}

//! Storage-device simulation: bandwidth-limited sequential I/O.
//!
//! The paper's `Load` operation uses DeepNVMe to reach near-peak sequential
//! NVMe bandwidth. On a development machine the page cache hides most I/O
//! cost, so the efficiency benches (Fig. 11/12) optionally run through a
//! [`Device`] that meters bytes and sleeps to emulate a fixed-bandwidth
//! device. With no bandwidth set the device is a transparent pass-through.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::time::{Duration, Instant};

/// A simulated storage device with an optional read bandwidth cap
/// (bytes per second).
#[derive(Debug, Clone, Copy, Default)]
pub struct Device {
    /// Sequential read bandwidth in bytes/s (`None` = unlimited).
    pub read_bps: Option<u64>,
}

impl Device {
    /// Unlimited pass-through device.
    pub fn unlimited() -> Device {
        Device::default()
    }

    /// Device with a read bandwidth of `mibps` MiB/s (saturating: a rate
    /// too large for a `u64` of bytes/s is as good as unlimited).
    pub fn with_mibps(mibps: u64) -> Device {
        Device {
            read_bps: Some(mibps.saturating_mul(1024 * 1024)),
        }
    }

    /// Wrap a reader with this device's read throttle.
    pub fn reader<R>(&self, inner: R) -> Throttled<R> {
        Throttled::new(inner, self.read_bps)
    }
}

/// Positioned exact reads into fresh storage: append exactly `len` bytes,
/// read from byte `offset`, to `buf`, wherever the stream's cursor stands.
/// The one primitive the ranged read path asks of a file.
///
/// The bytes land in `buf`'s spare capacity with nothing initialised
/// first ([`Read::read_to_end`] over a [`Read::take`] of the stream, which
/// a `File` serves by reading straight into the uninitialised tail), so a
/// buffer the read allocates is written once, by the read.
pub trait ReadAt {
    /// Append exactly `len` bytes starting at byte `offset` to `buf`.
    fn append_exact_at(
        &mut self,
        buf: &mut Vec<u8>,
        len: usize,
        offset: u64,
    ) -> std::io::Result<()>;
}

/// [`ReadAt::append_exact_at`] over any seekable reader: seek, reserve,
/// then read exactly `len` bytes onto the end of `buf`.
pub(crate) fn append_exact<R: Read + Seek>(
    mut r: R,
    buf: &mut Vec<u8>,
    len: usize,
    offset: u64,
) -> std::io::Result<()> {
    r.seek(SeekFrom::Start(offset))?;
    buf.reserve_exact(len);
    let n = r.take(len as u64).read_to_end(buf)?;
    if n != len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("read {n} of {len} bytes at offset {offset}"),
        ));
    }
    Ok(())
}

impl ReadAt for File {
    fn append_exact_at(
        &mut self,
        buf: &mut Vec<u8>,
        len: usize,
        offset: u64,
    ) -> std::io::Result<()> {
        append_exact(&*self, buf, len, offset)
    }
}

/// A bandwidth-throttled stream wrapper.
///
/// Counts every byte the wrapped stream is asked for, accounts them against
/// an ideal schedule from the first operation and sleeps whenever actual
/// progress runs ahead of the simulated device.
#[derive(Debug)]
pub struct Throttled<T> {
    inner: T,
    bps: Option<u64>,
    started: Option<Instant>,
    bytes: u64,
}

impl<T> Throttled<T> {
    fn new(inner: T, bps: Option<u64>) -> Throttled<T> {
        Throttled {
            inner,
            bps,
            started: None,
            bytes: 0,
        }
    }

    /// Bytes transferred so far.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes
    }

    /// Run one transfer on the wrapped stream: time it and count its bytes
    /// (`io/read_op_ns`, `io/bytes_read`), then pace it — sleep if the
    /// stream is ahead of the bandwidth schedule (`io/throttle_sleep_ns`,
    /// so telemetry separates simulated device time from actual I/O time).
    fn transfer(
        &mut self,
        op: impl FnOnce(&mut T) -> std::io::Result<usize>,
    ) -> std::io::Result<usize> {
        let t = ucp_telemetry::enabled().then(Instant::now);
        let n = op(&mut self.inner)?;
        if let Some(t) = t {
            ucp_telemetry::observe(
                "io/read_op_ns",
                t.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            );
            ucp_telemetry::count("io/bytes_read", n as u64);
        }
        self.bytes += n as u64;
        let Some(bps) = self.bps else {
            return Ok(n);
        };
        let start = *self.started.get_or_insert_with(Instant::now);
        // A rate of 0 has no schedule to keep: its quotient is not finite,
        // which `try_from_secs_f64` refuses, so nothing is paced.
        let ideal = Duration::try_from_secs_f64(self.bytes as f64 / bps as f64).ok();
        if let Some(pause) = ideal.and_then(|ideal| ideal.checked_sub(start.elapsed())) {
            std::thread::sleep(pause);
            ucp_telemetry::observe(
                "io/throttle_sleep_ns",
                pause.as_nanos().min(u64::MAX as u128) as u64,
            );
        }
        Ok(n)
    }
}

impl<R: Read> Read for Throttled<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.transfer(|r| r.read(buf))
    }
}

/// A positioned read transfers exactly `len` bytes and is metered like any
/// other read. It is forwarded to the inner stream's own positioned read,
/// not served through [`Read`], whose default `read_buf` would zero the
/// spare capacity before reading into it.
impl<T: ReadAt> ReadAt for Throttled<T> {
    fn append_exact_at(
        &mut self,
        buf: &mut Vec<u8>,
        len: usize,
        offset: u64,
    ) -> std::io::Result<()> {
        self.transfer(|r| r.append_exact_at(buf, len, offset).map(|()| len))?;
        Ok(())
    }
}

/// Seeking repositions the stream without transferring data, so it passes
/// through unmetered — only bytes actually read count against the
/// simulated bandwidth.
impl<T: Seek> Seek for Throttled<T> {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

/// Deterministic fault injection for crash-consistency testing.
///
/// The commit protocol in [`crate::commit`] registers a *kill point* at
/// every crash-relevant operation: each data write that reaches the file
/// (one per flushed buffer, not one per serializer call), the data fsync,
/// the rename into place, and the parent-directory fsync. A test
/// (or an operator, via the `UCP_FAULTS` environment variable) arms a
/// [`fault::FaultPlan`] naming which kill point should fail; when that point is
/// reached the operation returns an injected I/O error, leaving the
/// on-disk state exactly as a crash at that instant would — torn `.tmp`
/// files, missing renames, unsynced directories. The crash-replay
/// harness sweeps the kill index across a save/convert and asserts that
/// resume always lands on a complete checkpoint.
///
/// `UCP_FAULTS` syntax: `kill_after=N[,truncate=K]` — fail the `N`th kill
/// point (0-based); if the fatal point is a data write, let `K` bytes of
/// that write land first (a torn write).
pub mod fault {
    use std::io::Write;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    /// What to break, and how.
    #[derive(Debug, Clone, Default)]
    pub struct FaultPlan {
        /// Fail the `n`th kill point reached (0-based). `None` never
        /// fires (counting still happens, which is how the harness
        /// measures a run's kill-point count).
        pub kill_after: Option<u64>,
        /// When the fatal point is a data write, how many bytes of that
        /// write land before the failure (a torn write). `None` → zero.
        pub truncate_to: Option<u64>,
        /// Only operations on paths under this prefix count as kill
        /// points. Faults are process-global (checkpoint writers fan out
        /// across worker threads), so tests scope their plan to their
        /// own checkpoint directory to leave unrelated I/O untouched.
        pub scope: Option<PathBuf>,
        /// When the fatal point fires, surface a genuine-looking disk-full
        /// error (ENOSPC) instead of an injected *crash*. A crash kills
        /// the process — nothing gets to clean up, so `.tmp` remnants are
        /// correct. A disk-full error is survived by the process, so
        /// error-path cleanup (e.g. unlinking the staging file) must run;
        /// this knob lets tests exercise exactly that path.
        pub full_disk: bool,
    }

    impl FaultPlan {
        /// Plan that counts kill points under `scope` without ever firing.
        pub fn count_only(scope: &Path) -> FaultPlan {
            FaultPlan {
                scope: Some(scope.to_path_buf()),
                ..FaultPlan::default()
            }
        }

        /// Plan that kills the `n`th kill point under `scope`.
        pub fn kill_at(n: u64, scope: &Path) -> FaultPlan {
            FaultPlan {
                kill_after: Some(n),
                scope: Some(scope.to_path_buf()),
                ..FaultPlan::default()
            }
        }
    }

    static HITS: AtomicU64 = AtomicU64::new(0);
    static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
    static ARM_LOCK: Mutex<()> = Mutex::new(());
    static ENV: OnceLock<Option<FaultPlan>> = OnceLock::new();

    fn unpoison<'a, T>(
        r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
    ) -> MutexGuard<'a, T> {
        r.unwrap_or_else(PoisonError::into_inner)
    }

    fn env_plan() -> Option<FaultPlan> {
        ENV.get_or_init(|| {
            let spec = std::env::var("UCP_FAULTS").ok()?;
            let mut plan = FaultPlan::default();
            for part in spec.split(',') {
                let (key, value) = part.split_once('=')?;
                match key.trim() {
                    "kill_after" => plan.kill_after = value.trim().parse().ok(),
                    "truncate" => plan.truncate_to = value.trim().parse().ok(),
                    "scope" => plan.scope = Some(PathBuf::from(value.trim())),
                    "full_disk" => plan.full_disk = matches!(value.trim(), "1" | "true"),
                    _ => return None,
                }
            }
            plan.kill_after?;
            Some(plan)
        })
        .clone()
    }

    /// An armed fault plan. Holds a process-wide arming lock so
    /// concurrent tests cannot clobber each other's plan; dropping it
    /// disarms. Read the kill-point count with [`Armed::hits`] before
    /// dropping.
    pub struct Armed {
        _lock: MutexGuard<'static, ()>,
    }

    impl Armed {
        /// Kill points reached since arming.
        pub fn hits(&self) -> u64 {
            HITS.load(Ordering::SeqCst)
        }
    }

    impl Drop for Armed {
        fn drop(&mut self) {
            *unpoison(PLAN.lock()) = None;
        }
    }

    /// Arm a fault plan (resets the kill-point counter). The plan stays
    /// active — across all threads — until the returned guard drops.
    #[must_use = "the plan disarms when the guard drops"]
    pub fn arm(plan: FaultPlan) -> Armed {
        let lock = unpoison(ARM_LOCK.lock());
        HITS.store(0, Ordering::SeqCst);
        *unpoison(PLAN.lock()) = Some(plan);
        Armed { _lock: lock }
    }

    /// The payload of every injected crash: the kill point it struck.
    #[derive(Debug)]
    pub struct InjectedCrash {
        /// The operation the crash struck (`"write"`, `"fsync"`, ...).
        pub point: String,
    }

    impl std::fmt::Display for InjectedCrash {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "injected crash at kill point: {}", self.point)
        }
    }

    impl std::error::Error for InjectedCrash {}

    /// The error every injected crash surfaces as.
    pub fn injected_crash(point: &str) -> std::io::Error {
        std::io::Error::other(InjectedCrash {
            point: point.to_string(),
        })
    }

    /// Whether `e` is an injected crash (vs a genuine I/O failure).
    /// Injected *disk-full* errors ([`FaultPlan::full_disk`]) are
    /// deliberately not "injected" in this sense: they model a survivable
    /// failure, so error-path cleanup must treat them as real.
    pub fn is_injected(e: &std::io::Error) -> bool {
        e.get_ref().is_some_and(|inner| inner.is::<InjectedCrash>())
    }

    /// What a fatal strike surfaces as. A [`FaultPlan::full_disk`] strike
    /// is shaped like a real ENOSPC so production error paths cannot tell
    /// it apart.
    fn strike_error(plan: &FaultPlan, point: &str) -> std::io::Error {
        if plan.full_disk {
            std::io::Error::other(format!("no space left on device (at {point})"))
        } else {
            injected_crash(point)
        }
    }

    /// Count one kill point for `path`; `Some` if the plan says die here.
    /// With no in-process plan armed, the `UCP_FAULTS` env plan applies.
    fn strike(path: &Path) -> Option<FaultPlan> {
        let guard = unpoison(PLAN.lock());
        let plan = match &*guard {
            Some(p) => p.clone(),
            None => env_plan()?,
        };
        drop(guard);
        if let Some(scope) = &plan.scope {
            if !path.starts_with(scope) {
                return None;
            }
        }
        let n = HITS.fetch_add(1, Ordering::SeqCst);
        (plan.kill_after == Some(n)).then_some(plan)
    }

    /// Register a non-write kill point (fsync, rename, dir sync) on `path`.
    pub fn gate(point: &str, path: &Path) -> std::io::Result<()> {
        match strike(path) {
            Some(plan) => Err(strike_error(&plan, point)),
            None => Ok(()),
        }
    }

    /// Writer wrapper registering one kill point per `write` call; a
    /// fatal strike lands `truncate_to` bytes (a torn write) and fails.
    /// It wraps the file itself, *under* any buffering, so a kill point is
    /// a physical write and what lands is exactly a prefix of it.
    pub struct FaultWriter<W: Write> {
        inner: W,
        path: PathBuf,
        dead: bool,
    }

    impl<W: Write> FaultWriter<W> {
        /// Wrap `inner`, attributing its writes to `path` for fault scoping.
        pub fn new(inner: W, path: &Path) -> FaultWriter<W> {
            FaultWriter {
                inner,
                path: path.to_path_buf(),
                dead: false,
            }
        }
    }

    impl<W: Write> Write for FaultWriter<W> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.dead {
                return Err(injected_crash("write after injected crash"));
            }
            match strike(&self.path) {
                None => self.inner.write(buf),
                Some(plan) => {
                    self.dead = true;
                    let torn = (plan.truncate_to.unwrap_or(0) as usize).min(buf.len());
                    if torn > 0 {
                        let _ = self.inner.write_all(&buf[..torn]);
                    }
                    Err(strike_error(&plan, "data write"))
                }
            }
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_is_transparent() {
        let dev = Device::unlimited();
        let mut r = dev.reader(&b"hello"[..]);
        let mut buf = String::new();
        r.read_to_string(&mut buf).unwrap();
        assert_eq!(buf, "hello");
    }

    #[test]
    fn throttled_read_takes_proportional_time() {
        // 1 MiB/s device, 64 KiB payload → ≥ ~60 ms.
        let dev = Device::with_mibps(1);
        let payload = vec![0u8; 64 * 1024];
        let start = Instant::now();
        let mut r = dev.reader(&payload[..]);
        std::io::copy(&mut r, &mut std::io::sink()).unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(50),
            "only {elapsed:?} for 64 KiB at 1 MiB/s"
        );
        assert_eq!(r.bytes_transferred(), 64 * 1024);
    }

    #[test]
    fn throttle_sleep_is_recorded_when_telemetry_enabled() {
        let rec = ucp_telemetry::global();
        rec.set_enabled(true);
        let dev = Device::with_mibps(1);
        let payload = vec![0u8; 64 * 1024];
        std::io::copy(&mut dev.reader(&payload[..]), &mut std::io::sink()).unwrap();
        rec.set_enabled(false);
        let report = rec.report("io");
        let sleep = report
            .hist("io/throttle_sleep_ns")
            .expect("sleep histogram");
        assert!(sleep.count >= 1, "no throttle sleep recorded");
        assert!(report.counter("io/bytes_read").unwrap_or(0) >= 64 * 1024);
        assert!(report.hist("io/read_op_ns").is_some(), "op histogram");
        // 64 KiB at 1 MiB/s is ~62 ms of simulated device time; the slice
        // read itself is microseconds, so nearly all of it is sleep.
        // (Absolute bound: other tests sharing the global recorder can
        // add op time but cannot shrink this test's recorded sleep.)
        assert!(
            sleep.sum >= 40_000_000,
            "expected >= 40ms of throttle sleep, got {} ns",
            sleep.sum
        );
    }

    /// Drain 64 KiB through `dev` and check nothing paced it.
    fn drains_unpaced(dev: Device) {
        let payload = vec![0u8; 64 * 1024];
        let (start, mut r) = (Instant::now(), dev.reader(&payload[..]));
        std::io::copy(&mut r, &mut std::io::sink()).unwrap();
        assert!(start.elapsed() < Duration::from_secs(1), "{dev:?}");
        assert_eq!(r.bytes_transferred(), 64 * 1024);
    }

    #[test]
    fn zero_rate_paces_nothing_instead_of_panicking() {
        // bytes / 0 is not finite: no schedule to keep.
        drains_unpaced(Device::with_mibps(0));
    }

    #[test]
    fn huge_rate_saturates_instead_of_overflowing() {
        // 2^44 MiB/s is 2^64 bytes/s, one past u64::MAX.
        assert_eq!(Device::with_mibps(1 << 44).read_bps, Some(u64::MAX));
        drains_unpaced(Device::with_mibps(u64::MAX));
    }

    #[test]
    fn read_throttle_counts_bytes() {
        let dev = Device {
            read_bps: Some(u64::MAX),
        };
        let data = vec![1u8; 1000];
        let mut r = dev.reader(&data[..]);
        let mut sink = Vec::new();
        r.read_to_end(&mut sink).unwrap();
        assert_eq!(r.bytes_transferred(), 1000);
    }

    #[test]
    fn throttled_positioned_read_appends_exactly_and_counts() {
        let path = std::env::temp_dir().join(format!("ucp_io_append_{}", std::process::id()));
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        std::fs::write(&path, &data).unwrap();
        let mut r = Device::unlimited().reader(File::open(&path).unwrap());
        let mut buf = vec![0xAA];
        r.append_exact_at(&mut buf, 300, 650).unwrap();
        assert_eq!(buf[0], 0xAA, "what the buffer held stays");
        assert_eq!(&buf[1..], &data[650..950]);
        assert_eq!(r.bytes_transferred(), 300);
        // A read the file cannot back is an error, not a short buffer.
        let short = r.append_exact_at(&mut Vec::new(), 60, 950);
        assert_eq!(short.unwrap_err().kind(), std::io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_crash_is_known_by_type_not_by_text() {
        let crash = fault::injected_crash("commit.fsync");
        assert!(fault::is_injected(&crash));
        assert_eq!(
            crash.to_string(),
            "injected crash at kill point: commit.fsync"
        );
        // The same words from a genuine failure are not a crash.
        let lookalike = std::io::Error::other(crash.to_string());
        assert!(!fault::is_injected(&lookalike));
    }
}

//! Correctness checks: a tally, a fast content hash, and checkpoint-tree
//! comparison (relative path + content hash, journal excluded).

use std::collections::BTreeMap;
use std::path::Path;

/// Running tally of correctness checks; becomes `attempted` / `failed` /
/// `correct` of the result line.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Checks attempted.
    pub run: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// `a` and `b` are the same curve, bit for bit.
pub fn losses_bitwise_equal(a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// A 64-bit multiply-xor hash over 8-byte words: fast enough to hash a
/// checkpoint tree, and only ever compared for equality between outputs
/// of the same deterministic program.
#[derive(Debug, Clone)]
pub struct Hasher64(u64);

impl Default for Hasher64 {
    fn default() -> Hasher64 {
        Hasher64(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher64 {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29);
    }

    /// Feed raw bytes (length included, so `ab|c` ≠ `a|bc`).
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.word(u64::from_le_bytes(tail));
    }

    /// Feed the bit patterns of `values`.
    pub fn f32s(&mut self, values: &[f32]) {
        self.word(values.len() as u64);
        let mut pairs = values.chunks_exact(2);
        for p in &mut pairs {
            self.word(u64::from(p[0].to_bits()) | u64::from(p[1].to_bits()) << 32);
        }
        if let [last] = pairs.remainder() {
            self.word(u64::from(last.to_bits()));
        }
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// `relative path → (length, content hash)` of every regular file under
/// `root`, skipping the run journal (it holds wall-clock timestamps).
pub fn tree_digest(root: &Path) -> std::io::Result<BTreeMap<String, (u64, u64)>> {
    fn walk(
        root: &Path,
        dir: &Path,
        out: &mut BTreeMap<String, (u64, u64)>,
    ) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            if entry.file_type()?.is_dir() {
                walk(root, &path, out)?;
            } else if entry.file_name() != "journal.jsonl" {
                let bytes = std::fs::read(&path)?;
                let mut h = Hasher64::default();
                h.bytes(&bytes);
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, (bytes.len() as u64, h.finish()));
            }
        }
        Ok(())
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out)?;
    Ok(out)
}

/// First difference between two tree digests, if any.
pub fn tree_diff(
    a: &BTreeMap<String, (u64, u64)>,
    b: &BTreeMap<String, (u64, u64)>,
) -> Option<String> {
    for (path, da) in a {
        match b.get(path) {
            None => return Some(format!("{path}: only in the first tree")),
            Some(db) if db != da => return Some(format!("{path}: contents differ")),
            Some(_) => {}
        }
    }
    b.keys()
        .find(|p| !a.contains_key(*p))
        .map(|p| format!("{p}: only in the second tree"))
}

/// `(bytes of files with one link, count of files with more)` under
/// `dir`: what a save wrote fresh vs. hard-linked from the prior step.
#[cfg(unix)]
pub fn fresh_and_linked(dir: &Path) -> (u64, u64) {
    use std::os::unix::fs::MetadataExt;
    let (mut fresh, mut linked) = (0u64, 0u64);
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                stack.push(entry.path());
            } else if meta.nlink() > 1 {
                linked += 1;
            } else {
                fresh += meta.len();
            }
        }
    }
    (fresh, linked)
}

/// See the unix version.
#[cfg(not(unix))]
pub fn fresh_and_linked(_dir: &Path) -> (u64, u64) {
    (0, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_separates_boundaries_and_bits() {
        let d = |parts: &[&[u8]]| {
            let mut h = Hasher64::default();
            parts.iter().for_each(|p| h.bytes(p));
            h.finish()
        };
        assert_ne!(d(&[b"ab", b"c"]), d(&[b"a", b"bc"]));
        assert_eq!(d(&[b"abcdefghij"]), d(&[b"abcdefghij"]));
        let f = |v: &[f32]| {
            let mut h = Hasher64::default();
            h.f32s(v);
            h.finish()
        };
        assert_ne!(f(&[0.0, 1.0, 2.0]), f(&[0.0, 1.0, 2.000_000_2]));
        assert_ne!(f(&[0.0]), f(&[-0.0]));
    }

    #[test]
    fn tree_digest_ignores_journal_and_finds_differences() {
        let root = crate::sys::test_root().join(format!("ucp_e2e_checks_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for side in ["a", "b"] {
            let d = root.join(side).join("sub");
            std::fs::create_dir_all(&d).unwrap();
            std::fs::write(d.join("x.bin"), [1u8, 2, 3]).unwrap();
            std::fs::write(root.join(side).join("journal.jsonl"), side).unwrap();
        }
        let a = tree_digest(&root.join("a")).unwrap();
        let b = tree_digest(&root.join("b")).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(tree_diff(&a, &b), None);
        std::fs::write(root.join("b/sub/x.bin"), [1u8, 2, 4]).unwrap();
        let b = tree_digest(&root.join("b")).unwrap();
        assert!(tree_diff(&a, &b).unwrap().contains("contents differ"));
        std::fs::write(root.join("b/extra"), b"").unwrap();
        std::fs::write(root.join("b/sub/x.bin"), [1u8, 2, 3]).unwrap();
        let b = tree_digest(&root.join("b")).unwrap();
        assert!(tree_diff(&a, &b).unwrap().contains("only in the second"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn tally_counts() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        c.check(false, || "bad".into());
        assert_eq!((c.run, c.failed, c.failures.len()), (2, 1, 1));
        assert!(losses_bitwise_equal(&[(1, 0.5)], &[(1, 0.5)]));
        assert!(!losses_bitwise_equal(&[(1, 0.0)], &[(1, -0.0)]));
    }
}

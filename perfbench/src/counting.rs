//! An instrumented [`CacheBackend`]: delegates to a [`DiskCache`] and
//! counts and times `get` and `put` per key class, so the benchmark can
//! report the cache layer from outside the engine.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gradpim_engine::cache::{CacheBackend, CacheStats, DiskCache};

/// Which cache level a key belongs to, by its prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyClass {
    /// A report row group (`group/v1/...`).
    Group,
    /// A phase-executor result (`phase/v1/...`).
    Phase,
    /// Anything else (no such keys exist today).
    Other,
}

impl KeyClass {
    /// Classifies `key` by its versioned prefix.
    pub fn of(key: &str) -> Self {
        if key.starts_with("group/v1/") {
            KeyClass::Group
        } else if key.starts_with("phase/v1/") {
            KeyClass::Phase
        } else {
            KeyClass::Other
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Counts for one key class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// `get` calls.
    pub gets: u64,
    /// `get` calls that returned a value.
    pub hits: u64,
    /// Time spent in `get`, ns.
    pub get_ns: u64,
    /// `put` calls.
    pub puts: u64,
    /// Value bytes passed to `put`.
    pub put_bytes: u64,
    /// Time spent in `put`, ns.
    pub put_ns: u64,
}

impl ClassCounts {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &ClassCounts) -> ClassCounts {
        ClassCounts {
            gets: self.gets - earlier.gets,
            hits: self.hits - earlier.hits,
            get_ns: self.get_ns - earlier.get_ns,
            puts: self.puts - earlier.puts,
            put_bytes: self.put_bytes - earlier.put_bytes,
            put_ns: self.put_ns - earlier.put_ns,
        }
    }

    /// `self + other`, field by field.
    pub fn plus(&self, other: &ClassCounts) -> ClassCounts {
        ClassCounts {
            gets: self.gets + other.gets,
            hits: self.hits + other.hits,
            get_ns: self.get_ns + other.get_ns,
            puts: self.puts + other.puts,
            put_bytes: self.put_bytes + other.put_bytes,
            put_ns: self.put_ns + other.put_ns,
        }
    }

    /// Hits per get; 0 when nothing was looked up.
    pub fn hit_ratio(&self) -> f64 {
        if self.gets == 0 {
            0.0
        } else {
            self.hits as f64 / self.gets as f64
        }
    }
}

#[derive(Debug, Default)]
struct Atomics {
    gets: AtomicU64,
    hits: AtomicU64,
    get_ns: AtomicU64,
    puts: AtomicU64,
    put_bytes: AtomicU64,
    put_ns: AtomicU64,
}

/// A [`DiskCache`] that counts and times every `get` and `put` by
/// [`KeyClass`] and records a `bench.cache.get` / `bench.cache.put` span
/// around each when tracing is on. `contains` is a planning probe and is
/// left uncounted, as the trait requires.
#[derive(Debug)]
pub struct CountingCache {
    inner: DiskCache,
    counts: [Atomics; 3],
}

impl CountingCache {
    /// Opens (creating if needed) a disk store at `root`.
    ///
    /// # Errors
    ///
    /// [`DiskCache::open`]'s description when the directory is unusable.
    pub fn open(root: &Path) -> Result<Self, String> {
        Ok(Self { inner: DiskCache::open(root)?, counts: Default::default() })
    }

    /// A snapshot of one class's counts.
    pub fn counts(&self, class: KeyClass) -> ClassCounts {
        let a = &self.counts[class.index()];
        let load = |x: &AtomicU64| x.load(Ordering::Relaxed);
        ClassCounts {
            gets: load(&a.gets),
            hits: load(&a.hits),
            get_ns: load(&a.get_ns),
            puts: load(&a.puts),
            put_bytes: load(&a.put_bytes),
            put_ns: load(&a.put_ns),
        }
    }

    fn class(&self, key: &str) -> &Atomics {
        &self.counts[KeyClass::of(key).index()]
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl CacheBackend for CountingCache {
    fn get(&self, key: &str) -> Option<String> {
        let _span = gradpim_obs::span("bench.cache.get", "bench");
        let start = Instant::now();
        let value = self.inner.get(key);
        let ns = elapsed_ns(start);
        let a = self.class(key);
        a.gets.fetch_add(1, Ordering::Relaxed);
        a.hits.fetch_add(u64::from(value.is_some()), Ordering::Relaxed);
        a.get_ns.fetch_add(ns, Ordering::Relaxed);
        value
    }

    fn put(&self, key: &str, value: &str) {
        let _span = gradpim_obs::span("bench.cache.put", "bench");
        let start = Instant::now();
        self.inner.put(key, value);
        let ns = elapsed_ns(start);
        let a = self.class(key);
        a.puts.fetch_add(1, Ordering::Relaxed);
        a.put_bytes.fetch_add(value.len() as u64, Ordering::Relaxed);
        a.put_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn contains(&self, key: &str) -> bool {
        self.inner.contains(key)
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    fn clear(&self) -> usize {
        self.inner.clear()
    }

    fn verify(&self) -> Vec<String> {
        self.inner.verify()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_classify_by_prefix() {
        assert_eq!(KeyClass::of("group/v1/design-space/quick=None/..."), KeyClass::Group);
        assert_eq!(KeyClass::of("phase/v1/stream/1/2/3/cfg"), KeyClass::Phase);
        assert_eq!(KeyClass::of("group/v2/x"), KeyClass::Other);
        assert_eq!(KeyClass::of("phase/v1"), KeyClass::Other);
        assert_eq!(KeyClass::of(""), KeyClass::Other);
    }

    #[test]
    fn wrapper_counts_gets_and_puts_but_not_contains() {
        let dir = std::env::temp_dir().join(format!("perfbench-counting-{}", std::process::id()));
        let cache = CountingCache::open(&dir).expect("temp dir is writable");
        assert_eq!(cache.get("group/v1/a"), None);
        cache.put("group/v1/a", "rows");
        cache.put("phase/v1/b", "bits!");
        assert_eq!(cache.get("group/v1/a").as_deref(), Some("rows"));
        assert!(cache.contains("phase/v1/b"));
        assert!(!cache.contains("phase/v1/missing"));
        let group = cache.counts(KeyClass::Group);
        assert_eq!((group.gets, group.hits, group.puts, group.put_bytes), (2, 1, 1, 4));
        assert_eq!(group.hit_ratio(), 0.5);
        let phase = cache.counts(KeyClass::Phase);
        assert_eq!((phase.gets, phase.puts, phase.put_bytes), (0, 1, 5));
        assert_eq!(phase.hit_ratio(), 0.0);
        assert_eq!(cache.counts(KeyClass::Other), ClassCounts::default());
        assert_eq!(group.since(&group), ClassCounts::default());
        assert_eq!(group.plus(&phase).puts, 2);
        std::fs::remove_dir_all(&dir).expect("temp dir removable");
    }
}

//! Atomic snapshot cells: the wait-free building block of the read path.
//!
//! A [`SnapshotCell<T>`] holds one immutable snapshot behind an atomic
//! pointer. Readers *pin* the cell (one wait-free `fetch_add`), dereference
//! the current snapshot, and unpin — they never take a lock and never wait
//! on a writer, no matter how many writers are swapping. Writers publish a
//! *new* snapshot with a single atomic swap and retire the old one; a
//! retired snapshot is freed only once no reader is pinned, so a reader can
//! never observe a torn or reclaimed value.
//!
//! This is classic RCU (read-copy-update) shrunk to the one shape the
//! registry needs: read-mostly maps that change by whole-value replacement.
//! The memory-ordering argument is spelled out on [`SnapshotCell::store`];
//! every atomic here is `SeqCst` because the safety proof needs the
//! store-buffer interleaving (reader misses the swap *and* writer misses
//! the pin) to be impossible, which acquire/release alone does not forbid.
//!
//! Cost model: a read is two uncontended `fetch_add`s and one load — a
//! handful of nanoseconds, unchanged by concurrent writers. A write is an
//! `Arc` allocation plus a swap; writers pay for copying the snapshot
//! (copy-on-write at the caller), which is the price of never making
//! readers wait.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

/// A single atomically swappable snapshot slot with wait-free reads.
///
/// Writers must serialize *logically* (last swap wins; use an external
/// mutex for read-modify-write sequences), but any interleaving of
/// `store` calls is memory-safe.
pub(crate) struct SnapshotCell<T> {
    /// `Arc::into_raw` of the current snapshot. Never null.
    current: AtomicPtr<T>,
    /// Readers currently inside their pin window.
    pinned: AtomicU64,
    /// Snapshots swapped out but possibly still referenced by a pinned
    /// reader. Drained opportunistically by writers once `pinned == 0`.
    retired: Mutex<Vec<*mut T>>,
    /// Lifetime total of snapshots published by [`SnapshotCell::store`].
    swaps: AtomicU64,
}

// SAFETY: the raw pointers in `current` and `retired` are all
// `Arc::into_raw` results whose strong count this cell owns; they are
// only dereferenced while provably alive (see `store` for the proof) and
// only freed once unreachable. `T: Send + Sync` makes sharing the
// underlying values across threads sound.
unsafe impl<T: Send + Sync> Send for SnapshotCell<T> {}
unsafe impl<T: Send + Sync> Sync for SnapshotCell<T> {}

impl<T> SnapshotCell<T> {
    /// A cell initially holding `snapshot`.
    pub(crate) fn new(snapshot: Arc<T>) -> Self {
        SnapshotCell {
            current: AtomicPtr::new(Arc::into_raw(snapshot) as *mut T),
            pinned: AtomicU64::new(0),
            retired: Mutex::new(Vec::new()),
            swaps: AtomicU64::new(0),
        }
    }

    /// Run `f` against the current snapshot without cloning it.
    ///
    /// Wait-free: pin (one `fetch_add`), load, call, unpin. Keep `f`
    /// short — while any reader is pinned, retired snapshots cannot be
    /// reclaimed (they are freed by a later `store` or by drop).
    pub(crate) fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let _pin = PinGuard::enter(&self.pinned);
        let ptr = self.current.load(Ordering::SeqCst);
        // SAFETY: `ptr` came out of `current` inside the pin window, so
        // per the reclamation protocol (see `store`) its Arc is alive:
        // either it is still the current snapshot (the cell holds a
        // strong count) or it sits unreclaimed on the retired list.
        f(unsafe { &*ptr })
    }

    /// Clone out an owning handle to the current snapshot.
    pub(crate) fn load(&self) -> Arc<T> {
        self.read(|value| {
            let ptr = value as *const T;
            // SAFETY: `ptr` is the `Arc::into_raw` pointer of a live Arc
            // (pinned, see `read`); bumping its strong count and
            // rebuilding an Arc hands out a second owner.
            unsafe {
                Arc::increment_strong_count(ptr);
                Arc::from_raw(ptr)
            }
        })
    }

    /// Publish `snapshot` as the new current value.
    ///
    /// The old snapshot is retired, and retired snapshots are freed only
    /// when no reader is pinned. Safety of that check: all four operations
    /// involved — the reader's pin `fetch_add` and `current` load, the
    /// writer's `swap` and `pinned` load — are `SeqCst`, so they have one
    /// total order `S`. If a reader's pin precedes the writer's `pinned`
    /// load in `S`, the writer observes `pinned > 0` and frees nothing.
    /// Otherwise the writer's swap (program-order before its `pinned`
    /// load) also precedes the reader's `current` load in `S`, so the
    /// reader sees the *new* pointer and never touches the retired one.
    /// Either way no pinned reader can hold a pointer this call frees.
    pub(crate) fn store(&self, snapshot: Arc<T>) {
        let fresh = Arc::into_raw(snapshot) as *mut T;
        let old = self.current.swap(fresh, Ordering::SeqCst);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        let mut retired = self.retired.lock();
        retired.push(old);
        if self.pinned.load(Ordering::SeqCst) == 0 {
            for ptr in retired.drain(..) {
                // SAFETY: `ptr` was removed from `current` (by some
                // swap), is no longer reachable by new readers, and the
                // SeqCst argument above rules out a pinned reader still
                // holding it. Reclaiming the strong count we own.
                unsafe { drop(Arc::from_raw(ptr)) };
            }
        }
    }

    /// How many snapshots have ever been published (swapped in).
    pub(crate) fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }
}

impl<T> Drop for SnapshotCell<T> {
    fn drop(&mut self) {
        // `&mut self`: no reader can be pinned, every pointer is ours.
        let current = *self.current.get_mut();
        // SAFETY: reclaiming the strong counts owned by the cell.
        unsafe { drop(Arc::from_raw(current)) };
        for ptr in self.retired.get_mut().drain(..) {
            unsafe { drop(Arc::from_raw(ptr)) };
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SnapshotCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.read(|value| {
            f.debug_struct("SnapshotCell")
                .field("current", value)
                .field("swaps", &self.swaps())
                .finish()
        })
    }
}

impl<T: Default> Default for SnapshotCell<T> {
    fn default() -> Self {
        SnapshotCell::new(Arc::new(T::default()))
    }
}

/// Unpins on drop, so a panicking reader closure cannot wedge
/// reclamation forever.
struct PinGuard<'a> {
    pinned: &'a AtomicU64,
}

impl<'a> PinGuard<'a> {
    fn enter(pinned: &'a AtomicU64) -> Self {
        pinned.fetch_add(1, Ordering::SeqCst);
        PinGuard { pinned }
    }
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        self.pinned.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn read_sees_the_latest_store() {
        let cell = SnapshotCell::new(Arc::new(1u64));
        assert_eq!(cell.read(|v| *v), 1);
        cell.store(Arc::new(2));
        assert_eq!(cell.read(|v| *v), 2);
        assert_eq!(*cell.load(), 2);
        assert_eq!(cell.swaps(), 1);
    }

    /// Every snapshot allocated is dropped exactly once, whether it was
    /// retired mid-run or still current at the end.
    #[test]
    fn no_snapshot_leaks_or_double_frees() {
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        struct Counted(#[allow(dead_code)] u64);
        impl Counted {
            fn new(v: u64) -> Self {
                LIVE.fetch_add(1, Ordering::SeqCst);
                Counted(v)
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }
        {
            let cell = SnapshotCell::new(Arc::new(Counted::new(0)));
            for i in 1..100 {
                cell.store(Arc::new(Counted::new(i)));
            }
            let held = cell.load();
            cell.store(Arc::new(Counted::new(1000)));
            drop(held);
        }
        assert_eq!(LIVE.load(Ordering::SeqCst), 0);
    }

    /// Readers racing a writer always observe an internally consistent
    /// snapshot (never a torn pair) and eventually the newest one.
    #[test]
    fn concurrent_readers_see_consistent_snapshots() {
        let cell = Arc::new(SnapshotCell::new(Arc::new((0u64, 0u64))));
        const ROUNDS: u64 = 20_000;
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let cell = Arc::clone(&cell);
                scope.spawn(move || {
                    let mut last = 0;
                    for _ in 0..ROUNDS {
                        let (a, b) = cell.read(|&pair| pair);
                        assert_eq!(a, b, "snapshot must never be torn");
                        assert!(a >= last, "snapshots must move forward");
                        last = a;
                    }
                });
            }
            let writer = Arc::clone(&cell);
            scope.spawn(move || {
                for i in 1..=ROUNDS / 4 {
                    writer.store(Arc::new((i, i)));
                }
            });
        });
        let (a, b) = cell.read(|&pair| pair);
        assert_eq!(a, ROUNDS / 4);
        assert_eq!(b, ROUNDS / 4);
    }

    /// `load` hands out an owner that stays valid after further swaps.
    #[test]
    fn loaded_arc_survives_later_stores() {
        let cell = SnapshotCell::new(Arc::new(vec![1, 2, 3]));
        let held = cell.load();
        for i in 0..50 {
            cell.store(Arc::new(vec![i]));
        }
        assert_eq!(*held, vec![1, 2, 3]);
    }
}

//! Execution statistics, the raw material for Kyrix's response-time metrics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-query execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Heap tuples examined (seq scans + fetches through indexes).
    pub rows_scanned: u64,
    /// Heap pages those tuples were read from, counted as page *runs*:
    /// how often an examined tuple sits on a different page than the one
    /// examined before it. Never more than `rows_scanned`; a seq scan
    /// counts each page it takes rows from once, and fetches through an
    /// index count one page per row on a heap in load order and a few per
    /// hundred rows on a heap clustered by that index
    /// ([`crate::Table::cluster`]) — `heap_pages ÷ rows_scanned` is the
    /// gauge of how much of that order is left.
    pub heap_pages: u64,
    /// Number of index probes (point lookups / range / spatial queries).
    pub index_probes: u64,
    /// Index nodes visited while probing.
    pub nodes_visited: u64,
    /// Rows in the result.
    pub rows_out: u64,
    /// Wire size of the result in bytes.
    pub bytes_out: u64,
}

impl ExecStats {
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.heap_pages += other.heap_pages;
        self.index_probes += other.index_probes;
        self.nodes_visited += other.nodes_visited;
        self.rows_out += other.rows_out;
        self.bytes_out += other.bytes_out;
    }
}

/// What copy-on-write has physically copied in one [`crate::Table`]
/// (see [`crate::Table::cow_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowStats {
    /// Heap pages copied before a write.
    pub pages_copied: u64,
    /// B+tree and R-tree nodes copied before a write.
    pub nodes_copied: u64,
    /// Chunks of page and node handles copied before a write (or an
    /// append) into one shared with another clone: at most one per chunk
    /// per clone, each ≤ [`crate::spine::CHUNK`] refcount bumps.
    pub chunks_copied: u64,
}

/// Cumulative, thread-safe counters kept by a [`crate::Database`].
#[derive(Debug, Default)]
pub struct DbCounters {
    pub queries: AtomicU64,
    pub rows_scanned: AtomicU64,
    pub rows_out: AtomicU64,
    pub bytes_out: AtomicU64,
    /// Tables unshared by copy-on-write (`Database::table_mut` on a table
    /// shared with another clone): the table gets its own page and node
    /// spines at one refcount bump per chunk of handles; the chunks, pages
    /// and nodes themselves stay shared until written ([`CowStats`] counts
    /// those). Shared between clones like the other
    /// counters, so a snapshot-serving layer can attribute what one
    /// mutation pays for by sampling around it.
    pub cow_table_copies: AtomicU64,
}

impl DbCounters {
    pub fn record(&self, stats: &ExecStats) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.rows_scanned
            .fetch_add(stats.rows_scanned, Ordering::Relaxed);
        self.rows_out.fetch_add(stats.rows_out, Ordering::Relaxed);
        self.bytes_out.fetch_add(stats.bytes_out, Ordering::Relaxed);
    }

    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Tables unshared so far by copy-on-write mutation.
    pub fn cow_table_copies(&self) -> u64 {
        self.cow_table_copies.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.queries.load(Ordering::Relaxed),
            self.rows_scanned.load(Ordering::Relaxed),
            self.rows_out.load(Ordering::Relaxed),
            self.bytes_out.load(Ordering::Relaxed),
        )
    }

    pub fn reset(&self) {
        self.queries.store(0, Ordering::Relaxed);
        self.rows_scanned.store(0, Ordering::Relaxed);
        self.rows_out.store(0, Ordering::Relaxed);
        self.bytes_out.store(0, Ordering::Relaxed);
        self.cow_table_copies.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = ExecStats {
            rows_scanned: 1,
            heap_pages: 1,
            index_probes: 2,
            nodes_visited: 3,
            rows_out: 4,
            bytes_out: 5,
        };
        a.merge(&a.clone());
        assert_eq!(a.rows_scanned, 2);
        assert_eq!(a.heap_pages, 2);
        assert_eq!(a.bytes_out, 10);
    }

    #[test]
    fn counters_record_and_reset() {
        let c = DbCounters::default();
        c.record(&ExecStats {
            rows_out: 7,
            bytes_out: 70,
            ..Default::default()
        });
        c.record(&ExecStats::default());
        assert_eq!(c.queries(), 2);
        assert_eq!(c.snapshot().2, 7);
        c.reset();
        assert_eq!(c.queries(), 0);
    }
}

//! Versioned, immutable database snapshots: the read side of the server's
//! concurrency story.
//!
//! The server publishes exactly one [`DatabaseSnapshot`] at a time — the
//! *head* — behind an `Arc`. Every fetch clones that `Arc` (two atomic ops,
//! no lock held afterwards) and resolves against it for as long as it
//! likes; a concurrent [`crate::KyrixServer::mutate_raw`] builds the
//! successor version off to the side and swaps the head atomically, so a
//! reader is never blocked behind a repair and never observes a half
//! applied mutation. Old snapshots stay alive until the last reader drops
//! its `Arc`.
//!
//! Cheapness comes from the storage layer: a [`Database`] clone shares
//! pages and index nodes with the original, and a write copies the page
//! and the root-to-leaf nodes it changes, so a successor costs what its
//! mutation wrote and an old snapshot pins only what has since diverged.

use kyrix_obs::Gauge;
use kyrix_storage::Database;
use std::sync::Arc;

/// An immutable view of the database, tagged with the data version it was
/// published under ([`crate::KyrixServer::data_version`] semantics: 0 at
/// launch, bumped by every mutation).
///
/// Dereferences to [`Database`], so any read-only database API works on a
/// snapshot directly.
pub struct DatabaseSnapshot {
    version: u64,
    db: Database,
    /// Outstanding-snapshot gauge this snapshot is counted in; decremented
    /// on drop. Server-published snapshots carry this so telemetry shows
    /// how many versions are still pinned by readers.
    tracked: Option<Arc<Gauge>>,
}

impl DatabaseSnapshot {
    /// Wrap a database as the snapshot published at `version`.
    pub(crate) fn new(db: Database, version: u64) -> Self {
        DatabaseSnapshot {
            version,
            db,
            tracked: None,
        }
    }

    /// Count this snapshot in `gauge` until it drops (the server's
    /// `snapshot.pinned` telemetry: published head + any older versions
    /// still held by readers).
    pub(crate) fn tracked(mut self, gauge: Arc<Gauge>) -> Self {
        gauge.add(1);
        self.tracked = Some(gauge);
        self
    }

    /// Pin a point-in-time view of `db` (cheap: shares every table until
    /// the original mutates one). Used outside the serving path — e.g. the
    /// tuner calibrates candidate plans against pinned snapshots while it
    /// keeps mutating the launch database — so the version tag is 0.
    pub fn pin(db: &Database) -> Self {
        DatabaseSnapshot {
            version: 0,
            db: db.clone(),
            tracked: None,
        }
    }

    /// The data version this snapshot was published under.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The version as a one-entry per-shard vector (the
    /// [`crate::backend::SnapshotView`] representation).
    pub(crate) fn version_slice(&self) -> &[u64] {
        std::slice::from_ref(&self.version)
    }

    /// The underlying database (read-only).
    pub fn database(&self) -> &Database {
        &self.db
    }
}

impl std::ops::Deref for DatabaseSnapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

impl Drop for DatabaseSnapshot {
    fn drop(&mut self) {
        if let Some(g) = &self.tracked {
            g.add(-1);
        }
    }
}

//! Playing a tour: one client that turns [`Step`]s into timed
//! `Session::open_on` / `Session::pan_to` calls, then checks what the
//! session shows.

use crate::check::{self, Oracle, ORACLE_EVERY};
use crate::walk::{Fnv, Step};
use crate::world::World;
use kyrix_client::{Session, StepReport};
use kyrix_server::CacheStats;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's response-time budget; a slower interaction is a miss.
pub const BUDGET: Duration = Duration::from_millis(500);

/// Cache discipline between interactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Caches {
    /// Paper §3.3 protocol: server and frontend caches cleared before
    /// every interaction, outside the timer.
    ClearedEachStep,
    /// Never cleared.
    Kept,
}

/// One timed interaction.
pub struct Played {
    pub start: Instant,
    pub latency: Duration,
    pub report: StepReport,
}

/// Counts a client accumulates over the interactions it plays.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClientCounts {
    pub interactions: u64,
    /// Errored, failed an output check, or blew the 500 ms budget.
    pub missed: u64,
    pub backend_requests: u64,
    pub visible_rows: u64,
    /// Interactions served entirely from the frontend cache, and their
    /// summed latency.
    pub frontend_only: u64,
    pub frontend_only_ns: u64,
    /// Frontend cache lookups and invalidation removals, summed over every
    /// session this client opened.
    pub frontend_hits: u64,
    pub frontend_misses: u64,
    pub frontend_invalidations: u64,
}

impl ClientCounts {
    /// Add another client's counts to these.
    pub fn add(&mut self, other: &ClientCounts) {
        self.interactions += other.interactions;
        self.missed += other.missed;
        self.backend_requests += other.backend_requests;
        self.visible_rows += other.visible_rows;
        self.frontend_only += other.frontend_only;
        self.frontend_only_ns += other.frontend_only_ns;
        self.frontend_hits += other.frontend_hits;
        self.frontend_misses += other.frontend_misses;
        self.frontend_invalidations += other.frontend_invalidations;
    }
}

/// A closed-loop client with zero think time.
pub struct Client<'w> {
    world: &'w World,
    caches: Caches,
    session: Option<Session>,
    /// The interaction being played already counts as a miss.
    missed_current: bool,
    pub counts: ClientCounts,
    /// First few check failures, for the report.
    pub errors: Vec<String>,
}

impl<'w> Client<'w> {
    pub fn new(world: &'w World, caches: Caches) -> Self {
        Client {
            world,
            caches,
            session: None,
            missed_current: false,
            counts: ClientCounts::default(),
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        if !self.missed_current {
            self.counts.missed += 1;
            self.missed_current = true;
        }
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    fn retire_session(&mut self) {
        if let Some(old) = self.session.take() {
            let s: CacheStats = old.frontend_cache_stats();
            self.counts.frontend_hits += s.hits;
            self.counts.frontend_misses += s.misses;
            self.counts.frontend_invalidations += s.invalidation_removals;
        }
    }

    /// Play one step; `None` when the interaction itself errored (counted
    /// as a miss).
    pub fn play(&mut self, step: &Step) -> Option<Played> {
        if self.caches == Caches::ClearedEachStep {
            self.world.server.clear_caches();
            if let Some(s) = self.session.as_mut() {
                s.clear_frontend_cache();
            }
        }
        self.counts.interactions += 1;
        self.missed_current = false;
        if step.open {
            // closing the previous level's session is not part of the
            // interaction: `Session::open_on` alone is timed
            self.retire_session();
        }
        let canvas = self.world.lod.level_canvas(step.level);
        let start = Instant::now();
        let outcome = match self.session.as_mut() {
            Some(s) => s.pan_to(step.cx, step.cy),
            None => Session::open_on(Arc::clone(&self.world.server), &canvas, step.cx, step.cy)
                .map(|(s, report)| {
                    self.session = Some(s);
                    report
                }),
        };
        let latency = start.elapsed();
        let report = match outcome {
            Ok(r) => r,
            Err(e) => {
                self.fail(format!("interaction errored: {e}"));
                return None;
            }
        };
        if latency > BUDGET {
            self.fail(format!(
                "interaction took {latency:?}, over the 500 ms budget"
            ));
        }
        self.counts.backend_requests += report.fetch.requests;
        self.counts.visible_rows += report.visible_rows as u64;
        if report.fetch.requests == 0 && report.frontend_hits > 0 {
            self.counts.frontend_only += 1;
            self.counts.frontend_only_ns += latency.as_nanos() as u64;
        }
        Some(Played {
            start,
            latency,
            report,
        })
    }

    /// Check what the session shows after step number `index` (outside
    /// the timer). With an oracle, every [`ORACLE_EVERY`]th step is also
    /// compared with the brute-force answer. Folds the visible ids into
    /// `checksum` when one is being kept.
    pub fn check(
        &mut self,
        index: usize,
        step: &Step,
        oracle: Option<&Oracle>,
        checksum: Option<&mut Fnv>,
    ) {
        let viewport = self.world.viewport_rect(step.level, step.cx, step.cy);
        let Some(session) = self.session.as_mut() else {
            return;
        };
        match check::visible_ids(session, &viewport) {
            Err(what) => self.fail(format!("step {index}: {what}")),
            Ok(ids) => {
                if let Some(h) = checksum {
                    check::fold_ids(h, index, &ids);
                }
                if let Some(oracle) = oracle.filter(|_| index.is_multiple_of(ORACLE_EVERY)) {
                    let expected = oracle.visible_ids(step.level, &viewport);
                    if ids != expected {
                        self.fail(format!(
                            "step {index}: level {} viewport {viewport:?} shows {} rows, \
                             brute force finds {}",
                            step.level,
                            ids.len(),
                            expected.len()
                        ));
                    }
                }
            }
        }
    }

    /// Render the current viewport (not part of an interaction); `None`
    /// before the first step or when rendering fails.
    pub fn render_frame(&mut self) -> Option<Duration> {
        let session = self.session.as_mut()?;
        let t = Instant::now();
        session.render().ok()?;
        Some(t.elapsed())
    }

    /// Fold the live session's cache statistics into the counts.
    pub fn finish(mut self) -> (ClientCounts, Vec<String>) {
        self.retire_session();
        (self.counts, self.errors)
    }
}

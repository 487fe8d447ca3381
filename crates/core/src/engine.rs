//! The engine controller (the paper's "application layer", §V-A).

use std::collections::VecDeque;

use odrc_db::Layout;
use odrc_geometry::Rect;
use odrc_infra::{CancelReason, CancelToken, Profiler};
use odrc_xpu::Device;

use crate::cache::{rule_signature, CacheHandle, CacheKeys, ResultCache};
use crate::checkpoint::CheckpointJournal;
use crate::delta;
use crate::parallel::{self, InFlightRule};
use crate::plan::{ExecutionPlan, RowSetKey};
use crate::rules::{Rule, RuleDeck, RuleFamily};
use crate::scene::DirtyWindow;
use crate::sequential::{self, RunContext};
use crate::shard;
use crate::violation::{canonicalize, Violation};

/// Execution mode of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The cell-level sweep pipeline on the CPU (§IV-D).
    Sequential,
    /// Row-by-row edge kernels on the device (§IV-E).
    Parallel,
}

/// Tuning knobs, including the ablation switches DESIGN.md calls out.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Enable hierarchical check-result reuse (§IV-C). Disabling it
    /// re-checks every instance — the pruning ablation.
    pub pruning: bool,
    /// Enable the adaptive row-based partition (§IV-B). Disabling it
    /// processes the whole layout as one row — the partition ablation.
    pub partition: bool,
    /// Launch edge count (a spacing rule's, per phase) at or below which the parallel
    /// mode uses the brute-force executor instead of the sweepline executor (§IV-E).
    pub sweep_threshold: usize,
    /// Worker threads for the shared host executor that fans out scene
    /// builds, partition assignment, row packing, the row-parallel
    /// sequential checks, and violation canonicalization.
    /// `None` (the default) sizes it to the host's available
    /// parallelism; an explicit count is used as given, even above the
    /// core count. The executor's pool also runs the device's kernel
    /// launches, so the two share — not add up to — one thread budget.
    /// `Some(1)` is not a separate code path: a one-thread executor
    /// runs the same tasks inline on the caller.
    pub host_threads: Option<usize>,
    /// An *external* worker pool shared across engine runs. A check
    /// server installs one process-wide [`Pool`] here so every
    /// concurrent job's host fan-outs and kernel launches publish onto
    /// one set of workers instead of each run assuming it owns the
    /// machine. `None` (the default, and the single-run CLI case) gives
    /// each run a pool of its own `host_threads - 1` workers.
    ///
    /// [`Pool`]: odrc_infra::Pool
    pub shared_pool: Option<std::sync::Arc<odrc_infra::Pool>>,
    /// Hard byte budget for out-of-core shard residency. `Some` routes
    /// inter-object rules (space, enclosure, overlap) through the
    /// sharded host pipeline: per-shard scenes are built lazily behind
    /// an LRU pool charged against this budget, evicted scenes rebuild
    /// on demand, and a scene that alone exceeds the budget degrades to
    /// build-check-drop processing instead of aborting. Only scenes are
    /// per shard: the §IV-C memo stays per rule, so the work counters
    /// equal the in-core run's. Every completed `(rule, shard)` unit is
    /// journaled when the run has a checkpoint journal, so a killed
    /// process resumes mid-rule. `None` (the default) keeps the in-core
    /// pipeline unless [`EngineOptions::shard_rows`] is set.
    pub memory_budget: Option<u64>,
    /// Partition rows per shard in out-of-core mode. `None` sizes
    /// shards to roughly [`crate::shard::DEFAULT_SHARDS`] per rule.
    /// `Some(_)` also *enables* out-of-core sharding by itself (with an
    /// unlimited residency budget), which is how the equivalence tests
    /// sweep shard geometry without memory pressure.
    pub shard_rows: Option<usize>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            pruning: true,
            partition: true,
            sweep_threshold: 512,
            host_threads: None,
            shared_pool: None,
            memory_budget: None,
            shard_rows: None,
        }
    }
}

impl EngineOptions {
    /// The effective host-executor thread count: the explicit setting,
    /// or the host's available parallelism.
    pub fn resolved_host_threads(&self) -> usize {
        self.host_threads
            .unwrap_or_else(odrc_infra::available_threads)
            .max(1)
    }
}

/// How one rule of the deck fared in a (possibly interrupted) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleStatus {
    /// The rule ran to completion this run.
    Completed,
    /// The rule was restored from a checkpoint journal without
    /// re-checking.
    Resumed,
    /// The run was cancelled before the rule finished; it contributed
    /// **no** violations (partial results are discarded so a resumed
    /// run stays byte-identical to an uninterrupted one).
    Interrupted,
}

impl std::fmt::Display for RuleStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RuleStatus::Completed => "completed",
            RuleStatus::Resumed => "resumed",
            RuleStatus::Interrupted => "interrupted",
        })
    }
}

/// Work accounting for a check run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Checks actually executed: one executor record of a spacing rule
    /// (none in a template the persistent cache answered), one polygon
    /// of a placed cell for an intra-polygon rule (one per placed
    /// instance with `pruning` off; none for a cell the persistent cache
    /// answered), one inner shape of a pair rule. Equal in both modes.
    pub checks_computed: usize,
    /// Checks answered from the hierarchy memo or the persistent cache
    /// instead of running (§IV-C); equal in both modes.
    pub checks_reused: usize,
    /// Candidate object pairs of the spacing rules' row packs (0 with
    /// `pruning` off); equal in both modes.
    pub candidate_pairs: usize,
    /// Active-list comparisons the row scans made to find
    /// `candidate_pairs` (the pairs plus the x-overlapping object pairs
    /// that were disjoint in y); equal in both modes.
    pub pairs_scanned: u64,
    /// Rows produced by the adaptive partition, summed over rules.
    pub rows: usize,
    /// Device re-attempts after transient faults (fresh-stream retries).
    pub device_retries: usize,
    /// Launches (a spacing rule's, or a map) recomputed on the host after the device gave up.
    pub device_fallbacks: usize,
    /// Full layer scenes built this run (windowed delta scenes are not
    /// counted — they are rule-specific by construction).
    pub scenes_built: usize,
    /// Scene requests answered by the per-run memo ([`crate::plan`]).
    pub scenes_reused: usize,
    /// Children (references + polygons) of the frames visited by pass 1
    /// of scene building (the top cell's alone on a one-level design),
    /// once per layer enumeration — per scene in-core, per rule and
    /// layer when sharded.
    /// Never a function of `host_threads`, the budget or the shard size.
    pub scene_objects_scanned: u64,
    /// Host→device uploads skipped because the data was already
    /// device-resident (the per-run buffer cache; emit launches included). A device retry
    /// re-acquires through the same cache and counts here too; only
    /// faulted runs retry, so a fault-free run's count is unaffected.
    pub uploads_elided: usize,
    /// Bytes actually moved host→device through the shared
    /// upload path (shallow sizes at the upload call sites), including
    /// a retry's repair of a failed upload (faulted runs only).
    pub bytes_uploaded: u64,
    /// Edges the row pack placed in the cell templates a rule misses and in partition rows —
    /// per rule, but rows once per shared row set in parallel mode. A function of layout,
    /// deck, cache, mode, `pruning` and `partition` only — never of `host_threads`, the
    /// device or a fault seed.
    pub edges_packed: u64,
    /// `(inner shape, outer object)` candidates the pair rules' row join
    /// found, summed over rules. A function of the input and the options
    /// only, equal in both modes.
    pub join_candidates: u64,
    /// Outer objects the pair rules' row join examined to find them
    /// (`join_candidates` plus the wasted scans).
    pub join_scanned: u64,
    /// Task indices handed to the host executor. A function of the
    /// input and the options only: every host phase goes through the
    /// executor at every thread count (a one-thread executor runs its
    /// tasks inline), no fan-out sizes itself by the thread count, and
    /// how many workers shared the tasks — or in what blocks they
    /// claimed them — never changes the count.
    pub host_tasks: u64,
    /// Pool workers that joined the host executor's fan-outs
    /// (scheduling telemetry: it varies with how busy the pool was;
    /// the name predates the pool).
    pub host_steals: u64,
    /// Stream commands that rode a fused batch dispatch instead of an
    /// individual submit (device-counter delta over this run — full
    /// check or delta re-check).
    pub launches_fused: u64,
    /// Pool workers that joined this run's kernel launches
    /// (device-counter delta over this run; scheduling telemetry).
    pub worker_wakeups: u64,
    /// Rules that ran to completion this run.
    pub rules_completed: usize,
    /// Rules restored from a checkpoint journal instead of re-running.
    pub rules_resumed: usize,
    /// Rules the run was cancelled out of (they contributed nothing).
    pub rules_interrupted: usize,
    /// `(rule, shard)` units checked by the out-of-core path this run.
    pub shards_checked: usize,
    /// Shard scenes built (cache misses of the shard pool).
    pub shards_built: usize,
    /// Resident shard scenes evicted LRU-first to respect the memory
    /// budget.
    pub shards_evicted: usize,
    /// `(rule, shard)` units restored from the checkpoint journal
    /// instead of re-checked.
    pub shards_resumed: usize,
    /// Shard loads degraded to build-check-drop (oversized for the
    /// budget, or a seeded allocation failure) instead of aborting.
    pub shards_degraded: usize,
}

/// How far a counter of [`EngineStats`] is a function of the input
/// alone. Each class is a contract the equivalence suites and the
/// `pipeline --gate` check hold the engine to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterClass {
    /// Equal in both modes and at every thread count.
    Shared,
    /// Equal at every host-thread count, every device size and on every
    /// repeat of one mode (it may differ between the modes).
    Exact,
    /// Scheduling telemetry: it moves with how busy the pool was.
    Telemetry,
}

/// One counter of [`EngineStats`]: its field name (also its
/// `--stats-json` key), its [`CounterClass`] and its reader.
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    pub name: &'static str,
    pub class: CounterClass,
    pub get: fn(&EngineStats) -> u64,
}

/// One [`Counter`] per listed field, named after the field.
macro_rules! counters {
    ($($class:ident $field:ident,)*) => {
        &[$(Counter {
            name: stringify!($field),
            class: CounterClass::$class,
            get: |s| s.$field as u64,
        },)*]
    };
}

impl EngineStats {
    /// Every counter, in declaration order: the one list behind
    /// `--stats-json`, the served `done` frame, the CLI summary, the
    /// pipeline bench and its gate, and the equivalence suites.
    pub const COUNTERS: &'static [Counter] = counters![
        Shared checks_computed,
        Shared checks_reused,
        Shared candidate_pairs,
        Shared pairs_scanned,
        Shared rows,
        Exact device_retries,
        Exact device_fallbacks,
        Exact scenes_built,
        Exact scenes_reused,
        Exact scene_objects_scanned,
        Exact uploads_elided,
        Exact bytes_uploaded,
        Exact edges_packed,
        Shared join_candidates,
        Shared join_scanned,
        Exact host_tasks,
        Telemetry host_steals,
        Exact launches_fused,
        Telemetry worker_wakeups,
        Exact rules_completed,
        Exact rules_resumed,
        Exact rules_interrupted,
        Exact shards_checked,
        Exact shards_built,
        Exact shards_evicted,
        Exact shards_resumed,
        Exact shards_degraded,
    ];

    /// `true` if any device work was retried or recomputed on the host
    /// — the run completed, but not entirely on the fast path.
    pub fn degraded(&self) -> bool {
        self.device_retries > 0 || self.device_fallbacks > 0
    }

    /// `(name, value)` of each counter whose class `keep` accepts, in
    /// table order: the work vector a suite or the gate compares.
    pub fn counters(&self, keep: impl Fn(CounterClass) -> bool) -> Vec<(&'static str, u64)> {
        Self::COUNTERS
            .iter()
            .filter(|c| keep(c.class))
            .map(|c| (c.name, (c.get)(self)))
            .collect()
    }
}

/// The result of [`Engine::check`].
#[derive(Debug)]
pub struct CheckReport {
    /// All violations, canonicalized (sorted, deduplicated).
    pub violations: Vec<Violation>,
    /// Wall-clock per pipeline phase (drives the Fig. 4 breakdown).
    pub profile: Profiler,
    /// Work accounting.
    pub stats: EngineStats,
    /// `Some(reason)` when the run was cancelled (signal or deadline)
    /// before every rule finished. [`CheckReport::violations`] then
    /// covers only the rules marked [`RuleStatus::Completed`] or
    /// [`RuleStatus::Resumed`].
    pub interrupted: Option<CancelReason>,
    /// Per-rule completion status, in deck order.
    pub rule_status: Vec<(String, RuleStatus)>,
}

impl CheckReport {
    /// Violations of one rule.
    pub fn violations_of<'a>(&'a self, rule: &'a str) -> impl Iterator<Item = &'a Violation> + 'a {
        self.violations.iter().filter(move |v| v.rule == rule)
    }
}

/// A per-rule progress observer: called with the rule's name and its
/// new [`RuleStatus`] as the run finalizes (or restores) each rule.
/// Invoked from the engine's single control thread, in completion
/// order; a long-running deck streams progress instead of going dark
/// until the report. Used by `odrc serve` to push `rule` events to
/// clients while their job runs.
pub type ProgressFn = std::sync::Arc<dyn Fn(&str, RuleStatus) + Send + Sync>;

/// The OpenDRC engine.
///
/// # Examples
///
/// ```
/// use odrc::{rules::rule, Engine, RuleDeck};
/// use odrc_layoutgen::{generate_layout, tech, DesignSpec};
///
/// let layout = generate_layout(&DesignSpec::tiny(1));
/// let deck = RuleDeck::new(vec![
///     rule().layer(tech::M2).width().greater_than(tech::M2_WIDTH).named("M2.W.1"),
///     rule().layer(tech::M2).space().greater_than(tech::M2_SPACE).named("M2.S.1"),
/// ]);
/// let report = Engine::sequential().check(&layout, &deck);
/// assert!(report.violations.iter().all(|v| v.rule.starts_with("M2")));
/// ```
pub struct Engine {
    pub(crate) mode: Mode,
    pub(crate) options: EngineOptions,
    pub(crate) device: Device,
    pub(crate) cancel: Option<CancelToken>,
    pub(crate) progress: Option<ProgressFn>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("mode", &self.mode)
            .field("options", &self.options)
            .field("device", &self.device)
            .field("cancel", &self.cancel)
            .field("progress", &self.progress.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::sequential()
    }
}

impl Engine {
    /// A sequential-mode engine.
    pub fn sequential() -> Engine {
        Engine {
            mode: Mode::Sequential,
            options: EngineOptions::default(),
            device: Device::new(1),
            cancel: None,
            progress: None,
        }
    }

    /// A parallel-mode engine on a default-sized device.
    pub fn parallel() -> Engine {
        Engine::parallel_on(Device::default())
    }

    /// A parallel-mode engine on a specific device.
    pub fn parallel_on(device: Device) -> Engine {
        Engine {
            mode: Mode::Parallel,
            options: EngineOptions::default(),
            device,
            cancel: None,
            progress: None,
        }
    }

    /// Overrides the tuning options.
    #[must_use]
    pub fn with_options(mut self, options: EngineOptions) -> Engine {
        self.options = options;
        self
    }

    /// Attaches a cooperative [`CancelToken`]. While a check — full or
    /// delta, in either mode — runs, the engine polls the token at every
    /// rule boundary (and an out-of-core rule between its shards): once
    /// it trips — SIGINT/SIGTERM via
    /// [`odrc_infra::install_signal_handlers`], a wall-clock deadline, or
    /// an explicit [`CancelToken::cancel`] — the engine stops issuing new
    /// rules, collects and completes the rules already in flight (a
    /// failed device launch among them is recomputed on the host), marks
    /// unfinished rules [`RuleStatus::Interrupted`] with no violations,
    /// and returns a report with [`CheckReport::interrupted`] set.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Engine {
        self.cancel = Some(cancel);
        self
    }

    /// Installs (or with `None` clears) the cooperative cancel token in
    /// place — the long-lived-engine variant of [`Engine::with_cancel`].
    /// A server session keeps one engine across many jobs and swaps in
    /// each job's token before running it.
    pub fn set_cancel(&mut self, cancel: Option<CancelToken>) {
        self.cancel = cancel;
    }

    /// Installs (or with `None` clears) a per-rule [`ProgressFn`] in
    /// place. The callback fires on the control thread as each rule
    /// completes (or is restored from a journal), before the run's
    /// report exists.
    pub fn set_progress(&mut self, progress: Option<ProgressFn>) {
        self.progress = progress;
    }

    /// Builder form of [`Engine::set_progress`].
    #[must_use]
    pub fn with_progress(mut self, progress: ProgressFn) -> Engine {
        self.progress = Some(progress);
        self
    }

    /// The engine's mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The engine's device (meaningful in parallel mode).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Runs every rule of the deck against the layout.
    ///
    /// Both modes produce the same canonical violation set; the
    /// integration tests assert this equivalence on every generated
    /// design.
    pub fn check(&self, layout: &Layout, deck: &RuleDeck) -> CheckReport {
        self.check_impl(layout, deck, None, None)
    }

    /// [`Engine::check`] with run-level resilience hooks: an optional
    /// persistent result cache (as in [`Engine::check_with_cache`]) and
    /// an optional [`CheckpointJournal`]. With a journal, each rule's
    /// canonical violations are appended as the rule completes, and
    /// rules the journal already holds (under the same layout/deck run
    /// key) are *restored* instead of re-checked — counted in
    /// [`EngineStats::rules_resumed`]. Combined with
    /// [`Engine::with_cancel`] this is the kill/resume path: an
    /// interrupted run's journal lets the next run pick up where it
    /// stopped, with a final violation set byte-identical to an
    /// uninterrupted run.
    pub fn check_resumable(
        &self,
        layout: &Layout,
        deck: &RuleDeck,
        cache: Option<&mut ResultCache>,
        journal: Option<&mut CheckpointJournal>,
    ) -> CheckReport {
        match cache {
            Some(cache) => {
                let keys = CacheKeys::compute(layout);
                self.check_impl(layout, deck, Some((cache, &keys)), journal)
            }
            None => self.check_impl(layout, deck, None, journal),
        }
    }

    /// Like [`Engine::check`], but backed by a persistent result cache:
    /// per-cell results keyed by structural content hashes (§IV-C,
    /// rekeyed so the memo survives edits and processes). The cache is
    /// consulted and updated in place; hits count as `checks_reused`.
    pub fn check_with_cache(
        &self,
        layout: &Layout,
        deck: &RuleDeck,
        cache: &mut ResultCache,
    ) -> CheckReport {
        let keys = CacheKeys::compute(layout);
        self.check_impl(layout, deck, Some((cache, &keys)), None)
    }

    /// [`Engine::check_with_cache`] with precomputed content keys —
    /// for callers (edit sessions) that already hashed the layout.
    /// `keys` must be [`CacheKeys::compute`] of this exact `layout`.
    pub fn check_with_cache_keyed(
        &self,
        layout: &Layout,
        keys: &CacheKeys,
        deck: &RuleDeck,
        cache: &mut ResultCache,
    ) -> CheckReport {
        self.check_impl(layout, deck, Some((cache, keys)), None)
    }

    pub(crate) fn check_impl(
        &self,
        layout: &Layout,
        deck: &RuleDeck,
        cache: Option<(&mut ResultCache, &CacheKeys)>,
        journal: Option<&mut CheckpointJournal>,
    ) -> CheckReport {
        let mut profiler = Profiler::new();
        let mut stats = EngineStats::default();
        let rules = deck.rules();
        let (violations, status, interrupted);
        {
            let mut ctx = RunContext::new(layout, &self.options, &mut profiler, &mut stats);
            if let Some((cache, keys)) = cache {
                ctx = ctx.with_cache(CacheHandle { cache, keys });
            }
            let scope = self.begin_run(&ctx);
            let per_rule;
            (per_rule, status, interrupted) = self.run_rules(&mut ctx, deck, None, journal);
            violations = {
                let all: Vec<Violation> = per_rule.into_iter().flatten().collect();
                let host = std::sync::Arc::clone(&ctx.host);
                crate::violation::canonicalize_on(&host, all)
            };
            self.finish_run(&mut ctx, scope);
        }
        CheckReport {
            violations,
            profile: profiler,
            stats,
            interrupted,
            rule_status: rules.iter().map(|r| r.name.clone()).zip(status).collect(),
        }
    }

    /// Opens a run on this engine's device and `ctx`'s host executor —
    /// shared by full and delta checks; [`Engine::finish_run`] closes it.
    pub(crate) fn begin_run(&self, ctx: &RunContext<'_>) -> RunScope {
        // One set of workers: while this run is live, kernel launches
        // publish onto the host executor's pool (None when the executor
        // is serial, which keeps the device's own pool and width).
        self.device.set_host_pool(ctx.host.pool());
        // The cancellation handshake: the device births poisoned
        // streams after the token trips, so stale retries fail fast.
        self.device.set_cancel(self.cancel.clone());
        RunScope {
            fused_before: self.device.stats().launches_fused(),
            wakeups_before: self.device.stats().worker_wakeups(),
        }
    }

    /// Closes a run: attributes the executor's and the device's
    /// counters to `ctx.stats`, records the run-level profile phases,
    /// and releases the device handshakes.
    pub(crate) fn finish_run(&self, ctx: &mut RunContext<'_>, scope: RunScope) {
        ctx.stats.host_tasks += ctx.host.tasks();
        ctx.stats.host_steals += ctx.host.joins();
        let device = self.device.stats();
        ctx.stats.launches_fused += device.launches_fused().saturating_sub(scope.fused_before);
        ctx.stats.worker_wakeups += device.worker_wakeups().saturating_sub(scope.wakeups_before);
        // Wall-clock-attributed device wait: cumulative kernel-wait
        // sums pipelined waits that cover the same physical seconds
        // (and can exceed wall time); the interval union cannot.
        let wall = interval_union(std::mem::take(&mut ctx.wait_spans));
        ctx.profiler.add("device-wait-wall", wall);
        ctx.host.drain_utilization_into(ctx.profiler);
        self.device.set_host_pool(None);
        self.device.set_cancel(None);
    }

    /// The one rule loop of full and delta checks, in both modes. It
    /// restores the rules `journal` already holds for this exact
    /// (layout, deck) run, then in [`ExecutionPlan`] order skips them,
    /// polls the cancel token, issues the rule ([`Engine::issue`]) into a
    /// FIFO window, collects the oldest rule once the window is full,
    /// and finalizes it. `dirty` (a delta re-check) restricts each
    /// inter-object rule to its halo around the dirt. Returns each
    /// rule's canonical violations and status, in deck order, and the
    /// cancel reason if the run was cut short.
    ///
    /// Under [`Mode::Parallel`] the window holds one stream per rule, so
    /// independent device work overlaps across streams with
    /// synchronization deferred to each rule's collect (§IV-E, §V-C); it
    /// is bounded by the host's parallelism, past which extra live
    /// streams only add contention. A stream fault never poisons another
    /// rule: each collect recovers its own failed units and returns its
    /// rule complete. The default mode's window is one rule, so each
    /// rule is finalized (and journaled) as soon as it finishes.
    ///
    /// Cancellation stops *issuing*: rules already in flight are still
    /// collected and finalized. A rule left unfinished stays
    /// [`RuleStatus::Interrupted`] with no violations, so an
    /// interrupted+resumed run cannot diverge from an uninterrupted one.
    pub(crate) fn run_rules(
        &self,
        ctx: &mut RunContext<'_>,
        deck: &RuleDeck,
        dirty: Option<&[Rect]>,
        mut journal: Option<&mut CheckpointJournal>,
    ) -> (Vec<Vec<Violation>>, Vec<RuleStatus>, Option<CancelReason>) {
        let rules = deck.rules();
        let mut per_rule: Vec<Vec<Violation>> = vec![Vec::new(); rules.len()];
        // Every path that finishes a rule upgrades its status.
        let mut status = vec![RuleStatus::Interrupted; rules.len()];
        if let Some(j) = journal.as_deref_mut() {
            for (ri, rule) in rules.iter().enumerate() {
                if let Some(done) = rule_signature(rule).and_then(|sig| j.completed(sig)) {
                    per_rule[ri] = done.as_ref().clone();
                    status[ri] = RuleStatus::Resumed;
                    ctx.stats.rules_resumed += 1;
                    if let Some(cb) = &self.progress {
                        cb(&rule.name, RuleStatus::Resumed);
                    }
                }
            }
        }
        let plan = ctx.profiler.time("plan", || ExecutionPlan::build(deck));
        // A delta run's row sets are windowed and bypass the cache.
        if dirty.is_none() {
            for &ri in &plan.order {
                if status[ri] != RuleStatus::Resumed {
                    if let Some(key) = self.cached_row_set(&rules[ri]) {
                        *ctx.plan.consumers.entry(key).or_default() += 1;
                    }
                }
            }
        }
        let window = match self.mode {
            Mode::Sequential => 1,
            Mode::Parallel => ctx.host.threads().clamp(2, 8),
        };
        let mut interrupted = None;
        let mut inflight: VecDeque<(usize, InFlightRule)> = VecDeque::with_capacity(window);
        for &ri in &plan.order {
            if status[ri] == RuleStatus::Resumed {
                continue;
            }
            // Polling stops once a reason is latched, so a token's
            // deterministic poll budget (the kill/resume tests) is
            // consumed only while the run is still live.
            if interrupted.is_none() {
                interrupted = self.cancel.as_ref().and_then(CancelToken::cancelled);
            }
            if interrupted.is_some() {
                continue;
            }
            let rule = &rules[ri];
            let halo = dirty.and_then(|rects| delta::halo(rule, rects));
            let Some(fl) = self.issue(ctx, &mut journal, rule, halo, &mut interrupted) else {
                continue;
            };
            inflight.push_back((ri, fl));
            if inflight.len() >= window {
                let (ci, fl) = inflight.pop_front().expect("window is non-empty");
                let (buf, st) = (&mut per_rule[ci], &mut status[ci]);
                finalize_rule(ctx, &mut journal, &self.progress, &rules[ci], fl, buf, st);
            }
        }
        for (ci, fl) in inflight {
            let (buf, st) = (&mut per_rule[ci], &mut status[ci]);
            finalize_rule(ctx, &mut journal, &self.progress, &rules[ci], fl, buf, st);
        }
        for (buf, st) in per_rule.iter_mut().zip(&status) {
            if *st == RuleStatus::Interrupted {
                buf.clear();
            }
        }
        ctx.stats.rules_interrupted = status
            .iter()
            .filter(|s| **s == RuleStatus::Interrupted)
            .count();
        debug_assert!(
            interrupted.is_some() || ctx.plan.consumers.is_empty(),
            "every counted row-set consumer was issued"
        );
        (per_rule, status, interrupted)
    }

    /// The key of the cached row set `rule` acquires when issued whole
    /// ([`Engine::issue`]): a spacing rule on the device that does not
    /// shard ([`parallel::issue_rule`]).
    fn cached_row_set(&self, rule: &Rule) -> Option<RowSetKey> {
        match rule.family() {
            RuleFamily::Space { layer, spec }
                if self.mode == Mode::Parallel && !shard::sharded_rule(&self.options, rule) =>
            {
                Some(RowSetKey::new(layer, spec.min, self.options.partition))
            }
            _ => None,
        }
    }

    /// Issues one rule on the executor chosen for it: a rule checked
    /// whole (no delta `halo`) that shards runs the out-of-core shard
    /// loop, a rule with a device body enqueues its device work in the
    /// parallel mode, and every other rule runs the host body to
    /// completion. Returns `None` when the shard loop saw the token trip
    /// mid-rule: the reason is latched here, since this may have been
    /// the last rule, and the rule stays unfinished (its completed
    /// shards live in the journal, not the report).
    fn issue(
        &self,
        ctx: &mut RunContext<'_>,
        journal: &mut Option<&mut CheckpointJournal>,
        rule: &Rule,
        halo: Option<DirtyWindow<'_>>,
        interrupted: &mut Option<CancelReason>,
    ) -> Option<InFlightRule> {
        let mut done = Vec::new();
        if halo.is_none() && shard::sharded_rule(&self.options, rule) {
            let cancel = self.cancel.as_ref();
            let cut =
                shard::check_rule_sharded(ctx, &self.device, rule, journal, cancel, &mut done);
            if cut.is_some() {
                *interrupted = cut;
                return None;
            }
        } else if self.mode == Mode::Parallel && parallel::has_device_body(rule) {
            return Some(parallel::issue_rule(ctx, &self.device, rule, halo));
        } else {
            sequential::check_rule(ctx, rule, halo, &mut done);
        }
        Some(InFlightRule::Host(done))
    }
}

/// The device's process-cumulative counters at [`Engine::begin_run`];
/// the deltas over the run are what its report attributes to it.
pub(crate) struct RunScope {
    fused_before: u64,
    wakeups_before: u64,
}

/// Total covered duration of a set of (possibly overlapping) spans:
/// sort by start, merge overlaps, sum the merged lengths.
fn interval_union(mut spans: Vec<(std::time::Instant, std::time::Instant)>) -> std::time::Duration {
    spans.sort_by_key(|&(start, _)| start);
    let mut total = std::time::Duration::ZERO;
    let mut current: Option<(std::time::Instant, std::time::Instant)> = None;
    for (start, end) in spans {
        match &mut current {
            Some((_, cur_end)) if start <= *cur_end => {
                if end > *cur_end {
                    *cur_end = end;
                }
            }
            _ => {
                if let Some((s, e)) = current.take() {
                    total += e.duration_since(s);
                }
                current = Some((start, end));
            }
        }
    }
    if let Some((s, e)) = current {
        total += e.duration_since(s);
    }
    total
}

/// Collects one issued rule into its buffer and marks it completed:
/// canonicalizes the buffer in place, tallies the rule, notifies the
/// progress observer, and appends it to the checkpoint journal (if any).
/// A journal write failure disables checkpointing for the rest of the
/// run — a checkpoint is an accelerator, never a reason to abort a check.
fn finalize_rule(
    ctx: &mut RunContext<'_>,
    journal: &mut Option<&mut CheckpointJournal>,
    progress: &Option<ProgressFn>,
    rule: &Rule,
    issued: InFlightRule,
    buf: &mut Vec<Violation>,
    status: &mut RuleStatus,
) {
    parallel::collect_rule(ctx, issued, buf);
    *buf = canonicalize(std::mem::take(buf));
    *status = RuleStatus::Completed;
    ctx.stats.rules_completed += 1;
    if let Some(cb) = progress {
        cb(&rule.name, RuleStatus::Completed);
    }
    if let Some(j) = journal.as_deref_mut() {
        if let Some(sig) = rule_signature(rule) {
            if let Err(e) = j.record(&rule.name, sig, buf) {
                eprintln!(
                    "odrc: warning: checkpoint journal write failed ({e}); checkpointing disabled"
                );
                *journal = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table lists every field once: the struct holds nothing but
    /// 8-byte counters, one per entry, and no two entries share a name.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn counters_list_every_field_once() {
        let table = EngineStats::COUNTERS;
        assert_eq!(std::mem::size_of::<EngineStats>(), 8 * table.len());
        let mut names: Vec<&str> = table.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), table.len());
    }

    /// `run_rules` on a context the test keeps: the canonical report,
    /// the counters, and the row-set cache entries and consumer counts
    /// left once every rule was issued.
    fn run_kept(
        engine: &Engine,
        layout: &Layout,
        deck: &RuleDeck,
        dirty: Option<&[Rect]>,
        journal: Option<&mut CheckpointJournal>,
    ) -> (Vec<Violation>, EngineStats, usize) {
        let mut profiler = Profiler::new();
        let mut stats = EngineStats::default();
        let (per_rule, left);
        {
            let mut ctx = RunContext::new(layout, &engine.options, &mut profiler, &mut stats);
            let scope = engine.begin_run(&ctx);
            (per_rule, ..) = engine.run_rules(&mut ctx, deck, dirty, journal);
            left = ctx.plan.rows.len() + ctx.plan.consumers.len();
            engine.finish_run(&mut ctx, scope);
        }
        (canonicalize(per_rule.concat()), stats, left)
    }

    /// A row set lives until its last consumer is issued: two spacing
    /// rules sharing one `RowSetKey` (a pair rule between them in deck
    /// order) and a spacing rule on another layer, run whole, resumed
    /// past the first consumer, and as a delta run. No run leaves a
    /// cache entry behind, each reports what the default mode does, and
    /// each packs and uploads what it did when row sets lived until the
    /// end of the run (the pinned counters).
    #[test]
    fn row_sets_live_until_their_last_consumer() {
        use crate::checkpoint::RunKey;
        use crate::rules::rule;
        use odrc_layoutgen::tech::{M1, M2, V1};
        use odrc_layoutgen::{generate_layout, DesignSpec};
        let layout = generate_layout(&DesignSpec::tiny(1));
        let deck = RuleDeck::new(vec![
            rule().layer(M1).space().greater_than(24).named("M1.S.1"),
            rule()
                .layer(V1)
                .enclosed_by(M1)
                .greater_than(4)
                .named("V1.M1.EN.1"),
            rule().layer(M1).space().greater_than(23).named("M1.S.2"),
            rule().layer(M2).space().greater_than(20).named("M2.S.1"),
        ]);
        let options = EngineOptions {
            host_threads: Some(2),
            ..EngineOptions::default()
        };
        let par = || Engine::parallel_on(Device::new(2)).with_options(options.clone());
        let seq = Engine::sequential().with_options(options.clone());
        let counters = |s: &EngineStats| (s.uploads_elided, s.bytes_uploaded, s.edges_packed);

        let (reference, ..) = run_kept(&seq, &layout, &deck, None, None);
        assert!(!reference.is_empty());
        let (report, stats, left) = run_kept(&par(), &layout, &deck, None, None);
        assert_eq!(report, reference);
        assert_eq!(left, 0, "a whole run leaves no row set cached");
        assert_eq!(counters(&stats), (2, 14_316, 464));

        // A journal holding the first consumer: the resumed run counts
        // only the rules it issues.
        let dir = std::env::temp_dir().join(format!("odrc-row-set-life-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal =
            || CheckpointJournal::open_dir(&dir, RunKey::compute(&layout, &deck)).unwrap();
        let first = par().with_cancel(CancelToken::after_polls(1));
        run_kept(&first, &layout, &deck, None, Some(&mut journal()));
        let mut resumed = journal();
        assert_eq!(resumed.completed_names(), ["M1.S.1"]);
        let (report, stats, left) = run_kept(&par(), &layout, &deck, None, Some(&mut resumed));
        assert_eq!(report, reference);
        assert_eq!(left, 0, "a resumed run leaves no row set cached");
        assert_eq!(stats.rules_resumed, 1);
        assert_eq!(counters(&stats), (0, 9_604, 306));
        let _ = std::fs::remove_dir_all(&dir);

        // A delta run's windowed row sets bypass the cache.
        let dirty = [reference[0].location.inflate(100)];
        let (window_reference, ..) = run_kept(&seq, &layout, &deck, Some(&dirty), None);
        let (report, stats, left) = run_kept(&par(), &layout, &deck, Some(&dirty), None);
        assert_eq!(report, window_reference);
        assert_eq!(left, 0, "a delta run caches no row set");
        assert_eq!(counters(&stats), (0, 4_112, 128));
    }

    #[test]
    fn each_counter_reads_its_own_field() {
        let stats = EngineStats {
            rows: 7,
            host_steals: 3,
            ..EngineStats::default()
        };
        let nonzero = stats.counters(|_| true).into_iter().filter(|&(_, v)| v > 0);
        assert_eq!(
            nonzero.collect::<Vec<_>>(),
            [("rows", 7), ("host_steals", 3)]
        );
        let work = stats.counters(|class| class != CounterClass::Telemetry);
        assert!(work.iter().all(|&(name, _)| name != "host_steals"));
    }
}

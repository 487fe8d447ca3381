#!/bin/sh
# Local CI gate: formatting, lints, and the tier-1 suite (ROADMAP.md).
set -eu

cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "== one host path, one classifier, one ingest path, one scene pass 1, one process per run (no is_serial() fork, one spacing check in both modes, one rule loop, one GDSII loader, O(members) scenes)"
# A 1-thread executor runs the same code inline, so the engine keeps no
# separate single-threaded branch; and in-core, delta and sharded
# spacing all go through the one host driver, which checks the packed
# templates and rows of the parallel mode.
if grep -rn 'is_serial()' crates/*/src; then
    echo "crates/*/src must not fork on HostExecutor::is_serial()"
    exit 1
fi
# One fan-out shape: the executor uses the threads it was given (no
# learned or calibrated worker count), and row pair discovery has one
# structure, not an option.
if grep -rnE 'set_adaptive|cost_model|plan_workers|fanout_cost|PairIndex|pair_index' crates/*/src; then
    echo "the adaptive granularity model or the PairIndex option is back in crates/*/src"
    exit 1
fi
# One worker pool: host fan-outs and kernel launches publish onto
# infra::Pool. No work-stealing deques, no permit gate, no second pool
# or private width source; the host width is queried in one place.
if grep -rnE 'ThreadGate|RangeDeque|steal_back|set_host_gate|with_shared_gate|physical_parallelism' crates/*/src; then
    echo "a deleted second thread mechanism (gate, deques, private width) is back in crates/*/src"
    exit 1
fi
sites=$(grep -rn 'available_parallelism' crates/*/src | wc -l)
[ "$sites" -eq 1 ] || { echo "expected one available_parallelism call in crates/*/src, found $sites"; exit 1; }
sites=$(grep -rn 'fn pool_worker' crates/*/src | wc -l)
[ "$sites" -eq 1 ] || { echo "expected one persistent pool (fn pool_worker) in crates/*/src, found $sites"; exit 1; }
sites=$(grep -rnE 'thread::(Builder::new|spawn)' crates/xpu/src | wc -l)
[ "$sites" -eq 1 ] || { echo "expected one spawn site (the Stream worker) in crates/xpu/src, found $sites"; exit 1; }
# One launch protocol and one fallible API in xpu: map, tiles and
# scatter tiles call one launch core (the one dispatch_slices call in
# device.rs); the blocking and per-element scatter launches, the
# execution-policy module and the dead all-pairs helper stay deleted;
# and no crate but xpu calls a panicking stream op or Pending::wait
# (those wrappers are kept for benchmark/src/layers.rs only).
if grep -rnE 'launch_map_blocking|launch_scatter_blocking|try_launch_scatter\b|fn upload_shared|fn launch_scatter\b|try_wait|ExecutionPolicy|SequencedPolicy|StreamPolicy|flat_space_brute|run_spmd_thread|run_tile_guarded|finish_launch' crates/*/src; then
    echo "a deleted xpu launch shape, panicking twin or policy type is back in crates/*/src"
    exit 1
fi
calls=$(grep -c 'self\.dispatch_slices(' crates/xpu/src/device.rs)
[ "$calls" -eq 1 ] || { echo "expected one self.dispatch_slices( call (the launch core) in device.rs, found $calls"; exit 1; }
if grep -rnE --include='*.rs' '\.(alloc|upload|download|launch_map|synchronize)(::<[^>]*>)?\(|(\)\??|pending)\.wait\(\)' crates tests examples \
    | grep -v '^crates/xpu/'; then
    echo "a crate outside crates/xpu calls a panicking stream op or Pending::wait; use the try_* form"
    exit 1
fi
# All unsafe code sits in infra's pool and signal hook; every other
# library root forbids it.
if grep -rnE 'unsafe *(\{|fn|impl)' crates/*/src | grep -vE '^crates/infra/src/(host|cancel)\.rs:'; then
    echo "unsafe code outside crates/infra/src/{host,cancel}.rs"
    exit 1
fi
for root in crates/*/src/lib.rs; do
    [ "$root" = crates/infra/src/lib.rs ] && continue
    grep -q '^#!\[forbid(unsafe_code)\]' "$root" || { echo "$root does not forbid unsafe_code"; exit 1; }
done
# One recovery path: a failed device unit is recovered inside the collect
# that saw it. No deferred queue, no routed drain, no deferred finalize,
# and no retry knobs.
if grep -rnE 'RecoveryUnit|RecoveryWork|drain_recovery|recovery_pending_for|maybe_finalize|rule_indices_by_name|max_device_retries|retry_backoff_ms' crates/*/src; then
    echo "the deferred device-recovery queue or its retry options are back in crates/*/src"
    exit 1
fi
# One device body per work unit: a retry re-runs the unit's own enqueue
# code on a fresh stream, so no synchronous retry twin comes back; every
# parallel-mode upload goes through the SharedDeviceData cache
# (acquire_in, the one entry point), and width/area and enclosure/
# overlap rules share the one map launch.
if grep -rnE 'fn (row_device_records|enqueue_intra|enqueue_pairs|collect_intra|collect_pairs)\b' crates/core/src \
    || grep -n 'fn acquire(' crates/core/src/plan.rs; then
    echo "a deleted device retry twin, per-kind map unit or SharedDeviceData::acquire is back in crates/core/src"
    exit 1
fi
calls=$(grep -c 'try_upload_shared(' crates/core/src/parallel.rs || true)
[ "$calls" -eq 0 ] || { echo "expected no try_upload_shared( call in parallel.rs (uploads go through acquire_in), found $calls"; exit 1; }
calls=$(grep -c 'try_launch_map(' crates/core/src/parallel.rs)
[ "$calls" -eq 1 ] || { echo "expected one try_launch_map( call (enqueue_map) in parallel.rs, found $calls"; exit 1; }
# One spacing check in both modes: the default mode packs the parallel
# mode's templates and rows and runs the kernels' host body over them.
# The polygon-level cell and cross-object checks stay deleted, and the
# polygon spacing predicates serve only checks/ (and the baselines).
if grep -rnE 'fn (cell_internal_space|cross_space)\b' crates/core/src \
    || grep -rnE 'notch_space_violations|space_violations_between' crates/core/src | grep -v '^crates/core/src/checks/'; then
    echo "a polygon-level spacing check is back in crates/core/src outside checks/"
    exit 1
fi
# One inter-layer join: enclosure and overlap-area candidates come from
# the row join (partition::row_join_on); the banded interval-tree join
# stays deleted.
if grep -rnE 'sweep_join|join_banded|JOIN_BAND|MAX_JOIN_BANDS' crates/*/src; then
    echo "the deleted banded sweepline join is back in crates/*/src"
    exit 1
fi
# One job lifecycle in odrc serve: keyed and session jobs share one
# admission (the one submit_with_shed call) and one run body; the
# per-kind copies and the private panic stringifier stay deleted.
if grep -rnE 'fn (execute_job|execute_durable|admit_durable|panic_message)\b' crates/serve/src; then
    echo "a deleted per-kind job lifecycle or panic stringifier is back in crates/serve/src"
    exit 1
fi
calls=$(grep -c 'submit_with_shed(' crates/serve/src/server.rs)
[ "$calls" -eq 1 ] || { echo "expected one submit_with_shed( call in server.rs, found $calls"; exit 1; }
calls=$(grep -c 'row_host_records(' crates/core/src/sequential.rs)
[ "$calls" -eq 1 ] || { echo "expected one row_host_records( call (the host spacing unit) in sequential.rs, found $calls"; exit 1; }
# Ablations are not engine options: the planner, fused dispatch and the
# persistent pool are the only paths, and the journal reads one format.
if grep -rnE 'options\.(planner|fusion|launch_graph)|LaunchGraph|GraphNode|graph_replays|DispatchMode|scoped_dispatch|V2_MAGIC|upgrade_v2' crates/*/src; then
    echo "removed A/B switches (planner/fusion/launch graph/scoped dispatch/journal v2) are back in crates/*/src"
    exit 1
fi
# A rule is classified once (Rule::family in rules.rs) and dispatched
# once per mode: no synchronous *_parallel twins, no per-kind sequential
# entry points, one overlap-area closure, and no driver re-destructuring
# the pair rule kinds. The chaos kill is a Fault, not an engine option.
if grep -rnE 'check_(space_scene|intra_rule|enclosure_rule|overlap_rule)_parallel|fn run_sequential|check_(enclosure|overlap)_(rule|scenes)|chaos_kill_at_shard: ' crates/core/src; then
    echo "a deleted per-kind / per-mode check entry point is back in crates/core/src"
    exit 1
fi
# One rule loop: full, delta and out-of-core rules go through the
# engine's one issue -> collect loop, which chooses each rule's executor.
# The host body and the device issue each have one caller (the loop's
# issue), and delta.rs never forks on the mode.
nontest() { for f in "$@"; do awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ":" $0}' "$f"; done; }
for call in 'sequential::check_rule(' 'parallel::issue_rule('; do
    sites=$(nontest $(find crates/core/src -name '*.rs') | grep -cF "$call" || true)
    [ "$sites" -eq 1 ] || { echo "expected one $call call site in non-test crates/core/src, found $sites"; exit 1; }
done
if nontest crates/core/src/delta.rs | grep -E '\bMode\b|\.mode\b'; then
    echo "delta.rs forks on the engine mode; its rules go through the engine's one rule loop"
    exit 1
fi
# A run is one process: crash recovery is the (rule, shard) journal's
# --resume, so no shard-worker processes, worker slices, journal merge
# or partial-rule run state come back.
if grep -rnE 'shard_slice|whole_rule_assigned|absorb_dir|run_shard_workers|ShardRun|--shard-workers|--worker-slice' crates/*/src; then
    echo "the multi-process out-of-core mode (shard workers, worker slices, journal merge) is back in crates/*/src"
    exit 1
fi
regions=$(cat crates/core/src/*.rs | grep -c 'Region::from_polygons(\[')
[ "$regions" -eq 1 ] || { echo "expected one overlap-area closure in crates/core/src, found $regions"; exit 1; }
if grep -lE 'RuleKind::(Enclosure|OverlapArea)' crates/core/src/engine.rs crates/core/src/delta.rs \
    crates/core/src/shard.rs crates/core/src/parallel.rs crates/core/src/sequential.rs; then
    echo "only the classifier (rules.rs) may destructure the pair rule kinds"
    exit 1
fi
# Pair rules measure each inner shape straight from the scenes
# (sequential::PairsWork): no owned per-shape work list of cloned
# polygons, no separate candidate-gather fan-out, and the row join's
# hits are one CSR list, not one Vec per inner shape.
if nontest $(find crates/core/src -name '*.rs') | grep -F -e '(Polygon, Vec<Polygon>)' -e '"enclosure-gather"' \
    || grep -nF 'hits: Vec<Vec<usize>>' crates/infra/src/partition.rs \
    || grep -rnE 'fn (enclosure_work|pairs_measure|object_polygons(_in)?(_into)?)\b' crates/*/src; then
    echo "a per-shape pair work list, the enclosure-gather phase or a per-shape hit list is back"
    exit 1
fi
# One ingest path: GDSII records stream straight into LayoutBuilder.
# No second loader or record decoder, the daemon and the CLI ingest
# only through Layout::from_gds, and the library header is walked in
# one place (Reader::new).
if grep -rnE 'load_layout_streamed|out_of_core_run|struct Scanner|fn structure_at|fn decode_string' crates/*/src; then
    echo "a deleted second GDSII loader / record decoder is back in crates/*/src"
    exit 1
fi
if grep -rnE 'gdsii::read(_file)?\(|from_library\(' crates/serve/src; then
    echo "crates/serve/src must ingest GDSII through Layout::from_gds only"
    exit 1
fi
walks=$(grep -n 'RecordType::LibName' crates/gdsii/src/read.rs crates/gdsii/src/stream.rs | wc -l)
[ "$walks" -eq 1 ] || { echo "expected one library-header walk in crates/gdsii/src, found $walks"; exit 1; }
# The element grammar is decoded in one place, into a borrowed
# ElementRef: one decode site per element kind, and no owned element
# built in read.rs or stream.rs (Reader::next and read_structure own
# the borrowed decode through ElementRef::to_owned). A reference's
# instance transforms are an iterator, never a Vec per reference.
for kind in Boundary Path Sref Aref Text; do
    sites=$(nontest crates/gdsii/src/read.rs crates/gdsii/src/stream.rs | grep -c "RecordType::$kind =>" || true)
    [ "$sites" -eq 1 ] || { echo "expected one RecordType::$kind decode site in non-test crates/gdsii/src/{read,stream}.rs, found $sites"; exit 1; }
done
if nontest crates/gdsii/src/read.rs crates/gdsii/src/stream.rs \
    | grep -E 'Element::(Boundary|Path|Text|Ref)\(|(Boundary|Path|Text|Ref)Element \{'; then
    echo "crates/gdsii/src/{read,stream}.rs build an owned element; decode into ElementRef and own it with to_owned"
    exit 1
fi
# The element grammar is encoded in one place as well: Writer::element
# takes the borrowed ElementRef, one encode site per element kind, and
# write(&Library) and Layout::to_gds both stream through it.
for kind in Boundary Path Sref Aref Text; do
    sites=$(nontest crates/gdsii/src/write.rs | grep -c "record_none(RecordType::$kind)" || true)
    [ "$sites" -eq 1 ] || { echo "expected one RecordType::$kind encode site in non-test crates/gdsii/src/write.rs, found $sites"; exit 1; }
done
if nontest crates/gdsii/src/write.rs | grep -E 'Element::(Boundary|Path|Text|Ref)\b'; then
    echo "crates/gdsii/src/write.rs encodes an owned element; encode its ElementRef view"
    exit 1
fi
# A keyed job checks the session's top subtree in memory: the daemon
# builds no Library, and decodes GDSII only at open and once in the
# journal replay (Snapshot::into_layout), never on the live keyed path.
if grep -rn 'to_library(' crates/serve/src; then
    echo "crates/serve/src builds a Library; export with Layout::to_gds"
    exit 1
fi
sites=$(nontest crates/serve/src/server.rs | grep -c 'Layout::from_gds(' || true)
[ "$sites" -eq 2 ] || { echo "expected two Layout::from_gds( sites in crates/serve/src/server.rs (open, journal replay), found $sites"; exit 1; }
if sed -n '/^fn submit_keyed(/,/^}/p; /^fn check_keyed(/,/^}/p' crates/serve/src/server.rs | grep -n 'from_gds'; then
    echo "the live keyed path decodes GDSII; check the session's top subtree in memory"
    exit 1
fi
if grep -n -- '-> Result<Vec<Transform>' crates/gdsii/src/model.rs; then
    echo "crates/gdsii/src/model.rs collects instance transforms into a Vec; yield them from InstanceTransforms"
    exit 1
fi
# O(members) scenes: pass 1 of a scene build is a LayerObjects value,
# walked once per rule and layer — no per-build enumeration, no copy of
# the top cell's references, and the sharded driver enumerates in
# exactly two places (the plan, the lazy outer side of a pair rule).
if grep -rnE 'fn enumerate_protos|fn layer_object_mbrs|struct Placement' crates/*/src \
    || grep -rn 'top_placements()' crates/core/src; then
    echo "a per-build layer enumeration or the top-placement copy is back"
    exit 1
fi
walks=$(grep -c 'LayerObjects::enumerate' crates/core/src/shard.rs)
[ "$walks" -eq 2 ] || { echo "expected two LayerObjects::enumerate sites in shard.rs, found $walks"; exit 1; }
# One hierarchy walk: a layer's objects and the intra rules' instance
# table (scene::cell_instances) are both views of scene.rs's walk. The
# intra rules' separate recursive walk stays deleted. (gdsii's
# RefPlacement::instance_transforms expands one AREF's lattice; it walks
# no hierarchy.)
if grep -rn 'fn instance_transforms' crates/*/src | grep -v '^crates/gdsii/'; then
    echo "a second hierarchy walk (fn instance_transforms) is back in crates/*/src"
    exit 1
fi
walks=$(grep -c '^fn walk(' crates/core/src/scene.rs)
[ "$walks" -eq 1 ] || { echo "expected one hierarchy walk (fn walk) in scene.rs, found $walks"; exit 1; }
# One intra-polygon pipeline in both modes (sequential::IntraWork): the
# host fan-out, the device map and its fallback all run one predicate
# call, and the parallel mode keeps no per-layer polygon buffer, no
# replay of its own and no copy of the area check.
if grep -rnE 'IntraData|fn intra_data|fn emit_intra|fn intra_targets' crates/core/src; then
    echo "a second intra-polygon pipeline is back in crates/core/src"
    exit 1
fi
sites=$(grep -rn 'polygon_violations(' crates/core/src --exclude-dir=checks | wc -l)
[ "$sites" -eq 1 ] || { echo "expected one polygon_violations( call in crates/core/src outside checks/, found $sites"; exit 1; }
if grep -n 'ViolationKind::Area' crates/core/src/parallel.rs; then
    echo "parallel.rs names ViolationKind::Area: the intra predicate is copied again"
    exit 1
fi
# One spacing pipeline in both modes (sequential::SpaceWork): templates
# are resolved against the memo and the persistent cache in one place,
# and one finish replays them; the parallel mode keeps no record replay
# and its packed units no placements of their own.
if grep -rn 'fn replay_record' crates/core/src; then
    echo "parallel::replay_record is back: spacing templates replay in SpaceWork::finish"
    exit 1
fi
if grep -nE 'cache\.(get|insert)\(' crates/core/src/parallel.rs crates/core/src/plan.rs crates/core/src/shard.rs; then
    echo "a result-cache consult outside sequential.rs: templates resolve in SpaceWork::new / IntraWork::new"
    exit 1
fi
# One launch per rule phase: a row set is one segmented array of its
# partition rows, a rule packs only the templates it is missing into a
# second one, and each phase is one launch over both (recovered per
# launch). No per-row unit with uploads of its own, no per-unit job
# list, and sharded spacing passes the rule's signature to the cache.
if grep -rn 'PlannedRow' crates/core/src; then
    echo "PlannedRow is back in crates/core/src: a row set is one segmented array"
    exit 1
fi
if grep -n 'Vec<(usize, Phase1)>' crates/core/src/parallel.rs; then
    echo "parallel.rs keeps a per-unit first-phase job list again: one launch per rule phase"
    exit 1
fi
if awk '/check_space_scene_rows\(/,/\);/' crates/core/src/shard.rs | grep -nw 'None'; then
    echo "shard.rs passes no signature to check_space_scene_rows: sharded spacing ignores --cache"
    exit 1
fi

# One candidate discovery, one window formula and one pack, shared by
# both modes: the default mode's host driver and the parallel row set
# (RowSet::build) both call pack_unit, the one caller of
# row_candidate_pairs, pack_cell and pack_row, and pack_row is the one
# caller of pair_window. Candidate discovery is
# the x-sorted scan (the R-tree is an odrc-bench reference). The pack
# transforms edges (Transform::apply_edge) and never rebuilds a polygon.
sites=$(grep -rn 'rtree_overlaps(' crates/core/src | wc -l)
[ "$sites" -eq 0 ] || { echo "expected no rtree_overlaps( call in crates/core/src, found $sites"; exit 1; }
# infra holds what a run executes: the R-tree, Algorithm 1's merges and
# the pair-collecting references are odrc-bench's (the ablations'), the
# quadtree is deleted, and the interval tree is private to the sweep.
# (core/src/violation.rs has an unrelated private merge_sorted, so the
# merge module is matched by path.)
if grep -rnE 'RTree|rtree_overlaps|merge_pigeonhole|merge_cover_pigeonhole|sweep_overlap_pairs|brute_force_overlap_pairs|(odrc_infra|crate)::merge\b' \
    crates/core/src crates/infra/src; then
    echo "crates/{core,infra}/src name a reference structure that belongs to odrc-bench"
    exit 1
fi
if grep -rn 'QuadTree' crates; then
    echo "the deleted quadtree is back in crates/"
    exit 1
fi
if grep -nE '^ *pub +(use .*IntervalTree|mod +interval_tree)' crates/infra/src/lib.rs; then
    echo "crates/infra/src/lib.rs exports the interval tree again (it is private to the sweep)"
    exit 1
fi
sites=$(grep -rn 'scan_overlaps(' crates/core/src | wc -l)
[ "$sites" -eq 1 ] || { echo "expected one scan_overlaps( call site in crates/core/src, found $sites"; exit 1; }
# The product partition is the sort-scan-fill; Algorithm 1's pigeonhole
# merge is the ablation's and the tests' oracle, not its implementation.
if awk '/^#\[cfg\(test\)\]/{exit} !/^ *\/\//' crates/infra/src/partition.rs \
    | grep -n 'merge_pigeonhole'; then
    echo "partition.rs builds rows with merge_pigeonhole again (the sort-scan is the product path)"
    exit 1
fi
sites=$(grep -rn 'pair_window(' crates/core/src | grep -vc 'fn pair_window(')
[ "$sites" -eq 1 ] || { echo "expected one pair_window( call site in crates/core/src (pack_row), found $sites"; exit 1; }
for f in pack_cell pack_row; do
    sites=$(grep -rn "$f(" crates/core/src | grep -vc "fn $f(")
    [ "$sites" -eq 1 ] || { echo "expected one $f( call site in crates/core/src (pack_unit), found $sites"; exit 1; }
done
for f in crates/core/src/sequential.rs crates/core/src/plan.rs; do
    sites=$(grep -n 'pack_unit(' "$f" | grep -vc 'fn pack_unit(')
    [ "$sites" -eq 1 ] || { echo "expected one pack_unit( call site in $f (one per mode), found $sites"; exit 1; }
done
if awk '/^#\[cfg\(test\)\]/{exit} !/^ *\/\//' crates/core/src/plan.rs \
    | grep -nE 'apply_polygon|object_polygons_(in_)?into'; then
    echo "the row pack rebuilds polygons again (plan.rs must transform edges)"
    exit 1
fi

echo "== one flag table per odrc entry point, every flag under test"
# odrc's four entry points (check, diff, serve, client) each parse their
# command line from one table in odrc.rs, one row per flag, and generate
# their usage text from it. Every flag in those tables must be passed by
# a test (a quoted "--flag" in crates/*/tests or tests/, outside a //
# comment) or by a command in this script; an untested flag is deleted,
# not kept.
flags=$(grep -oE '^ +\("--[a-z-]+"' crates/serve/src/bin/odrc.rs | grep -oE -- '--[a-z-]+' | sort -u)
[ -n "$flags" ] || { echo "no flag table rows found in crates/serve/src/bin/odrc.rs"; exit 1; }
for flag in $flags; do
    grep -rhF -- "\"$flag\"" crates/*/tests tests | sed 's#//.*##' | grep -qF -- "\"$flag\"" \
        || grep -v '^ *#' ci.sh | grep -qE -- "$flag( |\$)" \
        || { echo "odrc flag $flag is named in no test and no ci.sh leg"; exit 1; }
done
# Deleted options stay deleted: the out-of-core switch and its engine
# field (--shard-rows or --memory-budget turn out-of-core mode on), the
# daemon's device worker count (a session's device is sized like the
# one-shot's) and its chaos fault count (a constant).
if grep -rnE -- '--out-of[-]core|out_of_core[:]|device[_]workers|--device[-]workers|--chaos[-]faults' crates ci.sh; then
    echo "a deleted odrc option or its field is back in crates/ or ci.sh"
    exit 1
fi

echo "== counters declared once (every counter list iterates EngineStats::COUNTERS)"
# --stats-json and the served done frame (wire.rs), the CLI summary
# (odrc.rs), and the pipeline bench's file, table and gate (pipeline.rs)
# each loop over the one table in engine.rs. A counter name quoted in
# one of them is a hand-kept list again; so is a line-scraping reader of
# BENCH_pipeline.json (the gate parses it with odrc_infra::json).
counters=$(sed -n '/pub const COUNTERS/,/\];/p' crates/core/src/engine.rs \
    | sed -n 's/^ *\(Shared\|Exact\|Telemetry\) \([a-z_]*\),$/\2/p')
echo "$counters" | grep -qx checks_computed \
    || { echo "no counter names found in EngineStats::COUNTERS (crates/core/src/engine.rs)"; exit 1; }
for name in $counters; do
    if grep -nE "\\\\?\"$name\\\\?\"" crates/serve/src/wire.rs crates/serve/src/bin/odrc.rs \
        crates/bench/src/bin/pipeline.rs; then
        echo "counter $name is named by hand outside EngineStats::COUNTERS"
        exit 1
    fi
done
if grep -nE 'fn scan_baseline|field\(line' crates/bench/src/bin/pipeline.rs; then
    echo "pipeline.rs scrapes BENCH_pipeline.json by line again"
    exit 1
fi

echo "== one test kit (the equivalence suites build decks, engines and counter masks in crates/testkit)"
# Each deck, the engine builder over the run axes and the one counter
# mask live in odrc-testkit; a suite that defines its own is a second
# copy of the matrix again.
if grep -rnE 'fn (deck|engine|engines|parallel_engine)\(|\.counters\(' \
    crates/core/tests crates/incremental/tests crates/baselines/tests tests; then
    echo "a suite defines its own deck, engine builder or counter mask instead of using odrc-testkit"
    exit 1
fi

echo "== tier-1: cargo build --release && cargo test -q"
# --no-fail-fast: without it the first red package hides every test
# binary that sorts after it.
cargo build --release
cargo test -q --no-fail-fast

echo "== infra unit tests, optimized (pool claim/panic/exhaustion timing)"
# The pool's and the executor's concurrency tests are the timing-
# sensitive ones; run them at the optimization level the product ships
# at as well.
cargo test -q --release -p odrc-infra --lib

echo "== fault-injection suite (seeded FaultPlan matrix)"
# The device fault paths and the engine's graceful-degradation
# machinery, including the 100-seed schedule matrix over the paper's
# uart and aes layouts (release mode keeps the matrix fast).
cargo test -q --release -p odrc-xpu --test faults
cargo test -q --release -p odrc --test fault_injection

echo "== parallel == sequential on a shared-layer deck (fixed fault seeds)"
# The planned concurrent parallel mode must report byte-identical
# violations to the sequential mode, with and without injected faults,
# and the scene/upload/fusion counters must show the sharing. The
# vendored proptest derives every case's seed from the test name, so
# the fault schedules exercised here are fixed run to run.
cargo test -q --release -p odrc --test plan_equivalence

echo "== host executor equivalence (thread-count matrix)"
# The pool-backed host executor must report byte-identical violations
# for every host_threads count, in both modes, and under seeded fault
# schedules.
cargo test -q --release -p odrc --test host_parallel_equivalence

echo "== core-count matrix (thread-count suites pinned to one core, then unrestricted)"
# The suites that sweep host_threads must hold whatever the host gives
# them: one core (host_threads 8 really runs 8 workers time-sliced on
# it — the executor uses what it was asked for) and all of them. Host
# tasks that launch kernels on the executor's own pool must not
# deadlock on one core either.
cargo test -q --release -p odrc --test out_of_core
if command -v taskset >/dev/null 2>&1; then
    taskset -c 0 cargo test -q --release -p odrc --test host_parallel_equivalence
    taskset -c 0 cargo test -q --release -p odrc --test out_of_core
    taskset -c 0 cargo test -q --release -p odrc-xpu --lib host_tasks_launch_kernels_on_the_shared_pool
else
    echo "taskset not found: skipping the one-core leg"
fi

echo "== perf gate (kernel-wait, sweepline, parallel vs sequential, sharded scene + host scaling vs committed baseline)"
# Re-measures the aes configurations against the committed
# BENCH_pipeline.json: fails on a regression beyond 25% (+10ms grace)
# of parallel kernel-wait or sequential sweepline, on a parallel run
# slower than 1.25x the sequential one beside it (+10ms), packing a
# different edges_packed than committed or uploading more bytes, on
# 2-thread host scaling below 0.95x of serial (noisy on a shared
# 2-core host — ROADMAP item 8; re-run if that leg alone fails), or on
# a sharded (sequential+ooc) run
# whose scene phase exceeds 4x the in-core one (+5ms), whose
# scene_objects_scanned left the committed count, or whose violations
# differ from the in-core run's, or on a peak RSS above 2x the
# committed aes peak.
# min-of-5 repeats: the gate compares minima, and 3 repeats has been
# observed to let a single noisy scheduling window trip the limit.
cargo run -q --release -p odrc-bench --bin pipeline -- --gate BENCH_pipeline.json --repeat 5

echo "== repo benchmark smoke run (benchmark/run.sh --quick)"
# Every workload of BENCHMARK.json on tiny inputs, one repetition: the
# harness checks each report against its known answers and exits
# nonzero on any failed output check.
./benchmark/run.sh --quick >/dev/null

echo "== pipeline bench smoke run"
# The pipeline benchmark on the small uart design: asserts both modes
# agree and exercises the JSON emitter.
# Runs from target/ so the committed aes/jpeg BENCH_pipeline.json
# record is not clobbered by the smoke design.
(cd target && cargo run -q --release -p odrc-bench --bin pipeline -- --designs uart --json)

echo "== host-threads smoke run"
# The same smoke deck with the host fan-out forced on: asserts both
# modes still agree with two host worker threads.
(cd target && cargo run -q --release -p odrc-bench --bin pipeline -- --designs uart --host-threads 2)

echo "== kill/resume smoke (tiny --deadline, then --resume to completion)"
# Run lifecycle end to end at the CLI level: a sub-millisecond deadline
# deterministically interrupts the run (exit 4) and leaves a loadable
# checkpoint; a --resume run finishes the check (exit 1: the generated
# layout has violations) and completes the journal; a second --resume
# then restores every signable rule and must report byte-identically.
rm -rf target/ci-resume
mkdir -p target/ci-resume
./target/release/odrc-genlayout aes target/ci-resume/aes.gds
cat > target/ci-resume/beol.rules <<'EOF'
width     layer=19 min=18   name=M1.W.1
space     layer=20 min=20   name=M2.S.1
area      layer=19 min=1400 name=M1.A.1
enclosure inner=30 outer=19 min=4 name=V1.M1.EN.1
rectilinear
EOF
status=0
./target/release/odrc target/ci-resume/aes.gds \
    --rules target/ci-resume/beol.rules --parallel \
    --deadline 0.001 --checkpoint-dir target/ci-resume/ckpt \
    >/dev/null 2>&1 || status=$?
[ "$status" -eq 4 ] || { echo "expected exit 4 from deadline run, got $status"; exit 1; }
[ -f target/ci-resume/ckpt/odrc-journal.bin ] || { echo "no checkpoint journal written"; exit 1; }
status=0
./target/release/odrc target/ci-resume/aes.gds \
    --rules target/ci-resume/beol.rules --parallel \
    --resume target/ci-resume/ckpt --report target/ci-resume/first.csv \
    >/dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from resumed run, got $status"; exit 1; }
status=0
./target/release/odrc target/ci-resume/aes.gds \
    --rules target/ci-resume/beol.rules --parallel \
    --resume target/ci-resume/ckpt --report target/ci-resume/second.csv \
    --stats-json target/ci-resume/second.json \
    >/dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from second resume, got $status"; exit 1; }
if grep -q '"rules_resumed": *0[,}]' target/ci-resume/second.json; then
    echo "second resume restored no rules from the completed journal"
    exit 1
fi
cmp target/ci-resume/first.csv target/ci-resume/second.csv \
    || { echo "resumed reports differ"; exit 1; }

echo "== device fault smoke (--parallel --fault-seed N: report == fault-free, exit 1, degradation visible)"
# Seeded device faults end to end at the CLI level: every faulted run's
# report must be byte-identical to the fault-free one, the exit code
# stays 1 (violations take precedence over degradation), and at least
# one seed must show recovery work in --stats-json.
status=0
./target/release/odrc target/ci-resume/aes.gds \
    --rules target/ci-resume/beol.rules --parallel \
    --report target/ci-resume/fault-free.csv --max-print 0 \
    >/dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from the fault-free run, got $status"; exit 1; }
recovered=0
for seed in 1 2 3 4 5; do
    status=0
    ./target/release/odrc target/ci-resume/aes.gds \
        --rules target/ci-resume/beol.rules --parallel --fault-seed "$seed" \
        --report target/ci-resume/fault-$seed.csv \
        --stats-json target/ci-resume/fault-$seed.json --max-print 0 \
        >/dev/null 2>&1 || status=$?
    [ "$status" -eq 1 ] || { echo "expected exit 1 from --fault-seed $seed, got $status"; exit 1; }
    cmp target/ci-resume/fault-free.csv target/ci-resume/fault-$seed.csv \
        || { echo "--fault-seed $seed changed the report"; exit 1; }
    retries=$(sed -n 's/.*"device_retries": *\([0-9][0-9]*\).*/\1/p' target/ci-resume/fault-$seed.json)
    fallbacks=$(sed -n 's/.*"device_fallbacks": *\([0-9][0-9]*\).*/\1/p' target/ci-resume/fault-$seed.json)
    [ -n "$retries" ] && [ -n "$fallbacks" ] \
        || { echo "--fault-seed $seed: no device_retries / device_fallbacks in --stats-json"; exit 1; }
    recovered=$((recovered + retries + fallbacks))
done
[ "$recovered" -gt 0 ] || { echo "no --fault-seed run recovered any device work"; exit 1; }

echo "== parallel row-pack smoke (two rules on one row set: report == sequential, edges_packed below the flat pack)"
# The hierarchical pack at the CLI level: two M1 spacing rules whose
# distances round to one row-set key share a single pack, the parallel
# report is byte-identical to the default mode's, and edges_packed is
# non-zero and below 4 x the layer's instantiated polygon count (a
# rectangle has 4 edges, so that product is the floor of a flat pack).
cat > target/ci-resume/m1space.rules <<'EOF'
space layer=19 min=18 name=M1.S.18
space layer=19 min=17 name=M1.S.17
EOF
status=0
./target/release/odrc target/ci-resume/aes.gds --rules target/ci-resume/m1space.rules \
    --report target/ci-resume/seq.csv --max-print 0 >/dev/null 2>&1 || status=$?
[ "$status" -le 1 ] || { echo "expected exit 0 or 1 from the sequential run, got $status"; exit 1; }
par_status=0
./target/release/odrc target/ci-resume/aes.gds --rules target/ci-resume/m1space.rules --parallel \
    --report target/ci-resume/par.csv --stats-json target/ci-resume/par.json \
    --max-print 0 >/dev/null 2>target/ci-resume/par.log || par_status=$?
[ "$par_status" -eq "$status" ] || { echo "parallel run exited $par_status, sequential $status"; exit 1; }
cmp target/ci-resume/seq.csv target/ci-resume/par.csv \
    || { echo "parallel report differs from the sequential one"; exit 1; }
packed=$(sed -n 's/.*"edges_packed": *\([0-9][0-9]*\).*/\1/p' target/ci-resume/par.json)
instantiated=$(sed -n 's/.*layer  *19: .* \([0-9][0-9]*\) instantiated.*/\1/p' target/ci-resume/par.log)
[ -n "$packed" ] && [ -n "$instantiated" ] \
    || { echo "no edges_packed in par.json or no layer-19 instantiated count on stderr"; exit 1; }
[ "$packed" -gt 0 ] && [ "$packed" -lt $((4 * instantiated)) ] \
    || { echo "edges_packed $packed is not in (0, 4 x $instantiated): the pack is flat again, or built once per rule"; exit 1; }

echo "== serve smoke (daemon, concurrent clients, shared cache tier, SIGTERM drain)"
# The multi-tenant service end to end at the CLI level: a daemon on an
# ephemeral port serves two truly concurrent uart clients (both cold),
# then a third warm client that must be fed from the shared cache tier
# the first pair populated — all three reports byte-identical — and
# finally drains cleanly on SIGTERM.
rm -rf target/ci-serve
mkdir -p target/ci-serve
./target/release/odrc-genlayout uart target/ci-serve/uart.gds
./target/release/odrc serve --addr 127.0.0.1:0 --workers 2 --host-threads 2 \
    --cache target/ci-serve/cache --port-file target/ci-serve/port &
serve_pid=$!
tries=0
while [ ! -s target/ci-serve/port ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || { echo "daemon never wrote its port file"; exit 1; }
    sleep 0.1
done
addr=$(cat target/ci-serve/port)
./target/release/odrc client target/ci-serve/uart.gds \
    --rules target/ci-resume/beol.rules --addr "$addr" \
    --report target/ci-serve/cold-a.csv >/dev/null 2>&1 &
cold_a=$!
./target/release/odrc client target/ci-serve/uart.gds \
    --rules target/ci-resume/beol.rules --addr "$addr" \
    --report target/ci-serve/cold-b.csv >/dev/null 2>&1 &
cold_b=$!
status=0; wait "$cold_a" || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from cold client a, got $status"; exit 1; }
status=0; wait "$cold_b" || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from cold client b, got $status"; exit 1; }
cmp target/ci-serve/cold-a.csv target/ci-serve/cold-b.csv \
    || { echo "concurrent clients reported different violations"; exit 1; }
status=0
./target/release/odrc client target/ci-serve/uart.gds \
    --rules target/ci-resume/beol.rules --addr "$addr" \
    --report target/ci-serve/warm.csv --stats-json target/ci-serve/warm.json \
    >/dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from warm client, got $status"; exit 1; }
cmp target/ci-serve/cold-a.csv target/ci-serve/warm.csv \
    || { echo "cache-served report differs from the cold run"; exit 1; }
if grep -q '"cache_hits_shared": *0[,}]' target/ci-serve/warm.json; then
    echo "warm client saw no shared cache hits"
    exit 1
fi
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "daemon did not drain cleanly on SIGTERM"; exit 1; }
[ -f target/ci-serve/cache/odrc-cache.bin ] \
    || { echo "drained daemon did not persist its cache tier"; exit 1; }

echo "== chaos smoke (kill -9 mid-run, restart, idempotent resubmit, rule-boundary resume)"
# Crash-safe serving end to end: a daemon armed to die at a rule
# boundary takes a keyed job and is killed mid-run; a restarted daemon
# on the same checkpoint and cache directories re-admits the job from
# its journal, resumes past the already-checkpointed rules, and the
# resubmitted key yields a report byte-identical to a one-shot run
# with the original exit code.
rm -rf target/ci-chaos
mkdir -p target/ci-chaos
status=0
./target/release/odrc target/ci-serve/uart.gds \
    --rules target/ci-resume/beol.rules --report target/ci-chaos/oneshot.csv \
    >/dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from one-shot baseline, got $status"; exit 1; }
./target/release/odrc serve --addr 127.0.0.1:0 --workers 2 --host-threads 2 \
    --cache target/ci-chaos/cache --checkpoint-dir target/ci-chaos/ckpt \
    --chaos-kill-at-rule 2 --port-file target/ci-chaos/port >/dev/null 2>&1 &
serve_pid=$!
tries=0
while [ ! -s target/ci-chaos/port ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || { echo "chaos daemon never wrote its port file"; exit 1; }
    sleep 0.1
done
addr=$(cat target/ci-chaos/port)
# The daemon aborts (SIGKILL-equivalent) at the second rule boundary;
# the client's submission fails, but the admission and two rules'
# checkpoints are already on disk.
./target/release/odrc client target/ci-serve/uart.gds \
    --rules target/ci-resume/beol.rules --addr "$addr" \
    --key ci-chaos-1 >/dev/null 2>&1 || true
wait "$serve_pid" 2>/dev/null || true
[ -f target/ci-chaos/ckpt/odrc-jobs.bin ] \
    || { echo "killed daemon left no job journal"; exit 1; }
rm -f target/ci-chaos/port
./target/release/odrc serve --addr 127.0.0.1:0 --workers 2 --host-threads 2 \
    --cache target/ci-chaos/cache --checkpoint-dir target/ci-chaos/ckpt \
    --port-file target/ci-chaos/port >/dev/null 2>&1 &
serve_pid=$!
tries=0
while [ ! -s target/ci-chaos/port ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || { echo "restarted daemon never wrote its port file"; exit 1; }
    sleep 0.1
done
addr=$(cat target/ci-chaos/port)
status=0
./target/release/odrc client target/ci-serve/uart.gds \
    --rules target/ci-resume/beol.rules --addr "$addr" \
    --key ci-chaos-1 --retries 5 --backoff-ms 100 \
    --report target/ci-chaos/resumed.csv --stats-json target/ci-chaos/resumed.json \
    >/dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from resubmitted key, got $status"; exit 1; }
cmp target/ci-chaos/oneshot.csv target/ci-chaos/resumed.csv \
    || { echo "post-crash report differs from the one-shot run"; exit 1; }
if grep -q '"rules_resumed": *0[,}]' target/ci-chaos/resumed.json; then
    echo "restarted daemon resumed no rules from the checkpoint"
    exit 1
fi
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "restarted daemon did not drain cleanly"; exit 1; }

echo "== out-of-core smoke (scaled chip, quarter-RSS budget, mid-rule kill + resume, parallel-mode peak)"
# Out-of-core checking end to end at the CLI level on a multi-million-
# polygon chip generated on demand (never checked in): the unbudgeted
# in-core run's observed peak-RSS sets a shard budget of one quarter of
# it, which must force LRU eviction; then the same budgeted check is
# chaos-killed mid-rule (the process aborts right after its 5th
# (rule, shard) unit is journaled) and a --resume run must pick up
# from the journal. Both out-of-core reports must be byte-identical to
# the in-core run, and the resumed run must re-check exactly the shards
# the journal is missing. (The budget bounds shard-scene residency;
# whole-process RSS additionally carries the layout itself, so the
# smoke asserts eviction pressure, not an absolute RSS ceiling.)
rm -rf target/ci-ooc
mkdir -p target/ci-ooc
./target/release/odrc-genlayout jpeg target/ci-ooc/chip.gds --scale 20
cat > target/ci-ooc/ooc.rules <<'EOF'
space layer=19 min=18 name=M1.S.1
space layer=19 min=36 projection=100 name=M1.S.2
space layer=20 min=20 name=M2.S.1
enclosure inner=30 outer=19 min=4 name=V1.M1.EN.1
enclosure inner=31 outer=20 min=6 name=V2.M2.EN.1
EOF
status=0
./target/release/odrc target/ci-ooc/chip.gds --rules target/ci-ooc/ooc.rules \
    --report target/ci-ooc/incore.csv --stats-json target/ci-ooc/incore.json \
    --max-print 0 >/dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from in-core run, got $status"; exit 1; }
peak=$(sed -n 's/.*"peak_rss_bytes": *\([0-9][0-9]*\).*/\1/p' target/ci-ooc/incore.json)
[ -n "$peak" ] || { echo "in-core run recorded no peak_rss_bytes"; exit 1; }
# Parallel-mode memory (ROADMAP item 9): on the paper's deck the
# in-core --parallel run writes the default run's report byte for byte
# and peaks at most 1.3x as high. The out-of-core deck above is not
# held to it: its projection rule's row set (reach 36) makes --parallel
# peak 2.8x the default run.
cat > target/ci-ooc/paper.rules <<'EOF'
width layer=19 min=18 name=M1.W.1
width layer=20 min=20 name=M2.W.1
width layer=21 min=24 name=M3.W.1
area layer=19 min=1400 name=M1.A.1
space layer=19 min=18 name=M1.S.1
space layer=20 min=20 name=M2.S.1
space layer=21 min=24 name=M3.S.1
enclosure inner=30 outer=19 min=4 name=V1.M1.EN.1
enclosure inner=30 outer=20 min=5 name=V1.M2.EN.1
enclosure inner=31 outer=20 min=5 name=V2.M2.EN.1
enclosure inner=31 outer=21 min=7 name=V2.M3.EN.1
rectilinear name=RECT.1
EOF
for mode in default parallel; do
    flag=""
    [ "$mode" = parallel ] && flag="--parallel"
    status=0
    ./target/release/odrc target/ci-ooc/chip.gds --rules target/ci-ooc/paper.rules $flag \
        --report "target/ci-ooc/paper-$mode.csv" --stats-json "target/ci-ooc/paper-$mode.json" \
        --max-print 0 >/dev/null 2>&1 || status=$?
    [ "$status" -eq 1 ] || { echo "expected exit 1 from the $mode paper-deck run, got $status"; exit 1; }
done
cmp target/ci-ooc/paper-default.csv target/ci-ooc/paper-parallel.csv \
    || { echo "--parallel paper-deck report differs from the default run"; exit 1; }
seq_peak=$(sed -n 's/.*"peak_rss_bytes": *\([0-9][0-9]*\).*/\1/p' target/ci-ooc/paper-default.json)
par_peak=$(sed -n 's/.*"peak_rss_bytes": *\([0-9][0-9]*\).*/\1/p' target/ci-ooc/paper-parallel.json)
[ -n "$seq_peak" ] && [ -n "$par_peak" ] || { echo "a paper-deck run recorded no peak_rss_bytes"; exit 1; }
echo "paper-deck peak RSS: default $seq_peak bytes, --parallel $par_peak bytes"
[ $((10 * par_peak)) -le $((13 * seq_peak)) ] \
    || { echo "--parallel peaked at $par_peak bytes, over 1.3x the default run's $seq_peak"; exit 1; }
budget=$((peak / 4))
status=0
./target/release/odrc target/ci-ooc/chip.gds --rules target/ci-ooc/ooc.rules \
    --memory-budget "$budget" \
    --report target/ci-ooc/budgeted.csv --stats-json target/ci-ooc/budgeted.json \
    --max-print 0 >/dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from budgeted run, got $status"; exit 1; }
if grep -q '"shards_evicted": *0[,}]' target/ci-ooc/budgeted.json; then
    echo "quarter-RSS budget ($budget bytes) forced no shard eviction"
    exit 1
fi
cmp target/ci-ooc/incore.csv target/ci-ooc/budgeted.csv \
    || { echo "budgeted report differs from the in-core run"; exit 1; }
# Shards are assembled from member lists: the budgeted run walks the top
# cell once per plan and outer layer (7 on this deck, against 4 in-core
# scenes), not once per shard build.
count() { sed -n "s/.*\"$2\": *\([0-9][0-9]*\).*/\1/p" "$1"; }
incore_scanned=$(count target/ci-ooc/incore.json scene_objects_scanned)
budgeted_scanned=$(count target/ci-ooc/budgeted.json scene_objects_scanned)
[ -n "$incore_scanned" ] && [ -n "$budgeted_scanned" ] \
    || { echo "a run recorded no scene_objects_scanned"; exit 1; }
[ "$budgeted_scanned" -le $((2 * incore_scanned)) ] \
    || { echo "budgeted run scanned $budgeted_scanned top-cell children, in-core $incore_scanned: shard builds re-walk the layer"; exit 1; }
status=0
./target/release/odrc target/ci-ooc/chip.gds --rules target/ci-ooc/ooc.rules \
    --memory-budget "$budget" --checkpoint-dir target/ci-ooc/ck --chaos-kill-at-shard 5 \
    --max-print 0 >/dev/null 2>&1 || status=$?
# The kill is an abort(): a signal ends the process (shell status 128 + N).
[ "$status" -gt 128 ] || { echo "expected the chaos kill to abort the budgeted run, got $status"; exit 1; }
status=0
./target/release/odrc target/ci-ooc/chip.gds --rules target/ci-ooc/ooc.rules \
    --memory-budget "$budget" --resume target/ci-ooc/ck \
    --report target/ci-ooc/resumed.csv --stats-json target/ci-ooc/resumed.json \
    --max-print 0 >/dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from the resumed run, got $status"; exit 1; }
cmp target/ci-ooc/incore.csv target/ci-ooc/resumed.csv \
    || { echo "post-kill resumed report differs from the in-core run"; exit 1; }
# Shard units are conserved across the kill: the resumed run restores
# the journaled shards and checks the rest, and together they are the
# uninterrupted budgeted run's shards.
resumed_shards=$(count target/ci-ooc/resumed.json shards_resumed)
checked_shards=$(count target/ci-ooc/resumed.json shards_checked)
budgeted_shards=$(count target/ci-ooc/budgeted.json shards_checked)
[ -n "$resumed_shards" ] && [ -n "$checked_shards" ] && [ -n "$budgeted_shards" ] \
    || { echo "a run recorded no shard counters"; exit 1; }
[ "$resumed_shards" -ge 1 ] || { echo "the resumed run restored no shards from the journal"; exit 1; }
[ $((checked_shards + resumed_shards)) -eq "$budgeted_shards" ] \
    || { echo "shards not conserved across the kill: $checked_shards checked + $resumed_shards resumed != $budgeted_shards"; exit 1; }

echo "== ci.sh: all green"

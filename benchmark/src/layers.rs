//! The traced pass: one in-process run of each workload's path with a
//! span around every call into a layer, plus the counters the program
//! already returns. End-to-end numbers never come from here.
//!
//! Each workload times only the layers it runs through; the others
//! read 0, which is what shows that the workloads separate the layers.

use std::time::Instant;

use odrc::scene::LayerScene;
use odrc::violation::canonicalize_on;
use odrc::{
    dirty_rects, parse_deck, rule_signature, CacheKeys, CheckReport, CheckpointJournal, Engine,
    EngineOptions, EngineStats, RuleDeck, RunKey, Violation,
};
use odrc_db::{Layout, LayoutBuilder};
use odrc_geometry::{Coord, Rect};
use odrc_incremental::{EditOp, Session};
use odrc_infra::partition::partition_rows_on;
use odrc_infra::{sweep_overlaps, HostExecutor, RecordLog};
use odrc_layoutgen::tech;
use odrc_serve::json::{self, base64, obj, Value};
use odrc_serve::wire::violations_to_json;
use odrc_serve::{JobJournal, JobSpec};
use odrc_xpu::{Device, LaunchConfig};

use crate::gen::{self, Design, SplitMix64};
use crate::metrics::Outcome;
use crate::oneshot::{self, Mode, MEMORY_BUDGET};
use crate::serve;
use crate::stats::{median, percentile};
use crate::trace::{Span, Tracer};
use crate::verify::{check_truth, report_csv, EXIT_VIOLATIONS};
use crate::{proc, Ctx};

/// The one-rule decks timed on their own, as the paper's tables do:
/// `(rule, sequential metric, parallel metric)`.
const SINGLE_RULES: [(&str, &str, &str); 4] = [
    ("M1.W.1", "core.seq.width_s", "core.par.width_s"),
    ("M1.A.1", "core.seq.area_s", "core.par.area_s"),
    ("M1.S.1", "core.seq.space_s", "core.par.space_s"),
    ("V1.M1.EN.1", "core.seq.enclosure_s", "core.par.enclosure_s"),
];

fn engine_for(mode: Mode) -> Engine {
    let options = EngineOptions {
        host_threads: Some(2),
        memory_budget: (mode == Mode::Ooc).then_some(MEMORY_BUDGET),
        ..EngineOptions::default()
    };
    match mode {
        // As the CLI sizes it: one device worker per available core.
        Mode::Par => {
            let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
            Engine::parallel_on(Device::new(workers)).with_options(options)
        }
        Mode::Seq | Mode::Ooc => Engine::sequential().with_options(options),
    }
}

/// What one in-process run of a one-shot path measured.
struct Pipeline {
    total_s: f64,
    load_s: f64,
    check_s: f64,
    layout: Layout,
    report: CheckReport,
}

/// GDSII file → layout → `Engine::check` → canonical report, loaded the
/// way `mode`'s CLI path loads it; the loader's metrics go to `out`.
fn pipeline(
    tracer: &mut Tracer,
    out: &mut Outcome,
    ctx: &Ctx,
    inputs: &oneshot::Inputs,
    mode: Mode,
    engine: &Engine,
    deck: &RuleDeck,
) -> std::io::Result<Pipeline> {
    let bytes = std::fs::metadata(&inputs.gds)?.len() as f64;
    let (inner, total_s) = tracer.span("pipeline", |t| -> std::io::Result<_> {
        let mut load_s = 0.0;
        let layout = if mode == Mode::Ooc {
            let (index, secs) = t.span("gdsii.stream_index", |_| {
                odrc_gdsii::stream::index_file(&inputs.gds)
            });
            let index = index.map_err(std::io::Error::other)?;
            out.set("gdsii.stream_index_s", secs, 1);
            load_s += secs;
            let mut file = std::fs::File::open(&inputs.gds)?;
            let mut builder = LayoutBuilder::new();
            let (mut read_s, mut build_s, mut elements) = (0.0, 0.0, 0usize);
            for entry in &index.entries {
                let (structure, secs) = t.span("gdsii.stream_read", |_| {
                    odrc_gdsii::stream::read_structure(&mut file, entry)
                });
                let structure = structure.map_err(std::io::Error::other)?;
                read_s += secs;
                elements += structure.elements.len();
                let (added, secs) = t.span("db.builder", |_| builder.add_structure(&structure));
                added.map_err(std::io::Error::other)?;
                build_s += secs;
            }
            let (layout, secs) = t.span("db.builder", |_| builder.finish());
            build_s += secs;
            out.set("gdsii.stream_read_s", read_s, 1);
            out.set("db.builder_s", build_s, 1);
            out.set("gdsii.elements", elements as f64, 1);
            load_s += read_s + build_s;
            layout.map_err(std::io::Error::other)?
        } else {
            let (library, secs) = t.span("gdsii.read", |_| odrc_gdsii::read_file(&inputs.gds));
            let library = library.map_err(std::io::Error::other)?;
            out.set("gdsii.read_s", secs, 1);
            out.set("gdsii.read_mb_per_s", bytes / 1e6 / secs, 1);
            out.set("gdsii.elements", library.element_count() as f64, 1);
            load_s += secs;
            let (layout, secs) = t.span("db.from_library", |_| Layout::from_library(&library));
            out.set("db.from_library_s", secs, 1);
            load_s += secs;
            layout.map_err(std::io::Error::other)?
        };
        out.set("gdsii.bytes", bytes, 1);

        let check_name = match mode {
            Mode::Seq => "core.seq.check",
            Mode::Par => "core.par.check",
            Mode::Ooc => "core.ooc.check",
        };
        let (report, check_s) = if mode == Mode::Ooc {
            let dir = ctx.run_dir.join("traced-checkpoints");
            let _ = std::fs::remove_dir_all(&dir);
            let mut journal = CheckpointJournal::open_dir(&dir, RunKey::compute(&layout, deck))?;
            t.span(check_name, |_| {
                engine.check_resumable(&layout, deck, None, Some(&mut journal))
            })
        } else {
            t.span(check_name, |_| engine.check(&layout, deck))
        };
        Ok((layout, report, load_s, check_s))
    });
    let (layout, report, load_s, check_s) = inner?;
    Ok(Pipeline {
        total_s,
        load_s,
        check_s,
        layout,
        report,
    })
}

/// The whole-check time and the phases the program's profiler reports
/// for it.
fn record_phases(out: &mut Outcome, mode: Mode, check_s: f64, report: &CheckReport) {
    let phase = |name: &str| report.profile.phase(name).map_or(0.0, |d| d.as_secs_f64());
    match mode {
        Mode::Seq => {
            out.set("core.seq.check_s", check_s, 1);
            out.set("core.seq.phase_sweepline_s", phase("sweepline"), 1);
            out.set("core.seq.phase_edge_check_s", phase("edge-check"), 1);
            out.set(
                "core.seq.phase_enclosure_check_s",
                phase("enclosure-check"),
                1,
            );
        }
        Mode::Par => {
            out.set("core.par.check_s", check_s, 1);
            out.set("core.par.phase_pack_s", phase("pack"), 1);
            out.set("core.par.phase_kernel_wait_s", phase("kernel-wait"), 1);
            out.set("core.par.phase_scan_s", phase("scan"), 1);
            out.set("core.par.phase_sweepline_s", phase("sweepline"), 1);
            out.set(
                "core.par.phase_device_wait_wall_s",
                phase("device-wait-wall"),
                1,
            );
        }
        Mode::Ooc => out.set("core.ooc.check_s", check_s, 1),
    }
}

/// The counters the program reports about one full check.
fn record_counters(out: &mut Outcome, s: &EngineStats, violations: usize) {
    let checks = (s.checks_computed + s.checks_reused).max(1);
    for (name, value) in [
        ("core.checks_computed", s.checks_computed as f64),
        ("core.checks_reused", s.checks_reused as f64),
        ("core.reuse_ratio", s.checks_reused as f64 / checks as f64),
        ("core.candidate_pairs", s.candidate_pairs as f64),
        ("core.rows", s.rows as f64),
        ("core.scenes_built", s.scenes_built as f64),
        ("core.violations", violations as f64),
        ("core.par.bytes_uploaded", s.bytes_uploaded as f64),
        ("core.par.uploads_elided", s.uploads_elided as f64),
        ("core.par.launches_fused", s.launches_fused as f64),
        ("core.ooc.shards_checked", s.shards_checked as f64),
        ("core.ooc.shards_built", s.shards_built as f64),
        ("core.ooc.shards_evicted", s.shards_evicted as f64),
        ("core.ooc.shards_degraded", s.shards_degraded as f64),
        (
            "core.ooc.rebuild_ratio",
            s.shards_built as f64 / s.shards_checked.max(1) as f64,
        ),
        ("core.device_retries", s.device_retries as f64),
        ("core.device_fallbacks", s.device_fallbacks as f64),
        ("core.host_tasks", s.host_tasks as f64),
        ("core.host_steals", s.host_steals as f64),
        ("core.par.worker_wakeups", s.worker_wakeups as f64),
    ] {
        out.set(name, value, 1);
    }
}

fn instantiated_polygons(layout: &Layout) -> f64 {
    let stats = layout.stats();
    stats
        .per_layer
        .iter()
        .map(|l| l.instantiated_polygons)
        .sum::<usize>() as f64
}

/// Scene build, row partition, MBR sweep and executor fan-out on the M1
/// layer: the `infra` calls every mode's check is made of.
fn infra_layers(t: &mut Tracer, out: &mut Outcome, layout: &Layout, quick: bool) {
    let host = HostExecutor::new(2);
    let (scene, secs) = t.span("core.scene_build", |_| {
        LayerScene::build_on(layout, tech::M1, None, &host)
    });
    out.set("core.scene_build_s", secs, 1);
    out.set("core.scene_objects", scene.objects.len() as f64, 1);

    let expand = Coord::try_from(tech::M1_SPACE).expect("rule value fits a coordinate");
    let mbrs: Vec<Rect> = scene.objects.iter().map(|o| o.mbr).collect();
    let (rows, secs) = t.span("infra.partition", |_| {
        partition_rows_on(&mbrs, expand, &host)
    });
    out.set("infra.partition_s", secs, 1);
    out.set("infra.rows", rows.len() as f64, 1);

    let inflated: Vec<Rect> = mbrs.iter().map(|m| m.inflate(expand)).collect();
    let (pairs, secs) = t.span("infra.sweep_overlaps", |_| {
        let mut pairs = 0u64;
        sweep_overlaps(&inflated, |_, _| pairs += 1);
        pairs
    });
    out.set("infra.sweep_overlaps_s", secs, 1);
    out.set("infra.sweep_pairs", pairs as f64, 1);

    // The ×10 chip fans out about half a million executor tasks.
    let tasks = if quick { 10_000 } else { 500_000 };
    let (sum, secs) = t.span("infra.host_tasks", |_| {
        host.run("benchmark", tasks, |i| i as u64)
            .iter()
            .sum::<u64>()
    });
    std::hint::black_box(sum);
    out.set("infra.host_task_ns", secs * 1e9 / tasks as f64, tasks);
}

/// Dispatch round trip, fused batches, upload, scan and sort on the
/// software device, in isolation.
fn xpu_layers(t: &mut Tracer, out: &mut Outcome, quick: bool) {
    let scale = if quick { 16 } else { 1 };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let device = Device::new(workers);
    let stream = device.stream();
    let cell = stream.alloc::<u64>(1);

    let launches = 2000 / scale;
    let ((), secs) = t.span("xpu.launch_roundtrip", |_| {
        for _ in 0..launches {
            stream.launch_map(LaunchConfig::for_threads(1), &cell, |_, v| *v += 1);
            stream.synchronize();
        }
    });
    out.set(
        "xpu.launch_roundtrip_us",
        secs * 1e6 / launches as f64,
        launches,
    );

    let (batches, per_batch) = (20 / scale.min(20) + 1, 256);
    let ((), secs) = t.span("xpu.fused_batch", |_| {
        for _ in 0..batches {
            let mut batch = stream.batch(true);
            for _ in 0..per_batch {
                batch
                    .try_launch_map(LaunchConfig::for_threads(1), &cell, |_, v| *v += 1)
                    .expect("healthy stream accepts launches");
            }
            batch.commit();
            stream.synchronize();
        }
    });
    let ops = batches * per_batch;
    out.set("xpu.fused_batch_us_per_op", secs * 1e6 / ops as f64, ops);
    let ran = stream.download(&cell).wait()[0];
    assert_eq!(ran, (launches + ops) as u64, "every launch ran once");

    let len = (64 << 20) / scale;
    let payload: Vec<u8> = vec![7; len];
    let (buffer, secs) = t.span("xpu.h2d", |_| {
        let buffer = stream.upload(payload);
        stream.synchronize();
        buffer
    });
    assert_eq!(buffer.len(), len);
    out.set("xpu.h2d_mb_per_s", len as f64 / 1e6 / secs, 1);

    let n = 4_000_000 / scale;
    let mut rng = SplitMix64::new(0x5343_414E);
    let counts: Vec<usize> = (0..n).map(|_| rng.below(8) as usize).collect();
    let (offsets, secs) = t.span("xpu.scan", |_| {
        odrc_xpu::scan::exclusive_scan(&device, &counts)
    });
    assert_eq!(offsets[n], counts.iter().sum::<usize>());
    out.set("xpu.scan_melem_per_s", n as f64 / 1e6 / secs, n);

    let n = 2_000_000 / scale;
    let mut keys: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let ((), secs) = t.span("xpu.sort", |_| {
        odrc_xpu::sort::parallel_sort_by_key(&device, &mut keys, |&k| k)
    });
    assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    out.set("xpu.sort_melem_per_s", n as f64 / 1e6 / secs, n);
}

/// Canonicalization of a seeded shuffle of the report.
fn canonicalize_layer(t: &mut Tracer, out: &mut Outcome, report: &[Violation], seed: u64) {
    let mut shuffled = report.to_vec();
    let mut rng = SplitMix64::new(seed ^ 0x4341_4E4F);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let host = HostExecutor::new(2);
    let (canonical, secs) = t.span("core.canonicalize", |_| canonicalize_on(&host, shuffled));
    out.check(canonical == report, || {
        "canonicalizing a shuffled report gave a different report".to_owned()
    });
    out.set("core.canonicalize_s", secs, 1);
}

fn deck_parse_layer(t: &mut Tracer, out: &mut Outcome, text: &str) {
    let parses = 200;
    let ((), secs) = t.span("core.deck_parse", |_| {
        for _ in 0..parses {
            std::hint::black_box(parse_deck(std::hint::black_box(text)).expect("deck parses"));
        }
    });
    out.set("core.deck_parse_us", secs * 1e6 / parses as f64, parses);
}

/// Append + fsync cost of the record log, bare and under the
/// checkpoint journal's per-rule records.
fn journal_layers(
    t: &mut Tracer,
    out: &mut Outcome,
    ctx: &Ctx,
    layout: &Layout,
    deck: &RuleDeck,
    report: &CheckReport,
) -> std::io::Result<()> {
    let path = ctx.run_dir.join("recordlog.bin");
    let _ = std::fs::remove_file(&path);
    let (mut log, _) = RecordLog::open(&path, b"ODRCBNCH")?;
    let payload = vec![0x5a_u8; 1024];
    let appends = if ctx.quick { 20 } else { 200 };
    let (result, secs) = t.span("infra.recordlog_append", |_| {
        (0..appends).try_for_each(|_| log.append(&payload))
    });
    result?;
    out.set(
        "infra.recordlog_append_us",
        secs * 1e6 / appends as f64,
        appends,
    );

    let dir = ctx.run_dir.join("record-checkpoints");
    let _ = std::fs::remove_dir_all(&dir);
    let mut journal = CheckpointJournal::open_dir(&dir, RunKey::compute(layout, deck))?;
    let mut samples = Vec::new();
    for rule in deck.rules() {
        let Some(sig) = rule_signature(rule) else {
            continue;
        };
        let found: Vec<Violation> = report.violations_of(&rule.name).cloned().collect();
        let (result, secs) = t.span("core.checkpoint_record", |_| {
            journal.record(&rule.name, sig, &found)
        });
        result?;
        samples.push(secs * 1e3);
    }
    out.set("core.checkpoint_record_ms", median(&samples), samples.len());
    Ok(())
}

/// `odrc` on a tiny design: what a process costs before any checking.
fn spawn_floor(t: &mut Tracer, out: &mut Outcome, ctx: &Ctx) -> std::io::Result<()> {
    let tiny = gen::design(Design::Tiny, 1);
    let gds = ctx.run_dir.join("floor.gds");
    odrc_gdsii::write_file(&tiny.library, &gds).map_err(std::io::Error::other)?;
    let deck = ctx.run_dir.join("floor.rules");
    std::fs::write(&deck, gen::deck_text())?;
    let (gds, deck) = (gds.to_string_lossy(), deck.to_string_lossy());
    let mut samples = Vec::new();
    for _ in 0..5 {
        let (exit, _) = t.span("cli.spawn_floor", |_| {
            proc::run(&ctx.odrc, &[&*gds, "--rules", &*deck, "--max-print", "0"])
        });
        let exit = exit?;
        out.check(exit.code == Some(EXIT_VIOLATIONS), || {
            format!("odrc on the tiny design exited {:?}", exit.code)
        });
        samples.push(exit.wall_s * 1e3);
    }
    out.set("cli.spawn_floor_ms", median(&samples), samples.len());
    Ok(())
}

/// Traced pass of `oneshot_seq`, `oneshot_par` or `ooc_budget`.
pub fn oneshot_pass(ctx: &Ctx, mode: Mode) -> std::io::Result<(Outcome, Vec<Span>)> {
    let mut out = Outcome::default();
    let inputs = oneshot::make_inputs(ctx)?;
    let deck_text = gen::deck_text();
    let deck = parse_deck(&deck_text).expect("benchmark deck parses");
    let engine = engine_for(mode);

    // Untraced first (it also fills the page cache), then traced: the
    // difference is what recording costs.
    let mut off = Tracer::new(mode.workload(), false);
    let untraced = pipeline(&mut off, &mut out, ctx, &inputs, mode, &engine, &deck)?;
    let mut tracer = Tracer::new(mode.workload(), true);
    let t = &mut tracer;
    let traced = pipeline(t, &mut out, ctx, &inputs, mode, &engine, &deck)?;
    out.set(
        "trace.overhead_share",
        (traced.total_s - untraced.total_s) / untraced.total_s,
        1,
    );
    out.check(
        traced.report.violations == untraced.report.violations,
        || "two in-process checks of one layout disagree".to_owned(),
    );
    record_phases(&mut out, mode, traced.check_s, &traced.report);
    record_counters(
        &mut out,
        &traced.report.stats,
        traced.report.violations.len(),
    );
    out.set(
        "db.polys_instantiated",
        instantiated_polygons(&traced.layout),
        1,
    );

    canonicalize_layer(t, &mut out, &traced.report.violations, ctx.seed);
    deck_parse_layer(t, &mut out, &deck_text);
    infra_layers(t, &mut out, &traced.layout, ctx.quick);
    match mode {
        Mode::Seq | Mode::Par => {
            for (rule, seq_metric, par_metric) in SINGLE_RULES {
                let single = parse_deck(&gen::one_rule_deck(rule)).expect("one-rule deck parses");
                let metric = if mode == Mode::Seq {
                    seq_metric
                } else {
                    par_metric
                };
                let (report, secs) = t.span(metric.trim_end_matches("_s"), |_| {
                    engine.check(&traced.layout, &single)
                });
                let want = traced.report.violations_of(rule).count();
                out.check(report.violations.len() == want, || {
                    format!(
                        "{rule} alone reports {}, in the deck {want}",
                        report.violations.len()
                    )
                });
                out.set(metric, secs, 1);
            }
            if mode == Mode::Par {
                xpu_layers(t, &mut out, ctx.quick);
            }
        }
        Mode::Ooc => journal_layers(t, &mut out, ctx, &traced.layout, &deck, &traced.report)?,
    }

    // The process itself, once: its report must be the in-process one,
    // and what it spends outside load and check is the CLI's own time.
    spawn_floor(t, &mut out, ctx)?;
    let (child, _) = t.span("cli.oneshot", |_| oneshot::run_once(ctx, &inputs, mode));
    let child = child?;
    child.check(&mut out, "traced one-shot run");
    let csv = report_csv(&traced.report.violations);
    out.check(child.report == csv.as_bytes(), || {
        "odrc wrote another report than the library".to_owned()
    });
    check_truth(&mut out, mode.workload(), &csv, &inputs.truth);
    out.set(
        "cli.other_s",
        child.exit.wall_s - traced.load_s - traced.check_s,
        1,
    );
    Ok((out, tracer.into_spans()))
}

/// Megabytes per second of `f` over `bytes`, median of five.
fn throughput(t: &mut Tracer, name: &str, bytes: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let ((), secs) = t.span(name, |_| f());
            bytes as f64 / 1e6 / secs
        })
        .collect();
    median(&samples)
}

/// The in-process edit → re-check loop of one session; returns its
/// wall time, the per-edit times in milliseconds, and the counters of
/// its first (full) check.
fn session_loop(
    t: &mut Tracer,
    out: &mut Outcome,
    inputs: &serve::Inputs,
    deck: &RuleDeck,
) -> (f64, Vec<f64>, EngineStats) {
    let started = Instant::now();
    let mut session = Session::new(inputs.layout.clone(), serve::bench_engine(), deck.clone());
    let (first, _) = t.span("incremental.session_full", |_| session.check());
    out.check(
        first.full_run && report_csv(&first.violations) == inputs.expected[0],
        || "the session's first check differs from the from-scratch check".to_owned(),
    );
    let mut samples = Vec::new();
    for (k, op) in inputs.edits.iter().enumerate() {
        let (report, secs) = t.span("incremental.session_check", |_| {
            session.apply(op.clone()).expect("generated edit applies");
            session.check()
        });
        out.check(
            !report.full_run && report_csv(&report.violations) == inputs.expected[k + 1],
            || format!("session re-check {k} differs from the from-scratch check"),
        );
        samples.push(secs * 1e3);
    }
    (started.elapsed().as_secs_f64(), samples, first.stats)
}

/// What `open` does with its frame: JSON parse, base64 decode, GDSII
/// parse, layout build. Returns the layout the server would hold.
fn open_layers(
    t: &mut Tracer,
    out: &mut Outcome,
    inputs: &serve::Inputs,
) -> std::io::Result<Layout> {
    let encoded = base64::encode(&inputs.gds);
    let frame = obj([
        ("verb", Value::from("open")),
        ("gds_b64", Value::from(encoded.clone())),
        ("rules", Value::from(inputs.deck.as_str())),
        ("mode", Value::from("sequential")),
    ])
    .to_json();
    let rate = throughput(t, "serve.json_parse", frame.len(), || {
        std::hint::black_box(json::parse(&frame).expect("frame parses"));
    });
    out.set("serve.json_parse_mb_per_s", rate, 5);
    let rate = throughput(t, "serve.base64_decode", encoded.len(), || {
        std::hint::black_box(base64::decode(&encoded).expect("payload decodes"));
    });
    out.set("serve.base64_decode_mb_per_s", rate, 5);

    let (library, secs) = t.span("gdsii.read", |_| odrc_gdsii::read(&inputs.gds));
    let library = library.map_err(std::io::Error::other)?;
    out.set("gdsii.read_s", secs, 1);
    out.set(
        "gdsii.read_mb_per_s",
        inputs.gds.len() as f64 / 1e6 / secs,
        1,
    );
    out.set("gdsii.bytes", inputs.gds.len() as f64, 1);
    out.set("gdsii.elements", library.element_count() as f64, 1);
    let (layout, secs) = t.span("db.from_library", |_| Layout::from_library(&library));
    let layout = layout.map_err(std::io::Error::other)?;
    out.set("db.from_library_s", secs, 1);
    out.set("db.polys_instantiated", instantiated_polygons(&layout), 1);
    Ok(layout)
}

/// What a keyed (durable) full job adds: the session is exported to
/// GDSII and journaled before the ack, the result frame after.
fn durable_layers(
    t: &mut Tracer,
    out: &mut Outcome,
    ctx: &Ctx,
    inputs: &serve::Inputs,
    layout: &Layout,
    violations: &[Violation],
) -> std::io::Result<()> {
    let (exported, secs) = t.span("gdsii.write", |_| {
        odrc_gdsii::write(&layout.to_library("session"))
    });
    let exported = exported.map_err(std::io::Error::other)?;
    out.set("gdsii.write_s", secs, 1);
    let (wire, secs) = t.span("serve.violations_encode", |_| {
        violations_to_json(violations).to_json()
    });
    out.set("serve.violations_encode_s", secs, 1);
    out.set("serve.wire_bytes_per_full_job", wire.len() as f64, 1);

    let dir = ctx.run_dir.join("traced-job-journal");
    let _ = std::fs::remove_dir_all(&dir);
    let (mut journal, _) = JobJournal::open_dir(&dir)?;
    let done_frame = obj([
        ("event", Value::from("done")),
        ("violations", json::parse(&wire).expect("own JSON parses")),
    ])
    .to_json();
    let (mut admit_ms, mut done_ms) = (Vec::new(), Vec::new());
    for n in 0..5 {
        let spec = JobSpec {
            key: format!("traced-{n}"),
            gds: exported.clone(),
            rules: inputs.deck.clone(),
            mode: "sequential".to_owned(),
            priority: 0,
            deadline_ms: None,
        };
        let (result, secs) = t.span("serve.journal_admit", |_| journal.record_admit(&spec, None));
        result?;
        admit_ms.push(secs * 1e3);
        let (result, secs) = t.span("serve.journal_done", |_| {
            journal.record_done(&spec.key, &done_frame, None)
        });
        result?;
        done_ms.push(secs * 1e3);
    }
    out.set("serve.journal_admit_ms", median(&admit_ms), admit_ms.len());
    out.set("serve.journal_done_ms", median(&done_ms), done_ms.len());
    Ok(())
}

/// What an edit → re-check costs below the session: content hashes,
/// the edit itself, the dirty-rect diff, the windowed re-check.
fn delta_layers(
    t: &mut Tracer,
    out: &mut Outcome,
    inputs: &serve::Inputs,
    deck: &RuleDeck,
    layout: &Layout,
    violations: Vec<Violation>,
) {
    let ((), secs) = t.span("db.content_hash", |_| {
        std::hint::black_box(CacheKeys::compute(layout));
    });
    out.set("db.content_hash_s", secs, 1);

    let engine = serve::bench_engine();
    let (mut apply_us, mut dirty_ms, mut delta_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut before = layout.clone();
    let mut before_violations = violations;
    let mut edited = layout.clone();
    for (k, op) in inputs.edits.iter().enumerate() {
        let EditOp::ReplacePolygon {
            cell,
            index,
            polygon,
        } = op.clone()
        else {
            unreachable!("session edits replace polygons");
        };
        let (applied, secs) = t.span("db.edit_apply", |_| {
            edited.replace_polygon(cell, index, polygon)
        });
        applied.expect("generated edit applies");
        apply_us.push(secs * 1e6);
        let (dirty, secs) = t.span("core.dirty_rects", |_| dirty_rects(&before, &edited));
        out.check(!dirty.is_empty(), || format!("edit {k} left no dirty rect"));
        dirty_ms.push(secs * 1e3);
        let (delta, secs) = t.span("core.delta_check", |_| {
            engine.check_delta(&before, &before_violations, &edited, deck)
        });
        out.check(
            report_csv(&delta.violations) == inputs.expected[k + 1],
            || format!("delta check {k} differs from the from-scratch check"),
        );
        delta_ms.push(secs * 1e3);
        before = edited.clone();
        before_violations = delta.violations;
    }
    out.set("db.edit_apply_us", median(&apply_us), apply_us.len());
    out.set("core.dirty_rects_ms", median(&dirty_ms), dirty_ms.len());
    out.set("core.delta_check_ms", median(&delta_ms), delta_ms.len());
}

/// The same sessions through a live daemon, a fixed count, with spans
/// around the client calls and the server's own counters at the end.
fn daemon_layers(
    t: &mut Tracer,
    out: &mut Outcome,
    ctx: &Ctx,
    inputs: &serve::Inputs,
) -> std::io::Result<()> {
    let daemon = serve::Daemon::start(ctx)?;
    let mut warm = Tracer::new("serve_sessions", false);
    serve::drive(&daemon.addr, inputs, 1, "warm", &mut warm, out);
    let sessions = if ctx.quick { 1 } else { 5 };
    let ((lat, _), _) = t.span("serve.clients", |t| {
        serve::drive(&daemon.addr, inputs, sessions, "traced", t, out)
    });
    let stats = odrc_serve::Client::connect(&daemon.addr).and_then(|mut c| c.stats());
    let exit = daemon.stop()?;
    out.check(exit.code == Some(0), || {
        format!("odrc serve exited {:?}", exit.code)
    });
    match stats {
        Ok(stats) => {
            let field = |key: &str| stats.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            out.set("serve.cache_hits_shared", field("cache_hits_shared"), 1);
            out.set("serve.jobs_admitted", field("jobs_admitted"), 1);
            out.set("serve.jobs_rejected", field("jobs_rejected"), 1);
            out.set("serve.jobs_shed", field("jobs_shed"), 1);
        }
        Err(e) => out.check(false, || format!("stats verb failed: {e}")),
    }
    lat.require_every_kind(out)?;
    for (name, samples) in [
        ("serve.open_p50_ms", &lat.open_ms),
        ("serve.full_job_p50_ms", &lat.full_ms),
        ("serve.prime_job_p50_ms", &lat.prime_ms),
        ("serve.delta_job_p50_ms", &lat.delta_ms),
        ("serve.queue_wait_p50_ms", &lat.queue_wait_ms),
    ] {
        out.set(name, median(samples), samples.len());
    }
    let n = lat.delta_ms.len();
    out.set("serve.delta_job_p90_ms", percentile(&lat.delta_ms, 90.0), n);
    Ok(())
}

/// Traced pass of `serve_sessions`: the layers under a served session
/// in process, then a short traced run against a live daemon.
pub fn serve_pass(ctx: &Ctx) -> std::io::Result<(Outcome, Vec<Span>)> {
    let mut out = Outcome::default();
    let inputs = serve::make_inputs(ctx);
    let deck = parse_deck(&inputs.deck).expect("benchmark deck parses");

    let mut off = Tracer::new("serve_sessions", false);
    let (untraced_s, _, _) = session_loop(&mut off, &mut out, &inputs, &deck);
    let mut tracer = Tracer::new("serve_sessions", true);
    let t = &mut tracer;
    let (traced_s, session_ms, first) = session_loop(t, &mut out, &inputs, &deck);
    let overhead = (traced_s - untraced_s) / untraced_s;
    out.set("trace.overhead_share", overhead, 1);
    let n = session_ms.len();
    out.set("incremental.session_check_ms", median(&session_ms), n);
    let csv = &inputs.expected[0];
    record_counters(&mut out, &first, csv.lines().count() - 1);
    check_truth(&mut out, "serve_sessions", csv, &inputs.truth);

    let layout = open_layers(t, &mut out, &inputs)?;
    deck_parse_layer(t, &mut out, &inputs.deck);
    infra_layers(t, &mut out, &layout, ctx.quick);
    let violations = serve::bench_engine().check(&layout, &deck).violations;
    durable_layers(t, &mut out, ctx, &inputs, &layout, &violations)?;
    delta_layers(t, &mut out, &inputs, &deck, &layout, violations);
    daemon_layers(t, &mut out, ctx, &inputs)?;
    Ok((out, tracer.into_spans()))
}

//! `warm-serve`: a long-lived session in the shipping telemetry
//! configuration, answering a closed loop of requests.
//!
//! One client answers a closed loop of requests with one
//! `Session::with_telemetry` over a `MetricsRegistry` at 1% sampling.
//! Requests draw with Zipf-skewed popularity from a fixed pool of
//! (schema, query) pairs; the feas memo's entry ceiling sits below the
//! pool, so hits interleave with misses, inserts and evictions. Some pairs
//! take the general search, which the session does not memoize. Every
//! [`EXPORT_EVERY`] requests the client runs one exporter step. After the
//! timed phase, fresh sessions restart from the snapshot saved after the
//! warm-up pass.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ssd_base::budget::{Budget, Verdict};
use ssd_base::rng::StdRng;
use ssd_base::SharedInterner;
use ssd_core::{Session, SessionLimits};
use ssd_gen::corpora::{PAPER_DTD, PAPER_SCHEMA};
use ssd_gen::sat3::Sat3;
use ssd_obs::MetricsRegistry;
use ssd_query::Query;
use ssd_schema::{Schema, TypeGraph};

use crate::checks::Checks;
use crate::corpus::{self, shuffle};
use crate::harness::{self, Args, Outcome, RunDir};
use crate::trace::Tracer;

/// Requests per round: every run answers whole rounds of this sequence.
/// Every request's latency lands in a buffer of this size, reused by
/// every round, so the buffer does not grow the peak RSS the run reports.
const ROUND: usize = 16384;
/// A round serves the pool in this many segments, each the pairs at
/// every `SEGMENTS`-th popularity rank (popularity shifts between them,
/// as traffic does between tenants).
const SEGMENTS: usize = 4;
const EXPORT_EVERY: usize = 1024;
/// The feas memo's entry ceiling as a share of the entries the pool makes
/// (every pair gets at least four requests a round): about two segments'
/// worth, so a segment's entries are evicted by the time it comes round
/// again and each round re-inserts them.
const CEILING_SHARE: f64 = 0.5;
const SAMPLE_RATE: f64 = 0.01;
/// Restarts per run; `restart_ms` is the fastest (see `harness::BestOps`
/// for why).
const RESTARTS: usize = 101;
const FUEL: u64 = 1 << 32;
const DEADLINE: Duration = Duration::from_secs(10);
/// Request popularity: the pair at rank `r` (from 1) has weight
/// `1 / max(r, ZIPF_HEAD)`, Zipf with its head flattened, so no single
/// pair holds more than about 1% of a segment's requests and the median
/// request is spread over dozens of pairs rather than a seed-chosen few.
const ZIPF_HEAD: usize = 128;

struct Pool {
    schemas: Vec<Schema>,
    /// (schema index, query).
    pairs: Vec<(usize, Query)>,
}

fn pool(seed: u64, labels: &SharedInterner) -> Pool {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4E_5E4E);
    let mut schemas = Vec::new();
    let mut general = Vec::new();
    // Per query kind (join-free, value-join, node-join): (schema, text).
    let mut texts: [Vec<(usize, String)>; 3] = Default::default();
    // Ordered and tagged generated schemas with join-free and value-join
    // queries.
    for i in 0..40 {
        let tagged = i % 3 == 2;
        let text = corpus::ordered_text(&mut rng, 8 + (i % 7) * 2, tagged);
        let s = corpus::parse_schema(&text, labels);
        let tg = TypeGraph::new(&s);
        let si = schemas.len();
        for q in corpus::joinfree_texts(&s, &tg, &mut rng, 22, (1, 4), 0.15, false) {
            texts[0].push((si, q));
        }
        if tagged {
            for q in corpus::value_join_texts(&s, &tg, &mut rng, 4, 5) {
                texts[1].push((si, q));
            }
        }
        schemas.push(s);
    }
    // Referenceable types with node joins.
    for i in 0..16 {
        let text =
            corpus::make_referenceable(&corpus::ordered_text(&mut rng, 10 + (i % 4) * 2, false), 2);
        let s = corpus::parse_schema(&text, labels);
        let tg = TypeGraph::new(&s);
        let si = schemas.len();
        for q in corpus::node_join_texts(&s, &tg, &mut rng, 4) {
            texts[2].push((si, q));
        }
        schemas.push(s);
    }
    // The paper's schema and DTD.
    for (text, dtd) in [(PAPER_SCHEMA, false), (PAPER_DTD, true)] {
        let s = if dtd {
            ssd_schema::parse_dtd(text, labels).unwrap_or_else(|e| panic!("paper DTD: {e}"))
        } else {
            corpus::parse_schema(text, labels)
        };
        let tg = TypeGraph::new(&s);
        let si = schemas.len();
        for q in corpus::joinfree_texts(&s, &tg, &mut rng, 16, (1, 3), 0.15, true) {
            texts[0].push((si, q));
        }
        for q in corpus::value_join_texts(&s, &tg, &mut rng, 4, 5) {
            texts[1].push((si, q));
        }
        schemas.push(s);
    }
    // The kinds differ in cost by up to 20x (a warm value-join request is
    // decided afresh; a join-free one is a memo hit), so each kind gets
    // ranks spread evenly over the popularity order, and the seed only
    // picks which pair of a kind sits at each of its ranks.
    for kind in &mut texts {
        shuffle(&mut rng, kind);
    }
    let mut pairs = Vec::new();
    let total: usize = texts.iter().map(Vec::len).sum();
    let mut taken = [0usize; 3];
    for r in 0..total {
        // The kind furthest behind its even share of ranks `0..=r`.
        let k = (0..3)
            .filter(|&k| taken[k] < texts[k].len())
            .max_by(|&a, &b| {
                let behind = |k: usize| {
                    (r + 1) as f64 * texts[k].len() as f64 / total as f64 - taken[k] as f64
                };
                behind(a).total_cmp(&behind(b)).then(b.cmp(&a))
            })
            .unwrap_or(0);
        let (si, q) = &texts[k][taken[k]];
        taken[k] += 1;
        pairs.push((*si, corpus::parse_query(q, labels)));
    }
    // General-search pairs (unordered schemas with `{…}` patterns, then
    // small 3SAT reductions) sit at fixed popularity ranks spread from 150
    // to the end, so their share of requests, about 1.5% (0.14% for 3SAT),
    // does not depend on the seed.
    for i in 0..4 {
        let text = corpus::unordered_text(&mut rng, 4 + i % 2);
        let s = corpus::parse_schema(&text, labels);
        let tg = TypeGraph::new(&s);
        for q in corpus::joinfree_texts(&s, &tg, &mut rng, 4, (1, 2), 0.2, false) {
            general.push((
                schemas.len(),
                corpus::parse_query(&corpus::unordered_query(&q), labels),
            ));
        }
        schemas.push(s);
    }
    for k in 0..4 {
        let f = Sat3::random(&mut rng, 3 + k % 2, 5);
        general.push((schemas.len(), corpus::parse_query(&f.query_text(), labels)));
        schemas.push(corpus::parse_schema(&f.schema_text(), labels));
    }
    let (n, g) = (pairs.len(), general.len());
    for (k, p) in general.into_iter().enumerate() {
        pairs.insert(150 + k * (n - 150) / g + k, p);
    }
    Pool { schemas, pairs }
}

/// The request sequence of one round. The pair at popularity rank `r`
/// gets its share of [`ROUND`] requests (largest remainder first), so how
/// many requests each rank gets does not depend on the seed; the seed only
/// orders them within each of the [`SEGMENTS`].
fn sequence(seed: u64, n: usize) -> Vec<u32> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / r.max(ZIPF_HEAD) as f64).collect();
    let total: f64 = weights.iter().sum();
    let quota: Vec<f64> = weights.iter().map(|w| w / total * ROUND as f64).collect();
    let mut count: Vec<usize> = quota.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder
        .sort_by(|&a, &b| (quota[b] - quota[b].floor()).total_cmp(&(quota[a] - quota[a].floor())));
    let short = ROUND - count.iter().sum::<usize>();
    for &k in &by_remainder[..short] {
        count[k] += 1;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2199);
    let mut seq = Vec::with_capacity(ROUND);
    for j in 0..SEGMENTS {
        let mut part: Vec<u32> = (j..n)
            .step_by(SEGMENTS)
            .flat_map(|k| std::iter::repeat_n(k as u32, count[k]))
            .collect();
        shuffle(&mut rng, &mut part);
        seq.extend(part);
    }
    seq
}

/// The shipping configuration, with a feas-memo entry ceiling at
/// [`CEILING_SHARE`] of the pool's `working_set` of memo entries, so hits
/// interleave with misses, inserts and evictions.
fn shipping_session(registry: Arc<MetricsRegistry>, working_set: usize) -> Session {
    let mut s = Session::with_telemetry(registry, SAMPLE_RATE);
    let ceiling = (working_set as f64 * CEILING_SHARE) as usize;
    s.set_limits(SessionLimits::unlimited().max_feas_memo_entries(ceiling));
    s
}

/// One request: type graph first (its own span), then dispatch.
fn answer(sess: &Session, q: &Query, s: &Schema, tr: &Tracer) -> Result<bool, String> {
    let budget = Budget::unlimited()
        .with_fuel(FUEL)
        .with_deadline_in(DEADLINE);
    let _op = tr.span("op");
    {
        let _s = tr.span("schema.type_graph");
        sess.type_graph(s);
    }
    let mut span = tr.span("core.decide");
    match sess.satisfiable_budgeted(q, s, &budget) {
        Ok(Verdict::Done(o)) => {
            let (name, calls, fuel) = harness::route(o.algorithm);
            if let Some(sp) = span.as_mut() {
                sp.rename(name);
            }
            drop(span);
            tr.count(calls, 1.0);
            if let Some(f) = fuel {
                tr.count(f, budget.spent() as f64);
            }
            Ok(o.satisfiable)
        }
        Ok(Verdict::Exhausted(e)) => Err(format!("request tripped its budget: {e:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// One exporter step; returns the exposition's length.
fn export(sess: &Session, registry: &MetricsRegistry, tr: &Tracer) -> usize {
    let _s = tr.span("obs.export");
    sess.publish_gauges(registry);
    let snap = registry.snapshot();
    ssd_obs::expose::to_prometheus(&snap).len()
}

pub fn run(args: &Args, start: Instant, tr: &Tracer, dir: &RunDir) -> Result<Outcome, String> {
    let labels = SharedInterner::new();
    let pool = pool(args.seed, &labels);
    let seq = sequence(args.seed, pool.pairs.len());
    // Warm-up: every pair once through the serving session, and once
    // through an unbounded session whose snapshot every restart loads.
    // (A snapshot of the bounded session would hold whatever its last
    // eviction pass happened to keep.)
    let warm = Session::new();
    for (si, q) in &pool.pairs {
        answer(&warm, q, &pool.schemas[*si], &Tracer::new(false))?;
    }
    let snap = dir.path("warm.snap");
    let schema_refs: Vec<&Schema> = pool.schemas.iter().collect();
    let saved = save(&warm, &schema_refs, &snap, tr)?;
    let working_set = warm.stats().feas_memos;
    drop(warm);
    let registry = Arc::new(MetricsRegistry::new());
    let sess = shipping_session(Arc::clone(&registry), working_set);
    for (si, q) in &pool.pairs {
        answer(&sess, q, &pool.schemas[*si], &Tracer::new(false))?;
    }
    let setup_s = start.elapsed().as_secs_f64();

    // Per pair: 0 unseen, 1 UNSAT, 2 SAT, 3 answered both ways.
    let mut seen = vec![0u8; pool.pairs.len()];
    let mut error: Option<String> = None;
    let mut lat = vec![0u64; ROUND];
    let mut stats_per_round = Vec::new();
    let mut exports: Vec<f64> = Vec::new();
    let mut exposition_ok = true;
    let round_secs = harness::timed_rounds(args.seconds, || {
        let round = stats_per_round.len();
        let r0 = Instant::now();
        for (i, &k) in seq.iter().enumerate() {
            let (si, q) = &pool.pairs[k as usize];
            tr.set_request((round * ROUND + i) as u64);
            let t0 = Instant::now();
            let v = answer(&sess, q, &pool.schemas[*si], tr);
            lat[i] = t0.elapsed().as_nanos() as u64;
            match v {
                Ok(v) => {
                    let code = 1 + v as u8;
                    let slot = &mut seen[k as usize];
                    *slot = if *slot == 0 || *slot == code { code } else { 3 };
                }
                Err(e) => {
                    error.get_or_insert(e);
                }
            }
            if i.is_multiple_of(EXPORT_EVERY) {
                let e0 = Instant::now();
                exposition_ok &= export(&sess, &registry, tr) > 0;
                exports.push(e0.elapsed().as_nanos() as f64 / 1e3);
            }
        }
        let secs = r0.elapsed().as_secs_f64();
        stats_per_round.push(harness::RoundStat::new(secs, &mut lat));
    });
    if let Some(e) = error {
        return Err(format!("warm-serve: {e}"));
    }
    let rounds = round_secs.len() as u64;
    let attempted = rounds * ROUND as u64;
    let stats = sess.stats();

    // Checks, restarts and counts: outside the timed phase.
    let mut checks = Checks::default();
    checks.expect(exposition_ok, || {
        "an exporter step produced no exposition".to_owned()
    });
    let cold = cold_verdicts(&pool)?;
    for (k, &got) in seen.iter().enumerate() {
        checks.expect(got == 0 || got == 1 + cold[k] as u8, || {
            format!(
                "pair {k}: served verdict code {got}, cold verdict {}",
                cold[k]
            )
        });
    }
    let r = restart_loop(
        &schema_refs,
        &pool.pairs[..1],
        &cold[..1],
        &snap,
        || shipping_session(Arc::new(MetricsRegistry::new()), working_set),
        tr,
    )?;
    checks.expect(r.verdicts_ok, || {
        "a restarted session answered differently from cold".to_owned()
    });
    let ao = crate::data::reference_scan(&mut checks);

    let mut layers = harness::layers_from(tr, rounds);
    harness::cache_layers(&mut layers, &stats, rounds);
    layers.insert(
        "schema.type_graph_builds",
        stats.type_graph_table.misses as f64 / rounds.max(1) as f64,
    );
    layers.insert("obs.export_us", harness::median(&mut exports));
    layers.insert("snapshot.save_ms", saved.ms);
    layers.insert("snapshot.load_ms", r.load_ms);
    layers.insert("snapshot.sections_loaded", r.sections_loaded as f64);
    layers.insert("optimizer.naive_edges", ao.naive_edges as f64);

    let mut e2e = harness::best_round_e2e(setup_s, ROUND, &stats_per_round);
    e2e.push(("restart_ms", r.restart_ms, "ms"));
    e2e.push(("snapshot_bytes", saved.bytes as f64, "bytes"));
    e2e.push(("ao_edges", ao.adaptive_edges as f64, "edges"));
    let mut notes = vec![
        format!(
            "warm-serve seed {}: {} pairs over {} schemas, {rounds} rounds of {ROUND}",
            args.seed,
            pool.pairs.len(),
            pool.schemas.len()
        ),
        format!(
            "feas memo: {} hits / {} misses, {} evicted; {} exporter steps",
            stats.feas_memo_table.hits,
            stats.feas_memo_table.misses,
            stats.evicted,
            exports.len()
        ),
        format!(
            "checks: {} passed, {} failed",
            checks.passed,
            checks.failures.len()
        ),
    ];
    notes.extend(checks.failures.iter().map(|f| format!("CHECK FAILED: {f}")));
    Ok(Outcome {
        correct: checks.correct(),
        attempted,
        failed: 0,
        e2e,
        layers,
        notes,
    })
}

/// Each pair's verdict from a fresh cold session per schema.
fn cold_verdicts(pool: &Pool) -> Result<Vec<bool>, String> {
    let sessions: Vec<Session> = pool.schemas.iter().map(|_| Session::new()).collect();
    pool.pairs
        .iter()
        .map(|(si, q)| {
            sessions[*si]
                .satisfiable(q, &pool.schemas[*si])
                .map(|o| o.satisfiable)
                .map_err(|e| e.to_string())
        })
        .collect()
}

pub struct Saved {
    pub bytes: u64,
    pub ms: f64,
}

/// Saves `sess`'s warmed caches for `schemas`.
pub fn save(
    sess: &Session,
    schemas: &[&Schema],
    path: &Path,
    tr: &Tracer,
) -> Result<Saved, String> {
    let t0 = Instant::now();
    let bytes = {
        let _s = tr.span("snapshot.save");
        sess.save_snapshot(path, schemas)
            .map_err(|e| format!("snapshot save: {e}"))?
    };
    Ok(Saved {
        bytes,
        ms: t0.elapsed().as_secs_f64() * 1e3,
    })
}

pub struct Restarts {
    pub restart_ms: f64,
    pub load_ms: f64,
    pub sections_loaded: u64,
    pub verdicts_ok: bool,
}

/// [`RESTARTS`] times: a fresh session from `make` loads the snapshot and
/// answers `pairs` in order; the fastest whole restart and the fastest
/// load alone. `want` holds the cold verdicts.
pub fn restart_loop(
    schemas: &[&Schema],
    pairs: &[(usize, Query)],
    want: &[bool],
    path: &Path,
    make: impl Fn() -> Session,
    tr: &Tracer,
) -> Result<Restarts, String> {
    let mut total = f64::INFINITY;
    let mut load = f64::INFINITY;
    let mut ok = true;
    let mut sections = 0;
    for _ in 0..RESTARTS {
        let t0 = Instant::now();
        let sess = make();
        let out = {
            let _s = tr.span("snapshot.load");
            sess.load_snapshot(path, schemas)
        };
        load = load.min(t0.elapsed().as_secs_f64() * 1e3);
        for ((si, q), w) in pairs.iter().zip(want) {
            let v = sess
                .satisfiable(q, schemas[*si])
                .map_err(|e| e.to_string())?;
            ok &= v.satisfiable == *w;
        }
        total = total.min(t0.elapsed().as_secs_f64() * 1e3);
        ok &= out.sections_rejected == 0 && out.sections_loaded > 0;
        sections = out.sections_loaded;
    }
    Ok(Restarts {
        restart_ms: total,
        load_ms: load,
        sections_loaded: sections,
        verdicts_ok: ok,
    })
}

/// Warms one session with `pairs` and saves it; returns what was saved
/// and the warm verdicts.
pub fn warm_and_save(
    schemas: &[&Schema],
    pairs: &[(usize, Query)],
    path: &Path,
    tr: &Tracer,
) -> Result<(Saved, Vec<bool>), String> {
    let warm = Session::new();
    let mut want = Vec::with_capacity(pairs.len());
    for (si, q) in pairs {
        want.push(
            warm.satisfiable(q, schemas[*si])
                .map_err(|e| e.to_string())?
                .satisfiable,
        );
    }
    Ok((save(&warm, schemas, path, tr)?, want))
}

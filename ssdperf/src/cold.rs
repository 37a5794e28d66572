//! `cold-check`: a static checker run over a fresh corpus.
//!
//! Every schema is seen once per round, through a `Session` of its own;
//! its requests run in a fixed seeded order, each under its own budget
//! (fuel plus deadline). The first request of a schema also parses the
//! schema and builds its type graph, so the round exercises the cold
//! kernels: schema parse, type graph, NFA builds, the trace product and
//! the general search. Caches help only within one schema.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ssd_base::budget::{Budget, Verdict};
use ssd_base::rng::{Rng, StdRng};
use ssd_base::SharedInterner;
use ssd_core::infer::InferredAssignment;
use ssd_core::{Algorithm, Constraints, Session, TypeAssignment};
use ssd_gen::corpora::PAPER_DTD;
use ssd_gen::sat3::Sat3;
use ssd_lint::Code;
use ssd_query::Query;
use ssd_schema::{Schema, TypeGraph};

use crate::checks::Checks;
use crate::corpus::{self, shuffle};
use crate::harness::{self, Args, Outcome, RunDir};
use crate::trace::Tracer;
use crate::warm::{Restarts, Saved};

/// Deadline of an ordinary request: far above any correct request here.
const DEADLINE: Duration = Duration::from_secs(10);
const FUEL: u64 = 1 << 32;
/// D1's kept fault: ladder schemas whose type-graph construction (about
/// 36 ms at depth 16 on a 2-core machine) outlasts a 4 ms deadline,
/// because `Session::type_graph` takes no budget. There are enough of
/// them (about 1.5% of a round) that `op_p99_us` falls among them.
const DEAD_LADDERS: usize = 6;
const DEAD_LADDER_DEPTH: usize = 16;
const DEAD_LADDER_DEADLINE: Duration = Duration::from_millis(4);
const DEAD_LADDER_FUEL: u64 = 1_000;
/// Ordered and tagged schema jobs per round.
const ORDERED: usize = 36;
const TAGGED: usize = 12;

#[derive(Clone)]
enum Kind {
    Sat,
    /// `infer`, then `total_type_check` of every inferred assignment.
    Infer,
    Feedback,
    /// `infer_output_schema` and `check_output_schema` against the
    /// strict or the permissive target.
    Transform {
        strict: bool,
    },
    Lint {
        pin: Option<(&'static str, &'static str)>,
        fuel: Option<u64>,
    },
}

#[derive(Clone)]
struct Req {
    kind: Kind,
    query: String,
    deadline: Duration,
    fuel: u64,
    /// Hand-written expected lint codes, for `examples/lint/`.
    expect_codes: Option<Vec<Code>>,
}

impl Req {
    fn new(kind: Kind, query: String) -> Req {
        Req {
            kind,
            query,
            deadline: DEADLINE,
            fuel: FUEL,
            expect_codes: None,
        }
    }
}

struct Job {
    label: String,
    schema: String,
    dtd: bool,
    reqs: Vec<Req>,
    /// The 3SAT formula behind a reduction job.
    sat3: Option<Sat3>,
    /// No conforming database exists (the root is uninhabited).
    dead: bool,
    /// Tagged, so the conformance typing is unique.
    tagged: bool,
}

impl Job {
    fn new(label: String, schema: String) -> Job {
        Job {
            label,
            schema,
            dtd: false,
            reqs: Vec::new(),
            sat3: None,
            dead: false,
            tagged: false,
        }
    }
}

/// What a request answered in the first round.
#[derive(Clone, Debug)]
enum Answer {
    Sat(bool, Algorithm),
    Infer(Vec<InferredAssignment>, Vec<bool>),
    Feedback(Query),
    Transform(bool),
    Lint(Vec<Code>),
    Exhausted,
}

fn parse_schema_text(job: &Job, pool: &SharedInterner) -> Result<Schema, String> {
    if job.dtd {
        ssd_schema::parse_dtd(&job.schema, pool)
    } else {
        ssd_schema::parse_schema(&job.schema, pool)
    }
    .map_err(|e| format!("{}: {e}", job.label))
}

/// Retries `gen` (which draws a fresh schema each time) until it meets
/// its query counts, so every seed yields the same operations per round.
fn retry(rng: &mut StdRng, mut gen: impl FnMut(&mut StdRng) -> Option<Job>) -> Job {
    for _ in 0..64 {
        if let Some(job) = gen(rng) {
            return job;
        }
    }
    panic!("the corpus generator could not meet its query counts")
}

/// `v` if it holds exactly `n` items.
fn exactly(v: Vec<String>, n: usize) -> Option<Vec<String>> {
    (v.len() == n).then_some(v)
}

fn corpus(seed: u64) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC01D_C4EC);
    let mut jobs = Vec::new();

    // Ordered schemas of growing size with join-free queries (trace
    // product), some behind a live-content ladder region (D1's shape at
    // depths that stay under the deadline). Whether a schema's queries
    // share memo entries varies from schema to schema, so there are many
    // schemas, and only the first fourteen also take the checker's other
    // requests. A ladder schema takes only satisfiability and lint
    // requests: `feedback_query` and `infer_output_schema` rebuild its
    // type graph outside the session, at a cost (5–75 ms) that depends
    // on whether the seed's query reaches the ladder.
    for i in 0..ORDERED {
        jobs.push(retry(&mut rng, |rng| {
            let text = corpus::ordered_text(rng, 6 + (i % 14) * 2, false);
            if i % 4 == 3 && i < 14 {
                let text = corpus::with_ladder(&text, "T0", 12 + (i / 4) % 3);
                ordered_job(
                    rng,
                    format!("ordered-ladder-{i}"),
                    text,
                    false,
                    Extras::Lint,
                )
            } else {
                let extras = if i < 14 { Extras::All } else { Extras::None };
                ordered_job(rng, format!("ordered-{i}"), text, false, extras)
            }
        }));
    }
    // Ordered schemas with referenceable types and one node join each
    // (bounded-join enumeration).
    for i in 0..6 {
        jobs.push(retry(&mut rng, |rng| {
            let text = corpus::make_referenceable(&corpus::ordered_text(rng, 8 + i * 2, false), 2);
            let pool = SharedInterner::new();
            let s = corpus::parse_schema(&text, &pool);
            let tg = TypeGraph::new(&s);
            let mut job = Job::new(format!("refs-{i}"), text);
            for q in exactly(corpus::node_join_texts(&s, &tg, rng, 8), 8)? {
                job.reqs.push(Req::new(Kind::Sat, q));
            }
            Some(job)
        }));
    }
    // Tagged ordered schemas and DTDs: value-join constant-suffix queries
    // (forced assignment), join-free queries, inference.
    for i in 0..TAGGED {
        jobs.push(retry(&mut rng, |rng| {
            let text = corpus::ordered_text(rng, 6 + (i % 6) * 2, true);
            let extras = if i < 6 { Extras::All } else { Extras::None };
            ordered_job(rng, format!("tagged-{i}"), text, true, extras)
        }));
    }
    for i in 0..4 {
        jobs.push(retry(&mut rng, |rng| {
            let text = if i == 0 {
                PAPER_DTD.to_owned()
            } else {
                corpus::dtd_text(rng, 6 + i * 3)
            };
            let pool = SharedInterner::new();
            let s = ssd_schema::parse_dtd(&text, &pool).ok()?;
            let tg = TypeGraph::new(&s);
            let mut job = Job::new(format!("dtd-{i}"), text);
            job.dtd = true;
            job.tagged = true;
            for q in exactly(corpus::value_join_texts(&s, &tg, rng, 5, 5), 5)? {
                job.reqs.push(Req::new(Kind::Sat, q));
            }
            for q in exactly(
                corpus::joinfree_texts(&s, &tg, rng, 3, (1, 3), 0.0, false),
                3,
            )? {
                let q = corpus::parse_query(&q, &pool);
                job.reqs.push(Req::new(Kind::Infer, corpus::select_all(&q)));
            }
            Some(job)
        }));
    }
    // Unordered schemas with `{…}` patterns, and the 3SAT reduction with
    // SAT and UNSAT instances at a few sizes (general search).
    for i in 0..6 {
        jobs.push(retry(&mut rng, |rng| {
            let text = corpus::unordered_text(rng, 4 + i % 3);
            let pool = SharedInterner::new();
            let s = corpus::parse_schema(&text, &pool);
            let tg = TypeGraph::new(&s);
            let mut job = Job::new(format!("unordered-{i}"), text);
            for q in exactly(
                corpus::joinfree_texts(&s, &tg, rng, 6, (1, 2), 0.2, false),
                6,
            )? {
                job.reqs
                    .push(Req::new(Kind::Sat, corpus::unordered_query(&q)));
            }
            Some(job)
        }));
    }
    for vars in [4usize, 5] {
        // The search is exponential in the clause count: SAT instances
        // get 6 and 7 clauses, the UNSAT one is the complete 8-clause
        // formula over three of the variables.
        for clauses in [6usize, 7] {
            let f = (0..500)
                .map(|_| Sat3::random(&mut rng, vars, clauses))
                .find(Sat3::brute_force)
                .unwrap_or_else(|| panic!("no satisfiable {vars}-variable formula drawn"));
            jobs.push(sat3_job(format!("3sat-{vars}-{clauses}"), f));
        }
        let mut picked: Vec<usize> = (0..vars).collect();
        shuffle(&mut rng, &mut picked);
        let mut clauses: Vec<[(usize, bool); 3]> = (0..8u32)
            .map(|m| {
                [
                    (picked[0], m & 1 == 1),
                    (picked[1], m & 2 == 2),
                    (picked[2], m & 4 == 4),
                ]
            })
            .collect();
        shuffle(&mut rng, &mut clauses);
        jobs.push(sat3_job(
            format!("3sat-{vars}-unsat"),
            Sat3 {
                num_vars: vars,
                clauses,
            },
        ));
    }
    // D1's kept fault (independent of the seed).
    for k in 0..DEAD_LADDERS {
        let mut job = Job::new(
            format!("dead-ladder-{k}"),
            corpus::dead_ladder(DEAD_LADDER_DEPTH),
        );
        let path = ["a", "b", "a.a", "b.b", "a.b", "_*.c"][k % 6];
        let mut r = Req::new(Kind::Sat, format!("SELECT X WHERE Root = [{path} -> X]"));
        r.deadline = DEAD_LADDER_DEADLINE;
        r.fuel = DEAD_LADDER_FUEL;
        job.reqs.push(r);
        job.dead = true;
        jobs.push(job);
    }
    jobs.extend(lint_jobs());
    for job in &mut jobs {
        shuffle(&mut rng, &mut job.reqs);
    }
    shuffle(&mut rng, &mut jobs);
    jobs
}

fn sat3_job(label: String, f: Sat3) -> Job {
    let mut job = Job::new(label, f.schema_text());
    job.reqs.push(Req::new(Kind::Sat, f.query_text()));
    job.sat3 = Some(f);
    job
}

/// Which of a checker's other requests an ordered schema job takes.
#[derive(Clone, Copy, PartialEq)]
enum Extras {
    None,
    Lint,
    /// Feedback, lint and a transformation.
    All,
}

/// An ordered (optionally tagged) schema job: join-free queries, plus
/// value joins and inference when tagged, and `extras`.
fn ordered_job(
    rng: &mut StdRng,
    label: String,
    text: String,
    tagged: bool,
    extras: Extras,
) -> Option<Job> {
    let pool = SharedInterner::new();
    let s = corpus::parse_schema(&text, &pool);
    let tg = TypeGraph::new(&s);
    let mut job = Job::new(label, text);
    job.tagged = tagged;
    let n = if tagged { 4 } else { 10 };
    let qs = exactly(
        corpus::joinfree_texts(&s, &tg, rng, n, (2, 5), 0.2, false),
        n,
    )?;
    if extras == Extras::All {
        job.reqs.push(Req::new(Kind::Feedback, qs[0].clone()));
    }
    if extras != Extras::None {
        job.reqs.push(Req::new(
            Kind::Lint {
                pin: None,
                fuel: None,
            },
            qs[0].clone(),
        ));
    }
    for q in qs {
        job.reqs.push(Req::new(Kind::Sat, q));
    }
    if tagged {
        for q in exactly(corpus::value_join_texts(&s, &tg, rng, 6, 5), 6)? {
            job.reqs.push(Req::new(Kind::Sat, q));
        }
        for q in exactly(
            corpus::joinfree_texts(&s, &tg, rng, 3, (1, 3), 0.0, false),
            3,
        )? {
            let q = corpus::parse_query(&q, &pool);
            job.reqs.push(Req::new(Kind::Infer, corpus::select_all(&q)));
        }
    }
    if extras == Extras::All {
        let (q, _) = corpus::transformation(&s, &tg, rng)?;
        let strict = rng.gen_bool(0.5);
        job.reqs.push(Req::new(Kind::Transform { strict }, q));
    }
    Some(job)
}

/// `examples/lint/`, with each scenario's hand-written expected codes.
fn lint_jobs() -> Vec<Job> {
    const BIB: &str = include_str!("../../examples/lint/bib.scmdl");
    const REFS: &str = include_str!("../../examples/lint/refs.scmdl");
    let scenario = |q: &str, pin, fuel, codes: &[Code]| Req {
        expect_codes: Some(codes.to_vec()),
        ..Req::new(Kind::Lint { pin, fuel }, q.to_owned())
    };
    let mut bib = Job::new("lint-bib".to_owned(), BIB.to_owned());
    bib.reqs = vec![
        scenario(
            include_str!("../../examples/lint/clean.ssq"),
            None,
            None,
            &[],
        ),
        scenario(
            include_str!("../../examples/lint/unsat.ssq"),
            None,
            None,
            &[Code::UnsatQuery],
        ),
        scenario(
            include_str!("../../examples/lint/dead_branch.ssq"),
            None,
            None,
            &[Code::DeadBranch],
        ),
        scenario(
            include_str!("../../examples/lint/unknown_label.ssq"),
            None,
            None,
            &[Code::UnsatQuery, Code::UnknownLabel],
        ),
        scenario(
            include_str!("../../examples/lint/pin.ssq"),
            Some(("X", "PAPER")),
            None,
            &[Code::RedundantConstraint],
        ),
    ];
    let mut refs = Job::new("lint-refs".to_owned(), REFS.to_owned());
    refs.reqs = vec![scenario(
        include_str!("../../examples/lint/joins.ssq"),
        None,
        Some(1),
        &[Code::BudgetExhausted],
    )];
    vec![bib, refs]
}

/// Runs one request; returns its answer.
fn serve(
    req: &Req,
    s: &Schema,
    pool: &SharedInterner,
    sess: &Session,
    budget: &Budget,
    tr: &Tracer,
) -> Result<Answer, String> {
    let q = {
        let _s = tr.span("query.parse");
        ssd_query::parse_query(&req.query, pool).map_err(|e| format!("query: {e}"))?
    };
    {
        let _s = tr.span("schema.type_graph");
        sess.type_graph(s);
    }
    let err = |e: ssd_base::Error| e.to_string();
    Ok(match &req.kind {
        Kind::Sat => {
            let mut span = tr.span("core.decide");
            match sess.satisfiable_budgeted(&q, s, budget).map_err(err)? {
                Verdict::Done(o) => {
                    let (name, calls, fuel) = harness::route(o.algorithm);
                    if let Some(sp) = span.as_mut() {
                        sp.rename(name);
                    }
                    drop(span);
                    tr.count(calls, 1.0);
                    if let Some(f) = fuel {
                        tr.count(f, budget.spent() as f64);
                    }
                    Answer::Sat(o.satisfiable, o.algorithm)
                }
                Verdict::Exhausted(_) => Answer::Exhausted,
            }
        }
        Kind::Infer => {
            let inferred = {
                let _s = tr.span("core.infer");
                match sess.infer_budgeted(&q, s, budget).map_err(err)? {
                    Verdict::Done(v) => v,
                    Verdict::Exhausted(_) => return Ok(Answer::Exhausted),
                }
            };
            let _s = tr.span("core.typecheck");
            let mut accepted = Vec::with_capacity(inferred.len());
            for a in &inferred {
                accepted.push(
                    sess.total_type_check(&q, s, &total(&q, s, a))
                        .map_err(err)?,
                );
            }
            Answer::Infer(inferred, accepted)
        }
        Kind::Feedback => {
            let _s = tr.span("feedback");
            Answer::Feedback(ssd_feedback::feedback_query(&q, s).map_err(err)?)
        }
        Kind::Transform { strict } => {
            let (x0, x1) = match (q.var_by_name("X0"), q.var_by_name("X1")) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err("transformation query lost its variables".to_owned()),
            };
            let t = corpus::skolem(q, x0, x1);
            {
                let _s = tr.span("transform.infer_schema");
                ssd_transform::infer_output_schema(&t, s).map_err(err)?;
            }
            let target = corpus::parse_schema(
                if *strict {
                    corpus::TARGET_STRICT
                } else {
                    corpus::TARGET_PERMISSIVE
                },
                pool,
            );
            let _s = tr.span("transform.check_schema");
            Answer::Transform(ssd_transform::check_output_schema(&t, s, &target).map_err(err)?)
        }
        Kind::Lint { pin, fuel } => {
            let mut c = Constraints::none();
            if let Some((var, ty)) = pin {
                match (q.var_by_name(var), s.by_name(ty)) {
                    (Some(v), Some(t)) => c = c.pin_type(v, t),
                    _ => return Err(format!("lint pin {var}={ty} does not resolve")),
                }
            }
            let b = fuel.map(|f| Budget::unlimited().with_fuel(f));
            let _s = tr.span("lint");
            let report =
                ssd_lint::lint_with(&q, s, &c, sess, b.as_ref().unwrap_or(budget)).map_err(err)?;
            tr.count("lint.diagnostics", report.diagnostics.len() as f64);
            Answer::Lint(report.diagnostics.iter().map(|d| d.code).collect())
        }
    })
}

/// An inferred SELECT assignment extended with the root's type, which a
/// total type check also needs.
fn total(q: &Query, s: &Schema, a: &InferredAssignment) -> TypeAssignment {
    let mut ta = TypeAssignment::new().with_type(q.root_var(), s.root());
    for &(v, val) in &a.entries {
        ta = match val {
            ssd_core::infer::InferredValue::Type(t) => ta.with_type(v, t),
            ssd_core::infer::InferredValue::Label(l) => ta.with_label(v, l),
        };
    }
    ta
}

pub fn run(args: &Args, start: Instant, tr: &Tracer, dir: &RunDir) -> Result<Outcome, String> {
    let jobs = corpus(args.seed);
    let ops_per_round: usize = jobs.iter().map(|j| j.reqs.len()).sum();
    let reference = ReferenceRestart::prepare(dir, tr)?;
    let setup_s = start.elapsed().as_secs_f64();

    let mut best = harness::BestOps::new(ops_per_round);
    let mut failed = 0u64;
    let mut answers: Vec<(SharedInterner, Vec<Answer>)> = Vec::new();
    let mut drift: Vec<String> = Vec::new();
    let mut error: Option<String> = None;
    let mut cache_totals = CacheTotals::default();
    let mut round_no = 0u64;
    let round_secs = harness::timed_rounds(args.seconds, || {
        let first = round_no == 0;
        let mut pos = 0usize;
        for (ji, job) in jobs.iter().enumerate() {
            let pool = SharedInterner::new();
            let sess = Session::new();
            let mut schema: Option<Schema> = None;
            let mut got = Vec::new();
            for req in &job.reqs {
                tr.set_request(round_no * ops_per_round as u64 + pos as u64);
                let t0 = Instant::now();
                let budget = Budget::unlimited()
                    .with_fuel(req.fuel)
                    .with_deadline_in(req.deadline);
                let res = {
                    let _op = tr.span("op");
                    let s = match schema.take() {
                        Some(s) => Ok(s),
                        None => {
                            let _s = tr.span("schema.parse");
                            tr.count("schema.type_graph_builds", 1.0);
                            parse_schema_text(job, &pool)
                        }
                    };
                    s.and_then(|s| {
                        let r = serve(req, &s, &pool, &sess, &budget, tr);
                        schema = Some(s);
                        r
                    })
                };
                let dt = t0.elapsed();
                best.record(pos, dt.as_nanos() as u64);
                pos += 1;
                if dt > 2 * req.deadline {
                    failed += 1;
                }
                match res {
                    Ok(a) => got.push(a),
                    Err(e) => {
                        error.get_or_insert_with(|| format!("{}: {e}", job.label));
                        got.push(Answer::Exhausted);
                    }
                }
            }
            if tr.on() {
                cache_totals.add(&sess.stats());
            }
            if first {
                answers.push((pool, got));
            } else if drift.len() < 5 {
                for (a, b) in answers[ji].1.iter().zip(&got) {
                    if let (Answer::Sat(x, _), Answer::Sat(y, _)) = (a, b) {
                        if x != y {
                            drift.push(format!("{}: verdict changed between rounds", job.label));
                        }
                    }
                }
            }
        }
        round_no += 1;
    });
    if let Some(e) = error {
        return Err(e);
    }
    let rounds = round_secs.len() as u64;
    let attempted = rounds * ops_per_round as u64;

    // Checks, restarts and counts: outside the timed phase.
    let mut checks = Checks::default();
    checks.expect(best.complete(), || {
        "an operation was never timed".to_owned()
    });
    for d in drift {
        checks.expect(false, || d);
    }
    let ao = crate::data::reference_scan(&mut checks);
    for (job, (pool, got)) in jobs.iter().zip(&answers) {
        check_job(job, pool, got, &mut checks)?;
    }
    let mut routes = BTreeMap::new();
    for a in answers.iter().flat_map(|(_, g)| g) {
        if let Answer::Sat(_, alg) = a {
            *routes.entry(format!("{alg:?}")).or_insert(0u64) += 1;
        }
    }
    checks.expect(routes.len() == 4, || {
        format!("the corpus misses a Table 2 route: {routes:?}")
    });
    let restart = reference.restarts(tr)?;
    let saved = &reference.saved;
    checks.expect(restart.verdicts_ok, || {
        "restart verdict differs from cold".to_owned()
    });

    let mut layers = harness::layers_from(tr, rounds);
    cache_totals.into_layers(&mut layers, rounds);
    layers.insert("snapshot.save_ms", saved.ms);
    layers.insert("snapshot.load_ms", restart.load_ms);
    layers.insert("snapshot.sections_loaded", restart.sections_loaded as f64);
    layers.insert("optimizer.naive_edges", ao.naive_edges as f64);

    let mut e2e = best.e2e(setup_s);
    e2e.push(("restart_ms", restart.restart_ms, "ms"));
    e2e.push(("snapshot_bytes", saved.bytes as f64, "bytes"));
    e2e.push(("ao_edges", ao.adaptive_edges as f64, "edges"));
    let notes = vec![
        format!(
            "cold-check seed {}: {} jobs, {ops_per_round} ops/round, {rounds} rounds, {failed} late (D1 ladder) ops",
            args.seed,
            jobs.len()
        ),
        format!("verdicts per route: {routes:?}"),
        format!(
            "checks: {} passed, {} failed, {} SAT verdicts confirmed on sampled instances",
            checks.passed,
            checks.failures.len(),
            checks.sat_confirmed
        ),
    ]
    .into_iter()
    .chain(checks.failures.iter().map(|f| format!("CHECK FAILED: {f}")))
    .collect();
    Ok(Outcome {
        correct: checks.correct(),
        attempted,
        failed,
        e2e,
        layers,
        notes,
    })
}

/// Sums `Session::stats` over the per-schema sessions of a traced run.
#[derive(Default)]
struct CacheTotals {
    fm_hits: u64,
    fm_misses: u64,
    tg_hits: u64,
    tg_misses: u64,
    a_hits: u64,
    a_misses: u64,
    nfas: u64,
    compiled_bytes: u64,
    evicted: u64,
}

impl CacheTotals {
    fn add(&mut self, st: &ssd_core::SessionStats) {
        self.fm_hits += st.feas_memo_table.hits;
        self.fm_misses += st.feas_memo_table.misses;
        self.tg_hits += st.type_graph_table.hits;
        self.tg_misses += st.type_graph_table.misses;
        self.a_hits += st.automata.hits;
        self.a_misses += st.automata.misses;
        self.nfas += st.automata.nfas as u64;
        self.compiled_bytes += st.automata.compiled_bytes as u64;
        self.evicted += st.evicted + st.automata.evicted;
    }

    fn into_layers(self, out: &mut BTreeMap<&'static str, f64>, rounds: u64) {
        let ratio = |h: u64, m: u64| {
            if h + m == 0 {
                0.0
            } else {
                h as f64 / (h + m) as f64
            }
        };
        let per = rounds.max(1) as f64;
        out.insert(
            "core.feas_memo.hit_ratio",
            ratio(self.fm_hits, self.fm_misses),
        );
        out.insert("core.feas_memo.misses", self.fm_misses as f64 / per);
        out.insert("core.evicted", self.evicted as f64 / per);
        out.insert(
            "core.type_graph.hit_ratio",
            ratio(self.tg_hits, self.tg_misses),
        );
        out.insert("automata.hit_ratio", ratio(self.a_hits, self.a_misses));
        out.insert("automata.misses", self.a_misses as f64 / per);
        out.insert("automata.nfa_entries", self.nfas as f64 / per);
        out.insert("automata.compiled_bytes", self.compiled_bytes as f64 / per);
    }
}

/// Checks one job's first-round answers against conforming instances,
/// brute force and hand-written expectations.
fn check_job(
    job: &Job,
    pool: &SharedInterner,
    got: &[Answer],
    checks: &mut Checks,
) -> Result<(), String> {
    // The first round's pool, so answers that carry queries (feedback)
    // share label ids with the instances sampled here.
    let s = parse_schema_text(job, pool)?;
    let tg = TypeGraph::new(&s);
    let label = &job.label;
    if job.dead {
        // UNSAT, or a budget that trips: both are right for a schema
        // no database conforms to.
        for a in got {
            checks.expect(
                matches!(a, Answer::Sat(false, _) | Answer::Exhausted),
                || format!("{label}: no database conforms, yet the verdict is {a:?}"),
            );
        }
        return Ok(());
    }
    let mut rng = StdRng::seed_from_u64(ssd_base::fnv1a64(label.as_bytes()));
    let instances =
        corpus::instances(&s, &tg, &mut rng, 4, 0.5, 300).map_err(|e| format!("{label}: {e}"))?;
    for (req, a) in job.reqs.iter().zip(got) {
        let q = corpus::parse_query(&req.query, pool);
        match a {
            Answer::Sat(v, _) => {
                if let Some(f) = &job.sat3 {
                    checks.expect(*v == f.brute_force(), || {
                        format!("{label}: 3SAT verdict {v} disagrees with brute force")
                    });
                }
                checks.sat_on_instances(label, &q, &s, &instances, *v);
            }
            Answer::Infer(inferred, accepted) => {
                if job.tagged {
                    checks.inference(label, &q, &s, &instances, inferred);
                }
                checks.expect(accepted.iter().all(|&ok| ok), || {
                    format!("{label}: total_type_check rejects an inferred assignment")
                });
            }
            Answer::Feedback(fb) => {
                checks.feedback(label, &q, fb, &instances);
            }
            Answer::Transform(accepted) => {
                let Kind::Transform { strict } = req.kind else {
                    continue;
                };
                check_transform(label, q, &s, pool, strict, *accepted, &instances, checks)?;
            }
            Answer::Lint(codes) => {
                if let Some(want) = &req.expect_codes {
                    checks.expect(codes == want, || {
                        format!("{label}: lint codes {codes:?}, expected {want:?}")
                    });
                }
            }
            Answer::Exhausted => {
                checks.expect(false, || format!("{label}: a request tripped its budget"))
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn check_transform(
    label: &str,
    q: Query,
    s: &Schema,
    pool: &SharedInterner,
    strict: bool,
    accepted: bool,
    instances: &[ssd_model::DataGraph],
    checks: &mut Checks,
) -> Result<(), String> {
    let (Some(x0), Some(x1)) = (q.var_by_name("X0"), q.var_by_name("X1")) else {
        return Err(format!("{label}: transformation query lost its variables"));
    };
    let t = corpus::skolem(q, x0, x1);
    let inferred = ssd_transform::infer_output_schema(&t, s).map_err(|e| e.to_string())?;
    let target = corpus::parse_schema(
        if strict {
            corpus::TARGET_STRICT
        } else {
            corpus::TARGET_PERMISSIVE
        },
        pool,
    );
    for g in instances {
        let out = ssd_transform::apply(&t, g).map_err(|e| e.to_string())?;
        checks.expect(ssd_schema::conforms(&out, &inferred).is_some(), || {
            format!("{label}: transform output does not conform to the inferred schema")
        });
        if accepted {
            checks.expect(ssd_schema::conforms(&out, &target).is_some(), || {
                format!("{label}: accepted transform output does not conform to the target")
            });
        }
    }
    Ok(())
}

/// The warm start of a checker, on a fixed corpus (the ordered and
/// tagged jobs of seed 0): their satisfiability requests, parsed into one
/// pool, warm one session, which is saved during set-up; after the timed
/// phase, restarts load the snapshot into fresh sessions and answer every
/// request. `cold-check` and `data-apps` keep no session alive, so both
/// report this restart; a fixed corpus keeps `snapshot_bytes` and
/// `restart_ms` apart from the seed's schema sizes.
pub struct ReferenceRestart {
    schemas: Vec<Schema>,
    pairs: Vec<(usize, Query)>,
    want: Vec<bool>,
    path: std::path::PathBuf,
    pub saved: Saved,
}

impl ReferenceRestart {
    pub fn prepare(dir: &RunDir, tr: &Tracer) -> Result<ReferenceRestart, String> {
        let jobs = corpus(0);
        let pool = SharedInterner::new();
        let mut pairs: Vec<(usize, Query)> = Vec::new();
        let mut schemas = Vec::new();
        for job in jobs.iter().filter(|j| {
            (j.label.starts_with("ordered-") || j.label.starts_with("tagged-"))
                && !j.label.contains("ladder")
        }) {
            let s = corpus::parse_schema(&job.schema, &pool);
            for r in job.reqs.iter().filter(|r| matches!(r.kind, Kind::Sat)) {
                pairs.push((schemas.len(), corpus::parse_query(&r.query, &pool)));
            }
            schemas.push(s);
        }
        let path = dir.path("reference.snap");
        let refs: Vec<&Schema> = schemas.iter().collect();
        let (saved, want) = crate::warm::warm_and_save(&refs, &pairs, &path, tr)?;
        Ok(ReferenceRestart {
            schemas,
            pairs,
            want,
            path,
            saved,
        })
    }

    pub fn restarts(&self, tr: &Tracer) -> Result<Restarts, String> {
        let refs: Vec<&Schema> = self.schemas.iter().collect();
        crate::warm::restart_loop(&refs, &self.pairs, &self.want, &self.path, Session::new, tr)
    }
}

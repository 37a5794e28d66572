//! `data-apps`: data-touching work over documents of varied size.
//!
//! A round is one batch over the corpus: parse the schemas, build their
//! type graphs in a fresh session, compile every query with
//! `RootQuery::compile` once, then take each document (one operation)
//! through parse, `conforms`, `A_O` for every query of its schema
//! (`evaluate_adaptive`, once per document and query) and `apply` of the
//! schema's transformation. The documents are bibliographies (text data
//! graphs, up to the 1 MiB parser limit), XML documents for generated
//! DTDs, and sampled tree instances of generated tagged schemas.

use std::collections::BTreeSet;
use std::time::Instant;

use ssd_base::rng::{Rng, StdRng};
use ssd_base::{OidId, SharedInterner};
use ssd_core::Session;
use ssd_gen::corpora::{bibliography, PAPER_SCHEMA};
use ssd_model::DataGraph;
use ssd_optimizer::{evaluate_adaptive, evaluate_naive, CostedGraph, RootQuery};
use ssd_query::Query;
use ssd_schema::{Schema, TypeGraph};
use ssd_transform::Transformation;

use crate::checks::Checks;
use crate::corpus;
use crate::harness::{self, Args, Outcome, RunDir};
use crate::trace::Tracer;

/// Edges explored by `A_O` and by the naive strategy (the §4.2 cost).
#[derive(Default)]
pub struct AoCount {
    pub adaptive_edges: u64,
    pub naive_edges: u64,
}

impl AoCount {
    /// Runs naive and `A_O` evaluation of `q` on tree data `g`, checks
    /// them against each other and `select_results`, and adds their
    /// edge counts. `adaptive` supplies an already computed `A_O` result.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        label: &str,
        q: &Query,
        s: &Schema,
        tg: &TypeGraph,
        g: &DataGraph,
        checks: &mut Checks,
        adaptive: Option<(&BTreeSet<Vec<OidId>>, u64)>,
    ) {
        let Ok(rq) = RootQuery::compile(q) else {
            return;
        };
        if g.incoming_counts().iter().any(|&n| n > 1) {
            return;
        }
        let cg = CostedGraph::new(g);
        let naive = evaluate_naive(&cg, &rq);
        let naive_cost = cg.cost();
        let (res, cost) = match adaptive {
            Some((r, c)) => (r.clone(), c),
            None => {
                let cg = CostedGraph::new(g);
                let r = evaluate_adaptive(&cg, &rq, q, s, tg);
                (r, cg.cost())
            }
        };
        checks.adaptive(label, q, g, &res, &naive, cost, naive_cost);
        self.adaptive_edges += cost;
        self.naive_edges += naive_cost;
    }
}

/// The §4.2 reference scan: bibliography titles at 5, 20, 80 and 320
/// papers. `cold-check` and `warm-serve` touch no data, so they report
/// `ao_edges` of this fixed scan; it moves only with the optimizer.
pub fn reference_scan(checks: &mut Checks) -> AoCount {
    let pool = SharedInterner::new();
    let s = corpus::parse_schema(PAPER_SCHEMA, &pool);
    let tg = TypeGraph::new(&s);
    let q = corpus::parse_query("SELECT X WHERE Root = [paper.title -> X]", &pool);
    let mut ao = AoCount::default();
    for papers in [5, 20, 80, 320] {
        match ssd_model::parse_data_graph(&bibliography(papers, 3), &pool) {
            Ok(g) => ao.run("reference scan", &q, &s, &tg, &g, checks, None),
            Err(e) => checks.expect(false, || format!("reference scan: {e}")),
        }
    }
    ao
}

enum Format {
    /// The paper's textual data-graph syntax.
    Text,
    Xml,
}

struct DocSchema {
    label: String,
    text: String,
    dtd: Option<String>,
    queries: Vec<String>,
    transform: Option<String>,
}

struct Doc {
    schema: usize,
    format: Format,
    text: String,
}

struct Corpus {
    schemas: Vec<DocSchema>,
    docs: Vec<Doc>,
}

const PAPER_QUERIES: &[&str] = &[
    "SELECT X WHERE Root = [paper.title -> X]",
    "SELECT X WHERE Root = [paper.author.name.lastname -> X]",
    "SELECT X WHERE Root = [_*.email -> X]",
    "SELECT X WHERE Root = [paper._*.firstname -> X]",
];
const PAPER_TRANSFORM: &str = "SELECT X0, X1 WHERE Root = [paper -> X0]; X0 = [author.name -> X1]";

fn corpus(seed: u64) -> Corpus {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDA7A);
    let mut schemas = vec![DocSchema {
        label: "bibliography".to_owned(),
        text: PAPER_SCHEMA.to_owned(),
        dtd: None,
        queries: PAPER_QUERIES.iter().map(|q| q.to_string()).collect(),
        transform: Some(PAPER_TRANSFORM.to_owned()),
    }];
    let mut docs = Vec::new();
    // Bibliographies: thirty of 16–19 papers, three medium, and one near
    // the 1 MiB parser limit. The thirty similar ones hold the median
    // document, so `op_p50_us` does not hinge on which generated
    // documents a seed draws.
    for i in 0..30 {
        let papers = 16 + rng.gen_range(0..4);
        docs.push(Doc {
            schema: 0,
            format: Format::Text,
            text: bibliography(papers, 1 + i % 3),
        });
    }
    for papers in [120, 200, 280] {
        docs.push(Doc {
            schema: 0,
            format: Format::Text,
            text: bibliography(papers, 2),
        });
    }
    docs.push(Doc {
        schema: 0,
        format: Format::Text,
        text: bibliography(1500, 2),
    });

    // Generated DTDs with XML documents, and generated tagged schemas
    // with sampled instances in the text syntax.
    for k in 0..5 {
        let xml = k < 2;
        let pool = SharedInterner::new();
        let (label, text, dtd, s) = if xml {
            let (dtd, parsed) = (0..64)
                .find_map(|_| {
                    let dtd = corpus::dtd_text(&mut rng, 8 + 2 * k);
                    ssd_schema::parse_dtd(&dtd, &pool).ok().map(|s| (dtd, s))
                })
                .unwrap_or_else(|| panic!("no generated DTD parses"));
            let text = corpus::xml_schema_text(&parsed, "e0");
            let s = corpus::parse_schema(&text, &pool);
            (format!("dtd-{k}"), text, Some(dtd), s)
        } else {
            let text = corpus::ordered_text(&mut rng, 8 + 2 * k, true);
            let s = corpus::parse_schema(&text, &pool);
            (format!("tagged-{k}"), text, None, s)
        };
        let tg = TypeGraph::new(&s);
        let mut queries = corpus::joinfree_texts(&s, &tg, &mut rng, 6, (1, 1), 0.0, false);
        queries.retain(|q| q.matches("->").count() == 1);
        queries.truncate(3);
        let transform = corpus::transformation(&s, &tg, &mut rng).map(|(t, _)| t);
        let si = schemas.len();
        for target in DOC_NODES {
            let g = sized_instance(&s, &tg, &mut rng, target)
                .unwrap_or_else(|e| panic!("{label}: sampling failed: {e}"));
            let (format, text) = if xml {
                (Format::Xml, corpus::to_xml(&g))
            } else {
                (Format::Text, g.to_string())
            };
            docs.push(Doc {
                schema: si,
                format,
                text,
            });
        }
        schemas.push(DocSchema {
            label,
            text,
            dtd,
            queries,
            transform,
        });
    }
    corpus::shuffle(&mut rng, &mut docs);
    Corpus { schemas, docs }
}

/// Target node counts of the sampled documents of each generated schema.
const DOC_NODES: [usize; 6] = [20, 60, 120, 400, 1000, 2000];

/// A conforming instance with close to `target` nodes: the largest of a
/// few samples capped at `target`.
fn sized_instance(
    s: &Schema,
    tg: &TypeGraph,
    rng: &mut StdRng,
    target: usize,
) -> ssd_base::Result<DataGraph> {
    let cfg = ssd_gen::data_gen::DataGenConfig {
        continue_prob: 0.9,
        max_nodes: target,
    };
    let mut best = ssd_gen::data_gen::sample_instance(s, tg, rng, &cfg)?;
    for _ in 0..16 {
        if best.len() * 5 >= target * 4 {
            break;
        }
        let g = ssd_gen::data_gen::sample_instance(s, tg, rng, &cfg)?;
        if g.len() > best.len() {
            best = g;
        }
    }
    Ok(best)
}

/// A schema as one round prepares it.
struct Prepared {
    s: Schema,
    queries: Vec<(Query, RootQuery)>,
    transform: Option<Transformation>,
}

fn prepare(
    c: &Corpus,
    pool: &SharedInterner,
    sess: &Session,
    tr: &Tracer,
) -> Result<Vec<Prepared>, String> {
    c.schemas
        .iter()
        .map(|d| {
            let s = {
                let _s = tr.span("schema.parse");
                if let Some(dtd) = &d.dtd {
                    // The DTD is parsed for real; the wrapper text binds
                    // its types behind the document root.
                    ssd_schema::parse_dtd(dtd, pool).map_err(|e| e.to_string())?;
                }
                ssd_schema::parse_schema(&d.text, pool).map_err(|e| format!("{}: {e}", d.label))?
            };
            {
                let _s = tr.span("schema.type_graph");
                tr.count("schema.type_graph_builds", 1.0);
                sess.type_graph(&s);
            }
            let mut queries = Vec::new();
            for text in &d.queries {
                let q = {
                    let _s = tr.span("query.parse");
                    ssd_query::parse_query(text, pool).map_err(|e| e.to_string())?
                };
                let rq = {
                    let _s = tr.span("optimizer.compile");
                    RootQuery::compile(&q).map_err(|e| format!("{}: {e}", d.label))?
                };
                queries.push((q, rq));
            }
            let transform = match &d.transform {
                Some(text) => {
                    let q = ssd_query::parse_query(text, pool).map_err(|e| e.to_string())?;
                    let (Some(x0), Some(x1)) = (q.var_by_name("X0"), q.var_by_name("X1")) else {
                        return Err("transformation query lost its variables".to_owned());
                    };
                    Some(corpus::skolem(q, x0, x1))
                }
                None => None,
            };
            Ok(Prepared {
                s,
                queries,
                transform,
            })
        })
        .collect()
}

/// What one document produced in the first round.
struct DocOut {
    conforms: bool,
    results: Vec<(BTreeSet<Vec<OidId>>, u64)>,
    nodes: usize,
}

pub fn run(args: &Args, start: Instant, tr: &Tracer, dir: &RunDir) -> Result<Outcome, String> {
    let c = corpus(args.seed);
    let reference = crate::cold::ReferenceRestart::prepare(dir, tr)?;
    let setup_s = start.elapsed().as_secs_f64();
    let bytes_per_round: usize = c.docs.iter().map(|d| d.text.len()).sum();

    let mut best = harness::BestOps::new(c.docs.len());
    let mut outs: Vec<DocOut> = Vec::new();
    let mut error: Option<String> = None;
    let mut nodes_per_round = 0usize;
    let mut first = true;
    let mut round_stats = None;
    let round_secs = harness::timed_rounds(args.seconds, || {
        let p0 = Instant::now();
        let pool = SharedInterner::new();
        let sess = Session::new();
        let prepared = match prepare(&c, &pool, &sess, tr) {
            Ok(p) => p,
            Err(e) => {
                error.get_or_insert(e);
                return;
            }
        };
        best.record_overhead(p0.elapsed().as_nanos() as u64);
        for (i, d) in c.docs.iter().enumerate() {
            let p = &prepared[d.schema];
            tr.set_request(i as u64);
            let t0 = Instant::now();
            let out = {
                let _op = tr.span("op");
                process(d, p, &pool, &sess, tr)
            };
            best.record(i, t0.elapsed().as_nanos() as u64);
            match out {
                Ok(o) if first => {
                    nodes_per_round += o.nodes;
                    outs.push(o);
                }
                Ok(_) => {}
                Err(e) => {
                    error.get_or_insert(format!("{}: {e}", c.schemas[d.schema].label));
                }
            }
        }
        first = false;
        if tr.on() {
            round_stats = Some(sess.stats());
        }
    });
    if let Some(e) = error {
        return Err(e);
    }
    let rounds = round_secs.len() as u64;
    let attempted = rounds * c.docs.len() as u64;

    // Checks and counts: outside the timed phase.
    let mut checks = Checks::default();
    checks.expect(best.complete(), || "a document was never timed".to_owned());
    let pool = SharedInterner::new();
    let sess = Session::new();
    let prepared = prepare(&c, &pool, &sess, &Tracer::new(false))?;
    let mut ao = AoCount::default();
    for (d, o) in c.docs.iter().zip(&outs) {
        let p = &prepared[d.schema];
        let label = &c.schemas[d.schema].label;
        let g = parse_doc(d, &pool)?;
        checks.expect(o.conforms, || {
            format!("{label}: a generated document does not conform")
        });
        checks.mutations(label, &g, &p.s);
        let tg = sess.type_graph(&p.s);
        for ((q, _), (res, cost)) in p.queries.iter().zip(&o.results) {
            ao.run(label, q, &p.s, &tg, &g, &mut checks, Some((res, *cost)));
        }
        if let Some(t) = &p.transform {
            let out = ssd_transform::apply(t, &g).map_err(|e| e.to_string())?;
            let inferred =
                ssd_transform::infer_output_schema(t, &p.s).map_err(|e| e.to_string())?;
            checks.expect(ssd_schema::conforms(&out, &inferred).is_some(), || {
                format!("{label}: transform output does not conform to the inferred schema")
            });
        }
    }
    let r = reference.restarts(tr)?;
    let saved = &reference.saved;
    checks.expect(r.verdicts_ok, || {
        "restart verdict differs from cold".to_owned()
    });

    let mut layers = harness::layers_from(tr, rounds);
    if let Some(st) = &round_stats {
        harness::cache_layers(&mut layers, st, 1);
    }
    let model_ms = layers.get("model.parse_ms").copied().unwrap_or(0.0);
    let conform_ms = layers.get("schema.conform_ms").copied().unwrap_or(0.0);
    if model_ms > 0.0 {
        layers.insert(
            "model.parse_mib_per_s",
            bytes_per_round as f64 / (1 << 20) as f64 / (model_ms / 1e3),
        );
    }
    if conform_ms > 0.0 {
        layers.insert(
            "schema.conform_nodes_per_s",
            nodes_per_round as f64 / (conform_ms / 1e3),
        );
    }
    layers.insert("snapshot.save_ms", saved.ms);
    layers.insert("snapshot.load_ms", r.load_ms);
    layers.insert("snapshot.sections_loaded", r.sections_loaded as f64);
    layers.insert("optimizer.naive_edges", ao.naive_edges as f64);

    let mut e2e = best.e2e(setup_s);
    e2e.push(("restart_ms", r.restart_ms, "ms"));
    e2e.push(("snapshot_bytes", saved.bytes as f64, "bytes"));
    e2e.push(("ao_edges", ao.adaptive_edges as f64, "edges"));
    let mut notes = vec![
        format!(
            "data-apps seed {}: {} documents ({:.2} MiB, {nodes_per_round} nodes) per round, {rounds} rounds",
            args.seed,
            c.docs.len(),
            bytes_per_round as f64 / (1 << 20) as f64
        ),
        format!(
            "A_O explored {} edges, naive {} ({:.1}% saved)",
            ao.adaptive_edges,
            ao.naive_edges,
            100.0 * (1.0 - ao.adaptive_edges as f64 / ao.naive_edges.max(1) as f64)
        ),
        format!("checks: {} passed, {} failed", checks.passed, checks.failures.len()),
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

fn parse_doc(d: &Doc, pool: &SharedInterner) -> Result<DataGraph, String> {
    match d.format {
        Format::Text => ssd_model::parse_data_graph(&d.text, pool),
        Format::Xml => ssd_model::parse_xml(&d.text, pool),
    }
    .map_err(|e| e.to_string())
}

/// One operation: parse, conform, `A_O` per query, apply.
fn process(
    d: &Doc,
    p: &Prepared,
    pool: &SharedInterner,
    sess: &Session,
    tr: &Tracer,
) -> Result<DocOut, String> {
    let g = {
        let _s = tr.span("model.parse");
        parse_doc(d, pool)?
    };
    let conforms = {
        let _s = tr.span("schema.conform");
        ssd_schema::conforms(&g, &p.s).is_some()
    };
    let tg = sess.type_graph(&p.s);
    let mut results = Vec::with_capacity(p.queries.len());
    for (q, rq) in &p.queries {
        let _s = tr.span("optimizer.adaptive");
        let cg = CostedGraph::new(&g);
        let r = evaluate_adaptive(&cg, rq, q, &p.s, &tg);
        results.push((r, cg.cost()));
    }
    if let Some(t) = &p.transform {
        let _s = tr.span("transform.apply");
        ssd_transform::apply(t, &g).map_err(|e| e.to_string())?;
    }
    Ok(DocOut {
        conforms,
        results,
        nodes: g.len(),
    })
}

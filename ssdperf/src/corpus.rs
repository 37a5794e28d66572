//! Seeded input generation shared by the workloads.
//!
//! Everything here runs before the timed phase. Schemas and queries are
//! produced as *text*, so the workloads time the parsers too; the
//! generators of `ssd-gen` supply the shapes (ordered, tagged and
//! unordered schemas, join-free queries, the 3SAT reduction, conforming
//! instances), and this module adds the shapes `ssd-gen` has no generator
//! for: D1's ladder, referenceable types, value joins, DTDs, XML text and
//! single-variable Skolem transformations.

use std::collections::{BTreeSet, VecDeque};

use ssd_base::rng::{Rng, StdRng};
use ssd_base::{LabelId, Result, SharedInterner};
use ssd_gen::data_gen::{sample_instance, DataGenConfig};
use ssd_gen::query_gen::{joinfree_query, QueryGenConfig};
use ssd_gen::schema_gen::{ordered_schema, unordered_schema, SchemaGenConfig};
use ssd_model::{DataGraph, Node};
use ssd_query::Query;
use ssd_schema::{Schema, TypeDef, TypeGraph};
use ssd_transform::skolem::Target;
use ssd_transform::{ConstructEdge, SkolemTerm, Transformation};

/// D1's ladder: `P{i} = [(a->P{i+1} | b->Q{i+1})]`, `Q{i}` alike, with
/// self-nesting leaves that no finite database realizes. Every type of
/// the region is uninhabited, and `TypeGraph::new` pays about 4.4× per
/// two levels to find that out.
pub fn ladder_defs(prefix: &str, depth: usize) -> String {
    let (p, q) = (format!("{prefix}P"), format!("{prefix}Q"));
    let mut s = String::new();
    for i in 0..depth {
        let j = i + 1;
        s.push_str(&format!(
            "{p}{i} = [(a->{p}{j} | b->{q}{j})];\n{q}{i} = [(a->{p}{j} | b->{q}{j})];\n"
        ));
    }
    s.push_str(&format!(
        "{p}{depth} = [c->{p}{depth}];\n{q}{depth} = [c->{q}{depth}]"
    ));
    s
}

/// A schema that is all ladder: its root is uninhabited, so every query
/// over it is unsatisfiable.
pub fn dead_ladder(depth: usize) -> String {
    ladder_defs("D", depth)
}

/// `text` (a schema whose first definition is its root) behind a new
/// root that also offers an optional edge into a ladder region of
/// `depth` levels. Live content is unchanged; the ladder is dead weight
/// that type-graph construction must still explore.
pub fn with_ladder(text: &str, root: &str, depth: usize) -> String {
    format!(
        "LROOT = [main->{root}.(dead->LP0)?];\n{};\n{text}",
        ladder_defs("L", depth)
    )
}

/// Parses a schema or panics: generated text is well-formed by
/// construction, so a failure is a generator bug.
pub fn parse_schema(text: &str, pool: &SharedInterner) -> Schema {
    ssd_schema::parse_schema(text, pool)
        .unwrap_or_else(|e| panic!("generated schema does not parse: {e}\n{text}"))
}

pub fn parse_query(text: &str, pool: &SharedInterner) -> Query {
    ssd_query::parse_query(text, pool)
        .unwrap_or_else(|e| panic!("generated query does not parse: {e}\n{text}"))
}

/// A random ordered (optionally tagged) schema, as text.
pub fn ordered_text(rng: &mut StdRng, types: usize, tagged: bool) -> String {
    let pool = SharedInterner::new();
    let cfg = SchemaGenConfig {
        num_types: types,
        tagged,
        ..Default::default()
    };
    ordered_schema(rng, &pool, &cfg).to_string()
}

/// A random unordered schema, as text.
pub fn unordered_text(rng: &mut StdRng, types: usize) -> String {
    let pool = SharedInterner::new();
    let cfg = SchemaGenConfig {
        num_types: types,
        fanout: 2,
        ..Default::default()
    };
    unordered_schema(rng, &pool, &cfg).to_string()
}

/// Marks every `k`-th collection type of a generated schema text as
/// referenceable (`&T3`), at its definition and at every reference.
pub fn make_referenceable(text: &str, every: usize) -> String {
    let names: BTreeSet<String> = text
        .lines()
        .filter_map(|l| l.split(" = ").next())
        .filter(|n| n.starts_with('T') && n[1..].parse::<usize>().is_ok_and(|i| i % every == 1))
        .map(str::to_owned)
        .collect();
    let mut out = String::with_capacity(text.len() + 64);
    for (li, line) in text.lines().enumerate() {
        if li > 0 {
            out.push('\n');
        }
        let mut rest = line;
        if let Some((head, _)) = line.split_once(" = ") {
            if names.contains(head) {
                out.push('&');
            }
        }
        while let Some(pos) = rest.find("->") {
            out.push_str(&rest[..pos + 2]);
            rest = &rest[pos + 2..];
            let end = rest
                .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .unwrap_or(rest.len());
            if names.contains(&rest[..end]) {
                out.push('&');
            }
        }
        out.push_str(rest);
    }
    out
}

/// Join-free queries sampled from `s`'s type graph, as text. A share
/// `perturb` of entries use an off-schema label, so verdicts mix.
pub fn joinfree_texts(
    s: &Schema,
    tg: &TypeGraph,
    rng: &mut StdRng,
    n: usize,
    defs: (usize, usize),
    perturb: f64,
    wildcard: bool,
) -> Vec<String> {
    up_to(n, || {
        let cfg = QueryGenConfig {
            num_defs: rng.gen_range(defs.0..=defs.1),
            fanout: 2,
            path_len: 2,
            wildcard_prefix: wildcard,
            perturb_prob: perturb,
        };
        joinfree_query(s, tg, rng, &cfg).ok().map(|q| q.to_string())
    })
}

/// Up to `n` results of `gen`, trying at most `8 n` times. Callers that
/// need exactly `n` regenerate the schema when fewer come back, so a
/// seed always yields the same number of operations.
fn up_to(n: usize, mut gen: impl FnMut() -> Option<String>) -> Vec<String> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..8 * n {
        if out.len() == n {
            break;
        }
        out.extend(gen());
    }
    out
}

/// A join-free query made projection-free: every variable but the root
/// is selected, so the inferred assignments are total up to the root.
pub fn select_all(q: &Query) -> String {
    let text = q.to_string();
    let vars: Vec<&str> = q
        .vars()
        .filter(|&v| v != q.root_var())
        .map(|v| q.var_name(v))
        .collect();
    let body = text
        .split_once("WHERE")
        .map_or(text.as_str(), |(_, b)| b)
        .trim();
    format!("SELECT {} WHERE {body}", vars.join(", "))
}

/// Node-join queries for schemas with referenceable types: a join-free
/// query plus two root entries that meet at one referenceable variable
/// (one join; dispatch routes it to bounded-join enumeration).
pub fn node_join_texts(s: &Schema, tg: &TypeGraph, rng: &mut StdRng, n: usize) -> Vec<String> {
    up_to(n, || {
        let cfg = QueryGenConfig {
            num_defs: rng.gen_range(1..=3),
            fanout: 2,
            path_len: 2,
            ..Default::default()
        };
        ssd_gen::query_gen::with_node_join(s, tg, rng, &cfg)
            .ok()
            .filter(|q| !ssd_query::QueryClass::of(q).join_free())
            .map(|q| q.to_string())
    })
}

/// Labels of edges into atomic types reachable from the root.
pub fn atomic_labels(s: &Schema, tg: &TypeGraph) -> Vec<LabelId> {
    let mut out = BTreeSet::new();
    let mut seen = vec![false; s.len()];
    let mut queue = VecDeque::from([s.root()]);
    seen[s.root().index()] = true;
    while let Some(t) = queue.pop_front() {
        for a in tg.step(t) {
            if matches!(s.def(a.target), TypeDef::Atomic(_)) {
                out.insert(a.label);
            }
            if !seen[a.target.index()] {
                seen[a.target.index()] = true;
                queue.push_back(a.target);
            }
        }
    }
    out.into_iter().collect()
}

/// Constant-suffix queries with `pairs` value joins (`_*.l -> Xa,
/// _*.m -> Xb; Xa = V; Xb = V`). More than four joins keep them out of
/// bounded-join enumeration, so over a tagged schema dispatch routes
/// them to the forced-assignment algorithm.
pub fn value_join_texts(
    s: &Schema,
    tg: &TypeGraph,
    rng: &mut StdRng,
    n: usize,
    pairs: usize,
) -> Vec<String> {
    let labels = atomic_labels(s, tg);
    if labels.is_empty() {
        return Vec::new();
    }
    let pool = s.pool();
    (0..n)
        .map(|_| {
            let mut entries = Vec::new();
            let mut defs = Vec::new();
            for k in 0..pairs {
                for side in ["A", "B"] {
                    let l = pool.resolve(labels[rng.gen_range(0..labels.len())]);
                    entries.push(format!("_*.{l} -> X{side}{k}"));
                    defs.push(format!("X{side}{k} = V{k}"));
                }
            }
            format!(
                "SELECT XA0 WHERE Root = [{}]; {}",
                entries.join(", "),
                defs.join("; ")
            )
        })
        .collect()
}

/// Unordered-pattern queries: a join-free query with its patterns
/// rewritten from `[…]` to `{…}`.
pub fn unordered_query(text: &str) -> String {
    text.replace('[', "{").replace(']', "}")
}

/// A random DTD: elements form layers (element `i` names only elements
/// after it), the last ones are `#PCDATA`, and content models mix
/// sequences, `* ? +` and two-way alternations.
pub fn dtd_text(rng: &mut StdRng, elements: usize) -> String {
    let n = elements.max(3);
    let leaves = (n / 3).max(2);
    let mut out = String::new();
    for i in 0..n {
        let content = if i >= n - leaves {
            "#PCDATA".to_owned()
        } else {
            let parts = rng.gen_range(1..=3);
            let mut items = Vec::new();
            for _ in 0..parts {
                let a = rng.gen_range(i + 1..n);
                let item = if rng.gen_bool(0.25) {
                    let b = rng.gen_range(i + 1..n);
                    format!("(e{a}|e{b})")
                } else {
                    format!("e{a}")
                };
                let op = match rng.gen_range(0..4) {
                    0 => "*",
                    1 => "?",
                    2 => "+",
                    _ => "",
                };
                items.push(format!("{item}{op}"));
            }
            format!("({})", items.join(","))
        };
        out.push_str(&format!("<!ELEMENT e{i} {content} >\n"));
    }
    out
}

/// The schema an XML document of `dtd` validates against: `parse_xml`
/// wraps the document element in a root node, so the DTD's types sit
/// behind a wrapper root.
pub fn xml_schema_text(dtd: &Schema, root_element: &str) -> String {
    format!("WRAP = [{root_element}->E_{root_element}];\n{dtd}")
}

/// Serializes a tree-shaped data graph whose root has one edge (the
/// document element) as XML.
pub fn to_xml(g: &DataGraph) -> String {
    let mut out = String::new();
    for e in g.edges(g.root()) {
        write_element(g, &g.label_name(e.label), e.target, &mut out);
    }
    out
}

fn write_element(g: &DataGraph, name: &str, oid: ssd_base::OidId, out: &mut String) {
    out.push('<');
    out.push_str(name);
    out.push('>');
    match g.node(oid) {
        Node::Atomic(v) => match v {
            ssd_model::Value::Str(s) => out.push_str(s),
            other => out.push_str(&other.to_string()),
        },
        Node::Ordered(es) | Node::Unordered(es) => {
            for e in es {
                write_element(g, &g.label_name(e.label), e.target, out);
            }
        }
    }
    out.push_str("</");
    out.push_str(name);
    out.push('>');
}

/// Conforming instances of `s`, each no bigger than `max_nodes`.
pub fn instances(
    s: &Schema,
    tg: &TypeGraph,
    rng: &mut StdRng,
    n: usize,
    continue_prob: f64,
    max_nodes: usize,
) -> Result<Vec<DataGraph>> {
    let cfg = DataGenConfig {
        continue_prob,
        max_nodes,
    };
    (0..n).map(|_| sample_instance(s, tg, rng, &cfg)).collect()
}

/// A single-variable Skolem transformation driven by a two-level
/// join-free query `Root = [p -> X0]; X0 = [r -> X1]`: the output root
/// `Out` gets one `item` child per `X0` and, under it, one `sub` child
/// per `X1`. Returns `None` when the schema offers no two-level path.
pub fn transformation(
    s: &Schema,
    tg: &TypeGraph,
    rng: &mut StdRng,
) -> Option<(String, Transformation)> {
    for _ in 0..16 {
        let cfg = QueryGenConfig {
            num_defs: 2,
            fanout: 1,
            path_len: 1,
            ..Default::default()
        };
        let Ok(q) = joinfree_query(s, tg, rng, &cfg) else {
            continue;
        };
        let (Some(x0), Some(x1)) = (q.var_by_name("X0"), q.var_by_name("X1")) else {
            continue;
        };
        let text = format!(
            "SELECT X0, X1 WHERE {}",
            q.to_string().split_once("WHERE")?.1.trim()
        );
        let q = ssd_query::parse_query(&text, s.pool()).ok()?;
        let (x0, x1) = (
            q.var_by_name("X0").unwrap_or(x0),
            q.var_by_name("X1").unwrap_or(x1),
        );
        return Some((text, skolem(q, x0, x1)));
    }
    None
}

/// Builds the `Out --item--> F(X0) --sub--> G(X1)` rules over `q`.
pub fn skolem(q: Query, x0: ssd_base::VarId, x1: ssd_base::VarId) -> Transformation {
    let pool = q.pool().clone();
    Transformation {
        query: q,
        rules: vec![
            ConstructEdge {
                source: SkolemTerm::constant("Out"),
                label: pool.intern("item"),
                target: Target::Term(SkolemTerm::unary("F", x0)),
            },
            ConstructEdge {
                source: SkolemTerm::unary("F", x0),
                label: pool.intern("sub"),
                target: Target::Term(SkolemTerm::unary("G", x1)),
            },
        ],
        root_fun: "Out".to_owned(),
    }
}

/// Target schemas for [`skolem`] transformations: the permissive one
/// admits every output, the strict one demands exactly one `sub` per
/// `item` and is rejected by the static check. `apply` makes every
/// Skolem node referenceable, so the targets' types are too.
pub const TARGET_PERMISSIVE: &str = "OUT = {(item->&F)*}; &F = {(sub->&G)*}; &G = {()}";
pub const TARGET_STRICT: &str = "OUT = {(item->&F)*}; &F = {sub->&G}; &G = {()}";

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

//! Correctness checks, computed apart from the engine and run outside
//! the timed phase.
//!
//! A verdict is wrong if some conforming database contradicts it. The
//! checks therefore evaluate queries on conforming instances with the
//! reference evaluator of Def 2.2 (`ssd_query::evaluate`), confirm
//! conformance with Def 2.1 (`ssd_schema::conforms`), and compare 3SAT
//! verdicts with brute force.

use std::collections::BTreeSet;

use ssd_base::OidId;
use ssd_core::infer::{InferredAssignment, InferredValue};
use ssd_model::{DataGraph, Edge, GraphBuilder, Node};
use ssd_query::{Bound, Query};
use ssd_schema::Schema;

/// Accumulated check outcomes of one run.
#[derive(Default, Debug)]
pub struct Checks {
    pub passed: u64,
    pub failures: Vec<String>,
    /// SAT verdicts confirmed by a sampled instance on which the query
    /// is non-empty.
    pub sat_confirmed: u64,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else if self.failures.len() < 20 {
            self.failures.push(what());
        } else {
            self.failures.truncate(20);
            self.failures.push("…more failures".to_owned());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// A satisfiability verdict against conforming instances: every
    /// instance must conform (Def 2.1), and if the query matches on one
    /// (Def 2.2) the verdict must be SAT.
    pub fn sat_on_instances(
        &mut self,
        label: &str,
        q: &Query,
        s: &Schema,
        instances: &[DataGraph],
        verdict: bool,
    ) {
        let mut witnessed = false;
        for g in instances {
            self.expect(ssd_schema::conforms(g, s).is_some(), || {
                format!("{label}: sampled instance does not conform")
            });
            if !witnessed && ssd_query::is_nonempty(q, g) {
                witnessed = true;
            }
        }
        if witnessed {
            self.expect(verdict, || {
                format!("{label}: UNSAT verdict, but the query matches a conforming instance")
            });
            if verdict {
                self.sat_confirmed += 1;
            }
        }
    }

    /// Inference on a schema whose conformance typing is unique: every
    /// assignment realized on an instance is among `inferred`.
    pub fn inference(
        &mut self,
        label: &str,
        q: &Query,
        s: &Schema,
        instances: &[DataGraph],
        inferred: &[InferredAssignment],
    ) {
        let inferred: BTreeSet<&InferredAssignment> = inferred.iter().collect();
        for g in instances {
            let Some(ty) = ssd_schema::conforms(g, s) else {
                self.expect(false, || format!("{label}: instance does not conform"));
                continue;
            };
            for b in ssd_query::evaluate(q, g) {
                let entries = q
                    .select()
                    .iter()
                    .filter_map(|&v| {
                        let val = match b.get(v)? {
                            Bound::Node(o) => InferredValue::Type(ty[o.index()]),
                            Bound::Label(l) => InferredValue::Label(*l),
                            Bound::Value(_) => return None,
                        };
                        Some((v, val))
                    })
                    .collect();
                let a = InferredAssignment { entries };
                self.expect(inferred.contains(&a), || {
                    format!("{label}: realized assignment {a:?} missing from inference")
                });
            }
        }
    }

    /// Prop 4.1(a): the feedback query returns what the query returns on
    /// every instance.
    pub fn feedback(&mut self, label: &str, q: &Query, fb: &Query, instances: &[DataGraph]) {
        for g in instances {
            self.expect(
                ssd_query::select_results(q, g) == ssd_query::select_results(fb, g),
                || format!("{label}: feedback query changes results"),
            );
        }
    }

    /// `A_O` against the naive evaluator and the reference semantics, and
    /// Theorem 4.2's cost bound.
    #[allow(clippy::too_many_arguments)]
    pub fn adaptive(
        &mut self,
        label: &str,
        q: &Query,
        g: &DataGraph,
        adaptive: &BTreeSet<Vec<OidId>>,
        naive: &BTreeSet<Vec<OidId>>,
        adaptive_edges: u64,
        naive_edges: u64,
    ) {
        self.expect(adaptive == naive, || {
            format!("{label}: A_O and naive results differ")
        });
        let reference: BTreeSet<Vec<OidId>> = ssd_query::select_results(q, g)
            .into_iter()
            .filter_map(|t| {
                t.into_iter()
                    .map(|b| match b {
                        Some(Bound::Node(o)) => Some(o),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        self.expect(*adaptive == reference, || {
            format!("{label}: A_O results differ from select_results")
        });
        self.expect(adaptive_edges <= naive_edges, || {
            format!("{label}: A_O explored {adaptive_edges} edges, naive {naive_edges}")
        });
    }

    /// Generated documents conform; copies with an undeclared label added
    /// or a required child removed do not.
    pub fn mutations(&mut self, label: &str, g: &DataGraph, s: &Schema) {
        let Some(ty) = ssd_schema::conforms(g, s) else {
            self.expect(false, || {
                format!("{label}: generated document does not conform")
            });
            return;
        };
        let added = add_undeclared_label(g);
        self.expect(ssd_schema::conforms(&added, s).is_none(), || {
            format!("{label}: document with an undeclared label still conforms")
        });
        if let Some(removed) = remove_required_child(g, s, &ty) {
            self.expect(ssd_schema::conforms(&removed, s).is_none(), || {
                format!("{label}: document missing a required child still conforms")
            });
        }
    }
}

/// A copy of `g` with `edit` applied to each collection node's edge list
/// (edges may point at new atomic leaves, given as values); nodes the
/// edits leave unreachable are dropped.
fn rebuild(
    g: &DataGraph,
    mut edit: impl FnMut(OidId, &mut Vec<(ssd_base::LabelId, Result<OidId, ssd_model::Value>)>),
) -> DataGraph {
    let mut edges: Vec<Vec<(ssd_base::LabelId, Result<OidId, ssd_model::Value>)>> = g
        .oids()
        .map(|o| g.edges(o).iter().map(|e| (e.label, Ok(e.target))).collect())
        .collect();
    for o in g.oids() {
        if !matches!(g.node(o), Node::Atomic(_)) {
            edit(o, &mut edges[o.index()]);
        }
    }
    let mut b = GraphBuilder::new(g.pool().clone());
    let mut ids: Vec<Option<OidId>> = vec![None; g.len()];
    let mut order = vec![g.root()];
    ids[g.root().index()] = Some(b.declare_fresh(g.is_referenceable(g.root())));
    let mut i = 0;
    while i < order.len() {
        for (_, t) in &edges[order[i].index()] {
            if let Ok(t) = t {
                if ids[t.index()].is_none() {
                    ids[t.index()] = Some(b.declare_fresh(g.is_referenceable(*t)));
                    order.push(*t);
                }
            }
        }
        i += 1;
    }
    fn fail<T>(e: ssd_base::Error) -> T {
        panic!("copying a valid graph: {e}")
    }
    for &o in &order {
        let nid = ids[o.index()].unwrap_or_else(|| panic!("every listed node has an id"));
        let mut out = Vec::new();
        for (l, t) in &edges[o.index()] {
            let target = match t {
                Ok(t) => ids[t.index()].unwrap_or_else(|| panic!("reachable")),
                Err(v) => {
                    let leaf = b.declare_fresh(false);
                    b.define_atomic(leaf, v.clone()).unwrap_or_else(fail);
                    leaf
                }
            };
            out.push(Edge::new(*l, target));
        }
        match g.node(o) {
            Node::Atomic(v) => b.define_atomic(nid, v.clone()),
            Node::Ordered(_) => b.define_ordered(nid, out),
            Node::Unordered(_) => b.define_unordered(nid, out),
        }
        .unwrap_or_else(fail);
    }
    let root = ids[g.root().index()].unwrap_or_else(|| panic!("the root has an id"));
    b.finish_with_root(root).unwrap_or_else(fail)
}

/// Adds an edge with a label no schema declares below the root.
fn add_undeclared_label(g: &DataGraph) -> DataGraph {
    let root = g.root();
    let label = g.pool().intern("zz_undeclared");
    rebuild(g, |o, es| {
        if o == root {
            es.push((label, Err(ssd_model::Value::Int(0))));
        }
    })
}

/// Removes one child whose absence the node's content model rejects,
/// judged by simulating the type's Glushkov automaton on the remaining
/// word (the schemas here are tagged, so a node's type is fixed by its
/// typing). `None` if every child is optional.
fn remove_required_child(g: &DataGraph, s: &Schema, ty: &[ssd_base::TypeIdx]) -> Option<DataGraph> {
    for o in g.oids() {
        let Some(nfa) = s.nfa(ty[o.index()]) else {
            continue;
        };
        let word: Vec<_> = g.edges(o).iter().map(|e| e.label).collect();
        for skip in 0..word.len() {
            let mut states = vec![nfa.start()];
            for (i, l) in word.iter().enumerate() {
                if i == skip {
                    continue;
                }
                let mut next: Vec<usize> = states
                    .iter()
                    .flat_map(|&q| nfa.edges(q).iter())
                    .filter(|(a, _)| a.label == *l)
                    .map(|&(_, r)| r)
                    .collect();
                next.sort_unstable();
                next.dedup();
                states = next;
            }
            if !states.iter().any(|&q| nfa.is_accepting(q)) {
                return Some(rebuild(g, |n, es| {
                    if n == o {
                        let _ = es.remove(skip);
                    }
                }));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_base::SharedInterner;
    use ssd_gen::corpora::{bibliography, PAPER_SCHEMA};

    fn paper() -> (Schema, Query, DataGraph) {
        let pool = SharedInterner::new();
        let s = ssd_schema::parse_schema(PAPER_SCHEMA, &pool).unwrap();
        let q = ssd_query::parse_query("SELECT X WHERE Root = [paper.title -> X]", &pool).unwrap();
        let g = ssd_model::parse_data_graph(&bibliography(3, 2), &pool).unwrap();
        (s, q, g)
    }

    /// Negative control: one flipped verdict fed to the checker is caught.
    #[test]
    fn a_flipped_verdict_is_caught() {
        let (s, q, g) = paper();
        let truth = ssd_core::Session::new()
            .satisfiable(&q, &s)
            .unwrap()
            .satisfiable;
        assert!(truth);
        let mut ok = Checks::default();
        ok.sat_on_instances("control", &q, &s, std::slice::from_ref(&g), truth);
        assert!(ok.correct() && ok.sat_confirmed == 1);
        let mut flipped = Checks::default();
        flipped.sat_on_instances("control", &q, &s, &[g], !truth);
        assert!(!flipped.correct(), "a flipped verdict went unnoticed");
    }

    #[test]
    fn mutated_documents_are_rejected() {
        let (s, _, g) = paper();
        let mut c = Checks::default();
        c.mutations("bib", &g, &s);
        assert!(c.correct(), "{:?}", c.failures);
        assert_eq!(c.passed, 2, "both mutations applied and rejected");
    }

    #[test]
    fn a_missing_inferred_assignment_is_caught() {
        let (s, q, g) = paper();
        let inferred = ssd_core::Session::new().infer(&q, &s).unwrap();
        let mut ok = Checks::default();
        ok.inference("infer", &q, &s, std::slice::from_ref(&g), &inferred);
        assert!(ok.correct() && ok.passed > 0, "{:?}", ok.failures);
        let mut missing = Checks::default();
        missing.inference("infer", &q, &s, &[g], &[]);
        assert!(!missing.correct());
    }
}

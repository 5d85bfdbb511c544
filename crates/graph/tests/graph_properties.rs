//! Property-based and scenario tests for the graph model: text round-trips,
//! classification, unpacking of compressed graphs, and `apply_delta` against
//! an op-by-op reference.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;

use shapex_graph::generate::{sample_from_shape, GraphGen};
use shapex_graph::{parse_graph, write_graph, DeltaReport, Graph, GraphDelta, GraphKind};
use shapex_rbe::Interval;

/// One generated delta operation: `(kind, source, label, target)`. Kinds 0
/// and 1 add an edge, kind 2 removes one; endpoints index a node-name pool.
type Op = (u8, usize, usize, usize);

const LABELS: [&str; 3] = ["p", "q", "r"];

fn node_name(index: usize, pool: usize) -> String {
    format!("n{}", index % pool)
}

fn delta_of(ops: &[Op], pool: usize) -> GraphDelta {
    let mut delta = GraphDelta::new();
    for &(kind, s, l, t) in ops {
        let (s, t) = (node_name(s, pool), node_name(t, pool));
        if kind < 2 {
            delta.add_edge(s, LABELS[l], t);
        } else {
            delta.remove_edge(s, LABELS[l], t);
        }
    }
    delta
}

/// What `apply_delta` must do, spelled out one op at a time through the
/// public `node` / `add_edge` / `remove_edge` API, with the dirty set
/// collected in an ordered set.
fn reference_apply(g: &mut Graph, ops: &[Op], pool: usize) -> DeltaReport {
    let mut report = DeltaReport::default();
    let mut dirty = BTreeSet::new();
    for &(kind, s, l, t) in ops {
        let (s, t, label) = (node_name(s, pool), node_name(t, pool), LABELS[l]);
        if kind < 2 {
            let mut endpoint = |g: &mut Graph, name: &str| {
                let before = g.node_count();
                let id = g.node(name);
                if g.node_count() > before {
                    report.added_nodes += 1;
                    dirty.insert(id);
                }
                id
            };
            let source = endpoint(g, &s);
            let target = endpoint(g, &t);
            g.add_edge(source, label, target);
            report.added_edges += 1;
            dirty.insert(source);
        } else {
            let found = g.find_node(&s).zip(g.find_node(&t)).and_then(|(s, t)| {
                g.out(s)
                    .iter()
                    .copied()
                    .find(|&e| g.label(e).as_str() == label && g.target(e) == t)
            });
            match found {
                Some(edge) => {
                    let (source, _) = g.remove_edge(edge);
                    report.removed_edges += 1;
                    dirty.insert(source);
                }
                None => report.missing_removals += 1,
            }
        }
    }
    report.dirty = dirty.into_iter().collect();
    report
}

/// Every edge as `(source, label, target)`, in edge-id order.
fn edge_list(g: &Graph) -> Vec<(u32, String, u32)> {
    g.edges()
        .map(|e| (g.source(e).0, g.label(e).to_string(), g.target(e).0))
        .collect()
}

/// `g` must equal the reference graph id for id, and its grouped adjacency
/// must equal that of a graph freshly built from its edges.
fn assert_same_graph(g: &Graph, reference: &Graph, pool: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.node_count(), reference.node_count());
    for v in g.nodes() {
        prop_assert_eq!(g.node_name(v), reference.node_name(v));
        prop_assert_eq!(g.out(v), reference.out(v));
        prop_assert_eq!(g.ins(v), reference.ins(v));
    }
    for i in 0..pool {
        let name = node_name(i, pool);
        prop_assert_eq!(g.find_node(&name), reference.find_node(&name));
    }
    prop_assert_eq!(edge_list(g), edge_list(reference));
    for label in LABELS {
        prop_assert_eq!(g.find_label(label), reference.find_label(label));
    }
    let mut fresh = Graph::new();
    for v in g.nodes() {
        fresh.add_named_node(g.node_name(v));
    }
    for e in g.edges() {
        fresh.add_edge(g.source(e), g.label(e).clone(), g.target(e));
    }
    for v in g.nodes() {
        for label in LABELS {
            let (Some(ours), Some(theirs)) = (g.find_label(label), fresh.find_label(label)) else {
                continue;
            };
            prop_assert_eq!(g.out_by_label(v, ours), fresh.out_by_label(v, theirs));
            prop_assert_eq!(g.in_by_label(v, ours), fresh.in_by_label(v, theirs));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_simple_graphs_roundtrip_through_text(seed in 0u64..10_000, nodes in 1usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = GraphGen::new(nodes, 3).out_degree(1.5).simple(&mut rng);
        let text = write_graph(&g);
        let back = parse_graph(&text).unwrap();
        prop_assert_eq!(back.node_count(), g.node_count());
        prop_assert_eq!(back.edge_count(), g.edge_count());
        prop_assert!(back.is_simple());
        // Every edge survives with its label and endpoints.
        for e in g.edges() {
            let src = g.node_name(g.source(e));
            let dst = g.node_name(g.target(e));
            let found = back.edges().any(|f| {
                back.node_name(back.source(f)) == src
                    && back.node_name(back.target(f)) == dst
                    && back.label(f) == g.label(e)
            });
            prop_assert!(found, "missing edge {src} -{}-> {dst}", g.label(e));
        }
    }

    #[test]
    fn shape_graph_samples_embed_structurally(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = GraphGen::new(5, 3).out_degree(2.0).shape(&mut rng);
        prop_assert!(shape.is_shape_graph());
        let sample = sample_from_shape(&mut rng, &shape, 40);
        prop_assert!(sample.is_simple());
        prop_assert!(sample.node_count() <= 40);
    }

    #[test]
    fn unpacking_preserves_edge_totals(multiplicities in proptest::collection::vec(1u64..5, 1..4)) {
        // A chain hub -p[k1]-> n1 -p[k2]-> n2 ... unpacks into a tree whose
        // edge count equals the sum over prefixes of products.
        let mut g = Graph::new();
        let mut prev = g.node("n0");
        for (i, &k) in multiplicities.iter().enumerate() {
            let next = g.node(&format!("n{}", i + 1));
            g.add_edge_with(prev, "p", Interval::exactly(k), next);
            prev = next;
        }
        prop_assert!(g.is_compressed(), "a chain of [k;k] edges is a compressed graph");
        let unpacked = g.unpack(100_000).unwrap();
        prop_assert!(unpacked.is_simple());
        let mut expected_edges = 0u64;
        let mut copies = 1u64;
        for &k in &multiplicities {
            expected_edges += copies * k;
            copies *= k;
        }
        prop_assert_eq!(unpacked.edge_count() as u64, expected_edges);
        // Each non-root node receives exactly one incoming edge.
        prop_assert_eq!(unpacked.edge_count(), unpacked.node_count() - 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `apply_delta` is pinned exactly: its report, node ids, edges, and
    /// grouped adjacency equal an op-by-op reference, whether or not the
    /// grouped cache is built while the deltas land. Small pools give
    /// duplicate adds and removals that hit; large ones give new nodes,
    /// missing removals, and deltas that touch enough nodes to drop the
    /// grouped overlay.
    #[test]
    fn apply_delta_matches_an_op_by_op_reference(
        pool in 2usize..48,
        deltas in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0usize..48, 0usize..3, 0usize..48), 0..40),
            1..6,
        ),
    ) {
        let mut reference = Graph::new();
        let mut cold = Graph::new();
        let mut warm = Graph::new();
        for ops in &deltas {
            let expected = reference_apply(&mut reference, ops, pool);
            let delta = delta_of(ops, pool);
            prop_assert_eq!(&cold.apply_delta(&delta), &expected);
            // Build (or rebuild, if the last delta dropped it) the grouped
            // cache, so the delta is repaired incrementally.
            if let Some(v) = warm.nodes().next() {
                let _ = warm.out_groups(v).count();
            }
            prop_assert_eq!(&warm.apply_delta(&delta), &expected);
            assert_same_graph(&warm, &reference, pool)?;
        }
        // Only now is the cold graph's grouped cache built, from scratch.
        assert_same_graph(&cold, &reference, pool)?;
    }
}

#[test]
fn kind_is_stable_under_isolated_nodes() {
    let mut g = parse_graph("a -p-> b\n").unwrap();
    assert_eq!(g.kind(), GraphKind::Simple);
    g.add_named_node("isolated");
    assert_eq!(g.kind(), GraphKind::Simple);
}

#[test]
fn labels_are_sorted_and_deduplicated() {
    let g = parse_graph("a -z-> b\na -m-> b\nb -z-> a\n").unwrap();
    let labels = g.labels();
    assert_eq!(labels.len(), 2);
    assert_eq!(labels[0].as_str(), "m");
    assert_eq!(labels[1].as_str(), "z");
}

#[test]
fn out_bags_reflect_parallel_labels() {
    let g = parse_graph("hub -p-> a\nhub -p-> b\nhub -q-> a\n").unwrap();
    let hub = g.find_node("hub").unwrap();
    let bag = g.out_bag(hub);
    assert_eq!(bag.total(), 3);
    assert_eq!(bag.distinct(), 3, "distinct (label, target) pairs");
}

//! The cross-function half of the guard-scope analysis: stitches the
//! per-function results of [`crate::guards`] into a workspace-wide
//! lock-acquisition graph (rule **L6**) and a blocking-under-lock report
//! (rule **L7**).
//!
//! Call edges are approximated by *name resolution*: a call site `f(…)` /
//! `x.f(…)` resolves to a workspace function only when exactly one
//! function named `f` exists in the scanned set and the name is not on the
//! `AMBIGUOUS` list of std-colliding method names. This under-approximates
//! (trait dispatch, closures and shadowed names stay unresolved) — sound
//! enough for a lint that must never drown the signal in noise, and the
//! `lock_order` runtime witness (PR 4) covers what slips through at
//! execution time.
//!
//! Per-function summaries are computed to a fixpoint: `acquires(f)` is the
//! set of locks `f` takes while its entry guards are live, directly or
//! through resolved calls; `blocks(f)` is the first blocking operation
//! reachable the same way. An operation inside a `MutexGuard::unlocked`
//! window that suspends an entry guard is *not* charged to callers — the
//! caller's lock is released there.

use crate::guards::{FileAnalysis, FnInfo, LockId};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// Method/function names that collide with std or trait methods so often
/// that name resolution would mostly be wrong; calls to these never
/// resolve to workspace functions.
const AMBIGUOUS: [&str; 40] = [
    "new", "default", "clone", "drop", "fmt", "from", "into", "next", "len", "is_empty", "get",
    "insert", "remove", "push", "pop", "iter", "flush", "send", "record", "append", "extend",
    "contains", "take", "replace", "clear", "reset", "start", "finish", "close", "open", "create",
    "delete", "run", "build", "parse", "encode", "decode", "min", "max", "add",
];

/// One edge of the acquisition graph: `from` is held while `to` is taken.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub from: LockId,
    pub to: LockId,
    /// Where the edge was observed.
    pub file: String,
    pub line: usize,
    /// The resolved callee the acquisition happened through, if indirect.
    pub via: Option<String>,
}

/// The workspace lock-acquisition graph plus the L6/L7 findings derived
/// from it. [`crate::Report`] carries the statistics into `--format json`
/// and the workspace self-test.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Distinct locks observed in at least one acquisition or held set.
    pub locks: BTreeSet<LockId>,
    /// Deduplicated held→taken edges.
    pub edges: Vec<LockEdge>,
    /// Lock cycles (each a list of locks, smallest-first rotation).
    pub cycles: Vec<Vec<LockId>>,
    pub findings: Vec<Finding>,
}

struct FnNode<'a> {
    info: &'a FnInfo,
    /// Locks acquired while entry guards are live, transitively.
    acquires: BTreeSet<LockId>,
    /// First blocking operation reachable with entry guards live:
    /// (description, site).
    blocks: Option<(String, String)>,
}

/// Runs L6 + L7 over the analyzed library files.
pub fn check(files: &[FileAnalysis]) -> LockGraph {
    // Workspace lock declarations, for resolving what guards.rs could not
    // within one file: `MutexGuard<'_, T>` parameters (placeholder ids of
    // the form `<T>`) and uses of a lock another file declares. A directory
    // module is one module split across files, so a lock its `mod.rs`
    // declares is that same lock in every sibling file.
    let mut by_ty: BTreeMap<&str, Vec<&LockId>> = BTreeMap::new();
    let mut declared: BTreeSet<&LockId> = BTreeSet::new();
    for fa in files {
        for d in &fa.locks {
            by_ty.entry(d.inner_ty.as_str()).or_default().push(&d.id);
            declared.insert(&d.id);
        }
    }
    let resolve_lock = |l: &LockId| -> LockId {
        if declared.contains(l) {
            return l.clone();
        }
        let parent_mod = l.file.rsplit_once('/').map(|(dir, _)| format!("{dir}/mod.rs"));
        if let Some(ty) = l.name.strip_prefix('<').and_then(|n| n.strip_suffix('>')) {
            let ids = by_ty.get(ty).map_or(&[][..], Vec::as_slice);
            let in_parent = ids.iter().find(|id| Some(&id.file) == parent_mod.as_ref());
            return match (in_parent, ids) {
                (Some(id), _) | (None, [id]) => (*id).clone(),
                _ => l.clone(),
            };
        }
        let in_parent = parent_mod.map(|file| LockId { file, name: l.name.clone() });
        in_parent.filter(|id| declared.contains(id)).unwrap_or_else(|| l.clone())
    };

    // Function index for name resolution.
    let mut by_name: BTreeMap<&str, Vec<&FnInfo>> = BTreeMap::new();
    for fa in files {
        for f in &fa.fns {
            by_name.entry(f.name.as_str()).or_default().push(f);
        }
    }
    let mut nodes: Vec<FnNode<'_>> = files
        .iter()
        .flat_map(|fa| fa.fns.iter())
        .map(|info| FnNode {
            info,
            acquires: info
                .acquisitions
                .iter()
                .filter(|a| a.under_entry)
                .map(|a| resolve_lock(&a.lock))
                .collect(),
            blocks: None,
        })
        .collect();
    let index_of: BTreeMap<(&str, usize), usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| ((n.info.file.as_str(), n.info.line), i))
        .collect();
    let resolve_call = |callee: &str| -> Option<usize> {
        if AMBIGUOUS.contains(&callee) {
            return None;
        }
        match by_name.get(callee).map(Vec::as_slice) {
            Some([one]) => index_of.get(&(one.file.as_str(), one.line)).copied(),
            _ => None,
        }
    };

    // Fixpoint over summaries (the call graph may have recursion; the
    // sets only grow, so this terminates).
    loop {
        let mut changed = false;
        for i in 0..nodes.len() {
            let mut acq = nodes[i].acquires.clone();
            let mut blocks = nodes[i]
                .info
                .blocking
                .iter()
                .find(|b| b.under_entry)
                .map(|b| {
                    (
                        b.what.clone(),
                        format!("{}:{}", nodes[i].info.file, b.line),
                    )
                });
            for c in nodes[i].info.calls.iter().filter(|c| c.under_entry) {
                if let Some(j) = resolve_call(&c.callee) {
                    if j == i {
                        continue;
                    }
                    acq.extend(nodes[j].acquires.iter().cloned());
                    if blocks.is_none() {
                        if let Some((what, site)) = &nodes[j].blocks {
                            blocks = Some((format!("{} via `{}`", what, c.callee), site.clone()));
                        }
                    }
                }
            }
            if acq != nodes[i].acquires {
                nodes[i].acquires = acq;
                changed = true;
            }
            if blocks.is_some() && nodes[i].blocks.is_none() {
                nodes[i].blocks = blocks;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // --- build the graph and the findings ---------------------------------
    let mut graph = LockGraph::default();
    let mut edge_set: BTreeMap<(LockId, LockId), usize> = BTreeMap::new();
    let add_edge = |graph: &mut LockGraph,
                        edge_set: &mut BTreeMap<(LockId, LockId), usize>,
                        from: LockId,
                        to: LockId,
                        file: &str,
                        line: usize,
                        via: Option<String>| {
        graph.locks.insert(from.clone());
        graph.locks.insert(to.clone());
        if let std::collections::btree_map::Entry::Vacant(e) =
            edge_set.entry((from.clone(), to.clone()))
        {
            e.insert(graph.edges.len());
            graph.edges.push(LockEdge {
                from,
                to,
                file: file.to_string(),
                line,
                via,
            });
        }
    };

    let mut l7: Vec<Finding> = Vec::new();
    for n in &nodes {
        let f = n.info;
        for a in &f.acquisitions {
            let to = resolve_lock(&a.lock);
            graph.locks.insert(to.clone());
            for h in &a.held {
                let from = resolve_lock(h);
                // Direct same-lock reacquisition is an instant self-deadlock
                // with the non-reentrant parking_lot primitives — but only
                // when the receiver is the same object, which an index
                // expression (`shards[i]`) cannot guarantee.
                if from == to && a.receiver.contains("[..]") {
                    continue;
                }
                add_edge(&mut graph, &mut edge_set, from, to.clone(), &f.file, a.line, None);
            }
        }
        for c in f.calls.iter().filter(|c| !c.held.is_empty()) {
            if let Some(j) = resolve_call(&c.callee) {
                for h in &c.held {
                    let from = resolve_lock(h);
                    for to in &nodes[j].acquires {
                        if *to == from {
                            // Reacquisition through a call: real in
                            // principle, but name resolution cannot see
                            // that callers pass the live guard down by
                            // reference; leave this to the runtime witness.
                            continue;
                        }
                        add_edge(
                            &mut graph,
                            &mut edge_set,
                            from.clone(),
                            to.clone(),
                            &f.file,
                            c.line,
                            Some(c.callee.clone()),
                        );
                    }
                }
                if let Some((what, site)) = &nodes[j].blocks {
                    let held = describe_held(&c.held, &resolve_lock);
                    l7.push(Finding::new(
                        &f.file,
                        c.line,
                        "L7",
                        format!(
                            "call to `{}` blocks ({what}, at {site}) while holding {held}",
                            c.callee
                        ),
                    ));
                }
            }
        }
        for b in f.blocking.iter().filter(|b| !b.held.is_empty()) {
            let held = describe_held(&b.held, &resolve_lock);
            l7.push(Finding::new(
                &f.file,
                b.line,
                "L7",
                format!("{} while holding {held}", b.what),
            ));
        }
    }
    l7.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    l7.dedup();

    // --- cycles (Tarjan SCC over the lock graph) --------------------------
    graph.cycles = find_cycles(&graph);
    for cycle in &graph.cycles {
        let mut path: Vec<String> = cycle.iter().map(|l| l.to_string()).collect();
        path.push(cycle[0].to_string());
        let sites: Vec<String> = cycle
            .iter()
            .enumerate()
            .filter_map(|(i, from)| {
                let to = &cycle[(i + 1) % cycle.len()];
                edge_set
                    .get(&(from.clone(), to.clone()))
                    .map(|&e| format!("{}:{}", graph.edges[e].file, graph.edges[e].line))
            })
            .collect();
        let at = cycle
            .iter()
            .filter_map(|from| {
                edge_set
                    .get(&(from.clone(), cycle[0].clone()))
                    .or_else(|| edge_set.get(&(cycle[0].clone(), from.clone())))
            })
            .next()
            .map(|&e| (graph.edges[e].file.clone(), graph.edges[e].line))
            .unwrap_or_else(|| (cycle[0].file.clone(), 1));
        graph.findings.push(Finding::new(
            &at.0,
            at.1,
            "L6",
            format!(
                "potential deadlock: lock-acquisition cycle {} (edges at {})",
                path.join(" -> "),
                sites.join(", ")
            ),
        ));
    }
    graph.findings.extend(l7);
    graph
}

fn describe_held(held: &[LockId], resolve: &dyn Fn(&LockId) -> LockId) -> String {
    let names: Vec<String> = held
        .iter()
        .map(|h| format!("`{}`", resolve(h)))
        .collect();
    format!(
        "lock{} {}",
        if names.len() > 1 { "s" } else { "" },
        names.join(", ")
    )
}

/// Elementary cycles via SCC decomposition: every SCC with more than one
/// node (or a self-loop) is reported once, as the SCC's node list in a
/// canonical rotation. Good enough for a lint — the fix is breaking the
/// SCC, not enumerating its combinatorial cycle set.
fn find_cycles(graph: &LockGraph) -> Vec<Vec<LockId>> {
    let nodes: Vec<&LockId> = graph.locks.iter().collect();
    let idx: BTreeMap<&LockId, usize> = nodes.iter().enumerate().map(|(i, &l)| (l, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut self_loop = vec![false; nodes.len()];
    for e in &graph.edges {
        let (f, t) = (idx[&e.from], idx[&e.to]);
        if f == t {
            self_loop[f] = true;
        } else {
            adj[f].push(t);
        }
    }

    // Iterative Tarjan.
    let n = nodes.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        // (node, next child position)
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            if *ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(*ci) {
                *ci += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    if scc.len() > 1 {
                        sccs.push(scc);
                    }
                }
                call.pop();
                if let Some(&mut (u, _)) = call.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }

    let mut cycles: Vec<Vec<LockId>> = Vec::new();
    for (i, has) in self_loop.iter().enumerate() {
        if *has {
            cycles.push(vec![nodes[i].clone()]);
        }
    }
    for scc in sccs {
        let mut ids: Vec<LockId> = scc.iter().map(|&i| nodes[i].clone()).collect();
        ids.sort();
        cycles.push(ids);
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guards::analyze_file;
    use crate::lexer::prepare;

    fn run(sources: &[(&str, &str)]) -> LockGraph {
        let files: Vec<FileAnalysis> = sources
            .iter()
            .map(|(rel, src)| analyze_file(rel, &prepare(src)))
            .collect();
        check(&files)
    }

    #[test]
    fn two_lock_cycle_across_functions_is_reported() {
        let g = run(&[(
            "crates/x/src/lib.rs",
            "struct S { a: Mutex<A>, b: Mutex<B> }\n\
             impl S {\n\
             fn forward(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
             fn backward(&self) { let h = self.b.lock(); let g = self.a.lock(); }\n\
             }",
        )]);
        assert_eq!(g.cycles.len(), 1, "{:?}", g.findings);
        assert!(g.findings.iter().any(|f| f.rule == "L6"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let g = run(&[(
            "crates/x/src/lib.rs",
            "struct S { a: Mutex<A>, b: Mutex<B> }\n\
             impl S {\n\
             fn one(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
             fn two(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
             }",
        )]);
        assert!(g.cycles.is_empty());
        assert!(g.findings.iter().all(|f| f.rule != "L6"));
        assert_eq!(g.edges.len(), 1);
    }

    #[test]
    fn cycle_through_a_call_edge() {
        let g = run(&[(
            "crates/x/src/lib.rs",
            "struct S { a: Mutex<A>, b: Mutex<B> }\n\
             impl S {\n\
             fn outer(&self) { let g = self.a.lock(); self.helper_b(); }\n\
             fn helper_b(&self) { let h = self.b.lock(); }\n\
             fn other(&self) { let h = self.b.lock(); let g = self.a.lock(); }\n\
             }",
        )]);
        assert_eq!(g.cycles.len(), 1, "edges: {:?}", g.edges);
        assert!(g.edges.iter().any(|e| e.via.as_deref() == Some("helper_b")));
    }

    #[test]
    fn blocking_propagates_through_calls() {
        let g = run(&[(
            "crates/x/src/lib.rs",
            "struct S { a: Mutex<A> }\n\
             impl S {\n\
             fn outer(&self) { let g = self.a.lock(); self.slow_io(); }\n\
             fn slow_io(&self) { with_retry(x, y); }\n\
             }",
        )]);
        let l7: Vec<&Finding> = g.findings.iter().filter(|f| f.rule == "L7").collect();
        assert_eq!(l7.len(), 1, "{:?}", g.findings);
        assert!(l7[0].message.contains("slow_io"), "{}", l7[0].message);
    }

    #[test]
    fn unlocked_window_is_not_charged_to_callers() {
        let g = run(&[(
            "crates/x/src/lib.rs",
            "struct S { state: Mutex<Inner> }\n\
             impl S {\n\
             fn leader(&self) { let mut st = self.state.lock(); self.commit(&mut st); }\n\
             fn commit(&self, st: &mut MutexGuard<'_, Inner>) {\n\
               let r = MutexGuard::unlocked(st, || { with_retry(x, y) });\n\
             }\n\
             }",
        )]);
        assert!(
            g.findings.iter().all(|f| f.rule != "L7"),
            "unlocked window flagged: {:?}",
            g.findings
        );
    }

    #[test]
    fn guard_param_blocking_is_charged() {
        let g = run(&[(
            "crates/x/src/lib.rs",
            "struct S { state: Mutex<Inner> }\n\
             impl S {\n\
             fn rotate(&self, st: &mut MutexGuard<'_, Inner>) { with_retry(x, y); }\n\
             }",
        )]);
        let l7: Vec<&Finding> = g.findings.iter().filter(|f| f.rule == "L7").collect();
        assert_eq!(l7.len(), 1, "{:?}", g.findings);
        assert!(l7[0].message.contains("state"));
    }

    #[test]
    fn a_lock_declared_in_mod_rs_is_one_lock_across_the_directory() {
        let g = run(&[
            ("crates/x/src/db/mod.rs", "struct S { state: Mutex<State> }"),
            (
                "crates/x/src/db/write.rs",
                "impl S {\n\
                 fn put(&self) { let mut st = self.state.lock(); self.rotate(&mut st); }\n\
                 fn rotate(&self, st: &mut MutexGuard<'_, State>) { with_retry(x, y); }\n\
                 }",
            ),
            // Another crate's `Mutex<State>` keeps the type ambiguous.
            ("crates/y/src/lib.rs", "struct T { state: Mutex<State> }"),
        ]);
        let locks: Vec<String> = g.locks.iter().map(|l| l.to_string()).collect();
        assert_eq!(locks, ["crates/x/src/db/mod.rs:state"]);
        let l7: Vec<&Finding> = g.findings.iter().filter(|f| f.rule == "L7").collect();
        assert_eq!(l7.len(), 2, "{:?}", g.findings);
        assert!(l7.iter().all(|f| f.message.contains("`crates/x/src/db/mod.rs:state`")));
    }

    #[test]
    fn self_reacquisition_is_a_cycle() {
        let g = run(&[(
            "crates/x/src/lib.rs",
            "struct S { a: Mutex<A> }\n\
             impl S { fn f(&self) { let g = self.a.lock(); let h = self.a.lock(); } }",
        )]);
        assert_eq!(g.cycles.len(), 1);
        assert_eq!(g.cycles[0].len(), 1);
    }

    #[test]
    fn indexed_receivers_do_not_self_cycle() {
        let g = run(&[(
            "crates/x/src/lib.rs",
            "struct S { shards: Vec<Mutex<A>> }\n\
             impl S { fn f(&self, i: usize, j: usize) {\n\
               let g = self.shards[i].lock(); let h = self.shards[j].lock(); } }",
        )]);
        assert!(g.cycles.is_empty(), "{:?}", g.cycles);
    }
}

//! `tman-network` — discrimination networks for join trigger conditions.
//!
//! The paper uses an **A-TREAT network** \[Hans96\], "a variation of the
//! TREAT network \[Mira87\]", and states its results "are applicable to
//! TREAT, Rete \[Forg82\] and Gator networks". \[Hans97b\]'s Gator network
//! is the general shape and the other three are special cases of it, so
//! this crate has one structure and one routine, and a [`NetworkKind`] only
//! picks the plan:
//!
//! * a **join tree**: a leaf per tuple variable, holding either a stored
//!   alpha memory (the variable's selection result) or a *virtual* alpha
//!   that scans the base data source through [`AlphaSource`] when read;
//!   join nodes above the leaves, each of which may store its result;
//! * [`Network::activate`]: a token's delta walks from its leaf to the
//!   root. At each level it is joined against the contents of its
//!   siblings, connected ones first, checking the join edges between the
//!   newly bound variables and the bound ones; a stored node takes the
//!   delta in on the way (a `-` token removes one equal entry per delta
//!   entry), and the catch-all conjuncts are checked at the root.
//!
//! | kind | leaves | joins |
//! |---|---|---|
//! | [`NetworkKind::ATreat`] | virtual | one unstored root |
//! | [`NetworkKind::Treat`] | stored | one unstored root |
//! | [`NetworkKind::Rete`] | stored | a left-deep chain of stored binary joins; its top is the P-node memory |
//! | [`NetworkKind::Gator`] | stored | greedy pair clusters, stored, under an unstored root; a leftover variable is a plain leaf |
//!
//! Tokens arrive with a [`Polarity`] (`+` insert / `-` delete; updates are
//! split by the engine into `-old` then `+new` for join triggers). A full
//! match reaching the root produces a [`Firing`] with one bound tuple per
//! variable.
//!
//! §5.1's trigger "priming" is [`Network::prime`]: stored memories are
//! populated from the base data when the trigger is created, the leaves
//! first and then the stored joins bottom-up, with the same join routine.

use std::cell::OnceCell;
use tman_common::{DataSourceId, Result, TmanError, Tuple};
use tman_expr::cnf::{ConditionGraph, JoinEdge};
use tman_expr::Env;
use tman_sync::RwLock;

/// Token polarity through the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// Insertion (`+` token).
    Plus,
    /// Deletion (`-` token).
    Minus,
}

/// A complete rule-condition match.
#[derive(Debug, Clone, PartialEq)]
pub struct Firing {
    /// `+` = the combination came into existence; `-` = it ceased to.
    pub polarity: Polarity,
    /// One tuple per tuple variable, in `from`-list order.
    pub bindings: Vec<Tuple>,
}

/// Access to base data-source contents, for virtual alpha nodes (A-TREAT)
/// and for priming stored memories. Implemented by the engine over its
/// tables; tests use in-memory vectors.
pub trait AlphaSource {
    /// Visit the current tuples of `data_src`. The caller applies selection
    /// predicates itself.
    fn scan_source(
        &self,
        data_src: DataSourceId,
        visit: &mut dyn FnMut(&Tuple) -> Result<()>,
    ) -> Result<()>;
}

/// Which discrimination network to build: the plan of the join tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkKind {
    /// Stored alpha memories, no stored joins.
    Treat,
    /// Virtual alpha memories (the paper's network).
    ATreat,
    /// Stored alphas plus a left-deep chain of stored binary joins.
    Rete,
    /// Gator network (\[Hans97b\], the paper's planned upgrade): join
    /// memories of arbitrary fan-in, the tunable middle ground between
    /// TREAT and Rete. This plan pairs join-connected variables greedily
    /// and stores each pair's join, so a token joins against the few
    /// pre-joined pairs instead of every alpha memory.
    Gator,
}

impl NetworkKind {
    /// Does this plan keep stored memories? Those must see every token of
    /// every variable, deletes included, to stay equal to their sources;
    /// A-TREAT's virtual alphas read the sources instead.
    pub fn stores_memories(self) -> bool {
        self != NetworkKind::ATreat
    }
}

/// A node of the join tree.
struct Node {
    /// The variables an entry binds, ascending: one for a leaf.
    vars: Vec<usize>,
    /// `vars` as a bit set.
    mask: u64,
    /// `None` for the root.
    parent: Option<usize>,
    /// The nodes a delta of this one joins against on its way to
    /// `parent`, in join order ([`Network::join_order`]).
    siblings: Vec<usize>,
    /// The node's entries, `vars.len()` tuples each, back to back. `None`
    /// for an unstored node; a leaf without one is a virtual alpha.
    memory: Option<RwLock<Vec<Tuple>>>,
}

impl Node {
    /// Take a delta into a stored memory: append it, or remove one equal
    /// entry per delta entry.
    fn store(&self, polarity: Polarity, delta: &[Tuple]) {
        let Some(memory) = &self.memory else { return };
        if delta.is_empty() {
            return;
        }
        let mut mem = memory.write();
        let k = self.vars.len();
        match polarity {
            Polarity::Plus => mem.extend_from_slice(delta),
            Polarity::Minus => {
                for entry in delta.chunks(k) {
                    if let Some(i) = mem.chunks(k).position(|e| e == entry) {
                        mem.drain(i * k..(i + 1) * k);
                    }
                }
            }
        }
    }
}

/// A compiled discrimination network for one trigger.
pub struct Network {
    kind: NetworkKind,
    graph: ConditionGraph,
    var_sources: Vec<DataSourceId>,
    /// Leaf `v` for variable `v` first, then the join nodes, each after
    /// its children; the last node is the root, binding every variable.
    nodes: Vec<Node>,
    /// Variable driven by the trigger's `on` event.
    event_var: usize,
}

/// Does join edge `e` run between the variable sets `x` and `y`?
fn spans(e: &JoinEdge, x: u64, y: u64) -> bool {
    let (a, b) = (1u64 << e.a, 1u64 << e.b);
    (a & x != 0 && b & y != 0) || (b & x != 0 && a & y != 0)
}

impl Network {
    /// Compile a network from a trigger's condition graph.
    ///
    /// `var_sources[v]` is the data source bound to variable `v`;
    /// `event_var` is the variable named in the `on` clause (or the single
    /// variable for selection-only triggers).
    pub fn build(
        kind: NetworkKind,
        graph: ConditionGraph,
        var_sources: Vec<DataSourceId>,
        event_var: usize,
    ) -> Result<Network> {
        let n = graph.num_vars;
        if n != var_sources.len() {
            return Err(TmanError::Internal(format!(
                "graph has {n} vars, {} sources supplied",
                var_sources.len()
            )));
        }
        if n == 0 {
            return Err(TmanError::Invalid(
                "trigger needs at least one tuple variable".into(),
            ));
        }
        let mut net = Network {
            kind,
            graph,
            var_sources,
            nodes: Vec::new(),
            event_var,
        };
        for v in 0..n {
            net.add_node(vec![v], &[], kind.stores_memories());
        }
        let all: Vec<usize> = (0..n).collect();
        match kind {
            NetworkKind::ATreat | NetworkKind::Treat => {
                net.add_node(all.clone(), &all, false);
            }
            NetworkKind::Rete => {
                (1..n).fold(0, |top, v| {
                    let vars = (0..=v).collect();
                    net.add_node(vars, &[top, v], true)
                });
            }
            NetworkKind::Gator => {
                let top = net.pair_clusters();
                net.add_node(all, &top, false);
            }
        }
        for i in 0..net.nodes.len() {
            net.nodes[i].siblings = net.join_order(i);
        }
        Ok(net)
    }

    /// Append a node over `vars` (ascending) with `children`; returns its
    /// index.
    fn add_node(&mut self, vars: Vec<usize>, children: &[usize], stored: bool) -> usize {
        let id = self.nodes.len();
        for &c in children {
            self.nodes[c].parent = Some(id);
        }
        self.nodes.push(Node {
            mask: vars.iter().fold(0, |m, &v| m | 1 << v),
            vars,
            parent: None,
            siblings: Vec::new(),
            memory: stored.then(|| RwLock::new(Vec::new())),
        });
        id
    }

    /// Gator's greedy pair clustering: take each unclustered variable in
    /// turn and pair it with a join-connected unclustered partner (any
    /// partner if none is connected) under a stored join; a leftover
    /// variable stays a plain leaf. Real Gator optimizers pick shapes by
    /// cost (\[Hans97b\]); pairing is the simplest non-trivial shape
    /// between TREAT (no stored joins) and Rete (one left-deep chain).
    /// Returns the nodes under the root.
    fn pair_clusters(&mut self) -> Vec<usize> {
        let n = self.graph.num_vars;
        let mut used = vec![false; n];
        let mut top = Vec::new();
        for v in 0..n {
            if used[v] {
                continue;
            }
            used[v] = true;
            // Every variable before `v` is taken, so a partner comes after it.
            let connected = |u: usize| self.graph.joins.iter().any(|e| spans(e, 1 << v, 1 << u));
            let partner = (0..n)
                .filter(|&u| !used[u])
                .find(|&u| connected(u))
                .or_else(|| (0..n).find(|&u| !used[u]));
            top.push(match partner {
                Some(u) => {
                    used[u] = true;
                    self.add_node(vec![v, u], &[v, u], true)
                }
                None => v,
            });
        }
        top
    }

    /// The siblings a delta of `node` joins against, in join order: each
    /// next one is join-connected to what is already bound if any is
    /// (avoiding cross products), else the first left.
    fn join_order(&self, node: usize) -> Vec<usize> {
        let Some(parent) = self.nodes[node].parent else {
            return Vec::new();
        };
        let mut rest: Vec<usize> = (0..self.nodes.len())
            .filter(|&s| s != node && self.nodes[s].parent == Some(parent))
            .collect();
        let mut bound = self.nodes[node].mask;
        let mut order = Vec::with_capacity(rest.len());
        while !rest.is_empty() {
            let mask = |s: usize| self.nodes[s].mask;
            let next = rest
                .iter()
                .position(|&s| self.graph.joins.iter().any(|e| spans(e, mask(s), bound)))
                .unwrap_or(0);
            let s = rest.remove(next);
            bound |= mask(s);
            order.push(s);
        }
        order
    }

    /// The network kind.
    pub fn kind(&self) -> NetworkKind {
        self.kind
    }

    /// Number of tuple variables.
    pub fn num_vars(&self) -> usize {
        self.graph.num_vars
    }

    /// The event-driving variable.
    pub fn event_var(&self) -> usize {
        self.event_var
    }

    /// Total tuples held in stored memories, leaves and joins — the memory
    /// metric of experiment E8.
    pub fn memory_tuples(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|n| n.memory.as_ref())
            .map(|m| m.read().len())
            .sum()
    }

    /// Does `tuple` satisfy variable `v`'s selection predicate?
    pub fn selection_matches(&self, v: usize, tuple: &Tuple) -> Result<bool> {
        let sel = &self.graph.selections[v];
        if sel.is_truth() {
            return Ok(true);
        }
        let mut binds: Vec<Option<&Tuple>> = vec![None; self.graph.num_vars];
        binds[v] = Some(tuple);
        sel.matches(&Env {
            tuples: &binds,
            consts: &[],
        })
    }

    /// §5.1 priming: populate the stored memories from base data so the
    /// network reflects pre-existing rows.
    pub fn prime(&self, source: &dyn AlphaSource) -> Result<()> {
        for v in self.stored_leaves() {
            self.prime_leaf(v, source)?;
        }
        self.prime_joins(source)
    }

    /// §6 *data-level concurrency*: "a set of data values in an alpha or
    /// beta memory node ... can be processed by a query that can run in
    /// parallel." Filling a stored leaf is such a query (one selection
    /// scan), so each stored leaf is filled on its own thread; a virtual
    /// leaf holds nothing and starts none. The stored joins follow.
    pub fn prime_parallel(&self, source: &(dyn AlphaSource + Sync)) -> Result<()> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .stored_leaves()
                .map(|v| scope.spawn(move || self.prime_leaf(v, source)))
                .collect();
            for h in handles {
                h.join()
                    .map_err(|_| TmanError::Internal("priming thread panicked".into()))??;
            }
            Ok::<(), TmanError>(())
        })?;
        self.prime_joins(source)
    }

    fn stored_leaves(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.graph.num_vars).filter(|&v| self.nodes[v].memory.is_some())
    }

    fn prime_leaf(&self, v: usize, source: &dyn AlphaSource) -> Result<()> {
        if let Some(mem) = &self.nodes[v].memory {
            *mem.write() = self.scan(v, source)?;
        }
        Ok(())
    }

    /// Fill the stored joins bottom-up (a node comes after its children):
    /// each is one child's contents joined with its siblings.
    fn prime_joins(&self, source: &dyn AlphaSource) -> Result<()> {
        for (id, node) in self.nodes.iter().enumerate() {
            let Some(mem) = &node.memory else { continue };
            if let Some(child) = self.nodes.iter().position(|c| c.parent == Some(id)) {
                let rows = self.join(child, &self.candidates(child, source)?, source)?;
                *mem.write() = rows;
            }
        }
        Ok(())
    }

    /// Feed a token for variable `var` through the network. The token must
    /// already satisfy `var`'s selection predicate (the predicate index
    /// guarantees this in the engine; [`Network::selection_matches`] is
    /// available for direct users).
    ///
    /// Full matches are delivered to `fire`.
    pub fn activate(
        &self,
        var: usize,
        polarity: Polarity,
        tuple: &Tuple,
        source: &dyn AlphaSource,
        fire: &mut dyn FnMut(Firing),
    ) -> Result<()> {
        if var >= self.graph.num_vars {
            return Err(TmanError::Internal(format!("no variable {var}")));
        }
        let mut node = var;
        let mut delta = vec![tuple.clone()];
        loop {
            self.nodes[node].store(polarity, &delta);
            let Some(parent) = self.nodes[node].parent else {
                break;
            };
            delta = self.join(node, &delta, source)?;
            node = parent;
        }
        // The root binds every variable, in order.
        for bindings in delta.chunks(self.graph.num_vars) {
            if self.catch_all_ok(bindings)? {
                fire(Firing {
                    polarity,
                    bindings: bindings.to_vec(),
                });
            }
        }
        Ok(())
    }

    /// Join a delta of `node` against its siblings: the delta of its
    /// parent. A sibling's candidates are fetched once, when first needed.
    fn join(&self, node: usize, delta: &[Tuple], source: &dyn AlphaSource) -> Result<Vec<Tuple>> {
        let from = &self.nodes[node];
        let parent = &self.nodes[from.parent.expect("the root has no siblings")];
        let candidates: Vec<OnceCell<Vec<Tuple>>> =
            from.siblings.iter().map(|_| OnceCell::new()).collect();
        let mut binds = vec![None; self.graph.num_vars];
        let mut out = Vec::new();
        for entry in delta.chunks(from.vars.len()) {
            for (&v, t) in from.vars.iter().zip(entry) {
                binds[v] = Some(t);
            }
            self.extend(
                &from.siblings,
                &candidates,
                from.mask,
                &mut binds,
                source,
                &mut |b| out.extend(parent.vars.iter().map(|&v| b[v].cloned().unwrap())),
            )?;
        }
        Ok(out)
    }

    /// Bind `siblings[0]`'s entries in turn where the edges to the
    /// `bound` variables hold, and recurse over the rest; `emit` sees
    /// every complete binding.
    fn extend<'a>(
        &self,
        siblings: &[usize],
        candidates: &'a [OnceCell<Vec<Tuple>>],
        bound: u64,
        binds: &mut [Option<&'a Tuple>],
        source: &dyn AlphaSource,
        emit: &mut dyn FnMut(&[Option<&Tuple>]),
    ) -> Result<()> {
        let Some((&sib, rest)) = siblings.split_first() else {
            emit(binds);
            return Ok(());
        };
        let cell = &candidates[0];
        if cell.get().is_none() {
            let _ = cell.set(self.candidates(sib, source)?);
        }
        let node = &self.nodes[sib];
        for entry in cell.get().expect("just set").chunks(node.vars.len()) {
            for (&v, t) in node.vars.iter().zip(entry) {
                binds[v] = Some(t);
            }
            if self.edges_hold(binds, node.mask, bound)? {
                self.extend(
                    rest,
                    &candidates[1..],
                    bound | node.mask,
                    binds,
                    source,
                    emit,
                )?;
            }
        }
        Ok(())
    }

    /// The one place a node's contents are handed out: a copy of a stored
    /// memory, or a virtual leaf's scan of its source.
    fn candidates(&self, node: usize, source: &dyn AlphaSource) -> Result<Vec<Tuple>> {
        match &self.nodes[node].memory {
            Some(mem) => Ok(mem.read().clone()),
            None => self.scan(node, source),
        }
    }

    /// The rows of variable `v`'s source that pass its selection.
    fn scan(&self, v: usize, source: &dyn AlphaSource) -> Result<Vec<Tuple>> {
        debug_assert!(v < self.graph.num_vars, "only a leaf reads a source");
        let mut rows = Vec::new();
        source.scan_source(self.var_sources[v], &mut |t| {
            if self.selection_matches(v, t)? {
                rows.push(t.clone());
            }
            Ok(())
        })?;
        Ok(rows)
    }

    /// Do the join edges between the variables `new` and `bound` hold?
    fn edges_hold(&self, binds: &[Option<&Tuple>], new: u64, bound: u64) -> Result<bool> {
        let env = Env {
            tuples: binds,
            consts: &[],
        };
        for e in &self.graph.joins {
            if spans(e, new, bound) && !e.pred.matches(&env)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Evaluate the catch-all conjuncts (trivial and hyper-join) on a full
    /// binding — §5.1's "special cases".
    fn catch_all_ok(&self, bindings: &[Tuple]) -> Result<bool> {
        if self.graph.catch_all.is_empty() {
            return Ok(true);
        }
        let binds: Vec<Option<&Tuple>> = bindings.iter().map(Some).collect();
        let env = Env {
            tuples: &binds,
            consts: &[],
        };
        for c in &self.graph.catch_all {
            if c.eval(&env)? != Some(true) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// A trivial [`AlphaSource`] over in-memory relations (tests and the
/// baseline implementations).
#[derive(Default)]
pub struct MemSource {
    relations: RwLock<tman_common::fxhash::FxHashMap<DataSourceId, Vec<Tuple>>>,
}

impl MemSource {
    /// Empty source set.
    pub fn new() -> MemSource {
        MemSource::default()
    }

    /// Replace the contents of a source.
    pub fn set(&self, src: DataSourceId, rows: Vec<Tuple>) {
        self.relations.write().insert(src, rows);
    }

    /// Append one row.
    pub fn push(&self, src: DataSourceId, row: Tuple) {
        self.relations.write().entry(src).or_default().push(row);
    }

    /// Remove one row equal to `row`.
    pub fn remove(&self, src: DataSourceId, row: &Tuple) {
        if let Some(rows) = self.relations.write().get_mut(&src) {
            if let Some(pos) = rows.iter().position(|t| t == row) {
                rows.remove(pos);
            }
        }
    }
}

impl AlphaSource for MemSource {
    fn scan_source(
        &self,
        data_src: DataSourceId,
        visit: &mut dyn FnMut(&Tuple) -> Result<()>,
    ) -> Result<()> {
        if let Some(rows) = self.relations.read().get(&data_src) {
            for t in rows {
                visit(t)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests;

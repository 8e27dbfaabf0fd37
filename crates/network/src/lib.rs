//! `tman-network` — discrimination networks for join trigger conditions.
//!
//! The paper uses an **A-TREAT network** \[Hans96\], "a variation of the
//! TREAT network \[Mira87\]", and states its results "are applicable to
//! TREAT, Rete \[Forg82\] and Gator networks". This crate implements all
//! four:
//!
//! * [`NetworkKind::Treat`] — stored alpha memories per tuple variable, no
//!   beta memories; a token joins against all other alpha memories on
//!   arrival.
//! * [`NetworkKind::ATreat`] — TREAT with *virtual alpha nodes*: instead
//!   of materializing the selection result, a virtual alpha stores only the
//!   selection predicate and scans the base data source through
//!   [`AlphaSource`] at join time. The variable the trigger's `on` event
//!   names keeps no memory at all (its tokens drive the network).
//! * [`NetworkKind::Rete`] — classical left-deep binary join network with
//!   beta memories holding partial bindings.
//! * [`NetworkKind::Gator`] — the paper's planned upgrade (\[Hans97b\]):
//!   pair-cluster join memories, the tunable middle ground between TREAT
//!   and Rete.
//!
//! Tokens arrive with a [`Polarity`] (`+` insert / `-` delete; updates are
//! split by the engine into `-old` then `+new` for join triggers). A full
//! match reaching the P-node produces a [`Firing`] with one bound tuple per
//! variable.
//!
//! §5.1's trigger "priming" is [`Network::prime`]: stored memories are
//! populated from the base data when the trigger is created.

use parking_lot::RwLock;
use std::sync::Arc;
use tman_common::{DataSourceId, Result, TmanError, Tuple};
use tman_expr::cnf::ConditionGraph;
use tman_expr::scalar::Env;

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

/// Which discrimination network to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkKind {
    /// Stored alpha memories, no betas.
    Treat,
    /// Virtual alpha memories (the paper's network).
    ATreat,
    /// Stored alphas plus left-deep beta memories.
    Rete,
    /// Gator network (\[Hans97b\], the paper's planned upgrade): a
    /// generalization of TREAT and Rete where join memories have arbitrary
    /// fan-in. This implementation clusters the tuple variables into
    /// join-connected pairs, materializes each cluster's join, and lets
    /// tokens join against the (few, pre-joined) cluster memories instead
    /// of every alpha memory.
    Gator,
}

enum Alpha {
    /// Materialized selection result.
    Stored(RwLock<Vec<Tuple>>),
    /// Predicate only; base data scanned on demand (A-TREAT's innovation).
    Virtual,
}

/// A Gator join memory: the materialized join of a group of variables.
struct Cluster {
    /// Member variables, in memory-entry order.
    vars: Vec<usize>,
    /// Joined partial bindings (one tuple per member, parallel to `vars`).
    memory: RwLock<Vec<Vec<Tuple>>>,
}

/// A compiled discrimination network for one trigger.
pub struct Network {
    kind: NetworkKind,
    graph: ConditionGraph,
    var_sources: Vec<DataSourceId>,
    alphas: Vec<Alpha>,
    /// Rete only: beta\[k\] holds bindings of variables 0..=k+1 (beta\[0\]
    /// joins vars 0 and 1, the last beta is the P-node's memory).
    betas: Vec<RwLock<Vec<Vec<Tuple>>>>,
    /// Gator only: pair-cluster join memories.
    clusters: Vec<Cluster>,
    /// Variable driven by the trigger's `on` event (never materialized for
    /// A-TREAT).
    event_var: usize,
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
        if graph.num_vars != var_sources.len() {
            return Err(TmanError::Internal(format!(
                "graph has {} vars, {} sources supplied",
                graph.num_vars,
                var_sources.len()
            )));
        }
        if graph.num_vars == 0 {
            return Err(TmanError::Invalid(
                "trigger needs at least one tuple variable".into(),
            ));
        }
        let alphas = (0..graph.num_vars)
            .map(|_| match kind {
                NetworkKind::ATreat => Alpha::Virtual,
                // TREAT, Rete and Gator all keep stored selection results.
                _ => Alpha::Stored(RwLock::new(Vec::new())),
            })
            .collect();
        let betas = if kind == NetworkKind::Rete && graph.num_vars >= 2 {
            (0..graph.num_vars - 1)
                .map(|_| RwLock::new(Vec::new()))
                .collect()
        } else {
            Vec::new()
        };
        let clusters = if kind == NetworkKind::Gator && graph.num_vars >= 2 {
            Self::plan_clusters(&graph)
        } else {
            Vec::new()
        };
        Ok(Network {
            kind,
            graph,
            var_sources,
            alphas,
            betas,
            clusters,
            event_var,
        })
    }

    /// Greedy pair clustering: repeatedly take an unclustered variable and
    /// pair it with a join-connected unclustered partner (any partner if
    /// none is connected); a leftover variable forms a singleton cluster.
    /// Real Gator optimizers pick shapes by cost (\[Hans97b\]); pairing is
    /// the simplest non-trivial shape between TREAT (all singletons) and
    /// Rete (one left-deep chain).
    fn plan_clusters(graph: &ConditionGraph) -> Vec<Cluster> {
        let n = graph.num_vars;
        let mut used = vec![false; n];
        let mut clusters = Vec::new();
        for v in 0..n {
            if used[v] {
                continue;
            }
            used[v] = true;
            let partner = (0..n)
                .filter(|&u| !used[u])
                .find(|&u| {
                    graph
                        .joins
                        .iter()
                        .any(|e| (e.a == v && e.b == u) || (e.a == u && e.b == v))
                })
                .or_else(|| (0..n).find(|&u| !used[u]));
            let mut vars = vec![v];
            if let Some(u) = partner {
                used[u] = true;
                vars.push(u);
            }
            clusters.push(Cluster {
                vars,
                memory: RwLock::new(Vec::new()),
            });
        }
        clusters
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

    /// Total tuples held in stored memories (alpha + beta + Gator cluster)
    /// — the memory metric of experiment E8.
    pub fn memory_tuples(&self) -> usize {
        let a: usize = self
            .alphas
            .iter()
            .map(|al| match al {
                Alpha::Stored(m) => m.read().len(),
                Alpha::Virtual => 0,
            })
            .sum();
        let b: usize = self
            .betas
            .iter()
            .map(|m| m.read().iter().map(Vec::len).sum::<usize>())
            .sum();
        let g: usize = self
            .clusters
            .iter()
            .map(|c| c.memory.read().iter().map(Vec::len).sum::<usize>())
            .sum();
        a + b + g
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

    /// §5.1 priming: populate stored memories (and Rete betas / Gator
    /// clusters) from base data so the network reflects pre-existing rows.
    pub fn prime(&self, source: &dyn AlphaSource) -> Result<()> {
        for v in 0..self.graph.num_vars {
            self.prime_var(v, source)?;
        }
        self.rebuild_derived()
    }

    /// §6 *data-level concurrency*: "a set of data values in an alpha or
    /// beta memory node ... can be processed by a query that can run in
    /// parallel." Priming is exactly such a query (one selection scan per
    /// memory node), so scan each node's base data on its own thread.
    pub fn prime_parallel(&self, source: &(dyn AlphaSource + Sync)) -> Result<()> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.graph.num_vars)
                .map(|v| scope.spawn(move || self.prime_var(v, source)))
                .collect();
            for h in handles {
                h.join()
                    .map_err(|_| TmanError::Internal("priming thread panicked".into()))??;
            }
            Ok::<(), TmanError>(())
        })?;
        self.rebuild_derived()
    }

    fn prime_var(&self, v: usize, source: &dyn AlphaSource) -> Result<()> {
        if let Alpha::Stored(mem) = &self.alphas[v] {
            let mut rows = Vec::new();
            source.scan_source(self.var_sources[v], &mut |t| {
                if self.selection_matches(v, t)? {
                    rows.push(t.clone());
                }
                Ok(())
            })?;
            *mem.write() = rows;
        }
        Ok(())
    }

    fn rebuild_derived(&self) -> Result<()> {
        if self.kind == NetworkKind::Rete {
            self.rebuild_betas()?;
        }
        if self.kind == NetworkKind::Gator {
            self.rebuild_clusters()?;
        }
        Ok(())
    }

    /// Recompute every Gator cluster memory from the alpha memories.
    fn rebuild_clusters(&self) -> Result<()> {
        for cluster in &self.clusters {
            let rows: Vec<Vec<Tuple>> = cluster
                .vars
                .iter()
                .map(|&v| match &self.alphas[v] {
                    Alpha::Stored(m) => m.read().clone(),
                    Alpha::Virtual => Vec::new(),
                })
                .collect();
            let mem = self.cross_join_filtered(cluster, rows)?;
            *cluster.memory.write() = mem;
        }
        Ok(())
    }

    /// Cross-join per-member candidate rows, keeping entries whose
    /// intra-cluster join edges hold.
    fn cross_join_filtered(
        &self,
        cluster: &Cluster,
        rows: Vec<Vec<Tuple>>,
    ) -> Result<Vec<Vec<Tuple>>> {
        let mut acc: Vec<Vec<Tuple>> = vec![Vec::new()];
        for r in &rows {
            let mut next = Vec::with_capacity(acc.len() * r.len());
            for partial in &acc {
                for t in r {
                    let mut e = partial.clone();
                    e.push(t.clone());
                    next.push(e);
                }
            }
            acc = next;
            if acc.is_empty() {
                return Ok(acc);
            }
        }
        let mut out = Vec::with_capacity(acc.len());
        for entry in acc {
            if self.cluster_entry_joins_ok(cluster, &entry)? {
                out.push(entry);
            }
        }
        Ok(out)
    }

    /// Do the intra-cluster join edges hold for a candidate entry?
    fn cluster_entry_joins_ok(&self, cluster: &Cluster, entry: &[Tuple]) -> Result<bool> {
        let mut binds: Vec<Option<&Tuple>> = vec![None; self.graph.num_vars];
        for (pos, &v) in cluster.vars.iter().enumerate() {
            binds[v] = Some(&entry[pos]);
        }
        let env = Env {
            tuples: &binds,
            consts: &[],
        };
        for e in &self.graph.joins {
            let a_in = cluster.vars.contains(&e.a);
            let b_in = cluster.vars.contains(&e.b);
            if a_in && b_in && !e.pred.matches(&env)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn activate_gator(
        &self,
        var: usize,
        polarity: Polarity,
        tuple: &Tuple,
        fire: &mut dyn FnMut(Firing),
    ) -> Result<()> {
        let ci = self
            .clusters
            .iter()
            .position(|c| c.vars.contains(&var))
            .ok_or_else(|| TmanError::Internal(format!("variable {var} in no cluster")))?;
        let cluster = &self.clusters[ci];
        let pos = cluster.vars.iter().position(|&v| v == var).expect("member");
        match polarity {
            Polarity::Plus => {
                self.update_alpha(var, Polarity::Plus, tuple);
                // Delta = new cluster entries where `var` binds the token
                // and siblings come from their alpha memories.
                let rows: Vec<Vec<Tuple>> = cluster
                    .vars
                    .iter()
                    .enumerate()
                    .map(|(p, &v)| {
                        if p == pos {
                            vec![tuple.clone()]
                        } else {
                            match &self.alphas[v] {
                                Alpha::Stored(m) => m.read().clone(),
                                Alpha::Virtual => Vec::new(),
                            }
                        }
                    })
                    .collect();
                let delta = self.cross_join_filtered(cluster, rows)?;
                cluster.memory.write().extend(delta.iter().cloned());
                self.fire_cluster_delta(ci, &delta, polarity, fire)
            }
            Polarity::Minus => {
                let mut removed = Vec::new();
                {
                    let mut mem = cluster.memory.write();
                    mem.retain(|entry| {
                        if &entry[pos] == tuple {
                            removed.push(entry.clone());
                            false
                        } else {
                            true
                        }
                    });
                }
                self.update_alpha(var, Polarity::Minus, tuple);
                self.fire_cluster_delta(ci, &removed, polarity, fire)
            }
        }
    }

    /// Join delta entries of cluster `ci` against every other cluster's
    /// memory, checking cross-cluster edges and the catch-all conjuncts.
    fn fire_cluster_delta(
        &self,
        ci: usize,
        delta: &[Vec<Tuple>],
        polarity: Polarity,
        fire: &mut dyn FnMut(Firing),
    ) -> Result<()> {
        let others: Vec<usize> = (0..self.clusters.len()).filter(|&i| i != ci).collect();
        for d in delta {
            let mut binds: Vec<Option<Tuple>> = vec![None; self.graph.num_vars];
            for (pos, &v) in self.clusters[ci].vars.iter().enumerate() {
                binds[v] = Some(d[pos].clone());
            }
            let bound_mask = self.clusters[ci]
                .vars
                .iter()
                .fold(0u64, |m, &v| m | (1 << v));
            self.extend_clusters(&others, 0, &mut binds, bound_mask, polarity, fire)?;
        }
        Ok(())
    }

    fn extend_clusters(
        &self,
        others: &[usize],
        depth: usize,
        binds: &mut Vec<Option<Tuple>>,
        bound_mask: u64,
        polarity: Polarity,
        fire: &mut dyn FnMut(Firing),
    ) -> Result<()> {
        if depth == others.len() {
            let refs: Vec<Option<&Tuple>> = binds.iter().map(|b| b.as_ref()).collect();
            if self.catch_all_ok(&refs)? {
                fire(Firing {
                    polarity,
                    bindings: binds.iter().map(|b| b.clone().unwrap()).collect(),
                });
            }
            return Ok(());
        }
        let cluster = &self.clusters[others[depth]];
        let entries = cluster.memory.read().clone();
        let cluster_mask = cluster.vars.iter().fold(0u64, |m, &v| m | (1 << v));
        'entries: for entry in entries {
            for (pos, &v) in cluster.vars.iter().enumerate() {
                binds[v] = Some(entry[pos].clone());
            }
            // Check every edge between this cluster's vars and the
            // already-bound set.
            let refs: Vec<Option<&Tuple>> = binds.iter().map(|b| b.as_ref()).collect();
            for &v in &cluster.vars {
                if !self.edges_ok(&refs, v, bound_mask)? {
                    continue 'entries;
                }
            }
            self.extend_clusters(
                others,
                depth + 1,
                binds,
                bound_mask | cluster_mask,
                polarity,
                fire,
            )?;
        }
        for &v in &cluster.vars {
            binds[v] = None;
        }
        Ok(())
    }

    fn rebuild_betas(&self) -> Result<()> {
        if self.betas.is_empty() {
            return Ok(());
        }
        let alpha = |v: usize| -> Vec<Tuple> {
            match &self.alphas[v] {
                Alpha::Stored(m) => m.read().clone(),
                Alpha::Virtual => Vec::new(),
            }
        };
        let mut partials: Vec<Vec<Tuple>> = alpha(0).into_iter().map(|t| vec![t]).collect();
        for v in 1..self.graph.num_vars {
            let mut next = Vec::new();
            for p in &partials {
                for t in alpha(v) {
                    let mut cand = p.clone();
                    cand.push(t);
                    if self.joins_ok_prefix(&cand)? {
                        next.push(cand);
                    }
                }
            }
            *self.betas[v - 1].write() = next.clone();
            partials = next;
        }
        Ok(())
    }

    /// Evaluate all join edges fully contained in the bound prefix
    /// `cand[0..k]` that involve variable `k-1` (the newly added one).
    fn joins_ok_prefix(&self, cand: &[Tuple]) -> Result<bool> {
        let new_var = cand.len() - 1;
        let mut binds: Vec<Option<&Tuple>> = vec![None; self.graph.num_vars];
        for (v, t) in cand.iter().enumerate() {
            binds[v] = Some(t);
        }
        let env = Env {
            tuples: &binds,
            consts: &[],
        };
        for e in &self.graph.joins {
            let touches_new =
                (e.a == new_var && e.b < cand.len()) || (e.b == new_var && e.a < cand.len());
            if touches_new && !e.pred.matches(&env)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Evaluate join edges between `var` and any bound member of `bound_mask`,
    /// given partial bindings.
    fn edges_ok(&self, binds: &[Option<&Tuple>], var: usize, bound_mask: u64) -> Result<bool> {
        let env = Env {
            tuples: binds,
            consts: &[],
        };
        for e in &self.graph.joins {
            let other = if e.a == var {
                e.b
            } else if e.b == var {
                e.a
            } else {
                continue;
            };
            if bound_mask & (1 << other) != 0 && !e.pred.matches(&env)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Evaluate the catch-all conjuncts (trivial and hyper-join) on a full
    /// binding — §5.1's "special cases".
    fn catch_all_ok(&self, binds: &[Option<&Tuple>]) -> Result<bool> {
        if self.graph.catch_all.is_empty() {
            return Ok(true);
        }
        let env = Env {
            tuples: binds,
            consts: &[],
        };
        for c in &self.graph.catch_all {
            if c.eval(&env)? != Some(true) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Does a token reach the P-node of this *single-variable* network?
    /// Such a network has no memories and no joins: a token that passed
    /// the variable's selection predicate fires iff the catch-all
    /// conjuncts hold, with its own tuple as the only binding — so a caller
    /// can fire from the tuple it holds instead of receiving a [`Firing`]
    /// that clones it.
    pub fn single_var_fires(&self, tuple: &Tuple) -> Result<bool> {
        debug_assert_eq!(self.graph.num_vars, 1);
        self.catch_all_ok(&[Some(tuple)])
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
        // Single-variable triggers: straight to the P-node.
        if self.graph.num_vars == 1 {
            if self.single_var_fires(tuple)? {
                fire(Firing {
                    polarity,
                    bindings: vec![tuple.clone()],
                });
            }
            return Ok(());
        }
        match self.kind {
            NetworkKind::Treat | NetworkKind::ATreat => {
                self.activate_treat(var, polarity, tuple, source, fire)
            }
            NetworkKind::Rete => self.activate_rete(var, polarity, tuple, fire),
            NetworkKind::Gator => self.activate_gator(var, polarity, tuple, fire),
        }
    }

    fn update_alpha(&self, var: usize, polarity: Polarity, tuple: &Tuple) {
        if let Alpha::Stored(mem) = &self.alphas[var] {
            match polarity {
                Polarity::Plus => mem.write().push(tuple.clone()),
                Polarity::Minus => {
                    let mut m = mem.write();
                    if let Some(pos) = m.iter().position(|t| t == tuple) {
                        m.remove(pos);
                    }
                }
            }
        }
    }

    fn activate_treat(
        &self,
        var: usize,
        polarity: Polarity,
        tuple: &Tuple,
        source: &dyn AlphaSource,
        fire: &mut dyn FnMut(Firing),
    ) -> Result<()> {
        // For minus tokens, compute the joins *after* removal would be
        // wrong (the tuple's combinations still need reporting), and
        // computing before insertion is wrong for plus (self-join misses)
        // — the standard TREAT discipline: minus joins first, then update;
        // plus updates first? No: plus must not see itself twice. Join
        // computation below binds `var` to the token explicitly and other
        // variables from memories, so update order only matters for
        // self-joins over the *same* variable, which cannot happen (one
        // variable binds one tuple). Update order: apply to memory first
        // for Plus (so concurrent readers see it), after for Minus.
        if polarity == Polarity::Plus {
            self.update_alpha(var, polarity, tuple);
        }

        // Join enumeration: depth-first over the remaining variables,
        // connected-first ordering.
        let order = self.join_order(var);
        let mut binds: Vec<Option<Tuple>> = vec![None; self.graph.num_vars];
        binds[var] = Some(tuple.clone());
        self.extend_binding(&order, 0, 1 << var, &mut binds, source, &mut |full| {
            fire(Firing {
                polarity,
                bindings: full.to_vec(),
            })
        })?;

        if polarity == Polarity::Minus {
            self.update_alpha(var, polarity, tuple);
        }
        Ok(())
    }

    /// Order the remaining variables: repeatedly pick one joined to the
    /// already-bound set (avoiding cross products when possible).
    fn join_order(&self, start: usize) -> Vec<usize> {
        let n = self.graph.num_vars;
        let mut order = Vec::with_capacity(n - 1);
        let mut bound = 1u64 << start;
        while order.len() < n - 1 {
            let next = (0..n)
                .filter(|v| bound & (1 << v) == 0)
                .find(|&v| {
                    self.graph.joins.iter().any(|e| {
                        (e.a == v && bound & (1 << e.b) != 0)
                            || (e.b == v && bound & (1 << e.a) != 0)
                    })
                })
                .or_else(|| (0..n).find(|v| bound & (1 << v) == 0))
                .expect("some variable remains");
            bound |= 1 << next;
            order.push(next);
        }
        order
    }

    fn extend_binding(
        &self,
        order: &[usize],
        depth: usize,
        bound_mask: u64,
        binds: &mut Vec<Option<Tuple>>,
        source: &dyn AlphaSource,
        emit: &mut dyn FnMut(&[Tuple]),
    ) -> Result<()> {
        if depth == order.len() {
            let refs: Vec<Option<&Tuple>> = binds.iter().map(|b| b.as_ref()).collect();
            if self.catch_all_ok(&refs)? {
                let full: Vec<Tuple> = binds.iter().map(|b| b.clone().unwrap()).collect();
                emit(&full);
            }
            return Ok(());
        }
        let var = order[depth];
        let candidates: Vec<Tuple> = match &self.alphas[var] {
            Alpha::Stored(mem) => mem.read().clone(),
            Alpha::Virtual => {
                let mut rows = Vec::new();
                source.scan_source(self.var_sources[var], &mut |t| {
                    if self.selection_matches(var, t)? {
                        rows.push(t.clone());
                    }
                    Ok(())
                })?;
                rows
            }
        };
        for cand in candidates {
            binds[var] = Some(cand);
            let refs: Vec<Option<&Tuple>> = binds.iter().map(|b| b.as_ref()).collect();
            if self.edges_ok(&refs, var, bound_mask)? {
                self.extend_binding(
                    order,
                    depth + 1,
                    bound_mask | (1 << var),
                    binds,
                    source,
                    emit,
                )?;
            }
        }
        binds[var] = None;
        Ok(())
    }

    fn activate_rete(
        &self,
        var: usize,
        polarity: Polarity,
        tuple: &Tuple,
        fire: &mut dyn FnMut(Firing),
    ) -> Result<()> {
        match polarity {
            Polarity::Plus => {
                self.update_alpha(var, Polarity::Plus, tuple);
                // New partial bindings where position `var` is the token.
                let lefts: Vec<Vec<Tuple>> = if var == 0 {
                    vec![vec![tuple.clone()]]
                } else {
                    // Extend beta[var-2] (bindings of 0..var) with the token;
                    // for var == 1, extend alpha 0.
                    let prefixes: Vec<Vec<Tuple>> = if var == 1 {
                        match &self.alphas[0] {
                            Alpha::Stored(m) => m.read().iter().map(|t| vec![t.clone()]).collect(),
                            Alpha::Virtual => Vec::new(),
                        }
                    } else {
                        self.betas[var - 2].read().clone()
                    };
                    let mut out = Vec::new();
                    for p in prefixes {
                        let mut cand = p;
                        cand.push(tuple.clone());
                        if self.joins_ok_prefix(&cand)? {
                            out.push(cand);
                        }
                    }
                    out
                };
                // Cascade down through the remaining variables, storing
                // into each beta memory.
                let mut frontier = lefts;
                if var >= 1 {
                    self.betas[var - 1].write().extend(frontier.iter().cloned());
                }
                for next_var in var + 1..self.graph.num_vars {
                    let alpha_rows: Vec<Tuple> = match &self.alphas[next_var] {
                        Alpha::Stored(m) => m.read().clone(),
                        Alpha::Virtual => Vec::new(),
                    };
                    let mut next = Vec::new();
                    for p in &frontier {
                        for t in &alpha_rows {
                            let mut cand = p.clone();
                            cand.push(t.clone());
                            if self.joins_ok_prefix(&cand)? {
                                next.push(cand);
                            }
                        }
                    }
                    self.betas[next_var - 1]
                        .write()
                        .extend(next.iter().cloned());
                    frontier = next;
                }
                for full in frontier {
                    let refs: Vec<Option<&Tuple>> = full.iter().map(Some).collect();
                    if self.catch_all_ok(&refs)? {
                        fire(Firing {
                            polarity,
                            bindings: full,
                        });
                    }
                }
            }
            Polarity::Minus => {
                // Remove from alpha, then purge partial bindings containing
                // the tuple at position `var`, reporting full ones.
                self.update_alpha(var, Polarity::Minus, tuple);
                let last = self.betas.len();
                for (bi, beta) in self.betas.iter().enumerate() {
                    let mut mem = beta.write();
                    let mut removed = Vec::new();
                    mem.retain(|p| {
                        if p.len() > var && &p[var] == tuple {
                            removed.push(p.clone());
                            false
                        } else {
                            true
                        }
                    });
                    if bi + 1 == last {
                        for full in removed {
                            let refs: Vec<Option<&Tuple>> = full.iter().map(Some).collect();
                            if self.catch_all_ok(&refs)? {
                                fire(Firing {
                                    polarity,
                                    bindings: full,
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(())
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

/// Shared handle used by the engine.
pub type NetworkRef = Arc<Network>;

/// Re-export for engine convenience.
pub use tman_expr::cnf::ConditionGraph as Graph;

#[cfg(test)]
mod tests;

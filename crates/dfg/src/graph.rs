//! Core graph representation: arena-based directed multigraph with
//! edge delays and node computation times.

use std::fmt;

/// Index of a node in a [`Dfg`]. Stable for the lifetime of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Index of an edge in a [`Dfg`]. Stable for the lifetime of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The node index as a `usize`, for direct slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The edge index as a `usize`, for direct slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The executable operation a node performs.
///
/// Every DFG in this workspace is *executable*: node `v` at iteration `i`
/// computes a 64-bit value from the values carried by its incoming edges
/// (each incoming edge `u -> v` with delay `d` supplies `val(u, i - d)`).
/// This gives all transformed programs a ground truth to be checked against
/// (see `cred-vm`). Arithmetic is wrapping, so every execution is total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Sum of all inputs plus the constant.
    Add(i64),
    /// First input minus the sum of all remaining inputs, plus the constant.
    Sub(i64),
    /// Product of all inputs, plus the constant.
    Mul(i64),
    /// `in0 * in1 + (remaining inputs) + constant` — multiply-accumulate.
    /// Falls back to [`OpKind::Add`] semantics with fewer than two inputs.
    Mac(i64),
    /// `k * (sum of inputs) + c` — constant-coefficient scaling, e.g.
    /// `A[i] = 3 * B[i-1] + 7`.
    Scale(i64, i64),
    /// `k * (product of inputs) + c` — scaled product, e.g.
    /// `A[i] = 3 * X[i] * U[i-2]`.
    ScaledMul(i64, i64),
    /// Ignores inputs; produces `constant + 31 * i` at iteration `i`
    /// (iteration-dependent so distinct iterations are distinguishable).
    Input(i64),
}

impl OpKind {
    /// Evaluate the operation on `inputs` at (1-based) iteration `i`.
    ///
    /// `inline(always)`: both VM executors call this once per compute
    /// instance from their innermost loops, across the crate boundary.
    #[inline(always)]
    pub fn eval(self, inputs: &[i64], i: i64) -> i64 {
        match self {
            OpKind::Add(c) => inputs.iter().fold(c, |acc, &x| acc.wrapping_add(x)),
            OpKind::Sub(c) => match inputs.split_first() {
                None => c,
                Some((&first, rest)) => rest
                    .iter()
                    .fold(first, |acc, &x| acc.wrapping_sub(x))
                    .wrapping_add(c),
            },
            OpKind::Mul(c) => inputs
                .iter()
                .fold(1i64, |acc, &x| acc.wrapping_mul(x))
                .wrapping_add(c),
            OpKind::Mac(c) => {
                if inputs.len() >= 2 {
                    let prod = inputs[0].wrapping_mul(inputs[1]);
                    inputs[2..]
                        .iter()
                        .fold(prod, |acc, &x| acc.wrapping_add(x))
                        .wrapping_add(c)
                } else {
                    // Add fallback, spelled out: a self-call here would
                    // make `eval` recursive, and LLVM silently drops
                    // `alwaysinline` from recursive functions.
                    inputs.iter().fold(c, |acc, &x| acc.wrapping_add(x))
                }
            }
            OpKind::Scale(k, c) => inputs
                .iter()
                .fold(0i64, |acc, &x| acc.wrapping_add(x))
                .wrapping_mul(k)
                .wrapping_add(c),
            OpKind::ScaledMul(k, c) => inputs
                .iter()
                .fold(1i64, |acc, &x| acc.wrapping_mul(x))
                .wrapping_mul(k)
                .wrapping_add(c),
            OpKind::Input(c) => c.wrapping_add(31i64.wrapping_mul(i)),
        }
    }

    /// A short mnemonic used by pretty-printers.
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpKind::Add(_) => "add",
            OpKind::Sub(_) => "sub",
            OpKind::Mul(_) => "mul",
            OpKind::Mac(_) => "mac",
            OpKind::Scale(..) => "scl",
            OpKind::ScaledMul(..) => "sml",
            OpKind::Input(_) => "inp",
        }
    }

    /// The functional-unit class executing this operation — the resource
    /// axis a [`MachineModel`](crate::MachineModel) constrains with its
    /// per-class unit counts. Every scheduler and packer reads it.
    #[inline]
    pub fn class(self) -> OpClass {
        match self {
            OpKind::Add(_) | OpKind::Sub(_) | OpKind::Input(_) => OpClass::Alu,
            OpKind::Mul(_) | OpKind::Mac(_) | OpKind::Scale(..) | OpKind::ScaledMul(..) => {
                OpClass::Mac
            }
        }
    }
}

/// Functional-unit class of an [`OpKind`] — a simplification of a DSP
/// datapath (e.g. the TMS320C6000) split into arithmetic/logic units and
/// multiply-accumulate units. This is the unit machine descriptions
/// allocate: an op occupies one slot of its class for its whole
/// computation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// Adders/ALUs — `Add`, `Sub`, `Input` (and the predicate bookkeeping
    /// instructions CRED inserts).
    Alu,
    /// Multiply-accumulate units — `Mul`, `Mac`, `Scale`, `ScaledMul`.
    Mac,
}

/// Number of op classes (for dense, class-indexed tables).
pub const OP_CLASSES: usize = 2;

impl OpClass {
    /// Every class, in [`OpClass::index`] order.
    pub const ALL: [OpClass; OP_CLASSES] = [OpClass::Alu, OpClass::Mac];

    /// Dense index for class-indexed tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            OpClass::Alu => 0,
            OpClass::Mac => 1,
        }
    }

    /// Lower-case name used by machine-description files.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Alu => "alu",
            OpClass::Mac => "mac",
        }
    }

    /// Inverse of [`OpClass::name`].
    pub fn parse(s: &str) -> Option<OpClass> {
        match s {
            "alu" => Some(OpClass::Alu),
            "mac" => Some(OpClass::Mac),
            _ => None,
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Payload of a node: a display name, a computation time (in time units,
/// `>= 1`), and its executable operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeData {
    /// Human-readable name (`"A"`, `"B"`, ... in the paper's figures).
    pub name: String,
    /// Computation time `t(v) >= 1`. The paper assumes unit time unless
    /// noted (Figure 8 uses non-unit times).
    pub time: u32,
    /// Executable semantics of the node.
    pub op: OpKind,
}

/// Payload of an edge: endpoints and the inter-iteration delay count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeData {
    /// Producer node.
    pub src: NodeId,
    /// Consumer node.
    pub dst: NodeId,
    /// Number of delays `d(e) >= 0`; `0` is an intra-iteration dependence.
    pub delay: u32,
}

/// Errors detected by [`Dfg::validate`] and the builder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfgError {
    /// The zero-delay subgraph contains a cycle; the cycle period would be
    /// undefined and no legal static schedule exists.
    ZeroDelayCycle,
    /// A node has computation time zero.
    ZeroTimeNode(NodeId),
    /// A node id out of range was referenced.
    InvalidNode(NodeId),
    /// The graph has no nodes.
    Empty,
}

impl fmt::Display for DfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfgError::ZeroDelayCycle => {
                write!(f, "zero-delay cycle: no legal static schedule exists")
            }
            DfgError::ZeroTimeNode(n) => write!(f, "node {n} has computation time 0"),
            DfgError::InvalidNode(n) => write!(f, "node {n} out of range"),
            DfgError::Empty => write!(f, "graph has no nodes"),
        }
    }
}

impl std::error::Error for DfgError {}

/// A data flow graph `G = <V, E, d, t>`.
///
/// Construct with [`DfgBuilder`] or incrementally with [`Dfg::add_node`] /
/// [`Dfg::add_edge`]. The structure is append-only: nodes and edges are
/// never removed, so `NodeId`/`EdgeId` stay valid.
#[derive(Debug, Clone, Default)]
pub struct Dfg {
    nodes: Vec<NodeData>,
    edges: Vec<EdgeData>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
}

impl Dfg {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Add a node with the given name, computation time, and operation.
    pub fn add_node(&mut self, name: impl Into<String>, time: u32, op: OpKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData {
            name: name.into(),
            time,
            op,
        });
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Add an edge `src -> dst` carrying `delay` delays.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, delay: u32) -> EdgeId {
        assert!(src.index() < self.nodes.len(), "src out of range");
        assert!(dst.index() < self.nodes.len(), "dst out of range");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData { src, dst, delay });
        self.out_edges[src.index()].push(id);
        self.in_edges[dst.index()].push(id);
        id
    }

    /// Node payload.
    #[inline]
    pub fn node(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()]
    }

    /// Edge payload.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &EdgeData {
        &self.edges[id.index()]
    }

    /// Mutable edge payload (used by retiming application).
    #[inline]
    pub fn edge_mut(&mut self, id: EdgeId) -> &mut EdgeData {
        &mut self.edges[id.index()]
    }

    /// Mutable node payload.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut NodeData {
        &mut self.nodes[id.index()]
    }

    /// Iterator over all node ids in insertion order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all edge ids in insertion order.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + Clone {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Outgoing edges of `v`.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.out_edges[v.index()]
    }

    /// Incoming edges of `v`.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.in_edges[v.index()]
    }

    /// Look a node up by name (linear scan; names need not be unique, the
    /// first match wins). Intended for tests and examples.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_ids().find(|&id| self.node(id).name == name)
    }

    /// Total computation time `sum_v t(v)`.
    pub fn total_time(&self) -> u64 {
        self.nodes.iter().map(|n| n.time as u64).sum()
    }

    /// Total delay count `sum_e d(e)`.
    pub fn total_delays(&self) -> u64 {
        self.edges.iter().map(|e| e.delay as u64).sum()
    }

    /// True if every node has unit computation time (the paper's default).
    pub fn is_unit_time(&self) -> bool {
        self.nodes.iter().all(|n| n.time == 1)
    }

    /// Check well-formedness: non-empty, all node times `>= 1`, and the
    /// zero-delay subgraph acyclic (every dependence cycle carries at least
    /// one delay).
    pub fn validate(&self) -> Result<(), DfgError> {
        let mut order = Vec::with_capacity(self.node_count());
        self.validate_with(&mut crate::algo::TopoScratch::default(), &mut order)
    }

    /// [`Dfg::validate`] with the zero-delay order's buffers supplied by
    /// the caller, so a caller that validates once per solve allocates
    /// nothing. `order` is left holding the order on success.
    pub fn validate_with(
        &self,
        topo: &mut crate::algo::TopoScratch,
        order: &mut Vec<NodeId>,
    ) -> Result<(), DfgError> {
        if self.nodes.is_empty() {
            return Err(DfgError::Empty);
        }
        for id in self.node_ids() {
            if self.node(id).time == 0 {
                return Err(DfgError::ZeroTimeNode(id));
            }
        }
        let zero = |e: EdgeId| self.edge(e).delay == 0;
        if !crate::algo::zero_delay_order_into(self, zero, topo, order) {
            return Err(DfgError::ZeroDelayCycle);
        }
        Ok(())
    }

    /// A 64-bit structural fingerprint of the graph.
    ///
    /// Covers everything the analyses depend on — node count, node times
    /// and operations, and every edge `(src, dst, delay)` in id order —
    /// and deliberately ignores node *names*, which never influence
    /// retiming, unfolding, or code size. Two graphs with equal
    /// fingerprints are (modulo a 64-bit FNV-1a collision) structurally
    /// identical, so the fingerprint serves as the memoization key of
    /// `cred-explore`'s sweep cache.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut word = |w: u64| {
            for byte in w.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(PRIME);
            }
        };
        word(self.nodes.len() as u64);
        for n in &self.nodes {
            word(n.time as u64);
            let (tag, a, b) = match n.op {
                OpKind::Add(c) => (0u64, c, 0),
                OpKind::Sub(c) => (1, c, 0),
                OpKind::Mul(c) => (2, c, 0),
                OpKind::Mac(c) => (3, c, 0),
                OpKind::Scale(k, c) => (4, k, c),
                OpKind::ScaledMul(k, c) => (5, k, c),
                OpKind::Input(c) => (6, c, 0),
            };
            word(tag);
            word(a as u64);
            word(b as u64);
        }
        word(self.edges.len() as u64);
        for e in &self.edges {
            word(e.src.0 as u64);
            word(e.dst.0 as u64);
            word(e.delay as u64);
        }
        h
    }

    /// Reference execution of the DFG recurrence.
    ///
    /// Computes, for each node, the values of iterations `1..=n` directly
    /// from the recurrence `val(v, i) = op_v({ val(u, i - d(e)) : e(u->v) })`,
    /// with `val(u, j) = 0` for `j <= 0` (arrays are zero-initialized, as in
    /// the paper's code listings where e.g. `E[-3]` reads an initial zero).
    ///
    /// Returns one `Vec` of length `n` per node, indexed by `NodeId`.
    /// This is the ground truth against which `cred-vm` checks every
    /// generated program.
    pub fn reference_execution(&self, n: usize) -> Vec<Vec<i64>> {
        let order = crate::algo::topo::zero_delay_topo_order(self)
            .expect("reference_execution requires a well-formed DFG");
        let nv = self.node_count();
        let mut vals: Vec<Vec<i64>> = vec![vec![0; n + 1]; nv]; // 1-based
        let mut inputs: Vec<i64> = Vec::new();
        for i in 1..=n {
            // Within one iteration, zero-delay dependencies force evaluation
            // in topological order of the zero-delay subgraph; delayed
            // dependencies read earlier iterations, already computed.
            for &v in &order {
                inputs.clear();
                for &e in self.in_edges(v) {
                    let ed = self.edge(e);
                    let j = i as i64 - ed.delay as i64;
                    inputs.push(if j >= 1 {
                        vals[ed.src.index()][j as usize]
                    } else {
                        0
                    });
                }
                vals[v.index()][i] = self.node(v).op.eval(&inputs, i as i64);
            }
        }
        for col in &mut vals {
            col.remove(0); // drop the unused 0 slot; result[v][i-1] = val(v, i)
        }
        vals
    }
}

/// Fluent builder for [`Dfg`].
///
/// ```
/// use cred_dfg::{DfgBuilder, OpKind};
/// let mut b = DfgBuilder::new();
/// let a = b.node("A", 1, OpKind::Add(9));
/// let c = b.node("B", 1, OpKind::Mul(5));
/// b.edge(a, c, 0);
/// b.edge(c, a, 2);
/// let g = b.build().unwrap();
/// assert_eq!(g.node_count(), 2);
/// ```
#[derive(Debug, Default)]
pub struct DfgBuilder {
    graph: Dfg,
}

impl DfgBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node.
    pub fn node(&mut self, name: impl Into<String>, time: u32, op: OpKind) -> NodeId {
        self.graph.add_node(name, time, op)
    }

    /// Add a unit-time node with `Add(0)` semantics — the common case in the
    /// paper's unit-time benchmarks.
    pub fn unit(&mut self, name: impl Into<String>) -> NodeId {
        self.graph.add_node(name, 1, OpKind::Add(0))
    }

    /// Add an edge.
    pub fn edge(&mut self, src: NodeId, dst: NodeId, delay: u32) -> EdgeId {
        self.graph.add_edge(src, dst, delay)
    }

    /// Validate and return the graph.
    pub fn build(self) -> Result<Dfg, DfgError> {
        self.graph.validate()?;
        Ok(self.graph)
    }

    /// Return the graph without validation (for tests constructing
    /// deliberately malformed graphs).
    pub fn build_unchecked(self) -> Dfg {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node() -> Dfg {
        // Figure 1(a): A -> B with 0 delays, B -> A with 2 delays.
        let mut b = DfgBuilder::new();
        let a = b.node("A", 1, OpKind::Add(1));
        let bb = b.node("B", 1, OpKind::Mul(2));
        b.edge(a, bb, 0);
        b.edge(bb, a, 2);
        b.build().unwrap()
    }

    #[test]
    fn fingerprint_ignores_names_but_sees_structure() {
        let g = two_node();
        // Same structure, different names: identical fingerprints.
        let mut b = DfgBuilder::new();
        let x = b.node("X", 1, OpKind::Add(1));
        let y = b.node("Y", 1, OpKind::Mul(2));
        b.edge(x, y, 0);
        b.edge(y, x, 2);
        let renamed = b.build().unwrap();
        assert_eq!(g.fingerprint(), renamed.fingerprint());

        // Any structural change — delay, time, op constant — must show.
        let mut delay = g.clone();
        delay.edge_mut(EdgeId(1)).delay = 3;
        assert_ne!(g.fingerprint(), delay.fingerprint());
        let mut time = g.clone();
        time.node_mut(NodeId(0)).time = 2;
        assert_ne!(g.fingerprint(), time.fingerprint());
        let mut op = g.clone();
        op.node_mut(NodeId(0)).op = OpKind::Add(2);
        assert_ne!(g.fingerprint(), op.fingerprint());
    }

    #[test]
    fn build_and_query() {
        let g = two_node();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 2);
        let a = g.find_node("A").unwrap();
        let b = g.find_node("B").unwrap();
        assert_eq!(g.out_edges(a).len(), 1);
        assert_eq!(g.in_edges(a).len(), 1);
        assert_eq!(g.edge(g.out_edges(a)[0]).dst, b);
        assert_eq!(g.edge(g.in_edges(a)[0]).delay, 2);
        assert!(g.is_unit_time());
        assert_eq!(g.total_time(), 2);
        assert_eq!(g.total_delays(), 2);
    }

    #[test]
    fn validate_rejects_zero_delay_cycle() {
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        let c = b.unit("B");
        b.edge(a, c, 0);
        b.edge(c, a, 0);
        assert_eq!(b.build().unwrap_err(), DfgError::ZeroDelayCycle);
    }

    #[test]
    fn validate_rejects_zero_time() {
        let mut b = DfgBuilder::new();
        b.node("A", 0, OpKind::Add(0));
        assert!(matches!(b.build(), Err(DfgError::ZeroTimeNode(_))));
    }

    #[test]
    fn validate_rejects_empty() {
        assert_eq!(DfgBuilder::new().build().unwrap_err(), DfgError::Empty);
    }

    #[test]
    fn self_loop_with_delay_is_legal() {
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        b.edge(a, a, 1);
        assert!(b.build().is_ok());
    }

    #[test]
    fn self_loop_without_delay_is_illegal() {
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        b.edge(a, a, 0);
        assert_eq!(b.build().unwrap_err(), DfgError::ZeroDelayCycle);
    }

    #[test]
    fn op_eval_add_sub_mul() {
        assert_eq!(OpKind::Add(3).eval(&[1, 2], 0), 6);
        assert_eq!(OpKind::Add(3).eval(&[], 0), 3);
        assert_eq!(OpKind::Sub(0).eval(&[10, 3, 2], 0), 5);
        assert_eq!(OpKind::Sub(7).eval(&[], 0), 7);
        assert_eq!(OpKind::Mul(1).eval(&[3, 4], 0), 13);
        assert_eq!(OpKind::Mul(0).eval(&[], 0), 1);
        assert_eq!(OpKind::Mac(1).eval(&[3, 4, 5], 0), 18);
        assert_eq!(OpKind::Mac(1).eval(&[3], 0), 4);
        assert_eq!(OpKind::Input(5).eval(&[99], 2), 5 + 62);
    }

    #[test]
    fn op_class_partition() {
        assert_eq!(OpKind::Add(0).class(), OpClass::Alu);
        assert_eq!(OpKind::Sub(0).class(), OpClass::Alu);
        assert_eq!(OpKind::Input(0).class(), OpClass::Alu);
        assert_eq!(OpKind::Mul(0).class(), OpClass::Mac);
        assert_eq!(OpKind::Mac(0).class(), OpClass::Mac);
        assert_eq!(OpKind::Scale(1, 0).class(), OpClass::Mac);
        assert_eq!(OpKind::ScaledMul(1, 0).class(), OpClass::Mac);
    }

    #[test]
    fn op_class_names_round_trip() {
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(OpClass::parse(c.name()), Some(*c));
        }
        assert_eq!(OpClass::parse("fpu"), None);
    }

    #[test]
    fn op_eval_wraps() {
        assert_eq!(OpKind::Add(1).eval(&[i64::MAX], 0), i64::MIN);
        assert_eq!(OpKind::Mul(0).eval(&[i64::MAX, 2], 0), -2);
    }

    #[test]
    fn reference_execution_simple_recurrence() {
        // A[i] = A[i-1] + 1, A[0] = 0  =>  A[i] = i.
        let mut b = DfgBuilder::new();
        let a = b.node("A", 1, OpKind::Add(1));
        b.edge(a, a, 1);
        let g = b.build().unwrap();
        let vals = g.reference_execution(5);
        assert_eq!(vals[0], vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn reference_execution_cross_iteration() {
        // B[i] = A[i] * 1st;  A[i] = B[i-2] + 1.
        let g = two_node();
        let a = g.find_node("A").unwrap().index();
        let b = g.find_node("B").unwrap().index();
        let vals = g.reference_execution(6);
        // A[1] = 0+1 = 1; B[1] = 1*1+2 = 3; A[2] = 0+1 = 1; B[2] = 3;
        // A[3] = B[1]+1 = 4; B[3] = 4+2 = 6; A[4] = B[2]+1 = 4; B[4] = 6;
        assert_eq!(vals[a][..4], [1, 1, 4, 4]);
        assert_eq!(vals[b][..4], [3, 3, 6, 6]);
    }

    #[test]
    fn reference_execution_respects_intra_iteration_order() {
        // C depends on B depends on A, all zero-delay; insertion order is
        // deliberately scrambled relative to dependence order.
        let mut bld = DfgBuilder::new();
        let c = bld.node("C", 1, OpKind::Add(0));
        let a = bld.node("A", 1, OpKind::Input(0));
        let b2 = bld.node("B", 1, OpKind::Add(100));
        bld.edge(a, b2, 0);
        bld.edge(b2, c, 0);
        let g = bld.build().unwrap();
        let vals = g.reference_execution(2);
        // A[i] = 31 i, B[i] = 31 i + 100, C[i] = B[i].
        assert_eq!(vals[a.index()], vec![31, 62]);
        assert_eq!(vals[b2.index()], vec![131, 162]);
        assert_eq!(vals[c.index()], vec![131, 162]);
    }
}

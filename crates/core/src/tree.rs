//! Multicast tree representation.
//!
//! A multicast tree spans the *participants* of a multicast: the source plus
//! every destination. Participants are identified by [`Rank`] — their
//! position in the (contention-free) ordering used to build the tree, with
//! the source at rank 0. Binding ranks to physical hosts is the topology
//! layer's job; the core algorithms are purely rank-based, exactly as in the
//! paper where trees are built on an ordered chain of nodes.
//!
//! Children are stored **in send order**: under both FCFS and FPFS the NI
//! forwards to `children[0]` first, then `children[1]`, and so on. The send
//! order is what the paper's Fig. 11 construction pins down, so it is part of
//! the tree's identity, not a presentation detail.
//!
//! Trees change shape two ways. [`MulticastTree::add_rank`] splices one new
//! leaf in place, keeping every rank. [`MulticastTree::repair`] builds a new
//! tree over the survivors of a failure set, renumbered densely, and
//! reports the rank map and how many orphaned subtrees it re-attached.

use std::fmt;

/// A participant's index in the multicast ordering; the source is rank 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Rank(pub u32);

impl Rank {
    /// The multicast source.
    pub const SOURCE: Rank = Rank(0);

    /// Rank as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u32> for Rank {
    fn from(v: u32) -> Self {
        Rank(v)
    }
}

/// Sentinel for "no rank" in the intrusive child chains.
const NONE: u32 = u32::MAX;

/// Child lists packed into compressed-sparse-row arrays: children of `r`
/// are `dat[off[r]..off[r + 1]]`, in send order. Derived lazily from the
/// chain links so tree *construction* stays O(1) per attach and O(n) total
/// — the former `Vec<Vec<Rank>>` layout cost one allocation per rank, which
/// dominated setup at n = 65,536.
#[derive(Debug)]
struct PackedChildren {
    off: Vec<u32>,
    dat: Vec<Rank>,
}

impl PackedChildren {
    /// Rewrites the index from `tree`'s chain links, reusing its storage.
    fn fill(&mut self, tree: &MulticastTree) {
        self.off.clear();
        self.dat.clear();
        self.off.push(0);
        for r in 0..tree.len() {
            self.dat.extend(tree.children_iter(Rank(r as u32)));
            self.off.push(self.dat.len() as u32);
        }
    }
}

/// A rooted multicast tree over ranks `0..n`, rank 0 at the root.
///
/// Stored as parent pointers plus intrusive first-child/next-sibling
/// chains, indexed directly by rank (the arena has exactly one slot per
/// participant). [`Self::children`] serves contiguous slices from a CSR
/// index packed on first use and invalidated by [`Self::attach`]; steady
/// state callers should [`Self::pack`] once after construction so later
/// queries are allocation-free.
pub struct MulticastTree {
    parent: Vec<Option<Rank>>,
    /// First child of each rank (send order head), `NONE` if childless.
    first_child: Vec<u32>,
    /// Last child of each rank (send order tail), for O(1) append.
    last_child: Vec<u32>,
    /// Next sibling in the parent's send order, `NONE` at the tail.
    next_sibling: Vec<u32>,
    /// Number of children per rank.
    child_count: Vec<u32>,
    /// Lazy CSR view of the chains.
    packed: std::sync::OnceLock<PackedChildren>,
}

impl fmt::Debug for MulticastTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let children: Vec<Vec<Rank>> = (0..self.len())
            .map(|r| self.children_iter(Rank(r as u32)).collect())
            .collect();
        f.debug_struct("MulticastTree")
            .field("parent", &self.parent)
            .field("children", &children)
            .finish()
    }
}

impl Clone for MulticastTree {
    fn clone(&self) -> Self {
        // The packed CSR is derived state; the clone rebuilds it on demand.
        MulticastTree {
            parent: self.parent.clone(),
            first_child: self.first_child.clone(),
            last_child: self.last_child.clone(),
            next_sibling: self.next_sibling.clone(),
            child_count: self.child_count.clone(),
            packed: std::sync::OnceLock::new(),
        }
    }

    /// Copies `source` into `self`'s storage. A packed index `self` already
    /// holds is refilled in place, so re-cloning a tree of the same size
    /// into a packed copy allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.parent.clone_from(&source.parent);
        self.first_child.clone_from(&source.first_child);
        self.last_child.clone_from(&source.last_child);
        self.next_sibling.clone_from(&source.next_sibling);
        self.child_count.clone_from(&source.child_count);
        if let Some(mut packed) = self.packed.take() {
            packed.fill(self);
            let _ = self.packed.set(packed);
        }
    }
}

impl PartialEq for MulticastTree {
    fn eq(&self, other: &Self) -> bool {
        // parent + chain links fully determine the per-parent send orders;
        // everything else is derived.
        self.parent == other.parent
            && self.first_child == other.first_child
            && self.next_sibling == other.next_sibling
    }
}

impl Eq for MulticastTree {}

impl MulticastTree {
    /// A tree containing only the source.
    pub fn singleton() -> Self {
        Self::with_capacity(1)
    }

    /// Creates an edgeless forest over `n` participants; callers then attach
    /// every non-source rank exactly once via [`MulticastTree::attach`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_capacity(n: u32) -> Self {
        assert!(n >= 1, "a multicast tree spans at least the source");
        MulticastTree {
            parent: vec![None; n as usize],
            first_child: vec![NONE; n as usize],
            last_child: vec![NONE; n as usize],
            next_sibling: vec![NONE; n as usize],
            child_count: vec![0; n as usize],
            packed: std::sync::OnceLock::new(),
        }
    }

    /// Attaches `child` as the next (last-so-far) child of `parent`. O(1).
    ///
    /// # Panics
    ///
    /// Panics if either rank is out of range, if `child` is the source, if
    /// `child` already has a parent, or on a self-loop.
    pub fn attach(&mut self, parent: Rank, child: Rank) {
        assert!(parent.index() < self.len(), "parent {parent} out of range");
        assert!(child.index() < self.len(), "child {child} out of range");
        assert_ne!(child, Rank::SOURCE, "the source cannot be attached");
        assert_ne!(parent, child, "self-loop at {parent}");
        assert!(
            self.parent[child.index()].is_none(),
            "{child} already has a parent"
        );
        self.parent[child.index()] = Some(parent);
        let p = parent.index();
        let tail = self.last_child[p];
        if tail == NONE {
            self.first_child[p] = child.0;
        } else {
            self.next_sibling[tail as usize] = child.0;
        }
        self.last_child[p] = child.0;
        self.child_count[p] += 1;
        self.packed.take();
    }

    /// The packed CSR child lists, built on first use in one O(n) pass.
    fn packed(&self) -> &PackedChildren {
        self.packed.get_or_init(|| {
            let n = self.len();
            let mut packed = PackedChildren {
                off: Vec::with_capacity(n + 1),
                dat: Vec::with_capacity(n.saturating_sub(1)),
            };
            packed.fill(self);
            packed
        })
    }

    /// Forces the packed CSR child index now. The simulator calls this
    /// during setup so that [`Self::children`] stays allocation-free in the
    /// zero-alloc steady state.
    pub fn pack(&self) {
        let _ = self.packed();
    }

    /// Number of participants (source included).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the tree is just the source.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// The root's children, in send order.
    pub fn root_children(&self) -> &[Rank] {
        self.children(Rank::SOURCE)
    }

    /// `k_T`: the number of children of the root — the pipelining interval of
    /// the FPFS model (Theorem 1).
    pub fn root_degree(&self) -> u32 {
        self.child_count[0]
    }

    /// Children of `r`, in send order.
    pub fn children(&self, r: Rank) -> &[Rank] {
        let packed = self.packed();
        &packed.dat[packed.off[r.index()] as usize..packed.off[r.index() + 1] as usize]
    }

    /// Children of `r` in send order, walked over the intrusive chain
    /// without touching the packed index — use while the tree is still
    /// being mutated (each [`Self::attach`] invalidates the pack, so mixing
    /// mutation with [`Self::children`] would repack per query).
    fn children_iter(&self, r: Rank) -> impl Iterator<Item = Rank> + '_ {
        let mut cur = self.first_child[r.index()];
        std::iter::from_fn(move || {
            if cur == NONE {
                None
            } else {
                let out = Rank(cur);
                cur = self.next_sibling[cur as usize];
                Some(out)
            }
        })
    }

    /// Number of children of `r`. O(1).
    pub fn child_count(&self, r: Rank) -> u32 {
        self.child_count[r.index()]
    }

    /// Parent of `r` (`None` for the source).
    pub fn parent(&self, r: Rank) -> Option<Rank> {
        self.parent[r.index()]
    }

    /// Maximum number of children over all vertices — the `k` for which this
    /// is (at most) a k-binomial tree.
    pub fn max_degree(&self) -> u32 {
        self.child_count.iter().copied().max().unwrap_or(0)
    }

    /// Tree depth in edges (0 for a singleton).
    pub fn depth(&self) -> u32 {
        self.depths().into_iter().max().unwrap_or(0)
    }

    /// Depth in edges of every rank, indexed by rank (0 for the source).
    pub fn depths(&self) -> Vec<u32> {
        let mut depth = vec![0u32; self.len()];
        for r in self.dfs_preorder() {
            if let Some(p) = self.parent(r) {
                depth[r.index()] = depth[p.index()] + 1;
            }
        }
        depth
    }

    /// Size of the subtree rooted at each rank (itself included).
    pub fn subtree_sizes(&self) -> Vec<u32> {
        let mut sizes = vec![1u32; self.len()];
        // Children always have a higher DFS finish time; accumulate reversed
        // preorder so every child is folded before its parent.
        let order = self.dfs_preorder();
        for &r in order.iter().rev() {
            if let Some(p) = self.parent(r) {
                sizes[p.index()] += sizes[r.index()];
            }
        }
        sizes
    }

    /// Preorder traversal from the root, children visited in send order.
    pub fn dfs_preorder(&self) -> Vec<Rank> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack = vec![Rank::SOURCE];
        while let Some(r) = stack.pop() {
            out.push(r);
            // Reverse so children pop in send order.
            for &c in self.children(r).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Edges as `(parent, child)` pairs in preorder, children in send order.
    pub fn edges(&self) -> Vec<(Rank, Rank)> {
        self.dfs_preorder()
            .into_iter()
            .filter_map(|r| self.parent(r).map(|p| (p, r)))
            .collect()
    }

    /// Checks structural invariants: every non-source rank attached exactly
    /// once, parent/child tables mutually consistent, and the graph is a
    /// single tree rooted at the source (connected and acyclic).
    ///
    /// Builders call this in debug builds; tests call it unconditionally.
    pub fn validate(&self) -> Result<(), TreeError> {
        if self.parent.len() != self.first_child.len() {
            return Err(TreeError::Inconsistent("table length mismatch".into()));
        }
        if self.parent[0].is_some() {
            return Err(TreeError::Inconsistent("source has a parent".into()));
        }
        for (i, p) in self.parent.iter().enumerate().skip(1) {
            let Some(p) = p else {
                return Err(TreeError::Unattached(Rank(i as u32)));
            };
            if !self.children_iter(*p).any(|c| c == Rank(i as u32)) {
                return Err(TreeError::Inconsistent(format!(
                    "r{i} has parent {p} but is not among its children"
                )));
            }
        }
        for i in 0..self.len() {
            for c in self.children_iter(Rank(i as u32)) {
                if self.parent[c.index()] != Some(Rank(i as u32)) {
                    return Err(TreeError::Inconsistent(format!(
                        "{c} listed as child of r{i} but has a different parent"
                    )));
                }
            }
        }
        let visited = self.dfs_preorder();
        if visited.len() != self.len() {
            return Err(TreeError::Disconnected {
                reached: visited.len(),
                total: self.len(),
            });
        }
        Ok(())
    }

    /// Renders the tree as an ASCII outline (for examples and debugging).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(Rank::SOURCE, 0, &mut out);
        out
    }

    fn render_into(&self, r: Rank, indent: usize, out: &mut String) {
        use fmt::Write as _;
        let _ = writeln!(out, "{}{}", "  ".repeat(indent), r);
        for &c in self.children(r) {
            self.render_into(c, indent + 1, out);
        }
    }
}

/// Structural defects reported by [`MulticastTree::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// A non-source rank was never attached.
    Unattached(Rank),
    /// Parent/child tables disagree.
    Inconsistent(String),
    /// Not all ranks reachable from the source.
    Disconnected { reached: usize, total: usize },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Unattached(r) => write!(f, "rank {r} is not attached to the tree"),
            TreeError::Inconsistent(msg) => write!(f, "inconsistent tree tables: {msg}"),
            TreeError::Disconnected { reached, total } => {
                write!(f, "tree reaches {reached} of {total} ranks")
            }
        }
    }
}

impl std::error::Error for TreeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: u32) -> MulticastTree {
        let mut t = MulticastTree::with_capacity(n);
        for i in 1..n {
            t.attach(Rank(i - 1), Rank(i));
        }
        t
    }

    #[test]
    fn singleton_properties() {
        let t = MulticastTree::singleton();
        assert_eq!(t.len(), 1);
        assert!(t.is_empty());
        assert_eq!(t.root_degree(), 0);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.max_degree(), 0);
        t.validate().unwrap();
    }

    #[test]
    fn chain_properties() {
        let t = chain(5);
        t.validate().unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t.root_degree(), 1);
        assert_eq!(t.depth(), 4);
        assert_eq!(t.max_degree(), 1);
        assert_eq!(t.subtree_sizes(), vec![5, 4, 3, 2, 1]);
        assert_eq!(t.dfs_preorder(), (0..5).map(Rank).collect::<Vec<_>>());
    }

    #[test]
    fn star_properties() {
        let mut t = MulticastTree::with_capacity(6);
        for i in 1..6 {
            t.attach(Rank::SOURCE, Rank(i));
        }
        t.validate().unwrap();
        assert_eq!(t.root_degree(), 5);
        assert_eq!(t.depth(), 1);
        assert_eq!(
            t.root_children(),
            &[Rank(1), Rank(2), Rank(3), Rank(4), Rank(5)]
        );
    }

    #[test]
    fn children_keep_send_order() {
        let mut t = MulticastTree::with_capacity(4);
        t.attach(Rank::SOURCE, Rank(3));
        t.attach(Rank::SOURCE, Rank(1));
        t.attach(Rank(1), Rank(2));
        assert_eq!(t.root_children(), &[Rank(3), Rank(1)]);
        t.validate().unwrap();
    }

    #[test]
    fn edges_in_preorder() {
        let mut t = MulticastTree::with_capacity(4);
        t.attach(Rank::SOURCE, Rank(2));
        t.attach(Rank(2), Rank(3));
        t.attach(Rank::SOURCE, Rank(1));
        assert_eq!(
            t.edges(),
            vec![(Rank(0), Rank(2)), (Rank(2), Rank(3)), (Rank(0), Rank(1))]
        );
    }

    #[test]
    fn validate_catches_unattached() {
        let t = MulticastTree::with_capacity(3);
        assert!(matches!(t.validate(), Err(TreeError::Unattached(_))));
    }

    #[test]
    #[should_panic(expected = "already has a parent")]
    fn double_attach_panics() {
        let mut t = MulticastTree::with_capacity(3);
        t.attach(Rank(0), Rank(1));
        t.attach(Rank(2), Rank(1));
    }

    #[test]
    #[should_panic(expected = "source cannot be attached")]
    fn attach_source_panics() {
        let mut t = MulticastTree::with_capacity(2);
        t.attach(Rank(1), Rank(0));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut t = MulticastTree::with_capacity(2);
        t.attach(Rank(1), Rank(1));
    }

    #[test]
    fn render_is_indented() {
        let t = chain(3);
        assert_eq!(t.render(), "r0\n  r1\n    r2\n");
    }
}

impl MulticastTree {
    /// Renders the tree as a Graphviz `dot` digraph. Edge labels carry the
    /// child's send position (1-based), i.e. the single-packet step offset
    /// at which the parent contacts that child.
    ///
    /// ```
    /// use optimcast_core::builders::binomial_tree;
    /// let dot = binomial_tree(4).to_dot();
    /// assert!(dot.starts_with("digraph multicast"));
    /// assert!(dot.contains("r0 -> r2"));
    /// ```
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph multicast {\n  rankdir=TB;\n  node [shape=circle];\n");
        for r in self.dfs_preorder() {
            for (i, &c) in self.children(r).iter().enumerate() {
                let _ = writeln!(out, "  r{} -> r{} [label=\"{}\"];", r.0, c.0, i + 1);
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Result of [`MulticastTree::repair`]: a tree over the surviving ranks
/// (renumbered densely, old-rank order), the rank correspondence, and the
/// number of re-attachments performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeRepair {
    /// The repaired tree over `survivors` ranks; rank 0 is still the source.
    pub tree: MulticastTree,
    /// `new_to_old[new.index()]` = the surviving participant's original rank.
    pub new_to_old: Vec<Rank>,
    /// How many orphaned subtree roots were re-attached to a surviving node.
    pub reattached: u32,
}

/// Why [`MulticastTree::repair`] rejected a failure set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairError {
    /// The source failed: there is no multicast to repair.
    SourceFailed,
    /// A failed rank is outside the tree.
    UnknownRank(Rank),
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::SourceFailed => write!(f, "the multicast source failed"),
            RepairError::UnknownRank(r) => write!(f, "failed rank {r} is not in the tree"),
        }
    }
}

impl std::error::Error for RepairError {}

impl MulticastTree {
    /// Rebuilds the tree after the given ranks fail, re-attaching every
    /// orphaned subtree to a surviving node while preserving the fan-out
    /// bound `k = max_degree()` (so a repaired k-binomial tree is still at
    /// most k-ary).
    ///
    /// Surviving edges keep their send order; each orphaned subtree root is
    /// re-attached to its nearest surviving original ancestor with spare
    /// fan-out, falling back to the closest-to-root surviving node with
    /// spare fan-out (breadth-first). Survivors are renumbered densely in
    /// original-rank order, so a fault-free repair is the identity.
    ///
    /// # Errors
    ///
    /// [`RepairError::SourceFailed`] if rank 0 is in `failed`;
    /// [`RepairError::UnknownRank`] for an out-of-range rank.
    pub fn repair(&self, failed: &[Rank]) -> Result<TreeRepair, RepairError> {
        self.repair_partial(failed, &[])
    }

    /// [`Self::repair`] with partial-delivery state: ranks in `delivered`
    /// already hold the message, so live mid-run repair must not re-bind
    /// them. They are excluded from the repaired tree exactly like failed
    /// ranks — the result spans the source plus the *undelivered survivors*
    /// only — but excluding them is not a failure: listing the source as
    /// delivered is a no-op (it always holds the data) and does not error.
    ///
    /// # Errors
    ///
    /// [`RepairError::SourceFailed`] if rank 0 is in `failed`;
    /// [`RepairError::UnknownRank`] for an out-of-range rank in either set.
    pub fn repair_partial(
        &self,
        failed: &[Rank],
        delivered: &[Rank],
    ) -> Result<TreeRepair, RepairError> {
        let n = self.len();
        let mut dead = vec![false; n];
        for &r in failed {
            if r.index() >= n {
                return Err(RepairError::UnknownRank(r));
            }
            if r == Rank::SOURCE {
                return Err(RepairError::SourceFailed);
            }
            dead[r.index()] = true;
        }
        for &r in delivered {
            if r.index() >= n {
                return Err(RepairError::UnknownRank(r));
            }
            if r != Rank::SOURCE {
                dead[r.index()] = true;
            }
        }

        // Dense renumbering, original-rank order (source stays rank 0).
        let mut old_to_new: Vec<Option<Rank>> = vec![None; n];
        let mut new_to_old = Vec::new();
        for old in 0..n {
            if !dead[old] {
                old_to_new[old] = Some(Rank(new_to_old.len() as u32));
                new_to_old.push(Rank(old as u32));
            }
        }
        let survivors = new_to_old.len();
        let mut tree = MulticastTree::with_capacity(survivors as u32);

        // Fan-out budget: a repaired tree must stay within the original k
        // (a leaf-only tree still permits single children).
        let k = self.max_degree().max(1) as usize;

        // Pass 1 — keep every surviving edge, in preorder, so each parent's
        // surviving children retain their original send order.
        for r in self.dfs_preorder() {
            if dead[r.index()] {
                continue;
            }
            if let Some(p) = self.parent(r) {
                if !dead[p.index()] {
                    tree.attach(
                        old_to_new[p.index()].unwrap(),
                        old_to_new[r.index()].unwrap(),
                    );
                }
            }
        }

        // Which new ranks are currently reachable from the source.
        let mut connected = vec![false; survivors];
        // The repaired tree is still being attached to, so walk the chain
        // links (children_iter / child_count) rather than children(): every
        // attach invalidates the packed index, and repacking per query
        // would make this pass quadratic.
        let mark_component = |tree: &MulticastTree, connected: &mut Vec<bool>, start: Rank| {
            let mut stack = vec![start];
            while let Some(u) = stack.pop() {
                if std::mem::replace(&mut connected[u.index()], true) {
                    continue;
                }
                stack.extend(tree.children_iter(u));
            }
        };
        mark_component(&tree, &mut connected, Rank::SOURCE);

        // Pass 2 — re-attach each orphaned subtree root (original-rank
        // order): nearest surviving *connected* original ancestor with spare
        // fan-out, else the closest-to-root connected node with spare
        // fan-out. Attaching only to connected targets keeps the structure
        // acyclic by construction.
        let mut reattached = 0;
        for old in 1..n {
            if dead[old] {
                continue;
            }
            let new_r = old_to_new[old].unwrap();
            if connected[new_r.index()] {
                continue; // still rooted (directly or via pass-1 edges)
            }
            let old_parent = self.parent(Rank(old as u32)).expect("non-source rank");
            if !dead[old_parent.index()] {
                continue; // inside an orphaned subtree; its root re-attaches
            }
            let mut target = None;
            let mut anc = Some(old_parent);
            while let Some(a) = anc {
                if !dead[a.index()] {
                    let na = old_to_new[a.index()].unwrap();
                    if connected[na.index()] && (tree.child_count(na) as usize) < k {
                        target = Some(na);
                        break;
                    }
                }
                anc = self.parent(a);
            }
            // Else the shallowest connected node with spare fan-out: every
            // node the walk from the source reaches is connected.
            let target = target.unwrap_or_else(|| tree.shallowest_spare(k));
            tree.attach(target, new_r);
            mark_component(&tree, &mut connected, new_r);
            reattached += 1;
        }

        debug_assert!(tree.validate().is_ok());
        Ok(TreeRepair {
            tree,
            new_to_old,
            reattached,
        })
    }

    /// The shallowest node with fewer than `k` children: breadth-first from
    /// the source, children in send order. The one spare-slot rule shared
    /// by [`Self::add_rank`], [`Self::remove_rank`] and the repair fallback.
    ///
    /// Within one level, breadth-first order is preorder restricted to that
    /// level, so the search walks the levels in turn with a stackless
    /// preorder cut at the level's depth (parent and sibling links only) and
    /// allocates nothing. Ranks the source does not reach are never visited.
    fn shallowest_spare(&self, k: usize) -> Rank {
        let k = k.max(1);
        // Terminates: the shallowest leaf has 0 < k children, so its level
        // returns.
        let mut level = 0u32;
        loop {
            let (mut u, mut depth) = (0usize, 0u32);
            'walk: loop {
                if depth == level {
                    if (self.child_count[u] as usize) < k {
                        return Rank(u as u32);
                    }
                } else if self.first_child[u] != NONE {
                    u = self.first_child[u] as usize;
                    depth += 1;
                    continue;
                }
                // Climb to the nearest ancestor-or-self with a next sibling.
                while self.next_sibling[u] == NONE {
                    match self.parent[u] {
                        Some(p) if depth > 0 => {
                            u = p.index();
                            depth -= 1;
                        }
                        _ => break 'walk,
                    }
                }
                u = self.next_sibling[u] as usize;
            }
            level += 1;
        }
    }

    /// Splices a new participant into the tree in place as rank `n` (one
    /// past the current highest) and returns it. The new leaf is attached
    /// to the shallowest node with fewer than `k` children — breadth-first
    /// from the source, children visited in send order, so repeated joins
    /// fill the tree level by level exactly like the repair fallback of
    /// [`Self::repair`]. Removing a participant is [`Self::remove_rank`].
    ///
    /// Every existing edge and send order is kept and no rank moves.
    pub fn add_rank(&mut self, k: u32) -> Rank {
        let joined = Rank(self.len() as u32);
        self.parent.push(None);
        self.first_child.push(NONE);
        self.last_child.push(NONE);
        self.next_sibling.push(NONE);
        self.child_count.push(0);
        let target = self.shallowest_spare(k.max(1) as usize);
        self.attach(target, joined);
        joined
    }

    /// Splices rank `gone` out of the tree in place and returns how many of
    /// its children were re-attached. The result equals
    /// `repair(&[gone]).tree` under `PartialEq`, without building a second
    /// tree or allocating:
    ///
    /// * every rank above `gone` shifts down by one;
    /// * surviving edges keep their send order;
    /// * `gone`'s children re-attach in original-rank order, each to its
    ///   nearest ancestor with spare fan-out, else to the shallowest node
    ///   with spare fan-out, where the bound is `max_degree()` taken before
    ///   the splice.
    ///
    /// # Errors
    ///
    /// [`RepairError::SourceFailed`] for rank 0 and
    /// [`RepairError::UnknownRank`] for an out-of-range rank; the tree is
    /// unchanged.
    pub fn remove_rank(&mut self, gone: Rank) -> Result<u32, RepairError> {
        let n = self.len();
        if gone.index() >= n {
            return Err(RepairError::UnknownRank(gone));
        }
        if gone == Rank::SOURCE {
            return Err(RepairError::SourceFailed);
        }
        let k = self.max_degree().max(1) as usize;
        let up = self.parent[gone.index()].take();
        if let Some(p) = up {
            self.unlink(p, gone);
        }
        // `gone` is now unreachable from the source, and so are the
        // children still hanging under it: the spare-slot searches below
        // see only the surviving tree, as the repair's do.
        let mut reattached = 0;
        for c in 0..n {
            if self.parent[c] != Some(gone) {
                continue;
            }
            self.parent[c] = None;
            self.next_sibling[c] = NONE;
            let mut target = None;
            let mut anc = up;
            while let Some(a) = anc {
                if (self.child_count[a.index()] as usize) < k {
                    target = Some(a);
                    break;
                }
                anc = self.parent[a.index()];
            }
            let target = target.unwrap_or_else(|| self.shallowest_spare(k));
            self.attach(target, Rank(c as u32));
            reattached += 1;
        }
        // Close the gap: drop `gone`'s slot and renumber every link above it.
        let g = gone.0;
        for links in [
            &mut self.first_child,
            &mut self.last_child,
            &mut self.next_sibling,
        ] {
            links.remove(gone.index());
            for v in links.iter_mut() {
                if *v != NONE && *v > g {
                    *v -= 1;
                }
            }
        }
        self.child_count.remove(gone.index());
        self.parent.remove(gone.index());
        for r in self.parent.iter_mut().flatten() {
            if r.0 > g {
                r.0 -= 1;
            }
        }
        self.packed.take();
        Ok(reattached)
    }

    /// Removes `child` from `parent`'s child chain, keeping the order of
    /// the rest.
    fn unlink(&mut self, parent: Rank, child: Rank) {
        let p = parent.index();
        let next = std::mem::replace(&mut self.next_sibling[child.index()], NONE);
        let mut prev = NONE;
        let mut cur = self.first_child[p];
        while cur != NONE && cur != child.0 {
            prev = cur;
            cur = self.next_sibling[cur as usize];
        }
        if prev == NONE {
            self.first_child[p] = next;
        } else {
            self.next_sibling[prev as usize] = next;
        }
        if self.last_child[p] == child.0 {
            self.last_child[p] = prev;
        }
        self.child_count[p] -= 1;
    }
}

#[cfg(test)]
mod repair_tests {
    use super::*;
    use crate::builders::{binomial_tree, kbinomial_tree, linear_tree};

    #[test]
    fn no_failures_is_identity() {
        let t = kbinomial_tree(16, 2);
        let rep = t.repair(&[]).unwrap();
        assert_eq!(rep.tree, t);
        assert_eq!(rep.reattached, 0);
        assert_eq!(rep.new_to_old, (0..16).map(Rank).collect::<Vec<_>>());
    }

    #[test]
    fn source_failure_is_rejected() {
        let t = binomial_tree(8);
        assert_eq!(t.repair(&[Rank(0)]), Err(RepairError::SourceFailed));
        assert_eq!(t.repair(&[Rank(9)]), Err(RepairError::UnknownRank(Rank(9))));
    }

    #[test]
    fn orphans_reattach_to_nearest_ancestor() {
        // Chain 0-1-2-3: killing 1 orphans {2,3}; 2's nearest surviving
        // ancestor is the source, 3 stays under 2.
        let t = linear_tree(4);
        let rep = t.repair(&[Rank(1)]).unwrap();
        rep.tree.validate().unwrap();
        assert_eq!(rep.tree.len(), 3);
        assert_eq!(rep.reattached, 1);
        // New ranks: 0->0, 2->1, 3->2; old 2 re-attached under the source.
        assert_eq!(rep.new_to_old, vec![Rank(0), Rank(2), Rank(3)]);
        assert_eq!(rep.tree.parent(Rank(1)), Some(Rank(0)));
        assert_eq!(rep.tree.parent(Rank(2)), Some(Rank(1)));
        assert_eq!(rep.tree.max_degree(), 1, "chain fan-out preserved");
    }

    #[test]
    fn fan_out_bound_is_preserved() {
        for k in 1..=4u32 {
            let t = kbinomial_tree(32, k);
            // Kill every child of the root: all grandchild subtrees must
            // re-attach without exceeding k anywhere.
            let failed: Vec<Rank> = t.root_children().to_vec();
            let rep = t.repair(&failed).unwrap();
            rep.tree.validate().unwrap();
            assert_eq!(rep.tree.len(), 32 - failed.len());
            assert!(
                rep.tree.max_degree() <= t.max_degree().max(1),
                "k={k}: repaired degree {} exceeds bound",
                rep.tree.max_degree()
            );
        }
    }

    #[test]
    fn every_survivor_is_reached_exactly_once() {
        let t = kbinomial_tree(24, 3);
        let failed = [Rank(1), Rank(5), Rank(11), Rank(17)];
        let rep = t.repair(&failed).unwrap();
        rep.tree.validate().unwrap(); // attached exactly once + connected
        assert_eq!(rep.tree.len(), 20);
        // Survivors keep their original-rank order; the failed are gone.
        let survivors: Vec<Rank> = (0..24).map(Rank).filter(|r| !failed.contains(r)).collect();
        assert_eq!(rep.new_to_old, survivors);
    }

    #[test]
    fn partial_repair_excludes_delivered_ranks() {
        let t = kbinomial_tree(16, 2);
        let failed = [Rank(1)];
        let delivered = [Rank(2), Rank(3), Rank::SOURCE];
        let rep = t.repair_partial(&failed, &delivered).unwrap();
        rep.tree.validate().unwrap();
        // Source + 16 - 1 source - 1 failed - 2 delivered = 13 ranks remain.
        assert_eq!(rep.tree.len(), 13);
        assert_eq!(
            rep.new_to_old,
            [0].into_iter().chain(4..16).map(Rank).collect::<Vec<_>>()
        );
        // Delivered ranks are excluded, not failures.
        assert_eq!(
            t.repair_partial(&[Rank(0)], &[]),
            Err(RepairError::SourceFailed)
        );
        assert_eq!(
            t.repair_partial(&[], &[Rank(99)]),
            Err(RepairError::UnknownRank(Rank(99)))
        );
        // An empty delivered set reduces to plain repair.
        assert_eq!(t.repair_partial(&failed, &[]), t.repair(&failed));
    }

    /// Regression (static-rank-universe seam audit): a rank listed in both
    /// `failed` and `delivered` is excluded exactly once — the dead-set
    /// flagging is idempotent, so the overlap behaves like plain failure
    /// and never double-counts, shifts the dense renumbering, or panics.
    #[test]
    fn overlapping_failed_and_delivered_sets_are_idempotent() {
        let t = kbinomial_tree(16, 2);
        let overlap = [Rank(3), Rank(7)];
        let rep = t.repair_partial(&overlap, &overlap).unwrap();
        assert_eq!(rep, t.repair(&overlap).unwrap());
        assert_eq!(rep.tree.len(), 14);
        // Disjoint-plus-overlap mixes reduce to the union of the sets.
        let rep2 = t
            .repair_partial(&[Rank(3), Rank(7)], &[Rank(7), Rank(9)])
            .unwrap();
        assert_eq!(
            rep2,
            t.repair_partial(&[Rank(3), Rank(7)], &[Rank(9)]).unwrap()
        );
        // The source in `failed` stays an error even when also delivered
        // (failure is checked first; delivery never legitimises a dead
        // source).
        assert_eq!(
            t.repair_partial(&[Rank::SOURCE], &[Rank::SOURCE]),
            Err(RepairError::SourceFailed)
        );
        // Duplicates within one set are equally idempotent.
        assert_eq!(
            t.repair_partial(&[Rank(5), Rank(5)], &[]),
            t.repair(&[Rank(5)])
        );
    }
}

#[cfg(test)]
mod incremental_tests {
    use super::*;
    use crate::builders::{kbinomial_tree, linear_tree};

    #[test]
    fn add_rank_attaches_at_the_shallowest_spare_slot() {
        // Full 2-binomial levels: the next join lands under the shallowest
        // node with spare fan-out, breadth-first in send order.
        let old = kbinomial_tree(4, 2); // root -> {2, 1}, 2 -> {3}
        let mut t = old.clone();
        assert_eq!(t.add_rank(2), Rank(4));
        t.validate().unwrap();
        assert_eq!(t.len(), 5);
        // Root is full (2 children); rank 2, first in send order, has one
        // child -> the spare slot.
        assert_eq!(t.parent(Rank(4)), Some(Rank(2)));
        assert!(t.max_degree() <= 2);
        // Existing edges and send orders are untouched.
        assert_eq!(t.root_children(), old.root_children());
        assert_eq!(t.children(Rank(2)), &[Rank(3), Rank(4)]);
    }

    #[test]
    fn add_rank_on_a_chain_extends_the_chain() {
        let mut t = linear_tree(3);
        assert_eq!(t.add_rank(1), Rank(3));
        t.validate().unwrap();
        assert_eq!(t.parent(Rank(3)), Some(Rank(2)));
        assert_eq!(t.max_degree(), 1);
    }

    /// The in-place splice equals rebuilding the tree edge by edge in
    /// preorder and attaching the new leaf at the same slot.
    #[test]
    fn add_rank_equals_a_rebuild_plus_one_attach() {
        for (n, k) in [(1u32, 1u32), (4, 2), (13, 3), (32, 2)] {
            let old = kbinomial_tree(n, k);
            let mut rebuilt = MulticastTree::with_capacity(n + 1);
            for (p, c) in old.edges() {
                rebuilt.attach(p, c);
            }
            rebuilt.attach(rebuilt.shallowest_spare(k as usize), Rank(n));
            let mut spliced = old.clone();
            spliced.add_rank(k);
            assert_eq!(spliced, rebuilt, "n={n} k={k}");
        }
    }

    /// The in-place leave equals `repair` of the one leaving rank, for
    /// every rank of a few shapes, including chains (every orphan falls
    /// back past a full ancestor) and stars (no grandchildren).
    #[test]
    fn remove_rank_equals_repair_of_one_rank() {
        let mut star = MulticastTree::with_capacity(6);
        for i in 1..6 {
            star.attach(Rank::SOURCE, Rank(i));
        }
        let shapes = [
            kbinomial_tree(2, 1),
            kbinomial_tree(13, 3),
            kbinomial_tree(32, 2),
            linear_tree(6),
            star,
        ];
        for tree in shapes {
            for r in 1..tree.len() as u32 {
                let rep = tree.repair(&[Rank(r)]).unwrap();
                let mut spliced = tree.clone();
                spliced.pack();
                assert_eq!(spliced.remove_rank(Rank(r)), Ok(rep.reattached));
                spliced.validate().unwrap();
                assert_eq!(spliced, rep.tree, "rank {r} of {tree:?}");
                assert_eq!(spliced.children(Rank::SOURCE), rep.tree.root_children());
            }
        }
        let mut t = kbinomial_tree(4, 2);
        assert_eq!(t.remove_rank(Rank(0)), Err(RepairError::SourceFailed));
        assert_eq!(
            t.remove_rank(Rank(4)),
            Err(RepairError::UnknownRank(Rank(4)))
        );
        assert_eq!(t, kbinomial_tree(4, 2));
    }

    /// Cloning into a packed tree refills its index in place.
    #[test]
    fn clone_from_refreshes_the_packed_index() {
        let mut copy = kbinomial_tree(8, 2);
        copy.pack();
        let other = linear_tree(8);
        copy.clone_from(&other);
        assert_eq!(copy, other);
        assert_eq!(copy.children(Rank(3)), &[Rank(4)]);
        assert_eq!(copy.root_children(), &[Rank(1)]);
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;

    #[test]
    fn dot_lists_every_edge_once() {
        let mut t = MulticastTree::with_capacity(4);
        t.attach(Rank(0), Rank(2));
        t.attach(Rank(2), Rank(3));
        t.attach(Rank(0), Rank(1));
        let dot = t.to_dot();
        assert_eq!(dot.matches(" -> ").count(), 3);
        assert!(dot.contains("r0 -> r2 [label=\"1\"]"));
        assert!(dot.contains("r0 -> r1 [label=\"2\"]"));
        assert!(dot.contains("r2 -> r3 [label=\"1\"]"));
    }

    #[test]
    fn singleton_dot_has_no_edges() {
        let dot = MulticastTree::singleton().to_dot();
        assert!(!dot.contains("->"));
    }
}

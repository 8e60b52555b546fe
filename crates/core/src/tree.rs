//! The rule tree (Figure 3) with level-order traversal.
//!
//! Each node holds one rule, its measures, and its pattern cover (the input
//! rows matching `t_p`), enabling subspace search when children are grown
//! (Algorithm 4, lines 9–10). A FIFO queue of refinable nodes implements the
//! level-order walk `getNextNode` uses after a stop action.
//!
//! Every rule the tree generates is keyed by its *action set*: the sorted
//! action indices that built it from the root. Within one encoder's universe
//! each action adds one distinct LHS pair or condition, so the action set is
//! exactly the rule (the support of its one-hot state), and the global mask
//! can ask "was `parent + a` generated?" without building the child rule.

use er_rules::{EditingRule, Measures};
use er_table::RowId;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Index of a node in the tree's arena.
pub type NodeId = usize;

/// One node of the rule tree.
#[derive(Debug, Clone)]
pub struct Node {
    /// The rule this node represents.
    pub rule: EditingRule,
    /// Its measures (computed when the node was created).
    pub measures: Measures,
    /// Input rows matching the rule's pattern (subspace-search cover).
    pub cover: Vec<RowId>,
    /// Parent node (`None` for the root).
    pub parent: Option<NodeId>,
    /// Children, in creation order.
    pub children: Vec<NodeId>,
}

/// A rule's action set: strictly increasing action indices, with their
/// fingerprint (the XOR of one fixed random word per action) cached so a
/// child's fingerprint is one XOR away.
#[derive(Debug, Clone)]
struct ActionSet {
    fingerprint: u64,
    actions: Box<[u32]>,
}

/// The fingerprint word of one action (SplitMix64 of its index).
fn action_word(action: usize) -> u64 {
    let mut z = (action as u64)
        .wrapping_add(1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether `set` is exactly `parent ∪ {action}` for an action not in
/// `parent`, compared without building the union.
fn is_child_set(set: &[u32], parent: &[u32], action: u32) -> bool {
    let at = parent.partition_point(|&x| x < action);
    set.len() == parent.len() + 1
        && set[at] == action
        && set[..at] == parent[..at]
        && set[at + 1..] == parent[at..]
}

/// Hashes a map's `u64` fingerprint keys to themselves: they are already
/// uniformly mixed.
#[derive(Default)]
struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// An arena-allocated rule tree with a level-order frontier queue and a
/// visited set (the hash table of §III-B that prevents generating the same
/// rule twice), keyed by action set.
#[derive(Debug, Clone)]
pub struct RuleTree {
    nodes: Vec<Node>,
    /// Each node's action set, parallel to `nodes`.
    keys: Vec<ActionSet>,
    queue: VecDeque<NodeId>,
    /// Whether each node currently sits in the queue (enqueue is idempotent).
    queued: Vec<bool>,
    /// Every generated action set, bucketed by fingerprint. The fingerprint
    /// only picks the bucket: membership compares whole sets, so a
    /// fingerprint collision can never mask a legal action.
    visited: HashMap<u64, Vec<Box<[u32]>>, BuildHasherDefault<FingerprintHasher>>,
    current: NodeId,
}

impl RuleTree {
    /// A tree containing only the root rule (the empty action set).
    pub fn new(root_rule: EditingRule, root_measures: Measures, root_cover: Vec<RowId>) -> Self {
        let root = Node {
            rule: root_rule,
            measures: root_measures,
            cover: root_cover,
            parent: None,
            children: Vec::new(),
        };
        let key = ActionSet {
            fingerprint: 0,
            actions: Box::default(),
        };
        let mut tree = RuleTree {
            nodes: vec![root],
            keys: Vec::new(),
            queue: VecDeque::new(),
            queued: vec![false],
            visited: HashMap::default(),
            current: 0,
        };
        tree.visit(&key);
        tree.keys.push(key);
        tree
    }

    /// The node currently being refined.
    pub fn current(&self) -> NodeId {
        self.current
    }

    /// Move the cursor to `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    pub fn set_current(&mut self, id: NodeId) {
        assert!(id < self.nodes.len());
        self.current = id;
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Total number of nodes (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// The action set of node `id`'s rule, sorted.
    pub fn key(&self, id: NodeId) -> &[u32] {
        &self.keys[id].actions
    }

    /// Whether applying `action` to node `parent`'s rule re-creates a rule
    /// already generated in this tree (the global mask's probe): one hash
    /// lookup, no rule built.
    pub fn child_visited(&self, parent: NodeId, action: usize) -> bool {
        let parent = &self.keys[parent];
        let fingerprint = parent.fingerprint ^ action_word(action);
        self.visited.get(&fingerprint).is_some_and(|bucket| {
            bucket
                .iter()
                .any(|set| is_child_set(set, &parent.actions, action as u32))
        })
    }

    /// Add the child of `parent` reached by `action`, holding `rule` (which
    /// must be the parent's rule refined by that action). Returns its id.
    /// The child's action set is recorded in the visited set.
    pub fn add_child(
        &mut self,
        parent: NodeId,
        action: usize,
        rule: EditingRule,
        measures: Measures,
        cover: Vec<RowId>,
    ) -> NodeId {
        let id = self.nodes.len();
        let key = self.child_key(parent, action);
        self.visit(&key);
        self.keys.push(key);
        self.nodes.push(Node {
            rule,
            measures,
            cover,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.queued.push(false);
        self.nodes[parent].children.push(id);
        id
    }

    /// Record the child of `parent` reached by `action` as generated without
    /// materializing a node — used for below-threshold rules that must never
    /// be regenerated (global mask) yet are not part of the discovered set.
    pub fn mark_visited(&mut self, parent: NodeId, action: usize) {
        let key = self.child_key(parent, action);
        self.visit(&key);
    }

    /// `key(parent) ∪ {action}`.
    fn child_key(&self, parent: NodeId, action: usize) -> ActionSet {
        let parent = &self.keys[parent];
        let a = action as u32;
        let at = parent.actions.partition_point(|&x| x < a);
        let mut actions = Vec::with_capacity(parent.actions.len() + 1);
        actions.extend_from_slice(&parent.actions[..at]);
        actions.push(a);
        actions.extend_from_slice(&parent.actions[at..]);
        ActionSet {
            fingerprint: parent.fingerprint ^ action_word(action),
            actions: actions.into(),
        }
    }

    /// Add `key` to the visited set (idempotent).
    fn visit(&mut self, key: &ActionSet) {
        let bucket = self.visited.entry(key.fingerprint).or_default();
        if !bucket.contains(&key.actions) {
            bucket.push(key.actions.clone());
        }
    }

    /// Whether `key` is in the visited set.
    #[cfg(feature = "debug-invariants")]
    fn is_visited(&self, key: &ActionSet) -> bool {
        self.visited
            .get(&key.fingerprint)
            .is_some_and(|bucket| bucket.contains(&key.actions))
    }

    /// Enqueue a node for later level-order refinement. Idempotent: a node
    /// already waiting in the queue is not added twice.
    pub fn enqueue(&mut self, id: NodeId) {
        if !self.queued[id] {
            self.queued[id] = true;
            self.queue.push_back(id);
        }
    }

    /// Pop the next node in level order (`getNextNode` of Algorithm 4).
    pub fn next_node(&mut self) -> Option<NodeId> {
        let id = self.queue.pop_front();
        if let Some(id) = id {
            self.queued[id] = false;
        }
        id
    }

    /// Number of queued (still refinable) nodes.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// All non-root rules with their measures — the discovered set `Σ`
    /// returned after an episode.
    pub fn discovered(&self) -> Vec<(EditingRule, Measures)> {
        self.nodes[1..]
            .iter()
            .map(|n| (n.rule.clone(), n.measures))
            .collect()
    }

    /// Number of non-root nodes (the `|env.tree.leaves|` of Algorithm 3's
    /// stopping condition: every discovered rule counts).
    pub fn num_discovered(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Structural invariants, available under the `debug-invariants` feature.
    ///
    /// * the arena is acyclic: every non-root node's parent id is smaller
    ///   than its own (nodes are only ever appended under existing parents);
    /// * parent/child links are consistent both ways, children are recorded
    ///   in strictly increasing creation order, and only the root lacks a
    ///   parent;
    /// * the cursor is in bounds and `queued` mirrors the queue exactly
    ///   (same members, no duplicates);
    /// * every action set is strictly increasing, the root's is empty, and
    ///   each child's is its parent's plus exactly one action;
    /// * the visited set contains every materialized node's action set (the
    ///   global mask can never readmit an existing node), under its
    ///   fingerprint.
    ///
    /// Panics on violation; meant for debug builds and tests.
    #[cfg(feature = "debug-invariants")]
    pub fn check_invariants(&self) {
        assert!(!self.nodes.is_empty(), "RuleTree: empty arena");
        assert_eq!(
            self.keys.len(),
            self.nodes.len(),
            "RuleTree: action sets out of sync"
        );
        assert!(
            self.current < self.nodes.len(),
            "RuleTree: cursor out of bounds"
        );
        assert_eq!(
            self.queued.len(),
            self.nodes.len(),
            "RuleTree: queued flags out of sync"
        );
        assert!(
            self.nodes[0].parent.is_none(),
            "RuleTree: root has a parent"
        );
        for (id, node) in self.nodes.iter().enumerate() {
            if id > 0 {
                let p = node
                    .parent
                    .unwrap_or_else(|| panic!("RuleTree: node {id} has no parent"));
                assert!(
                    p < id,
                    "RuleTree: node {id} precedes its parent {p} (cycle)"
                );
                assert!(
                    self.nodes[p].children.contains(&id),
                    "RuleTree: parent {p} does not list child {id}"
                );
            }
            for w in node.children.windows(2) {
                assert!(
                    w[0] < w[1],
                    "RuleTree: children of {id} not in creation order"
                );
            }
            for &c in &node.children {
                assert!(
                    c < self.nodes.len(),
                    "RuleTree: child {c} of {id} out of bounds"
                );
                assert!(
                    c > id,
                    "RuleTree: child {c} precedes its parent {id} (cycle)"
                );
                assert_eq!(
                    self.nodes[c].parent,
                    Some(id),
                    "RuleTree: child {c} does not point back to {id}"
                );
            }
            let key = &self.keys[id];
            assert!(
                key.actions.windows(2).all(|w| w[0] < w[1]),
                "RuleTree: node {id} action set not strictly increasing"
            );
            let fingerprint = key
                .actions
                .iter()
                .fold(0, |f, &a| f ^ action_word(a as usize));
            assert_eq!(
                key.fingerprint, fingerprint,
                "RuleTree: node {id} fingerprint stale"
            );
            match node.parent {
                None => assert!(
                    key.actions.is_empty(),
                    "RuleTree: root action set not empty"
                ),
                Some(p) => {
                    let parent = &self.keys[p].actions;
                    assert!(
                        key.actions.len() == parent.len() + 1
                            && parent.iter().all(|a| key.actions.contains(a)),
                        "RuleTree: node {id} action set is not its parent's plus one action"
                    );
                }
            }
            assert!(
                self.is_visited(key),
                "RuleTree: node {id} action set missing from the visited set"
            );
        }
        let mut in_queue = vec![false; self.nodes.len()];
        for &id in &self.queue {
            assert!(
                id < self.nodes.len(),
                "RuleTree: queued id {id} out of bounds"
            );
            assert!(!in_queue[id], "RuleTree: node {id} queued twice");
            in_queue[id] = true;
        }
        assert_eq!(
            in_queue, self.queued,
            "RuleTree: queued flags disagree with the queue"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(i: usize) -> EditingRule {
        EditingRule::new(vec![(i, i)], (9, 9), vec![])
    }

    fn m() -> Measures {
        Measures::zero()
    }

    #[test]
    fn root_only_tree() {
        let t = RuleTree::new(EditingRule::root((9, 9)), m(), vec![0, 1]);
        assert_eq!(t.len(), 1);
        assert!(t.is_empty());
        assert_eq!(t.num_discovered(), 0);
        assert!(t.key(0).is_empty());
        assert!(!t.child_visited(0, 0));
    }

    #[test]
    fn add_children_links_parent() {
        let mut t = RuleTree::new(EditingRule::root((9, 9)), m(), vec![]);
        let a = t.add_child(0, 0, rule(0), m(), vec![]);
        let b = t.add_child(0, 1, rule(1), m(), vec![]);
        let c = t.add_child(a, 2, rule(2), m(), vec![]);
        assert_eq!(t.node(0).children, vec![a, b]);
        assert_eq!(t.node(c).parent, Some(a));
        assert_eq!(t.num_discovered(), 3);
        assert_eq!(t.key(c), &[0, 2]);
        assert!(t.child_visited(0, 1));
        assert!(!t.child_visited(0, 7));
    }

    #[test]
    fn action_sets_are_order_free() {
        // {3} + 5 and {5} + 3 are the same rule: generating one masks the
        // other, whichever parent it is reached from.
        let mut t = RuleTree::new(EditingRule::root((9, 9)), m(), vec![]);
        let three = t.add_child(0, 3, rule(3), m(), vec![]);
        let five = t.add_child(0, 5, rule(5), m(), vec![]);
        assert!(!t.child_visited(five, 3));
        t.mark_visited(three, 5);
        assert!(t.child_visited(five, 3));
        assert!(t.child_visited(three, 5));
        assert!(!t.child_visited(three, 4));
        // The root's key is not a child of anything, nor is a parent its own
        // child.
        assert!(!t.child_visited(three, 3));
    }

    #[test]
    fn colliding_fingerprints_stay_distinct() {
        // Force two different sets into one bucket: membership compares the
        // whole set, so neither masks the other.
        let mut t = RuleTree::new(EditingRule::root((9, 9)), m(), vec![]);
        let a = t.add_child(0, 1, rule(1), m(), vec![]);
        let fake = ActionSet {
            fingerprint: t.keys[a].fingerprint,
            actions: vec![2].into(),
        };
        t.visit(&fake);
        assert_eq!(t.visited[&t.keys[a].fingerprint].len(), 2);
        assert!(t.child_visited(0, 1));
        assert!(!t.child_visited(0, 2));
        assert!(is_child_set(&[1, 2, 4], &[1, 4], 2));
        assert!(!is_child_set(&[1, 2, 4], &[1, 4], 3));
        assert!(!is_child_set(&[1, 4], &[1, 4], 4));
    }

    #[test]
    fn queue_is_fifo() {
        let mut t = RuleTree::new(EditingRule::root((9, 9)), m(), vec![]);
        let a = t.add_child(0, 0, rule(0), m(), vec![]);
        let b = t.add_child(0, 1, rule(1), m(), vec![]);
        t.enqueue(a);
        t.enqueue(b);
        assert_eq!(t.queue_len(), 2);
        assert_eq!(t.next_node(), Some(a));
        assert_eq!(t.next_node(), Some(b));
        assert_eq!(t.next_node(), None);
    }

    #[test]
    fn discovered_excludes_root() {
        let mut t = RuleTree::new(EditingRule::root((9, 9)), m(), vec![]);
        t.add_child(0, 0, rule(0), m(), vec![]);
        let d = t.discovered();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, rule(0));
    }
}

//! Topic hierarchies: the classification scheme shrinkage operates over.
//!
//! The paper uses a 72-node, 4-level subset of the Open Directory Project
//! hierarchy with 54 leaf categories (Section 5.1). [`Hierarchy::odp_like`]
//! builds a tree with exactly that shape. The structure is generic, though —
//! any rooted tree works, and the corpus generator and shrinkage code only
//! rely on the operations defined here.

/// Identifier of a category: its index in the hierarchy's node table.
/// The root is always category `0`.
pub type CategoryId = usize;

/// One node of the topic hierarchy.
#[derive(Debug, Clone)]
pub struct Category {
    /// Short name of this node (unique within its siblings).
    pub name: String,
    /// Parent node; `None` only for the root.
    pub parent: Option<CategoryId>,
    /// Child categories, in insertion order.
    pub children: Vec<CategoryId>,
    /// Distance from the root (root = 0).
    pub depth: usize,
}

/// A rooted category tree.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    nodes: Vec<Category>,
}

impl Hierarchy {
    /// Create a hierarchy containing only a root named `root_name`.
    pub fn new(root_name: impl Into<String>) -> Self {
        Hierarchy {
            nodes: vec![Category {
                name: root_name.into(),
                parent: None,
                children: Vec::new(),
                depth: 0,
            }],
        }
    }

    /// The root category id (always 0).
    pub const ROOT: CategoryId = 0;

    /// Add a child of `parent` named `name` and return its id.
    ///
    /// # Panics
    /// Panics if `parent` is not a valid category id.
    pub fn add_child(&mut self, parent: CategoryId, name: impl Into<String>) -> CategoryId {
        let depth = self.nodes[parent].depth + 1;
        let id = self.nodes.len();
        self.nodes.push(Category {
            name: name.into(),
            parent: Some(parent),
            children: Vec::new(),
            depth,
        });
        self.nodes[parent].children.push(id);
        id
    }

    /// Number of categories (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// A hierarchy always contains at least the root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The node for `id`.
    pub fn category(&self, id: CategoryId) -> &Category {
        &self.nodes[id]
    }

    /// Short name of `id`.
    pub fn name(&self, id: CategoryId) -> &str {
        &self.nodes[id].name
    }

    /// Children of `id`.
    pub fn children(&self, id: CategoryId) -> &[CategoryId] {
        &self.nodes[id].children
    }

    /// Parent of `id` (`None` for the root).
    pub fn parent(&self, id: CategoryId) -> Option<CategoryId> {
        self.nodes[id].parent
    }

    /// Depth of `id` (root = 0).
    pub fn depth(&self, id: CategoryId) -> usize {
        self.nodes[id].depth
    }

    /// Is `id` a leaf (no children)?
    pub fn is_leaf(&self, id: CategoryId) -> bool {
        self.nodes[id].children.is_empty()
    }

    /// All leaf categories, in id order.
    pub fn leaves(&self) -> Vec<CategoryId> {
        (0..self.nodes.len())
            .filter(|&id| self.is_leaf(id))
            .collect()
    }

    /// All category ids, root first.
    pub fn ids(&self) -> impl Iterator<Item = CategoryId> {
        0..self.nodes.len()
    }

    /// The path `[root, ..., id]` from the root down to `id`, inclusive.
    pub fn path_from_root(&self, id: CategoryId) -> Vec<CategoryId> {
        let mut path = Vec::with_capacity(self.nodes[id].depth + 1);
        let mut cur = Some(id);
        while let Some(c) = cur {
            path.push(c);
            cur = self.nodes[c].parent;
        }
        path.reverse();
        path
    }

    /// All categories in the subtree rooted at `id` (including `id`),
    /// in pre-order.
    pub fn subtree(&self, id: CategoryId) -> Vec<CategoryId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(c) = stack.pop() {
            out.push(c);
            // Push in reverse so children come out in insertion order.
            stack.extend(self.nodes[c].children.iter().rev());
        }
        out
    }

    /// Full slash-separated path name, e.g. `Root/Health/Diseases/AIDS`.
    pub fn full_name(&self, id: CategoryId) -> String {
        let path = self.path_from_root(id);
        let mut s = String::new();
        for (i, c) in path.iter().enumerate() {
            if i > 0 {
                s.push('/');
            }
            s.push_str(&self.nodes[*c].name);
        }
        s
    }

    /// Find a category by its short name (first match in id order).
    pub fn find(&self, name: &str) -> Option<CategoryId> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Resolve a slash-separated path like `Health/Diseases/AIDS` (relative
    /// to the root), creating any missing nodes along the way. Returns the
    /// final node; an empty path returns the root.
    pub fn ensure_path(&mut self, path: &str) -> CategoryId {
        let mut node = Hierarchy::ROOT;
        for segment in path.split('/').filter(|s| !s.is_empty()) {
            node = match self
                .children(node)
                .iter()
                .find(|&&c| self.name(c) == segment)
            {
                Some(&existing) => existing,
                None => self.add_child(node, segment),
            };
        }
        node
    }

    /// A 72-node, 4-level hierarchy with 54 leaves, shaped like the Open
    /// Directory subset in the paper's experiments: a root, 8 top-level
    /// categories, 3 second-level categories each, and 39 third-level
    /// categories under 9 of the second-level nodes.
    pub fn odp_like() -> Self {
        type LevelTwo<'a> = (&'a str, &'a [&'a str]);
        let spec: &[(&str, &[LevelTwo<'_>])] = &[
            (
                "Arts",
                &[
                    ("Literature", &["Texts", "Poetry", "Drama", "Classics"]),
                    ("Music", &[]),
                    ("Movies", &[]),
                ],
            ),
            (
                "Business",
                &[
                    (
                        "Finance",
                        &["Banking", "Investing", "Insurance", "Accounting"],
                    ),
                    ("Industries", &[]),
                    ("Marketing", &[]),
                ],
            ),
            (
                "Computers",
                &[
                    (
                        "Programming",
                        &["Java", "Cpp", "Perl", "Python", "Databases"],
                    ),
                    ("Internet", &[]),
                    ("Hardware", &[]),
                ],
            ),
            (
                "Health",
                &[
                    (
                        "Diseases",
                        &["AIDS", "Cancer", "Diabetes", "Heart", "Asthma"],
                    ),
                    ("Fitness", &[]),
                    ("Medicine", &[]),
                ],
            ),
            (
                "Recreation",
                &[
                    ("Travel", &["Europe", "Asia", "Americas", "Africa"]),
                    ("Outdoors", &[]),
                    ("Humor", &[]),
                ],
            ),
            (
                "Science",
                &[
                    ("Biology", &["Genetics", "Ecology", "Zoology", "Botany"]),
                    ("Mathematics", &[]),
                    (
                        "SocialSciences",
                        &["Economics", "History", "Psychology", "Linguistics"],
                    ),
                ],
            ),
            (
                "Society",
                &[
                    ("Politics", &["Elections", "Parties", "Activism", "Policy"]),
                    ("Law", &[]),
                    ("Religion", &[]),
                ],
            ),
            (
                "Sports",
                &[
                    (
                        "Soccer",
                        &["UEFA", "WorldCup", "Leagues", "Clubs", "Players"],
                    ),
                    ("Basketball", &[]),
                    ("Tennis", &[]),
                ],
            ),
        ];
        let mut h = Hierarchy::new("Root");
        for &(top, subs) in spec {
            let t = h.add_child(Hierarchy::ROOT, top);
            for &(sub, leaves) in subs {
                let s = h.add_child(t, sub);
                for &leaf in leaves {
                    h.add_child(s, leaf);
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odp_like_has_paper_shape() {
        let h = Hierarchy::odp_like();
        assert_eq!(h.len(), 72, "72 nodes");
        assert_eq!(h.leaves().len(), 54, "54 leaf categories");
        let max_depth = h.ids().map(|c| h.depth(c)).max().unwrap();
        assert_eq!(max_depth, 3, "4 levels including the root");
    }

    #[test]
    fn path_from_root_is_rooted_and_ordered() {
        let h = Hierarchy::odp_like();
        let aids = h.find("AIDS").unwrap();
        let path = h.path_from_root(aids);
        let names: Vec<_> = path.iter().map(|&c| h.name(c)).collect();
        assert_eq!(names, vec!["Root", "Health", "Diseases", "AIDS"]);
    }

    #[test]
    fn full_name_joins_path() {
        let h = Hierarchy::odp_like();
        let aids = h.find("AIDS").unwrap();
        assert_eq!(h.full_name(aids), "Root/Health/Diseases/AIDS");
    }

    #[test]
    fn subtree_contains_all_descendants() {
        let h = Hierarchy::odp_like();
        let health = h.find("Health").unwrap();
        let sub = h.subtree(health);
        assert_eq!(sub[0], health);
        // Health + {Diseases, Fitness, Medicine} + 5 disease leaves = 9.
        assert_eq!(sub.len(), 9);
        assert!(sub.contains(&h.find("Cancer").unwrap()));
    }

    #[test]
    fn add_child_tracks_depth_and_parent() {
        let mut h = Hierarchy::new("R");
        let a = h.add_child(Hierarchy::ROOT, "A");
        let b = h.add_child(a, "B");
        assert_eq!(h.depth(b), 2);
        assert_eq!(h.parent(b), Some(a));
        assert_eq!(h.children(a), &[b]);
        assert!(h.is_leaf(b));
        assert!(!h.is_leaf(a));
    }

    #[test]
    fn find_returns_none_for_unknown() {
        assert!(Hierarchy::odp_like().find("Astrology").is_none());
    }

    #[test]
    fn leaves_have_no_children() {
        let h = Hierarchy::odp_like();
        for leaf in h.leaves() {
            assert!(h.children(leaf).is_empty());
        }
    }

    #[test]
    fn category_accessor_returns_node() {
        let h = Hierarchy::odp_like();
        let health = h.find("Health").unwrap();
        let node = h.category(health);
        assert_eq!(node.name, "Health");
        assert_eq!(node.parent, Some(Hierarchy::ROOT));
        assert_eq!(node.depth, 1);
        assert_eq!(node.children.len(), 3);
        assert!(!h.is_empty());
    }

    #[test]
    fn ensure_path_creates_and_reuses_nodes() {
        let mut h = Hierarchy::new("Root");
        let aids = h.ensure_path("Health/Diseases/AIDS");
        assert_eq!(h.full_name(aids), "Root/Health/Diseases/AIDS");
        assert_eq!(h.len(), 4);
        // Reusing a prefix creates only the new suffix.
        let cancer = h.ensure_path("Health/Diseases/Cancer");
        assert_eq!(h.len(), 5);
        assert_eq!(h.parent(cancer), h.parent(aids));
        // Idempotent.
        assert_eq!(h.ensure_path("Health/Diseases/AIDS"), aids);
        assert_eq!(h.len(), 5);
        // Empty path is the root.
        assert_eq!(h.ensure_path(""), Hierarchy::ROOT);
    }
}

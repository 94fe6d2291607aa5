package reuse

// An order-statistics splay tree over access timestamps — the classic
// Olken structure for exact LRU stack distances. Keys are the
// (unique) times of each address's most recent access; CountGreater
// answers "how many distinct addresses were touched since time t" in
// amortized O(log n) by summing right-subtree sizes on the search path.

// node is one tree entry. size counts the subtree rooted here, which is
// what turns the splay tree into an order-statistics structure.
type node struct {
	key         int64
	left, right *node
	size        int64
}

func size(n *node) int64 {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *node) fix() {
	n.size = 1 + size(n.left) + size(n.right)
}

func rotateRight(n *node) *node {
	l := n.left
	n.left = l.right
	l.right = n
	n.fix()
	l.fix()
	return l
}

func rotateLeft(n *node) *node {
	r := n.right
	n.right = r.left
	r.left = n
	n.fix()
	r.fix()
	return r
}

// splay brings the node with the given key — or the last node on its
// search path when absent — to the root, restructuring zig-zig and
// zig-zag chains so repeated accesses amortize to O(log n).
func splay(root *node, key int64) *node {
	if root == nil || root.key == key {
		return root
	}
	if key < root.key {
		if root.left == nil {
			return root
		}
		if key < root.left.key {
			root.left.left = splay(root.left.left, key)
			root.left.fix()
			root = rotateRight(root)
		} else if key > root.left.key {
			root.left.right = splay(root.left.right, key)
			root.left.fix()
			if root.left.right != nil {
				root.left = rotateLeft(root.left)
			}
		}
		if root.left == nil {
			return root
		}
		return rotateRight(root)
	}
	if root.right == nil {
		return root
	}
	if key > root.right.key {
		root.right.right = splay(root.right.right, key)
		root.right.fix()
		root = rotateLeft(root)
	} else if key < root.right.key {
		root.right.left = splay(root.right.left, key)
		root.right.fix()
		if root.right.left != nil {
			root.right = rotateRight(root.right)
		}
	}
	if root.right == nil {
		return root
	}
	return rotateLeft(root)
}

// tree is the order-statistics splay tree. The zero value is an empty
// tree.
type tree struct {
	root *node
	free *node // freelist of deleted nodes, recycled by insert
}

// len returns the number of keys in the tree.
func (t *tree) len() int64 { return size(t.root) }

// insert adds key, which must not already be present.
func (t *tree) insert(key int64) {
	n := t.free
	if n != nil {
		t.free = n.right
		*n = node{key: key, size: 1}
	} else {
		n = &node{key: key, size: 1}
	}
	if t.root == nil {
		t.root = n
		return
	}
	r := splay(t.root, key)
	if key < r.key {
		n.left = r.left
		n.right = r
		r.left = nil
		r.fix()
	} else {
		n.right = r.right
		n.left = r
		r.right = nil
		r.fix()
	}
	n.fix()
	t.root = n
}

// delete removes key, which must be present.
func (t *tree) delete(key int64) {
	r := splay(t.root, key)
	if r == nil || r.key != key {
		panic("reuse: delete of absent key")
	}
	if r.left == nil {
		t.root = r.right
	} else {
		// Splaying the deleted key's value in the left subtree brings its
		// predecessor (the subtree maximum) to the root, with a nil right
		// child to adopt the right subtree.
		l := splay(r.left, key)
		l.right = r.right
		l.fix()
		t.root = l
	}
	r.left, r.right = nil, t.free // thread onto the freelist
	t.free = r
}

// countGreater returns how many keys in the tree are strictly greater
// than key. key itself must be present (the Olken invariant: the
// previous access time is in the tree when its reuse is resolved); the
// walk is a plain BST descent with right-subtree size sums, followed by
// a splay of the visited path to keep the amortized bound.
func (t *tree) countGreater(key int64) int64 {
	n := t.root
	var cnt int64
	for n != nil {
		switch {
		case key < n.key:
			cnt += size(n.right) + 1
			n = n.left
		case key > n.key:
			n = n.right
		default:
			cnt += size(n.right)
			t.root = splay(t.root, key)
			return cnt
		}
	}
	panic("reuse: countGreater on absent key")
}

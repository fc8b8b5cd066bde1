"""Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm.

Works on graphs with multiple entries (function entry + OSR entry) by
introducing a virtual root above them, exactly how IonMonkey treats its
two entry points.
"""


class _VirtualRoot(object):
    """Synthetic common ancestor of the function and OSR entries."""

    id = -1

    def __init__(self, entries):
        self._entries = entries

    @property
    def successors(self):
        return list(self._entries)

    predecessors = ()


class DominatorTree(object):
    """Immediate dominators, dominance queries, and children lists."""

    def __init__(self, graph):
        self.graph = graph
        self.root = _VirtualRoot(graph.entries())
        self._postorder = self._compute_postorder()
        self._index = {id(b): i for i, b in enumerate(self._postorder)}
        self.idom = {}
        self._compute()
        self.children = {}
        for block in self._postorder:
            parent = self.idom.get(id(block))
            if parent is not None and parent is not block:
                self.children.setdefault(id(parent), []).append(block)

    def _compute_postorder(self):
        visited = set()
        order = []
        stack = [(self.root, iter(self.root.successors))]
        visited.add(id(self.root))
        while stack:
            node, successor_iter = stack[-1]
            advanced = False
            for successor in successor_iter:
                if id(successor) not in visited:
                    visited.add(id(successor))
                    stack.append((successor, iter(successor.successors)))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
        return order

    def _compute(self):
        idom = self.idom
        idom[id(self.root)] = self.root
        reverse_postorder = list(reversed(self._postorder))
        changed = True
        while changed:
            changed = False
            for block in reverse_postorder:
                if block is self.root:
                    continue
                predecessors = list(block.predecessors)
                if block in self.root.successors:
                    predecessors = predecessors + [self.root]
                new_idom = None
                for predecessor in predecessors:
                    if id(predecessor) in idom:
                        if new_idom is None:
                            new_idom = predecessor
                        else:
                            new_idom = self._intersect(new_idom, predecessor)
                if new_idom is not None and idom.get(id(block)) is not new_idom:
                    idom[id(block)] = new_idom
                    changed = True

    def _intersect(self, a, b):
        index = self._index
        idom = self.idom
        while a is not b:
            while index[id(a)] < index[id(b)]:
                a = idom[id(a)]
            while index[id(b)] < index[id(a)]:
                b = idom[id(b)]
        return a

    # -- queries ---------------------------------------------------------------

    def dominates(self, a, b):
        """True if block ``a`` dominates block ``b``."""
        node = b
        while node is not None and node is not self.root:
            if node is a:
                return True
            node = self.idom.get(id(node))
        return node is a

    def dominator_tree_children(self, block):
        return self.children.get(id(block), [])

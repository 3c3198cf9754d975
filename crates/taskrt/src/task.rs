//! Task bookkeeping: the dynamic task tree and type-erased task closures.

use pomp::TaskId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A node of the *dynamic* task tree (not the profile tree): one per task
/// instance, linked to its creating task. Used for
///
/// * `taskwait` semantics: a task waits for its *direct* children
///   (see [`TaskNode::pending`]),
/// * the tied-task scheduling constraint: at a suspended tied task's
///   scheduling point the thread only starts tasks that are descendants
///   of the suspended task.
#[derive(Debug)]
pub struct TaskNode {
    /// The creating task, `None` for implicit tasks.
    pub parent: Option<Arc<TaskNode>>,
    /// Direct children created and not yet completed.
    pending_children: AtomicUsize,
    /// Distance from the implicit task (implicit = 0).
    pub depth: u32,
    /// Instance id for explicit tasks; `None` for implicit tasks.
    pub id: Option<TaskId>,
}

impl TaskNode {
    /// The implicit task of one team thread.
    pub fn implicit() -> Arc<Self> {
        Arc::new(Self {
            parent: None,
            pending_children: AtomicUsize::new(0),
            depth: 0,
            id: None,
        })
    }

    /// A new explicit child of `parent`. Increments the parent's pending
    /// count.
    pub fn child_of(parent: &Arc<TaskNode>, id: TaskId) -> Arc<Self> {
        parent.pending_children.fetch_add(1, Ordering::Relaxed);
        Arc::new(Self {
            parent: Some(parent.clone()),
            pending_children: AtomicUsize::new(0),
            depth: parent.depth + 1,
            id: Some(id),
        })
    }

    /// Direct children still outstanding (what `taskwait` waits on).
    #[inline]
    pub fn pending(&self) -> usize {
        self.pending_children.load(Ordering::Acquire)
    }

    /// Mark this instance complete: releases the parent's `taskwait`.
    pub fn complete(&self) {
        if let Some(p) = &self.parent {
            let prev = p.pending_children.fetch_sub(1, Ordering::Release);
            debug_assert!(prev > 0, "pending-children underflow");
        }
    }

    /// True if this is an implicit task.
    pub fn is_implicit(&self) -> bool {
        self.id.is_none()
    }
}

/// Is `node` a (transitive) descendant of `ancestor`? Walks the parent
/// chain; cheap because task depths are small in practice (paper Table II:
/// at most 20 concurrently live instances even in deep recursions).
pub fn is_descendant_of(node: &Arc<TaskNode>, ancestor: &Arc<TaskNode>) -> bool {
    let mut cur = node.clone();
    while cur.depth > ancestor.depth {
        match &cur.parent {
            Some(p) => {
                if Arc::ptr_eq(p, ancestor) {
                    return true;
                }
                cur = p.clone();
            }
            None => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::TaskIdAllocator;

    #[test]
    fn pending_children_counts_direct_children_only() {
        let ids = TaskIdAllocator::new();
        let root = TaskNode::implicit();
        let a = TaskNode::child_of(&root, ids.alloc());
        let _b = TaskNode::child_of(&root, ids.alloc());
        let aa = TaskNode::child_of(&a, ids.alloc());
        assert_eq!(root.pending(), 2);
        assert_eq!(a.pending(), 1);
        aa.complete();
        assert_eq!(a.pending(), 0);
        assert_eq!(
            root.pending(),
            2,
            "grandchild completion is invisible to root"
        );
        a.complete();
        assert_eq!(root.pending(), 1);
    }

    #[test]
    fn descendant_check_walks_chain() {
        let ids = TaskIdAllocator::new();
        let root = TaskNode::implicit();
        let other_root = TaskNode::implicit();
        let a = TaskNode::child_of(&root, ids.alloc());
        let aa = TaskNode::child_of(&a, ids.alloc());
        let b = TaskNode::child_of(&other_root, ids.alloc());
        assert!(is_descendant_of(&a, &root));
        assert!(is_descendant_of(&aa, &root));
        assert!(is_descendant_of(&aa, &a));
        assert!(!is_descendant_of(&a, &aa));
        assert!(!is_descendant_of(&b, &root));
        assert!(
            !is_descendant_of(&root, &root),
            "a task is not its own descendant"
        );
    }

    #[test]
    fn implicit_vs_explicit() {
        let ids = TaskIdAllocator::new();
        let root = TaskNode::implicit();
        assert!(root.is_implicit());
        let c = TaskNode::child_of(&root, ids.alloc());
        assert!(!c.is_implicit());
        assert_eq!(c.depth, 1);
        assert_eq!(c.id.unwrap().get(), 1);
    }
}

//! Per-task frame stacks with suspend/resume time accounting.
//!
//! Each *active* task instance (and the implicit task) owns a stack of open
//! region frames. The paper's key accounting rule (Section IV-B3): "time
//! measurements for a task must be stopped/resumed when the task is
//! suspended/resumed", so that a task's tree contains statistics about the
//! execution of the task itself only. A frame therefore accumulates elapsed
//! time in `acc` across pause/resume cycles instead of keeping a single
//! start timestamp.

use crate::tree::NodeId;

/// One open region on a task's call path.
#[derive(Clone, Copy, Debug)]
pub struct Frame {
    /// The call-tree node this frame is timing.
    pub node: NodeId,
    /// Time accumulated in completed running intervals, ns.
    acc: u64,
    /// Start of the current running interval (meaningless while paused).
    since: u64,
}

/// The dynamic execution state of one task: its tree root and open frames.
#[derive(Debug)]
pub struct TaskBody {
    /// Root node of this task's (sub)tree.
    pub root: NodeId,
    stack: Vec<Frame>,
    paused: bool,
}

impl Frame {
    /// The frame's call-tree node.
    pub(crate) fn node(&self) -> NodeId {
        self.node
    }

    /// Accumulated running time (complete while the task is paused).
    pub(crate) fn acc(&self) -> u64 {
        self.acc
    }

    /// Rebuild a paused frame (task migration): `acc` holds the full
    /// accumulated time, `since` is irrelevant until the next resume.
    pub(crate) fn rebuilt_paused(node: NodeId, acc: u64) -> Self {
        Self {
            node,
            acc,
            since: 0,
        }
    }
}

impl TaskBody {
    /// A body positioned at `root` with no open frames.
    pub fn new(root: NodeId) -> Self {
        Self::with_stack(root, Vec::new())
    }

    /// Like [`TaskBody::new`] but keeping its frames in `stack` (emptied
    /// first), so a recycled stack's capacity serves the next instance.
    pub(crate) fn with_stack(root: NodeId, mut stack: Vec<Frame>) -> Self {
        stack.clear();
        Self {
            root,
            stack,
            paused: false,
        }
    }

    /// Give the frame storage back for recycling.
    pub(crate) fn into_stack(self) -> Vec<Frame> {
        self.stack
    }

    /// The open frames, innermost last.
    pub(crate) fn frames(&self) -> &[Frame] {
        &self.stack
    }

    /// Rebuild a *paused* body from migrated parts.
    pub(crate) fn from_paused_frames(root: NodeId, stack: Vec<Frame>) -> Self {
        Self {
            root,
            stack,
            paused: true,
        }
    }

    /// The node new children are created under: the innermost open frame,
    /// or the root when no frame is open.
    #[inline]
    pub fn current_node(&self) -> NodeId {
        self.stack.last().map_or(self.root, |f| f.node)
    }

    /// Number of open frames.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// True while the owning task is suspended.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Open a frame for `node` at time `t`.
    pub fn push(&mut self, node: NodeId, t: u64) {
        debug_assert!(!self.paused, "push on a suspended task");
        self.stack.push(Frame {
            node,
            acc: 0,
            since: t,
        });
    }

    /// Close the innermost frame at time `t`; returns its node and the
    /// inclusive duration *excluding* suspended intervals.
    pub fn pop(&mut self, t: u64) -> (NodeId, u64) {
        debug_assert!(!self.paused, "pop on a suspended task");
        let f = self.stack.pop().expect("exit without matching enter");
        (f.node, f.acc + (t - f.since))
    }

    /// Suspend: stop the timers of all open frames (paper Fig. 12
    /// `TaskSwitch`, "stop time measurement on all open regions").
    pub fn pause(&mut self, t: u64) {
        debug_assert!(!self.paused, "double pause");
        for f in &mut self.stack {
            f.acc += t - f.since;
        }
        self.paused = true;
    }

    /// Resume: restart the timers of all open frames.
    pub fn resume(&mut self, t: u64) {
        debug_assert!(self.paused, "resume without pause");
        for f in &mut self.stack {
            f.since = t;
        }
        self.paused = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{Arena, NodeKind};
    use pomp::RegionId;

    fn arena_with_root() -> (Arena, NodeId) {
        let mut a = Arena::new();
        let r = a.alloc(NodeKind::Region(RegionId(0)), None);
        (a, r)
    }

    #[test]
    fn push_pop_measures_duration() {
        let (mut a, root) = arena_with_root();
        let child = a.child_of(root, NodeKind::Region(RegionId(1)));
        let mut b = TaskBody::new(root);
        assert_eq!(b.current_node(), root);
        b.push(child, 10);
        assert_eq!(b.current_node(), child);
        let (n, d) = b.pop(25);
        assert_eq!(n, child);
        assert_eq!(d, 15);
        assert_eq!(b.current_node(), root);
    }

    #[test]
    fn pause_excludes_suspended_time() {
        let (mut a, root) = arena_with_root();
        let child = a.child_of(root, NodeKind::Region(RegionId(1)));
        let mut b = TaskBody::new(root);
        b.push(child, 0);
        b.pause(10); // ran 10
        b.resume(50); // 40 ns suspended
        let (_, d) = b.pop(65); // ran 15 more
        assert_eq!(d, 25);
    }

    #[test]
    fn pause_covers_whole_stack() {
        let (mut a, root) = arena_with_root();
        let c1 = a.child_of(root, NodeKind::Region(RegionId(1)));
        let c2 = a.child_of(c1, NodeKind::Region(RegionId(2)));
        let mut b = TaskBody::new(root);
        b.push(c1, 0);
        b.push(c2, 5);
        b.pause(10);
        b.resume(100);
        let (_, d2) = b.pop(110);
        assert_eq!(d2, 15); // 5..10 plus 100..110
        let (_, d1) = b.pop(120);
        assert_eq!(d1, 30); // 0..10 plus 100..120
    }

    #[test]
    fn multiple_pause_resume_cycles_accumulate() {
        let (mut a, root) = arena_with_root();
        let c = a.child_of(root, NodeKind::Region(RegionId(1)));
        let mut b = TaskBody::new(root);
        b.push(c, 0);
        for k in 0..5u64 {
            b.pause(k * 100 + 10);
            b.resume((k + 1) * 100);
        }
        // Each cycle runs 10 ns then sleeps 90: intervals [0,10],[100,110],...
        let (_, d) = b.pop(510);
        assert_eq!(d, 5 * 10 + 10);
    }

    #[test]
    fn zero_duration_fragments_are_fine() {
        let (mut a, root) = arena_with_root();
        let c = a.child_of(root, NodeKind::Region(RegionId(1)));
        let mut b = TaskBody::new(root);
        b.push(c, 7);
        b.pause(7);
        b.resume(7);
        let (_, d) = b.pop(7);
        assert_eq!(d, 0);
    }

    #[test]
    fn recycled_stack_keeps_capacity_and_starts_empty() {
        let (mut a, root) = arena_with_root();
        let c = a.child_of(root, NodeKind::Region(RegionId(1)));
        let mut b = TaskBody::new(root);
        b.push(root, 0);
        b.push(c, 1);
        let stack = b.into_stack();
        let cap = stack.capacity();
        assert!(cap >= 2);
        let b = TaskBody::with_stack(c, stack);
        assert_eq!(b.depth(), 0, "leftover frames are dropped");
        assert_eq!(b.current_node(), c);
        assert!(!b.is_paused());
        assert_eq!(b.into_stack().capacity(), cap);
    }

    #[test]
    #[should_panic(expected = "exit without matching enter")]
    fn pop_on_empty_stack_panics() {
        let (_a, root) = arena_with_root();
        let mut b = TaskBody::new(root);
        b.pop(0);
    }
}

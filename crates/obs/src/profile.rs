//! Span profiler: aggregates named scopes and stage timings into a
//! call-tree profile.
//!
//! When profiling is enabled ([`enable`]) every [`scope`] and
//! every [`crate::metrics::time_stage`] call opens a *frame* on a
//! per-thread call tree. Frames with the same `(parent, name)` pair are
//! merged, so the tree stays small no matter how many trials run: each
//! node accumulates inclusive wall-clock and a call count. When a
//! thread finishes (or [`take`] is called) its local tree is merged
//! into a process-global tree, preserving paths, and the result can be
//! rendered as a folded-stack file (`profile.folded`, one
//! `a;b;c <exclusive_us>` line per node — the flamegraph input format)
//! or a JSON summary.
//!
//! ## Threads, forks, and the wall-vs-CPU convention
//!
//! Frames nest per-thread, so within one thread `inclusive(parent) ≥
//! Σ inclusive(children)` holds by construction. When the `msc-par`
//! pool fans out, each worker adopts the spawning thread's open path
//! (captured via [`fork_context`]) and roots a `par.worker` frame under
//! it. Below such a fork point the tree therefore measures *CPU time
//! summed across workers*, which can exceed the fork frame's wall
//! clock; the pool compensates by also recording the workers' combined
//! *idle* time (`par.idle`) so wall-clock attribution stays complete.
//! Everything above the fork — including the root — remains plain
//! wall-clock and keeps the parent ≥ children invariant.
//!
//! Profiling never touches RNG streams or results: it only reads
//! clocks, so reports are byte-identical with profiling on or off.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Whether the profiler is collecting (the frame fast path).
static PROFILE_ON: AtomicBool = AtomicBool::new(false);

/// Starts collecting frames process-wide.
pub fn enable() {
    PROFILE_ON.store(true, Ordering::Release);
}

/// Stops collecting frames. Already-collected data stays until
/// [`take`] or [`reset`].
pub fn disable() {
    PROFILE_ON.store(false, Ordering::Release);
}

/// The frame fast path: true when the profiler is collecting.
#[inline(always)]
pub fn enabled() -> bool {
    PROFILE_ON.load(Ordering::Relaxed)
}

const NO_PARENT: usize = usize::MAX;

struct LocalNode {
    name: &'static str,
    parent: usize,
    incl_us: f64,
    calls: u64,
}

/// One thread's private call tree. Nodes are created parent-first, so
/// index order is a valid topological order for merging.
struct ThreadTree {
    label: String,
    nodes: Vec<LocalNode>,
    lookup: HashMap<(usize, &'static str), usize>,
    stack: Vec<(usize, Instant)>,
    /// Parent for depth-0 frames: `NO_PARENT`, or the adopted fork
    /// path's tip on pool workers.
    base: usize,
    /// Wall-clock accumulated by depth-0 frames (thread busy time).
    top_us: f64,
}

impl ThreadTree {
    fn new(label: String) -> Self {
        ThreadTree {
            label,
            nodes: Vec::new(),
            lookup: HashMap::new(),
            stack: Vec::new(),
            base: NO_PARENT,
            top_us: 0.0,
        }
    }

    fn node_under(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&i) = self.lookup.get(&(parent, name)) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(LocalNode { name, parent, incl_us: 0.0, calls: 0 });
        self.lookup.insert((parent, name), i);
        i
    }

    fn cur_parent(&self) -> usize {
        self.stack.last().map(|&(i, _)| i).unwrap_or(self.base)
    }

    fn enter(&mut self, name: &'static str) {
        let parent = self.cur_parent();
        let node = self.node_under(parent, name);
        self.stack.push((node, Instant::now()));
    }

    fn exit(&mut self) {
        if let Some((node, t0)) = self.stack.pop() {
            let us = t0.elapsed().as_secs_f64() * 1e6;
            self.nodes[node].incl_us += us;
            self.nodes[node].calls += 1;
            if self.stack.is_empty() {
                self.top_us += us;
            }
        }
    }

    /// The dotted path of the innermost open frame (empty when idle).
    fn open_path(&self) -> Vec<&'static str> {
        let mut path = Vec::new();
        let mut node = self.cur_parent();
        while node != NO_PARENT {
            path.push(self.nodes[node].name);
            node = self.nodes[node].parent;
        }
        path.reverse();
        path
    }

    /// Re-roots this thread's depth-0 frames under `path` (fork
    /// adoption on pool workers).
    fn adopt(&mut self, path: &[&'static str]) {
        debug_assert!(self.stack.is_empty(), "adopt with open frames");
        let mut parent = NO_PARENT;
        for &name in path {
            parent = self.node_under(parent, name);
        }
        self.base = parent;
    }
}

/// Guard for thread-local trees: merges into the global tree when the
/// thread exits so no frames are lost.
struct TreeCell(Option<Box<ThreadTree>>);

impl Drop for TreeCell {
    fn drop(&mut self) {
        if let Some(tree) = self.0.take() {
            merge_tree(&tree);
        }
    }
}

thread_local! {
    static TREE: RefCell<TreeCell> = const { RefCell::new(TreeCell(None)) };
}

fn with_tree<R>(f: impl FnOnce(&mut ThreadTree) -> R) -> R {
    TREE.with(|cell| {
        let mut cell = cell.borrow_mut();
        if cell.0.is_none() {
            let label = std::thread::current().name().unwrap_or("thread").to_string();
            cell.0 = Some(Box::new(ThreadTree::new(label)));
        }
        f(cell.0.as_mut().unwrap())
    })
}

#[derive(Clone)]
struct MergedNode {
    name: &'static str,
    parent: usize,
    incl_us: f64,
    calls: u64,
}

#[derive(Default)]
struct Merged {
    nodes: Vec<MergedNode>,
    lookup: HashMap<(usize, &'static str), usize>,
    /// Per-thread-label (busy_us, frame count), summed across threads
    /// sharing a label (pool workers are re-created per call).
    threads: std::collections::BTreeMap<String, (f64, u64)>,
}

impl Merged {
    fn node_under(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&i) = self.lookup.get(&(parent, name)) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(MergedNode { name, parent, incl_us: 0.0, calls: 0 });
        self.lookup.insert((parent, name), i);
        i
    }
}

fn merged() -> &'static Mutex<Merged> {
    static MERGED: OnceLock<Mutex<Merged>> = OnceLock::new();
    MERGED.get_or_init(|| Mutex::new(Merged::default()))
}

fn merge_tree(tree: &ThreadTree) {
    if tree.nodes.is_empty() {
        return;
    }
    let mut global = merged().lock().unwrap();
    // Local index order is parent-first, so the remap is one pass.
    let mut remap = vec![0usize; tree.nodes.len()];
    for (i, node) in tree.nodes.iter().enumerate() {
        let parent = if node.parent == NO_PARENT { NO_PARENT } else { remap[node.parent] };
        let gi = global.node_under(parent, node.name);
        global.nodes[gi].incl_us += node.incl_us;
        global.nodes[gi].calls += node.calls;
        remap[i] = gi;
    }
    let frames: u64 = tree.nodes.iter().map(|n| n.calls).sum();
    let entry = global.threads.entry(tree.label.clone()).or_insert((0.0, 0));
    entry.0 += tree.top_us;
    entry.1 += frames;
}

/// Opens a frame on the current thread's tree (span/stage hook).
#[inline]
pub(crate) fn enter_frame(name: &'static str) {
    with_tree(|t| t.enter(name));
}

/// Closes the innermost open frame on the current thread.
#[inline]
pub(crate) fn exit_frame() {
    with_tree(|t| t.exit());
}

/// RAII frame opened by [`scope`].
pub struct ProfScope(bool);

/// Opens a named profiler frame, closed when the guard drops. One
/// relaxed atomic load when profiling is disabled.
pub fn scope(name: &'static str) -> ProfScope {
    if enabled() {
        enter_frame(name);
        ProfScope(true)
    } else {
        ProfScope(false)
    }
}

impl Drop for ProfScope {
    fn drop(&mut self) {
        if self.0 {
            exit_frame();
        }
    }
}

/// The spawning thread's open frame path, captured just before a pool
/// fan-out so workers can root their frames under it.
pub struct ForkContext {
    path: Option<Vec<&'static str>>,
}

/// Captures the current thread's open path (`None` when profiling is
/// off, making every downstream hook free).
pub fn fork_context() -> ForkContext {
    if enabled() {
        ForkContext { path: Some(with_tree(|t| t.open_path())) }
    } else {
        ForkContext { path: None }
    }
}

/// Worker-side guard: adopts the fork path and opens a `par.worker`
/// frame for the worker's whole lifetime.
pub struct WorkerScope(bool);

/// Roots the current (worker) thread's tree under the fork path and
/// opens its `par.worker` frame.
pub fn worker_scope(ctx: &ForkContext) -> WorkerScope {
    match &ctx.path {
        Some(path) => {
            with_tree(|t| {
                t.adopt(path);
                t.enter("par.worker");
            });
            WorkerScope(true)
        }
        None => WorkerScope(false),
    }
}

impl Drop for WorkerScope {
    fn drop(&mut self) {
        if self.0 {
            with_tree(|t| t.exit());
            // Merge eagerly: thread-local destructors can run after
            // `join` returns, so relying on them would race with the
            // spawning thread's `take()`.
            TREE.with(|cell| {
                if let Some(tree) = cell.borrow_mut().0.take() {
                    merge_tree(&tree);
                }
            });
        }
    }
}

/// Records an externally-measured duration as a child of the fork
/// path (the pool uses this for aggregate `par.idle` / `par.claim`
/// time that no single frame covers).
pub fn record_external(ctx: &ForkContext, name: &'static str, us: f64) {
    let Some(path) = &ctx.path else { return };
    let mut global = merged().lock().unwrap();
    let mut parent = NO_PARENT;
    for &seg in path {
        parent = global.node_under(parent, seg);
    }
    let node = global.node_under(parent, name);
    global.nodes[node].incl_us += us;
    global.nodes[node].calls += 1;
}

/// One node of a finished [`Profile`], in depth-first order.
pub struct ProfileNode {
    /// Semicolon-joined path from the root (`paper.run;fig7;par.run`).
    pub path: String,
    /// This node's own frame name.
    pub name: &'static str,
    /// Depth in the tree (roots are 0).
    pub depth: usize,
    /// Index of the parent node in [`Profile::nodes`], if any.
    pub parent: Option<usize>,
    /// Inclusive wall-clock (CPU-summed below fork points), µs.
    pub incl_us: f64,
    /// Exclusive time: inclusive minus children's inclusive, µs.
    pub excl_us: f64,
    /// Number of frames merged into this node.
    pub calls: u64,
}

/// Per-thread totals of a finished [`Profile`].
pub struct ThreadStat {
    /// Thread name (`main`, `par-0`, …); pool workers with the same
    /// name are summed across calls.
    pub label: String,
    /// Wall-clock covered by the thread's top-level frames, µs.
    pub busy_us: f64,
    /// Total frames the thread recorded.
    pub frames: u64,
}

/// A merged, finished profile: the call tree plus per-thread totals.
pub struct Profile {
    /// Call-tree nodes in depth-first order (children follow parents).
    pub nodes: Vec<ProfileNode>,
    /// Per-thread busy time and frame counts.
    pub threads: Vec<ThreadStat>,
}

/// Flushes the current thread's tree and returns the merged profile,
/// resetting the collector. Call from the thread that ran the
/// top-level scopes, after all pool work has joined.
pub fn take() -> Profile {
    TREE.with(|cell| {
        if let Some(tree) = cell.borrow_mut().0.take() {
            merge_tree(&tree);
        }
    });
    let mut global = merged().lock().unwrap();
    let snapshot = build(&global);
    *global = Merged::default();
    snapshot
}

/// Discards all collected frames (current thread + global).
pub fn reset() {
    TREE.with(|cell| {
        cell.borrow_mut().0 = None;
    });
    *merged().lock().unwrap() = Merged::default();
}

fn build(merged: &Merged) -> Profile {
    let n = merged.nodes.len();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut roots = Vec::new();
    for (i, node) in merged.nodes.iter().enumerate() {
        if node.parent == NO_PARENT {
            roots.push(i);
        } else {
            children[node.parent].push(i);
        }
    }
    let mut child_sum = vec![0.0f64; n];
    for node in &merged.nodes {
        if node.parent != NO_PARENT {
            child_sum[node.parent] += node.incl_us;
        }
    }

    let mut nodes: Vec<ProfileNode> = Vec::with_capacity(n);
    // (merged index, depth, parent index in output) — creation order
    // within a sibling list keeps first-opened frames first.
    let mut stack: Vec<(usize, usize, Option<usize>)> =
        roots.iter().rev().map(|&r| (r, 0, None)).collect();
    while let Some((i, depth, parent)) = stack.pop() {
        let node = &merged.nodes[i];
        let path = match parent {
            Some(p) => format!("{};{}", nodes[p].path, node.name),
            None => node.name.to_string(),
        };
        let out_idx = nodes.len();
        nodes.push(ProfileNode {
            path,
            name: node.name,
            depth,
            parent,
            incl_us: node.incl_us,
            excl_us: (node.incl_us - child_sum[i]).max(0.0),
            calls: node.calls,
        });
        for &c in children[i].iter().rev() {
            stack.push((c, depth + 1, Some(out_idx)));
        }
    }

    let threads = merged
        .threads
        .iter()
        .map(|(label, &(busy_us, frames))| ThreadStat { label: label.clone(), busy_us, frames })
        .collect();
    Profile { nodes, threads }
}

impl Profile {
    /// The dominant root node (largest inclusive time at depth 0).
    pub fn root(&self) -> Option<&ProfileNode> {
        self.nodes.iter().filter(|n| n.depth == 0).max_by(|a, b| a.incl_us.total_cmp(&b.incl_us))
    }

    /// Summed inclusive time of the root's direct children, µs.
    pub fn root_child_sum_us(&self) -> f64 {
        let Some(root) = self.root() else { return 0.0 };
        let root_idx = self.nodes.iter().position(|n| std::ptr::eq(n, root)).unwrap();
        self.nodes.iter().filter(|n| n.parent == Some(root_idx)).map(|n| n.incl_us).sum()
    }

    /// Fraction of the root's wall-clock attributed to named child
    /// stages (the `paper all --profile` ≥95% acceptance number).
    pub fn attributed_frac(&self) -> f64 {
        match self.root() {
            Some(root) if root.incl_us > 0.0 => (self.root_child_sum_us() / root.incl_us).min(1.0),
            _ => 0.0,
        }
    }

    /// Renders the flamegraph folded-stack form: one
    /// `path;seg;… <exclusive_us>` line per node. Roots are always
    /// emitted (even at 0 µs) so a valid profile is never empty.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for node in &self.nodes {
            let us = node.excl_us.round() as u64;
            if us == 0 && node.depth != 0 {
                continue;
            }
            out.push_str(&node.path);
            out.push(' ');
            out.push_str(&us.to_string());
            out.push('\n');
        }
        out
    }

    /// Renders the JSON summary. `counters` carries flat name/value
    /// pairs surfaced alongside the tree (cache hit counts, pool
    /// totals); they are emitted under `"counters"`.
    pub fn to_json(&self, counters: &[(String, f64)]) -> String {
        use crate::export::json_escape;
        let wall_us = self.root().map(|r| r.incl_us).unwrap_or(0.0);
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {},\n", crate::SCHEMA_VERSION));
        out.push_str(&format!("  \"wall_us\": {wall_us:.1},\n"));
        out.push_str(&format!("  \"attributed_us\": {:.1},\n", self.root_child_sum_us()));
        out.push_str(&format!("  \"attributed_frac\": {:.4},\n", self.attributed_frac()));
        out.push_str("  \"threads\": [");
        for (i, t) in self.threads.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"label\": \"{}\", \"busy_us\": {:.1}, \"frames\": {}}}",
                json_escape(&t.label),
                t.busy_us,
                t.frames
            ));
        }
        out.push_str("],\n");
        out.push_str("  \"counters\": {");
        for (i, (name, value)) in counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {value}", json_escape(name)));
        }
        out.push_str("},\n");
        out.push_str("  \"nodes\": [\n");
        for (i, node) in self.nodes.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"path\": \"{}\", \"depth\": {}, \"incl_us\": {:.1}, \
                 \"excl_us\": {:.1}, \"calls\": {}}}{}\n",
                json_escape(&node.path),
                node.depth,
                node.incl_us,
                node.excl_us,
                node.calls,
                if i + 1 < self.nodes.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Serializes tests that manipulate the global profiler state.
#[doc(hidden)]
pub fn tests_serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin_us(us: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_profiler_collects_nothing() {
        let _guard = tests_serial();
        reset();
        disable();
        {
            let _s = scope("noop.root");
            let _c = scope("noop.child");
        }
        let profile = take();
        assert!(profile.nodes.is_empty());
        assert!(profile.to_folded().is_empty());
    }

    #[test]
    fn nested_scopes_build_a_consistent_tree() {
        let _guard = tests_serial();
        reset();
        enable();
        {
            let _root = scope("t.root");
            for _ in 0..3 {
                let _child = scope("t.child");
                spin_us(200);
            }
            {
                let _other = scope("t.other");
                spin_us(100);
            }
        }
        disable();
        let profile = take();

        let root = profile.root().expect("root node");
        assert_eq!(root.name, "t.root");
        assert_eq!(root.calls, 1);
        let child = profile.nodes.iter().find(|n| n.path == "t.root;t.child").unwrap();
        assert_eq!(child.calls, 3);
        assert!(child.incl_us >= 600.0 * 0.5, "child incl {}", child.incl_us);
        // Per-thread nesting invariant: parent inclusive ≥ Σ children.
        assert!(
            root.incl_us >= profile.root_child_sum_us() - 1e-6,
            "root {} < children {}",
            root.incl_us,
            profile.root_child_sum_us()
        );
        assert!(profile.attributed_frac() > 0.5);

        let folded = profile.to_folded();
        assert!(folded.contains("t.root;t.child "), "folded:\n{folded}");
        let json = profile.to_json(&[("x.counter".to_string(), 3.0)]);
        assert!(json.contains("\"x.counter\": 3"));
        assert!(json.contains("\"t.root;t.other\""));

        // take() reset the collector.
        assert!(take().nodes.is_empty());
    }

    #[test]
    fn workers_adopt_the_fork_path() {
        let _guard = tests_serial();
        reset();
        enable();
        {
            let _root = scope("f.root");
            let ctx = fork_context();
            std::thread::scope(|s| {
                for w in 0..2 {
                    let ctx = &ctx;
                    std::thread::Builder::new()
                        .name(format!("par-{w}"))
                        .spawn_scoped(s, move || {
                            let _ws = worker_scope(ctx);
                            let _inner = scope("f.work");
                            spin_us(200);
                        })
                        .unwrap();
                }
            });
            record_external(&ctx, "par.idle", 123.0);
        }
        disable();
        let profile = take();

        let worker = profile.nodes.iter().find(|n| n.path == "f.root;par.worker").unwrap();
        assert_eq!(worker.calls, 2, "both workers merge into one node");
        assert!(profile.nodes.iter().any(|n| n.path == "f.root;par.worker;f.work"));
        let idle = profile.nodes.iter().find(|n| n.path == "f.root;par.idle").unwrap();
        assert!((idle.incl_us - 123.0).abs() < 1e-9);
        assert_eq!(idle.calls, 1);
        let labels: Vec<_> = profile.threads.iter().map(|t| t.label.as_str()).collect();
        assert!(labels.contains(&"par-0") && labels.contains(&"par-1"), "{labels:?}");
    }
}

//! Identifiers shared across every layer of the framework.
//!
//! The paper's interoperability lesson (§V) is that each pair of data sources
//! must share at least one identifier: tasks are identified by Dask-generated
//! keys, timestamps, the worker address, and POSIX thread ids; workers by
//! IP/port and hostname; I/O operations by hostname, thread id, and
//! timestamps. The types below are those identifiers.

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

/// Identifier of one end-to-end execution of a workflow (one "run" of a
/// campaign). Runs of the same workflow differ only by seed / placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RunId(pub u32);

impl fmt::Display for RunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run-{:04}", self.0)
    }
}

/// Identifier of a task graph submitted by the client. A workflow may submit
/// several graphs (ImageProcessing submits one per pipeline step, XGBoost
/// submits 74, see Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GraphId(pub u32);

impl fmt::Display for GraphId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graph-{}", self.0)
    }
}

/// An interned task prefix: a shared, immutable `Arc<str>`.
///
/// A workflow has tens of distinct prefixes but tens of thousands of tasks,
/// and the scheduler's hot event loop clones [`TaskKey`]s on every
/// transition, dispatch, and fetch. Interning turns every one of those
/// clones from a heap-allocating `String` copy into a reference-count bump.
/// Ordering, hashing, and equality all delegate to the underlying `str`, so
/// `TaskPrefix` behaves exactly like the `String` it replaced in maps, sets,
/// and sorted containers.
#[derive(Debug, Clone)]
pub struct TaskPrefix(Arc<str>);

/// The global prefix table. Append-only; a handful of entries per workload.
fn interner() -> &'static Mutex<HashSet<Arc<str>>> {
    static INTERNER: OnceLock<Mutex<HashSet<Arc<str>>>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(HashSet::new()))
}

impl TaskPrefix {
    /// Intern `s`: return the canonical shared allocation for this spelling.
    pub fn intern(s: &str) -> Self {
        let mut table = interner().lock().expect("prefix interner poisoned");
        if let Some(existing) = table.get(s) {
            return Self(existing.clone());
        }
        let arc: Arc<str> = Arc::from(s);
        table.insert(arc.clone());
        Self(arc)
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for TaskPrefix {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for TaskPrefix {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for TaskPrefix {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl PartialEq for TaskPrefix {
    fn eq(&self, other: &Self) -> bool {
        // interned: pointer equality short-circuits the common case
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}
impl Eq for TaskPrefix {}

impl PartialEq<str> for TaskPrefix {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for TaskPrefix {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for TaskPrefix {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

impl std::hash::Hash for TaskPrefix {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // must agree with str's Hash (Borrow<str> contract)
        (*self.0).hash(state)
    }
}

impl PartialOrd for TaskPrefix {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TaskPrefix {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl fmt::Display for TaskPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TaskPrefix {
    fn from(s: &str) -> Self {
        Self::intern(s)
    }
}

impl From<String> for TaskPrefix {
    fn from(s: String) -> Self {
        Self::intern(&s)
    }
}

impl From<&TaskPrefix> for String {
    fn from(p: &TaskPrefix) -> String {
        p.as_str().to_string()
    }
}

impl Serialize for TaskPrefix {
    fn to_content(&self) -> serde::json_impl::Value {
        serde::json_impl::Value::String(self.as_str().to_string())
    }
}

impl Deserialize for TaskPrefix {
    fn from_content(v: &serde::json_impl::Value) -> Result<Self, serde::json_impl::Error> {
        String::from_content(v).map(|s| Self::intern(&s))
    }
}

/// A task key, mirroring Dask's `(prefix-token, index)` convention, e.g.
/// `('getitem__get_categories-24266c..', 63)`.
///
/// * `prefix` — the human-readable operation category (Dask calls the
///   deduplicated form "task prefix"; groups of tasks sharing a token form a
///   "task group"). Interned: cloning a `TaskKey` bumps a reference count
///   instead of copying the string.
/// * `token` — a hash-like token distinguishing groups with the same prefix.
/// * `index` — position within the group (chunk / partition number).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskKey {
    pub prefix: TaskPrefix,
    pub token: u32,
    pub index: u32,
}

impl TaskKey {
    pub fn new(prefix: impl Into<TaskPrefix>, token: u32, index: u32) -> Self {
        Self { prefix: prefix.into(), token, index }
    }

    /// The task *group* name: prefix plus token, shared by all chunks of one
    /// collection operation.
    pub fn group(&self) -> String {
        self.group_display().to_string()
    }

    /// [`Self::group`] as a `Display`, for rendering without allocating.
    pub fn group_display(&self) -> impl fmt::Display + '_ {
        struct Group<'a>(&'a TaskKey);
        impl fmt::Display for Group<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}-{:06x}", self.0.prefix, self.0.token)
            }
        }
        Group(self)
    }

    /// Stream the compact JSON rendering of this key — exactly the bytes
    /// `serde_json::to_string(self)` would allocate (object keys in sorted
    /// order, prefix escaped) — into any `fmt::Write` sink. This is what
    /// lets hash-partitioning hash a typed key without materializing it.
    pub fn write_json<W: std::fmt::Write>(&self, out: &mut W) -> std::fmt::Result {
        write!(out, "{{\"index\":{}", self.index)?;
        out.write_str(",\"prefix\":")?;
        serde::json_impl::write_str_to(self.prefix.as_str(), out)?;
        write!(out, ",\"token\":{}}}", self.token)
    }
}

impl fmt::Display for TaskKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "('{}-{:06x}', {})", self.prefix, self.token, self.index)
    }
}

/// Identifier of a compute node in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Hostname as recorded in logs (e.g. `nid0003`, Polaris-style).
    pub fn hostname(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nid{:04}", self.0)
    }
}

/// Identifier of a worker process. Workers are identified in logs by their
/// IP:port address; we derive a deterministic synthetic address from the node
/// and a per-node ordinal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WorkerId {
    pub node: NodeId,
    /// Ordinal of the worker on its node (0-based).
    pub slot: u32,
}

impl WorkerId {
    pub fn new(node: NodeId, slot: u32) -> Self {
        Self { node, slot }
    }

    /// Synthetic `ip:port` address, the identifier Dask uses in its logs.
    pub fn address(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "10.0.{}.{}:{}", self.node.0 / 256, self.node.0 % 256, 40000 + self.slot)
    }
}

/// A POSIX thread id (pthread id). This is the join key the authors added to
/// both Darshan DXT records and Dask task records; it is what makes the two
/// data sources correlatable (§III-E3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ThreadId(pub u64);

impl ThreadId {
    /// Deterministic synthetic pthread id for worker `w`, thread ordinal `t`.
    /// Values are large and sparse like real pthread ids but reproducible.
    pub fn synth(w: WorkerId, t: u32) -> Self {
        let base = 0x7f00_0000_0000u64;
        ThreadId(base + (w.node.0 as u64) * 0x10_0000 + (w.slot as u64) * 0x1000 + t as u64)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Identifier of a client process (the task-graph submitter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ClientId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client-{}", self.0)
    }
}

/// Identifier of a file on the (simulated) parallel filesystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FileId(pub u64);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file-{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_key_display_matches_dask_convention() {
        let k = TaskKey::new("getitem__get_categories", 0x24266c, 63);
        assert_eq!(k.to_string(), "('getitem__get_categories-24266c', 63)");
        assert_eq!(k.group(), "getitem__get_categories-24266c");
    }

    #[test]
    fn prefixes_are_interned_and_compare_like_strings() {
        let a = TaskKey::new("getitem", 1, 0);
        let b = TaskKey::new("getitem", 2, 5);
        // one shared allocation per spelling
        assert!(Arc::ptr_eq(&a.prefix.0, &b.prefix.0));
        assert_eq!(a.prefix, "getitem");
        assert_eq!(a.prefix.as_str(), "getitem");
        assert!(a.prefix == b.prefix);
        assert!(TaskPrefix::intern("a") < TaskPrefix::intern("b"));
        // Hash agrees with str (Borrow<str> contract): usable as map key
        let mut m = std::collections::HashMap::new();
        m.insert(a.prefix.clone(), 1u32);
        assert_eq!(m.get("getitem"), Some(&1));
    }

    #[test]
    fn worker_address_is_deterministic_and_unique_per_slot() {
        let n = NodeId(3);
        let w0 = WorkerId::new(n, 0);
        let w1 = WorkerId::new(n, 1);
        assert_ne!(w0.address(), w1.address());
        assert_eq!(w0.address(), WorkerId::new(n, 0).address());
    }

    #[test]
    fn thread_ids_unique_across_workers_and_threads() {
        let mut seen = std::collections::HashSet::new();
        for node in 0..4 {
            for slot in 0..4 {
                for t in 0..8 {
                    let tid = ThreadId::synth(WorkerId::new(NodeId(node), slot), t);
                    assert!(seen.insert(tid), "duplicate tid {tid}");
                }
            }
        }
    }

    #[test]
    fn hostname_format() {
        assert_eq!(NodeId(7).hostname(), "nid0007");
        assert_eq!(NodeId(1234).hostname(), "nid1234");
    }

    #[test]
    fn ids_serde_roundtrip() {
        let k = TaskKey::new("sum", 12, 3);
        let s = serde_json::to_string(&k).unwrap();
        let back: TaskKey = serde_json::from_str(&s).unwrap();
        assert_eq!(k, back);

        let w = WorkerId::new(NodeId(2), 1);
        let s = serde_json::to_string(&w).unwrap();
        let back: WorkerId = serde_json::from_str(&s).unwrap();
        assert_eq!(w, back);
    }
}

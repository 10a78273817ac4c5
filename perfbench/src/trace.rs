//! In-memory span recorder for the traced replay.
//!
//! The benchmark wraps each call it makes into a layer's public function
//! in a span (name, start, end, parent, op id) and records work counts at
//! the same boundaries. Nothing inside the program is instrumented. A
//! layer's self time is its span minus its direct children; it is summed
//! per span name as each span closes, so every op counts. The raw spans of
//! the first [`KEPT_SPANS`] are kept in memory and written out when the run
//! ends by [`Tracer::write_tsv`].

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::clock;

/// Raw spans kept for the written trace (about 40 bytes each).
const KEPT_SPANS: usize = 1 << 18;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    op: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// A span still open: where it is kept (if it is) and its children's time.
#[derive(Debug)]
struct Open {
    kept: u32,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// Records the spans and counts of a traced replay. Times are the calling
/// thread's CPU clock (see [`clock`]), like the untraced ops they are
/// compared with.
#[derive(Debug)]
pub struct Tracer {
    epoch_ns: u64,
    spans: Vec<Span>,
    open: Vec<Open>,
    op: u32,
    self_ns: BTreeMap<&'static str, u64>,
    root_ns: u64,
    closed: u64,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer whose timestamps count from now.
    pub fn new() -> Self {
        Tracer {
            epoch_ns: clock::thread_cpu_ns(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            self_ns: BTreeMap::new(),
            root_ns: 0,
            closed: 0,
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        clock::thread_cpu_ns() - self.epoch_ns
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span, tagged with the current op id.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let parent = self.open.last().map_or(NO_PARENT, |o| o.kept);
        let kept = if self.spans.len() < KEPT_SPANS {
            self.spans.push(Span {
                name,
                op: self.op,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        let start_ns = self.now_ns();
        self.open.push(Open {
            kept,
            name,
            start_ns,
            child_ns: 0,
        });
        let out = f(self);
        let end_ns = self.now_ns();
        let done = self.open.pop().expect("span opened above");
        let dur = end_ns - done.start_ns;
        *self.self_ns.entry(done.name).or_default() += dur.saturating_sub(done.child_ns);
        match self.open.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => self.root_ns += dur,
        }
        if let Some(s) = self.spans.get_mut(done.kept as usize) {
            s.start_ns = done.start_ns;
            s.end_ns = end_ns;
        }
        self.closed += 1;
        out
    }

    /// Run one op as a root span; every span opened inside carries `op`.
    pub fn op<T>(&mut self, op: u32, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        debug_assert!(self.open.is_empty(), "ops do not nest");
        self.op = op;
        self.span(name, f)
    }

    /// Add `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Counter value (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Total self time in nanoseconds per span name.
    pub fn self_ns(&self) -> &BTreeMap<&'static str, u64> {
        &self.self_ns
    }

    /// Total duration in nanoseconds of the root (op) spans.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    /// Write the kept spans, one tab-separated line each:
    /// `op name parent start_ns end_ns` (parent `-` for a root).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# {} of {} spans; times are the thread's CPU clock, ns; parent is a span's line number among these, from 0",
            self.spans.len(),
            self.closed
        )?;
        writeln!(out, "op\tname\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            if s.parent == NO_PARENT {
                writeln!(out, "{}\t{}\t-\t{}\t{}", s.op, s.name, s.start_ns, s.end_ns)?;
            } else {
                writeln!(
                    out,
                    "{}\t{}\t{}\t{}\t{}",
                    s.op, s.name, s.parent, s.start_ns, s.end_ns
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        t.op(0, "root", |t| {
            t.span("a", |t| {
                t.span("b", |_| {
                    let t0 = clock::thread_cpu_ns();
                    while clock::thread_cpu_ns() - t0 < 2_000_000 {}
                });
            });
        });
        let selfs = t.self_ns();
        let total: u64 = selfs.values().sum();
        assert_eq!(total, t.root_ns(), "self times partition the root span");
        assert!(selfs["b"] >= 2_000_000);
        assert!(selfs["a"] < selfs["b"]);
        let s = &t.spans;
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, 0, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
    }
}

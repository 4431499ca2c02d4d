//! In-memory spans recorded around the calls into each layer.
//!
//! Each recording thread owns a [`SpanBuf`]; buffers are merged after the
//! run and only then written out. A span's self time is its duration minus
//! the part of its interval covered by its children.

use std::time::Instant;

/// Id carried by spans that belong to no client request.
pub const NO_ID: u64 = u64::MAX;
/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Span names. Request spans of one op share its `op_id`.
pub mod names {
    /// Generator timer callback (open loop): parent of its issues.
    pub const GEN_TICK: &str = "gen.tick";
    /// Generator builds and sends one request.
    pub const GEN_SEND: &str = "gen.issue";
    /// Generator handles one reply (closed loop: parent of the next issue).
    pub const GEN_REPLY: &str = "gen.reply";
    /// A node's timer callback.
    pub const CORE_TIMER: &str = "core.on_timer";
    /// A sharded node's timer callback.
    pub const SHARD_TIMER: &str = "shard.on_timer";
    /// Store replay.
    pub const KV_PUT: &str = "kv.put";
    /// Store replay.
    pub const KV_GET: &str = "kv.get";
}

/// One timed interval. Times are nanoseconds since the run's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Static span name.
    pub name: &'static str,
    /// Recording node (transport id).
    pub node: u32,
    /// Client op id for request spans, else [`NO_ID`].
    pub id: u64,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the enclosing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct SpanBuf {
    origin: Instant,
    node: u32,
    /// Spans are kept only when they start inside `[from, to)`.
    from: u64,
    to: u64,
    spans: Vec<Span>,
}

impl SpanBuf {
    /// A recorder for `node`, timing against `origin`, keeping spans that
    /// start in `[from, to)`.
    pub fn new(origin: Instant, node: u32, from: u64, to: u64) -> Self {
        SpanBuf {
            origin,
            node,
            from,
            to,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span; returns its index (for children), or
    /// [`NO_PARENT`] when it falls outside the kept range.
    pub fn push(&mut self, name: &'static str, id: u64, start: u64, end: u64, parent: u32) -> u32 {
        if start < self.from || start >= self.to {
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            node: self.node,
            id,
            start,
            end,
            parent,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose children are recorded before it ends: reserves
    /// its slot now, [`SpanBuf::close`] sets the end.
    pub fn open(&mut self, name: &'static str, id: u64, start: u64) -> u32 {
        self.push(name, id, start, start, NO_PARENT)
    }

    /// Ends a span opened with [`SpanBuf::open`].
    pub fn close(&mut self, idx: u32, end: u64) {
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end = end;
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span in one buffer: duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered.min(s.dur())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            node: 0,
            id: NO_ID,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 30, 0),
            span("b", 20, 50, 0),  // overlaps a: union is 10..50
            span("c", 90, 120, 0), // clipped to the parent's end
            span("a.child", 12, 18, 1),
            span("leaf", 200, 210, NO_PARENT),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 40 - 10);
        assert_eq!(own[1], 20 - 6);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 30);
        assert_eq!(own[4], 6);
        assert_eq!(own[5], 10);
    }

    #[test]
    fn buffer_keeps_only_the_window_and_links_children() {
        let mut buf = SpanBuf::new(Instant::now(), 3, 100, 200);
        assert_eq!(buf.push("early", NO_ID, 50, 60, NO_PARENT), NO_PARENT);
        let p = buf.open("parent", 7, 120);
        buf.push("child", 7, 125, 130, p);
        buf.close(p, 150);
        assert_eq!(buf.push("late", NO_ID, 200, 210, NO_PARENT), NO_PARENT);
        let spans = buf.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].dur(), 30);
        assert_eq!(self_times(&spans), vec![25, 5]);
    }
}

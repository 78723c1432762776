//! Spans recorded at the host boundary by the benchmark's own decorators
//! (`sut::decor`). Nothing in the repository is instrumented: what is visible
//! is every call across `NodeApp`, `NodeIo` and `WireCodec`, per node thread.
//!
//! Each node thread records into its own thread-local [`NodeTrace`]; spans stay
//! in memory until the run ends. A span's `parent` is the span that *caused*
//! it: the enclosing handler for a send, encode or timer arm; the arm for the
//! handler its timer later fires; the decode for the `on_packet` it feeds.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds on the tracer's clock, shared by every thread.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Server,
    Gateway,
    Client,
}

impl Role {
    pub fn name(self) -> &'static str {
        match self {
            Role::Server => "server",
            Role::Gateway => "gateway",
            Role::Client => "client",
        }
    }
}

pub const ON_START: &str = "app.on_start";
pub const ON_PACKET: &str = "app.on_packet";
pub const ON_TIMER: &str = "app.on_timer";
pub const SEND: &str = "io.send";
pub const SET_TIMER: &str = "io.set_timer";
pub const CPU_DEFER: &str = "io.cpu_defer";
/// A `set_timer` with the transport's housekeeping token: it re-arms itself
/// while anything is in flight and no operation waits for it.
pub const TICK: &str = "io.tick";
pub const ENCODE: &str = "codec.encode";
pub const DECODE: &str = "codec.decode";

/// `arg`: bytes for codec spans, the token for handler spans, the requested
/// delay in ns for timer arms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub arg: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A timer that fired, matched to the arm that set it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fired {
    pub fired_ns: u64,
    /// The arm's span name: `SET_TIMER`, `CPU_DEFER` or `TICK`.
    pub kind: &'static str,
    /// Fire minus arm.
    pub wait_ns: u64,
    /// Fire minus requested deadline.
    pub slip_ns: u64,
    /// The arm's span id: the cause of the handler that now runs.
    pub armed_by: u64,
}

struct Arm {
    deadline_ns: u64,
    armed_ns: u64,
    kind: &'static str,
    span: u64,
}

/// One node's armed timers. Tokens repeat (a transport tick is always the same
/// token), and the host fires same-token timers in deadline order, ties in arm
/// order, so a fire is matched to the earliest-deadline arm of its token.
#[derive(Default)]
pub struct TimerBook {
    pending: BTreeMap<u64, Vec<Arm>>,
}

impl TimerBook {
    pub fn arm(&mut self, token: u64, now_ns: u64, delay_ns: u64, kind: &'static str, span: u64) {
        let arms = self.pending.entry(token).or_default();
        let deadline_ns = now_ns.saturating_add(delay_ns);
        // Keep each token's list sorted by deadline; equal deadlines stay FIFO.
        let at = arms.partition_point(|a| a.deadline_ns <= deadline_ns);
        arms.insert(
            at,
            Arm {
                deadline_ns,
                armed_ns: now_ns,
                kind,
                span,
            },
        );
    }

    /// `None` when no arm of this token is pending (a timer armed outside the
    /// traced boundary).
    pub fn fire(&mut self, token: u64, now_ns: u64) -> Option<Fired> {
        let arms = self.pending.get_mut(&token)?;
        if arms.is_empty() {
            return None;
        }
        let arm = arms.remove(0);
        Some(Fired {
            fired_ns: now_ns,
            kind: arm.kind,
            wait_ns: now_ns.saturating_sub(arm.armed_ns),
            slip_ns: now_ns.saturating_sub(arm.deadline_ns),
            armed_by: arm.span,
        })
    }

    #[cfg(test)]
    fn pending(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }
}

/// Everything one node thread recorded.
pub struct NodeTrace {
    /// The node's logical IPv4 address.
    pub node: u32,
    pub role: Role,
    /// Node clock minus tracer clock at `on_start`: maps `OpRecord` times,
    /// which are on the node clock, onto the tracer's.
    pub clock_offset_ns: i64,
    pub spans: Vec<Span>,
    pub fired: Vec<Fired>,
    book: TimerBook,
    open: Vec<usize>,
    last_decode: Option<u64>,
}

impl NodeTrace {
    pub fn new(node: u32, role: Role) -> NodeTrace {
        NodeTrace {
            node,
            role,
            clock_offset_ns: 0,
            spans: Vec::new(),
            fired: Vec::new(),
            book: TimerBook::default(),
            open: Vec::new(),
            last_decode: None,
        }
    }

    fn next_id(&self) -> u64 {
        (u64::from(self.node) << 32) | (self.spans.len() as u64 + 1)
    }

    fn enter(&mut self, name: &'static str, parent: Option<u64>, arg: u64) -> usize {
        let parent = parent.or_else(|| self.open.last().map(|&i| self.spans[i].id));
        let at = now_ns();
        self.spans.push(Span {
            id: self.next_id(),
            parent,
            name,
            start_ns: at,
            end_ns: at,
            arg,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn exit(&mut self, idx: usize) {
        self.spans[idx].end_ns = now_ns();
        self.open.pop();
    }
}

thread_local! {
    static TRACE: RefCell<Option<NodeTrace>> = const { RefCell::new(None) };
}

/// Start recording on this thread (called from the node's app factory, which
/// the host runs inside the node thread).
pub fn install(node: u32, role: Role) {
    TRACE.with(|t| *t.borrow_mut() = Some(NodeTrace::new(node, role)));
}

/// Stop recording on this thread and hand back what it recorded.
pub fn take() -> Option<NodeTrace> {
    TRACE.with(|t| t.borrow_mut().take())
}

fn with<R>(f: impl FnOnce(&mut NodeTrace) -> R) -> Option<R> {
    TRACE.with(|t| t.borrow_mut().as_mut().map(f))
}

/// Run `f` inside a span. The borrow is released while `f` runs, so spans
/// nest. On a thread with no recorder this is just `f()`.
pub fn span<R>(name: &'static str, parent: Option<u64>, arg: u64, f: impl FnOnce() -> R) -> R {
    span_with(name, parent, || (f(), arg))
}

/// Like [`span`], for an `arg` only known once `f` has run (encoded bytes).
pub fn span_with<R>(name: &'static str, parent: Option<u64>, f: impl FnOnce() -> (R, u64)) -> R {
    let idx = with(|t| t.enter(name, parent, 0));
    let (r, arg) = f();
    if let Some(idx) = idx {
        with(|t| {
            t.spans[idx].arg = arg;
            t.exit(idx);
        });
    }
    r
}

/// A decode span; the next `on_packet` names it as its cause.
pub fn decode_span<R>(bytes: u64, f: impl FnOnce() -> R) -> R {
    let r = span(DECODE, None, bytes, f);
    with(|t| t.last_decode = t.spans.last().map(|s| s.id));
    r
}

pub fn take_last_decode() -> Option<u64> {
    with(|t| t.last_decode.take()).flatten()
}

pub fn set_clock_offset(node_clock_ns: u64) {
    with(|t| t.clock_offset_ns = node_clock_ns as i64 - now_ns() as i64);
}

/// Record a timer arm as a zero-length span named `kind` and remember it for
/// its fire.
pub fn arm(token: u64, delay_ns: u64, kind: &'static str) {
    with(|t| {
        let idx = t.enter(kind, None, delay_ns);
        t.exit(idx);
        let s = &t.spans[idx];
        let (at, id) = (s.start_ns, s.id);
        t.book.arm(token, at, delay_ns, kind, id);
    });
}

/// Match a firing timer to its arm; returns the arm's span id.
pub fn fire(token: u64) -> Option<u64> {
    with(|t| {
        let fired = t.book.fire(token, now_ns())?;
        t.fired.push(fired);
        Some(fired.armed_by)
    })
    .flatten()
}

/// Self time of every span, index-aligned: its duration minus the part of its
/// interval that its child spans cover. A child its parent merely caused (a
/// timer handler, an `on_packet` after its decode) runs later and covers none.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        let Some(&p) = s.parent.and_then(|id| index.get(&id)) else {
            continue;
        };
        let lo = s.start_ns.max(spans[p].start_ns);
        let hi = s.end_ns.min(spans[p].end_ns);
        covered[p] += hi.saturating_sub(lo);
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// A client operation as the root of a trace: from `OpRecord`, carrying
/// `(client, seq)`. Nothing below the client can be tied to it from outside.
pub struct OpSpan {
    pub client: u32,
    pub seq: u64,
    pub put: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

fn dotted(ip: u32) -> String {
    let b = ip.to_be_bytes();
    format!("{}.{}.{}.{}", b[0], b[1], b[2], b[3])
}

/// One traced round's share of the trace file.
pub struct TracePart<'a> {
    pub round: usize,
    pub ops: &'a [OpSpan],
    pub nodes: &'a [NodeTrace],
}

/// One JSON object per line; per round first the client operations, then
/// every node's spans in recording order. Span ids are unique within a round.
pub fn write_jsonl(path: &std::path::Path, parts: &[TracePart<'_>]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for part in parts {
        let round = part.round;
        for o in part.ops {
            writeln!(
                w,
                "{{\"round\":{round},\"name\":\"{}\",\"client\":\"{}\",\"seq\":{},\"start_ns\":{},\"end_ns\":{}}}",
                if o.put { "op.put" } else { "op.get" },
                dotted(o.client),
                o.seq,
                o.start_ns,
                o.end_ns
            )?;
        }
        for n in part.nodes {
            let selfs = self_times(&n.spans);
            for (s, self_ns) in n.spans.iter().zip(selfs) {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    w,
                    "{{\"round\":{round},\"id\":{},\"parent\":{parent},\"node\":\"{}\",\"role\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"arg\":{}}}",
                    s.id,
                    dotted(n.node),
                    n.role.name(),
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.arg
                )?;
            }
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: ON_PACKET,
            start_ns: start,
            end_ns: end,
            arg: 0,
        }
    }

    #[test]
    fn self_time_subtracts_only_what_children_cover() {
        // handler 1 [0,100] ── send 2 [10,40] ── encode 3 [12,30]
        //                  └── arm 4 [50,50] ·· fires handler 5 [300,350]
        let spans = vec![
            sp(1, None, 0, 100),
            sp(2, Some(1), 10, 40),
            sp(3, Some(2), 12, 30),
            sp(4, Some(1), 50, 50),
            sp(5, Some(4), 300, 350),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 18, 0, 50]);
        // A child that outlives its parent only counts where they overlap.
        let spans = vec![sp(1, None, 0, 100), sp(2, Some(1), 90, 130)];
        assert_eq!(self_times(&spans), vec![90, 40]);
    }

    #[test]
    fn fires_match_the_earliest_deadline_of_a_repeated_token() {
        let mut b = TimerBook::default();
        // Token 7 armed three times; the second arm has the earliest deadline.
        b.arm(7, 0, 1_000, SET_TIMER, 11);
        b.arm(7, 100, 200, CPU_DEFER, 12);
        b.arm(7, 150, 850, SET_TIMER, 13); // same deadline as the first: FIFO
        b.arm(9, 0, 50, TICK, 14);
        assert_eq!(b.pending(), 4);
        let f = b.fire(7, 320).unwrap();
        assert_eq!(
            (f.armed_by, f.wait_ns, f.slip_ns, f.kind),
            (12, 220, 20, CPU_DEFER)
        );
        let f = b.fire(7, 1_005).unwrap();
        assert_eq!((f.armed_by, f.wait_ns, f.slip_ns), (11, 1_005, 5));
        let f = b.fire(7, 1_006).unwrap();
        assert_eq!((f.armed_by, f.wait_ns, f.slip_ns), (13, 856, 6));
        assert!(b.fire(7, 2_000).is_none(), "nothing left under token 7");
        assert!(b.fire(8, 2_000).is_none(), "never armed");
        assert_eq!(b.fire(9, 60).unwrap().armed_by, 14);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn the_thread_recorder_nests_spans_and_links_causes() {
        install(0x0A00_0001, Role::Server);
        decode_span(64, || {});
        let cause = take_last_decode();
        span(ON_PACKET, cause, 0, || {
            span(SEND, None, 0, || span(ENCODE, None, 128, || {}));
            arm(5, 1_000, CPU_DEFER);
        });
        let armed_by = fire(5);
        span(ON_TIMER, armed_by, 5, || {});
        let t = take().unwrap();
        let names: Vec<&str> = t.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [DECODE, ON_PACKET, SEND, ENCODE, CPU_DEFER, ON_TIMER]
        );
        let id = |i: usize| Some(t.spans[i].id);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, id(0), "decode causes on_packet");
        assert_eq!(t.spans[2].parent, id(1));
        assert_eq!(t.spans[3].parent, id(2));
        assert_eq!(t.spans[4].parent, id(1));
        assert_eq!(t.spans[5].parent, id(4), "the arm causes the timer handler");
        assert_eq!(t.fired.len(), 1);
        assert_eq!(t.fired[0].kind, CPU_DEFER);
        assert_eq!(t.book.pending(), 0);
        assert!(take().is_none());
        // Without a recorder the helpers are transparent.
        assert_eq!(span(SEND, None, 0, || 3), 3);
        assert_eq!(fire(1), None);
    }
}

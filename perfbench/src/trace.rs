//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a layer name, start, end, and the span that was open when
//! it started (its parent). Spans of one publication carry its trace id:
//! the `pubsub.publish` span and the zero-length `deliver` marks placed
//! inside each `drain` span that hands it out. Spans are kept in memory
//! and written out once, when the run ends. With tracing off every call
//! is a branch on one flag.

use std::io::Write;
use std::time::Instant;

/// Parent of a root span.
const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Publication trace id (0 = none).
    pub trace: u64,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    /// Nanoseconds since the tracer started (`u64::MAX` while open).
    pub end: u64,
}

/// Handle of an open span.
#[must_use]
pub struct Open(u32);

/// The span recorder.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: &'static str, trace: u64) -> Open {
        if !self.on {
            return Open(ROOT);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            trace,
            start,
            end: u64::MAX,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes `span` (spans close in reverse order of opening).
    #[inline]
    pub fn exit(&mut self, span: Open) {
        if !self.on {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(span.0), "spans close innermost first");
        self.spans[span.0 as usize].end = self.now();
    }

    /// Closes `span` and returns its id, for [`Tracer::mark_in`].
    #[inline]
    pub fn exit_id(&mut self, span: Open) -> u32 {
        let id = span.0;
        self.exit(span);
        id
    }

    /// Records a zero-length mark as a child of the closed span `parent`,
    /// stamped at its end.
    #[inline]
    pub fn mark_in(&mut self, parent: u32, name: &'static str, trace: u64) {
        if !self.on {
            return;
        }
        let at = self.spans[parent as usize].end;
        self.spans.push(Span {
            name,
            parent,
            trace,
            start: at,
            end: at,
        });
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines
    /// `id parent name trace start_ns end_ns` (parent `-` for roots).
    pub fn write_tsv(&self, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(w, "id\tparent\tname\ttrace\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.trace, s.start, s.end
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_marks_attach_to_closed_spans() {
        let mut t = Tracer::new(true);
        let round = t.enter("round", 0);
        let step = t.enter("step", 0);
        t.exit(step);
        let drain = t.enter("drain", 0);
        let id = t.exit_id(drain);
        t.mark_in(id, "deliver", 7);
        t.exit(round);
        let spans = t.spans();
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[3].parent, 2, "the mark sits inside the drain");
        assert_eq!(
            (spans[3].trace, spans[3].start, spans[3].end),
            (7, spans[2].end, spans[2].end)
        );
        assert!(spans.iter().all(|s| s.start <= s.end));
        let mut out = Vec::new();
        t.write_tsv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text.lines().nth(1).unwrap().starts_with("0\t-\tround\t0\t"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("round", 0);
        let id = t.exit_id(s);
        t.mark_in(id, "deliver", 1);
        assert!(t.spans().is_empty());
    }
}

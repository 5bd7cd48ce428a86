//! Spans recorded by the generator around its calls into the client
//! library, kept in memory and written out when the pass ends. Spans
//! inside `ard` are a later change.

use ar_telemetry::json::JsonWriter;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `client.publish`, `e2e.delivery` or `client.pump`.
    pub name: &'static str,
    /// Shared by the spans of one request: `publisher << 32 | k`; a
    /// pump sweep carries its sweep number.
    pub id: u64,
    /// The client the span ran on (publisher, subscriber, or the
    /// number of events a pump sweep surfaced).
    pub who: u32,
    /// Nanoseconds since the generator started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
}

#[derive(Debug, Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Records a span and returns its index, for children to name.
    pub fn record(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn write_spans(&self, w: &mut JsonWriter) {
        w.begin_array();
        for s in &self.spans {
            w.begin_object();
            w.key("name");
            w.str(s.name);
            w.key("id");
            w.num_u64(s.id);
            w.key("who");
            w.num_u64(u64::from(s.who));
            w.key("start_ns");
            w.num_u64(s.start_ns);
            w.key("end_ns");
            w.num_u64(s.end_ns);
            w.key("parent");
            if s.parent == NO_PARENT {
                w.null();
            } else {
                w.num_u64(u64::from(s.parent));
            }
            w.end_object();
        }
        w.end_array();
    }
}

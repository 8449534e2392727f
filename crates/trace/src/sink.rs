//! Event sinks: where recorded events go.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::event::TraceEvent;
use crate::json;

/// A structured event sink.
///
/// The serving system calls [`record`](Self::record) at every traced point;
/// instrumentation sites guard event construction behind
/// [`enabled`](Self::enabled), so a disabled sink ([`NullSink`]) costs one
/// branch per site and zero allocation.
pub trait TraceSink {
    /// Whether events should be constructed and recorded at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event. Events arrive in nondecreasing timestamp order.
    fn record(&mut self, event: &TraceEvent);

    /// Flushes any buffered output.
    fn flush(&mut self) {}
}

/// The disabled sink: recording is compiled down to an untaken branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &TraceEvent) {}
}

/// Collects events in memory, for tests and for post-run export (e.g. the
/// Chrome-trace format, which needs the whole run before rendering).
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Vec<TraceEvent>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events, in record order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the sink, returning the recorded events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// Streams events as JSON Lines to a writer — one self-contained JSON
/// object per line, written as the run progresses (constant memory).
/// Each event is encoded into one reused line buffer and handed to the
/// writer in a single `write_all`, so recording allocates nothing once the
/// buffer has grown to the longest line.
///
/// I/O errors are sticky: the first failure stops further writing and is
/// surfaced by [`finish`](Self::finish).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    /// The line being encoded, reused for every event.
    line: Vec<u8>,
    written: u64,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns any error from creating the file.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        Self {
            out,
            line: Vec::new(),
            written: 0,
            error: None,
        }
    }

    /// Number of events successfully written.
    pub fn events_written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying writer, or the first I/O error
    /// encountered while recording.
    ///
    /// # Errors
    ///
    /// Returns the sticky recording error, or a flush failure.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn enabled(&self) -> bool {
        self.error.is_none()
    }

    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        json::write_jsonl(event, &mut self.line);
        self.line.push(b'\n');
        match self.out.write_all(&self.line) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use proteus_profiler::ModelFamily;
    use proteus_sim::SimTime;

    fn arrived(q: u64) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_millis(q),
            kind: EventKind::Arrived {
                query: q,
                family: ModelFamily::ResNet,
            },
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.record(&arrived(1)); // no-op
        s.flush();
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let mut s = MemorySink::new();
        assert!(s.is_empty());
        s.record(&arrived(1));
        s.record(&arrived(2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.events()[0], arrived(1));
        assert_eq!(s.into_events().len(), 2);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut s = JsonlSink::new(Vec::new());
        s.record(&arrived(1));
        s.record(&arrived(2));
        assert_eq!(s.events_written(), 2);
        let bytes = s.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    struct FailingWriter;
    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk full"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_errors_are_sticky() {
        let mut s = JsonlSink::new(FailingWriter);
        s.record(&arrived(1));
        assert!(!s.enabled(), "a failed sink stops recording");
        s.record(&arrived(2));
        assert_eq!(s.events_written(), 0);
        assert!(s.finish().is_err());
    }
}

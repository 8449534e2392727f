//! Event sinks: where recorded events go.

use std::fs::File;
use std::io::{self, Write};
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

/// Bytes a [`JsonlSink`] collects before handing them to its writer.
const CHUNK: usize = 64 * 1024;

/// Streams events as JSON Lines to a writer — one self-contained JSON
/// object per line, written as the run progresses (constant memory).
/// Each event is encoded straight into one reused chunk buffer; once the
/// chunk holds 64 KiB it goes to the writer in a single `write_all`,
/// always ending on a line boundary. Recording therefore allocates nothing
/// once the chunk has grown, and the writer sees one call per 64 KiB
/// instead of one per line, so it needs no `BufWriter`.
/// [`flush`](TraceSink::flush), [`finish`](Self::finish) and `Drop` write
/// the tail, so a run cut short by a panic keeps its last events.
///
/// I/O errors are sticky: the first failed chunk stops further writing
/// and is surfaced by [`finish`](Self::finish).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    /// The writer; `None` only once [`finish`](Self::finish) has taken it.
    out: Option<W>,
    /// Encoded lines not yet handed to the writer.
    chunk: Vec<u8>,
    /// Events in `chunk`.
    pending: u64,
    /// Events accepted, minus those of a chunk the writer rejected.
    written: u64,
    error: Option<io::Error>,
    /// Set while the writer runs, so a panicking writer is not retried
    /// from `Drop`.
    writing: bool,
}

impl JsonlSink<File> {
    /// Creates (truncating) a JSONL trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns any error from creating the file.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Self::new(File::create(path)?))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        Self {
            out: Some(out),
            chunk: Vec::new(),
            pending: 0,
            written: 0,
            error: None,
            writing: false,
        }
    }

    /// Number of events the sink accepted, minus those in a chunk the
    /// writer rejected. Events still in the chunk count; the figure is
    /// exact once the sink has been flushed.
    pub fn events_written(&self) -> u64 {
        self.written
    }

    /// Writes the tail, flushes and returns the underlying writer, or the
    /// first I/O error encountered while recording.
    ///
    /// # Errors
    ///
    /// Returns the sticky recording error, or a flush failure.
    pub fn finish(mut self) -> io::Result<W> {
        self.write_chunk();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut out = self
            .out
            .take()
            .ok_or_else(|| io::Error::other("JSONL sink already finished"))?;
        out.flush()?;
        Ok(out)
    }

    /// Hands the chunk to the writer. A failure becomes the sticky error
    /// and takes the chunk's events off the count.
    fn write_chunk(&mut self) {
        if self.chunk.is_empty() || self.error.is_some() {
            return;
        }
        let Some(out) = self.out.as_mut() else {
            return;
        };
        self.writing = true;
        let result = out.write_all(&self.chunk);
        self.writing = false;
        if let Err(e) = result {
            self.written -= self.pending;
            self.error = Some(e);
        }
        self.chunk.clear();
        self.pending = 0;
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
        json::write_jsonl(event, &mut self.chunk);
        self.chunk.push(b'\n');
        self.pending += 1;
        self.written += 1;
        if self.chunk.len() >= CHUNK {
            self.write_chunk();
        }
    }

    fn flush(&mut self) {
        self.write_chunk();
        if self.error.is_none() {
            if let Some(Err(e)) = self.out.as_mut().map(Write::flush) {
                self.error = Some(e);
            }
        }
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    /// Writes the tail, as `BufWriter` does; errors are ignored here.
    fn drop(&mut self) {
        if !self.writing {
            self.write_chunk();
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
        s.flush();
        assert!(!s.enabled(), "a failed sink stops recording");
        s.record(&arrived(2));
        assert_eq!(s.events_written(), 0);
        assert!(s.finish().is_err());
    }

    /// Events enough to fill `chunks` chunks and a partial one.
    fn events_over(chunks: usize) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        let mut bytes = 0;
        let mut q = 0;
        while bytes < chunks * CHUNK + CHUNK / 2 {
            let e = arrived(q);
            bytes += crate::json::to_jsonl(&e).len() + 1;
            events.push(e);
            q += 1;
        }
        events
    }

    fn expected_text(events: &[TraceEvent]) -> String {
        events
            .iter()
            .map(|e| crate::json::to_jsonl(e) + "\n")
            .collect()
    }

    /// Counts the writer's calls and fails the `fail_at`-th (1-based)
    /// `write` and every later one.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
        fail_at: Option<usize>,
    }
    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            if self.fail_at.is_some_and(|k| self.writes >= k) {
                return Err(io::Error::other("disk full"));
            }
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_chunks_concatenate_to_the_encoded_lines() {
        let events = events_over(3);
        let mut s = JsonlSink::new(CountingWriter::default());
        for e in &events {
            s.record(e);
        }
        assert_eq!(s.events_written(), events.len() as u64);
        s.flush();
        let w = s.out.as_ref().unwrap();
        assert!(w.writes >= 4, "three boundaries, four chunks: {}", w.writes);
        assert_eq!(
            w.bytes,
            expected_text(&events).as_bytes(),
            "flush writes the tail"
        );
        let w = s.finish().unwrap();
        assert_eq!(String::from_utf8(w.bytes).unwrap(), expected_text(&events));
    }

    #[test]
    fn jsonl_sink_rejected_chunk_leaves_the_count_and_sticks() {
        let events = events_over(3);
        let mut s = JsonlSink::new(CountingWriter {
            fail_at: Some(2),
            ..CountingWriter::default()
        });
        let mut in_first_chunk = None;
        for (i, e) in events.iter().enumerate() {
            s.record(e);
            if in_first_chunk.is_none() && s.out.as_ref().is_some_and(|w| w.writes == 1) {
                in_first_chunk = Some(i as u64 + 1);
            }
        }
        let first = in_first_chunk.expect("the first chunk was written");
        assert!(!s.enabled(), "the second chunk failed");
        assert_eq!(s.events_written(), first, "only the first chunk counts");
        s.flush();
        s.record(&arrived(0));
        assert_eq!(s.events_written(), first, "the error is sticky");
        assert_eq!(
            s.out.as_ref().map(|w| w.writes),
            Some(2),
            "no write after it"
        );
        assert!(s.finish().is_err());
    }

    #[test]
    fn jsonl_sink_writes_its_tail_on_drop() {
        let events = events_over(1);
        let mut bytes = Vec::new();
        {
            let mut s = JsonlSink::new(&mut bytes);
            for e in &events {
                s.record(e);
            }
        }
        assert_eq!(String::from_utf8(bytes).unwrap(), expected_text(&events));
    }
}

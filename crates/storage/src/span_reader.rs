//! The one front-to-back reader, for table scans, log replay and the
//! integrity check: the paper sizes I/O by the span, not the block (a
//! 256 KiB read costs a device about what a 4 KiB one does, Fig. 11(a)),
//! and keeps the device busy while the CPU decodes.
//!
//! The caller says only where a span of *n* units may end ([`SpanEnds`]).
//! The first span is the caller's length, each later one doubles, and none
//! runs past the file's end. From its `book_in`-th span on, the reader
//! books the next span as it enters the one before, and sleeps only for
//! what is left of that read when the caller gets there. A failed span
//! read keeps its error until then, and fails every range it covers.

use crate::blocking::sleep_until;
use crate::env::{RandomReadFile, ReadClass};
use bytes::Bytes;
use std::io::{self, Error, ErrorKind::InvalidData};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Where a span may end, in the caller's units.
pub trait SpanEnds {
    /// The end of the span from `start` of at most `units` units (`start`
    /// when none is left); called once per span read.
    fn span_end(&mut self, start: u64, units: usize) -> io::Result<u64>;
}

/// Units of this many bytes: a log's spans.
impl SpanEnds for u64 {
    fn span_end(&mut self, start: u64, units: usize) -> io::Result<u64> {
        Ok(start.saturating_add(self.saturating_mul(units as u64)))
    }
}

/// A span's file range and its read: the bytes and, until waited out, the
/// instant the device completes them.
struct Span {
    range: Range<u64>,
    read: io::Result<(Bytes, Option<Instant>)>,
}

/// A front-to-back reader of one file (module docs).
pub struct SpanReader<E> {
    file: Arc<dyn RandomReadFile>,
    class: ReadClass,
    ends: E,
    /// Units of the first span, and of the next.
    first: usize,
    units: usize,
    /// Spans to enter before the reader books ahead.
    book_in: usize,
    span: Option<Span>,
    booked: Option<Span>,
}

impl<E: SpanEnds> SpanReader<E> {
    /// A reader of `file` by `class` reads, whose first span is `first`
    /// units, booking ahead from the first span.
    pub fn new(file: Arc<dyn RandomReadFile>, class: ReadClass, first: usize, ends: E) -> Self {
        SpanReader {
            file,
            class,
            ends,
            first,
            units: first,
            book_in: 1,
            span: None,
            booked: None,
        }
    }

    /// Drops both spans and starts over at the first length, booking ahead
    /// from the `book_in`-th span entered.
    pub fn restart(&mut self, book_in: usize) {
        (self.span, self.booked) = (None, None);
        (self.units, self.book_in) = (self.first, book_in);
    }

    /// Where the spans end.
    pub fn ends_mut(&mut self) -> &mut E {
        &mut self.ends
    }

    /// The bytes of `range`: a slice of its span, or stitched from the
    /// spans it runs across.
    pub fn read(&mut self, range: Range<u64>) -> io::Result<Bytes> {
        let head = self.take(range.start, range.end)?;
        let mut at = range.start + head.len() as u64;
        if at == range.end {
            return Ok(head);
        }
        let mut out = head.to_vec();
        while at < range.end {
            let part = self.take(at, range.end)?;
            at += part.len() as u64;
            out.extend_from_slice(&part);
        }
        Ok(Bytes::from(out))
    }

    /// The bytes from `at` to `end` or to the end of the span that holds
    /// `at`, which is entered first if need be.
    fn take(&mut self, at: u64, end: u64) -> io::Result<Bytes> {
        let span = match self.span.take() {
            Some(span) if span.range.contains(&at) => span,
            _ => self.enter(at)?,
        };
        let Span { range, read } = self.span.insert(span);
        let (raw, ready) = read
            .as_mut()
            .map_err(|e| Error::new(e.kind(), e.to_string()))?;
        if let Some(ready) = ready.take() {
            sleep_until(ready);
        }
        Ok(raw.slice((at - range.start) as usize..(end.min(range.end) - range.start) as usize))
    }

    /// The span that holds `at`, the booked one if it does; once the reader
    /// books ahead, it books the span after it too, unless this one's read
    /// failed and the caller stops here. A span whose end cannot be told
    /// books nothing: the caller meets that error when it gets there.
    fn enter(&mut self, at: u64) -> io::Result<Span> {
        let span = match self.booked.take() {
            Some(booked) if booked.range.contains(&at) => booked,
            _ => self.submit(at)?,
        };
        self.book_in = self.book_in.saturating_sub(1);
        if self.book_in == 0 && span.read.is_ok() {
            self.booked = self.submit(span.range.end).ok();
        }
        Ok(span)
    }

    /// Books the span from `start` (one device read, not waited for) and
    /// doubles the next span's length.
    fn submit(&mut self, start: u64) -> io::Result<Span> {
        let end = self.ends.span_end(start, self.units)?.min(self.file.len());
        if end <= start {
            return Err(Error::new(
                InvalidData,
                format!("read at {start} past the end"),
            ));
        }
        self.units = self.units.saturating_mul(2);
        let len = (end - start) as usize;
        let read = match self.file.submit_read_class(start, len, self.class) {
            Ok((raw, ready)) if raw.len() == len => Ok((raw, Some(ready))),
            Ok(_) => Err(Error::new(InvalidData, "short span read")),
            Err(e) => Err(e),
        };
        let range = start..end;
        Ok(Span { range, read })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Env;
    use crate::{SimDevice, SimEnv};
    use std::sync::Mutex;

    /// A file of `len` bytes, byte i = i mod 251, and the reads made of it.
    struct Recording {
        inner: Arc<dyn RandomReadFile>,
        reads: Mutex<Vec<(u64, usize)>>,
        fail_at: Option<u64>,
    }

    impl RandomReadFile for Recording {
        fn read_at(&self, offset: u64, len: usize) -> io::Result<Bytes> {
            self.reads.lock().unwrap().push((offset, len));
            if self.fail_at == Some(offset) {
                return Err(io::Error::other("injected"));
            }
            self.inner.read_at(offset, len)
        }

        fn len(&self) -> u64 {
            self.inner.len()
        }
    }

    fn file(len: usize, fail_at: Option<u64>) -> Arc<Recording> {
        let env = SimEnv::new(Arc::new(SimDevice::mem(16 << 20)));
        let mut f = env.create("f").unwrap();
        f.append(&(0..len).map(|i| (i % 251) as u8).collect::<Vec<_>>())
            .unwrap();
        f.sync().unwrap();
        Arc::new(Recording {
            inner: env.open("f").unwrap(),
            reads: Mutex::new(Vec::new()),
            fail_at,
        })
    }

    fn bytes_of(range: Range<u64>) -> Vec<u8> {
        range.map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn spans_double_and_book_one_ahead() {
        let f = file(2000, None);
        let mut r = SpanReader::new(f.clone(), ReadClass::Foreground, 1, 100);
        assert_eq!(r.read(0..10).unwrap()[..], bytes_of(0..10)[..]);
        assert_eq!(*f.reads.lock().unwrap(), [(0, 100), (100, 200)]);
        // A range across a span boundary is stitched; entering the booked
        // span books the next.
        assert_eq!(r.read(90..150).unwrap()[..], bytes_of(90..150)[..]);
        assert_eq!(f.reads.lock().unwrap()[2..], [(300, 400)]);
        // A range across three spans, up to the end of the file.
        assert_eq!(r.read(150..2000).unwrap()[..], bytes_of(150..2000)[..]);
        assert_eq!(f.reads.lock().unwrap()[3..], [(700, 800), (1500, 500)]);
        assert!(r.read(2000..2001).is_err());
    }

    #[test]
    fn a_restart_drops_the_spans_and_books_from_the_nth_span() {
        let f = file(2000, None);
        let mut r = SpanReader::new(f.clone(), ReadClass::Foreground, 1, 100);
        r.read(0..300).unwrap();
        r.restart(2);
        f.reads.lock().unwrap().clear();
        assert_eq!(r.read(500..510).unwrap()[..], bytes_of(500..510)[..]);
        assert_eq!(*f.reads.lock().unwrap(), [(500, 100)], "booked too early");
        r.read(600..610).unwrap();
        assert_eq!(f.reads.lock().unwrap()[1..], [(600, 200), (800, 400)]);
    }

    #[test]
    fn a_failed_booked_span_errs_only_over_its_own_range() {
        let f = file(2000, Some(100));
        let mut r = SpanReader::new(f.clone(), ReadClass::Foreground, 1, 100);
        assert_eq!(r.read(0..100).unwrap()[..], bytes_of(0..100)[..]);
        for at in [100, 250, 299] {
            assert_eq!(r.read(at..at + 1).unwrap_err().to_string(), "injected");
        }
        // Entering the failed span booked nothing after it.
        assert_eq!(*f.reads.lock().unwrap(), [(0, 100), (100, 200)]);
        assert_eq!(r.read(300..310).unwrap()[..], bytes_of(300..310)[..]);
    }
}

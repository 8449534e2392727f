//! JSON Lines serialization of trace events, without a JSON dependency.
//!
//! Each event is one flat JSON object per line: `t` (nanoseconds), `ev`
//! (the kind's wire name), then the kind's fields. Which fields a kind
//! has, their keys and their order are declared once, in the schema table
//! of [`event`](crate::event), which generates the per-kind body of
//! [`write_jsonl`] and both per-kind arms of [`parse_line`]. How a value of
//! each field type is written and read back is declared once here, by one
//! codec per wire type. The writer and the parser are developed together
//! against round-trip tests, so the on-disk format is exactly the dialect
//! the parser accepts: objects with string, integer, float, null, and
//! integer-array values.
//!
//! The reader has two paths. The positional path expects the encoder's
//! exact bytes: `{"t":` and the time, `,"ev":` and the name, then each of
//! the kind's fields as its `,"key":` tag and value in table order, then
//! `}` and the end of the line; only `behind`, left out when `None`, may
//! be missing. At the first other byte (whitespace, another key order, an
//! unknown or repeated key, an escape, a `null` the encoder never writes,
//! an out-of-range number, a field left to its `or` default, malformed
//! input) it gives up, and the keyed path reads the line instead: one scan
//! fills a slot per known key, and the kind's fields are read from their
//! slots. Both paths read values with the same `Parser` methods and the
//! same checks, so a line reads the same either way; the tests hold that
//! on the dialect lists, every pinned line with each key deleted, random
//! events and their mutations and truncations. [`parse_jsonl`] runs the
//! positional path straight through the document and cuts a line out only
//! for the keyed path.

use std::borrow::Cow;
use std::fmt::Write as _;

use proteus_profiler::{DeviceId, DeviceType, ModelFamily, VariantId};
use proteus_sim::SimTime;

use crate::event::*;

/// Serializes one event as a single JSON line (no trailing newline).
///
/// A convenience over [`write_jsonl`] for callers that want an owned line;
/// streaming writers should reuse one buffer with `write_jsonl` instead.
pub fn to_jsonl(event: &TraceEvent) -> String {
    let mut line = Vec::with_capacity(96);
    write_jsonl(event, &mut line);
    // The encoder writes ASCII and whole `&str` labels, so this is UTF-8.
    String::from_utf8(line).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Appends one event as a single JSON line (no trailing newline) to `out`,
/// leaving whatever `out` already holds in place.
///
/// One pass, no allocation beyond growing `out`: integers go through a
/// stack digit buffer and labels are copied as bytes. Only the rare `f64`
/// fields use `core::fmt`, for Rust's shortest round-trip `{}` form.
pub fn write_jsonl(event: &TraceEvent, out: &mut Vec<u8>) {
    let start = out.len();
    let mut w = Line(out);
    w.key(Key::T);
    // The first key's comma opens the object instead.
    if let Some(open) = w.0.get_mut(start) {
        *open = b'{';
    }
    w.uint(event.at.as_nanos());
    w.key(Key::Ev);
    w.quoted(event.kind.name());
    event.kind.write_fields(&mut w);
    w.0.push(b'}');
}

/// Two ASCII digits for each value `0..100`, so the integer writer emits
/// two digits per division.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// The line being encoded. Labels are written unescaped: every label the
/// trace uses is a fixed identifier free of quotes and backslashes.
pub(crate) struct Line<'a>(&'a mut Vec<u8>);

impl Line<'_> {
    /// Base-10 digits of `n`, most significant first.
    fn uint(&mut self, mut n: u64) {
        let mut buf = [0u8; 20]; // u64::MAX has 20 digits
        let mut i = buf.len();
        while n >= 100 {
            let pair = (n % 100) as usize * 2;
            n /= 100;
            i -= 2;
            buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if n >= 10 {
            let pair = n as usize * 2;
            i -= 2;
            buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            i -= 1;
            buf[i] = b'0' + n as u8;
        }
        self.0.extend_from_slice(&buf[i..]);
    }

    fn key(&mut self, key: Key) {
        self.0.extend_from_slice(key.tag());
    }

    /// Label text, unquoted.
    pub(crate) fn raw(&mut self, s: &str) {
        self.0.extend_from_slice(s.as_bytes());
    }

    fn quoted(&mut self, s: &str) {
        self.0.push(b'"');
        self.raw(s);
        self.0.push(b'"');
    }
}

impl std::fmt::Write for Line<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.raw(s);
        Ok(())
    }
}

/// The codec of one field type: how a value is written into a line under
/// its key, and read back from the line's scanned [`Fields`]. The schema
/// table in [`event`](crate::event) calls it once per field.
pub(crate) trait Wire: Sized {
    /// Appends `,"key":value`, or nothing for a value left out.
    fn write(&self, key: Key, w: &mut Line<'_>);

    /// Reads the value under `key`; an absent key is an error unless the
    /// type allows it.
    fn read(f: &mut Fields<'_>, key: Key) -> Result<Self, String>;

    /// Reads `,"key":value` at the cursor, laid out as `write` writes it,
    /// and the value as `read` reads it; `None` on anything else, which
    /// sends the line to the keyed scan.
    fn take(p: &mut Parser<'_>, key: Key) -> Option<Self>;
}

impl Wire for u64 {
    fn write(&self, key: Key, w: &mut Line<'_>) {
        w.key(key);
        w.uint(*self);
    }

    fn read(f: &mut Fields<'_>, key: Key) -> Result<Self, String> {
        match f.get(key)? {
            Val::Int(n) => Ok(*n),
            other => Err(format!(
                "field `{}` is not an integer: {other:?}",
                key.name()
            )),
        }
    }

    fn take(p: &mut Parser<'_>, key: Key) -> Option<Self> {
        p.eat(key.tag())?;
        p.uint()
    }
}

/// A larger integer is an error, never truncated.
impl Wire for u32 {
    fn write(&self, key: Key, w: &mut Line<'_>) {
        u64::from(*self).write(key, w);
    }

    fn read(f: &mut Fields<'_>, key: Key) -> Result<Self, String> {
        let n = u64::read(f, key)?;
        u32::try_from(n).map_err(|_| format!("field `{}` is out of range: {n}", key.name()))
    }

    fn take(p: &mut Parser<'_>, key: Key) -> Option<Self> {
        u32::try_from(u64::take(p, key)?).ok()
    }
}

impl Wire for DeviceId {
    fn write(&self, key: Key, w: &mut Line<'_>) {
        self.0.write(key, w);
    }

    fn read(f: &mut Fields<'_>, key: Key) -> Result<Self, String> {
        u32::read(f, key).map(DeviceId)
    }

    fn take(p: &mut Parser<'_>, key: Key) -> Option<Self> {
        u32::take(p, key).map(DeviceId)
    }
}

/// Integer nanoseconds.
impl Wire for SimTime {
    fn write(&self, key: Key, w: &mut Line<'_>) {
        self.as_nanos().write(key, w);
    }

    fn read(f: &mut Fields<'_>, key: Key) -> Result<Self, String> {
        u64::read(f, key).map(SimTime::from_nanos)
    }

    fn take(p: &mut Parser<'_>, key: Key) -> Option<Self> {
        u64::take(p, key).map(SimTime::from_nanos)
    }
}

/// Rust's shortest round-trip `{}` form, formatted straight into the line.
impl Wire for f64 {
    fn write(&self, key: Key, w: &mut Line<'_>) {
        w.key(key);
        let _ = write!(w, "{self}");
    }

    fn read(f: &mut Fields<'_>, key: Key) -> Result<Self, String> {
        match f.get(key)? {
            Val::Float(x) => Ok(*x),
            Val::Int(n) => Ok(*n as f64),
            other => Err(format!("field `{}` is not a number: {other:?}", key.name())),
        }
    }

    fn take(p: &mut Parser<'_>, key: Key) -> Option<Self> {
        p.eat(key.tag())?;
        match p.number().ok()? {
            Val::Float(x) => Some(x),
            Val::Int(n) => Some(n as f64),
            _ => None,
        }
    }
}

/// Left out when `None`; absent or `null` reads as `None`, so traces
/// written before such a field existed still parse. The one field whose
/// tag the positional reader may find missing.
impl Wire for Option<u64> {
    fn write(&self, key: Key, w: &mut Line<'_>) {
        if let Some(n) = self {
            n.write(key, w);
        }
    }

    fn read(f: &mut Fields<'_>, key: Key) -> Result<Self, String> {
        match f.slot(key) {
            None | Some(Val::Null) => Ok(None),
            Some(_) => u64::read(f, key).map(Some),
        }
    }

    fn take(p: &mut Parser<'_>, key: Key) -> Option<Self> {
        match p.eat(key.tag()) {
            Some(()) => p.uint().map(Some),
            None => Some(None),
        }
    }
}

/// The one array field, `queries`: only its items are kept by the scan.
impl Wire for Vec<u64> {
    fn write(&self, key: Key, w: &mut Line<'_>) {
        w.key(key);
        w.0.push(b'[');
        for (i, q) in self.iter().enumerate() {
            if i > 0 {
                w.0.push(b',');
            }
            w.uint(*q);
        }
        w.0.push(b']');
    }

    fn read(f: &mut Fields<'_>, key: Key) -> Result<Self, String> {
        match f.get(key)? {
            Val::Arr => Ok(std::mem::take(&mut f.queries)),
            other => Err(format!("`{}` is not an array: {other:?}", key.name())),
        }
    }

    /// Without the whitespace the keyed scan allows, so the positional
    /// reader never reads past a newline.
    fn take(p: &mut Parser<'_>, key: Key) -> Option<Self> {
        p.eat(key.tag())?;
        p.eat(b"[")?;
        let mut items = Vec::new();
        if p.eat(b"]").is_none() {
            loop {
                items.push(p.uint()?);
                if p.eat(b",").is_none() {
                    break;
                }
            }
            p.eat(b"]")?;
        }
        Some(items)
    }
}

/// A field type written as a string: the label sets, [`ModelFamily`] and
/// [`VariantId`]. Each is a [`Wire`] type written quoted, and so is its
/// `Option`, which must be present as a string or `null`.
pub(crate) trait Text: Sized {
    /// Appends the text, unquoted.
    fn write_text(&self, w: &mut Line<'_>);

    /// Parses the text back.
    fn parse_text(s: &str) -> Result<Self, String>;
}

impl<T: Text> Wire for T {
    fn write(&self, key: Key, w: &mut Line<'_>) {
        w.key(key);
        w.0.push(b'"');
        self.write_text(w);
        w.0.push(b'"');
    }

    fn read(f: &mut Fields<'_>, key: Key) -> Result<Self, String> {
        T::parse_text(&f.str(key)?)
    }

    fn take(p: &mut Parser<'_>, key: Key) -> Option<Self> {
        p.eat(key.tag())?;
        p.text()
    }
}

impl<T: Text> Wire for Option<T> {
    fn write(&self, key: Key, w: &mut Line<'_>) {
        match self {
            Some(v) => v.write(key, w),
            None => {
                w.key(key);
                w.raw("null");
            }
        }
    }

    fn read(f: &mut Fields<'_>, key: Key) -> Result<Self, String> {
        match f.get(key)? {
            Val::Null => Ok(None),
            Val::Str(..) => T::read(f, key).map(Some),
            other => Err(format!(
                "`{}` is not a string or null: {other:?}",
                key.name()
            )),
        }
    }

    fn take(p: &mut Parser<'_>, key: Key) -> Option<Self> {
        p.eat(key.tag())?;
        if p.eat(b"null").is_some() {
            Some(None)
        } else {
            p.text().map(Some)
        }
    }
}

/// Declares a closed label set: the enum, `ALL` (in declaration order),
/// `label()` and `parse()`, each variant and its wire label written once,
/// and the set's [`Text`] codec. `labels!(impl Set)` gives the codec alone
/// to a set declared elsewhere with the same `ALL` and `label()`.
macro_rules! labels {
    (
        $(#[$meta:meta])*
        pub enum $set:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $label:literal,
            )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $set {
            $(
                $(#[$vmeta])*
                $variant,
            )+
        }

        impl $set {
            /// Every member, in declaration (serialization) order.
            pub const ALL: [$set; [$($label),+].len()] = [$($set::$variant),+];

            /// Stable wire label.
            pub fn label(self) -> &'static str {
                match self {
                    $($set::$variant => $label,)+
                }
            }

            /// Parses a wire label back into a member.
            pub fn parse(label: &str) -> Option<Self> {
                Self::ALL.into_iter().find(|m| m.label() == label)
            }
        }

        $crate::json::labels!(impl $set);
    };
    (impl $set:ident) => {
        impl $crate::json::Text for $set {
            fn write_text(&self, w: &mut $crate::json::Line<'_>) {
                w.raw(self.label());
            }

            fn parse_text(s: &str) -> Result<Self, String> {
                Self::ALL
                    .into_iter()
                    .find(|m| m.label() == s)
                    .ok_or_else(|| format!("unknown {} `{s}`", stringify!($set)))
            }
        }
    };
}
pub(crate) use labels;

labels!(impl DeviceType);

/// Case-insensitive, as `ModelFamily`'s `FromStr`.
impl Text for ModelFamily {
    fn write_text(&self, w: &mut Line<'_>) {
        w.raw(self.label());
    }

    fn parse_text(s: &str) -> Result<Self, String> {
        s.parse().map_err(|e| format!("{e}"))
    }
}

/// `Family#index`, the `Display` form.
impl Text for VariantId {
    fn write_text(&self, w: &mut Line<'_>) {
        w.raw(self.family.label());
        w.0.push(b'#');
        w.uint(u64::from(self.index));
    }

    fn parse_text(s: &str) -> Result<Self, String> {
        let parsed = s.rsplit_once('#').and_then(|(family, index)| {
            Some(VariantId {
                family: family.parse().ok()?,
                index: index.parse().ok()?,
            })
        });
        parsed.ok_or_else(|| format!("bad variant `{s}`"))
    }
}

/// A failure parsing a trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEventError {
    /// 1-based line number (0 when parsing a single line out of context).
    pub line: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for ParseEventError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseEventError {}

/// One value of a line, as scanned. A string is the raw text between its
/// quotes, its escapes already checked (decoded by [`unescape`] on use);
/// an array has had every item checked, and only `queries` keeps them.
#[derive(Debug, Clone, Copy)]
enum Val<'a> {
    Int(u64),
    Float(f64),
    /// Raw text, and whether it holds an escape.
    Str(&'a str, bool),
    Arr,
    Null,
}

/// Declares [`Key`] from `Variant "name"` pairs.
macro_rules! keys {
    ($($key:ident $name:literal,)*) => {
        /// Every key some event kind reads: the schema table names each
        /// field's key by its variant. Any other key is scanned, checked
        /// and dropped.
        #[derive(Debug, Clone, Copy)]
        pub(crate) enum Key {
            $($key,)*
        }

        impl Key {
            const COUNT: usize = [$($name),*].len();

            fn name(self) -> &'static str {
                match self {
                    $(Key::$key => $name,)*
                }
            }

            /// `,"name":`, as written after a value.
            fn tag(self) -> &'static [u8] {
                match self {
                    $(Key::$key => concat!(",\"", $name, "\":").as_bytes(),)*
                }
            }

            fn from_name(name: &str) -> Option<Key> {
                match name {
                    $($name => Some(Key::$key),)*
                    _ => None,
                }
            }
        }
    };
}

keys! {
    T "t", Ev "ev", D "d", Type "type", Q "q", Family "family", Depth "depth",
    Behind "behind", Batch "batch", Queries "queries", Variant "variant",
    Size "size", Until "until", Latency "latency", Epoch "epoch",
    Reason "reason", Cause "cause", Changed "changed", Shrink "shrink",
    Nodes "nodes", Pivots "pivots", Warm "warm", Wall "wall",
    Violations "violations", Devices "devices", Families "families",
    From "from", Attempt "attempt", Slowdown "slowdown", Scope "scope",
    Severity "severity", Burn "burn", LongS "long_s", ShortS "short_s",
}

/// The known fields of one line: one slot per [`Key`] holding the value
/// of the key's first occurrence (`None` when the line lacks it), and the
/// items of that occurrence when the key is `queries`. Nothing in it is
/// heap-allocated except those items.
pub(crate) struct Fields<'a> {
    slots: [Option<Val<'a>>; Key::COUNT],
    queries: Vec<u64>,
}

impl<'a> Fields<'a> {
    fn new() -> Self {
        Fields {
            slots: [None; Key::COUNT],
            queries: Vec::new(),
        }
    }

    /// Reads a flat JSON object in one scan, keeping the known fields.
    fn scan(&mut self, text: &'a str) -> Result<(), String> {
        let mut p = Parser { src: text, pos: 0 };
        p.skip_ws();
        p.expect_byte(b'{')?;
        p.skip_ws();
        if p.peek() == Some(b'}') {
            p.pos += 1;
        } else {
            loop {
                p.skip_ws();
                let (name, escaped) = p.string()?;
                p.skip_ws();
                p.expect_byte(b':')?;
                p.skip_ws();
                // Known names have no escapes, so an escaped key is unknown.
                let key = if escaped { None } else { Key::from_name(name) };
                // A known key's first value fills its slot; the values of
                // unknown and repeated keys are checked and dropped.
                let slot = key.filter(|&k| self.slots[k as usize].is_none());
                let items = matches!(slot, Some(Key::Queries)).then_some(&mut self.queries);
                let value = p.value(items)?;
                if let Some(k) = slot {
                    self.slots[k as usize] = Some(value);
                }
                p.skip_ws();
                match p.next() {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    other => return Err(format!("expected `,` or `}}`, got {other:?}")),
                }
            }
        }
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err("trailing characters after object".into());
        }
        Ok(())
    }

    fn slot(&self, key: Key) -> Option<Val<'a>> {
        self.slots[key as usize]
    }

    fn get(&self, key: Key) -> Result<&Val<'a>, String> {
        self.slots[key as usize]
            .as_ref()
            .ok_or_else(|| format!("missing field `{}`", key.name()))
    }

    fn str(&self, key: Key) -> Result<Cow<'a, str>, String> {
        match *self.get(key)? {
            Val::Str(raw, false) => Ok(Cow::Borrowed(raw)),
            Val::Str(raw, true) => Ok(Cow::Owned(unescape(raw))),
            other => Err(format!("field `{}` is not a string: {other:?}", key.name())),
        }
    }

    /// Reads a field whose absence (or `null`) means `default`, for a
    /// field that traces written before it existed lack.
    pub(crate) fn read_or<T: Wire>(&mut self, key: Key, default: T) -> Result<T, String> {
        match self.slot(key) {
            None | Some(Val::Null) => Ok(default),
            Some(_) => T::read(self, key),
        }
    }
}

/// Parses one JSONL line back into a [`TraceEvent`].
///
/// # Errors
///
/// Returns a [`ParseEventError`] (with `line` 0) on malformed input.
pub fn parse_line(text: &str) -> Result<TraceEvent, ParseEventError> {
    parse_positional(text).map_or_else(|| parse_keyed(text), Ok)
}

/// The positional path of [`parse_line`]: the line must be exactly one
/// object in the encoder's bytes (see [`Parser::event`]).
pub(crate) fn parse_positional(text: &str) -> Option<TraceEvent> {
    let mut p = Parser { src: text, pos: 0 };
    let event = p.event()?;
    (p.pos == text.len()).then_some(event)
}

/// The keyed path of [`parse_line`], for any line of the accepted
/// dialect: one scan fills a slot per known key, then the kind's fields
/// are read from their slots.
pub(crate) fn parse_keyed(text: &str) -> Result<TraceEvent, ParseEventError> {
    let mut fields = Fields::new();
    fields
        .scan(text)
        .and_then(|()| {
            let at = SimTime::read(&mut fields, Key::T)?;
            let ev = fields.str(Key::Ev)?;
            let kind = EventKind::read_fields(&ev, &mut fields)?;
            Ok(TraceEvent { at, kind })
        })
        .map_err(|reason| ParseEventError { line: 0, reason })
}

/// Parses a whole JSONL document (blank lines skipped).
///
/// # Errors
///
/// Returns the first malformed line with its 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, ParseEventError> {
    // One event per line at most. Counting newlines into a byte per chunk
    // lets the count vectorize.
    let lines: usize = text
        .as_bytes()
        .chunks(128)
        .map(|chunk| usize::from(chunk.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'))))
        .sum();
    let mut events = Vec::with_capacity(lines + 1);
    // The positional path reads straight through the document, so a line
    // it accepts is neither cut out nor trimmed first.
    let mut p = Parser { src: text, pos: 0 };
    let mut idx = 0;
    while p.pos < text.len() {
        idx += 1;
        let start = p.pos;
        if let Some(event) = p.event() {
            if p.eat(b"\n").is_some() || p.pos == text.len() {
                events.push(event);
                continue;
            }
        }
        // Any other line goes to the keyed scan, cut as `str::lines` cuts
        // it.
        let rest = text.get(start..).unwrap_or_default();
        p.pos = start + rest.find('\n').map_or(rest.len(), |n| n + 1);
        let line = rest.lines().next().unwrap_or_default();
        if line.trim().is_empty() {
            continue;
        }
        let event = parse_keyed(line).map_err(|mut e| {
            e.line = idx;
            e
        })?;
        events.push(event);
    }
    Ok(events)
}

/// A cursor shared by the keyed scan and the positional reader, so both
/// read every value with the same code.
pub(crate) struct Parser<'a> {
    /// The line being parsed (or, for the positional reader of
    /// [`parse_jsonl`], the whole document); `pos` is a byte offset into
    /// it.
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    /// Steps past `bytes` if the cursor is at them.
    fn eat(&mut self, bytes: &[u8]) -> Option<()> {
        let rest = self.src.as_bytes().get(self.pos..)?;
        rest.starts_with(bytes).then(|| self.pos += bytes.len())
    }

    /// An integer that fits a `u64`, as the keyed scan reads one.
    fn uint(&mut self) -> Option<u64> {
        match self.number().ok()? {
            Val::Int(n) => Some(n),
            _ => None,
        }
    }

    /// A string free of escapes and newlines, parsed by its [`Text`]
    /// codec.
    fn text<T: Text>(&mut self) -> Option<T> {
        match self.string().ok()? {
            (raw, false) if !raw.contains('\n') => T::parse_text(raw).ok(),
            _ => None,
        }
    }

    /// Reads one event at the cursor in exactly the bytes [`write_jsonl`]
    /// writes: `{"t":`, the time, `,"ev":` and the quoted name, then each
    /// of the kind's fields as its tag and value in table order, then `}`.
    /// `None` at the first other byte, for the caller to fall back to
    /// [`parse_keyed`]. An event this reads, the keyed scan reads to the
    /// same value: both read values with the same methods and checks.
    /// It never reads past a newline.
    fn event(&mut self) -> Option<TraceEvent> {
        // The encoder opens the object with `{` in place of the first
        // tag's comma.
        self.eat(b"{")?;
        self.eat(Key::T.tag().strip_prefix(b",")?)?;
        let at = SimTime::from_nanos(self.uint()?);
        self.eat(Key::Ev.tag())?;
        let (name, false) = self.string().ok()? else {
            return None;
        };
        let kind = EventKind::take_fields(name, self)?;
        self.eat(b"}")?;
        Some(TraceEvent { at, kind })
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected `{}`, got {other:?}", want as char)),
        }
    }

    /// Reads a string literal: the raw text between the quotes, and
    /// whether it holds an escape. Escapes are checked here; quotes and
    /// backslashes are ASCII, so both cuts land on character boundaries.
    fn string(&mut self) -> Result<(&'a str, bool), String> {
        self.expect_byte(b'"')?;
        let start = self.pos;
        let mut escaped = false;
        loop {
            let Some(len) = self.src.as_bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                return Err("unterminated string".into());
            };
            self.pos += len;
            if self.next() == Some(b'"') {
                return Ok((&self.src[start..self.pos - 1], escaped));
            }
            escaped = true;
            match self.next() {
                Some(b'"' | b'\\' | b'n' | b't') => {}
                other => return Err(format!("unsupported escape {other:?}")),
            }
        }
    }

    /// Reads the run of number bytes at the cursor. Leading digits are
    /// accumulated as they are scanned; a run that goes on past them is a
    /// float.
    fn number(&mut self) -> Result<Val<'a>, String> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let mut n = 0u64;
        while let Some(&b @ b'0'..=b'9') = bytes.get(self.pos) {
            n = n.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            self.pos += 1;
        }
        let digits = self.pos - start;
        let is_float_byte =
            |b: Option<&u8>| matches!(b, Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'));
        if !is_float_byte(bytes.get(self.pos)) {
            // Nineteen digits always fit a `u64`; more may not.
            match digits {
                0 => return Err("expected a number".into()),
                1..=19 => return Ok(Val::Int(n)),
                _ => {
                    if let Ok(n) = self.src[start..self.pos].parse::<u64>() {
                        return Ok(Val::Int(n));
                    }
                    // Digits past `u64::MAX` can only be an integral `f64`
                    // field (its `{}` form has no exponent), e.g. `1e21` as
                    // 22 digits.
                }
            }
        }
        while is_float_byte(bytes.get(self.pos)) {
            self.pos += 1;
        }
        // Only ASCII bytes were consumed, so the cut is on a boundary.
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .map(Val::Float)
            .map_err(|_| format!("bad number `{text}`"))
    }

    /// Reads one value; the items of an array go to `items` when given.
    fn value(&mut self, items: Option<&mut Vec<u64>>) -> Result<Val<'a>, String> {
        match self.peek() {
            Some(b'"') => {
                let (raw, escaped) = self.string()?;
                Ok(Val::Str(raw, escaped))
            }
            Some(b'n') => {
                if self.src.as_bytes()[self.pos..].starts_with(b"null") {
                    self.pos += 4;
                    Ok(Val::Null)
                } else {
                    Err("expected `null`".into())
                }
            }
            Some(b'[') => {
                self.array(items)?;
                Ok(Val::Arr)
            }
            _ => self.number(),
        }
    }

    /// Reads an array of non-negative integers.
    fn array(&mut self, mut items: Option<&mut Vec<u64>>) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            match self.number()? {
                Val::Int(n) => {
                    if let Some(items) = items.as_deref_mut() {
                        items.push(n);
                    }
                }
                other => return Err(format!("array item is not an integer: {other:?}")),
            }
            self.skip_ws();
            match self.next() {
                Some(b',') => continue,
                Some(b']') => return Ok(()),
                other => return Err(format!("expected `,` or `]`, got {other:?}")),
            }
        }
    }
}

/// Decodes the raw text of a string literal [`Parser::string`] accepted.
fn unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        out.push(if c == '\\' {
            match chars.next() {
                Some('n') => '\n',
                Some('t') => '\t',
                // `\"` and `\\`, the only other escapes the scan accepts.
                Some(c) => c,
                None => break,
            }
        } else {
            c
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proteus_profiler::DeviceType;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn all_kinds() -> Vec<TraceEvent> {
        let v = VariantId {
            family: ModelFamily::ResNet,
            index: 2,
        };
        let kinds = vec![
            EventKind::WorkerOnline {
                device: DeviceId(3),
                device_type: DeviceType::V100,
            },
            EventKind::Arrived {
                query: 17,
                family: ModelFamily::Gpt2,
            },
            EventKind::Routed {
                query: 17,
                device: DeviceId(3),
            },
            EventKind::Enqueued {
                query: 17,
                device: DeviceId(3),
                depth: 4,
                behind: None,
            },
            EventKind::Enqueued {
                query: 18,
                device: DeviceId(3),
                depth: 5,
                behind: Some(8),
            },
            EventKind::BatchFormed {
                device: DeviceId(3),
                batch: 9,
                queries: vec![15, 16, 17],
            },
            EventKind::BatchFormed {
                device: DeviceId(3),
                batch: 10,
                queries: vec![],
            },
            EventKind::ExecStarted {
                device: DeviceId(3),
                batch: 9,
                variant: v,
                size: 3,
                until: t(120),
            },
            EventKind::ExecCompleted {
                device: DeviceId(3),
                batch: 9,
            },
            EventKind::ServedOnTime {
                query: 17,
                latency: t(45),
                epoch: 2,
            },
            EventKind::ServedLate {
                query: 16,
                latency: t(450),
                epoch: 0,
            },
            EventKind::Dropped {
                query: 15,
                reason: DropReason::Expired,
            },
            EventKind::ModelLoadStarted {
                device: DeviceId(3),
                variant: Some(v),
                until: t(2000),
            },
            EventKind::ModelLoadStarted {
                device: DeviceId(3),
                variant: None,
                until: t(2000),
            },
            EventKind::ModelLoadFinished {
                device: DeviceId(3),
            },
            EventKind::ReplanTriggered {
                cause: ReplanCause::Burst,
            },
            EventKind::PlanApplied {
                changed: 5,
                shrink: 1.25,
            },
            EventKind::SolveStats {
                nodes: 12,
                pivots: 340,
                warm_starts: 11,
                wall_nanos: 1_500_000,
            },
            EventKind::AuditReport {
                violations: 0,
                devices_checked: 9,
                families_checked: 9,
            },
            EventKind::WorkerCrashed {
                device: DeviceId(3),
            },
            EventKind::WorkerRecovered {
                device: DeviceId(3),
            },
            EventKind::QueryRetried {
                query: 17,
                from: DeviceId(3),
                attempt: 2,
            },
            EventKind::LoadFailed {
                device: DeviceId(3),
                variant: Some(v),
                attempt: 1,
            },
            EventKind::LoadFailed {
                device: DeviceId(3),
                variant: None,
                attempt: 3,
            },
            EventKind::StragglerStarted {
                device: DeviceId(3),
                slowdown: 2.5,
            },
            EventKind::StragglerEnded {
                device: DeviceId(3),
            },
            EventKind::Dropped {
                query: 14,
                reason: DropReason::DeviceFailed,
            },
            EventKind::AlertFired {
                scope: Some(ModelFamily::ResNet),
                severity: AlertSeverity::Page,
                burn: 14.62,
                long_secs: 300.0,
                short_secs: 60.0,
            },
            EventKind::AlertFired {
                scope: None,
                severity: AlertSeverity::Ticket,
                burn: 6.0078125,
                long_secs: 900.0,
                short_secs: 300.0,
            },
            EventKind::AlertResolved {
                scope: None,
                severity: AlertSeverity::Page,
                burn: 0.25,
                long_secs: 300.0,
                short_secs: 60.0,
            },
            EventKind::SolveStarted {
                cause: ReplanCause::Periodic,
                until: t(34_200),
            },
            EventKind::SolveComplete {
                cause: ReplanCause::Periodic,
            },
            EventKind::PlanDiscarded {
                cause: ReplanCause::Burst,
                reason: DiscardReason::Liveness,
            },
            EventKind::PlanDiscarded {
                cause: ReplanCause::Periodic,
                reason: DiscardReason::Superseded,
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                at: t(i as u64),
                kind,
            })
            .collect()
    }

    /// Boundary values the per-kind list does not reach: zero and
    /// `u64::MAX` times and ids, empty and one-element batches, absent
    /// optional fields, the widest `u32`/`u8` fields, and non-integral,
    /// zero, tiny and huge floats.
    fn edge_cases() -> Vec<TraceEvent> {
        let max = SimTime::from_nanos(u64::MAX);
        let v = VariantId {
            family: ModelFamily::Gpt2,
            index: u8::MAX,
        };
        let at = |at: SimTime, kind: EventKind| TraceEvent { at, kind };
        vec![
            at(
                SimTime::ZERO,
                EventKind::Arrived {
                    query: 0,
                    family: ModelFamily::YoloV5,
                },
            ),
            at(
                max,
                EventKind::Arrived {
                    query: u64::MAX,
                    family: ModelFamily::T5,
                },
            ),
            at(
                max,
                EventKind::Enqueued {
                    query: u64::MAX,
                    device: DeviceId(u32::MAX),
                    depth: u32::MAX,
                    behind: Some(u64::MAX),
                },
            ),
            at(
                SimTime::ZERO,
                EventKind::Enqueued {
                    query: 0,
                    device: DeviceId(0),
                    depth: 0,
                    behind: None,
                },
            ),
            at(
                SimTime::ZERO,
                EventKind::BatchFormed {
                    device: DeviceId(0),
                    batch: 0,
                    queries: vec![],
                },
            ),
            at(
                max,
                EventKind::BatchFormed {
                    device: DeviceId(u32::MAX),
                    batch: u64::MAX,
                    queries: vec![u64::MAX],
                },
            ),
            at(
                t(9),
                EventKind::BatchFormed {
                    device: DeviceId(1),
                    batch: 10,
                    queries: vec![0],
                },
            ),
            at(
                max,
                EventKind::ExecStarted {
                    device: DeviceId(u32::MAX),
                    batch: u64::MAX,
                    variant: v,
                    size: u32::MAX,
                    until: max,
                },
            ),
            at(
                max,
                EventKind::ServedLate {
                    query: u64::MAX,
                    latency: max,
                    epoch: u64::MAX,
                },
            ),
            at(
                SimTime::ZERO,
                EventKind::ModelLoadStarted {
                    device: DeviceId(0),
                    variant: Some(v),
                    until: SimTime::ZERO,
                },
            ),
            at(
                t(1),
                EventKind::PlanApplied {
                    changed: 0,
                    shrink: 0.1,
                },
            ),
            at(
                t(1),
                EventKind::PlanApplied {
                    changed: u32::MAX,
                    shrink: 1.0,
                },
            ),
            at(
                t(1),
                EventKind::PlanApplied {
                    changed: 1,
                    shrink: 1.0526315789473684,
                },
            ),
            at(
                max,
                EventKind::SolveStats {
                    nodes: u64::MAX,
                    pivots: u64::MAX,
                    warm_starts: 0,
                    wall_nanos: u64::MAX,
                },
            ),
            at(
                max,
                EventKind::QueryRetried {
                    query: u64::MAX,
                    from: DeviceId(u32::MAX),
                    attempt: u32::MAX,
                },
            ),
            at(
                t(2),
                EventKind::StragglerStarted {
                    device: DeviceId(5),
                    slowdown: 0.0,
                },
            ),
            at(
                t(2),
                EventKind::StragglerStarted {
                    device: DeviceId(5),
                    slowdown: 1e-7,
                },
            ),
            at(
                t(3),
                EventKind::AlertFired {
                    scope: Some(ModelFamily::Gpt2),
                    severity: AlertSeverity::Page,
                    burn: 14.4,
                    long_secs: 0.5,
                    short_secs: 1e21,
                },
            ),
            at(
                t(3),
                EventKind::AlertResolved {
                    scope: None,
                    severity: AlertSeverity::Ticket,
                    burn: 0.1 + 0.2,
                    long_secs: 3600.0,
                    short_secs: 300.0,
                },
            ),
        ]
    }

    /// The bytes of every entry of `all_kinds()` followed by every entry of
    /// `edge_cases()`, one line each, as the `core::fmt`-based encoder wrote
    /// them. The direct encoder must reproduce them exactly.
    const PINNED_LINES: &str = r#"{"t":0,"ev":"worker_online","d":3,"type":"V100"}
{"t":1000000,"ev":"arrived","q":17,"family":"GPT-2"}
{"t":2000000,"ev":"routed","q":17,"d":3}
{"t":3000000,"ev":"enqueued","q":17,"d":3,"depth":4}
{"t":4000000,"ev":"enqueued","q":18,"d":3,"depth":5,"behind":8}
{"t":5000000,"ev":"batch_formed","d":3,"batch":9,"queries":[15,16,17]}
{"t":6000000,"ev":"batch_formed","d":3,"batch":10,"queries":[]}
{"t":7000000,"ev":"exec_started","d":3,"batch":9,"variant":"ResNet#2","size":3,"until":120000000}
{"t":8000000,"ev":"exec_completed","d":3,"batch":9}
{"t":9000000,"ev":"served_on_time","q":17,"latency":45000000,"epoch":2}
{"t":10000000,"ev":"served_late","q":16,"latency":450000000,"epoch":0}
{"t":11000000,"ev":"dropped","q":15,"reason":"expired"}
{"t":12000000,"ev":"model_load_started","d":3,"variant":"ResNet#2","until":2000000000}
{"t":13000000,"ev":"model_load_started","d":3,"variant":null,"until":2000000000}
{"t":14000000,"ev":"model_load_finished","d":3}
{"t":15000000,"ev":"replan_triggered","cause":"burst"}
{"t":16000000,"ev":"plan_applied","changed":5,"shrink":1.25}
{"t":17000000,"ev":"solve_stats","nodes":12,"pivots":340,"warm":11,"wall":1500000}
{"t":18000000,"ev":"audit_report","violations":0,"devices":9,"families":9}
{"t":19000000,"ev":"worker_crashed","d":3}
{"t":20000000,"ev":"worker_recovered","d":3}
{"t":21000000,"ev":"query_retried","q":17,"from":3,"attempt":2}
{"t":22000000,"ev":"load_failed","d":3,"variant":"ResNet#2","attempt":1}
{"t":23000000,"ev":"load_failed","d":3,"variant":null,"attempt":3}
{"t":24000000,"ev":"straggler_started","d":3,"slowdown":2.5}
{"t":25000000,"ev":"straggler_ended","d":3}
{"t":26000000,"ev":"dropped","q":14,"reason":"device_failed"}
{"t":27000000,"ev":"alert_fired","scope":"ResNet","severity":"page","burn":14.62,"long_s":300,"short_s":60}
{"t":28000000,"ev":"alert_fired","scope":null,"severity":"ticket","burn":6.0078125,"long_s":900,"short_s":300}
{"t":29000000,"ev":"alert_resolved","scope":null,"severity":"page","burn":0.25,"long_s":300,"short_s":60}
{"t":30000000,"ev":"solve_started","cause":"periodic","until":34200000000}
{"t":31000000,"ev":"solve_complete","cause":"periodic"}
{"t":32000000,"ev":"plan_discarded","cause":"burst","reason":"liveness"}
{"t":33000000,"ev":"plan_discarded","cause":"periodic","reason":"superseded"}
{"t":0,"ev":"arrived","q":0,"family":"YOLOv5"}
{"t":18446744073709551615,"ev":"arrived","q":18446744073709551615,"family":"T5"}
{"t":18446744073709551615,"ev":"enqueued","q":18446744073709551615,"d":4294967295,"depth":4294967295,"behind":18446744073709551615}
{"t":0,"ev":"enqueued","q":0,"d":0,"depth":0}
{"t":0,"ev":"batch_formed","d":0,"batch":0,"queries":[]}
{"t":18446744073709551615,"ev":"batch_formed","d":4294967295,"batch":18446744073709551615,"queries":[18446744073709551615]}
{"t":9000000,"ev":"batch_formed","d":1,"batch":10,"queries":[0]}
{"t":18446744073709551615,"ev":"exec_started","d":4294967295,"batch":18446744073709551615,"variant":"GPT-2#255","size":4294967295,"until":18446744073709551615}
{"t":18446744073709551615,"ev":"served_late","q":18446744073709551615,"latency":18446744073709551615,"epoch":18446744073709551615}
{"t":0,"ev":"model_load_started","d":0,"variant":"GPT-2#255","until":0}
{"t":1000000,"ev":"plan_applied","changed":0,"shrink":0.1}
{"t":1000000,"ev":"plan_applied","changed":4294967295,"shrink":1}
{"t":1000000,"ev":"plan_applied","changed":1,"shrink":1.0526315789473684}
{"t":18446744073709551615,"ev":"solve_stats","nodes":18446744073709551615,"pivots":18446744073709551615,"warm":0,"wall":18446744073709551615}
{"t":18446744073709551615,"ev":"query_retried","q":18446744073709551615,"from":4294967295,"attempt":4294967295}
{"t":2000000,"ev":"straggler_started","d":5,"slowdown":0}
{"t":2000000,"ev":"straggler_started","d":5,"slowdown":0.0000001}
{"t":3000000,"ev":"alert_fired","scope":"GPT-2","severity":"page","burn":14.4,"long_s":0.5,"short_s":1000000000000000000000}
{"t":3000000,"ev":"alert_resolved","scope":null,"severity":"ticket","burn":0.30000000000000004,"long_s":3600,"short_s":300}
"#;

    #[test]
    fn every_kind_encodes_to_its_pinned_bytes() {
        let events: Vec<TraceEvent> = all_kinds().into_iter().chain(edge_cases()).collect();
        let pinned: Vec<&str> = PINNED_LINES.lines().collect();
        assert_eq!(events.len(), pinned.len(), "one pinned line per event");
        for (event, want) in events.iter().zip(pinned) {
            assert_eq!(to_jsonl(event), want, "{event:?}");
        }
    }

    /// Number of [`EventKind`] variants `random_event` builds.
    const KINDS: u8 = 27;

    /// A `u64` that is zero, `u64::MAX`, small, or anything.
    fn wide() -> impl Strategy<Value = u64> {
        (0u8..4, 0u64..u64::MAX).prop_map(|(pick, x)| match pick {
            0 => 0,
            1 => u64::MAX,
            2 => x % 1000,
            _ => x,
        })
    }

    /// A finite `f64`: any finite bit pattern, a short decimal, or an
    /// integral value.
    fn finite() -> impl Strategy<Value = f64> {
        (0u8..3, 0u64..u64::MAX).prop_map(|(pick, bits)| match pick {
            0 if f64::from_bits(bits).is_finite() => f64::from_bits(bits),
            1 => (bits % 100_000) as f64 / 1000.0,
            _ => (bits % 10_000) as f64,
        })
    }

    /// An event of kind number `kind`, its numeric fields taken from `ids`
    /// (eight draws; `u32`/`u8` fields truncate them) and `floats` (three),
    /// its labels and optional fields chosen by the bits of `pick`.
    fn random_event(
        kind: u8,
        at: u64,
        ids: &[u64],
        floats: &[f64],
        queries: Vec<u64>,
        pick: u64,
    ) -> TraceEvent {
        let device = |i: usize| DeviceId(ids[i] as u32);
        let time = |i: usize| SimTime::from_nanos(ids[i]);
        let bit = |b: u32| (pick >> b) & 1 == 1;
        let choose = |b: u32, n: usize| ((pick >> b) % n as u64) as usize;
        let family = ModelFamily::ALL[choose(0, ModelFamily::ALL.len())];
        let variant = VariantId {
            family,
            index: ids[7] as u8,
        };
        let cause = ReplanCause::ALL[choose(8, ReplanCause::ALL.len())];
        let severity = AlertSeverity::ALL[choose(16, AlertSeverity::ALL.len())];
        let (scope, burn, long_secs, short_secs) =
            (bit(40).then_some(family), floats[0], floats[1], floats[2]);
        let kind = match kind {
            0 => EventKind::WorkerOnline {
                device: device(0),
                device_type: DeviceType::ALL[choose(24, DeviceType::ALL.len())],
            },
            1 => EventKind::Arrived {
                query: ids[0],
                family,
            },
            2 => EventKind::Routed {
                query: ids[0],
                device: device(1),
            },
            3 => EventKind::Enqueued {
                query: ids[0],
                device: device(1),
                depth: ids[2] as u32,
                behind: bit(41).then_some(ids[3]),
            },
            4 => EventKind::BatchFormed {
                device: device(0),
                batch: ids[1],
                queries,
            },
            5 => EventKind::ExecStarted {
                device: device(0),
                batch: ids[1],
                variant,
                size: ids[2] as u32,
                until: time(3),
            },
            6 => EventKind::ExecCompleted {
                device: device(0),
                batch: ids[1],
            },
            7 => EventKind::ServedOnTime {
                query: ids[0],
                latency: time(1),
                epoch: ids[2],
            },
            8 => EventKind::ServedLate {
                query: ids[0],
                latency: time(1),
                epoch: ids[2],
            },
            9 => EventKind::Dropped {
                query: ids[0],
                reason: DropReason::ALL[choose(32, DropReason::ALL.len())],
            },
            10 => EventKind::ModelLoadStarted {
                device: device(0),
                variant: bit(42).then_some(variant),
                until: time(1),
            },
            11 => EventKind::ModelLoadFinished { device: device(0) },
            12 => EventKind::ReplanTriggered { cause },
            13 => EventKind::PlanApplied {
                changed: ids[0] as u32,
                shrink: floats[0],
            },
            14 => EventKind::SolveStats {
                nodes: ids[0],
                pivots: ids[1],
                warm_starts: ids[2],
                wall_nanos: ids[3],
            },
            15 => EventKind::AuditReport {
                violations: ids[0] as u32,
                devices_checked: ids[1] as u32,
                families_checked: ids[2] as u32,
            },
            16 => EventKind::WorkerCrashed { device: device(0) },
            17 => EventKind::WorkerRecovered { device: device(0) },
            18 => EventKind::QueryRetried {
                query: ids[0],
                from: device(1),
                attempt: ids[2] as u32,
            },
            19 => EventKind::LoadFailed {
                device: device(0),
                variant: bit(42).then_some(variant),
                attempt: ids[2] as u32,
            },
            20 => EventKind::StragglerStarted {
                device: device(0),
                slowdown: floats[0],
            },
            21 => EventKind::StragglerEnded { device: device(0) },
            22 => EventKind::AlertFired {
                scope,
                severity,
                burn,
                long_secs,
                short_secs,
            },
            23 => EventKind::AlertResolved {
                scope,
                severity,
                burn,
                long_secs,
                short_secs,
            },
            24 => EventKind::SolveStarted {
                cause,
                until: time(0),
            },
            25 => EventKind::SolveComplete { cause },
            _ => EventKind::PlanDiscarded {
                cause,
                reason: DiscardReason::ALL[choose(48, DiscardReason::ALL.len())],
            },
        };
        TraceEvent {
            at: SimTime::from_nanos(at),
            kind,
        }
    }

    #[test]
    fn random_events_cover_every_kind() {
        let names = |events: &[TraceEvent]| -> std::collections::BTreeSet<&'static str> {
            events.iter().map(|e| e.kind.name()).collect()
        };
        let random: Vec<TraceEvent> = (0..KINDS)
            .map(|k| random_event(k, 0, &[0; 8], &[0.0; 3], vec![], 0))
            .collect();
        assert_eq!(names(&random).len(), usize::from(KINDS));
        assert_eq!(names(&random), names(&all_kinds()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn random_events_round_trip_and_append(
            kind in 0..KINDS,
            at in wide(),
            ids in prop::collection::vec(wide(), 8),
            floats in prop::collection::vec(finite(), 3),
            queries in prop::collection::vec(wide(), 0..65),
            pick in 0u64..u64::MAX,
        ) {
            let event = random_event(kind, at, &ids, &floats, queries, pick);
            let line = to_jsonl(&event);
            prop_assert_eq!(parse_line(&line), Ok(event.clone()));
            let prefix = b"{\"earlier\":1}\n";
            let mut buf = prefix.to_vec();
            write_jsonl(&event, &mut buf);
            prop_assert!(buf.starts_with(prefix), "prefix clobbered");
            prop_assert_eq!(&buf[prefix.len()..], line.as_bytes());
        }
    }

    #[test]
    fn every_kind_round_trips() {
        for event in all_kinds().into_iter().chain(edge_cases()) {
            let line = to_jsonl(&event);
            let back = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, event, "{line}");
        }
    }

    #[test]
    fn document_round_trips_with_blank_lines() {
        let events = all_kinds();
        let mut doc = String::new();
        for e in &events {
            doc.push_str(&to_jsonl(e));
            doc.push('\n');
        }
        doc.push('\n'); // trailing blank line is tolerated
        assert_eq!(parse_jsonl(&doc).unwrap(), events);
    }

    #[test]
    fn shrink_float_round_trips_exactly() {
        let event = TraceEvent {
            at: t(1),
            kind: EventKind::PlanApplied {
                changed: 0,
                shrink: 1.0526315789473684,
            },
        };
        assert_eq!(parse_line(&to_jsonl(&event)).unwrap(), event);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let good = to_jsonl(&all_kinds()[0]);
        let doc = format!("{good}\nnot json\n");
        let err = parse_jsonl(&doc).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{}",
            "{\"t\":1}",
            "{\"t\":1,\"ev\":\"nope\"}",
            "{\"t\":1,\"ev\":\"arrived\",\"q\":1}",
            "{\"t\":1,\"ev\":\"arrived\",\"q\":1,\"family\":\"NopeNet\"}",
            "{\"t\":1,\"ev\":\"dropped\",\"q\":1,\"reason\":\"sunspots\"}",
            "{\"t\":1,\"ev\":\"arrived\",\"q\":1,\"family\":\"ResNet\"}x",
        ] {
            assert!(parse_line(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn pre_causal_link_lines_still_parse() {
        // Traces written before `behind`/`epoch` existed must stay readable
        // so `trace-query diff` can align runs across builds.
        let enq = parse_line("{\"t\":1,\"ev\":\"enqueued\",\"q\":7,\"d\":2,\"depth\":1}").unwrap();
        assert_eq!(
            enq.kind,
            EventKind::Enqueued {
                query: 7,
                device: DeviceId(2),
                depth: 1,
                behind: None,
            }
        );
        let served =
            parse_line("{\"t\":2,\"ev\":\"served_on_time\",\"q\":7,\"latency\":5}").unwrap();
        assert_eq!(
            served.kind,
            EventKind::ServedOnTime {
                query: 7,
                latency: SimTime::from_nanos(5),
                epoch: 0,
            }
        );
    }

    /// Each pinned line with each of its keys deleted in turn fails on
    /// exactly that key. The two causal links are the exceptions: a line
    /// without `behind` is an `Enqueued` with none, a line without `epoch`
    /// was served under epoch 0.
    #[test]
    fn every_pinned_key_is_required() {
        let events = all_kinds().into_iter().chain(edge_cases());
        for (event, line) in events.zip(PINNED_LINES.lines()) {
            // Split the object's members at commas outside arrays.
            let body = &line[1..line.len() - 1];
            let mut members = Vec::new();
            let (mut depth, mut start) = (0, 0);
            for (i, b) in body.bytes().enumerate() {
                match b {
                    b'[' => depth += 1,
                    b']' => depth -= 1,
                    b',' if depth == 0 => {
                        members.push(&body[start..i]);
                        start = i + 1;
                    }
                    _ => {}
                }
            }
            members.push(&body[start..]);
            for skip in 0..members.len() {
                let key = members[skip].split(':').next().unwrap().trim_matches('"');
                let kept: Vec<&str> = (0..members.len())
                    .filter(|&i| i != skip)
                    .map(|i| members[i])
                    .collect();
                let cut = format!("{{{}}}", kept.join(","));
                let mut want = event.clone();
                match (&mut want.kind, key) {
                    (EventKind::Enqueued { behind, .. }, "behind") => *behind = None,
                    (
                        EventKind::ServedOnTime { epoch, .. } | EventKind::ServedLate { epoch, .. },
                        "epoch",
                    ) => *epoch = 0,
                    _ => {
                        let err = parse_line(&cut).expect_err(&cut);
                        assert_eq!(err.reason, format!("missing field `{key}`"), "{cut}");
                        continue;
                    }
                }
                assert_eq!(parse_line(&cut), Ok(want), "{cut}");
            }
        }
    }

    #[test]
    fn non_ascii_strings_decode_intact() {
        let mut p = Parser {
            src: "\"café ✓\",\"a\\\"é\\\\ü\\n\\t\"",
            pos: 0,
        };
        assert_eq!(p.string(), Ok(("café ✓", false)));
        p.pos += 1;
        let (raw, escaped) = p.string().unwrap();
        assert!(escaped);
        assert_eq!(unescape(raw), "a\"é\\ü\n\t");
    }

    /// Lines in every corner of the accepted dialect, each with the
    /// canonical line its event encodes back to: reordered keys,
    /// whitespace around every token, unknown keys of every value type
    /// (ignored), duplicate keys (the first wins), escapes, `null` and
    /// absent optional fields, numbers past `u64::MAX`.
    const DIALECT_ACCEPTED: [(&str, &str); 30] = [
        (
            "{\"ev\":\"arrived\",\"family\":\"ResNet\",\"q\":5,\"t\":10}",
            "{\"t\":10,\"ev\":\"arrived\",\"q\":5,\"family\":\"ResNet\"}",
        ),
        (
            "{\"q\":17,\"depth\":4,\"d\":3,\"behind\":8,\"ev\":\"enqueued\",\"t\":3}",
            "{\"t\":3,\"ev\":\"enqueued\",\"q\":17,\"d\":3,\"depth\":4,\"behind\":8}",
        ),
        (
            "{\"until\":120000000,\"size\":3,\"variant\":\"ResNet#2\",\"batch\":9,\"d\":3,\"ev\":\"exec_started\",\"t\":7}",
            "{\"t\":7,\"ev\":\"exec_started\",\"d\":3,\"batch\":9,\"variant\":\"ResNet#2\",\"size\":3,\"until\":120000000}",
        ),
        (
            "  { \"t\" : 10 ,\t\"ev\":\t\"routed\" , \"q\" :5,\"d\":\t3 }\t ",
            "{\"t\":10,\"ev\":\"routed\",\"q\":5,\"d\":3}",
        ),
        (
            "{\t\"t\"\t:\t1\t,\t\"ev\"\t:\t\"batch_formed\"\t,\t\"d\"\t:\t0\t,\t\"batch\"\t:\t2\t,\t\"queries\"\t:\t[ 1 ,\t2 , 3 ]\t}",
            "{\"t\":1,\"ev\":\"batch_formed\",\"d\":0,\"batch\":2,\"queries\":[1,2,3]}",
        ),
        (
            "{\"t\":1,\"ev\":\"batch_formed\",\"d\":0,\"batch\":2,\"queries\":[ ]}\r",
            "{\"t\":1,\"ev\":\"batch_formed\",\"d\":0,\"batch\":2,\"queries\":[]}",
        ),
        (
            "\r\n{\"t\":1,\"ev\":\"worker_crashed\",\"d\":0}\n",
            "{\"t\":1,\"ev\":\"worker_crashed\",\"d\":0}",
        ),
        (
            "{\"t\":1,\"x\":\"s\",\"ev\":\"exec_completed\",\"y\":12,\"z\":-1.5e3,\"n\":null,\"a\":[1,2, 3],\"e\":[],\"d\":2,\"batch\":7,\"big\":18446744073709551616,\"f\":.5,\"g\":+1,\"h\":1E+2}",
            "{\"t\":1,\"ev\":\"exec_completed\",\"d\":2,\"batch\":7}",
        ),
        (
            "{\"t\":1,\"ev\":\"model_load_finished\",\"d\":1,\"queries\":\"not an array\",\"depth\":\"x\",\"variant\":7}",
            "{\"t\":1,\"ev\":\"model_load_finished\",\"d\":1}",
        ),
        (
            "{\"t\":1,\"ev\":\"routed\",\"q\":5,\"q\":6,\"d\":1,\"d\":\"x\"}",
            "{\"t\":1,\"ev\":\"routed\",\"q\":5,\"d\":1}",
        ),
        (
            "{\"t\":1,\"ev\":\"worker_crashed\",\"ev\":\"nope\",\"d\":0,\"t\":99}",
            "{\"t\":1,\"ev\":\"worker_crashed\",\"d\":0}",
        ),
        (
            "{\"t\":1,\"ev\":\"batch_formed\",\"d\":0,\"batch\":1,\"queries\":[4,5],\"queries\":[6]}",
            "{\"t\":1,\"ev\":\"batch_formed\",\"d\":0,\"batch\":1,\"queries\":[4,5]}",
        ),
        (
            "{\"t\":1,\"ev\":\"worker_recovered\",\"d\":4,\"note\":\"a\\\"b\\\\c\\nd\\te\",\"k\\\"ey\":1,\"uni\":\"café ✓\",\"raw\":\"tab\there\"}",
            "{\"t\":1,\"ev\":\"worker_recovered\",\"d\":4}",
        ),
        (
            "{\"t\":1,\"\\\\\":\"\\\"\",\"ev\":\"worker_recovered\",\"d\":4}",
            "{\"t\":1,\"ev\":\"worker_recovered\",\"d\":4}",
        ),
        (
            "{\"t\":1,\"ev\":\"enqueued\",\"q\":7,\"d\":2,\"depth\":1,\"behind\":null}",
            "{\"t\":1,\"ev\":\"enqueued\",\"q\":7,\"d\":2,\"depth\":1}",
        ),
        (
            "{\"t\":1,\"ev\":\"enqueued\",\"q\":7,\"d\":2,\"depth\":1}",
            "{\"t\":1,\"ev\":\"enqueued\",\"q\":7,\"d\":2,\"depth\":1}",
        ),
        (
            "{\"t\":2,\"ev\":\"served_on_time\",\"q\":7,\"latency\":5,\"epoch\":null}",
            "{\"t\":2,\"ev\":\"served_on_time\",\"q\":7,\"latency\":5,\"epoch\":0}",
        ),
        (
            "{\"t\":2,\"ev\":\"served_late\",\"q\":7,\"latency\":5}",
            "{\"t\":2,\"ev\":\"served_late\",\"q\":7,\"latency\":5,\"epoch\":0}",
        ),
        (
            "{\"t\":2,\"ev\":\"model_load_started\",\"d\":3,\"variant\":null,\"until\":9}",
            "{\"t\":2,\"ev\":\"model_load_started\",\"d\":3,\"variant\":null,\"until\":9}",
        ),
        (
            "{\"t\":2,\"ev\":\"load_failed\",\"d\":3,\"variant\":null,\"attempt\":2}",
            "{\"t\":2,\"ev\":\"load_failed\",\"d\":3,\"variant\":null,\"attempt\":2}",
        ),
        (
            "{\"t\":2,\"ev\":\"alert_fired\",\"scope\":null,\"severity\":\"page\",\"burn\":14,\"long_s\":300,\"short_s\":60}",
            "{\"t\":2,\"ev\":\"alert_fired\",\"scope\":null,\"severity\":\"page\",\"burn\":14,\"long_s\":300,\"short_s\":60}",
        ),
        (
            "{\"t\":2,\"ev\":\"alert_resolved\",\"scope\":\"ResNet\",\"severity\":\"ticket\",\"burn\":0.25,\"long_s\":3600.0,\"short_s\":3e2}",
            "{\"t\":2,\"ev\":\"alert_resolved\",\"scope\":\"ResNet\",\"severity\":\"ticket\",\"burn\":0.25,\"long_s\":3600,\"short_s\":300}",
        ),
        (
            "{\"t\":1,\"ev\":\"plan_applied\",\"changed\":3,\"shrink\":100000000000000000000000}",
            "{\"t\":1,\"ev\":\"plan_applied\",\"changed\":3,\"shrink\":100000000000000000000000}",
        ),
        (
            "{\"t\":1,\"ev\":\"plan_applied\",\"changed\":3,\"shrink\":2}",
            "{\"t\":1,\"ev\":\"plan_applied\",\"changed\":3,\"shrink\":2}",
        ),
        (
            "{\"t\":1,\"ev\":\"straggler_started\",\"d\":0,\"slowdown\":+.5}",
            "{\"t\":1,\"ev\":\"straggler_started\",\"d\":0,\"slowdown\":0.5}",
        ),
        (
            "{\"t\":18446744073709551615,\"ev\":\"worker_online\",\"d\":4294967295,\"type\":\"V100\"}",
            "{\"t\":18446744073709551615,\"ev\":\"worker_online\",\"d\":4294967295,\"type\":\"V100\"}",
        ),
        (
            "{\"t\":00012,\"ev\":\"solve_stats\",\"nodes\":0,\"pivots\":007,\"warm\":1,\"wall\":18446744073709551615}",
            "{\"t\":12,\"ev\":\"solve_stats\",\"nodes\":0,\"pivots\":7,\"warm\":1,\"wall\":18446744073709551615}",
        ),
        (
            "{\"t\":1,\"ev\":\"arrived\",\"q\":1,\"family\":\"RESNET\"}",
            "{\"t\":1,\"ev\":\"arrived\",\"q\":1,\"family\":\"ResNet\"}",
        ),
        (
            "{\"t\":1,\"ev\":\"solve_started\",\"cause\":\"periodic\",\"until\":4}",
            "{\"t\":1,\"ev\":\"solve_started\",\"cause\":\"periodic\",\"until\":4}",
        ),
        (
            "{\"t\":1,\"ev\":\"plan_discarded\",\"cause\":\"burst\",\"reason\":\"liveness\"}",
            "{\"t\":1,\"ev\":\"plan_discarded\",\"cause\":\"burst\",\"reason\":\"liveness\"}",
        ),
    ];

    /// Lines the reader must reject.
    const DIALECT_REJECTED: [&str; 58] = [
        "{\"t\":1,\"ev\":\"model_load_started\",\"d\":0,\"until\":5}",
        "{\"t\":1,\"ev\":\"load_failed\",\"d\":0,\"attempt\":1}",
        "{\"t\":1,\"ev\":\"alert_fired\",\"severity\":\"page\",\"burn\":1,\"long_s\":1,\"short_s\":1}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":1.0,\"d\":1}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":-1,\"d\":1}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":\"1\",\"d\":1}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":null,\"d\":1}",
        "{\"t\":18446744073709551616,\"ev\":\"routed\",\"q\":1,\"d\":1}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":1,\"d\":1,\"x\":true}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":1,\"d\":1,\"x\":false}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":1,\"d\":1,\"x\":{}}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":1,\"d\":1,\"x\":[1.5]}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":1,\"d\":1,\"x\":[-1]}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":1,\"d\":1,\"x\":[\"a\"]}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":1,\"d\":1,\"x\":\"\\u0041\"}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":1,\"d\":1,\"x\":\"abc}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":1,\"d\":1,}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":1,\"d\":1}}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":1,\"d\":1",
        "{\"t\":1 \"ev\":\"routed\",\"q\":1,\"d\":1}",
        "{t:1,\"ev\":\"routed\",\"q\":1,\"d\":1}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":1,\"d\":1,\"x\":nul}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":1,\"d\":1,\"x\":}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":1,\"d\":1,\"x\"}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":1,\"d\":1,,\"x\":1}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":1,\"d\":1} x",
        "{\"t\":1,\"ev\":\"routed\",\"q\":1,\"d\":1}{}",
        "[1]",
        "\"t\"",
        " ",
        "{\"t\":1,\"ev\":\"batch_formed\",\"d\":0,\"batch\":1,\"queries\":[1,,2]}",
        "{\"t\":1,\"ev\":\"batch_formed\",\"d\":0,\"batch\":1,\"queries\":[1,2}",
        "{\"t\":1,\"ev\":\"batch_formed\",\"d\":0,\"batch\":1,\"queries\":[1 2]}",
        "{\"t\":1,\"ev\":\"batch_formed\",\"d\":0,\"batch\":1,\"queries\":[,]}",
        "{\"t\":1,\"ev\":\"batch_formed\",\"d\":0,\"batch\":1,\"queries\":5}",
        "{\"t\":1,\"ev\":\"batch_formed\",\"d\":0,\"batch\":1,\"queries\":null}",
        "{\"t\":1,\"ev\":\"batch_formed\",\"d\":0,\"batch\":1,\"queries\":[18446744073709551616]}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":\"x\",\"q\":1,\"d\":1}",
        "{\"t\":1,\"ev\":\"plan_applied\",\"changed\":0,\"shrink\":\"1\"}",
        "{\"t\":1,\"ev\":\"plan_applied\",\"changed\":0,\"shrink\":1e}",
        "{\"t\":1,\"ev\":\"plan_applied\",\"changed\":0,\"shrink\":1.2.3}",
        "{\"t\":1,\"ev\":\"plan_applied\",\"changed\":0,\"shrink\":null}",
        "{\"t\":1,\"ev\":\"plan_applied\",\"changed\":0,\"shrink\":-}",
        "{\"t\":1,\"ev\":\"plan_applied\",\"changed\":0,\"shrink\":1-2}",
        "{\"t\":1,\"ev\":\"exec_started\",\"d\":0,\"batch\":1,\"variant\":\"ResNet\",\"size\":1,\"until\":2}",
        "{\"t\":1,\"ev\":\"exec_started\",\"d\":0,\"batch\":1,\"variant\":\"ResNet#256\",\"size\":1,\"until\":2}",
        "{\"t\":1,\"ev\":\"exec_started\",\"d\":0,\"batch\":1,\"variant\":null,\"size\":1,\"until\":2}",
        "{\"t\":1,\"ev\":\"worker_online\",\"d\":0,\"type\":\"TPU\"}",
        "{\"t\":1,\"ev\":\"enqueued\",\"q\":1,\"d\":1,\"depth\":1,\"behind\":\"x\"}",
        "{\"t\":1,\"ev\":\"served_on_time\",\"q\":1,\"latency\":1,\"epoch\":1.5}",
        "{\"t\":1,\"ev\":\"model_load_started\",\"d\":0,\"variant\":5,\"until\":5}",
        "{\"t\":1,\"ev\":\"alert_fired\",\"scope\":\"NopeNet\",\"severity\":\"page\",\"burn\":1,\"long_s\":1,\"short_s\":1}",
        "{\"t\":1,\"ev\":\"alert_fired\",\"scope\":null,\"severity\":\"sev0\",\"burn\":1,\"long_s\":1,\"short_s\":1}",
        "{\"t\":1,\"ev\":\"solve_started\",\"cause\":\"whim\",\"until\":4}",
        "{\"t\":1,\"ev\":\"plan_discarded\",\"cause\":\"burst\",\"reason\":\"boredom\"}",
        "{\"t\":1,\"ev\":\"ROUTED\",\"q\":1,\"d\":1}",
        "{\"t\":1,\"ev\":\"routed\",\"q\":1,\"d\":1}x",
        "\u{feff}{\"t\":1,\"ev\":\"worker_crashed\",\"d\":0}",
    ];

    #[test]
    fn dialect_lines_parse_to_their_pinned_events() {
        for (line, want) in DIALECT_ACCEPTED {
            let event = parse_line(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            assert_eq!(to_jsonl(&event), want, "{line:?}");
        }
    }

    #[test]
    fn dialect_violations_are_rejected() {
        for line in DIALECT_REJECTED {
            assert!(parse_line(line).is_err(), "{line:?} should fail");
        }
    }

    #[test]
    fn u32_fields_past_u32_max_are_rejected() {
        let out_of_range = [
            ("d", r#"{"t":1,"ev":"routed","q":1,"d":4294967296}"#),
            (
                "depth",
                r#"{"t":1,"ev":"enqueued","q":1,"d":0,"depth":4294967297}"#,
            ),
            (
                "size",
                r#"{"t":1,"ev":"exec_started","d":0,"batch":1,"variant":"ResNet#0","size":4294967296,"until":2}"#,
            ),
            (
                "changed",
                r#"{"t":1,"ev":"plan_applied","changed":18446744073709551615,"shrink":1}"#,
            ),
            (
                "violations",
                r#"{"t":1,"ev":"audit_report","violations":4294967296,"devices":0,"families":0}"#,
            ),
            (
                "devices",
                r#"{"t":1,"ev":"audit_report","violations":0,"devices":4294967296,"families":0}"#,
            ),
            (
                "families",
                r#"{"t":1,"ev":"audit_report","violations":0,"devices":0,"families":4294967296}"#,
            ),
            (
                "from",
                r#"{"t":1,"ev":"query_retried","q":1,"from":4294967296,"attempt":1}"#,
            ),
            (
                "attempt",
                r#"{"t":1,"ev":"query_retried","q":1,"from":0,"attempt":4294967296}"#,
            ),
            (
                "attempt",
                r#"{"t":1,"ev":"load_failed","d":0,"variant":null,"attempt":4294967296}"#,
            ),
        ];
        for (field, line) in out_of_range {
            let err = parse_line(line).expect_err(line);
            assert!(
                err.reason.contains(&format!("`{field}` is out of range")),
                "{line}: {err}"
            );
            // At `u32::MAX` the same line parses.
            let at_max = line
                .replace("18446744073709551615", "4294967295")
                .replace("4294967296", "4294967295")
                .replace("4294967297", "4294967295");
            assert!(parse_line(&at_max).is_ok(), "{at_max}");
        }
    }

    /// Bytes the reader branches on, to make arbitrary input reach past
    /// the first token.
    const TOKENS: &[u8] = b"{}[]\":,\\ \t\r\n0123456789.-+eEnul#tv";

    /// Any byte half the time, a structural byte otherwise.
    fn hostile_byte() -> impl Strategy<Value = u8> {
        (0u8..2, 0u16..256, 0..TOKENS.len()).prop_map(|(pick, any, token)| {
            if pick == 0 {
                any.to_le_bytes()[0]
            } else {
                TOKENS[token]
            }
        })
    }

    /// Feeds `bytes`, decoded lossily, to both entry points: they may
    /// reject it but must not panic.
    fn parse_hostile(bytes: &[u8]) {
        let text = String::from_utf8_lossy(bytes);
        if let Ok(event) = parse_line(&text) {
            let _ = to_jsonl(&event);
        }
        let _ = parse_jsonl(&text);
        let _ = parse_jsonl(&format!("{}\n{text}\n", to_jsonl(&all_kinds()[0])));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in prop::collection::vec(hostile_byte(), 0..160),
        ) {
            parse_hostile(&bytes);
        }

        #[test]
        fn single_byte_mutations_never_panic(
            kind in 0..KINDS,
            ids in prop::collection::vec(wide(), 8),
            floats in prop::collection::vec(finite(), 3),
            queries in prop::collection::vec(wide(), 0..9),
            pick in 0u64..u64::MAX,
            at in 0usize..usize::MAX,
            byte in hostile_byte(),
        ) {
            let event = random_event(kind, ids[0], &ids, &floats, queries, pick);
            let mut line = to_jsonl(&event).into_bytes();
            let at = at % line.len();
            line[at] = byte;
            parse_hostile(&line);
        }

        #[test]
        fn truncations_never_panic(
            kind in 0..KINDS,
            ids in prop::collection::vec(wide(), 8),
            floats in prop::collection::vec(finite(), 3),
            queries in prop::collection::vec(wide(), 0..9),
            pick in 0u64..u64::MAX,
        ) {
            let event = random_event(kind, ids[0], &ids, &floats, queries, pick);
            let line = to_jsonl(&event).into_bytes();
            for cut in 0..line.len() {
                prop_assert!(parse_line(&String::from_utf8_lossy(&line[..cut])).is_err());
                parse_hostile(&line[..cut]);
            }
        }
    }

    #[test]
    fn integer_timestamps_survive_beyond_f64_precision() {
        let nanos = (1u64 << 53) + 1; // not representable as f64
        let event = TraceEvent {
            at: SimTime::from_nanos(nanos),
            kind: EventKind::ModelLoadFinished {
                device: DeviceId(0),
            },
        };
        let back = parse_line(&to_jsonl(&event)).unwrap();
        assert_eq!(back.at.as_nanos(), nanos);
    }

    /// `parse_jsonl` as it was before the positional path: every line cut
    /// by `str::lines`, blank ones skipped, the rest read by the keyed scan.
    fn parse_jsonl_keyed(text: &str) -> Result<Vec<TraceEvent>, ParseEventError> {
        text.lines()
            .enumerate()
            .filter(|(_, line)| !line.trim().is_empty())
            .map(|(idx, line)| {
                parse_keyed(line).map_err(|mut e| {
                    e.line = idx + 1;
                    e
                })
            })
            .collect()
    }

    /// Positional-first parsing reads `text` exactly as the keyed scan
    /// alone does, as a line and inside documents: the same events, or an
    /// error with the same reason and line.
    fn assert_paths_agree(text: &str) {
        assert_eq!(parse_line(text), parse_keyed(text), "{text:?}");
        let good = to_jsonl(&all_kinds()[0]);
        for doc in [
            text.to_string(),
            format!("{good}\n{text}\n{good}"),
            format!("{text}\n{text}\n"),
        ] {
            assert_eq!(parse_jsonl(&doc), parse_jsonl_keyed(&doc), "{doc:?}");
        }
    }

    /// The members of a pinned line's object, split at commas outside
    /// arrays.
    fn members(line: &str) -> Vec<&str> {
        let body = &line[1..line.len() - 1];
        let mut members = Vec::new();
        let (mut depth, mut start) = (0, 0);
        for (i, b) in body.bytes().enumerate() {
            match b {
                b'[' => depth += 1,
                b']' => depth -= 1,
                b',' if depth == 0 => {
                    members.push(&body[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        members.push(&body[start..]);
        members
    }

    #[test]
    fn paths_agree_on_the_dialect_lists() {
        for (line, want) in DIALECT_ACCEPTED {
            assert_paths_agree(line);
            assert_paths_agree(want);
        }
        for line in DIALECT_REJECTED {
            assert_paths_agree(line);
        }
    }

    #[test]
    fn paths_agree_on_pinned_lines_and_their_deleted_keys() {
        for line in PINNED_LINES.lines() {
            assert_paths_agree(line);
            let members = members(line);
            for skip in 0..members.len() {
                let kept: Vec<&str> = (0..members.len())
                    .filter(|&i| i != skip)
                    .map(|i| members[i])
                    .collect();
                assert_paths_agree(&format!("{{{}}}", kept.join(",")));
            }
        }
    }

    #[test]
    fn documents_are_cut_into_lines_as_str_lines_cuts_them() {
        let good = to_jsonl(&all_kinds()[1]);
        let split_array =
            "{\"t\":1,\"ev\":\"batch_formed\",\"d\":0,\"batch\":1,\"queries\":[1,\n2]}";
        for doc in [
            format!("{good}\r\n{good}\r\n"),
            format!("{good}\r"),
            format!("\n \t\n{good}\n\r\n\n"),
            format!("{good}\n{good}"),
            format!("{good}{good}\n"),
            format!("{good} \n"),
            format!("{good}\n{split_array}\n"),
            format!("{good}\n{{\"t\":1,\"ev\":\"arrived\",\"q\":1,\"family\":\"Res\nNet\"}}"),
        ] {
            assert_eq!(parse_jsonl(&doc), parse_jsonl_keyed(&doc), "{doc:?}");
        }
        let err = parse_jsonl(&format!("{good}\n\n{split_array}")).unwrap_err();
        assert_eq!(err.line, 3);
    }

    /// The encoder's own lines take the positional path, never the
    /// fallback: every pinned line, and every line of the committed golden
    /// and smoke traces, is read positionally and re-encodes byte for byte.
    /// Without this, an encoder change could send lines to the keyed scan
    /// with no other test failing.
    #[test]
    fn encoder_lines_take_the_positional_path() {
        let golden = include_str!("../../core/tests/golden/tiny_trace.jsonl");
        let smoke = include_str!("../../../baselines/smoke_trace.jsonl");
        let mut kinds = std::collections::BTreeSet::new();
        for line in PINNED_LINES
            .lines()
            .chain(golden.lines())
            .chain(smoke.lines())
        {
            let event = parse_positional(line).unwrap_or_else(|| panic!("fell back: {line}"));
            assert_eq!(to_jsonl(&event), line);
            kinds.insert(event.kind.name());
        }
        assert_eq!(kinds.len(), usize::from(KINDS), "every kind is read");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn random_events_take_the_positional_path(
            kind in 0..KINDS,
            at in wide(),
            ids in prop::collection::vec(wide(), 8),
            floats in prop::collection::vec(finite(), 3),
            queries in prop::collection::vec(wide(), 0..65),
            pick in 0u64..u64::MAX,
        ) {
            let event = random_event(kind, at, &ids, &floats, queries, pick);
            let line = to_jsonl(&event);
            prop_assert_eq!(parse_positional(&line), Some(event));
            assert_paths_agree(&line);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn paths_agree_on_arbitrary_bytes(
            bytes in prop::collection::vec(hostile_byte(), 0..160),
        ) {
            assert_paths_agree(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn paths_agree_on_single_byte_mutations(
            kind in 0..KINDS,
            ids in prop::collection::vec(wide(), 8),
            floats in prop::collection::vec(finite(), 3),
            queries in prop::collection::vec(wide(), 0..9),
            pick in 0u64..u64::MAX,
            at in 0usize..usize::MAX,
            byte in hostile_byte(),
        ) {
            let event = random_event(kind, ids[0], &ids, &floats, queries, pick);
            let mut line = to_jsonl(&event).into_bytes();
            let at = at % line.len();
            line[at] = byte;
            assert_paths_agree(&String::from_utf8_lossy(&line));
        }

        #[test]
        fn paths_agree_on_truncations(
            kind in 0..KINDS,
            ids in prop::collection::vec(wide(), 8),
            floats in prop::collection::vec(finite(), 3),
            queries in prop::collection::vec(wide(), 0..9),
            pick in 0u64..u64::MAX,
        ) {
            let event = random_event(kind, ids[0], &ids, &floats, queries, pick);
            let line = to_jsonl(&event).into_bytes();
            for cut in 0..line.len() {
                assert_paths_agree(&String::from_utf8_lossy(&line[..cut]));
            }
        }
    }
}

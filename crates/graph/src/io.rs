//! Trace serialization: a line-oriented text format for temporal graphs.
//!
//! The format mirrors how the paper's datasets ship (edge lists with
//! timestamps), with an explicit node-arrival section so traces round-trip
//! exactly:
//!
//! ```text
//! # linklens-trace v1
//! n <node_count>
//! a <node_id> <arrival_ts>     (one per node, ascending id)
//! e <u> <v> <ts>               (one per edge, chronological)
//! ```
//!
//! Blank (or whitespace-only) lines and `#` comments are ignored, and CRLF
//! line endings are tolerated. Edges may come out of time order, and
//! duplicates are dropped. [`read_trace`] rejects, naming the line, a
//! regressing arrival, a node id beyond `u32`, a self loop, an edge whose
//! endpoint has no earlier arrival record, and an edge before an
//! endpoint's arrival. Real-world edge lists without arrival records load
//! via [`read_edge_list`], which infers arrivals as first appearance.
//!
//! For repeated runs over the same trace, a versioned, checksummed binary
//! cache skips text parsing entirely (see `DESIGN.md` §16 for the
//! sectioned layout). [`write_cache_file`] writes an in-core trace to a
//! path, and [`read_cache_file`] / [`read_cache`] read one back in core.
//! Large traces stream through [`CacheStreamWriter`] / [`CacheFileWriter`]
//! on the way out and [`SectionedCacheReader`] (behind the [`TraceReader`]
//! trait) on the way in, so neither side ever holds the full edge list in
//! memory.
//!
//! Unlike the text format, a cache never holds a pair twice. The writer
//! does not check this, since that would take a set of every pair written;
//! the readers reject a cache that breaks it, naming the pair.
//! [`read_cache`] does so while it builds the trace, and a
//! [`SectionedCacheReader`] sweep does so in the CSR merge of
//! [`crate::stream::StreamingSnapshotBuilder::advance_to`], where the two
//! copies meet as equal neighbours. Opening a [`SectionedCacheReader`]
//! stays O(1) per event and does not look for repeats.

use crate::temporal::{TemporalGraph, TimedEdge};
use crate::{NodeId, Timestamp};
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};

/// Errors from trace parsing.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the file, with line number and message.
    Parse(usize, String),
    /// Binary cache rejected: wrong magic/version, truncation, or checksum
    /// mismatch. Callers should fall back to the text source and rewrite
    /// the cache.
    Cache(String),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "I/O error: {e}"),
            TraceIoError::Parse(line, msg) => write!(f, "parse error at line {line}: {msg}"),
            TraceIoError::Cache(msg) => write!(f, "trace cache rejected: {msg}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Writes a trace in the v1 format.
pub fn write_trace<W: Write>(trace: &TemporalGraph, writer: W) -> Result<(), TraceIoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# linklens-trace v1")?;
    writeln!(w, "n {}", trace.node_count())?;
    for (id, &t) in trace.arrivals().iter().enumerate() {
        writeln!(w, "a {id} {t}")?;
    }
    for e in trace.edges() {
        writeln!(w, "e {} {} {}", e.u, e.v, e.t)?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a trace in the v1 format.
pub fn read_trace<R: Read>(reader: R) -> Result<TemporalGraph, TraceIoError> {
    let r = BufReader::new(reader);
    let mut declared_nodes: Option<usize> = None;
    let mut arrivals: Vec<Timestamp> = Vec::new();
    let mut edges: Vec<(NodeId, NodeId, Timestamp)> = Vec::new();

    for (lineno, line) in r.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line?;
        // `trim` strips CR from CRLF endings and reduces whitespace-only
        // lines to empty ones, which are skipped like blank lines.
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let Some(tag) = parts.next() else {
            continue; // unreachable after the trim, but never panic on input
        };
        let mut field = |name: &str| -> Result<u64, TraceIoError> {
            let token = parts
                .next()
                .ok_or_else(|| TraceIoError::Parse(lineno, format!("missing {name}")))?;
            token.parse().map_err(|_| TraceIoError::Parse(lineno, format!("bad {name} '{token}'")))
        };
        match tag {
            "n" => declared_nodes = Some(field("node count")? as usize),
            "a" => {
                let id = field("node id")? as usize;
                let t = field("arrival time")?;
                if id != arrivals.len() {
                    return Err(TraceIoError::Parse(
                        lineno,
                        format!(
                            "arrival ids must be dense and ascending (got {id}, expected {})",
                            arrivals.len()
                        ),
                    ));
                }
                if arrivals.last().is_some_and(|&last| t < last) {
                    return Err(TraceIoError::Parse(
                        lineno,
                        format!("arrival {t} precedes the previous node's arrival"),
                    ));
                }
                arrivals.push(t);
            }
            "e" => {
                let mut node = |name: &str| -> Result<NodeId, TraceIoError> {
                    let x = field(name)?;
                    NodeId::try_from(x).map_err(|_| {
                        TraceIoError::Parse(lineno, format!("{name} {x} is not a node id"))
                    })
                };
                let u = node("u")?;
                let v = node("v")?;
                let t = field("t")?;
                if let Some(msg) = edge_error(&arrivals, u, v, t) {
                    return Err(TraceIoError::Parse(lineno, msg));
                }
                edges.push((u, v, t));
            }
            other => return Err(TraceIoError::Parse(lineno, format!("unknown record '{other}'"))),
        }
        if let Some(extra) = parts.next() {
            return Err(TraceIoError::Parse(
                lineno,
                format!("unexpected trailing token '{extra}'"),
            ));
        }
    }
    if let Some(n) = declared_nodes {
        if n != arrivals.len() {
            return Err(TraceIoError::Parse(
                0,
                format!("declared {n} nodes but listed {}", arrivals.len()),
            ));
        }
    }
    Ok(TemporalGraph::from_events(arrivals, edges))
}

/// Why the v1 edge record `e u v t` is invalid after the arrival records
/// read so far, if it is: a self loop, an endpoint without an arrival
/// record, or an edge before an endpoint's arrival.
fn edge_error(arrivals: &[Timestamp], u: NodeId, v: NodeId, t: Timestamp) -> Option<String> {
    if u == v {
        return Some(format!("self loop on node {u}"));
    }
    [u, v].into_iter().find_map(|x| match arrivals.get(x as usize) {
        None => Some(format!("node {x} has no arrival record before this edge")),
        Some(&a) if t < a => Some(format!("edge at {t} precedes node {x}'s arrival at {a}")),
        Some(_) => None,
    })
}

/// Reads a bare `u v ts` edge list (whitespace separated, `#` comments),
/// remapping node labels to dense ids in order of first appearance and
/// inferring arrivals as first appearance. This is the format most public
/// OSN traces (including the paper's Facebook dataset) ship in.
///
/// Blank and whitespace-only lines are skipped, CRLF endings are
/// tolerated, and trailing extra columns (weights, flags) are ignored —
/// public edge lists are messy.
// linklens-deterministic: the label→id relabeling decides every node id downstream
pub fn read_edge_list<R: Read>(reader: R) -> Result<TemporalGraph, TraceIoError> {
    let r = BufReader::new(reader);
    let mut raw: Vec<(u64, u64, Timestamp)> = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let mut field = |name: &str| -> Result<u64, TraceIoError> {
            let token = parts
                .next()
                .ok_or_else(|| TraceIoError::Parse(lineno, format!("missing {name}")))?;
            token.parse().map_err(|_| TraceIoError::Parse(lineno, format!("bad {name} '{token}'")))
        };
        let u = field("u")?;
        let v = field("v")?;
        let t = field("timestamp")?;
        raw.push((u, v, t));
    }
    raw.sort_by_key(|&(_, _, t)| t);
    // Dense relabeling by first appearance (which, post-sort, is also
    // arrival order — satisfying the TemporalGraph invariant). The map is
    // only ever *looked up*, never iterated, but it is a BTreeMap anyway:
    // node ids assigned here flow into every downstream artifact, and an
    // ordered structure makes it impossible for a future refactor that
    // iterates it to introduce per-process order.
    let mut ids: std::collections::BTreeMap<u64, NodeId> = std::collections::BTreeMap::new();
    let mut arrivals: Vec<Timestamp> = Vec::new();
    let mut edges: Vec<(NodeId, NodeId, Timestamp)> = Vec::with_capacity(raw.len());
    for (u, v, t) in raw {
        let mut id_of = |label: u64, arrivals: &mut Vec<Timestamp>| {
            *ids.entry(label).or_insert_with(|| {
                arrivals.push(t);
                (arrivals.len() - 1) as NodeId
            })
        };
        let ui = id_of(u, &mut arrivals);
        let vi = id_of(v, &mut arrivals);
        if ui != vi {
            edges.push((ui, vi, t));
        }
    }
    Ok(TemporalGraph::from_events(arrivals, edges))
}

// ----- binary trace cache -------------------------------------------------

/// Magic prefix of the binary cache format.
const CACHE_MAGIC: [u8; 4] = *b"LLTC";
/// Current cache format version. Bump on any layout change; readers reject
/// other versions so stale caches fall back to the text source.
pub const CACHE_VERSION: u32 = 2;

/// Section kind tag: node-arrival timestamps (`u64` × count).
const SECTION_ARRIVALS: u8 = 0;
/// Section kind tag: timed edges (`u32 u | u32 v | u64 t` × count).
const SECTION_EDGES: u8 = 1;
/// Kind tag terminating the section stream (footer record).
const SECTION_FOOTER: u8 = 0xFF;

/// Default flush threshold for a section payload, in bytes. One MiB keeps
/// the writer's working set bounded while making the 17-byte per-section
/// framing overhead negligible.
const DEFAULT_SECTION_BYTES: usize = 1 << 20;

/// Fixed chunk size for streaming section payloads through checksums and
/// parsers without count-sized allocations. A multiple of both entry widths
/// (8 and 16 bytes), so entries never straddle a chunk boundary.
const READ_CHUNK: usize = 1 << 16;

/// Incremental FNV-1a 64-bit hash — the cache integrity checksum.
/// Dependency-free and plenty for detecting truncation and bit rot (this is
/// not a security boundary; caches live next to the files they mirror).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Names a section kind for error messages.
fn section_name(kind: u8) -> &'static str {
    match kind {
        SECTION_ARRIVALS => "arrivals",
        SECTION_EDGES => "edges",
        _ => "unknown",
    }
}

/// `read_exact` that maps a clean EOF onto a structured cache error, so
/// truncation reports *which* record was cut short instead of a bare I/O
/// error.
fn read_exact_or<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    msg: impl FnOnce() -> String,
) -> Result<(), TraceIoError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceIoError::Cache(msg())
        } else {
            TraceIoError::Io(e)
        }
    })
}

/// Totals reported by [`CacheStreamWriter::finish`] and the cache scanners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSummary {
    /// Nodes written/read.
    pub nodes: usize,
    /// Edges written/read.
    pub edges: usize,
    /// Data sections written/read (excluding the footer).
    pub sections: usize,
}

/// Streaming writer for the v2 sectioned cache format:
///
/// ```text
/// magic "LLTC" | version u32 (=2)
/// section*:  kind u8 (0 arrivals | 1 edges) | count u64 | payload
///            | fnv1a64 over (kind, count, payload)
/// footer:    kind 0xFF | node_count u64 | edge_count u64 | section_count u64
///            | fnv1a64 over (kind, totals)
/// ```
///
/// All integers little-endian; arrival entries are 8 bytes, edge entries 16.
/// Events are pushed one at a time and buffered into bounded sections, so a
/// multi-gigabyte trace serializes without ever materializing its edge
/// list. A section is flushed when its payload reaches the size threshold
/// or when the event kind switches — a day-bucketed generator that
/// interleaves arrival and edge runs therefore produces per-day-range
/// sections, which is what makes windowed reads line up with sweep deltas.
///
/// The writer rejects regressing arrival and edge times, self loops and
/// endpoint ids not yet pushed, and canonicalizes endpoints. It keeps no
/// arrival times, so it does not check that an edge's endpoints arrived by
/// its time; the readers reject such an edge.
/// [`CacheStreamWriter::finish`] writes the footer.
/// Dropping the writer without finishing leaves a footer-less stream that
/// readers reject, and the file-backed [`CacheFileWriter`] only renames the
/// temporary onto the real path in its own `finish`.
pub struct CacheStreamWriter<W: Write> {
    w: W,
    kind: u8,
    count: u64,
    payload: Vec<u8>,
    section_bytes: usize,
    nodes: u64,
    edges: u64,
    sections: u64,
    last_arrival: Timestamp,
    last_edge_t: Timestamp,
}

impl<W: Write> CacheStreamWriter<W> {
    /// Starts a cache stream with the default section threshold, writing
    /// the header immediately.
    pub fn new(writer: W) -> Result<Self, TraceIoError> {
        Self::with_section_bytes(writer, DEFAULT_SECTION_BYTES)
    }

    /// Starts a cache stream with an explicit section payload threshold
    /// (bytes). Small thresholds are useful in tests to force many
    /// sections; the format is identical for every threshold.
    pub fn with_section_bytes(mut writer: W, section_bytes: usize) -> Result<Self, TraceIoError> {
        assert!(section_bytes >= 16, "section threshold must hold at least one event");
        writer.write_all(&CACHE_MAGIC)?;
        writer.write_all(&CACHE_VERSION.to_le_bytes())?;
        Ok(Self {
            w: writer,
            kind: SECTION_ARRIVALS,
            count: 0,
            payload: Vec::new(),
            section_bytes,
            nodes: 0,
            edges: 0,
            sections: 0,
            last_arrival: 0,
            last_edge_t: 0,
        })
    }

    /// Appends a node arrival and returns the id assigned to it (dense,
    /// in push order). Arrival times must be non-decreasing.
    pub fn push_arrival(&mut self, t: Timestamp) -> Result<NodeId, TraceIoError> {
        if self.nodes > 0 && t < self.last_arrival {
            return Err(TraceIoError::Cache(format!(
                "arrival time {t} regresses below {}",
                self.last_arrival
            )));
        }
        if self.nodes > u64::from(NodeId::MAX) {
            return Err(TraceIoError::Cache("node count exceeds u32 id space".into()));
        }
        self.begin(SECTION_ARRIVALS)?;
        self.payload.extend_from_slice(&t.to_le_bytes());
        self.count += 1;
        self.last_arrival = t;
        let id = self.nodes as NodeId;
        self.nodes += 1;
        Ok(id)
    }

    /// Appends an edge (endpoints canonicalized). Edge times must be
    /// non-decreasing and both endpoint ids must already have been pushed.
    ///
    /// The pair must also be new, but the writer does not check that:
    /// doing so would take a set of every pair written, tens of MiB at a
    /// million edges. Both readers reject a cache that holds a pair twice
    /// (see the module docs).
    pub fn push_edge(&mut self, u: NodeId, v: NodeId, t: Timestamp) -> Result<(), TraceIoError> {
        if u == v {
            return Err(TraceIoError::Cache(format!("self loop on node {u}")));
        }
        if u64::from(u.max(v)) >= self.nodes {
            return Err(TraceIoError::Cache(format!(
                "edge ({u}, {v}) references a node not yet arrived (node count {})",
                self.nodes
            )));
        }
        if self.edges > 0 && t < self.last_edge_t {
            return Err(TraceIoError::Cache(format!(
                "edge time {t} regresses below {}",
                self.last_edge_t
            )));
        }
        let (u, v) = crate::canonical(u, v);
        self.begin(SECTION_EDGES)?;
        self.payload.extend_from_slice(&u.to_le_bytes());
        self.payload.extend_from_slice(&v.to_le_bytes());
        self.payload.extend_from_slice(&t.to_le_bytes());
        self.count += 1;
        self.edges += 1;
        self.last_edge_t = t;
        Ok(())
    }

    /// Flushes the pending section if the kind switches or the payload is
    /// past the threshold, then switches to `kind`.
    fn begin(&mut self, kind: u8) -> Result<(), TraceIoError> {
        if self.count > 0 && (self.kind != kind || self.payload.len() >= self.section_bytes) {
            self.flush_section()?;
        }
        self.kind = kind;
        Ok(())
    }

    fn flush_section(&mut self) -> Result<(), TraceIoError> {
        if self.count == 0 {
            return Ok(());
        }
        let mut h = Fnv1a::new();
        h.update(&[self.kind]);
        h.update(&self.count.to_le_bytes());
        h.update(&self.payload);
        self.w.write_all(&[self.kind])?;
        self.w.write_all(&self.count.to_le_bytes())?;
        self.w.write_all(&self.payload)?;
        self.w.write_all(&h.finish().to_le_bytes())?;
        self.sections += 1;
        self.payload.clear();
        self.count = 0;
        Ok(())
    }

    /// Flushes the last section, writes the footer, and returns the inner
    /// writer plus the totals.
    pub fn finish(mut self) -> Result<(W, CacheSummary), TraceIoError> {
        self.flush_section()?;
        let mut h = Fnv1a::new();
        h.update(&[SECTION_FOOTER]);
        h.update(&self.nodes.to_le_bytes());
        h.update(&self.edges.to_le_bytes());
        h.update(&self.sections.to_le_bytes());
        self.w.write_all(&[SECTION_FOOTER])?;
        self.w.write_all(&self.nodes.to_le_bytes())?;
        self.w.write_all(&self.edges.to_le_bytes())?;
        self.w.write_all(&self.sections.to_le_bytes())?;
        self.w.write_all(&h.finish().to_le_bytes())?;
        self.w.flush()?;
        let summary = CacheSummary {
            nodes: self.nodes as usize,
            edges: self.edges as usize,
            sections: self.sections as usize,
        };
        Ok((self.w, summary))
    }
}

/// Streaming cache writer bound to a filesystem path, preserving the
/// tmp+rename atomicity of [`write_cache_file`]: events stream into a
/// `.llc.tmp` sibling and the file only takes its final name once the
/// footer lands in [`CacheFileWriter::finish`]. A crashed run never leaves
/// a truncated cache behind.
pub struct CacheFileWriter {
    inner: CacheStreamWriter<BufWriter<std::fs::File>>,
    tmp: std::path::PathBuf,
    path: std::path::PathBuf,
}

impl CacheFileWriter {
    /// Creates the temporary cache file (and parent directories) and writes
    /// the header.
    pub fn create(path: impl AsRef<std::path::Path>) -> Result<Self, TraceIoError> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension("llc.tmp");
        let inner = CacheStreamWriter::new(BufWriter::new(std::fs::File::create(&tmp)?))?;
        Ok(Self { inner, tmp, path })
    }

    /// See [`CacheStreamWriter::push_arrival`].
    pub fn push_arrival(&mut self, t: Timestamp) -> Result<NodeId, TraceIoError> {
        self.inner.push_arrival(t)
    }

    /// See [`CacheStreamWriter::push_edge`].
    pub fn push_edge(&mut self, u: NodeId, v: NodeId, t: Timestamp) -> Result<(), TraceIoError> {
        self.inner.push_edge(u, v, t)
    }

    /// Writes the footer and atomically renames the temporary onto the
    /// final path.
    pub fn finish(self) -> Result<CacheSummary, TraceIoError> {
        let (w, summary) = self.inner.finish()?;
        drop(w);
        std::fs::rename(&self.tmp, &self.path)?;
        Ok(summary)
    }
}

/// Streaming section scanner shared by [`read_cache`] and
/// [`SectionedCacheReader::open`]: verifies the header, every per-section
/// checksum, and the footer totals, reading payloads in fixed
/// [`READ_CHUNK`]-byte chunks so a corrupt count can never trigger a
/// count-sized allocation. It also checks every event in O(1) against the
/// invariants the snapshot builders index by (see [`edge_violation`]), so a
/// checksum-valid but malformed cache is an error, not a panic further on.
/// `on_edge_section(index, payload_offset, count)` fires before the
/// section's entries and `on_edge` per edge in file order; the arrival
/// times are returned with the totals.
fn scan_sections<R: Read>(
    r: &mut R,
    mut on_edge_section: impl FnMut(usize, u64, u64),
    mut on_edge: impl FnMut(NodeId, NodeId, Timestamp),
) -> Result<(CacheSummary, Vec<Timestamp>), TraceIoError> {
    let mut header = [0u8; 8];
    read_exact_or(r, &mut header, || "file shorter than header".into())?;
    if header[..4] != CACHE_MAGIC {
        return Err(TraceIoError::Cache("bad magic (not a linklens trace cache)".into()));
    }
    // linklens-allow(unwrap-in-lib): a 4-byte range slice always converts to [u8; 4]
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4-byte version"));
    if version != CACHE_VERSION {
        return Err(TraceIoError::Cache(format!(
            "unsupported version {version} (expected {CACHE_VERSION})"
        )));
    }
    let mut pos: u64 = 8;
    let mut nodes: u64 = 0;
    let mut edges: u64 = 0;
    let mut sections: u64 = 0;
    let mut arrivals: Vec<Timestamp> = Vec::new();
    let mut last_edge_t: Timestamp = 0;
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        let idx = sections as usize;
        let mut kind_buf = [0u8; 1];
        read_exact_or(r, &mut kind_buf, || {
            format!("missing footer (stream ends after {sections} sections)")
        })?;
        pos += 1;
        let kind = kind_buf[0];
        if kind == SECTION_FOOTER {
            let mut tail = [0u8; 32];
            read_exact_or(r, &mut tail, || "truncated footer".into())?;
            let mut h = Fnv1a::new();
            h.update(&[SECTION_FOOTER]);
            h.update(&tail[..24]);
            // linklens-allow(unwrap-in-lib): fixed-width ranges of a 32-byte footer buffer
            let field = |at: usize| u64::from_le_bytes(tail[at..at + 8].try_into().expect("u64"));
            if field(24) != h.finish() {
                return Err(TraceIoError::Cache("footer: checksum mismatch".into()));
            }
            if (field(0), field(8), field(16)) != (nodes, edges, sections) {
                return Err(TraceIoError::Cache(format!(
                    "footer totals ({}, {}, {}) disagree with sections read ({nodes} nodes, \
                     {edges} edges, {sections} sections)",
                    field(0),
                    field(8),
                    field(16)
                )));
            }
            let mut probe = [0u8; 1];
            if r.read(&mut probe)? != 0 {
                return Err(TraceIoError::Cache("trailing data after footer".into()));
            }
            let summary = CacheSummary {
                nodes: nodes as usize,
                edges: edges as usize,
                sections: sections as usize,
            };
            return Ok((summary, arrivals));
        }
        if kind != SECTION_ARRIVALS && kind != SECTION_EDGES {
            return Err(TraceIoError::Cache(format!("section {idx}: unknown kind 0x{kind:02X}")));
        }
        let mut cnt = [0u8; 8];
        read_exact_or(r, &mut cnt, || format!("section {idx}: truncated header"))?;
        pos += 8;
        let count = u64::from_le_bytes(cnt);
        let entry: u64 = if kind == SECTION_ARRIVALS { 8 } else { 16 };
        let total = count.checked_mul(entry).ok_or_else(|| {
            TraceIoError::Cache(format!("section {idx}: absurd event count {count}"))
        })?;
        let mut h = Fnv1a::new();
        h.update(&[kind]);
        h.update(&cnt);
        if kind == SECTION_EDGES {
            on_edge_section(idx, pos, count);
        }
        // The first broken invariant, reported once the checksum has
        // passed, so a corrupt byte still reads as a checksum mismatch.
        let mut violation: Option<String> = None;
        let mut remaining = total;
        while remaining > 0 {
            let take = remaining.min(READ_CHUNK as u64) as usize;
            read_exact_or(r, &mut chunk[..take], || {
                format!("section {idx} ({}): unexpected end of file", section_name(kind))
            })?;
            h.update(&chunk[..take]);
            if kind == SECTION_ARRIVALS {
                for e in chunk[..take].chunks_exact(8) {
                    // linklens-allow(unwrap-in-lib): chunks_exact(8) yields 8-byte slices
                    let t = u64::from_le_bytes(e.try_into().expect("u64 entry"));
                    match arrivals.last() {
                        Some(&last) if t < last && violation.is_none() => {
                            violation = Some(format!("arrival time {t} regresses below {last}"));
                        }
                        _ => {}
                    }
                    arrivals.push(t);
                }
            } else {
                for e in chunk[..take].chunks_exact(16) {
                    // linklens-allow(unwrap-in-lib): fixed-width ranges of a 16-byte entry
                    let u = u32::from_le_bytes(e[0..4].try_into().expect("u32"));
                    // linklens-allow(unwrap-in-lib): fixed-width ranges of a 16-byte entry
                    let v = u32::from_le_bytes(e[4..8].try_into().expect("u32"));
                    // linklens-allow(unwrap-in-lib): fixed-width ranges of a 16-byte entry
                    let t = u64::from_le_bytes(e[8..16].try_into().expect("u64"));
                    if violation.is_none() {
                        violation = edge_violation(&arrivals, last_edge_t, u, v, t);
                        last_edge_t = t;
                    }
                    on_edge(u, v, t);
                }
            }
            remaining -= take as u64;
        }
        pos += total;
        let mut sum = [0u8; 8];
        read_exact_or(r, &mut sum, || {
            format!("section {idx} ({}): missing checksum", section_name(kind))
        })?;
        pos += 8;
        if u64::from_le_bytes(sum) != h.finish() {
            return Err(TraceIoError::Cache(format!(
                "section {idx} ({}): checksum mismatch",
                section_name(kind)
            )));
        }
        if let Some(msg) = violation {
            return Err(TraceIoError::Cache(format!(
                "section {idx} ({}): {msg}",
                section_name(kind)
            )));
        }
        if kind == SECTION_ARRIVALS {
            nodes += count;
        } else {
            edges += count;
        }
        sections += 1;
    }
}

/// The first invariant edge `(u, v, t)` breaks, given the arrival times
/// read so far and the previous edge's time; `None` for a valid edge. The
/// pair must be canonical (`u < v`, so no self loop), `v` must have an
/// arrival record already, both endpoints must have arrived by `t`, and
/// `t` must not precede the previous edge.
fn edge_violation(
    arrivals: &[Timestamp],
    last_t: Timestamp,
    u: NodeId,
    v: NodeId,
    t: Timestamp,
) -> Option<String> {
    if u >= v {
        return Some(format!("edge ({u}, {v}) is not a canonical pair"));
    }
    let Some(&arrival_v) = arrivals.get(v as usize) else {
        return Some(format!(
            "edge ({u}, {v}) references a node with no arrival record ({} read)",
            arrivals.len()
        ));
    };
    if arrivals[u as usize].max(arrival_v) > t {
        return Some(format!("edge ({u}, {v}) at t={t} predates an endpoint's arrival"));
    }
    if t < last_t {
        return Some(format!("edge time {t} regresses below {last_t}"));
    }
    None
}

/// Reads a trace written by [`write_cache_file`] / [`CacheStreamWriter`],
/// verifying magic, version, every per-section checksum and every event in
/// one streaming pass (fixed 64 KiB chunks — corruption is detected without
/// a full-file allocation, and the error names the bad section). Any mismatch
/// returns [`TraceIoError::Cache`] so callers can fall back to the text
/// source. So does a pair the cache holds twice: the error names the pair,
/// and no copy is dropped silently.
pub fn read_cache<R: Read>(reader: R) -> Result<TemporalGraph, TraceIoError> {
    let mut r = BufReader::new(reader);
    let mut edges: Vec<(NodeId, NodeId, Timestamp)> = Vec::new();
    let (_, arrivals) = scan_sections(&mut r, |_, _, _| {}, |u, v, t| edges.push((u, v, t)))?;
    checked_graph(arrivals, edges.into_iter())
}

/// The in-core trace of cache events a scan has already checked, in file
/// order. The scan leaves `add_edge` nothing to panic on; a pair it finds
/// already added is an error naming the pair.
fn checked_graph(
    arrivals: Vec<Timestamp>,
    edges: impl ExactSizeIterator<Item = (NodeId, NodeId, Timestamp)>,
) -> Result<TemporalGraph, TraceIoError> {
    let mut g = TemporalGraph::with_capacity(arrivals, edges.len());
    for (u, v, t) in edges {
        if !g.add_edge(u, v, t) {
            return Err(repeated_pair(u, v));
        }
    }
    Ok(g)
}

/// The error both cache readers return for a pair the cache holds twice.
pub(crate) fn repeated_pair(u: NodeId, v: NodeId) -> TraceIoError {
    TraceIoError::Cache(format!("edge ({u}, {v}) appears twice"))
}

/// [`read_cache`] from a filesystem path.
pub fn read_cache_file(path: impl AsRef<std::path::Path>) -> Result<TemporalGraph, TraceIoError> {
    // linklens-allow(full-trace-materialization): this IS the sanctioned small-trace in-core entry point
    read_cache(std::fs::File::open(path)?)
}

/// Writes an in-core trace in the sectioned binary cache format (see
/// [`CacheStreamWriter`] for the layout) to a filesystem path, creating
/// parent directories: one run of arrival sections, then one run of edge
/// sections, each split at the default section threshold. The file is
/// written via a temporary sibling and renamed so a crashed run never
/// leaves a truncated cache behind.
pub fn write_cache_file(
    trace: &TemporalGraph,
    path: impl AsRef<std::path::Path>,
) -> Result<(), TraceIoError> {
    let mut w = CacheFileWriter::create(path)?;
    for &t in trace.arrivals() {
        w.push_arrival(t)?;
    }
    for e in trace.edges() {
        w.push_edge(e.u, e.v, e.t)?;
    }
    w.finish()?;
    Ok(())
}

// ----- windowed trace access ----------------------------------------------

/// Uniform trace access for the snapshot engine: the full arrival vector
/// (8 bytes per node — cheap even at 10M nodes) plus windowed edge reads,
/// so a sweep holds only the active delta window instead of the whole edge
/// list.
///
/// Implemented by [`TemporalGraph`] (in-core, windows are slice copies) and
/// [`SectionedCacheReader`] (file-backed, windows are section-aligned
/// reads). Window reads take `&mut self` because file-backed readers seek.
pub trait TraceReader {
    /// Total nodes in the trace.
    fn node_count(&self) -> usize;

    /// Total edges in the trace.
    fn edge_count(&self) -> usize;

    /// Arrival timestamps, indexed by dense node id (non-decreasing).
    fn arrivals(&self) -> &[Timestamp];

    /// Number of nodes that have arrived by time `t` (arrival ≤ t).
    fn nodes_at(&self, t: Timestamp) -> usize {
        self.arrivals().partition_point(|&a| a <= t)
    }

    /// Replaces `out` with edges `start..end` (chronological order).
    ///
    /// # Panics
    /// Panics if `start..end` is not a valid range within the edge count —
    /// window bounds are caller logic, not data-dependent.
    fn read_edge_window(
        &mut self,
        start: usize,
        end: usize,
        out: &mut Vec<TimedEdge>,
    ) -> Result<(), TraceIoError>;
}

impl TraceReader for TemporalGraph {
    fn node_count(&self) -> usize {
        TemporalGraph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        TemporalGraph::edge_count(self)
    }

    fn arrivals(&self) -> &[Timestamp] {
        TemporalGraph::arrivals(self)
    }

    fn read_edge_window(
        &mut self,
        start: usize,
        end: usize,
        out: &mut Vec<TimedEdge>,
    ) -> Result<(), TraceIoError> {
        out.clear();
        out.extend_from_slice(&self.edges()[start..end]);
        Ok(())
    }
}

impl<T: TraceReader + ?Sized> TraceReader for &mut T {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn edge_count(&self) -> usize {
        (**self).edge_count()
    }

    fn arrivals(&self) -> &[Timestamp] {
        (**self).arrivals()
    }

    fn read_edge_window(
        &mut self,
        start: usize,
        end: usize,
        out: &mut Vec<TimedEdge>,
    ) -> Result<(), TraceIoError> {
        (**self).read_edge_window(start, end, out)
    }
}

/// Index entry for one edge section: where its payload starts in the file
/// and which global edge range it covers.
#[derive(Debug, Clone, Copy)]
struct EdgeSection {
    payload_offset: u64,
    start: usize,
    count: usize,
}

/// File-backed reader for the v2 sectioned cache.
///
/// [`SectionedCacheReader::open`] verifies every section checksum in one
/// streaming pass (fixed 64 KiB chunks — no full-file allocation), retains
/// the arrival vector, and records an index of edge sections. Edge windows
/// are then served by seeking straight to the fixed-width entry offset, so
/// a window read touches only the bytes it returns and the resident set of
/// a sweep is `arrivals + one delta window`.
pub struct SectionedCacheReader {
    file: std::fs::File,
    arrivals: Vec<Timestamp>,
    sections: Vec<EdgeSection>,
    edges: usize,
}

impl SectionedCacheReader {
    /// Opens and integrity-checks a cache file (every section checksum,
    /// every event, and the footer totals).
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, TraceIoError> {
        let file = std::fs::File::open(path)?;
        let mut sections: Vec<EdgeSection> = Vec::new();
        let (summary, arrivals) = {
            let mut r = BufReader::new(&file);
            scan_sections(
                &mut r,
                |_, payload_offset, count| {
                    let start = sections.last().map(|s| s.start + s.count).unwrap_or(0);
                    sections.push(EdgeSection { payload_offset, start, count: count as usize });
                },
                |_, _, _| {},
            )?
        };
        Ok(Self { file, arrivals, sections, edges: summary.edges })
    }
}

impl TraceReader for SectionedCacheReader {
    fn node_count(&self) -> usize {
        self.arrivals.len()
    }

    fn edge_count(&self) -> usize {
        self.edges
    }

    fn arrivals(&self) -> &[Timestamp] {
        &self.arrivals
    }

    fn read_edge_window(
        &mut self,
        start: usize,
        end: usize,
        out: &mut Vec<TimedEdge>,
    ) -> Result<(), TraceIoError> {
        assert!(
            start <= end && end <= self.edges,
            "edge window {start}..{end} out of range (edge count {})",
            self.edges
        );
        out.clear();
        if start == end {
            return Ok(());
        }
        out.reserve(end - start);
        let mut si = self.sections.partition_point(|s| s.start + s.count <= start);
        let mut cur = start;
        let mut chunk = vec![0u8; READ_CHUNK];
        while cur < end {
            let s = self.sections[si];
            let lo = cur - s.start;
            let hi = (end - s.start).min(s.count);
            self.file.seek(SeekFrom::Start(s.payload_offset + (lo as u64) * 16))?;
            let mut remaining = (hi - lo) * 16;
            while remaining > 0 {
                let take = remaining.min(READ_CHUNK);
                read_exact_or(&mut self.file, &mut chunk[..take], || {
                    "edge window read past end of file (cache changed underneath reader?)".into()
                })?;
                for e in chunk[..take].chunks_exact(16) {
                    // linklens-allow(unwrap-in-lib): fixed-width ranges of a 16-byte entry
                    let u = u32::from_le_bytes(e[0..4].try_into().expect("u32"));
                    // linklens-allow(unwrap-in-lib): fixed-width ranges of a 16-byte entry
                    let v = u32::from_le_bytes(e[4..8].try_into().expect("u32"));
                    // linklens-allow(unwrap-in-lib): fixed-width ranges of a 16-byte entry
                    let t = u64::from_le_bytes(e[8..16].try_into().expect("u64"));
                    out.push(TimedEdge { u, v, t });
                }
                remaining -= take;
            }
            cur = s.start + hi;
            si += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TemporalGraph {
        let mut g = TemporalGraph::new();
        g.add_node(0);
        g.add_node(5);
        g.add_node(10);
        g.add_edge(0, 1, 6);
        g.add_edge(1, 2, 12);
        g.add_edge(0, 2, 20);
        g
    }

    #[test]
    fn round_trip_preserves_everything() {
        let g = sample();
        let mut buf = Vec::new();
        write_trace(&g, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.arrivals(), g.arrivals());
        assert_eq!(back.edges(), g.edges());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\nn 2\na 0 0\na 1 0\n# mid comment\ne 0 1 5\n";
        let g = read_trace(text.as_bytes()).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn bad_record_reports_line() {
        let text = "n 1\na 0 0\nx what\n";
        match read_trace(text.as_bytes()) {
            Err(TraceIoError::Parse(3, msg)) => assert!(msg.contains("unknown record")),
            other => panic!("expected parse error at line 3, got {other:?}"),
        }
    }

    #[test]
    fn non_dense_arrivals_rejected() {
        let text = "a 0 0\na 2 0\n";
        assert!(matches!(read_trace(text.as_bytes()), Err(TraceIoError::Parse(2, _))));
    }

    #[test]
    fn node_count_mismatch_rejected() {
        let text = "n 3\na 0 0\n";
        assert!(read_trace(text.as_bytes()).is_err());
    }

    #[test]
    fn edge_list_relabels_and_sorts() {
        // Arbitrary labels, out of order timestamps, a self loop to drop.
        let text = "# u v t\n900 17 50\n17 23 10\n23 23 20\n900 23 30\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3, "self loop dropped");
        // First event (t=10) introduces labels 17 and 23 → ids 0 and 1.
        assert_eq!(g.edges()[0].t, 10);
        assert_eq!(g.arrivals()[0], 10);
        assert_eq!(g.arrivals()[2], 30, "label 900 first appears at t=30");
    }

    #[test]
    fn edge_list_relabeling_is_order_pinned() {
        // Many distinct labels, shuffled timestamps: the dense ids must be
        // exactly first-appearance order (post time-sort), independent of
        // any map internals. Pins the full relabeled edge sequence.
        let mut text = String::new();
        for i in 0..40u64 {
            // labels descend (999, 974, …) while times ascend after sort
            let label_a = 999 - i * 25;
            let label_b = 5000 + (i * 7919) % 97;
            text.push_str(&format!("{} {} {}\n", label_a, label_b, 1000 - i));
        }
        let a = read_edge_list(text.as_bytes()).unwrap();
        let b = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(a.edges(), b.edges(), "relabeling must be run-stable");
        assert_eq!(a.arrivals(), b.arrivals());
        // Earliest event is the last line (t=961): its endpoints get ids 0/1.
        assert_eq!(a.edges()[0].t, 961);
        assert_eq!((a.edges()[0].u, a.edges()[0].v), (0, 1));
        // Every edge introduces two fresh labels, so ids appear densely in
        // event order: edge k connects nodes 2k and 2k+1.
        for (k, e) in a.edges().iter().enumerate() {
            assert_eq!((e.u, e.v), (2 * k as NodeId, 2 * k as NodeId + 1));
        }
    }

    #[test]
    fn edge_list_duplicate_edges_collapse() {
        let text = "1 2 10\n2 1 20\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edges()[0].t, 10, "earliest wins");
    }

    #[test]
    fn whitespace_only_lines_are_skipped_not_panicked() {
        let text = "n 2\n   \t \na 0 0\n\t\na 1 0\n \ne 0 1 5\n";
        let g = read_trace(text.as_bytes()).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        let el = read_edge_list("  \t \n1 2 10\n   \n".as_bytes()).unwrap();
        assert_eq!(el.edge_count(), 1);
    }

    #[test]
    fn crlf_line_endings_tolerated() {
        let text = "# header\r\nn 2\r\na 0 0\r\na 1 0\r\ne 0 1 5\r\n";
        let g = read_trace(text.as_bytes()).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        let el = read_edge_list("1 2 10\r\n2 3 20\r\n".as_bytes()).unwrap();
        assert_eq!(el.edge_count(), 2);
    }

    #[test]
    fn malformed_token_reports_line_and_token() {
        let text = "n 2\na 0 0\na 1 zero\n";
        match read_trace(text.as_bytes()) {
            Err(TraceIoError::Parse(3, msg)) => {
                assert!(msg.contains("arrival time") && msg.contains("zero"), "{msg}")
            }
            other => panic!("expected parse error at line 3, got {other:?}"),
        }
        match read_edge_list("1 2 10\n3 x 20\n".as_bytes()) {
            Err(TraceIoError::Parse(2, msg)) => assert!(msg.contains('v'), "{msg}"),
            other => panic!("expected parse error at line 2, got {other:?}"),
        }
    }

    #[test]
    fn trailing_tokens_rejected_in_v1_but_ignored_in_edge_lists() {
        let text = "n 1\na 0 0 extra\n";
        assert!(matches!(read_trace(text.as_bytes()), Err(TraceIoError::Parse(2, _))));
        // Edge lists commonly carry extra columns (weights); tolerate them.
        let g = read_edge_list("1 2 10 0.5\n".as_bytes()).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    /// `read_trace` on `text` must fail with a parse error at `line`.
    fn assert_parse_error_at(text: &str, line: usize) {
        match read_trace(text.as_bytes()) {
            Err(TraceIoError::Parse(l, _)) if l == line => {}
            Err(e) => panic!("expected a parse error at line {line}, got {e}"),
            Ok(g) => {
                panic!("expected a parse error at line {line}, loaded {} edges", g.edge_count())
            }
        }
    }

    #[test]
    fn text_self_loop_is_an_error() {
        assert_parse_error_at("n 2\na 0 0\na 1 0\ne 1 1 5\n", 4);
    }

    #[test]
    fn text_endpoint_without_arrival_record_is_an_error() {
        assert_parse_error_at("n 2\na 0 0\na 1 0\ne 0 5 5\n", 4);
    }

    #[test]
    fn text_edge_before_its_endpoints_arrive_is_an_error() {
        assert_parse_error_at("n 2\na 0 0\na 1 100\ne 0 1 50\n", 4);
    }

    #[test]
    fn text_regressing_arrival_is_an_error() {
        assert_parse_error_at("n 2\na 0 5\na 1 3\n", 3);
    }

    #[test]
    fn text_node_id_beyond_u32_is_an_error() {
        // 2^32 + 1 must not truncate to node 1 and load as edge (0, 1).
        assert_parse_error_at("n 2\na 0 0\na 1 0\ne 0 4294967297 5\n", 4);
    }

    #[test]
    fn text_out_of_order_and_duplicate_edges_still_load() {
        let g =
            read_trace("n 3\na 0 0\na 1 0\na 2 0\ne 1 2 9\ne 0 1 4\ne 1 0 7\n".as_bytes()).unwrap();
        let edges: Vec<(NodeId, NodeId, Timestamp)> =
            g.edges().iter().map(|e| (e.u, e.v, e.t)).collect();
        assert_eq!(edges, vec![(0, 1, 4), (1, 2, 9)]);
    }

    /// `trace` in the cache format, streamed in memory at `section_bytes`
    /// per section.
    fn cache_bytes(trace: &TemporalGraph, section_bytes: usize) -> (Vec<u8>, CacheSummary) {
        let mut w = CacheStreamWriter::with_section_bytes(Vec::new(), section_bytes).unwrap();
        for &t in trace.arrivals() {
            w.push_arrival(t).unwrap();
        }
        for e in trace.edges() {
            w.push_edge(e.u, e.v, e.t).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn cache_round_trips_exactly() {
        let g = sample();
        let (buf, summary) = cache_bytes(&g, DEFAULT_SECTION_BYTES);
        assert_eq!(summary, CacheSummary { nodes: 3, edges: 3, sections: 2 });
        let back = read_cache(&buf[..]).unwrap();
        assert_eq!(back.arrivals(), g.arrivals());
        assert_eq!(back.edges(), g.edges());
        assert_eq!(back.node_count(), g.node_count());
    }

    #[test]
    fn cache_rejects_corruption() {
        let (buf, _) = cache_bytes(&sample(), DEFAULT_SECTION_BYTES);

        // Flip one payload byte: checksum mismatch.
        let mut bad = buf.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        assert!(matches!(read_cache(&bad[..]), Err(TraceIoError::Cache(_))));

        // Truncate: too short / length mismatch.
        assert!(matches!(read_cache(&buf[..10]), Err(TraceIoError::Cache(_))));

        // Wrong magic.
        let mut magic = buf.clone();
        magic[0] = b'X';
        assert!(matches!(read_cache(&magic[..]), Err(TraceIoError::Cache(_))));

        // Future version.
        let mut vers = buf.clone();
        vers[4..8].copy_from_slice(&99u32.to_le_bytes());
        match read_cache(&vers[..]) {
            Err(TraceIoError::Cache(msg)) => assert!(msg.contains("version"), "{msg}"),
            other => panic!("expected cache error, got {other:?}"),
        }
    }

    #[test]
    fn cache_file_helpers_round_trip() {
        let g = sample();
        let dir = std::env::temp_dir().join("linklens-test-cache");
        let path = dir.join("trace.llc");
        write_cache_file(&g, &path).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            cache_bytes(&g, DEFAULT_SECTION_BYTES).0,
            "the streamed format"
        );
        let back = read_cache_file(&path).unwrap();
        assert_eq!(back.edges(), g.edges());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A graph big enough that small section thresholds split it into many
    /// sections: a path graph with one arrival and one edge per step.
    fn chain(n: usize) -> TemporalGraph {
        let mut g = TemporalGraph::new();
        g.add_node(0);
        for i in 1..n {
            g.add_node(i as Timestamp);
            g.add_edge((i - 1) as NodeId, i as NodeId, i as Timestamp);
        }
        g
    }

    #[test]
    fn small_sections_round_trip_identically() {
        let g = chain(200);
        let (default_bytes, _) = cache_bytes(&g, DEFAULT_SECTION_BYTES);
        for section_bytes in [16usize, 48, 1024] {
            let (bytes, summary) = cache_bytes(&g, section_bytes);
            assert!(summary.sections > 2, "threshold {section_bytes} should force splits");
            let back = read_cache(&bytes[..]).unwrap();
            assert_eq!(back.arrivals(), g.arrivals());
            assert_eq!(back.edges(), g.edges());
        }
        let back = read_cache(&default_bytes[..]).unwrap();
        assert_eq!(back.edges(), g.edges());
    }

    #[test]
    fn interleaved_sections_round_trip() {
        // Day-bucketed emission: arrivals and edges alternate, which is
        // what the streaming generator produces. Kind switches force
        // section boundaries at each run.
        let mut w = CacheStreamWriter::new(Vec::new()).unwrap();
        w.push_arrival(0).unwrap();
        w.push_arrival(0).unwrap();
        w.push_edge(0, 1, 5).unwrap();
        w.push_arrival(10).unwrap();
        w.push_edge(2, 0, 12).unwrap();
        w.push_edge(1, 2, 13).unwrap();
        let (bytes, summary) = w.finish().unwrap();
        assert_eq!(summary.sections, 4, "two arrival runs + two edge runs");
        let back = read_cache(&bytes[..]).unwrap();
        assert_eq!(back.node_count(), 3);
        assert_eq!(back.edge_count(), 3);
        assert_eq!(back.edges()[1], TimedEdge { u: 0, v: 2, t: 12 }, "endpoints canonicalized");
    }

    #[test]
    fn stream_writer_rejects_invalid_events() {
        let mut w = CacheStreamWriter::new(Vec::new()).unwrap();
        w.push_arrival(5).unwrap();
        w.push_arrival(7).unwrap();
        assert!(matches!(w.push_arrival(6), Err(TraceIoError::Cache(_))), "arrival regression");
        assert!(matches!(w.push_edge(0, 0, 8), Err(TraceIoError::Cache(_))), "self loop");
        assert!(matches!(w.push_edge(0, 9, 8), Err(TraceIoError::Cache(_))), "unknown node");
        w.push_edge(0, 1, 8).unwrap();
        assert!(matches!(w.push_edge(1, 0, 7), Err(TraceIoError::Cache(_))), "edge regression");
    }

    #[test]
    fn corruption_error_names_bad_section() {
        let g = chain(100);
        let mut w = CacheStreamWriter::with_section_bytes(Vec::new(), 64).unwrap();
        for &t in g.arrivals() {
            w.push_arrival(t).unwrap();
        }
        for e in g.edges() {
            w.push_edge(e.u, e.v, e.t).unwrap();
        }
        let (bytes, summary) = w.finish().unwrap();
        assert!(summary.sections >= 4);
        // Corrupt a byte ~3/4 through the stream: lands inside a late
        // section's payload, so the error should name a nonzero section.
        let mut bad = bytes.clone();
        let at = bytes.len() * 3 / 4;
        bad[at] ^= 0xFF;
        match read_cache(&bad[..]) {
            Err(TraceIoError::Cache(msg)) => {
                assert!(msg.contains("section"), "error should name the section: {msg}");
                assert!(msg.contains("checksum") || msg.contains("kind"), "{msg}");
            }
            other => panic!("expected cache error, got {other:?}"),
        }
        // Drop the 33-byte footer: the error says so instead of claiming
        // success.
        let truncated = &bytes[..bytes.len() - 33];
        match read_cache(truncated) {
            Err(TraceIoError::Cache(msg)) => assert!(msg.contains("footer"), "{msg}"),
            other => panic!("expected cache error, got {other:?}"),
        }
        // Trailing garbage after the footer is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(read_cache(&padded[..]), Err(TraceIoError::Cache(_))));
    }

    #[test]
    fn v1_caches_are_rejected_with_version_error() {
        // A minimal v1 header: magic + version 1. Readers must reject it
        // (callers fall back to the text source and rewrite the cache).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&CACHE_MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 24]);
        match read_cache(&bytes[..]) {
            Err(TraceIoError::Cache(msg)) => assert!(msg.contains("version"), "{msg}"),
            other => panic!("expected cache error, got {other:?}"),
        }
    }

    #[test]
    fn sectioned_reader_serves_windows() {
        let g = chain(300);
        let dir = std::env::temp_dir().join("linklens-test-sectioned");
        let path = dir.join("trace.llc");
        let mut w = CacheFileWriter::create(&path).unwrap();
        for &t in g.arrivals() {
            w.push_arrival(t).unwrap();
        }
        for e in g.edges() {
            w.push_edge(e.u, e.v, e.t).unwrap();
        }
        let summary = w.finish().unwrap();
        assert_eq!(summary.edges, g.edge_count());

        let mut r = SectionedCacheReader::open(&path).unwrap();
        assert_eq!(TraceReader::node_count(&r), g.node_count());
        assert_eq!(TraceReader::edge_count(&r), g.edge_count());
        assert_eq!(TraceReader::arrivals(&r), g.arrivals());
        assert_eq!(r.nodes_at(17), g.nodes_at(17));
        let mut window = Vec::new();
        // `0..299` is the whole trace in one window.
        for (start, end) in [(0, 0), (0, 5), (7, 123), (290, 299), (0, 299)] {
            r.read_edge_window(start, end, &mut window).unwrap();
            assert_eq!(&window[..], &g.edges()[start..end], "window {start}..{end}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sectioned_reader_windows_cross_small_sections() {
        let g = chain(120);
        let dir = std::env::temp_dir().join("linklens-test-sectioned-small");
        let path = dir.join("trace.llc");
        let _ = std::fs::create_dir_all(&dir);
        let tmp = path.with_extension("llc.tmp");
        let mut w = CacheStreamWriter::with_section_bytes(
            BufWriter::new(std::fs::File::create(&tmp).unwrap()),
            48,
        )
        .unwrap();
        for &t in g.arrivals() {
            w.push_arrival(t).unwrap();
        }
        for e in g.edges() {
            w.push_edge(e.u, e.v, e.t).unwrap();
        }
        w.finish().unwrap();
        std::fs::rename(&tmp, &path).unwrap();

        let mut r = SectionedCacheReader::open(&path).unwrap();
        assert!(r.sections.len() > 10, "48-byte sections hold at most 3 edges");
        let mut window = Vec::new();
        for (start, end) in [(0, 119), (1, 118), (2, 7), (57, 58)] {
            r.read_edge_window(start, end, &mut window).unwrap();
            assert_eq!(&window[..], &g.edges()[start..end], "window {start}..{end}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A v2 cache with one arrivals section and (if any edges) one edges
    /// section, written byte by byte with valid checksums, so it can hold
    /// events the writer would refuse.
    fn hand_built(arrivals: &[Timestamp], edges: &[(NodeId, NodeId, Timestamp)]) -> Vec<u8> {
        let mut out = CACHE_MAGIC.to_vec();
        out.extend_from_slice(&CACHE_VERSION.to_le_bytes());
        let mut section = |kind: u8, count: usize, payload: Vec<u8>| {
            let mut h = Fnv1a::new();
            h.update(&[kind]);
            h.update(&(count as u64).to_le_bytes());
            h.update(&payload);
            out.push(kind);
            out.extend_from_slice(&(count as u64).to_le_bytes());
            out.extend_from_slice(&payload);
            out.extend_from_slice(&h.finish().to_le_bytes());
        };
        section(
            SECTION_ARRIVALS,
            arrivals.len(),
            arrivals.iter().flat_map(|t| t.to_le_bytes()).collect(),
        );
        if !edges.is_empty() {
            let payload = edges
                .iter()
                .flat_map(|&(u, v, t)| {
                    [&u.to_le_bytes()[..], &v.to_le_bytes(), &t.to_le_bytes()].concat()
                })
                .collect();
            section(SECTION_EDGES, edges.len(), payload);
        }
        let sections = 1 + u64::from(!edges.is_empty());
        let mut tail = Vec::new();
        for total in [arrivals.len() as u64, edges.len() as u64, sections] {
            tail.extend_from_slice(&total.to_le_bytes());
        }
        let mut h = Fnv1a::new();
        h.update(&[SECTION_FOOTER]);
        h.update(&tail);
        out.push(SECTION_FOOTER);
        out.extend_from_slice(&tail);
        out.extend_from_slice(&h.finish().to_le_bytes());
        out
    }

    /// Both readers must return a cache error for `bytes`, not panic and
    /// not accept it.
    fn assert_both_readers_reject(case: &str, bytes: &[u8]) {
        match read_cache(bytes) {
            Err(TraceIoError::Cache(_)) => {}
            other => panic!("{case}: read_cache returned {:?}", other.map(|g| g.edge_count())),
        }
        let tag: String = case.chars().map(|c| if c.is_alphanumeric() { c } else { '-' }).collect();
        let path =
            std::env::temp_dir().join(format!("linklens-reject-{}-{tag}.llc", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let opened = SectionedCacheReader::open(&path);
        let _ = std::fs::remove_file(&path);
        match opened {
            Err(TraceIoError::Cache(_)) => {}
            other => {
                panic!("{case}: SectionedCacheReader::open returned {:?}", other.map(|r| r.edges))
            }
        }
    }

    #[test]
    fn hand_built_caches_of_valid_traces_read() {
        let good = hand_built(&[0, 0, 3], &[(0, 1, 2), (1, 2, 3)]);
        assert_eq!(read_cache(&good[..]).unwrap().edge_count(), 2);
        let path =
            std::env::temp_dir().join(format!("linklens-hand-built-{}.llc", std::process::id()));
        std::fs::write(&path, &good).unwrap();
        let opened = SectionedCacheReader::open(&path);
        let _ = std::fs::remove_file(&path);
        assert_eq!(opened.unwrap().edge_count(), 2);
    }

    #[test]
    fn edge_before_its_endpoints_arrive_is_an_error() {
        // The writer checks endpoint ids, not arrival times, so it accepts
        // this edge; the readers must not.
        let mut w = CacheStreamWriter::new(Vec::new()).unwrap();
        w.push_arrival(100).unwrap();
        w.push_arrival(100).unwrap();
        w.push_edge(0, 1, 50).unwrap();
        let (bytes, _) = w.finish().unwrap();
        assert_both_readers_reject("edge before arrival", &bytes);
    }

    #[test]
    fn self_loop_is_an_error() {
        assert_both_readers_reject("self loop", &hand_built(&[0, 0], &[(1, 1, 5)]));
    }

    #[test]
    fn endpoint_id_past_the_node_count_is_an_error() {
        assert_both_readers_reject("unknown endpoint", &hand_built(&[0, 0], &[(0, 5, 5)]));
    }

    #[test]
    fn regressing_arrival_is_an_error() {
        assert_both_readers_reject("regressing arrival", &hand_built(&[5, 3], &[]));
    }

    #[test]
    fn regressing_edge_time_is_an_error() {
        let bytes = hand_built(&[0, 0, 0], &[(0, 1, 10), (0, 2, 5)]);
        assert_both_readers_reject("regressing edge time", &bytes);
    }

    #[test]
    fn non_canonical_pair_is_an_error() {
        assert_both_readers_reject("non-canonical pair", &hand_built(&[0, 0], &[(1, 0, 5)]));
    }

    /// A cache holding the pair (0, 1) twice, with another edge between
    /// the copies. Its checksums are valid, and the writer would take it.
    fn repeated_pair_cache() -> Vec<u8> {
        hand_built(&[0, 0, 0], &[(0, 1, 2), (1, 2, 3), (0, 1, 4)])
    }

    #[test]
    fn read_cache_rejects_a_repeated_pair() {
        let bytes = repeated_pair_cache();
        match read_cache(&bytes[..]) {
            Err(TraceIoError::Cache(msg)) => assert!(msg.contains("(0, 1)"), "{msg}"),
            other => panic!("read_cache returned {:?}", other.map(|g| g.edge_count())),
        }
    }

    /// Opens the repeated-pair cache (opening does not look for repeats)
    /// and sweeps it at window cap `max_window`. The advance must fail
    /// naming the pair, and the builder must hold no snapshot with a
    /// repeated neighbour. Returns the prefix the builder stopped at.
    fn streamed_repeat_stops_at(max_window: usize) -> usize {
        let path = std::env::temp_dir()
            .join(format!("linklens-repeat-stream-{}-{max_window}.llc", std::process::id()));
        std::fs::write(&path, repeated_pair_cache()).unwrap();
        let reader = SectionedCacheReader::open(&path);
        let _ = std::fs::remove_file(&path);
        let mut builder =
            crate::stream::StreamingSnapshotBuilder::with_max_window(reader.unwrap(), max_window);
        match builder.advance_to(3) {
            Err(TraceIoError::Cache(msg)) => assert!(msg.contains("(0, 1)"), "{msg}"),
            other => panic!("advance returned {:?}", other.map(|s| s.edge_count())),
        }
        if let Some(snap) = builder.current() {
            snap.validate().unwrap();
        }
        builder.prefix_len()
    }

    #[test]
    fn streaming_sweep_rejects_a_pair_repeated_across_windows() {
        // One edge per window: the second copy meets the first in the old
        // CSR run, after the two clean windows have merged.
        assert_eq!(streamed_repeat_stops_at(1), 2);
    }

    #[test]
    fn streaming_sweep_rejects_a_pair_repeated_within_a_window() {
        // The default cap reads all three edges at once: both copies sit in
        // node 0's sorted delta group, and nothing is merged.
        assert_eq!(streamed_repeat_stops_at(crate::stream::DEFAULT_WINDOW_EDGES), 0);
    }

    #[test]
    fn truncation_at_every_offset_is_an_error_in_both_readers() {
        let g = chain(12);
        let mut w = CacheStreamWriter::with_section_bytes(Vec::new(), 48).unwrap();
        for &t in g.arrivals() {
            w.push_arrival(t).unwrap();
        }
        for e in g.edges() {
            w.push_edge(e.u, e.v, e.t).unwrap();
        }
        let (bytes, summary) = w.finish().unwrap();
        assert!(summary.sections >= 6, "48-byte sections split the trace");
        for len in 0..bytes.len() {
            assert_both_readers_reject(&format!("truncated to {len} bytes"), &bytes[..len]);
        }
    }

    #[test]
    fn temporal_graph_implements_trace_reader() {
        let mut g = sample();
        let total = TraceReader::edge_count(&g);
        let mut window = Vec::new();
        g.read_edge_window(1, total, &mut window).unwrap();
        assert_eq!(window.len(), 2);
        assert_eq!(window[0].t, 12);
        // The &mut blanket impl lets generic consumers borrow.
        let borrow = &mut g;
        borrow.read_edge_window(0, 1, &mut window).unwrap();
        assert_eq!(window.len(), 1);
    }
}

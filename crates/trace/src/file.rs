//! A compact binary trace file format.
//!
//! Synthetic generation is deterministic, but shipping and diffing
//! traces is still useful: record a workload once, replay it against
//! different simulator versions, or hand a trace to another tool. The
//! format is deliberately simple:
//!
//! ```text
//! header:  magic "SPBT" | version u16 LE | reserved u16 | count u64 LE
//! record:  tag u8 | payload…
//!   tag 0 IntAlu   : latency u8
//!   tag 1 FpAlu    : latency u8
//!   tag 2 Load     : size u8 | addr u64 LE
//!   tag 3 Store    : size u8 | addr u64 LE
//!   tag 4 Branch   : mispredict u8 (0/1)
//! every record then carries: pc u64 LE | dep0 u16 LE | dep1 u16 LE
//! ```
//!
//! # Examples
//!
//! ```
//! use spb_trace::file::{TraceReader, TraceWriter};
//! use spb_trace::generators::MemsetGen;
//! use spb_trace::{CodeRegion, TraceSource};
//!
//! let mut buf = Vec::new();
//! let mut w = TraceWriter::new(&mut buf);
//! let mut gen = MemsetGen::new(0x1000, 512, CodeRegion::Memset, 1);
//! while let Some(op) = gen.next_op() {
//!     w.write_op(&op).unwrap();
//! }
//! w.finish().unwrap();
//!
//! let mut r = TraceReader::new(buf.as_slice()).unwrap();
//! assert!(r.len() > 0);
//! let first = r.next_op().unwrap();
//! println!("{first}");
//! ```

use crate::op::{MicroOp, OpKind};
use crate::TraceSource;
use std::io::{self, Read, Write};

/// File magic: "SPBT".
pub(crate) const MAGIC: [u8; 4] = *b"SPBT";
/// Current format version.
pub(crate) const VERSION: u16 = 1;

const TAG_INT: u8 = 0;
const TAG_FP: u8 = 1;
const TAG_LOAD: u8 = 2;
const TAG_STORE: u8 = 3;
const TAG_BRANCH: u8 = 4;

/// Errors produced by the trace-file reader.
#[derive(Debug)]
pub enum ReadTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the SPBT magic.
    BadMagic([u8; 4]),
    /// The file's version is not supported.
    UnsupportedVersion(u16),
    /// A record carried an unknown tag byte.
    BadTag(u8),
}

impl std::fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadTraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            ReadTraceError::BadMagic(m) => write!(f, "not a trace file (magic {m:02x?})"),
            ReadTraceError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            ReadTraceError::BadTag(t) => write!(f, "corrupt trace: unknown record tag {t}"),
        }
    }
}

impl std::error::Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadTraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadTraceError {
    fn from(e: io::Error) -> Self {
        ReadTraceError::Io(e)
    }
}

/// Streaming writer for trace files.
///
/// The op count lives in the header, so the writer buffers records and
/// emits everything on [`TraceWriter::finish`]. A mutable reference can
/// be passed as the writer (`&mut Vec<u8>`, `&mut File`).
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    records: Vec<u8>,
    count: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer over `sink`.
    pub fn new(sink: W) -> Self {
        Self {
            sink,
            records: Vec::new(),
            count: 0,
        }
    }

    /// Number of ops written so far.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Appends one µop.
    ///
    /// # Errors
    ///
    /// Infallible in practice (records are buffered); the `Result`
    /// mirrors the I/O-backed API shape.
    pub fn write_op(&mut self, op: &MicroOp) -> io::Result<()> {
        let buf = &mut self.records;
        match op.kind() {
            OpKind::IntAlu { latency } => {
                buf.push(TAG_INT);
                buf.push(latency);
            }
            OpKind::FpAlu { latency } => {
                buf.push(TAG_FP);
                buf.push(latency);
            }
            OpKind::Load { addr, size } => {
                buf.push(TAG_LOAD);
                buf.push(size);
                buf.extend_from_slice(&addr.to_le_bytes());
            }
            OpKind::Store { addr, size } => {
                buf.push(TAG_STORE);
                buf.push(size);
                buf.extend_from_slice(&addr.to_le_bytes());
            }
            OpKind::Branch { mispredict } => {
                buf.push(TAG_BRANCH);
                buf.push(u8::from(mispredict));
            }
        }
        buf.extend_from_slice(&op.pc().to_le_bytes());
        buf.extend_from_slice(&op.deps()[0].to_le_bytes());
        buf.extend_from_slice(&op.deps()[1].to_le_bytes());
        self.count += 1;
        Ok(())
    }

    /// Writes header + records to the sink and flushes.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors.
    pub fn finish(mut self) -> io::Result<()> {
        self.sink.write_all(&MAGIC)?;
        self.sink.write_all(&VERSION.to_le_bytes())?;
        self.sink.write_all(&0u16.to_le_bytes())?;
        self.sink.write_all(&self.count.to_le_bytes())?;
        self.sink.write_all(&self.records)?;
        self.sink.flush()
    }
}

/// Streaming reader for trace files; implements [`TraceSource`] so a
/// recorded trace can drive a core directly.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    source: R,
    remaining: u64,
    total: u64,
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace, validating the header.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] on I/O failure, bad magic, or an
    /// unsupported version.
    pub fn new(mut source: R) -> Result<Self, ReadTraceError> {
        let mut magic = [0u8; 4];
        source.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(ReadTraceError::BadMagic(magic));
        }
        let mut u16buf = [0u8; 2];
        source.read_exact(&mut u16buf)?;
        let version = u16::from_le_bytes(u16buf);
        if version != VERSION {
            return Err(ReadTraceError::UnsupportedVersion(version));
        }
        source.read_exact(&mut u16buf)?; // reserved
        let mut u64buf = [0u8; 8];
        source.read_exact(&mut u64buf)?;
        let total = u64::from_le_bytes(u64buf);
        Ok(Self {
            source,
            remaining: total,
            total,
        })
    }

    /// Total ops in the trace.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether the trace holds no ops.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Ops not yet consumed.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    fn read_record(&mut self) -> Result<MicroOp, ReadTraceError> {
        let mut tag = [0u8; 1];
        self.source.read_exact(&mut tag)?;
        let mut b1 = [0u8; 1];
        let mut b8 = [0u8; 8];
        let mut b2 = [0u8; 2];
        let kind = match tag[0] {
            TAG_INT => {
                self.source.read_exact(&mut b1)?;
                OpKind::IntAlu { latency: b1[0] }
            }
            TAG_FP => {
                self.source.read_exact(&mut b1)?;
                OpKind::FpAlu { latency: b1[0] }
            }
            TAG_LOAD => {
                self.source.read_exact(&mut b1)?;
                self.source.read_exact(&mut b8)?;
                OpKind::Load {
                    addr: u64::from_le_bytes(b8),
                    size: b1[0],
                }
            }
            TAG_STORE => {
                self.source.read_exact(&mut b1)?;
                self.source.read_exact(&mut b8)?;
                OpKind::Store {
                    addr: u64::from_le_bytes(b8),
                    size: b1[0],
                }
            }
            TAG_BRANCH => {
                self.source.read_exact(&mut b1)?;
                OpKind::Branch {
                    mispredict: b1[0] != 0,
                }
            }
            t => return Err(ReadTraceError::BadTag(t)),
        };
        self.source.read_exact(&mut b8)?;
        let pc = u64::from_le_bytes(b8);
        self.source.read_exact(&mut b2)?;
        let d0 = u16::from_le_bytes(b2);
        self.source.read_exact(&mut b2)?;
        let d1 = u16::from_le_bytes(b2);
        Ok(MicroOp::new(kind, pc).with_dep(d0).with_dep(d1))
    }
}

impl<R: Read> TraceSource for TraceReader<R> {
    fn next_op(&mut self) -> Option<MicroOp> {
        if self.remaining == 0 {
            return None;
        }
        match self.read_record() {
            Ok(op) => {
                self.remaining -= 1;
                Some(op)
            }
            Err(_) => {
                // A truncated/corrupt tail ends the trace; the header
                // count is advisory for streaming consumers.
                self.remaining = 0;
                None
            }
        }
    }
}

/// Records up to `max_ops` from `source` into `sink`, returning the
/// number written.
///
/// # Errors
///
/// Propagates sink I/O errors.
pub fn record<S: TraceSource, W: Write>(source: &mut S, sink: W, max_ops: u64) -> io::Result<u64> {
    let mut w = TraceWriter::new(sink);
    while w.len() < max_ops {
        match source.next_op() {
            Some(op) => w.write_op(&op)?,
            None => break,
        }
    }
    let n = w.len();
    w.finish()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{ComputeGen, ComputeParams, MemcpyGen};
    use crate::profile::AppProfile;
    use crate::CodeRegion;

    fn round_trip(ops: &[MicroOp]) -> Vec<MicroOp> {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf);
        for op in ops {
            w.write_op(op).unwrap();
        }
        w.finish().unwrap();
        let mut r = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.len(), ops.len() as u64);
        let mut out = Vec::new();
        while let Some(op) = r.next_op() {
            out.push(op);
        }
        out
    }

    #[test]
    fn round_trips_every_op_kind() {
        let ops = vec![
            MicroOp::new(OpKind::IntAlu { latency: 1 }, 0x400),
            MicroOp::new(OpKind::FpAlu { latency: 22 }, 0x404).with_dep(1),
            MicroOp::new(
                OpKind::Load {
                    addr: 0xdead_beef,
                    size: 8,
                },
                0x408,
            )
            .with_dep(2)
            .with_dep(1),
            MicroOp::new(
                OpKind::Store {
                    addr: 0xfeed_f00d,
                    size: 4,
                },
                0x40c,
            )
            .with_dep(3),
            MicroOp::new(OpKind::Branch { mispredict: true }, 0x410),
            MicroOp::new(OpKind::Branch { mispredict: false }, 0x414),
        ];
        assert_eq!(round_trip(&ops), ops);
    }

    #[test]
    fn round_trips_a_real_generator() {
        let mut gen = MemcpyGen::new(0x10_0000, 0x20_0000, 4096, CodeRegion::Memcpy, 9);
        let mut ops = Vec::new();
        while let Some(op) = gen.next_op() {
            ops.push(op);
        }
        assert_eq!(round_trip(&ops), ops);
    }

    #[test]
    fn record_caps_at_max_ops() {
        let mut gen = ComputeGen::new(
            ComputeParams {
                count: 10_000,
                ..Default::default()
            },
            1,
        );
        let mut buf = Vec::new();
        let n = record(&mut gen, &mut buf, 500).unwrap();
        assert_eq!(n, 500);
        let r = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.len(), 500);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = TraceReader::new(&b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::BadMagic(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&99u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = TraceReader::new(buf.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::UnsupportedVersion(99)));
    }

    #[test]
    fn truncated_trace_ends_cleanly() {
        let ops = vec![MicroOp::new(OpKind::IntAlu { latency: 1 }, 0x1); 10];
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf);
        for op in &ops {
            w.write_op(op).unwrap();
        }
        w.finish().unwrap();
        buf.truncate(buf.len() - 5); // chop the last record
        let mut r = TraceReader::new(buf.as_slice()).unwrap();
        let mut read = 0;
        while r.next_op().is_some() {
            read += 1;
        }
        assert_eq!(
            read, 9,
            "all complete records readable, corrupt tail dropped"
        );
    }

    #[test]
    fn recorded_profile_drives_a_core_identically() {
        use spb_stats::summary::normalize;
        // Record 5k ops of a profile, replay through the reader, and
        // check the op streams agree (the reader is a TraceSource).
        let app = AppProfile::by_name("gcc").unwrap();
        let mut live = app.build(3);
        let mut buf = Vec::new();
        let n = record(&mut app.build(3), &mut buf, 5_000).unwrap();
        assert_eq!(n, 5_000);
        let mut replay = TraceReader::new(buf.as_slice()).unwrap();
        for _ in 0..5_000 {
            assert_eq!(live.next_op(), replay.next_op());
        }
        assert_eq!(replay.next_op(), None);
        let _ = normalize(1.0, 1.0); // keep the dev-dependency honest
    }
}

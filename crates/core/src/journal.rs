//! `cusfft::journal` — crash-consistent serving: a write-ahead request
//! journal plus checkpoint/restart for the [`ServeEngine`].
//!
//! The serving layer survives every *device*-side failure the simulator
//! can throw (faults, breakers, overload, fleet failover), but a crash
//! of the serving **host** itself would lose every in-flight request.
//! This module closes that gap, FoundationDB-style:
//!
//! * [`Journal`] — an append-only log of deterministic binary records:
//!   [`JournalRecord::Admitted`] (the batch fingerprint),
//!   [`JournalRecord::GroupStaged`] (a plan group entered execution),
//!   [`JournalRecord::Done`] (a request reached a terminal outcome) and
//!   [`JournalRecord::Checkpoint`] (an epoch boundary). Appends land in
//!   a volatile tail; only [`Journal::flush`] makes them durable, and a
//!   simulated power loss ([`Journal::crash`]) discards the tail —
//!   exactly the contract of an `fsync`-bounded write-ahead log.
//! * [`ServeEngine::serve_journaled`] — serves a batch in **epochs** of
//!   [`JournalOptions::epoch_groups`] plan groups. Each epoch's groups
//!   are sharded across the workers as usual; at the epoch boundary the
//!   engine checkpoints ([`ServeEngine::checkpoint`]): terminal
//!   outcomes are appended and the journal is flushed. An armed
//!   [`CrashPlan`] kills the run *after* executing its epoch but
//!   *before* the flush — the worst case, where real work is lost.
//! * [`ServeEngine::resume_from`] — restarts from a durable journal:
//!   validates the batch fingerprint, restores every journaled outcome
//!   verbatim, and re-executes only the groups the crash swallowed.
//!
//! **Exactly-once, bit-for-bit.** Fault scopes key on the *global group
//! index* (see `serve_core::scope_group`), so a re-executed group
//! rolls the identical fault decisions the lost execution rolled, and
//! the resumed run's final outcome vector is **exactly equal** to the
//! uninterrupted run's — no request lost, none double-completed, no
//! response bit different. `tests/journal_recovery.rs` pins this for
//! every crash epoch across worker counts and fault seeds.

use std::collections::HashMap;

use fft::cplx::Cplx;
use gpu_sim::CrashPlan;

use crate::audit::AuditLog;
use crate::backend::BackendKind;
use crate::error::CusFftError;
use crate::plan_cache::ServeQos;
use crate::serve::{
    RequestOutcome, ServeEngine, ServePath, ServeReport, ServeRequest, ServeResponse,
};
use crate::serve_core::{Epochs, Group, Served};

// ---------------------------------------------------------------------
// Binary format
// ---------------------------------------------------------------------

/// Format magic: "cJn1" — version bumps change the last byte.
const MAGIC: [u8; 4] = *b"cJn1";

const TAG_ADMITTED: u8 = 1;
const TAG_GROUP_STAGED: u8 = 2;
const TAG_DONE: u8 = 3;
const TAG_CHECKPOINT: u8 = 4;

/// One journal record. The binary layout is
/// `[tag: u8][len: u32 LE][payload: len bytes]`, with every scalar
/// little-endian and floats stored as raw IEEE-754 bits — decoding is
/// exact, never a parse-and-round.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// The batch was admitted: `count` requests whose content hashes to
    /// `fingerprint` (see [`batch_fingerprint`]). Always the first
    /// record; resume refuses a journal whose fingerprint does not
    /// match the offered batch.
    Admitted {
        /// Content hash of the full request batch.
        fingerprint: u64,
        /// Number of requests in the batch.
        count: u32,
    },
    /// Plan group `gid` entered execution in `epoch` with these request
    /// indices. Written before the group runs, so a crashed journal
    /// still names the work that was in flight.
    GroupStaged {
        /// Global group index (the fault-scope base).
        gid: u32,
        /// Epoch the group executed in.
        epoch: u32,
        /// Request indices the group serves, in submission order.
        indices: Vec<u32>,
    },
    /// Request `idx` reached a terminal outcome.
    Done {
        /// Request index in submission order.
        idx: u32,
        /// The full terminal outcome, bit-exact.
        outcome: RequestOutcome,
    },
    /// Epoch `epoch` completed and everything before this record was
    /// flushed durable.
    Checkpoint {
        /// The completed epoch index.
        epoch: u32,
    },
}

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn corrupt(what: &str) -> CusFftError {
        CusFftError::Journal {
            reason: format!("corrupt record: {what}"),
        }
    }
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CusFftError> {
        if self.pos + n > self.buf.len() {
            return Err(Self::corrupt("truncated payload"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CusFftError> {
        Ok(self.bytes(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CusFftError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Result<u64, CusFftError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }
    fn f64(&mut self) -> Result<f64, CusFftError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn str(&mut self) -> Result<String, CusFftError> {
        let len = self.u32()? as usize;
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| Self::corrupt("non-UTF-8 string"))
    }
    fn done(&self) -> Result<(), CusFftError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Self::corrupt("trailing bytes in payload"))
        }
    }
}

fn encode_gpu_error(e: &gpu_sim::GpuError, out: &mut Enc) {
    use gpu_sim::GpuError as G;
    match e {
        G::OutOfMemory {
            requested,
            free,
            capacity,
        } => {
            out.u8(0);
            out.u64(*requested);
            out.u64(*free);
            out.u64(*capacity);
        }
        G::TransferFailure { dir, bytes } => {
            out.u8(1);
            out.u8(match dir {
                gpu_sim::TransferDir::HostToDevice => 0,
                gpu_sim::TransferDir::DeviceToHost => 1,
            });
            out.u64(*bytes as u64);
        }
        G::LaunchFailure { kernel } => {
            out.u8(2);
            out.str(kernel);
        }
        G::LaunchTimeout { kernel, waited_s } => {
            out.u8(3);
            out.str(kernel);
            out.f64(*waited_s);
        }
        G::EccCorruption { buffer_bytes } => {
            out.u8(4);
            out.u64(*buffer_bytes as u64);
        }
    }
}

fn decode_gpu_error(d: &mut Dec) -> Result<gpu_sim::GpuError, CusFftError> {
    use gpu_sim::GpuError as G;
    Ok(match d.u8()? {
        0 => G::OutOfMemory {
            requested: d.u64()?,
            free: d.u64()?,
            capacity: d.u64()?,
        },
        1 => {
            let dir = match d.u8()? {
                0 => gpu_sim::TransferDir::HostToDevice,
                1 => gpu_sim::TransferDir::DeviceToHost,
                _ => return Err(Dec::corrupt("unknown transfer direction")),
            };
            G::TransferFailure {
                dir,
                bytes: d.u64()? as usize,
            }
        }
        2 => G::LaunchFailure { kernel: d.str()? },
        3 => G::LaunchTimeout {
            kernel: d.str()?,
            waited_s: d.f64()?,
        },
        4 => G::EccCorruption {
            buffer_bytes: d.u64()? as usize,
        },
        _ => return Err(Dec::corrupt("unknown device-error tag")),
    })
}

fn encode_error(e: &CusFftError, out: &mut Enc) {
    match e {
        CusFftError::Gpu(g) => {
            out.u8(0);
            encode_gpu_error(g, out);
        }
        CusFftError::BadRequest { reason } => {
            out.u8(1);
            out.str(reason);
        }
        CusFftError::Panic { context } => {
            out.u8(2);
            out.str(context);
        }
        CusFftError::SilentCorruption {
            residual,
            tolerance,
        } => {
            out.u8(3);
            out.f64(*residual);
            out.f64(*tolerance);
        }
        CusFftError::CircuitOpen => out.u8(4),
        CusFftError::BadConfig { reason } => {
            out.u8(5);
            out.str(reason);
        }
        CusFftError::Journal { reason } => {
            out.u8(6);
            out.str(reason);
        }
    }
}

fn decode_error(d: &mut Dec) -> Result<CusFftError, CusFftError> {
    Ok(match d.u8()? {
        0 => CusFftError::Gpu(decode_gpu_error(d)?),
        1 => CusFftError::BadRequest { reason: d.str()? },
        2 => CusFftError::Panic { context: d.str()? },
        3 => CusFftError::SilentCorruption {
            residual: d.f64()?,
            tolerance: d.f64()?,
        },
        4 => CusFftError::CircuitOpen,
        5 => CusFftError::BadConfig { reason: d.str()? },
        6 => CusFftError::Journal { reason: d.str()? },
        _ => return Err(Dec::corrupt("unknown error tag")),
    })
}

fn backend_from_code(code: u8) -> Result<BackendKind, CusFftError> {
    BackendKind::all()
        .into_iter()
        .find(|b| b.code() == code)
        .ok_or_else(|| Dec::corrupt("unknown backend code"))
}

fn encode_outcome(o: &RequestOutcome, out: &mut Enc) {
    match o {
        RequestOutcome::Done(r) => {
            out.u8(0);
            out.u8(match r.path {
                ServePath::Gpu => 0,
                ServePath::GpuRetry => 1,
                ServePath::Cpu => 2,
            });
            out.u8(match r.qos {
                ServeQos::Full => 0,
                ServeQos::Degraded => 1,
            });
            out.u8(r.backend.code());
            out.u64(r.num_hits as u64);
            out.u64(r.recovered.len() as u64);
            for &(f, c) in &r.recovered {
                out.u64(f as u64);
                out.f64(c.re);
                out.f64(c.im);
            }
        }
        RequestOutcome::Failed {
            error,
            after_attempts,
        } => {
            out.u8(1);
            out.u32(*after_attempts);
            encode_error(error, out);
        }
        RequestOutcome::Shed { queue_depth } => {
            out.u8(2);
            out.u64(*queue_depth as u64);
        }
        RequestOutcome::DeadlineExceeded {
            predicted,
            deadline,
        } => {
            out.u8(3);
            out.f64(*predicted);
            out.f64(*deadline);
        }
    }
}

fn decode_outcome(d: &mut Dec) -> Result<RequestOutcome, CusFftError> {
    Ok(match d.u8()? {
        0 => {
            let path = match d.u8()? {
                0 => ServePath::Gpu,
                1 => ServePath::GpuRetry,
                2 => ServePath::Cpu,
                _ => return Err(Dec::corrupt("unknown serve path")),
            };
            let qos = match d.u8()? {
                0 => ServeQos::Full,
                1 => ServeQos::Degraded,
                _ => return Err(Dec::corrupt("unknown QoS tier")),
            };
            let backend = backend_from_code(d.u8()?)?;
            let num_hits = d.u64()? as usize;
            let len = d.u64()? as usize;
            let mut recovered = Vec::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                let f = d.u64()? as usize;
                let re = d.f64()?;
                let im = d.f64()?;
                recovered.push((f, Cplx::new(re, im)));
            }
            RequestOutcome::Done(ServeResponse {
                recovered,
                num_hits,
                path,
                qos,
                backend,
            })
        }
        1 => {
            let after_attempts = d.u32()?;
            RequestOutcome::Failed {
                error: decode_error(d)?,
                after_attempts,
            }
        }
        2 => RequestOutcome::Shed {
            queue_depth: d.u64()? as usize,
        },
        3 => RequestOutcome::DeadlineExceeded {
            predicted: d.f64()?,
            deadline: d.f64()?,
        },
        _ => return Err(Dec::corrupt("unknown outcome tag")),
    })
}

impl JournalRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        let mut payload = Enc(Vec::new());
        let tag = match self {
            JournalRecord::Admitted { fingerprint, count } => {
                payload.u64(*fingerprint);
                payload.u32(*count);
                TAG_ADMITTED
            }
            JournalRecord::GroupStaged {
                gid,
                epoch,
                indices,
            } => {
                payload.u32(*gid);
                payload.u32(*epoch);
                payload.u32(indices.len() as u32);
                for &i in indices {
                    payload.u32(i);
                }
                TAG_GROUP_STAGED
            }
            JournalRecord::Done { idx, outcome } => {
                payload.u32(*idx);
                encode_outcome(outcome, &mut payload);
                TAG_DONE
            }
            JournalRecord::Checkpoint { epoch } => {
                payload.u32(*epoch);
                TAG_CHECKPOINT
            }
        };
        buf.push(tag);
        buf.extend_from_slice(&(payload.0.len() as u32).to_le_bytes());
        buf.extend_from_slice(&payload.0);
    }

    fn decode(tag: u8, payload: &[u8]) -> Result<Self, CusFftError> {
        let mut d = Dec {
            buf: payload,
            pos: 0,
        };
        let rec = match tag {
            TAG_ADMITTED => JournalRecord::Admitted {
                fingerprint: d.u64()?,
                count: d.u32()?,
            },
            TAG_GROUP_STAGED => {
                let gid = d.u32()?;
                let epoch = d.u32()?;
                let len = d.u32()? as usize;
                let mut indices = Vec::with_capacity(len.min(1 << 20));
                for _ in 0..len {
                    indices.push(d.u32()?);
                }
                JournalRecord::GroupStaged {
                    gid,
                    epoch,
                    indices,
                }
            }
            TAG_DONE => JournalRecord::Done {
                idx: d.u32()?,
                outcome: decode_outcome(&mut d)?,
            },
            TAG_CHECKPOINT => JournalRecord::Checkpoint { epoch: d.u32()? },
            _ => return Err(Dec::corrupt("unknown record tag")),
        };
        d.done()?;
        Ok(rec)
    }
}

/// Content hash of a request batch — every field of every request,
/// signal samples included (exact bits). A journal is only resumable
/// against the byte-identical batch it was written for.
pub fn batch_fingerprint(requests: &[ServeRequest]) -> u64 {
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
    let mut h = mix(0x6A75_726E_616C ^ requests.len() as u64); // "journal"
    for r in requests {
        h = mix(h ^ r.time.len() as u64);
        h = mix(h ^ r.k as u64);
        h = mix(h ^ r.seed);
        h = mix(h ^ match r.variant {
            crate::pipeline::Variant::Baseline => 0u64,
            crate::pipeline::Variant::Optimized => 1,
        });
        h = mix(h ^ u64::from(r.backend.code()));
        for c in &r.time {
            h = mix(h ^ c.re.to_bits());
            h = mix(h ^ c.im.to_bits());
        }
    }
    h
}

// ---------------------------------------------------------------------
// The journal
// ---------------------------------------------------------------------

/// Cumulative journal I/O counters (monotone over the journal's life).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended (durable or not).
    pub records_appended: u64,
    /// Flush calls that made appended bytes durable.
    pub flushes: u64,
    /// Bytes currently durable.
    pub durable_bytes: u64,
    /// Bytes appended but not yet flushed (lost if the host dies now).
    pub unflushed_bytes: u64,
}

/// An append-only write-ahead log with an explicit durability boundary.
///
/// Appends go to a volatile tail; [`Journal::flush`] moves the boundary
/// to the end (an `fsync`), and [`Journal::crash`] simulates a power
/// loss by discarding everything after the boundary. [`Journal::save`] /
/// [`Journal::load`] persist exactly the durable prefix to a real file,
/// so recovery can also cross processes.
#[derive(Debug, Clone)]
pub struct Journal {
    buf: Vec<u8>,
    durable: usize,
    records_appended: u64,
    flushes: u64,
}

impl Default for Journal {
    fn default() -> Self {
        Self::new()
    }
}

impl Journal {
    /// An empty journal (header only, already durable).
    pub fn new() -> Self {
        Journal {
            buf: MAGIC.to_vec(),
            durable: MAGIC.len(),
            records_appended: 0,
            flushes: 0,
        }
    }

    /// Rebuilds a journal from previously saved bytes. The whole input
    /// is treated as durable (it came off stable storage).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CusFftError> {
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(CusFftError::Journal {
                reason: "bad magic: not a cusfft journal".into(),
            });
        }
        let j = Journal {
            buf: bytes.to_vec(),
            durable: bytes.len(),
            records_appended: 0,
            flushes: 0,
        };
        // Validate structure eagerly so a truncated file fails at load,
        // not mid-recovery.
        j.durable_records()?;
        Ok(j)
    }

    /// Loads a journal file written by [`Journal::save`].
    pub fn load(path: &std::path::Path) -> Result<Self, CusFftError> {
        let bytes = std::fs::read(path).map_err(|e| CusFftError::Journal {
            reason: format!("cannot read {}: {e}", path.display()),
        })?;
        Self::from_bytes(&bytes)
    }

    /// Writes the **durable prefix** to `path` — unflushed records never
    /// reach stable storage, exactly as on a real host.
    pub fn save(&self, path: &std::path::Path) -> Result<(), CusFftError> {
        std::fs::write(path, &self.buf[..self.durable]).map_err(|e| CusFftError::Journal {
            reason: format!("cannot write {}: {e}", path.display()),
        })
    }

    /// Resets the journal and admits a new batch: the `Admitted` record
    /// is appended and immediately flushed (admission is durable before
    /// any work runs).
    pub fn begin(&mut self, fingerprint: u64, count: u32) {
        self.buf.truncate(MAGIC.len());
        self.durable = MAGIC.len();
        self.append(&JournalRecord::Admitted { fingerprint, count });
        self.flush();
    }

    /// Appends a record to the volatile tail.
    pub fn append(&mut self, rec: &JournalRecord) {
        rec.encode(&mut self.buf);
        self.records_appended += 1;
    }

    /// Makes every appended record durable (the `fsync`).
    pub fn flush(&mut self) {
        if self.durable < self.buf.len() {
            self.durable = self.buf.len();
            self.flushes += 1;
        }
    }

    /// Simulated power loss: the volatile tail is gone.
    pub fn crash(&mut self) {
        self.buf.truncate(self.durable);
    }

    /// Current I/O counters.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            records_appended: self.records_appended,
            flushes: self.flushes,
            durable_bytes: self.durable as u64,
            unflushed_bytes: (self.buf.len() - self.durable) as u64,
        }
    }

    /// Decodes the **durable prefix** — what recovery is allowed to see.
    /// Unflushed tail records are invisible by design.
    pub fn durable_records(&self) -> Result<Vec<JournalRecord>, CusFftError> {
        let buf = &self.buf[..self.durable];
        let mut records = Vec::new();
        let mut pos = MAGIC.len();
        while pos < buf.len() {
            if pos + 5 > buf.len() {
                return Err(CusFftError::Journal {
                    reason: "truncated record header".into(),
                });
            }
            let tag = buf[pos];
            let len =
                u32::from_le_bytes(buf[pos + 1..pos + 5].try_into().expect("4 bytes")) as usize;
            pos += 5;
            if pos + len > buf.len() {
                return Err(CusFftError::Journal {
                    reason: "record length exceeds durable prefix".into(),
                });
            }
            records.push(JournalRecord::decode(tag, &buf[pos..pos + len])?);
            pos += len;
        }
        Ok(records)
    }
}

// ---------------------------------------------------------------------
// Journaled serving
// ---------------------------------------------------------------------

/// Settings for a journaled serve run.
#[derive(Debug, Clone, Copy)]
pub struct JournalOptions {
    /// Plan groups per epoch (checkpoint granularity). Values below 1
    /// are treated as 1.
    pub epoch_groups: usize,
    /// The armed crash hook; [`CrashPlan::never`] for a healthy run.
    pub crash: CrashPlan,
}

impl Default for JournalOptions {
    fn default() -> Self {
        JournalOptions {
            epoch_groups: 2,
            crash: CrashPlan::never(),
        }
    }
}

/// What a crashed journaled run leaves behind (besides the journal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeCrash {
    /// Epoch the host died in (its records were appended but never
    /// flushed, so recovery will re-execute it).
    pub epoch: u64,
    /// Terminal outcomes that were durable at the moment of the crash.
    pub durable_done: usize,
    /// Simulated makespan of everything the crashed process executed —
    /// including the lost epoch, whose work is wasted.
    pub wasted_makespan: f64,
}

/// Result of a journaled serve call: either a full report or the crash
/// descriptor of a run the armed [`CrashPlan`] killed.
#[derive(Debug)]
pub enum JournalRun {
    /// The run completed; the journal ends with a final checkpoint.
    Completed(Box<ServeReport>),
    /// The crash hook fired; resume with [`ServeEngine::resume_from`].
    Crashed(ServeCrash),
}

impl JournalRun {
    /// The report, if the run completed.
    pub fn into_report(self) -> Result<ServeReport, ServeCrash> {
        match self {
            JournalRun::Completed(r) => Ok(*r),
            JournalRun::Crashed(c) => Err(c),
        }
    }

    /// The crash descriptor, if the run crashed.
    pub fn crash(&self) -> Option<&ServeCrash> {
        match self {
            JournalRun::Crashed(c) => Some(c),
            JournalRun::Completed(_) => None,
        }
    }
}

/// Journal/recovery counters for one journaled serve call, carried on
/// [`ServeReport::journal`]. Deterministic like every other tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalTally {
    /// Records this run appended.
    pub records_appended: u64,
    /// Epoch checkpoints this run flushed.
    pub checkpoints: u64,
    /// Bytes durable when this run finished.
    pub durable_bytes: u64,
    /// Plan groups this run executed.
    pub groups_executed: u64,
    /// Plan groups whose outcomes were restored from the journal
    /// without re-execution (resume only).
    pub groups_recovered: u64,
    /// Requests whose outcomes were restored from the journal (resume
    /// only).
    pub requests_recovered: u64,
}

impl ServeEngine {
    /// Appends the epoch's terminal outcomes and a checkpoint marker,
    /// then flushes — the durability point of the recovery protocol.
    /// `already_durable` lists request indices whose `Done` records are
    /// known durable (resume skips re-journaling them).
    pub fn checkpoint(
        &self,
        journal: &mut Journal,
        epoch: u64,
        outcomes: &[(usize, RequestOutcome)],
        already_durable: &dyn Fn(usize) -> bool,
    ) {
        let mut sorted: Vec<&(usize, RequestOutcome)> = outcomes.iter().collect();
        sorted.sort_by_key(|(idx, _)| *idx);
        for (idx, outcome) in sorted {
            if already_durable(*idx) {
                continue;
            }
            journal.append(&JournalRecord::Done {
                idx: *idx as u32,
                outcome: outcome.clone(),
            });
        }
        journal.append(&JournalRecord::Checkpoint {
            epoch: epoch as u32,
        });
        journal.flush();
    }

    /// Serves `requests` in checkpointed epochs, journaling every
    /// terminal outcome (see the module docs). The journal is reset for
    /// this batch. Returns [`JournalRun::Crashed`] when
    /// [`JournalOptions::crash`] fires — the journal then holds exactly
    /// the durable prefix a dead host would leave on disk, ready for
    /// [`ServeEngine::resume_from`].
    ///
    /// Outcomes of a completed journaled run are **exactly equal** to
    /// [`ServeEngine::serve_batch`] on the same requests: epochs change
    /// only the checkpoint cadence, never a fault scope.
    pub fn serve_journaled(
        &self,
        requests: &[ServeRequest],
        journal: &mut Journal,
        opts: &JournalOptions,
    ) -> JournalRun {
        self.serve_epochs(requests, Some((journal, opts)))
    }

    /// The epoch loop behind [`ServeEngine::serve_batch`] (no journal,
    /// one epoch) and [`ServeEngine::serve_journaled`]. Validation
    /// failures are terminal at admission, and journaled durable before
    /// any device work.
    pub(crate) fn serve_epochs(
        &self,
        requests: &[ServeRequest],
        journal: Option<(&mut Journal, &JournalOptions)>,
    ) -> JournalRun {
        let mut epochs = journal.map(|(journal, opts)| {
            journal.begin(batch_fingerprint(requests), requests.len() as u32);
            Epochs {
                stats0: journal.stats(),
                journal,
                opts,
                first: 0,
                durable: &never_durable,
                recovered: JournalTally::default(),
            }
        });
        let (groups, prefailed) = self.group_requests(requests);
        let extra: &[(&str, &str)] = match epochs {
            Some(_) => &[("journaled", "true")],
            None => &[],
        };
        let mut alog = self.open_audit(requests.len(), groups.len(), extra);
        let mut served = Served::new(requests.len());
        for (idx, err) in prefailed {
            served.reject(idx, err, 0.0, &mut alog);
            if let Some(e) = epochs.as_mut() {
                e.journal.append(&JournalRecord::Done {
                    idx: idx as u32,
                    outcome: served.outcomes[idx]
                        .clone()
                        .expect("reject settles the outcome"),
                });
            }
        }
        if let Some(e) = epochs.as_mut() {
            e.journal.flush();
        }
        let run: Vec<&Group> = groups.iter().collect();
        self.run_sharded(requests, &groups, &run, epochs, served, alog)
    }

    /// Restarts a journaled run from its durable journal: restores every
    /// journaled outcome verbatim and re-executes only the groups with
    /// missing outcomes — under their original global group indices, so
    /// the fault plan replays the exact decisions the lost execution
    /// saw. The final outcome vector is exactly equal to the
    /// uninterrupted run's (exactly-once: nothing lost, nothing
    /// double-completed).
    ///
    /// Fails typed ([`CusFftError::Journal`]) when the journal is
    /// corrupt, duplicates a terminal record, or was written for a
    /// different batch.
    pub fn resume_from(
        &self,
        requests: &[ServeRequest],
        journal: &mut Journal,
        opts: &JournalOptions,
    ) -> Result<JournalRun, CusFftError> {
        let records = journal.durable_records()?;
        let Some(JournalRecord::Admitted { fingerprint, count }) = records.first() else {
            return Err(CusFftError::Journal {
                reason: "journal does not start with an Admitted record".into(),
            });
        };
        if *count as usize != requests.len() || *fingerprint != batch_fingerprint(requests) {
            return Err(CusFftError::Journal {
                reason: format!(
                    "journal was written for a different batch \
                     (journal: {count} requests, fingerprint {fingerprint:#x})"
                ),
            });
        }

        let mut durable_done: HashMap<usize, RequestOutcome> = HashMap::new();
        let mut next_epoch = 0u64;
        for rec in &records[1..] {
            match rec {
                JournalRecord::Done { idx, outcome } => {
                    let idx = *idx as usize;
                    if idx >= requests.len() {
                        return Err(CusFftError::Journal {
                            reason: format!("Done record for out-of-range request {idx}"),
                        });
                    }
                    if durable_done.insert(idx, outcome.clone()).is_some() {
                        return Err(CusFftError::Journal {
                            reason: format!(
                                "duplicate terminal record for request {idx} — \
                                 resuming would double-complete it"
                            ),
                        });
                    }
                }
                JournalRecord::Checkpoint { epoch } => {
                    next_epoch = next_epoch.max(u64::from(*epoch) + 1);
                }
                JournalRecord::Admitted { .. } => {
                    return Err(CusFftError::Journal {
                        reason: "second Admitted record mid-journal".into(),
                    });
                }
                JournalRecord::GroupStaged { .. } => {}
            }
        }

        let stats0 = journal.stats();
        let (groups, prefailed) = self.group_requests(requests);
        let mut alog = self.open_audit(
            requests.len(),
            groups.len(),
            &[("journaled", "true"), ("resumed", "true")],
        );
        if let Some(a) = alog.as_mut() {
            a.record(
                0.0,
                None,
                None,
                "resume",
                vec![
                    ("next_epoch".into(), next_epoch.to_string()),
                    ("durable_done".into(), durable_done.len().to_string()),
                ],
            );
        }
        let mut served = Served::new(requests.len());
        let mut recovered = JournalTally::default();

        // Validation failures re-derive deterministically; journal them
        // if the original run's flush was lost.
        let mut fresh_prefail = false;
        for (idx, err) in prefailed {
            if let Some(outcome) = durable_done.get(&idx) {
                recovered.requests_recovered += 1;
                record_recovered(&mut alog, idx, None);
                served.outcomes[idx] = Some(outcome.clone());
            } else {
                served.reject(idx, err, 0.0, &mut alog);
                journal.append(&JournalRecord::Done {
                    idx: idx as u32,
                    outcome: served.outcomes[idx]
                        .clone()
                        .expect("reject settles the outcome"),
                });
                fresh_prefail = true;
            }
        }
        if fresh_prefail {
            journal.flush();
        }

        // A group re-executes iff any of its outcomes is missing. A
        // partially journaled group re-runs whole — determinism makes
        // the recomputed outcomes bit-identical to the journaled ones,
        // so replacing them cannot double-complete anything.
        let mut pending: Vec<&Group> = Vec::new();
        for g in &groups {
            if g.indices.iter().all(|idx| durable_done.contains_key(idx)) {
                recovered.groups_recovered += 1;
                for &idx in &g.indices {
                    recovered.requests_recovered += 1;
                    record_recovered(&mut alog, idx, Some(g.gid));
                    served.outcomes[idx] = Some(durable_done[&idx].clone());
                }
            } else {
                pending.push(g);
            }
        }
        let durable = |idx: usize| durable_done.contains_key(&idx);
        let epochs = Epochs {
            journal,
            opts,
            first: next_epoch,
            durable: &durable,
            stats0,
            recovered,
        };
        Ok(self.run_sharded(requests, &groups, &pending, Some(epochs), served, alog))
    }
}

fn never_durable(_: usize) -> bool {
    false
}

/// Records that request `idx` (of group `gid`) was restored from the
/// journal rather than re-executed.
fn record_recovered(alog: &mut Option<AuditLog>, idx: usize, gid: Option<usize>) {
    if let Some(a) = alog.as_mut() {
        a.record(
            0.0,
            Some(idx),
            gid,
            "recovered",
            vec![("source".into(), "journal".into())],
        );
    }
}

/// Counts durable `Done` records; the journal was validated by the
/// caller, so decode failures cannot occur here.
pub(crate) fn count_durable_done(journal: &Journal) -> usize {
    journal
        .durable_records()
        .map(|rs| {
            rs.iter()
                .filter(|r| matches!(r, JournalRecord::Done { .. }))
                .count()
        })
        .unwrap_or(0)
}

/// Convenience used by tests and the chaos harness: groups of a batch
/// under this engine's cache, for sizing crash-epoch sweeps.
pub fn plan_group_count(engine: &ServeEngine, requests: &[ServeRequest]) -> usize {
    let (groups, _) = engine.group_requests(requests);
    groups.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Variant;
    use crate::serve::ServeConfig;
    use gpu_sim::DeviceSpec;
    use signal::{MagnitudeModel, SparseSignal};

    fn request(n: usize, k: usize, sig_seed: u64, seed: u64) -> ServeRequest {
        let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, sig_seed);
        ServeRequest::new(s.time, k, Variant::Optimized, seed)
    }

    fn engine(workers: usize) -> ServeEngine {
        ServeEngine::new(
            DeviceSpec::tesla_k20x(),
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
        )
        .expect("valid config")
    }

    #[test]
    fn outcome_codec_round_trips_bit_exact() {
        let outcomes = vec![
            RequestOutcome::Done(ServeResponse {
                recovered: vec![(3, Cplx::new(1.5, -2.25)), (17, Cplx::new(-0.0, 1e-300))],
                num_hits: 2,
                path: ServePath::GpuRetry,
                qos: ServeQos::Degraded,
                backend: BackendKind::GpuSim,
            }),
            RequestOutcome::Failed {
                error: CusFftError::Gpu(gpu_sim::GpuError::LaunchTimeout {
                    kernel: "perm_filter".into(),
                    waited_s: 1e-3,
                }),
                after_attempts: 2,
            },
            RequestOutcome::Failed {
                error: CusFftError::SilentCorruption {
                    residual: 0.75,
                    tolerance: 1e-6,
                },
                after_attempts: 1,
            },
            RequestOutcome::Shed { queue_depth: 9 },
            RequestOutcome::DeadlineExceeded {
                predicted: 0.5,
                deadline: 0.25,
            },
        ];
        for o in &outcomes {
            let mut enc = Enc(Vec::new());
            encode_outcome(o, &mut enc);
            let mut d = Dec {
                buf: &enc.0,
                pos: 0,
            };
            let back = decode_outcome(&mut d).expect("decodes");
            d.done().expect("no trailing bytes");
            assert_eq!(&back, o);
        }
    }

    #[test]
    fn journal_crash_discards_the_unflushed_tail() {
        let mut j = Journal::new();
        j.begin(42, 3);
        let durable = j.stats().durable_bytes;
        j.append(&JournalRecord::Checkpoint { epoch: 0 });
        assert!(j.stats().unflushed_bytes > 0);
        j.crash();
        assert_eq!(j.stats().durable_bytes, durable);
        assert_eq!(j.stats().unflushed_bytes, 0);
        let recs = j.durable_records().expect("valid");
        assert_eq!(recs.len(), 1, "only the flushed Admitted record survives");
    }

    #[test]
    fn journal_round_trips_through_bytes() {
        let mut j = Journal::new();
        j.begin(7, 1);
        j.append(&JournalRecord::GroupStaged {
            gid: 0,
            epoch: 0,
            indices: vec![0],
        });
        j.flush();
        let bytes = j.buf.clone();
        let back = Journal::from_bytes(&bytes).expect("valid journal");
        assert_eq!(back.durable_records().unwrap(), j.durable_records().unwrap());

        assert!(matches!(
            Journal::from_bytes(b"nope"),
            Err(CusFftError::Journal { .. })
        ));
        // A truncated byte stream fails structurally at load.
        assert!(matches!(
            Journal::from_bytes(&bytes[..bytes.len() - 2]),
            Err(CusFftError::Journal { .. })
        ));
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        let a = vec![request(1 << 10, 4, 1, 11)];
        let b = vec![request(1 << 10, 4, 1, 12)]; // different request seed
        let c = vec![request(1 << 10, 4, 2, 11)]; // different signal
        assert_eq!(batch_fingerprint(&a), batch_fingerprint(&a));
        assert_ne!(batch_fingerprint(&a), batch_fingerprint(&b));
        assert_ne!(batch_fingerprint(&a), batch_fingerprint(&c));
    }

    #[test]
    fn journaled_serve_equals_serve_batch() {
        let reqs: Vec<ServeRequest> = (0..5)
            .map(|i| request(1 << (10 + (i % 2)), 4, 100 + i as u64, 7 * i as u64))
            .collect();
        let plain = engine(2).serve_batch(&reqs);
        let mut journal = Journal::new();
        let journaled = engine(2)
            .serve_journaled(&reqs, &mut journal, &JournalOptions::default())
            .into_report()
            .expect("no crash armed");
        assert_eq!(plain.outcomes, journaled.outcomes);
        assert_eq!(plain.faults, journaled.faults);
        let jt = journaled.journal.expect("journaled runs carry the tally");
        assert!(jt.checkpoints >= 1);
        assert!(jt.durable_bytes > 0);
        assert_eq!(jt.groups_recovered, 0);
    }

    #[test]
    fn resume_refuses_a_different_batch() {
        let reqs = vec![request(1 << 10, 4, 1, 11)];
        let mut journal = Journal::new();
        let _ = engine(1).serve_journaled(&reqs, &mut journal, &JournalOptions::default());
        let other = vec![request(1 << 10, 4, 2, 11)];
        match engine(1).resume_from(&other, &mut journal, &JournalOptions::default()) {
            Err(CusFftError::Journal { reason }) => {
                assert!(reason.contains("different batch"), "{reason}");
            }
            other => panic!("expected a journal error, got {other:?}"),
        }
    }

    #[test]
    fn resume_of_a_completed_run_re_executes_nothing() {
        let reqs: Vec<ServeRequest> = (0..4)
            .map(|i| request(1 << 10, 4, 50 + i as u64, 3 * i as u64))
            .collect();
        let mut journal = Journal::new();
        let full = engine(2)
            .serve_journaled(&reqs, &mut journal, &JournalOptions::default())
            .into_report()
            .expect("completes");
        let resumed = engine(2)
            .resume_from(&reqs, &mut journal, &JournalOptions::default())
            .expect("valid journal")
            .into_report()
            .expect("completes");
        assert_eq!(full.outcomes, resumed.outcomes);
        let jt = resumed.journal.expect("tally");
        assert_eq!(jt.groups_executed, 0, "nothing left to run");
        assert_eq!(jt.requests_recovered, reqs.len() as u64);
        assert_eq!(resumed.makespan, 0.0, "no simulated work on resume");
    }
}

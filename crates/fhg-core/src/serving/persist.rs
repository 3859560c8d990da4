//! Durable serving: checksummed snapshots plus an event write-ahead log,
//! with torn-write recovery.
//!
//! A [`ProfileService`] is rebuilt from two files in a snapshot directory,
//! both framed by the section grammar of [`fhg_codes::wire`] (every frame
//! is `tag | len:u32le | payload | fnv64:u64le`, checksum covering the
//! whole frame):
//!
//! # Snapshot file (`snapshot.fhg`)
//!
//! ```text
//! snapshot := magic "FHGSNAP1" (8 bytes; last byte is the format version)
//!             META
//!             (SLOT_CONTENT SLOT_PROFILE)*   one pair per slot, key-sorted
//!             END                            empty-payload completion marker
//! ```
//!
//! Section payloads are MSB-first bit streams ([`wire::BitSink`]): fixed
//! 64-bit fields for keys/starts/holidays, Elias gamma for every count,
//! modulus, slot and node id (`γ0` denotes the `value+1` shift that admits
//! zero).  All layouts are endian-stable — no host integer is ever written
//! raw.
//!
//! * `META`         — `next_private_key:64 | slot_count:γ0 | tenant_count:γ0`
//! * `SLOT_CONTENT` — `key:64 | start:64 | private:1 | name_len:γ0 |
//!   name_bytes | view_n:γ0 | (modulus:γ slot:γ0)^view_n | graph_n:γ0 |
//!   (upper_deg:γ0 (delta:γ)^upper_deg)^graph_n | tenant_count:γ0 |
//!   (tenant:64)^count` — the graph is stored as each node's
//!   higher-numbered neighbours, ascending, delta-coded (first delta is
//!   `v−u`), so an edge costs one gamma codeword instead of two `u64`s.
//! * `SLOT_PROFILE` — `key:64 | state:3` where state is 0 Building,
//!   1 Warm (followed by `all_independent:1`), 2–5 Quarantined
//!   (PatchPanic, BuildPanic, AuditMismatch, RecoveryMismatch).  A warm
//!   profile stores **no offset rows, sizes or summaries**: everything but the
//!   verdict bit is a pure function of `(view, start, node_count)` and is
//!   reconstructed by [`CycleProfile::rehydrate`] in `O(n)` — recovery
//!   never cold-builds an uncorrupted slot.
//! * `END`          — the atomic-completion marker; a snapshot without it
//!   is torn and only its readable prefix is salvaged.
//!
//! The snapshot is written atomically: temp file, `fsync`, rename, `fsync`
//! of the directory — the same pattern the bench binary uses for
//! `BENCH_analysis.json` — so a crash leaves either the old snapshot or
//! the new one, never a mix.
//!
//! # WAL file (`wal.fhg`)
//!
//! ```text
//! wal   := magic "FHGWAL01" frame*
//! frame := section(tag = WAL_FRAME) with payload:
//!          tenant:64 | kind:1 | u:γ0 | v:γ0 | holiday:64 |
//!          n_changes:γ0 | (node:γ0 old_slot:γ0 old_modulus:γ0
//!                          new_slot:γ0 new_modulus:γ0)^n_changes
//! ```
//!
//! [`WalWriter::append`] encodes one [`EventRepair`] per frame into a
//! reusable sink (steady-state appends allocate nothing — proved by
//! `tests/zero_alloc.rs`) and syncs per the [`wal_sync`] policy
//! (`FHG_WAL_SYNC`).  The intended protocol: `snapshot()` then
//! [`WalWriter::truncate`]; on every live event, `append` **first**, and
//! only on `Ok` apply the event to the live service — so the log is always
//! a superset of the applied events and replay converges.
//!
//! # Recovery state machine
//!
//! [`ProfileService::recover`] walks:
//!
//! 1. **Load** the snapshot.  Missing file, short/foreign magic or an
//!    unknown version are typed [`RecoverError`]s.  Section scan: a
//!    `Corrupt` frame (checksum mismatch, in-bounds length) is skipped and
//!    counted; a `Torn` tail or missing `END` stops the scan and salvages
//!    the prefix ([`RecoveryReport::snapshot_torn`]).
//! 2. **Assemble** slots.  A slot whose content decodes but whose cycle
//!    budget no longer validates is dropped (its tenants simply aren't
//!    restored — queries get the typed `UnknownTenant`).  A content section
//!    without a matching readable profile section comes back
//!    [`Quarantined`](super::SlotState::Quarantined) with
//!    [`QuarantineReason::RecoveryMismatch`] — content is intact, so
//!    [`ProfileService::repair_quarantined`] rebuilds it.  Warm slots are
//!    **rehydrated**, not rebuilt.
//! 3. **Replay** the WAL through the live [`ProfileService::patch`] plane.
//!    A frame for an unknown tenant is skipped and counted.  A frame that
//!    faults (a `recover.replay` failpoint, a panic, a graph/budget
//!    mismatch) quarantines its tenant with `RecoveryMismatch` and stops
//!    replaying that tenant — its slot content stays a clean prefix of the
//!    log, so a later fault-free `recover` from the same directory
//!    converges.  A torn or corrupt WAL tail truncates the file on disk at
//!    the last intact frame boundary and stops.
//! 4. **Audit** a sample ([`ProfileService::audit_step`] with the
//!    `FHG_AUDIT_STEP` batch) before returning, so silently-wrong verdicts
//!    are caught before the service serves.
//!
//! Corruption anywhere takes one of those typed degraded paths; recovery
//! never panics on any byte stream (fuzzed in the unit tests below, and
//! exercised at every section boundary / byte offset by `tests/chaos.rs`).
//!
//! # Failpoints and knobs
//!
//! Sites `wal.append`, `snapshot.write` and `recover.replay` participate
//! in `FHG_FAILPOINTS`.  `FHG_SNAPSHOT_DIR` ([`snapshot_dir`]) names the
//! default directory for serving loops that persist; `FHG_WAL_SYNC`
//! ([`wal_sync`]) picks the append durability policy — both under the
//! warn-and-fall-back contract.

use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use fhg_codes::wire::{self, BitSink, BitSource, SectionRead};
use fhg_codes::Progression;
use fhg_graph::{EdgeEvent, EdgeEventKind, Graph};

use super::{
    audit_step_size, CycleProfile, EventRepair, PatchError, ProfileService, ProfileSlot,
    QuarantineReason, ResidueSchedule, RowChange, SlotState,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::OnceLock;

/// Snapshot file name inside the snapshot directory.
pub const SNAPSHOT_FILE: &str = "snapshot.fhg";
/// Temp name the snapshot is staged under before the atomic rename.
const SNAPSHOT_TMP: &str = "snapshot.fhg.tmp";
/// WAL file name inside the snapshot directory.
pub const WAL_FILE: &str = "wal.fhg";

/// Snapshot magic; the trailing byte is the format version.
const SNAPSHOT_MAGIC: [u8; 8] = *b"FHGSNAP1";
/// WAL magic (versioned the same way).
const WAL_MAGIC: [u8; 8] = *b"FHGWAL01";

const TAG_META: u8 = 0x01;
const TAG_SLOT_CONTENT: u8 = 0x02;
const TAG_SLOT_PROFILE: u8 = 0x03;
const TAG_END: u8 = 0x7F;
const TAG_WAL_FRAME: u8 = 0x10;

/// Default WAL append durability: sync every frame.
pub const WAL_SYNC: WalSync = WalSync::Always;

/// WAL append durability policy — see [`wal_sync`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalSync {
    /// `fdatasync` after every appended frame: an acknowledged event
    /// survives an immediate crash.
    Always,
    /// No per-append sync: the tail may be torn on crash (recovery
    /// truncates it), in exchange for append throughput.
    Never,
}

/// The WAL durability policy, decided once per process and cached in a
/// `OnceLock`: the `FHG_WAL_SYNC` environment variable (`always` /
/// `never`, case-insensitive) when set, otherwise [`WAL_SYNC`].
///
/// Same warn-and-fall-back contract as every other `FHG_*` knob: a
/// malformed value logs one warning to stderr and falls back to the
/// default (pinned by the unit tests below).
pub fn wal_sync() -> WalSync {
    static SYNC: OnceLock<WalSync> = OnceLock::new();
    *SYNC.get_or_init(|| parse_wal_sync(std::env::var("FHG_WAL_SYNC").ok().as_deref()))
}

/// Parses the `FHG_WAL_SYNC` override (factored out of [`wal_sync`] so the
/// fallback policy is testable despite the process-wide cache).
fn parse_wal_sync(raw: Option<&str>) -> WalSync {
    match raw {
        None => WAL_SYNC,
        Some(raw) if raw.trim().is_empty() => WAL_SYNC,
        Some(raw) => match raw.trim().to_ascii_lowercase().as_str() {
            "always" => WalSync::Always,
            "never" => WalSync::Never,
            _ => {
                eprintln!(
                    "warning: FHG_WAL_SYNC={raw:?} is not \"always\" or \"never\"; \
                     using the default (always)"
                );
                WAL_SYNC
            }
        },
    }
}

/// The default snapshot directory, decided once per process and cached in
/// a `OnceLock`: the `FHG_SNAPSHOT_DIR` environment variable when set and
/// non-empty, otherwise `None` — persistence is strictly opt-in, so a
/// service with no directory configured never touches the filesystem.
/// (Every string is a valid path, so unlike the numeric knobs there is no
/// malformed case to warn about; empty/whitespace disables.)
pub fn snapshot_dir() -> Option<PathBuf> {
    static DIR: OnceLock<Option<PathBuf>> = OnceLock::new();
    DIR.get_or_init(|| parse_snapshot_dir(std::env::var("FHG_SNAPSHOT_DIR").ok().as_deref()))
        .clone()
}

/// Parses the `FHG_SNAPSHOT_DIR` setting (factored out of [`snapshot_dir`]
/// so the policy is testable despite the process-wide cache).
fn parse_snapshot_dir(raw: Option<&str>) -> Option<PathBuf> {
    match raw {
        None => None,
        Some(raw) if raw.trim().is_empty() => None,
        Some(raw) => Some(PathBuf::from(raw.trim())),
    }
}

/// What [`ProfileService::snapshot`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Total snapshot size on disk, in bytes.
    pub bytes: u64,
    /// Slots persisted.
    pub slots: usize,
    /// Tenant bindings persisted.
    pub tenants: usize,
}

/// Why [`ProfileService::recover`] could not even start: the snapshot file
/// is absent or not ours.  Everything *past* these checks degrades
/// per-section/per-slot instead of failing the whole recovery — see the
/// module docs.
#[derive(Debug)]
pub enum RecoverError {
    /// The snapshot directory has no snapshot file.
    MissingSnapshot(PathBuf),
    /// The snapshot file could not be read.
    Io(io::Error),
    /// The file does not start with the snapshot magic — not ours.
    BadMagic,
    /// The magic matched but the version byte is from a future format.
    UnsupportedVersion(u8),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::MissingSnapshot(dir) => {
                write!(f, "no snapshot at {}", dir.display())
            }
            RecoverError::Io(e) => write!(f, "snapshot unreadable: {e}"),
            RecoverError::BadMagic => write!(f, "snapshot magic mismatch (not an FHG snapshot)"),
            RecoverError::UnsupportedVersion(v) => {
                write!(f, "snapshot format version {:?} is not supported", *v as char)
            }
        }
    }
}

impl std::error::Error for RecoverError {}

/// What [`ProfileService::recover`] found and did — every degraded path is
/// visible here, so operators can distinguish "clean restart" from
/// "salvaged what we could".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Slots restored from the snapshot.
    pub slots_loaded: usize,
    /// Tenant bindings restored.
    pub tenants_restored: usize,
    /// Warm profiles reconstructed via [`CycleProfile::rehydrate`] (never
    /// a cold build).
    pub profiles_rehydrated: usize,
    /// Snapshot sections dropped: checksum-corrupt frames, duplicate or
    /// undecodable slots, unknown tags.
    pub sections_dropped: usize,
    /// Whether the snapshot ended mid-frame or without its END marker
    /// (the readable prefix was salvaged).
    pub snapshot_torn: bool,
    /// WAL frames applied through the patch plane.
    pub wal_frames_replayed: usize,
    /// WAL frames skipped: unknown tenants, or tenants already failed by
    /// an earlier frame this recovery.
    pub wal_frames_skipped: usize,
    /// Whether the WAL had a torn or corrupt tail.
    pub wal_torn: bool,
    /// Byte offset the WAL was physically truncated to, when it was.
    pub wal_truncated_to: Option<u64>,
    /// Slots left quarantined after recovery (any reason).
    pub quarantined: usize,
    /// Warm slots re-verified by the closing audit sample.
    pub audited: usize,
}

/// Append-only writer for the event WAL.  One long-lived instance per
/// snapshot directory; the encode sink and frame buffer are reused, so
/// steady-state appends perform zero heap allocations.
pub struct WalWriter {
    file: File,
    path: PathBuf,
    sink: BitSink,
    frame: Vec<u8>,
    sync: WalSync,
    frames: u64,
}

impl WalWriter {
    /// Opens (creating if needed) the WAL in `dir`, appending after any
    /// existing frames, with the environment-tuned [`wal_sync`] policy.
    pub fn create(dir: &Path) -> io::Result<Self> {
        Self::with_sync(dir, wal_sync())
    }

    /// [`WalWriter::create`] with an explicit durability policy.
    pub fn with_sync(dir: &Path, sync: WalSync) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE);
        let mut file = OpenOptions::new().append(true).create(true).open(&path)?;
        if file.metadata()?.len() == 0 {
            file.write_all(&WAL_MAGIC)?;
            file.sync_data()?;
        }
        Ok(WalWriter { file, path, sink: BitSink::new(), frame: Vec::new(), sync, frames: 0 })
    }

    /// Appends one event frame.  Fails *before* touching the file (the
    /// `wal.append` failpoint, or any I/O error from the write itself
    /// leaves at worst a torn tail that recovery truncates).  On `Err` the
    /// caller must **not** apply the event to the live service — the log
    /// must stay a superset of applied events.
    pub fn append(&mut self, tenant: u64, repair: &EventRepair) -> io::Result<()> {
        crate::fail_point!("wal.append", return Err(io::Error::other("injected wal.append fault")));
        self.sink.clear();
        encode_frame(&mut self.sink, tenant, repair);
        self.frame.clear();
        wire::write_section(&mut self.frame, TAG_WAL_FRAME, self.sink.bytes());
        self.file.write_all(&self.frame)?;
        if self.sync == WalSync::Always {
            self.file.sync_data()?;
        }
        self.frames += 1;
        Ok(())
    }

    /// Resets the log to empty (magic only) — called right after a
    /// successful snapshot, which supersedes every logged event.
    pub fn truncate(&mut self) -> io::Result<()> {
        self.file.set_len(WAL_MAGIC.len() as u64)?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Frames appended through this writer (not counting pre-existing
    /// frames in the file).
    pub fn frames_appended(&self) -> u64 {
        self.frames
    }

    /// The WAL file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn encode_frame(sink: &mut BitSink, tenant: u64, repair: &EventRepair) {
    let event = repair.event;
    sink.put_u64(tenant);
    sink.push_bit(event.kind == EdgeEventKind::Delete);
    sink.put_gamma0(event.u as u64);
    sink.put_gamma0(event.v as u64);
    sink.put_u64(event.holiday);
    let changes = repair.row_changes();
    sink.put_gamma0(changes.len() as u64);
    for c in changes {
        sink.put_gamma0(c.node as u64);
        for row in [c.old, c.new] {
            sink.put_gamma0(row.slot);
            sink.put_gamma0(row.modulus);
        }
    }
}

fn decode_frame(payload: &[u8]) -> Option<(u64, EventRepair)> {
    let mut r = BitSource::new(payload);
    let tenant = r.get_u64()?;
    let kind = if r.read_bit()? { EdgeEventKind::Delete } else { EdgeEventKind::Insert };
    let u = usize::try_from(r.get_gamma0()?).ok()?;
    let v = usize::try_from(r.get_gamma0()?).ok()?;
    let holiday = r.get_u64()?;
    let n = r.get_gamma0()?;
    if n > 2 {
        return None;
    }
    let mut changes = [RowChange::default(); 2];
    for c in changes.iter_mut().take(n as usize) {
        c.node = usize::try_from(r.get_gamma0()?).ok()?;
        c.old = Progression { slot: r.get_gamma0()?, modulus: r.get_gamma0()? };
        c.new = Progression { slot: r.get_gamma0()?, modulus: r.get_gamma0()? };
    }
    let event = EdgeEvent { kind, u, v, holiday };
    Some((tenant, EventRepair::from_parts(event, &changes[..n as usize])))
}

/// A slot decoded from the snapshot, before assembly into a service.
struct PendingSlot {
    key: u64,
    start: u64,
    private: bool,
    name: String,
    view: ResidueSchedule,
    graph: Graph,
    tenants: Vec<u64>,
}

/// The profile-state half of a slot, decoded from its `SLOT_PROFILE`
/// section.
enum PendingState {
    Building,
    Warm { all_independent: bool },
    Quarantined(QuarantineReason),
}

fn encode_slot_content(sink: &mut BitSink, key: u64, slot: &ProfileSlot, tenants: &[u64]) {
    sink.put_u64(key);
    sink.put_u64(slot.start);
    sink.push_bit(slot.private);
    sink.put_gamma0(slot.name.len() as u64);
    sink.put_bytes(slot.name.as_bytes());
    let view = &slot.view;
    sink.put_gamma0(view.node_count() as u64);
    for p in 0..view.node_count() {
        sink.put_gamma(view.modulus(p));
        sink.put_gamma0(view.slot(p));
    }
    let graph = &slot.graph;
    let n = graph.node_count();
    sink.put_gamma0(n as u64);
    for u in 0..n {
        let uppers = graph.neighbors_above(u);
        sink.put_gamma0(uppers.len() as u64);
        let mut prev = u;
        for &v in uppers {
            sink.put_gamma((v - prev) as u64);
            prev = v;
        }
    }
    sink.put_gamma0(tenants.len() as u64);
    for &t in tenants {
        sink.put_u64(t);
    }
}

fn decode_slot_content(payload: &[u8]) -> Option<PendingSlot> {
    let mut r = BitSource::new(payload);
    let key = r.get_u64()?;
    let start = r.get_u64()?;
    let private = r.read_bit()?;
    let name_len = usize::try_from(r.get_gamma0()?).ok()?;
    if name_len > r.remaining_bits() / 8 {
        return None;
    }
    let mut name_bytes = Vec::with_capacity(name_len);
    for _ in 0..name_len {
        name_bytes.push(r.read_bits(8)? as u8);
    }
    let name = String::from_utf8(name_bytes).ok()?;

    let view_n = usize::try_from(r.get_gamma0()?).ok()?;
    // Anti-bomb guard: every node costs at least 2 bits, so a count beyond
    // the remaining stream is a forged length, not data.
    if view_n > r.remaining_bits() {
        return None;
    }
    let mut slots = Vec::new();
    let mut moduli = Vec::new();
    for _ in 0..view_n {
        let m = r.get_gamma()?;
        let s = r.get_gamma0()?;
        if s >= m {
            return None;
        }
        moduli.push(m);
        slots.push(s);
    }

    let graph_n = usize::try_from(r.get_gamma0()?).ok()?;
    if graph_n > r.remaining_bits() {
        return None;
    }
    // Each node lists its upper neighbours by strictly positive gaps, so
    // the edges arrive distinct, loop-free and in lexicographic order.
    let mut edges = Vec::new();
    for u in 0..graph_n {
        let deg = usize::try_from(r.get_gamma0()?).ok()?;
        if deg > r.remaining_bits() {
            return None;
        }
        let mut v = u as u64;
        for _ in 0..deg {
            v = v.checked_add(r.get_gamma()?)?;
            let v = usize::try_from(v).ok()?;
            if v >= graph_n {
                return None;
            }
            edges.push((u, v));
        }
    }
    let graph = Graph::from_edges(graph_n, edges).ok()?;

    let tenant_count = usize::try_from(r.get_gamma0()?).ok()?;
    if tenant_count > r.remaining_bits() / 64 {
        return None;
    }
    let mut tenants = Vec::with_capacity(tenant_count);
    for _ in 0..tenant_count {
        tenants.push(r.get_u64()?);
    }

    // Slot/modulus pairs were validated above, so this constructor's
    // asserts cannot fire.
    let view = ResidueSchedule::new(slots, moduli);
    Some(PendingSlot { key, start, private, name, view, graph, tenants })
}

fn encode_slot_profile(sink: &mut BitSink, key: u64, state: &SlotState) {
    sink.put_u64(key);
    match state {
        SlotState::Building => sink.put_bits(0, 3),
        SlotState::Warm(profile) => {
            sink.put_bits(1, 3);
            sink.push_bit(profile.all_classes_independent());
        }
        SlotState::Quarantined(reason) => {
            let code = match reason {
                QuarantineReason::PatchPanic => 2,
                QuarantineReason::BuildPanic => 3,
                QuarantineReason::AuditMismatch => 4,
                QuarantineReason::RecoveryMismatch => 5,
            };
            sink.put_bits(code, 3);
        }
    }
}

fn decode_slot_profile(payload: &[u8]) -> Option<(u64, PendingState)> {
    let mut r = BitSource::new(payload);
    let key = r.get_u64()?;
    let state = match r.read_bits(3)? {
        0 => PendingState::Building,
        1 => PendingState::Warm { all_independent: r.read_bit()? },
        2 => PendingState::Quarantined(QuarantineReason::PatchPanic),
        3 => PendingState::Quarantined(QuarantineReason::BuildPanic),
        4 => PendingState::Quarantined(QuarantineReason::AuditMismatch),
        5 => PendingState::Quarantined(QuarantineReason::RecoveryMismatch),
        _ => return None,
    };
    Some((key, state))
}

impl ProfileService {
    /// Serialises the whole service into the snapshot byte format (see the
    /// module docs).  Public so size accounting (the e19 bytes-per-tenant
    /// criterion) can measure without touching the filesystem.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut by_key: HashMap<u64, Vec<u64>> = HashMap::new();
        for (&tenant, &key) in &self.tenants {
            by_key.entry(key).or_default().push(tenant);
        }
        let mut keys: Vec<u64> = self.slots.keys().copied().collect();
        keys.sort_unstable();

        let mut out = Vec::new();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        let mut sink = BitSink::new();
        sink.put_u64(self.next_private_key);
        sink.put_gamma0(self.slots.len() as u64);
        sink.put_gamma0(self.tenants.len() as u64);
        wire::write_section(&mut out, TAG_META, sink.bytes());

        for key in keys {
            let slot = &self.slots[&key];
            let mut tenants = by_key.remove(&key).unwrap_or_default();
            tenants.sort_unstable();
            sink.clear();
            encode_slot_content(&mut sink, key, slot, &tenants);
            wire::write_section(&mut out, TAG_SLOT_CONTENT, sink.bytes());
            sink.clear();
            encode_slot_profile(&mut sink, key, &slot.state);
            wire::write_section(&mut out, TAG_SLOT_PROFILE, sink.bytes());
        }
        wire::write_section(&mut out, TAG_END, &[]);
        out
    }

    /// Writes a checksummed snapshot of the whole service to
    /// `dir/snapshot.fhg`, atomically: staged to a temp file, synced,
    /// renamed over the previous snapshot, directory synced.  A failure
    /// anywhere (including the injected `snapshot.write` fault) removes
    /// the temp file and leaves any previous snapshot untouched.
    pub fn snapshot(&self, dir: &Path) -> io::Result<SnapshotStats> {
        crate::fail_point!(
            "snapshot.write",
            return Err(io::Error::other("injected snapshot.write fault"))
        );
        let bytes = self.snapshot_bytes();
        fs::create_dir_all(dir)?;
        let tmp = dir.join(SNAPSHOT_TMP);
        let path = dir.join(SNAPSHOT_FILE);
        let staged = File::create(&tmp)
            .and_then(|mut f| f.write_all(&bytes).and_then(|()| f.sync_all()))
            .and_then(|()| fs::rename(&tmp, &path))
            .and_then(|()| File::open(dir).and_then(|d| d.sync_all()));
        if let Err(e) = staged {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        Ok(SnapshotStats {
            bytes: bytes.len() as u64,
            slots: self.slots.len(),
            tenants: self.tenants.len(),
        })
    }

    /// Rebuilds a service from `dir`: load + verify the snapshot, rehydrate
    /// warm profiles, replay the WAL through the patch plane, audit a
    /// sample — the full recovery state machine described in the module
    /// docs.  Only a missing/foreign/unreadable snapshot fails the call;
    /// all other corruption degrades per-slot into the typed paths
    /// recorded in the returned [`RecoveryReport`].
    pub fn recover(dir: &Path) -> Result<(ProfileService, RecoveryReport), RecoverError> {
        let snap_path = dir.join(SNAPSHOT_FILE);
        let bytes = fs::read(&snap_path).map_err(|e| {
            if e.kind() == io::ErrorKind::NotFound {
                RecoverError::MissingSnapshot(dir.to_path_buf())
            } else {
                RecoverError::Io(e)
            }
        })?;
        if bytes.len() < SNAPSHOT_MAGIC.len() || bytes[..7] != SNAPSHOT_MAGIC[..7] {
            return Err(RecoverError::BadMagic);
        }
        if bytes[7] != SNAPSHOT_MAGIC[7] {
            return Err(RecoverError::UnsupportedVersion(bytes[7]));
        }

        let mut report = RecoveryReport::default();
        let mut contents: Vec<PendingSlot> = Vec::new();
        let mut states: HashMap<u64, PendingState> = HashMap::new();
        let mut seen_keys: HashSet<u64> = HashSet::new();
        let mut next_private_key = 0u64;
        let mut saw_end = false;

        let mut pos = SNAPSHOT_MAGIC.len();
        loop {
            match wire::read_section(&bytes, pos) {
                SectionRead::End => break,
                SectionRead::Torn => {
                    report.snapshot_torn = true;
                    break;
                }
                SectionRead::Corrupt { skip_to } => {
                    report.sections_dropped += 1;
                    pos = skip_to;
                }
                SectionRead::Section { tag, payload, end } => {
                    pos = end;
                    match tag {
                        TAG_META => {
                            let mut r = BitSource::new(payload);
                            if let Some(npk) = r.get_u64() {
                                next_private_key = npk;
                            }
                        }
                        TAG_SLOT_CONTENT => match decode_slot_content(payload) {
                            Some(pending) if seen_keys.insert(pending.key) => {
                                contents.push(pending);
                            }
                            _ => report.sections_dropped += 1,
                        },
                        TAG_SLOT_PROFILE => match decode_slot_profile(payload) {
                            Some((key, state)) => {
                                states.insert(key, state);
                            }
                            None => report.sections_dropped += 1,
                        },
                        TAG_END => {
                            saw_end = true;
                            break;
                        }
                        _ => report.sections_dropped += 1,
                    }
                }
            }
        }
        if !saw_end {
            report.snapshot_torn = true;
        }

        // Assemble: every decoded slot either restores (warm slots
        // rehydrated — never cold-built), survives quarantined, or is
        // dropped when its cycle budget no longer validates.
        let mut svc = ProfileService::new();
        svc.next_private_key = next_private_key;
        for pending in contents {
            if pending.view.cycle() > CycleProfile::MAX_CYCLE {
                report.sections_dropped += 1;
                continue;
            }
            let mut bound = 0usize;
            for &tenant in &pending.tenants {
                if let std::collections::hash_map::Entry::Vacant(e) = svc.tenants.entry(tenant) {
                    e.insert(pending.key);
                    bound += 1;
                }
            }
            if bound == 0 {
                report.sections_dropped += 1;
                continue;
            }
            let state = match states.get(&pending.key) {
                Some(PendingState::Warm { all_independent }) => {
                    report.profiles_rehydrated += 1;
                    SlotState::Warm(CycleProfile::rehydrate(
                        &pending.view,
                        pending.start,
                        pending.graph.node_count(),
                        *all_independent,
                    ))
                }
                Some(PendingState::Building) => SlotState::Building,
                Some(PendingState::Quarantined(reason)) => SlotState::Quarantined(*reason),
                // Content without a readable profile section: the torn /
                // corrupt half of a slot pair — typed quarantine, content
                // is intact so repair_quarantined rebuilds it.
                None => SlotState::Quarantined(QuarantineReason::RecoveryMismatch),
            };
            svc.slots.insert(
                pending.key,
                ProfileSlot {
                    graph: pending.graph,
                    view: pending.view,
                    start: pending.start,
                    name: pending.name,
                    state,
                    refs: bound,
                    private: pending.private,
                },
            );
            report.slots_loaded += 1;
            report.tenants_restored += bound;
        }

        Self::replay_wal(&mut svc, dir, &mut report);

        report.audited = svc.audit_step(audit_step_size());
        report.quarantined = svc.quarantined_count();
        Ok((svc, report))
    }

    /// Replays `dir/wal.fhg` through the patch plane — step 3 of the
    /// recovery state machine.
    fn replay_wal(svc: &mut ProfileService, dir: &Path, report: &mut RecoveryReport) {
        let wal_path = dir.join(WAL_FILE);
        let Ok(bytes) = fs::read(&wal_path) else {
            return;
        };
        if bytes.len() < WAL_MAGIC.len() || bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            report.wal_torn = !bytes.is_empty();
            return;
        }

        enum Replayed {
            Applied,
            Skipped,
            Fault,
        }
        let mut failed: HashSet<u64> = HashSet::new();
        let mut pos = WAL_MAGIC.len();
        loop {
            let frame_start = pos;
            match wire::read_section(&bytes, pos) {
                SectionRead::End => break,
                SectionRead::Torn | SectionRead::Corrupt { .. } => {
                    // The tail cannot be trusted past the last intact
                    // frame: truncate it on disk so the next recovery (and
                    // any writer re-opened in append mode) starts from a
                    // clean boundary.
                    report.wal_torn = true;
                    report.wal_truncated_to = Some(frame_start as u64);
                    let _ = OpenOptions::new().write(true).open(&wal_path).and_then(|f| {
                        f.set_len(frame_start as u64)?;
                        f.sync_data()
                    });
                    break;
                }
                SectionRead::Section { tag, payload, end } => {
                    pos = end;
                    if tag != TAG_WAL_FRAME {
                        report.sections_dropped += 1;
                        continue;
                    }
                    let Some((tenant, repair)) = decode_frame(payload) else {
                        // Checksum-intact but grammar-invalid: treat like a
                        // corrupt tail — nothing after a mis-encoded frame
                        // can be ordered against the live state.
                        report.wal_torn = true;
                        report.wal_truncated_to = Some(frame_start as u64);
                        let _ = OpenOptions::new().write(true).open(&wal_path).and_then(|f| {
                            f.set_len(frame_start as u64)?;
                            f.sync_data()
                        });
                        break;
                    };
                    if failed.contains(&tenant) {
                        report.wal_frames_skipped += 1;
                        continue;
                    }
                    let attempt = catch_unwind(AssertUnwindSafe(|| {
                        crate::fail_point!("recover.replay", return Replayed::Fault);
                        match svc.patch(tenant, &repair) {
                            Ok(_) => Replayed::Applied,
                            // A quarantined slot still absorbed the content
                            // change — replay stays convergent.
                            Err(PatchError::Quarantined(_)) => Replayed::Applied,
                            Err(PatchError::UnknownTenant(_)) => Replayed::Skipped,
                            // Graph/budget mismatch: the frame does not
                            // apply to the recovered content.
                            Err(_) => Replayed::Fault,
                        }
                    }));
                    match attempt {
                        Ok(Replayed::Applied) => report.wal_frames_replayed += 1,
                        Ok(Replayed::Skipped) => report.wal_frames_skipped += 1,
                        Ok(Replayed::Fault) | Err(_) => {
                            // Typed degraded path: quarantine the tenant and
                            // stop replaying its frames, leaving its content
                            // at a clean prefix of the log — a later
                            // fault-free recover from the same directory
                            // converges to the full oracle.
                            if let Some(&key) = svc.tenants.get(&tenant) {
                                if let Some(slot) = svc.slots.get_mut(&key) {
                                    if !matches!(slot.state, SlotState::Quarantined(_)) {
                                        svc.counters.quarantines.fetch_add(1, Relaxed);
                                    }
                                    slot.state =
                                        SlotState::Quarantined(QuarantineReason::RecoveryMismatch);
                                }
                            }
                            failed.insert(tenant);
                            report.wal_frames_skipped += 1;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests_support::Fixed;
    use super::*;
    use crate::dynamic::DynamicColorBound;
    use crate::scheduler::Scheduler;
    use crate::schedulers::PeriodicDegreeBound;
    use fhg_graph::generators::erdos_renyi;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("fhg-persist-{}-{tag}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("temp dir");
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn wal_sync_knob_warns_and_falls_back() {
        assert_eq!(parse_wal_sync(None), WalSync::Always);
        assert_eq!(parse_wal_sync(Some("")), WalSync::Always);
        assert_eq!(parse_wal_sync(Some("always")), WalSync::Always);
        assert_eq!(parse_wal_sync(Some("ALWAYS")), WalSync::Always);
        assert_eq!(parse_wal_sync(Some(" never ")), WalSync::Never);
        assert_eq!(parse_wal_sync(Some("fsync-sometimes")), WalSync::Always);
    }

    #[test]
    fn snapshot_dir_knob_is_opt_in() {
        assert_eq!(parse_snapshot_dir(None), None);
        assert_eq!(parse_snapshot_dir(Some("")), None);
        assert_eq!(parse_snapshot_dir(Some("   ")), None);
        assert_eq!(parse_snapshot_dir(Some("/var/lib/fhg")), Some(PathBuf::from("/var/lib/fhg")));
    }

    #[test]
    fn snapshot_recover_round_trip_is_bitwise_stable() {
        let dir = TempDir::new("roundtrip");
        let mut svc = ProfileService::new();
        let mut graphs = Vec::new();
        for i in 0..6u64 {
            let g = erdos_renyi(20 + i as usize, 0.15, 100 + i);
            svc.register(i, &g, &PeriodicDegreeBound::new(&g)).expect("register");
            graphs.push(g);
        }
        // Tenant 6 shares tenant 0's content — one slot, two tenants.
        svc.register(6, &graphs[0], &PeriodicDegreeBound::new(&graphs[0])).expect("register");
        svc.build_pending();
        let stats = svc.snapshot(dir.path()).expect("snapshot");
        assert_eq!(stats.tenants, 7);
        assert_eq!(stats.slots, 6);

        let (recovered, report) = ProfileService::recover(dir.path()).expect("recover");
        assert_eq!(report.tenants_restored, 7);
        assert_eq!(report.slots_loaded, 6);
        assert_eq!(report.profiles_rehydrated, 6);
        assert!(!report.snapshot_torn && !report.wal_torn);
        assert_eq!(report.quarantined, 0);
        assert_eq!(recovered.stats().rebuilds, 0, "recovery must never cold-build");
        for t in 0..7u64 {
            let h = recovered.profile(t).expect("warm").cycle() * 2;
            assert_eq!(svc.query_totals(t, 1, h), recovered.query_totals(t, 1, h), "tenant {t}");
            assert!(recovered.profile(t).unwrap().content_eq(svc.profile(t).unwrap()));
        }
        // Idempotent: a snapshot of the recovered service is byte-identical.
        assert_eq!(svc.snapshot_bytes(), recovered.snapshot_bytes());
    }

    #[test]
    fn wal_replay_converges_with_the_live_service() {
        let dir = TempDir::new("wal-replay");
        let g = erdos_renyi(24, 0.12, 42);
        let mut sched = DynamicColorBound::new(&g);
        let mut svc = ProfileService::new();
        svc.register(1, sched.graph(), &sched).expect("register");
        let initial_builds = svc.build_pending() as u64;
        svc.snapshot(dir.path()).expect("snapshot");

        let mut wal = WalWriter::with_sync(dir.path(), WalSync::Never).expect("wal");
        // Toggle an absent edge a few times: insert/delete pairs that patch
        // in place.
        let (u, v) = {
            let mut pick = (0, 1);
            'outer: for u in 0..g.node_count() {
                for v in (u + 1)..g.node_count() {
                    if !g.has_edge(u, v) {
                        pick = (u, v);
                        break 'outer;
                    }
                }
            }
            pick
        };
        for holiday in 0..6u64 {
            let kind = if holiday % 2 == 0 { EdgeEventKind::Insert } else { EdgeEventKind::Delete };
            let repair =
                sched.apply_event(EdgeEvent { kind, u, v, holiday }).expect("event applies");
            wal.append(1, &repair).expect("append");
            svc.patch(1, &repair).expect("live patch");
        }
        assert_eq!(wal.frames_appended(), 6);

        let (recovered, report) = ProfileService::recover(dir.path()).expect("recover");
        assert_eq!(report.wal_frames_replayed, 6);
        assert_eq!(report.wal_frames_skipped, 0);
        assert!(!report.wal_torn);
        let h = recovered.profile(1).expect("warm").cycle() * 3;
        assert_eq!(svc.query_totals(1, 0, h), recovered.query_totals(1, 0, h));
        assert!(recovered.profile(1).unwrap().content_eq(svc.profile(1).unwrap()));
        // Replay takes the same patch-vs-rebuild decisions the live
        // service took, and recovery itself added no cold build on top
        // (`build_pending` counts its builds into `rebuilds`, replay
        // rebuilds only where the live patch rebuilt).
        assert_eq!(recovered.stats().rebuilds, svc.stats().rebuilds - initial_builds);
        assert_eq!(recovered.stats().patches, svc.stats().patches);
    }

    #[test]
    fn recover_is_total_on_garbage_files() {
        let dir = TempDir::new("garbage");
        // Missing snapshot is typed.
        assert!(matches!(
            ProfileService::recover(dir.path()),
            Err(RecoverError::MissingSnapshot(_))
        ));
        // Foreign magic is typed.
        fs::write(dir.path().join(SNAPSHOT_FILE), b"NOTASNAP-extra-bytes").unwrap();
        assert!(matches!(ProfileService::recover(dir.path()), Err(RecoverError::BadMagic)));
        // Future version is typed.
        fs::write(dir.path().join(SNAPSHOT_FILE), b"FHGSNAP9").unwrap();
        assert!(matches!(
            ProfileService::recover(dir.path()),
            Err(RecoverError::UnsupportedVersion(b'9'))
        ));
        // Magic followed by arbitrary garbage: salvaged empty, torn, no
        // panic — and a garbage WAL on the side is tolerated too.
        let mut junk = SNAPSHOT_MAGIC.to_vec();
        junk.extend((0..255u8).cycle().take(333));
        fs::write(dir.path().join(SNAPSHOT_FILE), &junk).unwrap();
        fs::write(dir.path().join(WAL_FILE), b"not a wal either").unwrap();
        let (svc, report) = ProfileService::recover(dir.path()).expect("salvage");
        assert_eq!(svc.tenant_count(), 0);
        assert!(report.snapshot_torn || report.sections_dropped > 0);
        assert!(report.wal_torn);
    }

    #[test]
    fn quarantined_and_building_states_survive_the_round_trip() {
        let dir = TempDir::new("states");
        let g = erdos_renyi(12, 0.2, 5);
        let view = {
            let s = PeriodicDegreeBound::new(&g);
            s.residue_schedule().expect("periodic").clone()
        };
        let mut svc = ProfileService::new();
        svc.register(1, &g, &Fixed(view)).expect("register");
        // Not built: the slot snapshots as Building.
        svc.snapshot(dir.path()).expect("snapshot");
        let (recovered, report) = ProfileService::recover(dir.path()).expect("recover");
        assert_eq!(report.profiles_rehydrated, 0);
        assert!(matches!(
            recovered.query_totals(1, 0, 10),
            Err(super::super::QueryError::ProfileNotBuilt(1))
        ));
        // And building it afterwards converges with a direct build.
        let mut recovered = recovered;
        assert_eq!(recovered.build_pending(), 1);
        assert!(recovered.profile(1).is_some());
    }

    #[test]
    fn torn_snapshot_quarantines_the_half_written_slot() {
        let dir = TempDir::new("torn-pair");
        let g = erdos_renyi(16, 0.2, 11);
        let mut svc = ProfileService::new();
        svc.register(1, &g, &PeriodicDegreeBound::new(&g)).expect("register");
        svc.build_pending();
        let bytes = svc.snapshot_bytes();
        // Cut right after the SLOT_CONTENT section: META + content survive,
        // the profile section and END are gone.
        let mut pos = SNAPSHOT_MAGIC.len();
        let mut boundaries = Vec::new();
        while let SectionRead::Section { end, .. } = wire::read_section(&bytes, pos) {
            boundaries.push(end);
            pos = end;
        }
        let cut = boundaries[1]; // [META, SLOT_CONTENT, SLOT_PROFILE, END]
        fs::write(dir.path().join(SNAPSHOT_FILE), &bytes[..cut]).unwrap();
        let (mut recovered, report) = ProfileService::recover(dir.path()).expect("recover");
        assert!(report.snapshot_torn);
        assert_eq!(report.slots_loaded, 1);
        assert_eq!(
            recovered.quarantine_reason(1),
            Some(QuarantineReason::RecoveryMismatch),
            "content without profile section must quarantine typed"
        );
        // Content is intact, so repair rebuilds and converges.
        assert_eq!(recovered.repair_quarantined(), 1);
        let rebuilt = recovered.profile(1).expect("repaired");
        assert!(rebuilt.content_eq(svc.profile(1).unwrap()));
    }

    #[test]
    fn wal_frame_encoding_round_trips() {
        let mut sink = BitSink::new();
        let event = EdgeEvent { kind: EdgeEventKind::Delete, u: 3, v: 17, holiday: 0xDEAD_BEEF };
        let row = |slot, modulus| Progression { slot, modulus };
        let changes = [
            RowChange { node: 17, old: row(2, 8), new: row(0, 4) },
            RowChange { node: 3, old: row(0, 1), new: row(5, 6) },
        ];
        let repair = EventRepair::from_parts(event, &changes);
        encode_frame(&mut sink, 99, &repair);
        let bytes = sink.bytes().to_vec();
        let (tenant, decoded) = decode_frame(&bytes).expect("decodes");
        assert_eq!(tenant, 99);
        assert_eq!(decoded.event, event);
        assert_eq!(decoded.row_changes(), &changes[..]);
        // Truncations never decode.
        for cut in 0..bytes.len() {
            assert!(decode_frame(&bytes[..cut]).is_none(), "cut {cut}");
        }
        // The bytes themselves are pinned, so a field-order slip that
        // still round-trips fails here.
        assert_eq!(wire::fnv1a(&bytes), 0xc47c_3ecf_dd8a_6435, "WAL frame bytes moved");
    }

    #[test]
    fn snapshot_bytes_are_pinned() {
        use crate::schedulers::PrefixCodeScheduler;
        use fhg_graph::generators::structured::path;

        let mut svc = ProfileService::new();
        let shared = erdos_renyi(14, 0.2, 3);
        svc.register(1, &shared, &PeriodicDegreeBound::new(&shared)).expect("register");
        svc.register(2, &shared, &PeriodicDegreeBound::new(&shared)).expect("register");
        let coloured = erdos_renyi(12, 0.25, 8);
        svc.register(3, &coloured, &PrefixCodeScheduler::omega(&coloured)).expect("register");
        let mut dynamic = DynamicColorBound::new(&path(6));
        svc.register(4, dynamic.graph(), &dynamic).expect("register");
        svc.build_pending();
        // Nodes 0 and 2 share colour 1 on the path, so the insert recolours 2.
        let event = EdgeEvent { kind: EdgeEventKind::Insert, u: 0, v: 2, holiday: 5 };
        let repair = dynamic.apply_event(event).expect("event applies");
        assert_eq!(repair.row_changes().len(), 1);
        svc.patch(4, &repair).expect("patch");
        assert_eq!(
            wire::fnv1a(&svc.snapshot_bytes()),
            0x4102_4d1d_6ec9_530a,
            "snapshot bytes moved"
        );
    }
}

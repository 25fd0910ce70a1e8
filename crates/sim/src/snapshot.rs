//! Machine snapshots: the complete architectural state of the hart as a
//! value, plus a versioned digest-stamped binary serialization.
//!
//! A snapshot captures everything [`crate::Machine::restore`] needs to
//! make a machine bit-for-bit indistinguishable from the one snapshotted:
//! the scalar and vector register files, the `vtype`/`vl` CSRs, the
//! retired-instruction counters, the pause PC recorded when a run loop
//! returned [`crate::SimError::FuelExhausted`], and the dirty memory
//! pages (see [`crate::MemSnapshot`]). It does **not** capture host-side
//! scratch (`cmp_scratch` — rebuilt on demand) or anything about compiled
//! plans (plans are pure functions of the program).

use crate::counters::Counters;
use crate::memory::MemSnapshot;
use rvv_ckpt::{open, seal, ByteReader, ByteWriter, CodecError};
use rvv_isa::{InstrClass, Lmul, Sew, VType};

/// Frame kind tag for serialized machine snapshots.
pub(crate) const FRAME_KIND: &str = "rvv-machine-snapshot";
/// Layout version; bump on any change to the byte layout below.
pub(crate) const FRAME_VERSION: u16 = 1;

/// A point-in-time copy of the full architectural state of a [`crate::Machine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSnapshot {
    /// VLEN in bits (restore requires an identical VLEN).
    pub vlen: u32,
    /// Scalar register file.
    pub xregs: [u64; 32],
    /// Vector register file, `32 × VLENB` bytes.
    pub vregs: Box<[u8]>,
    /// Decoded `vtype` CSR (`None` = `vill`).
    pub vtype: Option<VType>,
    /// `vl` CSR.
    pub vl: u32,
    /// Retired-instruction counters.
    pub counters: Counters,
    /// PC at which the last run loop paused with `FuelExhausted` — the
    /// `start_pc` a resumed run passes to `run_plan`/`run_legacy`.
    pub stop_pc: u64,
    /// Dirty memory pages and guard regions.
    pub mem: MemSnapshot,
}

fn put_vtype(w: &mut ByteWriter, vtype: Option<VType>) {
    match vtype {
        None => w.put_bool(false),
        Some(t) => {
            w.put_bool(true);
            let sew = Sew::ALL.iter().position(|&s| s == t.sew).unwrap();
            let lmul = Lmul::ALL_WITH_FRACTIONAL
                .iter()
                .position(|&l| l == t.lmul)
                .unwrap();
            w.put_u8(sew as u8);
            w.put_u8(lmul as u8);
            w.put_bool(t.ta);
            w.put_bool(t.ma);
        }
    }
}

fn get_vtype(r: &mut ByteReader<'_>) -> Result<Option<VType>, CodecError> {
    if !r.get_bool()? {
        return Ok(None);
    }
    let sew_idx = r.get_u8()?;
    let sew = *Sew::ALL.get(sew_idx as usize).ok_or(CodecError::BadValue {
        what: "sew index",
        value: u64::from(sew_idx),
    })?;
    let lmul_idx = r.get_u8()?;
    let lmul = *Lmul::ALL_WITH_FRACTIONAL
        .get(lmul_idx as usize)
        .ok_or(CodecError::BadValue {
            what: "lmul index",
            value: u64::from(lmul_idx),
        })?;
    let ta = r.get_bool()?;
    let ma = r.get_bool()?;
    Ok(Some(VType { sew, lmul, ta, ma }))
}

pub(crate) fn put_counters(w: &mut ByteWriter, c: &Counters) {
    w.put_u32(InstrClass::ALL.len() as u32);
    for (_, n) in c.iter() {
        w.put_u64(n);
    }
}

pub(crate) fn get_counters(r: &mut ByteReader<'_>) -> Result<Counters, CodecError> {
    let n = r.get_u32()?;
    if n as usize != InstrClass::ALL.len() {
        return Err(CodecError::BadValue {
            what: "instruction-class count",
            value: u64::from(n),
        });
    }
    let mut counts = Vec::with_capacity(n as usize);
    for _ in 0..n {
        counts.push(r.get_u64()?);
    }
    Ok(Counters::from_class_counts(&counts))
}

fn put_mem(w: &mut ByteWriter, m: &MemSnapshot) {
    w.put_u64(m.size);
    w.put_u32(m.guards.len() as u32);
    for g in &m.guards {
        w.put_u64(g.start);
        w.put_u64(g.end);
    }
    w.put_u32(m.pages.len() as u32);
    for (p, data) in &m.pages {
        w.put_u64(*p);
        w.put_bytes(data);
    }
}

fn get_mem(r: &mut ByteReader<'_>) -> Result<MemSnapshot, CodecError> {
    let size = r.get_u64()?;
    let nguards = r.get_u32()?;
    let mut guards = Vec::with_capacity(nguards as usize);
    for _ in 0..nguards {
        let start = r.get_u64()?;
        let end = r.get_u64()?;
        guards.push(start..end);
    }
    let npages = r.get_u32()?;
    let mut pages = Vec::with_capacity(npages as usize);
    for _ in 0..npages {
        let p = r.get_u64()?;
        let data = r.get_bytes()?.to_vec().into_boxed_slice();
        pages.push((p, data));
    }
    Ok(MemSnapshot {
        size,
        guards,
        pages,
    })
}

/// Encode the snapshot payload (no frame) — shared with the environment
/// snapshot, which embeds a machine snapshot inside its own frame.
pub(crate) fn encode_payload(s: &MachineSnapshot) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(s.vlen);
    for &x in &s.xregs {
        w.put_u64(x);
    }
    w.put_bytes(&s.vregs);
    put_vtype(&mut w, s.vtype);
    w.put_u32(s.vl);
    put_counters(&mut w, &s.counters);
    w.put_u64(s.stop_pc);
    put_mem(&mut w, &s.mem);
    w.into_bytes()
}

/// Decode a payload produced by [`encode_payload`].
pub(crate) fn decode_payload(r: &mut ByteReader<'_>) -> Result<MachineSnapshot, CodecError> {
    let vlen = r.get_u32()?;
    let mut xregs = [0u64; 32];
    for x in &mut xregs {
        *x = r.get_u64()?;
    }
    let vregs = r.get_bytes()?.to_vec().into_boxed_slice();
    let vtype = get_vtype(r)?;
    let vl = r.get_u32()?;
    let counters = get_counters(r)?;
    let stop_pc = r.get_u64()?;
    let mem = get_mem(r)?;
    Ok(MachineSnapshot {
        vlen,
        xregs,
        vregs,
        vtype,
        vl,
        counters,
        stop_pc,
        mem,
    })
}

impl MachineSnapshot {
    /// Serialize into a versioned, digest-stamped frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        seal(FRAME_KIND, FRAME_VERSION, &encode_payload(self))
    }

    /// Deserialize a frame produced by [`MachineSnapshot::to_bytes`],
    /// rejecting wrong kinds, wrong versions, and corrupt payloads.
    pub fn from_bytes(bytes: &[u8]) -> Result<MachineSnapshot, CodecError> {
        let payload = open(FRAME_KIND, FRAME_VERSION, bytes)?;
        let mut r = ByteReader::new(payload);
        let snap = decode_payload(&mut r)?;
        r.finish()?;
        Ok(snap)
    }
}

//! The container format: named, typed, checksummed sections in one file.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [0..8)    magic  b"GRRSTORE"
//! [8..12)   format version (u32)
//! [12..)    section payloads, back to back
//! table     count u32, then per section:
//!             name (u16-prefixed utf-8), kind u16,
//!             offset u64, len u64, crc32 u32
//! trailer   table offset u64, file crc32 u32
//! ```
//!
//! The file CRC covers every byte except the trailing CRC itself, so a
//! flip anywhere — header, payload, table, even the table offset — is
//! detected. Each section additionally carries its own CRC so the
//! failing section can be named in the error.

use std::path::Path;

use graphrare_tensor::optim::AdamSnapshot;
use graphrare_tensor::Matrix;

use crate::atomic::write_atomic;
use crate::crc::crc32;
use crate::error::StoreError;
use crate::section::{self, SectionKind, TopologyRecord};
use crate::wire::{ByteReader, ByteWriter};
use crate::{FORMAT_VERSION, MAGIC};

/// Builder that accumulates typed sections and serialises them into a
/// single container.
#[derive(Default)]
pub struct ContainerWriter {
    sections: Vec<(String, SectionKind, Vec<u8>)>,
}

impl ContainerWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, name: &str, kind: SectionKind, payload: Vec<u8>) {
        debug_assert!(
            !self.sections.iter().any(|(n, _, _)| n == name),
            "duplicate section name '{name}'"
        );
        self.sections.push((name.to_string(), kind, payload));
    }

    /// Adds an uninterpreted byte section.
    pub fn put_bytes(&mut self, name: &str, bytes: &[u8]) {
        self.push(name, SectionKind::Bytes, bytes.to_vec());
    }

    /// Adds a dense `f32` matrix.
    pub fn put_matrix(&mut self, name: &str, m: &Matrix) {
        let mut w = ByteWriter::with_capacity(8 + m.as_slice().len() * 4);
        section::encode_matrix(&mut w, m);
        self.push(name, SectionKind::Matrix, w.into_bytes());
    }

    /// Adds a named parameter set (model or policy weights). The section
    /// buffer is sized exactly up front: checkpoints of large policies run
    /// concurrently in the serving daemon, and growing megabyte buffers by
    /// doubling would hold old and new copies at once.
    pub fn put_param_set(&mut self, name: &str, params: &[(String, Matrix)]) {
        let size: usize =
            4 + params.iter().map(|(n, m)| 2 + n.len() + 8 + m.as_slice().len() * 4).sum::<usize>();
        let mut w = ByteWriter::with_capacity(size);
        section::encode_param_set(&mut w, params);
        let bytes = w.into_bytes();
        debug_assert_eq!(bytes.len(), size, "param set size estimate");
        self.push(name, SectionKind::ParamSet, bytes);
    }

    /// Adds Adam optimiser state (sized exactly up front, as
    /// [`put_param_set`](ContainerWriter::put_param_set)).
    pub fn put_adam(&mut self, name: &str, snap: &AdamSnapshot) {
        let size: usize = 12
            + snap
                .moments
                .iter()
                .map(|(m, v)| 16 + (m.as_slice().len() + v.as_slice().len()) * 4)
                .sum::<usize>();
        let mut w = ByteWriter::with_capacity(size);
        section::encode_adam(&mut w, snap);
        let bytes = w.into_bytes();
        debug_assert_eq!(bytes.len(), size, "adam state size estimate");
        self.push(name, SectionKind::AdamState, bytes);
    }

    /// Adds an RNG stream state.
    pub fn put_rng(&mut self, name: &str, state: [u64; 4]) {
        let mut w = ByteWriter::with_capacity(32);
        section::encode_rng(&mut w, state);
        self.push(name, SectionKind::Rng, w.into_bytes());
    }

    /// Adds a graph topology.
    pub fn put_topology(&mut self, name: &str, t: &TopologyRecord) {
        let mut w = ByteWriter::with_capacity(16 + t.edges.len() * 8);
        section::encode_topology(&mut w, t);
        self.push(name, SectionKind::Topology, w.into_bytes());
    }

    /// Adds a `u16` vector.
    pub fn put_u16_vec(&mut self, name: &str, v: &[u16]) {
        let mut w = ByteWriter::with_capacity(8 + v.len() * 2);
        section::encode_u16_vec(&mut w, v);
        self.push(name, SectionKind::U16Vec, w.into_bytes());
    }

    /// Adds an `f32` vector.
    pub fn put_f32_vec(&mut self, name: &str, v: &[f32]) {
        let mut w = ByteWriter::with_capacity(8 + v.len() * 4);
        section::encode_f32_vec(&mut w, v);
        self.push(name, SectionKind::F32Vec, w.into_bytes());
    }

    /// Adds an `f64` vector.
    pub fn put_f64_vec(&mut self, name: &str, v: &[f64]) {
        let mut w = ByteWriter::with_capacity(8 + v.len() * 8);
        section::encode_f64_vec(&mut w, v);
        self.push(name, SectionKind::F64Vec, w.into_bytes());
    }

    /// Adds a `u64` vector.
    pub fn put_u64_vec(&mut self, name: &str, v: &[u64]) {
        let mut w = ByteWriter::with_capacity(8 + v.len() * 8);
        section::encode_u64_vec(&mut w, v);
        self.push(name, SectionKind::U64Vec, w.into_bytes());
    }

    /// Adds a named map of `f64` scalars.
    pub fn put_scalars(&mut self, name: &str, entries: &[(String, f64)]) {
        let mut w = ByteWriter::new();
        section::encode_scalars(&mut w, entries);
        self.push(name, SectionKind::Scalars, w.into_bytes());
    }

    /// Serialises the container to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload_total: usize = self.sections.iter().map(|(_, _, p)| p.len()).sum();
        let mut w = ByteWriter::with_capacity(payload_total + 64 * self.sections.len() + 32);
        w.put_bytes(MAGIC);
        w.put_u32(FORMAT_VERSION);

        let mut entries = Vec::with_capacity(self.sections.len());
        let mut offset = (MAGIC.len() + 4) as u64;
        for (name, kind, payload) in &self.sections {
            entries.push((name, *kind, offset, payload.len() as u64, crc32(payload)));
            w.put_bytes(payload);
            offset += payload.len() as u64;
        }

        let table_offset = offset;
        w.put_u32(entries.len() as u32);
        for (name, kind, off, len, crc) in entries {
            w.put_str(name);
            w.put_u16(kind as u16);
            w.put_u64(off);
            w.put_u64(len);
            w.put_u32(crc);
        }
        w.put_u64(table_offset);

        let mut bytes = w.into_bytes();
        let file_crc = crc32(&bytes);
        bytes.extend_from_slice(&file_crc.to_le_bytes());
        bytes
    }

    /// Serialises and atomically writes the container to `path`.
    /// Returns the number of bytes written.
    pub fn write_atomic(&self, path: &Path) -> Result<u64, StoreError> {
        let bytes = self.to_bytes();
        let written = write_atomic(path, &bytes)?;
        graphrare_telemetry::counter("store.saves", 1);
        Ok(written)
    }
}

/// One parsed section: name, kind, payload slice into the file buffer.
struct Section {
    name: String,
    kind: SectionKind,
    start: usize,
    len: usize,
}

/// A validated, read-only container.
///
/// Construction verifies the magic, version, file CRC, table structure
/// and every section CRC; typed getters then verify the kind tag and
/// decode the payload with full bounds checks. Nothing in the read path
/// panics on malformed input.
pub struct Container {
    bytes: Vec<u8>,
    sections: Vec<Section>,
}

impl std::fmt::Debug for Container {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_map();
        for s in &self.sections {
            d.entry(&s.name, &format_args!("{} ({} bytes)", s.kind.name(), s.len));
        }
        d.finish()
    }
}

impl Container {
    /// Parses and validates a container from raw bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, StoreError> {
        let header_len = MAGIC.len() + 4;
        // Minimum: header + empty table (count) + trailer.
        let min_len = header_len + 4 + 12;
        if bytes.len() < min_len {
            return Err(StoreError::Truncated {
                context: "container header/trailer",
                needed: min_len as u64,
                available: bytes.len() as u64,
            });
        }

        if &bytes[..MAGIC.len()] != MAGIC {
            let mut found = [0u8; 8];
            let n = bytes.len().min(8);
            found[..n].copy_from_slice(&bytes[..n]);
            return Err(StoreError::BadMagic { found });
        }

        let version = u32::from_le_bytes(bytes[MAGIC.len()..header_len].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }

        let crc_at = bytes.len() - 4;
        let stored_crc = u32::from_le_bytes(bytes[crc_at..].try_into().unwrap());
        let computed_crc = crc32(&bytes[..crc_at]);
        if stored_crc != computed_crc {
            return Err(StoreError::FileCrcMismatch { stored: stored_crc, computed: computed_crc });
        }

        let table_offset = u64::from_le_bytes(bytes[crc_at - 8..crc_at].try_into().unwrap());
        let table_offset = usize::try_from(table_offset)
            .ok()
            .filter(|&o| o >= header_len && o <= crc_at - 8)
            .ok_or_else(|| StoreError::Corrupt {
                context: format!("table offset {table_offset} outside file"),
            })?;

        let table_bytes = &bytes[table_offset..crc_at - 8];
        let mut r = ByteReader::new(table_bytes, "section table");
        let count = r.get_u32()? as usize;
        if count > table_bytes.len() / 22 + 1 {
            return Err(StoreError::Corrupt {
                context: format!("section count {count} exceeds table size"),
            });
        }
        let mut sections = Vec::with_capacity(count);
        for _ in 0..count {
            let name = r.get_str()?;
            let raw_kind = r.get_u16()?;
            let kind = SectionKind::from_raw(raw_kind)
                .ok_or_else(|| StoreError::UnknownKind { section: name.clone(), raw: raw_kind })?;
            let off = r.get_u64()?;
            let len = r.get_u64()?;
            let crc = r.get_u32()?;

            let start = usize::try_from(off).ok();
            let plen = usize::try_from(len).ok();
            let (start, plen) = match (start, plen) {
                (Some(s), Some(l))
                    if s >= header_len
                        && l <= table_offset.saturating_sub(s)
                        && s <= table_offset =>
                {
                    (s, l)
                }
                _ => {
                    return Err(StoreError::Corrupt {
                        context: format!(
                            "section '{name}' range [{off}, {off}+{len}) outside payload area"
                        ),
                    })
                }
            };

            let payload = &bytes[start..start + plen];
            let computed = crc32(payload);
            if computed != crc {
                return Err(StoreError::SectionCrcMismatch {
                    section: name,
                    stored: crc,
                    computed,
                });
            }
            sections.push(Section { name, kind, start, len: plen });
        }
        r.expect_exhausted("section table")?;

        Ok(Self { bytes, sections })
    }

    /// Reads and validates a container file.
    pub fn read(path: &Path) -> Result<Self, StoreError> {
        let bytes = std::fs::read(path)?;
        let c = Self::from_bytes(bytes)?;
        graphrare_telemetry::counter("store.loads", 1);
        Ok(c)
    }

    /// Section names with kinds, in file order (for `store_dump`).
    pub fn sections(&self) -> impl Iterator<Item = (&str, SectionKind, u64)> {
        self.sections.iter().map(|s| (s.name.as_str(), s.kind, s.len as u64))
    }

    /// Whether a section with this name exists (any kind).
    pub fn has(&self, name: &str) -> bool {
        self.sections.iter().any(|s| s.name == name)
    }

    fn payload(&self, name: &str, kind: SectionKind) -> Result<&[u8], StoreError> {
        let s = self
            .sections
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| StoreError::MissingSection { section: name.to_string() })?;
        if s.kind != kind {
            return Err(StoreError::KindMismatch {
                section: name.to_string(),
                expected: kind,
                found: s.kind,
            });
        }
        Ok(&self.bytes[s.start..s.start + s.len])
    }

    fn decode<T>(
        &self,
        name: &str,
        kind: SectionKind,
        decode: impl FnOnce(&mut ByteReader<'_>) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let payload = self.payload(name, kind)?;
        let mut r = ByteReader::new(payload, "section payload");
        let value = decode(&mut r)?;
        r.expect_exhausted(name)?;
        Ok(value)
    }

    /// Reads an uninterpreted byte section.
    pub fn bytes(&self, name: &str) -> Result<&[u8], StoreError> {
        self.payload(name, SectionKind::Bytes)
    }

    /// Reads a matrix section.
    pub fn matrix(&self, name: &str) -> Result<Matrix, StoreError> {
        self.decode(name, SectionKind::Matrix, section::decode_matrix)
    }

    /// Reads a parameter-set section.
    pub fn param_set(&self, name: &str) -> Result<Vec<(String, Matrix)>, StoreError> {
        self.decode(name, SectionKind::ParamSet, section::decode_param_set)
    }

    /// Reads an Adam-state section.
    pub fn adam(&self, name: &str) -> Result<AdamSnapshot, StoreError> {
        self.decode(name, SectionKind::AdamState, section::decode_adam)
    }

    /// Reads an RNG-state section.
    pub fn rng(&self, name: &str) -> Result<[u64; 4], StoreError> {
        self.decode(name, SectionKind::Rng, section::decode_rng)
    }

    /// Reads a topology section.
    pub fn topology(&self, name: &str) -> Result<TopologyRecord, StoreError> {
        self.decode(name, SectionKind::Topology, section::decode_topology)
    }

    /// Reads a `u16` vector section.
    pub fn u16_vec(&self, name: &str) -> Result<Vec<u16>, StoreError> {
        self.decode(name, SectionKind::U16Vec, section::decode_u16_vec)
    }

    /// Reads an `f32` vector section.
    pub fn f32_vec(&self, name: &str) -> Result<Vec<f32>, StoreError> {
        self.decode(name, SectionKind::F32Vec, section::decode_f32_vec)
    }

    /// Reads an `f64` vector section.
    pub fn f64_vec(&self, name: &str) -> Result<Vec<f64>, StoreError> {
        self.decode(name, SectionKind::F64Vec, section::decode_f64_vec)
    }

    /// Reads a `u64` vector section.
    pub fn u64_vec(&self, name: &str) -> Result<Vec<u64>, StoreError> {
        self.decode(name, SectionKind::U64Vec, section::decode_u64_vec)
    }

    /// Reads a scalar-map section as ordered `(name, value)` pairs.
    pub fn scalars(&self, name: &str) -> Result<Vec<(String, f64)>, StoreError> {
        self.decode(name, SectionKind::Scalars, section::decode_scalars)
    }

    /// Reads one named scalar out of a scalar-map section.
    pub fn scalar(&self, section: &str, key: &str) -> Result<f64, StoreError> {
        let entries = self.scalars(section)?;
        entries.iter().find(|(k, _)| k == key).map(|&(_, v)| v).ok_or_else(|| {
            StoreError::Mismatch {
                context: format!("scalar section '{section}' has no key '{key}'"),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ContainerWriter {
        let mut w = ContainerWriter::new();
        w.put_matrix("weights", &Matrix::from_vec(2, 2, vec![1.0, -2.5, 0.0, 4.25]));
        w.put_rng("rng", [1, 2, 3, u64::MAX]);
        w.put_f64_vec("acc", &[0.5, 0.625]);
        w.put_scalars("meta", &[("step".into(), 7.0), ("seed".into(), 42.0)]);
        w.put_bytes("raw", b"\x00\xFFpayload");
        w
    }

    #[test]
    fn roundtrip_through_bytes() {
        let bytes = sample().to_bytes();
        let c = Container::from_bytes(bytes).unwrap();
        assert_eq!(c.matrix("weights").unwrap().as_slice(), &[1.0, -2.5, 0.0, 4.25]);
        assert_eq!(c.rng("rng").unwrap(), [1, 2, 3, u64::MAX]);
        assert_eq!(c.f64_vec("acc").unwrap(), vec![0.5, 0.625]);
        assert_eq!(c.scalar("meta", "step").unwrap(), 7.0);
        assert_eq!(c.bytes("raw").unwrap(), b"\x00\xFFpayload");
        assert_eq!(c.sections().count(), 5);
    }

    #[test]
    fn empty_container_roundtrips() {
        let bytes = ContainerWriter::new().to_bytes();
        let c = Container::from_bytes(bytes).unwrap();
        assert_eq!(c.sections().count(), 0);
        assert!(matches!(c.rng("missing"), Err(StoreError::MissingSection { .. })));
    }

    #[test]
    fn kind_mismatch_is_typed() {
        let bytes = sample().to_bytes();
        let c = Container::from_bytes(bytes).unwrap();
        assert!(matches!(c.matrix("rng"), Err(StoreError::KindMismatch { .. })));
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(Container::from_bytes(bytes), Err(StoreError::BadMagic { .. })));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = sample().to_bytes();
        // Bump version and re-seal the CRC so only the version differs.
        bytes[8] = 99;
        let crc_at = bytes.len() - 4;
        let crc = crc32(&bytes[..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Container::from_bytes(bytes),
            Err(StoreError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut copy = bytes.clone();
            copy[i] ^= 0x01;
            assert!(Container::from_bytes(copy).is_err(), "flip at byte {i} was not detected");
        }
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                Container::from_bytes(bytes[..len].to_vec()).is_err(),
                "truncation to {len} bytes was not detected"
            );
        }
    }

    #[test]
    fn atomic_write_and_read_roundtrip() {
        let dir = std::env::temp_dir().join(format!("grr-store-container-{}", std::process::id()));
        let path = dir.join("ckpt.grrs");
        let written = sample().write_atomic(&path).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        let c = Container::read(&path).unwrap();
        assert_eq!(c.rng("rng").unwrap(), [1, 2, 3, u64::MAX]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

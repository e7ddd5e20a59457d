//! # Snapshot deltas — section-level diffs between two snapshots
//!
//! A [`SnapshotDelta`] captures the difference between two snapshots of the
//! same kind as a *section diff*: the target's full section manifest (names
//! and payload CRCs, in final order) plus the payloads of only those
//! sections whose CRC changed or that are new. Applying the delta to the
//! base snapshot splices the unchanged payloads out of the base and the
//! changed ones out of the delta, reassembling the target **byte for byte**
//! — the container serialization in [`SnapshotBuilder`] is deterministic,
//! so `apply(base, compute(base, target)) == target` exactly.
//!
//! Deltas are themselves encoded as snapshot containers (kind
//! [`DELTA_KIND`]), so every byte on the wire is CRC-covered and a single
//! flipped bit is rejected at parse time, same as a full snapshot.
//!
//! Epochs: a delta carries `base_epoch` → `new_epoch`. A consumer whose
//! current epoch is not `base_epoch` (a version gap — e.g. a replica that
//! missed a delta) must not apply it; the cluster layer falls back to
//! shipping a full snapshot instead. A base whose sections do not match
//! the manifest's unchanged entries yields [`DeltaError::BaseMismatch`],
//! which callers treat the same way.
//!
//! Nothing here re-hashes a payload whose CRC is already known: diffing
//! compares the CRCs each [`Snapshot`] verified on parse, applying checks
//! the base's verified CRCs against the manifest and the carried payloads'
//! container CRCs against it, and the rebuilt target is assembled from
//! those sealed sections. Use [`SnapshotDelta::diff`] and
//! [`SnapshotDelta::apply_to`] when the snapshots are already parsed.

use crate::{SealedSection, Snapshot, SnapshotBuilder, SnapshotError, MAX_NAME_LEN, MAX_SECTIONS};
use std::fmt;

/// Container kind tag used for encoded deltas.
pub const DELTA_KIND: &str = "hta-snapshot-delta";

/// Why a delta failed to compute, decode, or apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// A snapshot (base, target, or the delta frame itself) failed to parse.
    Snapshot(SnapshotError),
    /// The base snapshot does not carry the section the manifest says is
    /// unchanged (or carries it with different bytes). The caller's base is
    /// from a different epoch: fall back to a full snapshot.
    BaseMismatch {
        /// The manifest section that the base could not supply.
        section: String,
    },
    /// The delta frame parsed as a container but is not a valid delta.
    Malformed(String),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Snapshot(e) => write!(f, "delta: {e}"),
            Self::BaseMismatch { section } => write!(
                f,
                "delta base mismatch on section {section:?} — apply a full snapshot instead"
            ),
            Self::Malformed(msg) => write!(f, "malformed delta: {msg}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<SnapshotError> for DeltaError {
    fn from(e: SnapshotError) -> Self {
        Self::Snapshot(e)
    }
}

/// One manifest entry: a target section's name and payload CRC.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ManifestEntry {
    name: String,
    crc: u32,
    changed: bool,
}

/// A section-level diff that rebuilds a target snapshot from a base.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotDelta {
    /// Epoch the base snapshot was published at.
    pub base_epoch: u64,
    /// Epoch the target snapshot is published at.
    pub new_epoch: u64,
    target_kind: String,
    manifest: Vec<ManifestEntry>,
    /// Payloads for manifest entries with `changed == true`, in manifest
    /// order.
    changed: Vec<SealedSection>,
}

impl SnapshotDelta {
    /// Diff two serialized snapshots. Sections present in the target with a
    /// payload CRC equal to the base's same-named section ride for free;
    /// everything else (changed or new) is carried in full. Sections only
    /// in the base are dropped by omission from the manifest.
    pub fn compute(
        base_bytes: &[u8],
        target_bytes: &[u8],
        base_epoch: u64,
        new_epoch: u64,
    ) -> Result<Self, DeltaError> {
        let base = Snapshot::from_bytes(base_bytes)?;
        let target = Snapshot::from_bytes(target_bytes)?;
        Ok(Self::diff(&base, &target, base_epoch, new_epoch))
    }

    /// [`Self::compute`] over already-parsed snapshots: compares the CRCs
    /// they carry, hashes nothing, and shares the carried payloads.
    pub fn diff(base: &Snapshot, target: &Snapshot, base_epoch: u64, new_epoch: u64) -> Self {
        let mut manifest = Vec::new();
        let mut changed = Vec::new();
        for (name, section) in &target.sections {
            let same = base
                .sealed_section(name)
                .is_ok_and(|b| b.crc() == section.crc());
            if !same {
                changed.push(section.clone());
            }
            manifest.push(ManifestEntry {
                name: name.clone(),
                crc: section.crc(),
                changed: !same,
            });
        }
        Self {
            base_epoch,
            new_epoch,
            target_kind: target.kind().to_owned(),
            manifest,
            changed,
        }
    }

    /// The kind tag of the target snapshot this delta rebuilds.
    pub fn target_kind(&self) -> &str {
        &self.target_kind
    }

    /// Names of the sections whose payloads this delta carries.
    pub fn changed_names(&self) -> impl Iterator<Item = &str> {
        self.manifest
            .iter()
            .filter(|e| e.changed)
            .map(|e| e.name.as_str())
    }

    /// Total payload bytes carried (the part that scales with the diff, as
    /// opposed to the manifest, which scales with the section count).
    pub fn carried_bytes(&self) -> usize {
        self.changed.iter().map(|s| s.payload().len()).sum()
    }

    /// Rebuild the target snapshot's exact bytes from the base snapshot's
    /// bytes. Every unchanged section is pulled from the base and verified
    /// against the manifest CRC; a mismatch means the base is not the
    /// snapshot this delta was computed against.
    pub fn apply(&self, base_bytes: &[u8]) -> Result<Vec<u8>, DeltaError> {
        let base = Snapshot::from_bytes(base_bytes)?;
        Ok(self.apply_to(&base)?.to_bytes())
    }

    /// [`Self::apply`] over an already-parsed base, returning the target
    /// unserialized. The checks are the same: every unchanged section's
    /// verified CRC must equal the manifest's, and so must every carried
    /// payload's container CRC.
    pub fn apply_to(&self, base: &Snapshot) -> Result<Snapshot, DeltaError> {
        check_manifest(&self.manifest, self.changed.len())?;
        let mut builder = SnapshotBuilder::new(&self.target_kind);
        let mut carried = self.changed.iter();
        for entry in &self.manifest {
            let section = if entry.changed {
                let p = carried
                    .next()
                    .ok_or_else(|| DeltaError::Malformed("missing carried payload".into()))?;
                if p.crc() != entry.crc {
                    return Err(DeltaError::Malformed(format!(
                        "carried payload for {:?} does not match its manifest CRC",
                        entry.name
                    )));
                }
                p.clone()
            } else {
                let p = base
                    .sealed_section(&entry.name)
                    .map_err(|_| DeltaError::BaseMismatch {
                        section: entry.name.clone(),
                    })?;
                if p.crc() != entry.crc {
                    return Err(DeltaError::BaseMismatch {
                        section: entry.name.clone(),
                    });
                }
                p.clone()
            };
            builder = builder.sealed_section(&entry.name, section);
        }
        Ok(builder.build())
    }

    /// Serialize to a self-verifying wire frame (a snapshot container of
    /// kind [`DELTA_KIND`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut meta = Vec::new();
        meta.extend_from_slice(&self.base_epoch.to_le_bytes());
        meta.extend_from_slice(&self.new_epoch.to_le_bytes());
        meta.extend_from_slice(&(self.target_kind.len() as u16).to_le_bytes());
        meta.extend_from_slice(self.target_kind.as_bytes());
        meta.extend_from_slice(&(self.manifest.len() as u32).to_le_bytes());
        for entry in &self.manifest {
            meta.extend_from_slice(&(entry.name.len() as u16).to_le_bytes());
            meta.extend_from_slice(entry.name.as_bytes());
            meta.extend_from_slice(&entry.crc.to_le_bytes());
            meta.push(entry.changed as u8);
        }
        let mut builder = SnapshotBuilder::new(DELTA_KIND).section("meta", meta);
        for (i, payload) in self.changed.iter().enumerate() {
            builder = builder.sealed_section(&format!("d{i}"), payload.clone());
        }
        builder.to_bytes()
    }

    /// Parse and fully verify a delta frame produced by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DeltaError> {
        let snap = Snapshot::from_bytes(bytes)?;
        if snap.kind() != DELTA_KIND {
            return Err(DeltaError::Malformed(format!(
                "kind {:?} is not a snapshot delta",
                snap.kind()
            )));
        }
        let meta = snap.section("meta")?;
        let mut pos = 0usize;
        let mut take = |n: usize| -> Result<&[u8], DeltaError> {
            if meta.len() - pos < n {
                return Err(DeltaError::Malformed("meta truncated".into()));
            }
            let out = &meta[pos..pos + n];
            pos += n;
            Ok(out)
        };
        let base_epoch = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let new_epoch = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let kind_len = u16::from_le_bytes(take(2)?.try_into().unwrap()) as usize;
        let target_kind = String::from_utf8(take(kind_len)?.to_vec())
            .map_err(|_| DeltaError::Malformed("target kind is not UTF-8".into()))?;
        let n = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
        let mut manifest = Vec::with_capacity(n.min(4096));
        let mut n_changed = 0usize;
        for _ in 0..n {
            let name_len = u16::from_le_bytes(take(2)?.try_into().unwrap()) as usize;
            let name = String::from_utf8(take(name_len)?.to_vec())
                .map_err(|_| DeltaError::Malformed("section name is not UTF-8".into()))?;
            let crc = u32::from_le_bytes(take(4)?.try_into().unwrap());
            let changed = match take(1)?[0] {
                0 => false,
                1 => true,
                b => return Err(DeltaError::Malformed(format!("bad changed flag {b}"))),
            };
            n_changed += changed as usize;
            manifest.push(ManifestEntry { name, crc, changed });
        }
        if pos != meta.len() {
            return Err(DeltaError::Malformed("trailing meta bytes".into()));
        }
        check_manifest(&manifest, n_changed)?;
        let mut changed = Vec::with_capacity(n_changed);
        for i in 0..n_changed {
            changed.push(snap.sealed_section(&format!("d{i}"))?.clone());
        }
        Ok(Self {
            base_epoch,
            new_epoch,
            target_kind,
            manifest,
            changed,
        })
    }
}

/// Refuse a manifest the container could not hold — too many sections,
/// an over-long or repeated name, a carried-payload count that disagrees
/// with its flags — so a hostile delta is an error, never a panic in the
/// builder.
fn check_manifest(manifest: &[ManifestEntry], n_carried: usize) -> Result<(), DeltaError> {
    if manifest.len() > MAX_SECTIONS {
        return Err(DeltaError::Malformed(format!(
            "{} manifest entries exceed the section limit",
            manifest.len()
        )));
    }
    if manifest.iter().filter(|e| e.changed).count() != n_carried {
        return Err(DeltaError::Malformed(
            "carried payload count does not match the manifest".into(),
        ));
    }
    for (i, entry) in manifest.iter().enumerate() {
        if entry.name.len() > MAX_NAME_LEN {
            return Err(DeltaError::Malformed("over-long section name".into()));
        }
        if manifest[..i].iter().any(|e| e.name == entry.name) {
            return Err(DeltaError::Malformed(format!(
                "section {:?} appears twice in the manifest",
                entry.name
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(kind: &str, sections: &[(&str, Vec<u8>)]) -> Vec<u8> {
        let mut b = SnapshotBuilder::new(kind);
        for (name, payload) in sections {
            b = b.section(name, payload.clone());
        }
        b.to_bytes()
    }

    #[test]
    fn identical_snapshots_carry_nothing() {
        let a = snap("k", &[("x", vec![1, 2, 3]), ("y", vec![4])]);
        let d = SnapshotDelta::compute(&a, &a, 7, 8).unwrap();
        assert_eq!(d.carried_bytes(), 0);
        assert_eq!(d.changed_names().count(), 0);
        assert_eq!(d.apply(&a).unwrap(), a);
    }

    #[test]
    fn only_changed_sections_ride() {
        let base = snap(
            "k",
            &[("x", vec![1, 2, 3]), ("y", vec![4]), ("z", vec![5; 100])],
        );
        let target = snap(
            "k",
            &[("x", vec![1, 2, 3]), ("y", vec![9, 9]), ("z", vec![5; 100])],
        );
        let d = SnapshotDelta::compute(&base, &target, 1, 2).unwrap();
        assert_eq!(d.changed_names().collect::<Vec<_>>(), ["y"]);
        assert_eq!(d.carried_bytes(), 2);
        assert_eq!(d.apply(&base).unwrap(), target);
    }

    #[test]
    fn added_and_dropped_sections() {
        let base = snap("k", &[("x", vec![1]), ("gone", vec![2])]);
        let target = snap("k", &[("x", vec![1]), ("new", vec![3, 3])]);
        let d = SnapshotDelta::compute(&base, &target, 0, 1).unwrap();
        assert_eq!(d.changed_names().collect::<Vec<_>>(), ["new"]);
        assert_eq!(d.apply(&base).unwrap(), target);
    }

    #[test]
    fn wire_round_trip() {
        let base = snap("k", &[("x", vec![1, 2]), ("y", vec![3])]);
        let target = snap("k", &[("x", vec![1, 2]), ("y", vec![4, 5, 6])]);
        let d = SnapshotDelta::compute(&base, &target, 3, 4).unwrap();
        let wire = d.to_bytes();
        let back = SnapshotDelta::from_bytes(&wire).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.base_epoch, 3);
        assert_eq!(back.new_epoch, 4);
        assert_eq!(back.apply(&base).unwrap(), target);
    }

    #[test]
    fn wrong_base_is_rejected() {
        let base = snap("k", &[("x", vec![1]), ("y", vec![2])]);
        let target = snap("k", &[("x", vec![1]), ("y", vec![3])]);
        let other = snap("k", &[("x", vec![7]), ("y", vec![2])]);
        let d = SnapshotDelta::compute(&base, &target, 0, 1).unwrap();
        assert_eq!(
            d.apply(&other).unwrap_err(),
            DeltaError::BaseMismatch {
                section: "x".into()
            }
        );
        // A base missing the section entirely is the same failure.
        let missing = snap("k", &[("y", vec![2])]);
        assert!(matches!(
            d.apply(&missing).unwrap_err(),
            DeltaError::BaseMismatch { .. }
        ));
    }

    #[test]
    fn every_bit_flip_on_the_frame_is_rejected() {
        let base = snap("k", &[("x", vec![1, 2, 3])]);
        let target = snap("k", &[("x", vec![9, 9, 9])]);
        let wire = SnapshotDelta::compute(&base, &target, 0, 1)
            .unwrap()
            .to_bytes();
        let mut copy = wire.clone();
        for i in 0..copy.len() {
            for bit in 0..8 {
                copy[i] ^= 1 << bit;
                assert!(
                    SnapshotDelta::from_bytes(&copy).is_err(),
                    "flip at byte {i} bit {bit} parsed"
                );
                copy[i] ^= 1 << bit;
            }
        }
        assert_eq!(copy, wire);
    }

    #[test]
    fn reused_crcs_keep_every_apply_check() {
        let base = snap("k", &[("x", vec![1, 2]), ("y", vec![3]), ("z", vec![4; 9])]);
        let target = snap(
            "k",
            &[("x", vec![1, 2]), ("y", vec![8, 8]), ("z", vec![4; 9])],
        );
        let d = SnapshotDelta::compute(&base, &target, 0, 1).unwrap();
        assert_eq!(d.apply(&base).unwrap(), target);

        // An "unchanged" section whose bytes differ in the base.
        let drifted = snap("k", &[("x", vec![1, 2]), ("y", vec![3]), ("z", vec![4; 8])]);
        assert_eq!(
            d.apply(&drifted).unwrap_err(),
            DeltaError::BaseMismatch {
                section: "z".into()
            }
        );

        // A base with a different section set.
        let other_set = snap("k", &[("x", vec![1, 2]), ("w", vec![4; 9])]);
        assert_eq!(
            d.apply(&other_set).unwrap_err(),
            DeltaError::BaseMismatch {
                section: "z".into()
            }
        );

        // A carried payload flipped after the diff: its container CRC no
        // longer matches the manifest.
        let mut flipped = d.clone();
        let mut bytes = flipped.changed[0].payload().to_vec();
        bytes[0] ^= 0x01;
        flipped.changed[0] = SealedSection::new(bytes);
        assert!(matches!(
            flipped.apply(&base).unwrap_err(),
            DeltaError::Malformed(_)
        ));
        // The same flip survives the wire (the frame re-seals it) and is
        // still caught on apply.
        let wire = SnapshotDelta::from_bytes(&flipped.to_bytes()).unwrap();
        assert!(matches!(
            wire.apply(&base).unwrap_err(),
            DeltaError::Malformed(_)
        ));
    }

    #[test]
    fn diff_and_apply_to_match_the_byte_api() {
        let base = snap("k", &[("x", vec![1, 2]), ("y", vec![3])]);
        let target = snap("k", &[("x", vec![1, 2]), ("y", vec![4, 5]), ("n", vec![6])]);
        let (pb, pt) = (
            Snapshot::from_bytes(&base).unwrap(),
            Snapshot::from_bytes(&target).unwrap(),
        );
        let d = SnapshotDelta::diff(&pb, &pt, 2, 3);
        assert_eq!(d, SnapshotDelta::compute(&base, &target, 2, 3).unwrap());
        assert_eq!(d.apply_to(&pb).unwrap().to_bytes(), target);
    }

    #[test]
    fn hostile_manifests_are_errors_not_panics() {
        let base = snap("k", &[("x", vec![1])]);
        let target = snap("k", &[("x", vec![2])]);
        let good = SnapshotDelta::compute(&base, &target, 0, 1).unwrap();

        let mut twice = good.clone();
        twice.manifest.push(twice.manifest[0].clone());
        twice.changed.push(twice.changed[0].clone());
        assert!(matches!(
            twice.apply(&base).unwrap_err(),
            DeltaError::Malformed(_)
        ));
        assert!(matches!(
            SnapshotDelta::from_bytes(&twice.to_bytes()).unwrap_err(),
            DeltaError::Malformed(_)
        ));

        let mut long = good.clone();
        long.manifest[0].name = "n".repeat(MAX_NAME_LEN + 1);
        assert!(matches!(
            SnapshotDelta::from_bytes(&long.to_bytes()).unwrap_err(),
            DeltaError::Malformed(_)
        ));

        let mut unflagged = good;
        unflagged.manifest[0].changed = false;
        assert!(matches!(
            unflagged.apply(&base).unwrap_err(),
            DeltaError::Malformed(_)
        ));
    }

    #[test]
    fn a_full_snapshot_is_not_a_delta() {
        let full = snap("k", &[("x", vec![1])]);
        assert!(matches!(
            SnapshotDelta::from_bytes(&full).unwrap_err(),
            DeltaError::Malformed(_)
        ));
    }
}

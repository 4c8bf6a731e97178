//! The tile-merge reducer: accumulates per-tile partial outputs into one
//! global result tensor.
//!
//! Each executed tile yields a small output tensor in local (rebased)
//! coordinates. [`TileMerger::absorb`] offsets those back into the global
//! coordinate space and *adds* colliding values — tiles along contraction
//! variables produce partial sums for the same output point, tiles along
//! output variables land in disjoint windows. Explicit zeros are kept (a
//! stored entry with value `0.0` stays a stored entry), so the rebuilt
//! output is structurally identical to what an untiled run writes.
//!
//! [`TileMerger::finish`] rebuilds the canonical CSF form the executor's
//! output assembly produces: level 0 holds one fiber of all outermost
//! coordinates, and every deeper level holds one fiber per parent entry.

use sam_tensor::level::{CompressedLevel, Level};
use sam_tensor::{LevelFormat, Tensor, TensorFormat};
use std::collections::BTreeMap;

use crate::extract::for_each_stored;

/// Accumulates tile outputs keyed by global output coordinates.
#[derive(Debug, Clone, Default)]
pub struct TileMerger {
    acc: BTreeMap<Vec<u32>, f64>,
}

impl TileMerger {
    /// An empty merger.
    pub fn new() -> TileMerger {
        TileMerger::default()
    }

    /// Adds one tile's output. `offsets` holds the global origin of the
    /// tile's window, one per *stored* output level (outermost first), so
    /// keys accumulate in storage order. Stored entries are visited
    /// including explicit zeros.
    pub fn absorb(&mut self, tile_output: &Tensor, offsets: &[u32]) {
        assert_eq!(offsets.len(), tile_output.order(), "one offset per output level");
        for_each_stored(tile_output, |point, v| {
            let global: Vec<u32> = point.iter().zip(offsets).map(|(&c, &o)| c + o).collect();
            *self.acc.entry(global).or_insert(0.0) += v;
        });
    }

    /// Number of accumulated output entries.
    pub fn len(&self) -> usize {
        self.acc.len()
    }

    /// True when nothing has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.acc.is_empty()
    }

    /// Rebuilds the merged output as a canonical all-compressed tensor of
    /// logical `shape` stored in `mode_order` (`mode_order[level]` is the
    /// logical mode at that level), plus the flat values array in storage
    /// order — the same form the untiled executor assembles, so equal runs
    /// compare bit-identical.
    pub fn finish(self, name: &str, shape: Vec<usize>, mode_order: &[usize]) -> (Tensor, Vec<f64>) {
        let order = shape.len();
        assert!(order > 0, "merged outputs need at least one level");
        let keys: Vec<&Vec<u32>> = self.acc.keys().collect();
        let mut levels: Vec<Level> = Vec::with_capacity(order);
        for d in 0..order {
            let mut builder = CompressedLevel::builder(shape[mode_order[d]]);
            // Entries at level d are the distinct prefixes of length d+1;
            // fibers close when the length-d prefix changes.
            let mut prev: Option<&[u32]> = None;
            for key in &keys {
                if let Some(p) = prev {
                    if p[..d] != key[..d] {
                        builder.end_fiber();
                    }
                    if p[..=d] == key[..=d] {
                        prev = Some(key);
                        continue;
                    }
                }
                builder.push_coord(key[d]);
                prev = Some(key);
            }
            // The root level always holds exactly one fiber (possibly
            // empty); deeper levels hold one fiber per parent entry.
            if d == 0 || !keys.is_empty() {
                builder.end_fiber();
            }
            levels.push(Level::Compressed(builder.finish()));
        }
        let vals: Vec<f64> = self.acc.values().copied().collect();
        let format = TensorFormat::with_mode_order(vec![LevelFormat::Compressed; order], mode_order.to_vec());
        let tensor = Tensor::from_parts(name, shape, format, levels, vals.clone());
        (tensor, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_tensor::CooTensor;

    fn tile(name: &str, shape: Vec<usize>, entries: Vec<(Vec<u32>, f64)>) -> Tensor {
        let coo = CooTensor::from_entries(shape.clone(), entries).unwrap();
        Tensor::from_coo(name, &coo, TensorFormat::csf(shape.len()))
    }

    #[test]
    fn disjoint_tiles_concatenate() {
        let mut m = TileMerger::new();
        m.absorb(&tile("X", vec![2, 2], vec![(vec![0, 1], 1.0), (vec![1, 0], 2.0)]), &[0, 0]);
        m.absorb(&tile("X", vec![2, 2], vec![(vec![0, 0], 3.0)]), &[2, 2]);
        assert_eq!(m.len(), 3);
        let (out, vals) = m.finish("X", vec![4, 4], &[0, 1]);
        assert_eq!(vals, vec![1.0, 2.0, 3.0]);
        assert_eq!(out.get(&[0, 1]), 1.0);
        assert_eq!(out.get(&[1, 0]), 2.0);
        assert_eq!(out.get(&[2, 2]), 3.0);
        // Canonical CSF: one root fiber, one level-1 fiber per row entry.
        let Level::Compressed(l0) = out.level(0) else { panic!("compressed") };
        assert_eq!(l0.seg, vec![0, 3]);
        assert_eq!(l0.crd, vec![0, 1, 2]);
        let Level::Compressed(l1) = out.level(1) else { panic!("compressed") };
        assert_eq!(l1.seg, vec![0, 1, 2, 3]);
    }

    #[test]
    fn contraction_tiles_accumulate() {
        let mut m = TileMerger::new();
        m.absorb(&tile("x", vec![3], vec![(vec![1], 2.0)]), &[0]);
        m.absorb(&tile("x", vec![3], vec![(vec![1], 3.0), (vec![2], -3.0)]), &[0]);
        let (out, vals) = m.finish("x", vec![3], &[0]);
        assert_eq!(vals, vec![5.0, -3.0]);
        assert_eq!(out.get(&[1]), 5.0);
        assert_eq!(out.get(&[2]), -3.0);
    }

    #[test]
    fn explicit_zero_sums_stay_stored() {
        let mut m = TileMerger::new();
        m.absorb(&tile("x", vec![2], vec![(vec![0], 2.0)]), &[0]);
        m.absorb(&tile("x", vec![2], vec![(vec![0], -2.0)]), &[0]);
        assert_eq!(m.len(), 1);
        let (out, vals) = m.finish("x", vec![2], &[0]);
        assert_eq!(vals, vec![0.0]);
        let Level::Compressed(l0) = out.level(0) else { panic!("compressed") };
        assert_eq!(l0.crd, vec![0], "a zero-valued sum keeps its coordinate");
    }

    #[test]
    fn empty_merge_builds_an_empty_fiber() {
        let (out, vals) = TileMerger::new().finish("x", vec![5], &[0]);
        assert!(vals.is_empty());
        let Level::Compressed(l0) = out.level(0) else { panic!("compressed") };
        assert_eq!(l0.seg, vec![0, 0]);
        assert!(l0.crd.is_empty());
    }
}

//! Device-side parallel primitive: the exclusive prefix sum.
//!
//! The parallel sweepline of §IV-E runs in two kernels: "firstly, a
//! parallel scan determines the check range of each edge; then parallel
//! threads are launched to perform the check". The same count-scan-emit
//! pattern sizes the violation output of every parallel check kernel,
//! so the scan is a first-class device primitive here.
//!
//! The implementation is the classic chunked three-phase scan: parallel
//! per-chunk sums, a sequential scan over the (few) chunk sums, then a
//! parallel rewrite of each chunk with its base offset.

use crate::device::Device;

/// Exclusive prefix sum: returns a vector of length `values.len() + 1`
/// where `out[i]` is the sum of `values[..i]` (so `out[0] == 0` and
/// `out[n]` is the total).
///
/// The result doubles as the *offsets* array for scatter launches: item
/// `i` owns output range `out[i]..out[i + 1]`.
///
/// # Examples
///
/// ```
/// use odrc_xpu::{scan::exclusive_scan, Device};
///
/// let device = Device::new(4);
/// let offsets = exclusive_scan(&device, &[3, 0, 2, 5]);
/// assert_eq!(offsets, vec![0, 3, 3, 5, 10]);
/// ```
pub fn exclusive_scan(device: &Device, values: &[usize]) -> Vec<usize> {
    let n = values.len();
    let mut out = vec![0usize; n + 1];
    if n == 0 {
        return out;
    }
    let workers = device.workers().min(n);
    let chunk = n.div_ceil(workers);
    device.stats().record_launch(n);

    // Phase 1: per-chunk sums, distributed over the persistent pool.
    // The chunk boundaries derive from the device width (not from how
    // many pool workers join), so the output is identical either way.
    let n_chunks = n.div_ceil(chunk);
    let mut chunk_sums = vec![0usize; n_chunks];
    let mut tasks: Vec<(&mut usize, &[usize])> =
        chunk_sums.iter_mut().zip(values.chunks(chunk)).collect();
    device.dispatch_slices(&mut tasks, |_, tile| {
        for (slot, vals) in tile.iter_mut() {
            **slot = vals.iter().sum();
        }
    });

    // Phase 2: sequential exclusive scan over the few chunk sums.
    let mut bases = vec![0usize; n_chunks];
    let mut acc = 0usize;
    for (b, s) in bases.iter_mut().zip(&chunk_sums) {
        *b = acc;
        acc += s;
    }

    // Phase 3: per-chunk local scans shifted by the base, in parallel.
    // Chunk c owns out[c*chunk + 1 ..= min((c+1)*chunk, n)].
    device.stats().record_launch(n);
    let mut tasks: Vec<(&mut [usize], &[usize], usize)> = out[1..]
        .chunks_mut(chunk)
        .zip(values.chunks(chunk))
        .zip(bases.iter().copied())
        .map(|((o, v), b)| (o, v, b))
        .collect();
    device.dispatch_slices(&mut tasks, |_, tile| {
        for (out_chunk, vals, base) in tile.iter_mut() {
            let mut running = *base;
            for (o, v) in out_chunk.iter_mut().zip(vals.iter()) {
                running += v;
                *o = running;
            }
        }
    });
    // Convert the inclusive values written above into the exclusive
    // convention: out[i] currently holds sum(values[..i]) already, since
    // we wrote starting at index 1. out[0] stays 0.
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_scan() {
        let d = Device::new(2);
        assert_eq!(exclusive_scan(&d, &[]), vec![0]);
    }

    #[test]
    fn single_element() {
        let d = Device::new(2);
        assert_eq!(exclusive_scan(&d, &[7]), vec![0, 7]);
    }

    #[test]
    fn known_scan() {
        let d = Device::new(3);
        assert_eq!(
            exclusive_scan(&d, &[1, 2, 3, 4, 5]),
            vec![0, 1, 3, 6, 10, 15]
        );
    }

    #[test]
    fn zeros_scan_to_zeros() {
        let d = Device::new(2);
        assert_eq!(exclusive_scan(&d, &[0, 0, 0]), vec![0, 0, 0, 0]);
    }

    proptest! {
        #[test]
        fn scan_matches_sequential(
            values in proptest::collection::vec(0usize..1000, 0..300),
            workers in 1usize..8,
        ) {
            let d = Device::new(workers);
            let fast = exclusive_scan(&d, &values);
            let mut slow = vec![0usize; values.len() + 1];
            for i in 0..values.len() {
                slow[i + 1] = slow[i] + values[i];
            }
            prop_assert_eq!(fast, slow);
        }
    }
}

//! Matrix multiplication kernels.
//!
//! Every variant (`AB`, `AᵀB`, `ABᵀ`, both Gram products, and the
//! raw-slice batched entry points) routes through one packed,
//! register-blocked kernel: the right operand is packed once into
//! contiguous column panels of [`NR`] doubles, the left operand is packed
//! tile-by-tile into a stack buffer, and a branch-free [`MR`]`×`[`NR`]
//! register tile accumulates [`KC`]-long runs of the inner dimension.
//! Large products split their output rows across the persistent worker
//! pool in [`crate::pool`]; the split never changes per-element
//! accumulation order, so results are bit-identical for every thread
//! count.
//!
//! Shape mismatches are programming errors (the shapes in every caller are
//! derived from tensor metadata), so like slice indexing these functions
//! panic on mismatch.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::pool;

/// Register-tile rows (distinct accumulator rows held live).
const MR: usize = 4;

/// Register-tile columns (one cache line of f64s, two AVX2 vectors).
const NR: usize = 8;

/// Inner-dimension block length; `MR × KC` doubles of packed A (8 KiB)
/// stay L1-resident while a panel streams through.
const KC: usize = 256;

/// The right operand packed into contiguous panels.
///
/// Layout: for each inner-dimension block `k0..k0+kl` (in [`KC`] steps)
/// and each panel `jp` of [`NR`] columns, the `kl × NR` panel is stored
/// k-major at offset `k0 * p_padded + jp * kl * NR`. Columns past `p` are
/// zero so the kernel never branches on the tile edge.
struct PackedB {
    data: Vec<f64>,
    /// Inner (contraction) dimension.
    k: usize,
    /// Output columns.
    p: usize,
    /// `p` rounded up to a multiple of [`NR`].
    p_padded: usize,
}

impl PackedB {
    fn panel(&self, k0: usize, kl: usize, jp: usize) -> &[f64] {
        let off = k0 * self.p_padded + jp * kl * NR;
        &self.data[off..off + kl * NR]
    }
}

/// Packs row-major `b (k×p)` (the `B` of `A·B`).
fn pack_b(b: &[f64], k: usize, p: usize) -> PackedB {
    let p_padded = p.div_ceil(NR) * NR;
    let mut data = Vec::with_capacity(k * p_padded);
    let mut k0 = 0;
    while k0 < k {
        let kl = KC.min(k - k0);
        for jp in 0..p_padded / NR {
            let j0 = jp * NR;
            for kk in 0..kl {
                let row = &b[(k0 + kk) * p..(k0 + kk + 1) * p];
                for j in j0..j0 + NR {
                    data.push(if j < p { row[j] } else { 0.0 });
                }
            }
        }
        k0 += kl;
    }
    PackedB {
        data,
        k,
        p,
        p_padded,
    }
}

/// Packs `bᵀ` for `A·Bᵀ`: `b` is row-major `p×k`, and the packed panels
/// hold `bᵀ (k×p)`.
fn pack_b_trans(b: &[f64], k: usize, p: usize) -> PackedB {
    let p_padded = p.div_ceil(NR) * NR;
    let mut data = Vec::with_capacity(k * p_padded);
    let mut k0 = 0;
    while k0 < k {
        let kl = KC.min(k - k0);
        for jp in 0..p_padded / NR {
            let j0 = jp * NR;
            for kk in 0..kl {
                for j in j0..j0 + NR {
                    data.push(if j < p { b[j * k + (k0 + kk)] } else { 0.0 });
                }
            }
        }
        k0 += kl;
    }
    PackedB {
        data,
        k,
        p,
        p_padded,
    }
}

/// How the left operand is laid out.
#[derive(Clone, Copy)]
enum ASource<'a> {
    /// `A[i, k] = data[i * stride + k]` — a row-major matrix.
    Rows { data: &'a [f64], stride: usize },
    /// `A[i, k] = data[k * stride + i]` — a transposed view of a
    /// row-major matrix (used by `AᵀB` without materializing `Aᵀ`).
    Cols { data: &'a [f64], stride: usize },
}

/// Packs an `mr × kl` tile of A k-major into `buf`, zero-filling rows
/// past `mr` so the kernel always runs a full [`MR`]-row tile.
fn pack_a(src: ASource, i0: usize, mr: usize, k0: usize, kl: usize, buf: &mut [f64; MR * KC]) {
    match src {
        ASource::Rows { data, stride } => {
            for r in 0..mr {
                let row = &data[(i0 + r) * stride + k0..][..kl];
                for (kk, &v) in row.iter().enumerate() {
                    buf[kk * MR + r] = v;
                }
            }
        }
        ASource::Cols { data, stride } => {
            for kk in 0..kl {
                let krow = &data[(k0 + kk) * stride..];
                for r in 0..mr {
                    buf[kk * MR + r] = krow[i0 + r];
                }
            }
        }
    }
    if mr < MR {
        for kk in 0..kl {
            for r in mr..MR {
                buf[kk * MR + r] = 0.0;
            }
        }
    }
}

/// The register micro-kernel: accumulates a full `MR × NR` tile over `kl`
/// inner steps, then adds the live `mr × nr` corner into `c`.
///
/// `c` is the chunk of output rows starting at local row `i_local`; the
/// tile's columns start at `j0`. No `== 0.0` branches: padded lanes
/// compute harmlessly and are simply not written back.
#[allow(clippy::too_many_arguments)]
#[inline]
fn kernel(
    abuf: &[f64; MR * KC],
    panel: &[f64],
    kl: usize,
    c: &mut [f64],
    i_local: usize,
    j0: usize,
    p: usize,
    mr: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    // `as_chunks` reinterprets the packed buffers as fixed-size
    // `[f64; NR]`/`[f64; MR]` windows, keeping the inner loops branch-free
    // with no fallible conversion.
    let (bchunks, _) = panel.as_chunks::<NR>();
    let (achunks, _) = abuf.as_chunks::<MR>();
    for kk in 0..kl {
        let b = &bchunks[kk];
        let a = &achunks[kk];
        for r in 0..MR {
            let ar = a[r];
            for j in 0..NR {
                acc[r][j] += ar * b[j];
            }
        }
    }
    let nr = NR.min(p - j0);
    for r in 0..mr {
        let crow = &mut c[(i_local + r) * p + j0..(i_local + r) * p + j0 + nr];
        for (cv, av) in crow.iter_mut().zip(acc[r].iter()) {
            *cv += av;
        }
    }
}

/// Computes `rows` output rows starting at global row `row0` into the
/// chunk `c` (whose local row 0 is global row `row0`), accumulating.
fn gemm_rows(src: ASource, bp: &PackedB, c: &mut [f64], row0: usize, rows: usize) {
    let p = bp.p;
    let npanels = bp.p_padded / NR;
    let mut abuf = [0.0f64; MR * KC];
    let mut k0 = 0;
    while k0 < bp.k {
        let kl = KC.min(bp.k - k0);
        let mut i = 0;
        while i < rows {
            let mr = MR.min(rows - i);
            pack_a(src, row0 + i, mr, k0, kl, &mut abuf);
            for jp in 0..npanels {
                kernel(&abuf, bp.panel(k0, kl, jp), kl, c, i, jp * NR, p, mr);
            }
            i += mr;
        }
        k0 += kl;
    }
}

/// Splits the `m` output rows over the pool (tile-aligned) and runs
/// [`gemm_rows`] on each range. Accumulates into `c`.
fn gemm_driver(src: ASource, bp: &PackedB, c: &mut [f64], m: usize, nthreads: usize) {
    debug_assert_eq!(c.len(), m * bp.p);
    if nthreads <= 1 || m <= MR {
        gemm_rows(src, bp, c, 0, m);
        return;
    }
    let p = bp.p;
    pool::parallel_chunks(c, MR * p, nthreads, |block0, chunk| {
        gemm_rows(src, bp, chunk, block0 * MR, chunk.len() / p);
    });
}

/// `A * B`. Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul shape mismatch: {:?} * {:?}",
        a.shape(),
        b.shape()
    );
    let (m, n, p) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, p);
    let bp = pack_b(b.as_slice(), n, p);
    let src = ASource::Rows {
        data: a.as_slice(),
        stride: n,
    };
    gemm_driver(
        src,
        &bp,
        c.as_mut_slice(),
        m,
        pool::threads_for_flops(2 * m * n * p),
    );
    c
}

/// Range-GEMM: `A[r0..r1, :] * B` without materializing the row slice —
/// the row range of a row-major matrix is a contiguous buffer window, so
/// the packed kernel reads it in place. This is the building block of
/// factored range queries, where a contraction touches only the requested
/// rows of a factor matrix.
///
/// Returns an error if `a.cols() != b.rows()` or the range is not
/// `r0 <= r1 <= a.rows()`.
pub fn matmul_row_range(a: &Matrix, r0: usize, r1: usize, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_row_range",
            details: format!("{:?} * {:?}", a.shape(), b.shape()),
        });
    }
    if r0 > r1 || r1 > a.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_row_range",
            details: format!("rows {r0}..{r1} out of range for {:?}", a.shape()),
        });
    }
    let (m, n, p) = (r1 - r0, a.cols(), b.cols());
    let mut c = Matrix::zeros(m, p);
    if m == 0 {
        return Ok(c);
    }
    matmul_into_threaded(
        &a.as_slice()[r0 * n..r1 * n],
        b.as_slice(),
        c.as_mut_slice(),
        m,
        n,
        p,
        pool::threads_for_flops(2 * m * n * p),
    );
    Ok(c)
}

/// `Aᵀ * B`. Panics if `a.rows() != b.rows()`.
pub fn t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "t_matmul shape mismatch: {:?}ᵀ * {:?}",
        a.shape(),
        b.shape()
    );
    let (m, n, p) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(n, p);
    let bp = pack_b(b.as_slice(), m, p);
    let src = ASource::Cols {
        data: a.as_slice(),
        stride: n,
    };
    gemm_driver(
        src,
        &bp,
        c.as_mut_slice(),
        n,
        pool::threads_for_flops(2 * m * n * p),
    );
    c
}

/// `A * Bᵀ`. Panics if `a.cols() != b.cols()`.
pub fn matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_t shape mismatch: {:?} * {:?}ᵀ",
        a.shape(),
        b.shape()
    );
    let (m, n, p) = (a.rows(), a.cols(), b.rows());
    let mut c = Matrix::zeros(m, p);
    let bp = pack_b_trans(b.as_slice(), n, p);
    let src = ASource::Rows {
        data: a.as_slice(),
        stride: n,
    };
    gemm_driver(
        src,
        &bp,
        c.as_mut_slice(),
        m,
        pool::threads_for_flops(2 * m * n * p),
    );
    c
}

/// Raw-slice GEMM: `c (m×p) += a (m×n) · b (n×p)`, all row-major.
///
/// This is the batched-product entry point used by tensor n-mode products,
/// where operands are contiguous windows of a tensor buffer rather than
/// owned [`Matrix`] values. `c` must be zero-initialized by the caller if a
/// plain product (not an accumulation) is wanted. Runs serial — batched
/// callers own the parallelism ([`matmul_into_threaded`] is the threaded
/// form).
///
/// Panics if the slice lengths disagree with `(m, n, p)`.
pub fn matmul_into(a: &[f64], b: &[f64], c: &mut [f64], m: usize, n: usize, p: usize) {
    matmul_into_threaded(a, b, c, m, n, p, 1);
}

/// [`matmul_into`] with the row split spread over `nthreads` pool threads.
pub fn matmul_into_threaded(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    n: usize,
    p: usize,
    nthreads: usize,
) {
    assert_eq!(a.len(), m * n, "matmul_into: bad lhs length");
    assert_eq!(b.len(), n * p, "matmul_into: bad rhs length");
    assert_eq!(c.len(), m * p, "matmul_into: bad out length");
    let bp = pack_b(b, n, p);
    gemm_driver(ASource::Rows { data: a, stride: n }, &bp, c, m, nthreads);
}

/// Raw-slice transposed GEMM: `c (n×p) += aᵀ · b` for row-major
/// `a (m×n)`, `b (m×p)`. See [`matmul_into`] for the calling convention.
pub fn t_matmul_into(a: &[f64], b: &[f64], c: &mut [f64], m: usize, n: usize, p: usize) {
    t_matmul_into_threaded(a, b, c, m, n, p, 1);
}

/// [`t_matmul_into`] with the row split spread over `nthreads` pool
/// threads.
pub fn t_matmul_into_threaded(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    n: usize,
    p: usize,
    nthreads: usize,
) {
    assert_eq!(a.len(), m * n, "t_matmul_into: bad lhs length");
    assert_eq!(b.len(), m * p, "t_matmul_into: bad rhs length");
    assert_eq!(c.len(), n * p, "t_matmul_into: bad out length");
    let bp = pack_b(b, m, p);
    gemm_driver(ASource::Cols { data: a, stride: n }, &bp, c, n, nthreads);
}

/// Symmetric Gram product `Aᵀ A`.
///
/// Routed through the packed kernel as `AᵀB` with `B = A`; entries `(i,j)`
/// and `(j,i)` accumulate the same products in the same order, so the
/// result is bitwise symmetric.
pub fn gram(a: &Matrix) -> Matrix {
    let (m, n) = (a.rows(), a.cols());
    let mut g = Matrix::zeros(n, n);
    let bp = pack_b(a.as_slice(), m, n);
    let src = ASource::Cols {
        data: a.as_slice(),
        stride: n,
    };
    gemm_driver(
        src,
        &bp,
        g.as_mut_slice(),
        n,
        pool::threads_for_flops(2 * m * n * n),
    );
    g
}

/// Symmetric outer Gram product `A Aᵀ` (bitwise symmetric, see [`gram`]).
pub fn gram_t(a: &Matrix) -> Matrix {
    let (m, n) = (a.rows(), a.cols());
    let mut g = Matrix::zeros(m, m);
    let bp = pack_b_trans(a.as_slice(), n, m);
    let src = ASource::Rows {
        data: a.as_slice(),
        stride: n,
    };
    gemm_driver(
        src,
        &bp,
        g.as_mut_slice(),
        m,
        pool::threads_for_flops(2 * m * n * m),
    );
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    #[test]
    fn matmul_small_exact() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_matches_naive_random() {
        for &(m, n, p) in &[
            (1, 1, 1),
            (3, 5, 4),
            (17, 33, 9),
            (64, 64, 64),
            (70, 130, 40),
        ] {
            let a = random(m, n, 1);
            let b = random(n, p, 2);
            let c = matmul(&a, &b);
            assert!(c.approx_eq(&naive(&a, &b), 1e-10), "{}x{}x{}", m, n, p);
        }
    }

    #[test]
    fn matmul_row_range_matches_submatrix() {
        let a = random(23, 11, 3);
        let b = random(11, 6, 4);
        for &(r0, r1) in &[(0usize, 23usize), (5, 9), (0, 1), (22, 23), (7, 7)] {
            let fast = matmul_row_range(&a, r0, r1, &b).unwrap();
            let slow = matmul(&a.submatrix(r0, r1, 0, a.cols()), &b);
            assert_eq!(fast.shape(), (r1 - r0, 6));
            // Same kernel over the same contiguous bytes: bit-identical.
            assert_eq!(fast.as_slice(), slow.as_slice(), "{r0}..{r1}");
        }
        // Bad shapes and ranges are typed errors, not panics.
        assert!(matmul_row_range(&a, 0, 2, &random(7, 3, 5)).is_err());
        assert!(matmul_row_range(&a, 9, 5, &b).is_err());
        assert!(matmul_row_range(&a, 0, 24, &b).is_err());
    }

    #[test]
    fn matmul_handles_tile_edges() {
        // Shapes chosen to hit every remainder of the MR×NR tile and a
        // KC-boundary straddle.
        for &(m, n, p) in &[
            (1, 7, 1),
            (1, 300, 9),
            (5, 2, 8),
            (4, 256, 8),
            (5, 257, 9),
            (3, 513, 17),
            (9, 1, 3),
        ] {
            let a = random(m, n, 21);
            let b = random(n, p, 22);
            assert!(
                matmul(&a, &b).approx_eq(&naive(&a, &b), 1e-10),
                "{}x{}x{}",
                m,
                n,
                p
            );
        }
    }

    #[test]
    fn matmul_parallel_matches_serial() {
        // Big enough to cross the parallel threshold.
        let a = random(300, 200, 3);
        let b = random(200, 150, 4);
        let c = matmul(&a, &b);
        assert!(c.approx_eq(&naive(&a, &b), 1e-9));
    }

    #[test]
    fn results_bit_identical_across_thread_counts() {
        let (m, n, p) = (70, 300, 33);
        let a = random(m, n, 31);
        let b = random(n, p, 32);
        let bp = pack_b(b.as_slice(), n, p);
        let src = ASource::Rows {
            data: a.as_slice(),
            stride: n,
        };
        let mut reference = vec![0.0; m * p];
        gemm_driver(src, &bp, &mut reference, m, 1);
        for threads in [2, 3, 4, 7] {
            let mut c = vec![0.0; m * p];
            gemm_driver(src, &bp, &mut c, m, threads);
            assert!(c == reference, "thread count {threads} changed bits");
        }
    }

    #[test]
    fn t_matmul_matches_transpose() {
        for &(m, n, p) in &[(4, 3, 5), (40, 30, 20), (300, 60, 80)] {
            let a = random(m, n, 5);
            let b = random(m, p, 6);
            let c = t_matmul(&a, &b);
            let expected = matmul(&a.transpose(), &b);
            assert!(c.approx_eq(&expected, 1e-9), "{}x{}x{}", m, n, p);
        }
    }

    #[test]
    fn matmul_t_matches_transpose() {
        for &(m, n, p) in &[(4, 3, 5), (40, 30, 20), (150, 80, 120)] {
            let a = random(m, n, 7);
            let b = random(p, n, 8);
            let c = matmul_t(&a, &b);
            let expected = matmul(&a, &b.transpose());
            assert!(c.approx_eq(&expected, 1e-9), "{}x{}x{}", m, n, p);
        }
    }

    #[test]
    fn into_variants_accumulate() {
        let (m, n, p) = (6, 9, 5);
        let a = random(m, n, 12);
        let b = random(n, p, 13);
        let mut c = vec![1.0; m * p];
        matmul_into(a.as_slice(), b.as_slice(), &mut c, m, n, p);
        let expected = matmul(&a, &b);
        for i in 0..m * p {
            assert!((c[i] - 1.0 - expected.as_slice()[i]).abs() < 1e-12);
        }

        let at = a.transpose(); // n×m, so atᵀ·b is m×... use t_matmul_into on a
        let bt = random(m, p, 14);
        let mut ct = vec![-2.0; n * p];
        t_matmul_into(a.as_slice(), bt.as_slice(), &mut ct, m, n, p);
        let expected_t = matmul(&at, &bt);
        for i in 0..n * p {
            assert!((ct[i] + 2.0 - expected_t.as_slice()[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn threaded_into_matches_serial_bitwise() {
        let (m, n, p) = (64, 48, 24);
        let a = random(m, n, 15);
        let b = random(n, p, 16);
        let mut serial = vec![0.0; m * p];
        matmul_into(a.as_slice(), b.as_slice(), &mut serial, m, n, p);
        let mut threaded = vec![0.0; m * p];
        matmul_into_threaded(a.as_slice(), b.as_slice(), &mut threaded, m, n, p, 4);
        assert!(serial == threaded);

        let bt = random(m, p, 17);
        let mut serial_t = vec![0.0; n * p];
        t_matmul_into(a.as_slice(), bt.as_slice(), &mut serial_t, m, n, p);
        let mut threaded_t = vec![0.0; n * p];
        t_matmul_into_threaded(a.as_slice(), bt.as_slice(), &mut threaded_t, m, n, p, 3);
        assert!(serial_t == threaded_t);
    }

    #[test]
    fn gram_is_ata() {
        let a = random(20, 7, 9);
        let g = gram(&a);
        let expected = matmul(&a.transpose(), &a);
        assert!(g.approx_eq(&expected, 1e-10));
        // Symmetry.
        for i in 0..7 {
            for j in 0..7 {
                assert_eq!(g.get(i, j), g.get(j, i));
            }
        }
    }

    #[test]
    fn gram_t_is_aat() {
        let a = random(6, 11, 10);
        let g = gram_t(&a);
        let expected = matmul(&a, &a.transpose());
        assert!(g.approx_eq(&expected, 1e-10));
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(g.get(i, j), g.get(j, i));
            }
        }
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_panics_on_mismatch() {
        let _ = matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }

    #[test]
    fn identity_is_neutral() {
        let a = random(8, 8, 11);
        assert!(matmul(&a, &Matrix::identity(8)).approx_eq(&a, 1e-12));
        assert!(matmul(&Matrix::identity(8), &a).approx_eq(&a, 1e-12));
    }
}

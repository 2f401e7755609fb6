//! Small dense-matrix kernels for shape extraction.
//!
//! k-Shape's centroid refinement needs the dominant eigenvector of a
//! symmetric `m × m` matrix (`m` = series length, 168 here). Power
//! iteration with periodic renormalization is entirely adequate at that
//! size and keeps the workspace dependency-free.

/// A dense row-major square matrix.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SquareMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SquareMatrix {
    /// Creates an `n × n` zero matrix.
    pub(crate) fn zeros(n: usize) -> Self {
        SquareMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Dimension.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Element accessor.
    #[inline]
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Element mutator.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// Adds `v` to element `(i, j)`.
    #[inline]
    pub(crate) fn add(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] += v;
    }

    /// Matrix–vector product `y = self · x` into a caller-owned buffer.
    pub(crate) fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.n..(i + 1) * self.n];
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            *yi = acc;
        }
    }
}

/// Result of a dominant-eigenpair computation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EigenPair {
    /// The dominant eigenvalue (largest in magnitude).
    pub value: f64,
    /// The corresponding unit eigenvector.
    pub vector: Vec<f64>,
}

/// Computes the dominant eigenpair of a symmetric matrix by power
/// iteration.
///
/// Returns `None` when the iteration degenerates (zero matrix). The
/// starting vector is deterministic, so results are reproducible.
pub(crate) fn dominant_eigenpair(m: &SquareMatrix, max_iter: usize, tol: f64) -> Option<EigenPair> {
    dominant_eigenpair_of(m.n(), |v, w| m.mul_vec_into(v, w), max_iter, tol)
}

/// Power iteration against an arbitrary symmetric linear operator,
/// supplied as a matvec `apply(v, w)` writing `A·v` into `w`.
///
/// This is [`dominant_eigenpair`] with the matrix abstracted away: same
/// deterministic starting vector, Rayleigh-quotient eigenvalue estimate,
/// normalization, and stopping rule, so a dense matrix and an implicit
/// operator that performs the same floating-point accumulation produce
/// bit-identical results. The two buffers handed to `apply` are reused
/// across iterations — the whole computation allocates exactly twice.
pub(crate) fn dominant_eigenpair_of(
    n: usize,
    mut apply: impl FnMut(&[f64], &mut [f64]),
    max_iter: usize,
    tol: f64,
) -> Option<EigenPair> {
    if n == 0 {
        return None;
    }
    // Deterministic, non-degenerate start: varying entries to avoid being
    // orthogonal to the dominant eigenvector by symmetry.
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.7).sin() * 0.5).collect();
    normalize(&mut v)?;

    let mut w = vec![0.0; n];
    let mut lambda = 0.0;
    for _ in 0..max_iter {
        apply(&v, &mut w);
        let new_lambda = dot(&v, &w);
        normalize(&mut w)?; // None: the operator annihilated the vector
        let delta = (new_lambda - lambda).abs();
        std::mem::swap(&mut v, &mut w);
        lambda = new_lambda;
        if delta <= tol * lambda.abs().max(1.0) {
            break;
        }
    }
    Some(EigenPair {
        value: lambda,
        vector: v,
    })
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

fn normalize(v: &mut [f64]) -> Option<()> {
    let norm = dot(v, v).sqrt();
    if norm <= 1e-300 {
        return None;
    }
    for x in v.iter_mut() {
        *x /= norm;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_vec_into_matches_hand_computation() {
        let m = SquareMatrix {
            n: 2,
            data: vec![1.0, 2.0, 3.0, 4.0],
        };
        let mut y = vec![0.0; 2];
        m.mul_vec_into(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn accessors_roundtrip() {
        let mut m = SquareMatrix::zeros(3);
        m.set(0, 2, 5.0);
        m.add(0, 2, 1.0);
        assert_eq!(m.get(0, 2), 6.0);
        assert_eq!(m.n(), 3);
    }

    #[test]
    fn dominant_eigenpair_of_diagonal_matrix() {
        let mut m = SquareMatrix::zeros(3);
        m.set(0, 0, 1.0);
        m.set(1, 1, 5.0);
        m.set(2, 2, 2.0);
        let e = dominant_eigenpair(&m, 500, 1e-12).unwrap();
        assert!((e.value - 5.0).abs() < 1e-9);
        assert!((e.vector[1].abs() - 1.0).abs() < 1e-6);
        assert!(e.vector[0].abs() < 1e-5 && e.vector[2].abs() < 1e-5);
    }

    #[test]
    fn dominant_eigenpair_of_rank_one_matrix() {
        // M = u uᵀ has dominant eigenvector u (normalized), eigenvalue |u|².
        let u = [1.0, 2.0, -2.0];
        let mut m = SquareMatrix::zeros(3);
        for i in 0..3 {
            for j in 0..3 {
                m.set(i, j, u[i] * u[j]);
            }
        }
        let e = dominant_eigenpair(&m, 200, 1e-12).unwrap();
        assert!((e.value - 9.0).abs() < 1e-9);
        let norm_u = 3.0;
        for (i, &ui) in u.iter().enumerate() {
            // Up to a global sign.
            assert!(
                (e.vector[i].abs() - (ui / norm_u).abs()).abs() < 1e-6,
                "component {i}"
            );
        }
    }

    #[test]
    fn zero_matrix_yields_none() {
        let m = SquareMatrix::zeros(4);
        assert!(dominant_eigenpair(&m, 100, 1e-10).is_none());
    }

    #[test]
    fn empty_matrix_yields_none() {
        let m = SquareMatrix::zeros(0);
        assert!(dominant_eigenpair(&m, 100, 1e-10).is_none());
    }

    #[test]
    fn operator_form_matches_dense_bitwise() {
        // A symmetric matrix driven both ways: the dense entry point and
        // the operator entry point with the matrix's own matvec must agree
        // to the bit, including iteration-for-iteration convergence.
        let n = 9;
        let mut m = SquareMatrix::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                let v = ((i * 3 + j * 7) % 11) as f64 - 5.0;
                m.set(i, j, v);
                m.set(j, i, v);
            }
        }
        let dense = dominant_eigenpair(&m, 300, 1e-10).unwrap();
        let op = dominant_eigenpair_of(n, |v, w| m.mul_vec_into(v, w), 300, 1e-10).unwrap();
        assert_eq!(dense.value.to_bits(), op.value.to_bits());
        for (a, b) in dense.vector.iter().zip(op.vector.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

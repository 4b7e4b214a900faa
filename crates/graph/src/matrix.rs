//! A dense square matrix used for all-pairs computations.

use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

/// A dense `n × n` matrix indexed by `(row, col)` node pairs.
///
/// The synchronizer works with metric closures over the *complete* processor
/// graph (the paper's cyclic sequences range over arbitrary processor pairs,
/// not just edges of `G`), so a dense representation is the natural fit.
///
/// # Examples
///
/// ```
/// use clocksync_graph::SquareMatrix;
///
/// let mut m = SquareMatrix::filled(2, 0i64);
/// m[(0, 1)] = 7;
/// assert_eq!(m[(0, 1)], 7);
/// assert_eq!(m.n(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SquareMatrix<T> {
    n: usize,
    data: Vec<T>,
}

impl<T: Clone> SquareMatrix<T> {
    /// Creates an `n × n` matrix with every entry set to `fill`.
    pub fn filled(n: usize, fill: T) -> Self {
        SquareMatrix {
            n,
            data: vec![fill; n * n],
        }
    }

    /// The sub-matrix over the rows and columns `members`, in their order.
    pub fn restrict(&self, members: &[usize]) -> Self {
        SquareMatrix::from_fn(members.len(), |a, b| self[(members[a], members[b])].clone())
    }
}

impl<T> SquareMatrix<T> {
    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                data.push(f(i, j));
            }
        }
        SquareMatrix { n, data }
    }

    /// Builds a matrix from its row-major backing vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n * n`.
    pub fn from_vec(n: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), n * n, "backing vector must hold n*n entries");
        SquareMatrix { n, data }
    }

    /// The dimension of the matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The row-major backing slice (row `i` occupies `i*n..(i+1)*n`).
    ///
    /// This is the entry point for kernels that want flat, cache-friendly
    /// access instead of per-element `(row, col)` indexing.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable row-major backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// One row as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= n`.
    pub fn row(&self, row: usize) -> &[T] {
        assert!(row < self.n, "matrix index out of range");
        &self.data[row * self.n..(row + 1) * self.n]
    }

    /// Borrowing accessor; panics on out-of-range indices like indexing.
    pub fn get(&self, row: usize, col: usize) -> &T {
        &self[(row, col)]
    }

    /// Iterates over `(row, col, &value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &T)> {
        self.data
            .iter()
            .enumerate()
            .map(move |(k, v)| (k / self.n, k % self.n, v))
    }

    /// Iterates over the off-diagonal entries as `(row, col, &value)`.
    pub fn iter_off_diagonal(&self) -> impl Iterator<Item = (usize, usize, &T)> {
        self.iter().filter(|(i, j, _)| i != j)
    }
}

impl<T> Index<(usize, usize)> for SquareMatrix<T> {
    type Output = T;
    fn index(&self, (row, col): (usize, usize)) -> &T {
        assert!(row < self.n && col < self.n, "matrix index out of range");
        &self.data[row * self.n + col]
    }
}

impl<T> IndexMut<(usize, usize)> for SquareMatrix<T> {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut T {
        assert!(row < self.n && col < self.n, "matrix index out of range");
        &mut self.data[row * self.n + col]
    }
}

impl<T: fmt::Display> fmt::Display for SquareMatrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.n {
            for j in 0..self.n {
                if j > 0 {
                    write!(f, "\t")?;
                }
                write!(f, "{}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = SquareMatrix::from_fn(3, |i, j| (i * 10 + j) as i64);
        assert_eq!(m.n(), 3);
        assert_eq!(m[(2, 1)], 21);
        assert_eq!(*m.get(0, 2), 2);
    }

    #[test]
    fn mutation() {
        let mut m = SquareMatrix::filled(2, 0i64);
        m[(1, 0)] = -5;
        assert_eq!(m[(1, 0)], -5);
        assert_eq!(m[(0, 1)], 0);
    }

    #[test]
    fn iteration_orders_and_filters() {
        let m = SquareMatrix::from_fn(2, |i, j| i * 2 + j);
        let all: Vec<_> = m.iter().map(|(i, j, v)| (i, j, *v)).collect();
        assert_eq!(all, vec![(0, 0, 0), (0, 1, 1), (1, 0, 2), (1, 1, 3)]);
        let off: Vec<_> = m.iter_off_diagonal().map(|(i, j, _)| (i, j)).collect();
        assert_eq!(off, vec![(0, 1), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let m = SquareMatrix::filled(2, 0i64);
        let _ = m[(2, 0)];
    }

    #[test]
    fn flat_access_matches_indexing() {
        let mut m = SquareMatrix::from_fn(3, |i, j| (i * 3 + j) as i64);
        assert_eq!(m.as_slice()[5], m[(1, 2)]);
        assert_eq!(m.row(2), &[6, 7, 8]);
        m.as_mut_slice()[4] = -1;
        assert_eq!(m[(1, 1)], -1);
        let rebuilt = SquareMatrix::from_vec(3, m.as_slice().to_vec());
        assert_eq!(rebuilt, m);
    }

    #[test]
    #[should_panic(expected = "n*n entries")]
    fn from_vec_checks_length() {
        let _ = SquareMatrix::from_vec(2, vec![1i64, 2, 3]);
    }

    #[test]
    fn display_is_tab_separated() {
        let m = SquareMatrix::from_fn(2, |i, j| i + j);
        assert_eq!(m.to_string(), "0\t1\n1\t2\n");
    }
}

//! Coded symbols: coefficients over GF(256) plus the combined payload.

/// One coded symbol of a `k`-block message: `payload = Σ coeffs[i]·block_i`
/// with all arithmetic in GF(256), applied bytewise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// The GF(256) coefficient of each source block (length `k`).
    pub coeffs: Vec<u8>,
    /// The combined payload (length = block size).
    pub payload: Vec<u8>,
}

impl Symbol {
    /// A zero symbol (zero coefficients, zero payload).
    pub fn zero(k: usize, block_len: usize) -> Self {
        Self {
            coeffs: vec![0; k],
            payload: vec![0; block_len],
        }
    }

    /// The trivial symbol carrying source block `i` uncoded.
    pub fn unit(k: usize, i: usize, block: &[u8]) -> Self {
        assert!(i < k, "block index {i} out of range {k}");
        let mut coeffs = vec![0; k];
        coeffs[i] = 1;
        Self {
            coeffs,
            payload: block.to_vec(),
        }
    }

    /// Number of source blocks this symbol spans.
    pub fn k(&self) -> usize {
        self.coeffs.len()
    }

    /// True when all coefficients are zero (carries no information).
    pub fn is_zero(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_symbol_shape() {
        let s = Symbol::unit(4, 2, &[9, 9]);
        assert_eq!(s.coeffs, vec![0, 0, 1, 0]);
        assert_eq!(s.payload, vec![9, 9]);
        assert!(!s.is_zero());
        assert_eq!(s.k(), 4);
    }

    #[test]
    fn zero_symbol() {
        let s = Symbol::zero(3, 5);
        assert!(s.is_zero());
        assert_eq!(s.payload.len(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unit_out_of_range_panics() {
        let _ = Symbol::unit(2, 2, &[1]);
    }
}

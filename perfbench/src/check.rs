//! Correctness checks.  Every workload runs them on its own outputs, and
//! any mismatch fails the run.
//!
//! Answers are compared through their `Debug` rendering, which prints every
//! `f64` in its shortest round-trip form: two answers have the same digest
//! exactly when every float in them has the same bits.

use std::fmt::{self, Debug, Write};

use uncertain_graph::UncertainGraph;

use ugs_core::prelude::SparsifyOutput;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A `fmt::Write` sink that hashes what is written instead of storing it.
struct Fnv(u64);

impl Fnv {
    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.feed(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a digest of `value`'s `Debug` rendering, computed without building
/// the string.
pub fn digest(value: &impl Debug) -> u64 {
    let mut hasher = Fnv(FNV_OFFSET);
    write!(hasher, "{value:?}").expect("hashing never fails");
    hasher.0
}

/// FNV-1a digest of raw bytes.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv(FNV_OFFSET);
    hasher.feed(bytes);
    hasher.0
}

/// Fails unless `got` has the `expected` digest.
pub fn same(what: &str, expected: u64, got: &impl Debug) -> Result<(), String> {
    let actual = digest(got);
    if actual == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: answers differ (digest {actual:016x}, expected {expected:016x})"
        ))
    }
}

/// The `sparsify` contract: exactly `round(α|E|)` edges over the original
/// vertex set, every probability in `(0, 1]`, and an objective that ends no
/// higher than it started.
pub fn sparsified(
    original: &UncertainGraph,
    alpha: f64,
    out: &SparsifyOutput,
) -> Result<(), String> {
    let method = &out.diagnostics.method;
    let target = (alpha * original.num_edges() as f64).round() as usize;
    if out.graph.num_edges() != target {
        return Err(format!(
            "{method}: {} edges, expected round(α|E|) = {target}",
            out.graph.num_edges()
        ));
    }
    if out.graph.num_vertices() != original.num_vertices() {
        return Err(format!(
            "{method}: {} vertices, expected {}",
            out.graph.num_vertices(),
            original.num_vertices()
        ));
    }
    if let Some(edge) = out.graph.edges().find(|e| !(e.p > 0.0 && e.p <= 1.0)) {
        return Err(format!(
            "{method}: edge {} has probability {}",
            edge.id, edge.p
        ));
    }
    let trace = &out.diagnostics.objective_trace;
    match (trace.first(), trace.last()) {
        (Some(first), Some(last)) if last <= first => Ok(()),
        (Some(first), Some(last)) => {
            Err(format!("{method}: objective rose from {first} to {last}"))
        }
        _ => Err(format!("{method}: no objective trace")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_see_every_bit_of_a_float() {
        let a = vec![0.1_f64, 0.2, 0.3];
        let mut b = a.clone();
        assert!(same("same", digest(&a), &b).is_ok());
        b[1] = f64::from_bits(b[1].to_bits() + 1);
        assert!(same("one ulp", digest(&a), &b).is_err());
        assert_ne!(digest(&0.0_f64), digest(&-0.0_f64));
    }
}

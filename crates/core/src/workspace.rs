//! Reusable execution workspace: one flat scalar arena that a
//! [`crate::Plan`] carves all of its S/T/M temporaries out of.
//!
//! Planning computes the exact peak temporary footprint from one
//! layout per recursion depth ([`crate::Plan::workspace_len`]); executing then
//! checks a right-sized slice out of a `Workspace` and performs **no**
//! heap allocation — the FFTW/BLIS plan-execute discipline applied to
//! fast matrix multiplication. A workspace grows monotonically: once it
//! has served a plan, every further execute of that plan (or any
//! smaller one) reuses the same buffer, which
//! [`crate::ExecStatsSnapshot::workspace_reused`] lets tests assert.
//!
//! The arena is carved in **elements of the plan's scalar type** —
//! a `Workspace::<f32>` holds half the bytes of an equally-sized
//! `Workspace` (f64) — so a workspace only serves plans of its own
//! element type (the type system enforces this).

use crate::planner::Plan;
use fmm_gemm::GemmScalar;
use fmm_matrix::Scalar;

/// A reusable bump arena for [`crate::Plan::execute`].
///
/// Create one per thread of control (workspaces are not shared between
/// concurrent executes; [`crate::Plan::execute_batch`] uses one per
/// batch entry) and keep it alive across calls to amortize the single
/// allocation.
#[derive(Debug)]
pub struct Workspace<T = f64> {
    buf: Vec<T>,
}

impl<T: Scalar> Default for Workspace<T> {
    fn default() -> Self {
        Workspace { buf: Vec::new() }
    }
}

impl<T: GemmScalar> Workspace<T> {
    /// An empty workspace; the first execute sizes it.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// A workspace pre-sized for `plan`, so even the first
    /// [`crate::Plan::execute`] allocates nothing.
    pub fn for_plan(plan: &Plan<T>) -> Self {
        Workspace {
            buf: vec![T::ZERO; plan.workspace_len()],
        }
    }

    /// Current capacity in scalar elements.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no buffer has been acquired yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Borrow the first `len` elements, growing the buffer only when it
    /// is too small. Returns the slice and whether the existing buffer
    /// was reused as-is (i.e. the checkout allocated nothing).
    pub(crate) fn checkout(&mut self, len: usize) -> (&mut [T], bool) {
        let reused = self.buf.len() >= len;
        if !reused {
            self.buf.resize(len, T::ZERO);
        }
        (&mut self.buf[..len], reused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_grows_then_reuses() {
        let mut ws = Workspace::<f64>::new();
        assert!(ws.is_empty());
        let (slice, reused) = ws.checkout(16);
        assert_eq!(slice.len(), 16);
        assert!(!reused, "first checkout must allocate");
        let (_, reused) = ws.checkout(16);
        assert!(reused, "same-size checkout must not allocate");
        let (_, reused) = ws.checkout(8);
        assert!(reused, "smaller checkout must not allocate");
        assert_eq!(ws.len(), 16);
        let (_, reused) = ws.checkout(32);
        assert!(!reused, "larger checkout must grow");
        assert_eq!(ws.len(), 32);
    }

    #[test]
    fn f32_workspace_checkout() {
        let mut ws = Workspace::<f32>::new();
        let (slice, reused) = ws.checkout(12);
        assert!(!reused, "first checkout must allocate");
        assert!(slice.iter().all(|&x| x == 0.0f32));
        let (_, reused) = ws.checkout(12);
        assert!(reused);
    }
}
